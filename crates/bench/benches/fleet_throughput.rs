//! Fleet vs single-daemon throughput at equal machine count: the same
//! workload drained by (a) one service owning all the machines and (b) a
//! sharded fleet splitting them — records the jobs/sec of each and their
//! ratio to `BENCH_fleet.json`.
//!
//! The single service serializes admission, dispatch, and completion
//! bookkeeping behind one lock and one dispatcher pass; the fleet shards
//! that contention. `CORUN_FLEET_BENCH_JOBS` / `CORUN_FLEET_BENCH_SHARDS`
//! scale the run up on bigger boxes.

use corun_fleet::{start_local_shards, Fleet, FleetConfig, NetConfig};
use corun_serve::{Service, ServiceConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn env_num(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn template(cache: &std::path::Path) -> ServiceConfig {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.queue_capacity = 100_000;
    cfg.cache_dir = Some(cache.to_path_buf());
    cfg
}

/// Drain `jobs` small jobs through one service owning `machines`
/// machines; returns jobs/sec.
fn single_daemon_rate(cache: &std::path::Path, machines: usize, jobs: usize) -> f64 {
    let mut cfg = template(cache);
    cfg.machines = machines;
    let svc = Service::start(cfg);
    let t0 = std::time::Instant::now();
    let mut ids = Vec::new();
    for _ in 0..jobs {
        ids.extend(svc.submit_spec("srad x0.05").expect("admitted"));
    }
    for &id in &ids {
        svc.wait_job(id).expect("known id");
    }
    let rate = jobs as f64 / t0.elapsed().as_secs_f64();
    svc.shutdown();
    rate
}

/// Drain the same jobs through a fleet of `shards`, machine count held
/// equal; returns jobs/sec.
fn fleet_rate(
    cache: &std::path::Path,
    shards: usize,
    machines_per_shard: usize,
    jobs: usize,
) -> f64 {
    let tpl = template(cache);
    let net = NetConfig::default();
    let backends = start_local_shards(&tpl, shards, machines_per_shard, None, |_| None, net, None);
    let mut cfg = FleetConfig::new(shards, machines_per_shard, 15.0 * shards as f64);
    cfg.queue_high_water = 10_000;
    cfg.submit_burst = 256;
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    let t0 = std::time::Instant::now();
    let mut admitted = 0usize;
    while admitted < jobs {
        let batch = (jobs - admitted).min(500);
        fleet
            .submit_spec(&format!("srad x0.05 *{batch}\n"))
            .expect("admit");
        admitted += batch;
        fleet.pump();
    }
    fleet.drain(3600.0).expect("drain");
    let rate = jobs as f64 / t0.elapsed().as_secs_f64();
    fleet.begin_shutdown();
    fleet.finish();
    rate
}

fn bench_fleet_vs_single(c: &mut Criterion) {
    let _ = c;
    let shards = env_num("CORUN_FLEET_BENCH_SHARDS", 4);
    let machines_per_shard = env_num("CORUN_FLEET_BENCH_MACHINES", 2);
    let jobs = env_num("CORUN_FLEET_BENCH_JOBS", 200);
    let cache = std::env::temp_dir().join(format!("corun-fleet-bench-{}", std::process::id()));
    std::fs::create_dir_all(&cache).expect("cache dir");

    let single = single_daemon_rate(&cache, shards * machines_per_shard, jobs);
    println!(
        "single daemon ({} machines): {single:.1} jobs/s",
        shards * machines_per_shard
    );
    let fleet = fleet_rate(&cache, shards, machines_per_shard, jobs);
    println!("fleet ({shards} x {machines_per_shard} machines): {fleet:.1} jobs/s");
    println!("fleet/single ratio: {:.2}x", fleet / single);

    let samples = [
        bench::trajectory::Sample::new("fleet_jobs_per_sec", fleet, "jobs/s"),
        bench::trajectory::Sample::new("single_daemon_jobs_per_sec", single, "jobs/s"),
        bench::trajectory::Sample::new("fleet_over_single_ratio", fleet / single, "x"),
    ];
    match bench::trajectory::write("fleet", &samples) {
        Ok(path) => println!("trajectory written to {}", path.display()),
        Err(e) => eprintln!("trajectory write failed: {e}"),
    }
    std::fs::remove_dir_all(&cache).ok();
}

criterion_group!(benches, bench_fleet_vs_single);
criterion_main!(benches);
