//! In-process fleet chaos: crash a whole shard mid-drain, recover it
//! from its journal, and check the coordinator's books balance — no job
//! lost, no job double-dispatched, and the sum of shard power caps never
//! exceeds the cluster cap at any point.
//!
//! The full-scale acceptance run (32 shards x 32 machines, 100k jobs) is
//! gated behind `CORUN_FLEET_FULL=1`; the default tests exercise the
//! same paths at a size a one-core CI box drains in seconds.

use corun_fleet::{
    start_local_shards, Fleet, FleetConfig, FleetMetrics, NetConfig, PlacementKind, ShardBackend,
};
use corun_serve::ServiceConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("corun-fleet-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The shard template every test uses: fast characterization, shared
/// cache so only the first shard pays it.
fn shard_template(dir: &Path) -> ServiceConfig {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.queue_capacity = 32;
    cfg.cache_dir = Some(dir.join("cache"));
    cfg
}

/// In-process shards over the RPC stack with default deadlines and no
/// network faults; shard `s` runs `plan(s)`.
fn local_shards(
    template: &ServiceConfig,
    shards: usize,
    machines: usize,
    dir: Option<&Path>,
    plan: impl FnMut(usize) -> Option<apu_sim::FaultPlan>,
) -> Vec<Box<dyn ShardBackend>> {
    let net = NetConfig::default();
    start_local_shards(template, shards, machines, dir, plan, net, None)
}

/// Every admitted job terminal, books balanced, cap invariant held for
/// the whole run.
fn assert_books_balance(fleet: &Fleet, m: &FleetMetrics) {
    assert!(
        m.drained(),
        "{} of {} jobs terminal ({} backlog, {} in flight)",
        m.jobs_done + m.jobs_dead_letter + m.jobs_rejected,
        m.jobs_total,
        m.backlog,
        m.in_flight
    );
    fleet.router().check_books();
    for id in 0..fleet.router().jobs() {
        let job = fleet.router().job(id);
        assert!(
            job.submits <= job.requeues + 1,
            "job {id} double-dispatched: {} accepts for {} requeues",
            job.submits,
            job.requeues
        );
    }
    // The shards' own counters must agree with the coordinator's.
    let shard_terminal: usize = m.shards.iter().map(|s| s.completed + s.dead_lettered).sum();
    assert!(
        shard_terminal >= m.jobs_done + m.jobs_dead_letter,
        "shards finished {shard_terminal} jobs but the fleet folded {}",
        m.jobs_done + m.jobs_dead_letter
    );
    // The central invariant: at no point did the handed-out caps sum
    // past the cluster cap.
    assert!(
        corun_core::respects_cluster_cap(&[m.max_cap_sum_w], m.cluster_cap_w),
        "cap hand-outs peaked at {} W over a {} W cluster cap",
        m.max_cap_sum_w,
        m.cluster_cap_w
    );
    assert!(m.rebalances > 0, "the budget was never partitioned");
}

#[test]
fn fleet_drains_without_faults() {
    let dir = temp_dir("steady");
    let template = shard_template(&dir);
    for placement in [PlacementKind::Ring, PlacementKind::LeastLoaded] {
        let backends = local_shards(&template, 3, 2, None, |_| None);
        let mut cfg = FleetConfig::new(3, 2, 60.0);
        cfg.placement = placement;
        cfg.paranoid = true;
        let mut fleet = Fleet::new(cfg, backends).expect("fleet");
        fleet
            .submit_spec("srad x0.05 *12\nlud x0.05 *12\n")
            .expect("submit");
        let m = fleet.drain(120.0).expect("drain");
        assert_books_balance(&fleet, &m);
        assert_eq!(m.jobs_done, 24, "all jobs complete in a fault-free run");
        assert_eq!(m.lost_requeues, 0);
        fleet.begin_shutdown();
        fleet.finish();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashed_shard_recovers_from_journal_and_books_balance() {
    let dir = temp_dir("chaos");
    let template = shard_template(&dir);
    const SHARDS: usize = 4;
    const VICTIM: usize = 1;
    // Both of the victim's machines stop dead early in simulated time;
    // the shard reads dead (workers_alive == 0) and the coordinator
    // restarts it from its journal.
    let backends = local_shards(&template, SHARDS, 2, Some(&dir), |s| {
        (s == VICTIM).then(|| {
            apu_sim::FaultPlan::parse("@chaos seed=5 crash=0:2 crash=1:2\n").expect("plan")
        })
    });
    let mut cfg = FleetConfig::new(SHARDS, 2, 80.0);
    cfg.paranoid = true;
    cfg.recover_backoff_rounds = 5;
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    fleet
        .submit_spec("srad x0.05 *20\nlud x0.05 *20\nhotspot x0.05 *20\n")
        .expect("submit");
    let m = fleet.drain(180.0).expect("drain despite the crash");
    assert_books_balance(&fleet, &m);
    // Journal recovery means the crash loses nothing: every job reaches
    // a terminal state and none is silently dropped.
    assert_eq!(
        m.jobs_done + m.jobs_dead_letter,
        m.jobs_total,
        "every admitted job must be terminal after recovery"
    );
    assert!(
        m.alive.iter().all(|&a| a),
        "the crashed shard must be back: {:?}",
        m.alive
    );
    fleet.begin_shutdown();
    fleet.finish();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovered_shard_runs_under_a_fresh_cap() {
    let dir = temp_dir("cap");
    let template = shard_template(&dir);
    let backends = local_shards(&template, 2, 1, Some(&dir), |s| {
        (s == 0).then(|| apu_sim::FaultPlan::parse("@chaos seed=3 crash=0:2\n").expect("plan"))
    });
    let mut cfg = FleetConfig::new(2, 1, 40.0);
    cfg.paranoid = true;
    cfg.recover_backoff_rounds = 3;
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    fleet.submit_spec("srad x0.05 *10\n").expect("submit");
    let m = fleet.drain(120.0).expect("drain");
    assert_books_balance(&fleet, &m);
    // The recovered shard's live cap must be a cap the coordinator
    // handed out, and the booked pair must respect the cluster cap.
    assert!(
        corun_core::respects_cluster_cap(&m.caps_w, m.cluster_cap_w),
        "booked caps {:?} exceed the {} W cluster cap",
        m.caps_w,
        m.cluster_cap_w
    );
    for (s, shard) in m.shards.iter().enumerate() {
        assert!(
            shard.cap_w <= m.cluster_cap_w,
            "shard {s} runs at {} W, above the whole cluster cap",
            shard.cap_w
        );
    }
    fleet.begin_shutdown();
    fleet.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The CI-sized event-driven smoke: 8 shards x 16 machines draining
/// 20k jobs with a shard crash, each shard stepping its machines from a
/// small batched worker pool (the discrete-event engine makes this
/// tractable on a CI box). `ci.sh` runs it with `--ignored`.
#[test]
#[ignore = "CI smoke: run explicitly via ci.sh with --ignored"]
fn event_driven_fleet_smoke_drains_20k_jobs() {
    let dir = temp_dir("smoke");
    let mut template = shard_template(&dir);
    // Four worker threads per shard batch-step 16 machines each: the
    // workers pull the earliest wake-up across their resident sessions
    // instead of ticking machines round-robin.
    template.worker_threads = 4;
    const SHARDS: usize = 8;
    const MACHINES: usize = 16;
    const JOBS: usize = 20_000;
    let backends = local_shards(&template, SHARDS, MACHINES, Some(&dir), |s| {
        (s == 2).then(|| {
            let plan: String = (0..MACHINES).map(|m| format!(" crash={m}:5")).collect();
            apu_sim::FaultPlan::parse(&format!("@chaos seed=7{plan}\n")).expect("plan")
        })
    });
    // 20 W per shard on average with a 15 W floor: the load-proportional
    // partitioner must never pin a shard below the level at which the
    // workload stays cap-feasible, or its submissions bounce as
    // infeasible instead of backpressuring.
    let mut cfg = FleetConfig::new(SHARDS, MACHINES, SHARDS as f64 * 20.0);
    cfg.shard_floor_w = 15.0;
    cfg.recover_backoff_rounds = 20;
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    let mut admitted = 0usize;
    while admitted < JOBS {
        let batch = (JOBS - admitted).min(1000);
        fleet
            .submit_spec(&format!("srad x0.05 *{batch}\n"))
            .expect("submit");
        admitted += batch;
        fleet.pump();
    }
    let m = fleet.drain(1800.0).expect("drain 20k jobs");
    assert_books_balance(&fleet, &m);
    assert_eq!(m.jobs_done + m.jobs_dead_letter, JOBS);
    fleet.begin_shutdown();
    fleet.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance-scale run: 32 shards x 32 machines draining 100k jobs
/// with a shard crash in the middle. Run it with `CORUN_FLEET_FULL=1` —
/// it wants a real multi-core box.
#[test]
fn full_scale_fleet_drains_100k_jobs_under_chaos() {
    if std::env::var("CORUN_FLEET_FULL").is_err() {
        return;
    }
    let dir = temp_dir("full");
    let template = shard_template(&dir);
    const SHARDS: usize = 32;
    const MACHINES: usize = 32;
    const JOBS: usize = 100_000;
    let backends = local_shards(&template, SHARDS, MACHINES, Some(&dir), |s| {
        (s == 3).then(|| {
            let plan: String = (0..MACHINES).map(|m| format!(" crash={m}:5")).collect();
            apu_sim::FaultPlan::parse(&format!("@chaos seed=9{plan}\n")).expect("plan")
        })
    });
    let mut cfg = FleetConfig::new(SHARDS, MACHINES, 32.0 * 15.0);
    cfg.recover_backoff_rounds = 20;
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    let mut admitted = 0usize;
    while admitted < JOBS {
        let batch = (JOBS - admitted).min(1000);
        fleet
            .submit_spec(&format!("srad x0.05 *{batch}\n"))
            .expect("submit");
        admitted += batch;
        fleet.pump();
    }
    let m = fleet.drain(3600.0).expect("drain 100k jobs");
    assert_books_balance(&fleet, &m);
    assert_eq!(m.jobs_done + m.jobs_dead_letter, JOBS);
    fleet.begin_shutdown();
    fleet.finish();
    std::fs::remove_dir_all(&dir).ok();
}
