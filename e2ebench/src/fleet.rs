//! `fleet-durable`: a journaled coordinator over four journaled shard
//! daemons reached over TCP.
//!
//! One coordinator thread submits seeded fragments with `Fleet::submit_spec`
//! on an open-loop Poisson schedule and pumps the coordinator between
//! arrivals, sleeping as `Fleet::drain` does when a round folds nothing
//! (never past the next due time). A job is done at the first pump after
//! which the router shows it terminal. A second thread makes monitoring
//! reads (`metrics`, `status`) over one client connection to shard 0 on
//! a fixed schedule during the fixed-rate phase. Phases: fixed rate, burst plus drain, then
//! `Fleet::recover` from the fleetlog after the coordinator is dropped
//! without a shutdown.

use crate::loadgen::{
    at, below, fragment_mix, poisson_schedule, sleep_until, stream_rng, Fragment,
};
use crate::report::{Outcome, Pooled};
use crate::serve::journal_layers;
use crate::stats::Dist;
use crate::timing_shard::{SharedLog, TimingShard};
use crate::trace::Tracer;
use crate::{Params, BURST_SHARE, FIXED_SHARE, SETUP_REPS};
use apu_sim::MachineConfig;
use corun_fleet::{
    scan_fleetlog, Fleet, FleetConfig, FleetLog, FleetRecord, JobLoc, RemoteShard, ShardBackend,
};
use corun_serve::{Client, Json, Server, Service, ServiceConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const MACHINES_PER_SHARD: usize = 2;
/// Per-shard budget; the cluster cap is `SHARDS` times this.
const SHARD_CAP_W: f64 = 15.0;
/// Budget floor of a live shard. A shard's cap never drops below the
/// least budget at which every program of the fragment mix has a
/// cap-feasible solo run (5.54 W, streamcluster at the largest scale),
/// so no submission is refused as infeasible; the `FleetConfig` default
/// of 5 W lies below that. The other 4 × (15 − 6) W of the cluster cap
/// is the surplus the demand-proportional partitioner moves.
const SHARD_FLOOR_W: f64 = 6.0;
/// Monitoring reads per second against shard 0.
const READ_RATE: f64 = 200.0;
/// Coordinator recoveries per cycle; `recover_s` is their median.
const RECOVERIES: usize = 9;
/// `Fleet::drain`'s idle sleep.
const IDLE_SLEEP: Duration = Duration::from_millis(2);
/// Fleetlog records re-appended to time `FleetLog::append`.
const APPEND_PROBE: usize = 2000;
/// Upper bound on any drain, seconds.
const DRAIN_TIMEOUT_S: f64 = 60.0;

fn fleet_config(dir: &Path) -> FleetConfig {
    let mut cfg = FleetConfig::new(SHARDS, MACHINES_PER_SHARD, SHARD_CAP_W * SHARDS as f64);
    cfg.shard_floor_w = SHARD_FLOOR_W;
    cfg.journal_path = Some(dir.join("fleet.log"));
    cfg
}

fn shard_config(dir: &Path, shard: usize) -> ServiceConfig {
    let machine = MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.machines = MACHINES_PER_SHARD;
    cfg.cap_w = SHARD_CAP_W;
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.journal_path = Some(dir.join(format!("shard{shard}.journal")));
    cfg
}

/// Connect one backend per daemon, timed when a call log is given.
fn connect(
    servers: &[Server],
    log: Option<&SharedLog>,
) -> Result<Vec<Box<dyn ShardBackend>>, String> {
    servers
        .iter()
        .map(|s| {
            let shard = RemoteShard::connect(&s.addr().to_string())?;
            Ok(match log {
                Some(log) => {
                    Box::new(TimingShard::new(shard, Arc::clone(log))) as Box<dyn ShardBackend>
                }
                None => Box::new(shard) as Box<dyn ShardBackend>,
            })
        })
        .collect()
}

struct Cluster {
    servers: Vec<Server>,
    fleet: Fleet,
}

/// Start the daemons into `dir` (one empty characterization cache they
/// share), connect, and open the coordinator with a fresh fleetlog.
fn start(dir: &Path, log: Option<&SharedLog>) -> Result<Cluster, String> {
    let servers = (0..SHARDS)
        .map(|s| {
            Server::bind(Service::start(shard_config(dir, s)), "127.0.0.1:0")
                .map_err(|e| format!("bind: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let fleet = Fleet::new(fleet_config(dir), connect(&servers, log)?)?;
    Ok(Cluster { servers, fleet })
}

/// Stop the daemons (the coordinator, if any, must be gone already).
fn stop_servers(servers: Vec<Server>, mut fleet: Fleet) {
    fleet.begin_shutdown();
    fleet.finish();
    drop(fleet);
    for s in servers {
        s.run_to_shutdown();
    }
}

/// The coordinator thread's books: jobs not yet seen terminal and every
/// latency it measured.
#[derive(Default)]
struct FleetLoop {
    /// (fleet job id, due time, from the burst).
    pending: VecDeque<(usize, Instant, bool)>,
    /// (due-to-done seconds, done time, from the burst).
    done: Vec<(f64, Instant, bool)>,
    acks: Vec<f64>,
    admits: Vec<f64>,
    pumps: Vec<f64>,
}

impl FleetLoop {
    /// `Fleet::submit_spec` one fragment due at `due`.
    fn admit(
        &mut self,
        fleet: &mut Fleet,
        f: &Fragment,
        due: Instant,
        burst: bool,
        tr: &Tracer,
    ) -> bool {
        let t = Instant::now();
        let r = tr.span("fleet.submit_spec", 0, None, || fleet.submit_spec(&f.text));
        let end = Instant::now();
        self.admits.push((end - t).as_secs_f64());
        let Ok(ids) = r else { return false };
        if !burst {
            self.acks
                .push(end.saturating_duration_since(due).as_secs_f64());
        }
        self.pending
            .extend(ids.into_iter().map(|id| (id, due, burst)));
        true
    }

    /// One coordinator round, then mark newly terminal jobs done.
    fn pump(&mut self, fleet: &mut Fleet, tr: &Tracer) -> usize {
        let t = Instant::now();
        let folded = tr.span("fleet.pump", 0, None, || fleet.pump());
        let now = Instant::now();
        self.pumps.push((now - t).as_secs_f64());
        let router = fleet.router();
        let done = &mut self.done;
        self.pending.retain(|&(id, due, burst)| {
            let terminal = matches!(
                router.job(id).loc,
                JobLoc::Done(_) | JobLoc::DeadLetter(_) | JobLoc::Rejected
            );
            if terminal {
                done.push((now.saturating_duration_since(due).as_secs_f64(), now, burst));
            }
            !terminal
        });
        folded
    }

    /// Pump until every admitted job is terminal.
    fn drain(&mut self, fleet: &mut Fleet, tr: &Tracer) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(DRAIN_TIMEOUT_S);
        while !self.pending.is_empty() {
            let folded = self.pump(fleet, tr);
            if Instant::now() > deadline {
                return Err(format!(
                    "fleet did not drain: {} jobs pending",
                    self.pending.len()
                ));
            }
            if folded == 0 && !self.pending.is_empty() {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        Ok(())
    }
}

pub fn run(p: &Params, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut pool = Pooled::default();
    for c in 0..p.cycles {
        cycle(p, tr, c, &mut out, &mut pool)?;
    }
    pool.finish(&mut out);
    Ok(out)
}

/// Monitoring reads over one client connection to shard 0, on a fixed
/// schedule until `stop`: alternately `metrics` and the `status` of a
/// job the shard has admitted.
fn read_loop(
    addr: String,
    t0: Instant,
    stop: Arc<AtomicBool>,
    seed: u64,
) -> Result<(Vec<f64>, u64), String> {
    let mut client = Client::connect(&addr)?;
    let mut rng = stream_rng(seed, 0);
    let (mut lat, mut failed, mut admitted) = (Vec::new(), 0u64, 0usize);
    for k in 1u32.. {
        let due = at(t0, f64::from(k) / READ_RATE);
        sleep_until(due);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let r = if k % 2 == 0 || admitted == 0 {
            client.metrics().map(|m| {
                admitted = m
                    .get("submitted")
                    .and_then(Json::as_index)
                    .unwrap_or(admitted);
            })
        } else {
            client.status(below(&mut rng, admitted)).map(|_| ())
        };
        match r {
            Ok(()) => lat.push(due.elapsed().as_secs_f64()),
            Err(_) => failed += 1,
        }
    }
    Ok((lat, failed))
}

/// One cycle: set-ups, fixed rate, burst plus drain, coordinator crash
/// and recoveries.
fn cycle(
    p: &Params,
    tr: &Tracer,
    c: usize,
    out: &mut Outcome,
    pool: &mut Pooled,
) -> Result<(), String> {
    let rate = p.rate.ok_or("fleet-durable needs --fleet-rate")?;
    let stream = 16 * c as u64;
    let calls: SharedLog = SharedLog::default();
    let log = tr.enabled().then_some(&calls);

    let mut cluster: Option<(Cluster, PathBuf)> = None;
    for i in 0..SETUP_REPS {
        let dir = p.dir.join(format!("c{c}-setup{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let cl = tr.span("setup.fleet", 0, None, || start(&dir, log))?;
        pool.setups.push(t.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = cluster.replace((cl, dir)) {
            stop_servers(old.servers, old.fleet);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (Cluster { servers, mut fleet }, dir) = cluster.expect("at least one set-up");
    // Set-up traffic is not part of the measured calls.
    *calls.lock().expect("call log") = Default::default();

    let fixed_s = FIXED_SHARE * p.cycle_seconds;
    let n_fixed = (rate * fixed_s).round() as usize;
    let n_burst = (2.0 * rate * BURST_SHARE * p.cycle_seconds).round() as usize;
    let fixed = fragment_mix(p.seed, stream + 1, n_fixed);
    let burst = fragment_mix(p.seed, stream + 2, n_burst);
    let arrivals = poisson_schedule(
        p.seed,
        stream + 3,
        fixed.len(),
        fixed.len() as f64 / fixed_s,
    );

    let mut d = FleetLoop::default();
    let mut lags = Vec::new();
    let t0 = Instant::now() + Duration::from_millis(20);
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (addr, stop) = (servers[0].addr().to_string(), Arc::clone(&stop));
        let seed = p.seed ^ (stream + 4);
        std::thread::spawn(move || read_loop(addr, t0, stop, seed))
    };

    // Fixed-rate phase: arrivals interleaved with pumps.
    let phase = tr.reserve();
    let mut next = 0usize;
    while next < fixed.len() {
        let now = Instant::now();
        while next < fixed.len() && at(t0, arrivals[next]) <= now {
            let due = at(t0, arrivals[next]);
            lags.push(now.saturating_duration_since(due).as_secs_f64());
            out.attempted += 1;
            if !d.admit(&mut fleet, &fixed[next], due, false, tr) {
                out.failed += 1;
            }
            next += 1;
        }
        if d.pump(&mut fleet, tr) == 0 {
            let idle = Instant::now() + IDLE_SLEEP;
            sleep_until(
                arrivals
                    .get(next)
                    .map_or(idle, |&off| at(t0, off).min(idle)),
            );
        }
    }
    tr.close(phase, "phase.fixed", 0, None, t0);
    stop.store(true, Ordering::Relaxed);
    let (read_lat, read_failed) = reader.join().map_err(|_| "reader thread panicked")??;
    out.attempted += read_lat.len() as u64 + read_failed;
    out.failed += read_failed;
    pool.reads.push(read_lat);

    // Burst plus drain.
    let phase = tr.reserve();
    let burst_start = Instant::now();
    for f in &burst {
        out.attempted += 1;
        if !d.admit(&mut fleet, f, burst_start, true, tr) {
            out.failed += 1;
        }
    }
    d.drain(&mut fleet, tr)?;
    tr.close(phase, "phase.burst", 0, None, burst_start);
    let burst_end = d
        .done
        .iter()
        .filter(|o| o.2)
        .map(|o| o.1)
        .max()
        .unwrap_or(burst_start);
    let burst_jobs = d.done.iter().filter(|o| o.2).count();
    pool.rate_jobs += burst_jobs;
    pool.rate_s += (burst_end - burst_start).as_secs_f64();
    pool.acks.push(std::mem::take(&mut d.acks));
    pool.dones
        .push(d.done.iter().filter(|o| !o.2).map(|o| o.0).collect());

    // Books: the coordinator's fold against each shard's own counters.
    let m = fleet.metrics();
    let admitted = fleet.router().jobs();
    let shard_metrics: Vec<_> = servers.iter().map(|s| s.service().metrics()).collect();
    let shard_completed: usize = shard_metrics.iter().map(|m| m.completed).sum();
    let shard_dead: usize = shard_metrics.iter().map(|m| m.dead_lettered).sum();
    out.failed += (m.jobs_dead_letter + m.jobs_rejected) as u64;
    out.check(
        "every admitted job is terminal exactly once",
        m.jobs_done == admitted && admitted == n_fixed + n_burst && shard_dead == 0,
        format!(
            "{} done of {admitted} admitted ({} offered), {} dead-lettered, {} rejected",
            m.jobs_done,
            n_fixed + n_burst,
            m.jobs_dead_letter,
            m.jobs_rejected
        ),
    );
    out.check(
        "shard completions equal the fleet's done count",
        shard_completed == m.jobs_done,
        format!(
            "shards completed {shard_completed}, fleet folded {}",
            m.jobs_done
        ),
    );
    let books = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fleet.router().check_books()
    }));
    out.check(
        "Router::check_books passes",
        books.is_ok(),
        if books.is_ok() {
            "books balance".into()
        } else {
            "check_books panicked".into()
        },
    );
    out.check(
        "caps sum within the cluster cap, nothing in doubt",
        m.max_cap_sum_w <= m.cluster_cap_w + 1e-9 && m.in_doubt == 0,
        format!(
            "max caps sum {:.3} W of {:.3} W, {} in doubt",
            m.max_cap_sum_w, m.cluster_cap_w, m.in_doubt
        ),
    );
    pool.sims.push(
        shard_metrics
            .iter()
            .map(|m| m.simulated_makespan_s)
            .fold(0.0, f64::max),
    );
    pool.sim_jobs += shard_completed;

    // Coordinator crash (no shutdown), then recoveries from the fleetlog
    // over fresh connections to the same daemons.
    drop(fleet);
    let mut fleet = None;
    for _ in 0..RECOVERIES {
        drop(fleet.take());
        let phase = tr.reserve();
        let t = Instant::now();
        let mut recovered = Fleet::recover(fleet_config(&dir), connect(&servers, None)?)?;
        pool.recovers.push(t.elapsed().as_secs_f64());
        tr.close(phase, "phase.recover", 0, None, t);
        let after = recovered.drain(DRAIN_TIMEOUT_S)?;
        out.check(
            "recovery loses no job",
            after.jobs_total == admitted && after.jobs_done == admitted,
            format!(
                "{} done of {} after recovery, {admitted} before",
                after.jobs_done, after.jobs_total
            ),
        );
        fleet = Some(recovered);
    }

    if tr.enabled() {
        let layer_ms = |v: &[f64]| Dist::new(v.iter().map(|s| s * 1e3).collect());
        out.layer_pcts("fleet.admit_ms", &layer_ms(&d.admits));
        out.layer_pcts("fleet.pump_ms", &layer_ms(&d.pumps));
        out.layer("fleet.rounds", m.rounds as f64, 1);
        out.layer(
            "loadgen.lag_p99_ms",
            Dist::new(lags).pct(0.99) * 1e3,
            fixed.len(),
        );
        let c = calls.lock().expect("call log").clone();
        for (name, v) in [
            ("shard.submit", &c.submit_ms),
            ("shard.job_phase", &c.job_phase_ms),
            ("shard.metrics", &c.metrics_ms),
            ("shard.set_cap", &c.set_cap_ms),
        ] {
            out.layer_pcts(&format!("{name}_ms"), &Dist::new(v.clone()));
            out.layer(&format!("{name}.calls"), v.len() as f64, v.len());
        }
        out.layer(
            "shard.job_phase_calls_per_folded_job",
            c.job_phase_ms.len() as f64 / m.jobs_done.max(1) as f64,
            c.job_phase_ms.len(),
        );
        let rpc = |f: fn(&corun_fleet::RpcSnapshot) -> u64| m.rpc.iter().map(f).sum::<u64>() as f64;
        out.layer("rpc.retries", rpc(|r| r.retries), m.rpc.len());
        out.layer("rpc.reconnects", rpc(|r| r.reconnects), m.rpc.len());
        out.layer("rpc.fenced", rpc(|r| r.fenced), m.rpc.len());
        out.layer("router.steals", m.steals as f64, 1);
        out.layer("fleet.rebalances", m.rebalances as f64, 1);
        fleetlog_layers(out, &dir, admitted)?;
        journal_layers(
            out,
            &dir.join("shard0.journal"),
            &dir.join("append-probe.journal"),
            shard_metrics[0].completed,
        )?;
    }

    stop_servers(servers, fleet.expect("at least one recovery"));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Fleetlog shape and `FleetLog::append` cost on this run's records.
fn fleetlog_layers(out: &mut Outcome, dir: &Path, jobs: usize) -> Result<(), String> {
    let scan = scan_fleetlog(&dir.join("fleet.log"));
    out.layer(
        "fleetlog.records_per_job",
        scan.records.len() as f64 / jobs.max(1) as f64,
        scan.records.len(),
    );
    let probe = dir.join("append-probe.fleetlog");
    let mut log =
        FleetLog::create(&probe, SHARDS, SHARD_CAP_W * SHARDS as f64).map_err(|e| e.to_string())?;
    let mut us = Vec::new();
    for rec in scan
        .records
        .iter()
        .filter(|r| !matches!(r, FleetRecord::Meta { .. }))
        .take(APPEND_PROBE)
    {
        let t = Instant::now();
        log.append(rec).map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(log);
    let _ = std::fs::remove_file(&probe);
    let d = Dist::new(us);
    out.layer("fleetlog.append_us", d.pct(0.5), d.n());
    Ok(())
}
