//! `serve-durable`: one journaled daemon behind `Server::bind`.
//!
//! Connection 1 submits seeded fragments on an open-loop Poisson
//! schedule; connection 2 reads `status`/`metrics` on its own fixed-rate
//! schedule during the fixed-rate phase, sharing the service lock with
//! the writes; an observer polls the server's `Service` handle and stamps
//! each admitted job at the first poll after which it is terminal. Phases: fixed rate, burst, shutdown, restart with
//! `recover`, then `replay_journal` of the whole journal.

use crate::loadgen::{
    at, below, fragment_mix, poisson_schedule, sleep_until, stream_rng, Fragment,
};
use crate::report::{Outcome, Pooled};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{Params, BURST_SHARE, FIXED_SHARE, SETUP_REPS};
use apu_sim::MachineConfig;
use corun_replay::{replay_journal, ReplayOptions};
use corun_serve::{
    encode_state, scan_journal, Client, JobState, Journal, Record, Server, Service, ServiceConfig,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated machines behind the daemon.
const MACHINES: usize = 2;
/// Admission bound, large enough that the burst is never refused.
const QUEUE_CAPACITY: usize = 1 << 20;
/// Monitoring reads per second on connection 2.
const READ_RATE: f64 = 200.0;
/// Restarts with recovery per cycle; `recover_s` is their median.
const RECOVERIES: usize = 3;
/// Observer poll period; bounds how late a completion is stamped.
const OBSERVE_POLL: Duration = Duration::from_micros(250);
/// Journal records re-appended to time `Journal::append`.
const APPEND_PROBE: usize = 2000;

fn config(dir: &Path, recover: bool) -> ServiceConfig {
    let machine = MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.machines = MACHINES;
    cfg.queue_capacity = QUEUE_CAPACITY;
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.journal_path = Some(dir.join("serve.journal"));
    cfg.recover = recover;
    cfg
}

struct Daemon {
    server: Server,
    submit: Client,
    read: Client,
}

/// Start a daemon into `dir` (empty cache, fresh journal) and open both
/// connections: the span the user waits before work is accepted.
fn start(dir: &Path) -> Result<Daemon, String> {
    let svc = Service::start(config(dir, false));
    let server = Server::bind(svc, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let submit = Client::connect(&addr)?;
    let read = Client::connect(&addr)?;
    Ok(Daemon {
        server,
        submit,
        read,
    })
}

/// Graceful stop: shutdown RPC, close both connections, drain.
fn stop(d: Daemon) -> Result<(), String> {
    let Daemon {
        server,
        mut submit,
        read,
    } = d;
    submit.shutdown()?;
    drop(submit);
    drop(read);
    server.run_to_shutdown();
    Ok(())
}

struct Observed {
    burst: bool,
    latency_s: f64,
    done_at: Instant,
    done: bool,
}

/// Stamp every admitted job at the first poll after which it is
/// terminal, whatever order jobs finish in (HCS pairs jobs out of submit
/// order). Each poll reads the service's terminal count; only when it
/// grew are pending jobs looked up, oldest first, until the new terminal
/// ones are found. Returns once `rx` is closed and nothing is pending.
fn observe(svc: &Service, rx: &mpsc::Receiver<(Vec<usize>, Instant, bool)>) -> Vec<Observed> {
    let mut pending: Vec<(usize, Instant, bool)> = Vec::new();
    let mut seen = Vec::new();
    let mut open = true;
    loop {
        loop {
            match rx.try_recv() {
                Ok((ids, due, burst)) => {
                    pending.extend(ids.into_iter().map(|id| (id, due, burst)));
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if !open && pending.is_empty() {
            return seen;
        }
        let m = svc.metrics();
        let now = Instant::now();
        let mut fresh = (m.completed + m.dead_lettered).saturating_sub(seen.len());
        let dead_workers = m.workers_alive == 0;
        pending.retain(|&(id, due, burst)| {
            if fresh == 0 && !dead_workers {
                return true;
            }
            let state = svc.job_status(id).map(|s| s.state);
            let terminal = matches!(
                state,
                Some(JobState::Done { .. } | JobState::DeadLetter { .. } | JobState::Rejected)
            );
            if !terminal && !dead_workers {
                return true;
            }
            fresh = fresh.saturating_sub(1);
            seen.push(Observed {
                burst,
                latency_s: now.saturating_duration_since(due).as_secs_f64(),
                done_at: now,
                done: matches!(state, Some(JobState::Done { .. })),
            });
            false
        });
        std::thread::sleep(OBSERVE_POLL);
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

/// One cycle: set-ups, fixed rate, burst, shutdown, recoveries, replay.
fn cycle(
    p: &Params,
    tr: &Tracer,
    c: usize,
    out: &mut Outcome,
    pool: &mut Pooled,
) -> Result<(), String> {
    let rate = p.rate.ok_or("serve-durable needs --serve-rate")?;
    let stream = 16 * c as u64;

    // Set-up, repeated into fresh directories; the last daemon is kept.
    let mut daemon = None;
    for i in 0..SETUP_REPS {
        let dir = p.dir.join(format!("c{c}-setup{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let d = tr.span("setup.daemon", 0, None, || start(&dir))?;
        pool.setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace((d, dir)) {
            stop(old.0)?;
            let _ = std::fs::remove_dir_all(&old.1);
        }
    }
    let (daemon, dir) = daemon.expect("at least one set-up");
    let journal_path = dir.join("serve.journal");

    // Inputs: a fixed job count per phase, all from the seed.
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

    let Daemon {
        server,
        submit: mut c1,
        read: c2,
    } = daemon;
    let svc = server.service_handle();
    let known = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now() + Duration::from_millis(20);

    // Observer: the first poll after which each admitted job is terminal.
    let (tx, rx) = mpsc::channel::<(Vec<usize>, Instant, bool)>();
    let observer = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || observe(&svc, &rx))
    };

    // Reader: connection 2 on its own fixed-rate schedule until the
    // fixed-rate phase ends.
    let reader = {
        let known = Arc::clone(&known);
        let stop = Arc::clone(&stop);
        let svc = Arc::clone(&svc);
        let tr = tr.clone();
        let mut rng = stream_rng(p.seed, stream + 4);
        std::thread::spawn(move || {
            let mut c2 = c2;
            let (mut lat, mut calls) = (Vec::new(), Vec::new());
            let (mut depth, mut util) = (Vec::new(), Vec::new());
            let mut failed = 0u64;
            for k in 1u32.. {
                let due = at(t0, f64::from(k) / READ_RATE);
                sleep_until(due);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let jobs = known.load(Ordering::Relaxed);
                let t = Instant::now();
                let r = tr.span("client.read", 0, None, || {
                    if k % 2 == 0 || jobs == 0 {
                        c2.metrics().map(|_| ())
                    } else {
                        c2.status(below(&mut rng, jobs)).map(|_| ())
                    }
                });
                let end = Instant::now();
                calls.push((end - t).as_secs_f64());
                match r {
                    Ok(()) => lat.push(end.saturating_duration_since(due).as_secs_f64()),
                    Err(_) => failed += 1,
                }
                if tr.enabled() {
                    let m = tr.span("service.metrics", 0, None, || svc.metrics());
                    depth.push(m.queue_depth as f64);
                    let u: Vec<f64> = m.util.iter().flatten().copied().collect();
                    util.push(u.iter().sum::<f64>() / u.len().max(1) as f64);
                }
            }
            (c2, lat, calls, depth, util, failed)
        })
    };

    // Fixed-rate phase on connection 1.
    let phase = tr.reserve();
    let phase_start = Instant::now();
    let mut lags = Vec::with_capacity(fixed.len());
    let mut acks = Vec::with_capacity(fixed.len());
    let mut submit_calls = Vec::with_capacity(fixed.len());
    let submit = |c1: &mut Client, f: &Fragment, parent: u64| {
        tr.span("client.submit", parent, None, || c1.submit(&f.text))
    };
    for (f, &off) in fixed.iter().zip(&arrivals) {
        let due = at(t0, off);
        lags.push(sleep_until(due));
        let t = Instant::now();
        let r = submit(&mut c1, f, phase);
        let end = Instant::now();
        submit_calls.push((end - t).as_secs_f64());
        out.attempted += 1;
        match r {
            Ok(ids) => {
                acks.push(end.saturating_duration_since(due).as_secs_f64());
                known.fetch_max(ids.iter().max().map_or(0, |m| m + 1), Ordering::Relaxed);
                let _ = tx.send((ids, due, false));
            }
            Err(_) => out.failed += 1,
        }
    }
    tr.close(phase, "phase.fixed", 0, None, phase_start);
    pool.acks.push(acks);
    stop.store(true, Ordering::Relaxed);
    let (c2, read_lat, read_calls, depth, util, read_failed) =
        reader.join().map_err(|_| "reader thread panicked")?;
    out.attempted += (read_lat.len() as u64) + read_failed;
    out.failed += read_failed;
    pool.reads.push(read_lat);

    // Burst: every fragment due at once.
    let phase = tr.reserve();
    let burst_start = Instant::now();
    for f in &burst {
        let r = submit(&mut c1, f, phase);
        out.attempted += 1;
        match r {
            Ok(ids) => {
                let _ = tx.send((ids, burst_start, true));
            }
            Err(_) => out.failed += 1,
        }
    }
    drop(tx);
    let seen = observer.join().map_err(|_| "observer thread panicked")?;
    tr.close(phase, "phase.burst", 0, None, burst_start);

    pool.dones.push(
        seen.iter()
            .filter(|o| !o.burst)
            .map(|o| o.latency_s)
            .collect(),
    );
    let burst_end = seen
        .iter()
        .filter(|o| o.burst)
        .map(|o| o.done_at)
        .max()
        .unwrap_or(burst_start);
    let burst_jobs = seen.iter().filter(|o| o.burst).count();
    pool.rate_jobs += burst_jobs;
    pool.rate_s += (burst_end - burst_start).as_secs_f64();
    let not_done = seen.iter().filter(|o| !o.done).count() as u64;
    out.failed += not_done;
    let admitted = seen.len();
    let m = svc.metrics();
    pool.sims.push(m.simulated_makespan_s);
    pool.sim_jobs += m.completed;

    // Shutdown, then restarts with recovery over this cycle's journal.
    let phase = tr.reserve();
    let t = Instant::now();
    c1.shutdown()?;
    drop(c1);
    drop(c2);
    server.run_to_shutdown();
    drop(svc);
    tr.close(phase, "phase.shutdown", 0, None, t);

    let mut live_fp = 0;
    for _ in 0..RECOVERIES {
        let phase = tr.reserve();
        let t = Instant::now();
        let svc = Service::start(config(&dir, true));
        pool.recovers.push(t.elapsed().as_secs_f64());
        tr.close(phase, "phase.recover", 0, None, t);
        let lost = (0..admitted)
            .filter(|&id| {
                !matches!(
                    svc.job_status(id).map(|s| s.state),
                    Some(JobState::Done { .. })
                )
            })
            .count();
        out.check(
            "recovery loses no job",
            svc.job_count() == admitted && lost == 0,
            format!(
                "{} jobs after recovery, {admitted} admitted, {lost} not done",
                svc.job_count()
            ),
        );
        svc.shutdown();
        live_fp = svc.state_fingerprint();
    }

    let phase = tr.reserve();
    let t = Instant::now();
    let replayed = replay_journal(&journal_path, &ReplayOptions::default());
    let replay_s = t.elapsed().as_secs_f64();
    tr.close(phase, "phase.replay", 0, None, t);
    out.check(
        "replay_journal is clean and matches the live fingerprint",
        replayed.is_clean() && replayed.fingerprint() == live_fp,
        format!(
            "{} records, {} diagnostics, replay {:016x} vs live {live_fp:016x}",
            replayed.records_applied,
            replayed.report.len(),
            replayed.fingerprint()
        ),
    );

    // Every admitted job reached exactly one terminal record, and it was done.
    let scan = scan_journal(&journal_path);
    let mut accepted = vec![0u32; admitted];
    let mut terminal = vec![0u32; admitted];
    let mut extra = 0usize;
    for rec in &scan.records {
        let slot = match rec {
            Record::Accept { id, .. } => accepted.get_mut(*id),
            Record::Done { id, .. } | Record::Dead { id, .. } => terminal.get_mut(*id),
            _ => continue,
        };
        match slot {
            Some(c) => *c += 1,
            None => extra += 1,
        }
    }
    let bad = (0..admitted)
        .filter(|&i| accepted[i] != 1 || terminal[i] != 1)
        .count();
    out.check(
        "every admitted job is terminal exactly once",
        bad == 0 && extra == 0 && not_done == 0 && admitted == n_fixed + n_burst,
        format!(
            "{admitted} admitted of {} offered, {bad} without exactly one accept and one terminal record, \
             {extra} records for unknown ids, {not_done} observed not done",
            n_fixed + n_burst
        ),
    );

    if tr.enabled() {
        out.layer_pcts(
            "client.submit_ms",
            &Dist::new(submit_calls.iter().map(|s| s * 1e3).collect()),
        );
        out.layer_pcts(
            "client.read_ms",
            &Dist::new(read_calls.iter().map(|s| s * 1e3).collect()),
        );
        let depth = Dist::new(depth);
        out.layer("service.queue_depth.mean", depth.mean(), depth.n());
        out.layer("service.queue_depth.max", depth.max(), depth.n());
        let util = Dist::new(util);
        out.layer("service.util", util.mean(), util.n());
        out.layer(
            "loadgen.lag_p99_ms",
            Dist::new(lags).pct(0.99) * 1e3,
            fixed.len(),
        );
        layer_probes(out, &dir, &journal_path, &fixed, &burst, admitted)?;
        out.layer(
            "replay.events_per_s",
            replayed.records_applied as f64 / replay_s.max(1e-9),
            replayed.records_applied,
        );
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(encode_state(&replayed.state));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.layer("snapshot.encode_ms", median(&reps), reps.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Per-layer costs the daemon pays internally, timed by calling each
/// layer's public function on this run's own inputs.
fn layer_probes(
    out: &mut Outcome,
    dir: &Path,
    journal_path: &Path,
    fixed: &[Fragment],
    burst: &[Fragment],
    jobs: usize,
) -> Result<(), String> {
    journal_layers(out, journal_path, &dir.join("append-probe.journal"), jobs)?;

    let cfg = config(dir, false);
    let mut lint_us = Vec::new();
    let mut built = Vec::new();
    for f in fixed.iter().chain(burst) {
        let t = Instant::now();
        let (lines, report) = corun_verify::lint_spec_full(&f.text);
        let b = corun_verify::build_jobs(&cfg.machine, &lines);
        lint_us.push(t.elapsed().as_secs_f64() * 1e6);
        if report.has_errors() {
            return Err(format!("fragment failed lint: {}", f.text));
        }
        built.extend(b?);
    }
    let lint = Dist::new(lint_us);
    out.layer("verify.lint_us", lint.mean(), lint.n());

    let cache = cfg.cache_dir.as_deref().expect("cache dir set");
    let stages = runtime::characterize_cached(&cfg.machine, &cfg.characterization, cache).0;
    let predictor = perf_model::StagedPredictor::new(&cfg.machine, stages);
    let mut model = runtime::IncrementalModel::new(
        cfg.machine.clone(),
        predictor,
        cfg.profile_method,
        cfg.llc_probe,
    );
    let t = Instant::now();
    for job in &built {
        model.push_job(job);
    }
    out.layer(
        "runtime.push_job_us",
        t.elapsed().as_secs_f64() * 1e6 / built.len().max(1) as f64,
        built.len(),
    );
    Ok(())
}

/// Journal shape (`scan_journal`) and `Journal::append` cost: this run's
/// non-snapshot records re-appended into a fresh file beside the journal.
pub fn journal_layers(
    out: &mut Outcome,
    journal: &Path,
    probe: &Path,
    jobs: usize,
) -> Result<(), String> {
    let scan = scan_journal(journal);
    let bytes = std::fs::metadata(journal).map_err(|e| e.to_string())?.len() as f64;
    let snapshot_bytes: usize = scan
        .records
        .iter()
        .filter(|r| matches!(r, Record::Snapshot { .. }))
        .map(|r| r.to_json().len() + 1)
        .sum();
    let jobs = jobs.max(1) as f64;
    out.layer(
        "journal.records_per_job",
        scan.records.len() as f64 / jobs,
        scan.records.len(),
    );
    out.layer("journal.bytes_per_job", bytes / jobs, scan.records.len());
    out.layer(
        "journal.snapshot_byte_share",
        snapshot_bytes as f64 / bytes.max(1.0),
        scan.records.len(),
    );
    let mut j = Journal::create_raw(probe).map_err(|e| e.to_string())?;
    let mut us = Vec::new();
    for rec in scan
        .records
        .iter()
        .filter(|r| !matches!(r, Record::Snapshot { .. } | Record::Meta { .. }))
        .take(APPEND_PROBE)
    {
        let t = Instant::now();
        j.append(rec).map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(j);
    let _ = std::fs::remove_file(probe);
    out.layer_pcts("journal.append_us", &Dist::new(us));
    Ok(())
}
