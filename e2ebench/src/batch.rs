//! `batch-paper`: the paper's offline pipeline, with no journal and no
//! RPC.
//!
//! A fixed seeded sequence of `kernels::random_batch` batches (sizes 16,
//! 32, 64, repeated) runs through a paper-style runtime (measured
//! profiles, LLC probe) sharing one characterization cache:
//! `schedule_hcs_plus`, `lint_schedule`, `execute_planned`,
//! `execute_governed` and `lower_bound`. A second thread issues
//! `corun predict`-style pair queries against the same cache on a fixed
//! schedule; those are this workload's reads.

use crate::loadgen::{at, below, sleep_until, stream_rng};
use crate::report::{Outcome, Pooled};
use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::{Params, SETUP_REPS};
use apu_sim::{Bias, Device, JobSpec, MachineConfig};
use corun_core::{hcs, lower_bound, refine, CoRunModel, HcsConfig, RefineConfig};
use runtime::{CoScheduleRuntime, RuntimeConfig};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Batch sizes, cycled.
const SIZES: [usize; 3] = [16, 32, 64];
/// Size cycles per second of `--seconds`.
const CYCLES_PER_S: f64 = 1.0;
/// Batch size whose runtimes a restart rebuilds over the warm cache:
/// every batch of this size in a cycle is rebuilt once, and `recover_s`
/// is the median, so the figure rests on many samples of one size.
const RECOVER_SIZE: usize = 32;
/// Pair queries per second on the reader thread.
const READ_RATE: f64 = 20.0;
/// Batches re-run layer by layer in the traced run.
const LAYER_BATCHES: usize = 6;

fn config(cache: &Path) -> RuntimeConfig {
    let machine = MachineConfig::ivy_bridge();
    let mut cfg = RuntimeConfig::paper(&machine);
    cfg.cache_dir = Some(cache.to_path_buf());
    cfg
}

/// The fixed batch sequence of a seed and stream: (size, batch seed).
pub fn batches(seed: u64, stream: u64, seconds: f64) -> Vec<(usize, u64)> {
    let mut rng = stream_rng(seed, stream);
    let n = (CYCLES_PER_S * seconds).round().max(1.0) as usize * SIZES.len();
    (0..n)
        .map(|k| (SIZES[k % SIZES.len()], rng.next_u64()))
        .collect()
}

/// `corun predict`: the best cap-feasible setting for one CPU/GPU pair,
/// and its predicted co-run time.
fn predict(machine: &MachineConfig, cfg: &RuntimeConfig, pair: [JobSpec; 2]) -> Option<f64> {
    let rt = CoScheduleRuntime::new(machine.clone(), pair.to_vec(), cfg.clone());
    let m = rt.model();
    corun_core::feasible_pair_settings(m, 0, 1, cfg.cap_w)
        .into_iter()
        .map(|(f, g)| {
            m.corun_time(0, Device::Cpu, f, 1, g)
                .max(m.corun_time(1, Device::Gpu, g, 0, f))
        })
        .min_by(f64::total_cmp)
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

/// One cycle: set-ups into empty caches, the batch sequence with the
/// reader alongside, then restarts over the warm cache.
fn cycle(
    p: &Params,
    tr: &Tracer,
    c: usize,
    out: &mut Outcome,
    pool: &mut Pooled,
) -> Result<(), String> {
    let machine = MachineConfig::ivy_bridge();
    let stream = 16 * c as u64;

    // Set-up: characterize into an empty cache directory.
    let mut setups = Vec::new();
    let mut cache = p.dir.join(format!("c{c}-cache0"));
    for i in 0..SETUP_REPS {
        cache = p.dir.join(format!("c{c}-cache{i}"));
        let cfg = config(&cache);
        let t = Instant::now();
        let (_, hit) = tr.span("perf_model.characterize", 0, None, || {
            runtime::characterize_cached(&machine, &cfg.characterization, &cache)
        });
        setups.push(t.elapsed().as_secs_f64());
        if hit {
            return Err("set-up found a warm cache".into());
        }
        if i > 0 {
            let _ = std::fs::remove_dir_all(p.dir.join(format!("c{c}-cache{}", i - 1)));
        }
    }
    pool.setups.extend(&setups);
    let cfg = config(&cache);

    // Reader: pair queries on a fixed schedule until the batches finish.
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let reader = {
        let (stop, cfg, machine, tr) =
            (Arc::clone(&stop), cfg.clone(), machine.clone(), tr.clone());
        let suite = kernels::rodinia_suite(&machine);
        let mut rng = stream_rng(p.seed, stream + 2);
        std::thread::spawn(move || {
            let (mut lat, mut failed) = (Vec::new(), 0u64);
            for k in 1.. {
                let due = at(t0, k as f64 / READ_RATE);
                sleep_until(due);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let pair = [
                    suite[below(&mut rng, suite.len())].clone(),
                    suite[below(&mut rng, suite.len())].clone(),
                ];
                match tr.span("batch.predict", 0, None, || predict(&machine, &cfg, pair)) {
                    Some(_) => lat.push(due.elapsed().as_secs_f64()),
                    None => failed += 1,
                }
            }
            (lat, failed)
        })
    };

    let seq = batches(p.seed, stream + 1, p.cycle_seconds);
    let (mut acks, mut dones) = (Vec::new(), Vec::new());
    let (mut jobs, mut makespan, mut over_w, mut exec_s) = (0usize, 0.0, 0.0f64, 0.0);
    let mut unclean = 0usize;
    let mut restarts = Vec::new();
    let start = Instant::now();
    for (k, &(size, bseed)) in seq.iter().enumerate() {
        let parent = tr.reserve();
        let due = Instant::now();
        let batch = kernels::random_batch(&machine, size, bseed).jobs;
        let rt = tr.span("runtime.new", parent, Some(k as u64), || {
            CoScheduleRuntime::new(machine.clone(), batch.clone(), cfg.clone())
        });
        let sched = tr.span("runtime.schedule_hcs_plus", parent, Some(k as u64), || {
            rt.schedule_hcs_plus()
        });
        let lint = tr.span("runtime.lint_schedule", parent, Some(k as u64), || {
            rt.lint_schedule(&sched, true)
        });
        acks.push(due.elapsed().as_secs_f64());
        if !lint.is_clean() {
            unclean += 1;
        }
        let t = Instant::now();
        let planned = tr.span("runtime.execute_planned", parent, Some(k as u64), || {
            rt.execute_planned(&sched)
        });
        exec_s += t.elapsed().as_secs_f64();
        let governed = tr.span("runtime.execute_governed", parent, Some(k as u64), || {
            rt.execute_governed(&sched, Bias::Gpu)
        });
        let bound = tr.span("runtime.lower_bound", parent, Some(k as u64), || {
            rt.lower_bound()
        });
        dones.push(due.elapsed().as_secs_f64());
        tr.close(parent, "batch", 0, Some(k as u64), due);
        std::hint::black_box(bound);
        jobs += size;
        makespan += planned.makespan_s;
        over_w = over_w
            .max(planned.trace.max_overshoot(cfg.cap_w))
            .max(governed.trace.max_overshoot(cfg.cap_w));
        out.attempted += 1;
        if size == RECOVER_SIZE {
            restarts.push((batch, planned.makespan_s));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let (reads, read_failed) = reader.join().map_err(|_| "reader thread panicked")?;
    out.attempted += reads.len() as u64 + read_failed;
    out.failed += read_failed + unclean as u64;

    pool.rate_jobs += jobs;
    pool.rate_s += wall;
    pool.acks.push(acks);
    pool.dones.push(dones);
    pool.reads.push(reads);
    pool.sims.push(makespan);
    pool.sim_jobs += jobs;
    out.check(
        "lint_schedule is clean on every batch",
        unclean == 0,
        format!("{unclean} of {} HCS+ schedules with findings", seq.len()),
    );

    // Restarts over the persisted cache: rebuild the runtime of each
    // RECOVER_SIZE batch and reproduce its plan bit for bit.
    for (batch, expect) in restarts {
        let t = Instant::now();
        let rt = CoScheduleRuntime::new(machine.clone(), batch, cfg.clone());
        let sched = rt.schedule_hcs_plus();
        pool.recovers.push(t.elapsed().as_secs_f64());
        let again = rt.execute_planned(&sched).makespan_s;
        out.check(
            "a restart over the cached characterization reproduces the plan",
            again.to_bits() == expect.to_bits(),
            format!("makespan {again} vs {expect} simulated seconds"),
        );
    }

    if tr.enabled() {
        out.layer("perf_model.characterize_s", median(&setups), setups.len());
        out.layer("apu_sim.cap_over_w", over_w, seq.len());
        out.layer(
            "apu_sim.execute_ms",
            exec_s * 1e3 / seq.len() as f64,
            seq.len(),
        );
        out.layer(
            "apu_sim.sim_s_per_s",
            makespan / exec_s.max(1e-9),
            seq.len(),
        );
        layer_probes(out, &machine, &cfg, &seq[..LAYER_BATCHES.min(seq.len())]);
    }
    Ok(())
}

/// The runtime's internal layers, each timed by calling its public
/// function on this run's own batches.
fn layer_probes(
    out: &mut Outcome,
    machine: &MachineConfig,
    cfg: &RuntimeConfig,
    seq: &[(usize, u64)],
) {
    let stages = runtime::characterize_cached(
        machine,
        &cfg.characterization,
        cfg.cache_dir.as_deref().expect("cache"),
    )
    .0;
    let predictor = perf_model::StagedPredictor::new(machine, stages);
    let (mut profile, mut probe, mut hcs_ms, mut refine_ms, mut bound_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(size, bseed) in seq {
        let jobs = kernels::random_batch(machine, size, bseed).jobs;
        let t = Instant::now();
        let profiles = perf_model::profile_batch(machine, &jobs, cfg.profile_method);
        profile.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let vulns = perf_model::probe_batch(machine, &predictor, &jobs, &profiles);
        probe.push(t.elapsed().as_secs_f64() * 1e3);
        let model = runtime::build_table_model(machine, &profiles, &predictor, Some(&vulns));
        let t = Instant::now();
        let h = hcs(&model, &HcsConfig::with_cap(cfg.cap_w));
        hcs_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let rc = RefineConfig {
            cap_w: cfg.cap_w,
            random_swaps: cfg.refine_random_swaps,
            cross_swaps: cfg.refine_cross_swaps,
            seed: cfg.refine_seed,
            objective: corun_core::Objective::Makespan,
        };
        let t = Instant::now();
        std::hint::black_box(refine(&model, &h.schedule, &rc));
        refine_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(lower_bound(&model, cfg.cap_w));
        bound_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for (name, v) in [
        ("perf_model.profile_ms", profile),
        ("perf_model.probe_ms", probe),
        ("core.hcs_ms", hcs_ms),
        ("core.refine_ms", refine_ms),
        ("core.bound_us", bound_us),
    ] {
        let d = Dist::new(v);
        out.layer(name, d.mean(), d.n());
    }
}
