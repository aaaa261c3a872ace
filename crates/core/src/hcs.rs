//! The heuristic co-scheduling algorithm (HCS) of Section IV-A.
//!
//! Three steps, each with the power-cap adaptations of Section IV-A.2:
//!
//! 1. **Partition** `J` into `S_co` (jobs that can benefit from some co-run
//!    per the Co-Run Theorem, traversing all cap-feasible frequency
//!    settings) and `S_seq` (jobs that should always run alone).
//! 2. **Categorize** `S_co` into CPU-preferred, GPU-preferred and
//!    non-preferred using the execution times at the highest cap-feasible
//!    frequency and the threshold `D` (20% by default).
//! 3. **Greedy scheduling**: seed the GPU with the longest GPU-preferred
//!    job; then, whenever a device frees up, dispatch the candidate (taken
//!    from that device's preferred set first, then non-preferred, then the
//!    other-preferred set) with the least co-run interference against the
//!    running job — the sum of the two degradation percentages, minimized
//!    over cap-feasible frequency choices. `S_seq` jobs are appended as a
//!    solo tail on their best device.

use crate::freqgrid::{best_solo_placement, best_solo_run, feasible_pair_settings};
use crate::model::{CoRunModel, JobId};
use crate::schedule::{Assignment, Schedule, SoloRun};
use crate::theorem::corun_beneficial;
use apu_sim::Device;

/// Configuration of the heuristic.
#[derive(Debug, Clone)]
pub struct HcsConfig {
    /// Package power cap in watts (`f64::INFINITY` disables capping).
    pub cap_w: f64,
    /// Preference threshold `D`: jobs whose CPU/GPU times differ by no more
    /// than this fraction are non-preferred. The paper selects 20%.
    pub preference_threshold: f64,
}

impl HcsConfig {
    /// Uncapped configuration with the paper's `D = 20%`.
    pub fn uncapped() -> Self {
        HcsConfig {
            cap_w: f64::INFINITY,
            preference_threshold: 0.20,
        }
    }

    /// Capped configuration with the paper's `D = 20%`.
    pub fn with_cap(cap_w: f64) -> Self {
        HcsConfig {
            cap_w,
            preference_threshold: 0.20,
        }
    }
}

/// Processor-preference category of a job (step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Runs meaningfully faster on the CPU.
    Cpu,
    /// Runs meaningfully faster on the GPU.
    Gpu,
    /// Within the threshold on both.
    Non,
}

/// Diagnostics of an HCS run.
#[derive(Debug, Clone)]
pub struct HcsOutcome {
    /// The produced schedule.
    pub schedule: Schedule,
    /// Jobs the Co-Run Theorem sent to sequential execution.
    pub s_seq: Vec<JobId>,
    /// Preference category per job in `S_co` (`None` for `S_seq` jobs).
    pub preference: Vec<Option<Preference>>,
}

/// Run the full heuristic.
pub fn hcs(model: &dyn CoRunModel, cfg: &HcsConfig) -> HcsOutcome {
    let n = model.len();
    if n == 0 {
        return HcsOutcome {
            schedule: Schedule::new(),
            s_seq: vec![],
            preference: vec![],
        };
    }

    // ---- Step 1: partition via the Co-Run Theorem --------------------
    let (s_co, s_seq) = partition(model, cfg);

    // ---- Step 2: categorize -------------------------------------------
    let mut preference: Vec<Option<Preference>> = vec![None; n];
    let mut cpu_pref = Vec::new();
    let mut gpu_pref = Vec::new();
    let mut non_pref = Vec::new();
    for &i in &s_co {
        let p = categorize(model, cfg, i);
        preference[i] = Some(p);
        match p {
            Preference::Cpu => cpu_pref.push(i),
            Preference::Gpu => gpu_pref.push(i),
            Preference::Non => non_pref.push(i),
        }
    }

    // ---- Step 3: greedy scheduling -------------------------------------
    let mut schedule = greedy(model, cfg, cpu_pref, gpu_pref, non_pref, &s_seq);

    // The greedy checks pair feasibility against the co-runner at dispatch
    // time, but the queue representation replays overlaps slightly
    // differently when the greedy chose to idle a device; repair any
    // remaining cap-infeasible overlap by lowering levels.
    if cfg.cap_w.is_finite() {
        repair_levels(model, &mut schedule, cfg.cap_w);
    }

    HcsOutcome {
        schedule,
        s_seq,
        preference,
    }
}

/// Lower frequency levels until the evaluator finds no cap-violating
/// segment. For each violating co-run segment the job with the smaller
/// standalone time penalty is stepped down one level (ties: the CPU job).
/// Terminates because total levels strictly decrease; a segment that still
/// violates with every participant at level 0 is left as-is (nothing lower
/// exists).
pub fn repair_levels(model: &dyn CoRunModel, schedule: &mut Schedule, cap_w: f64) {
    let budget = (schedule.len() + 1) * (model.levels(Device::Cpu) + model.levels(Device::Gpu));
    for _ in 0..budget {
        let report = crate::evaluate::evaluate(model, schedule, Some(cap_w));
        if report.cap_ok {
            return;
        }
        let Some(seg) = report
            .segments
            .iter()
            .find(|s| s.power_w > cap_w + 1e-9)
            .copied()
        else {
            return;
        };
        // Candidate level reductions with their standalone time penalties.
        let mut options: Vec<(Device, JobId, usize, f64)> = Vec::new();
        if let Some((job, level)) = seg.cpu {
            if level > 0 {
                let dt = model.standalone(job, Device::Cpu, level - 1)
                    - model.standalone(job, Device::Cpu, level);
                options.push((Device::Cpu, job, level, dt));
            }
        }
        if let Some((job, level)) = seg.gpu {
            if level > 0 {
                let dt = model.standalone(job, Device::Gpu, level - 1)
                    - model.standalone(job, Device::Gpu, level);
                options.push((Device::Gpu, job, level, dt));
            }
        }
        match options.iter().min_by(|a, b| a.3.total_cmp(&b.3)) {
            Some(&(device, job, level, _)) => set_job_level(schedule, device, job, level - 1),
            None => {
                // Both participants are already at the floor. If this is a
                // co-run, the pair simply cannot share the package under
                // the cap: demote one job to solo execution.
                match (seg.cpu, seg.gpu) {
                    (Some((job, _)), Some(_)) => {
                        schedule.cpu.retain(|a| a.job != job);
                        let level =
                            crate::freqgrid::best_solo_level(model, job, Device::Cpu, cap_w)
                                .unwrap_or(0);
                        schedule.solo_tail.push(crate::schedule::SoloRun {
                            job,
                            device: Device::Cpu,
                            level,
                        });
                    }
                    // A solo run over the cap at the floor: nothing lower
                    // exists; leave it.
                    _ => return,
                }
            }
        }
    }
}

/// Update the level of `job` wherever it appears on `device`.
fn set_job_level(schedule: &mut Schedule, device: Device, job: JobId, level: usize) {
    for a in schedule.queue_mut(device) {
        if a.job == job {
            a.level = level;
        }
    }
    for s in &mut schedule.solo_tail {
        if s.job == job && s.device == device {
            s.level = level;
        }
    }
}

/// Step 1: can job `i` benefit from a co-run with *any* other job under the
/// cap, on either placement?
pub fn partition(model: &dyn CoRunModel, cfg: &HcsConfig) -> (Vec<JobId>, Vec<JobId>) {
    let n = model.len();
    let mut benefits = vec![false; n];
    for i in 0..n {
        for j in 0..n {
            if i == j || (benefits[i] && benefits[j]) {
                continue;
            }
            if pair_can_benefit(model, cfg, i, j) {
                benefits[i] = true;
                benefits[j] = true;
            }
        }
    }
    let s_co = (0..n).filter(|&i| benefits[i]).collect();
    let s_seq = (0..n).filter(|&i| !benefits[i]).collect();
    (s_co, s_seq)
}

/// Whether placing `a` on the CPU and `b` on the GPU (or vice versa) at any
/// cap-feasible setting makes the co-run beat sequential execution.
pub fn pair_can_benefit(model: &dyn CoRunModel, cfg: &HcsConfig, a: JobId, b: JobId) -> bool {
    for (cpu_job, gpu_job) in [(a, b), (b, a)] {
        for (f, g) in feasible_pair_settings(model, cpu_job, gpu_job, cfg.cap_w) {
            let l_c = model.standalone(cpu_job, Device::Cpu, f);
            let d_c = model.degradation(cpu_job, Device::Cpu, f, gpu_job, g);
            let l_g = model.standalone(gpu_job, Device::Gpu, g);
            let d_g = model.degradation(gpu_job, Device::Gpu, g, cpu_job, f);
            if corun_beneficial(l_c, d_c, l_g, d_g) {
                return true;
            }
        }
    }
    false
}

/// Step 2: preference of one job using times at the highest cap-feasible
/// frequency on each device (a device where the job cannot run under the
/// cap at all counts as infinitely slow).
pub fn categorize(model: &dyn CoRunModel, cfg: &HcsConfig, i: JobId) -> Preference {
    let t_cpu = best_solo_run(model, i, Device::Cpu, cfg.cap_w).map_or(f64::INFINITY, |(_, t)| t);
    let t_gpu = best_solo_run(model, i, Device::Gpu, cfg.cap_w).map_or(f64::INFINITY, |(_, t)| t);
    let lo = t_cpu.min(t_gpu);
    let hi = t_cpu.max(t_gpu);
    if !lo.is_finite() {
        return Preference::Non; // nowhere to run well; degenerate
    }
    if (hi - lo) / lo <= cfg.preference_threshold {
        Preference::Non
    } else if t_cpu < t_gpu {
        Preference::Cpu
    } else {
        Preference::Gpu
    }
}

/// A dispatch decision: which set/position to take the job from, and at
/// what level to run it.
struct Pick {
    set_idx: usize,
    pos: usize,
    level: usize,
}

/// Step 3 proper.
fn greedy(
    model: &dyn CoRunModel,
    cfg: &HcsConfig,
    cpu_pref: Vec<JobId>,
    gpu_pref: Vec<JobId>,
    non_pref: Vec<JobId>,
    s_seq: &[JobId],
) -> Schedule {
    let mut schedule = Schedule::new();
    let mut sets = [cpu_pref, non_pref, gpu_pref]; // indices 0,1,2
                                                   // preference order per device (indices into `sets`)
    let order_cpu = [0usize, 1, 2];
    let order_gpu = [2usize, 1, 0];

    // running job per device: (job, level, remaining standalone seconds)
    let mut running: [Option<(JobId, usize, f64)>; 2] = [None, None];
    let seq_fallback: &mut Vec<JobId> = &mut Vec::new();

    // Seed the GPU with the longest GPU-preferred job (falling back through
    // the preference order if that set is empty).
    if let Some(pick) = pick_longest(model, cfg, &sets, &order_gpu, Device::Gpu) {
        let job = take(&mut sets, pick.set_idx, pick.pos);
        running[Device::Gpu.index()] = Some((
            job,
            pick.level,
            model.standalone(job, Device::Gpu, pick.level),
        ));
        schedule.gpu.push(Assignment {
            job,
            level: pick.level,
        });
    }

    // Fill the CPU with the least-interference candidate, choosing the pair
    // setting jointly (this may re-level the seeded GPU job before any time
    // has elapsed).
    if let Some((gjob, glevel, _)) = running[Device::Gpu.index()] {
        if let Some((pick, best_g)) =
            pick_least_interference_joint(model, cfg, &sets, &order_cpu, gjob)
        {
            let job = take(&mut sets, pick.set_idx, pick.pos);
            running[Device::Cpu.index()] = Some((
                job,
                pick.level,
                model.standalone(job, Device::Cpu, pick.level),
            ));
            schedule.cpu.push(Assignment {
                job,
                level: pick.level,
            });
            if best_g != glevel {
                let r = running[Device::Gpu.index()].as_mut().expect("gpu running");
                r.1 = best_g;
                r.2 = model.standalone(gjob, Device::Gpu, best_g);
                schedule.gpu.last_mut().expect("gpu seeded").level = best_g;
            }
        }
    } else if let Some(pick) = pick_longest(model, cfg, &sets, &order_cpu, Device::Cpu) {
        // No GPU candidate at all: seed the CPU instead.
        let job = take(&mut sets, pick.set_idx, pick.pos);
        running[Device::Cpu.index()] = Some((
            job,
            pick.level,
            model.standalone(job, Device::Cpu, pick.level),
        ));
        schedule.cpu.push(Assignment {
            job,
            level: pick.level,
        });
    }

    // Event loop: advance to the next completion, refill the freed device.
    loop {
        match (running[0], running[1]) {
            (None, None) => break,
            (Some((cj, cl, cr)), Some((gj, gl, gr))) => {
                let s_c = 1.0 + model.degradation(cj, Device::Cpu, cl, gj, gl);
                let s_g = 1.0 + model.degradation(gj, Device::Gpu, gl, cj, cl);
                let t_c = cr * s_c;
                let t_g = gr * s_g;
                let dt = t_c.min(t_g);
                let nc = cr - dt / s_c;
                let ng = gr - dt / s_g;
                running[0] = (nc > 1e-9).then_some((cj, cl, nc));
                running[1] = (ng > 1e-9).then_some((gj, gl, ng));
            }
            (Some(_), None) | (None, Some(_)) => {
                // Lone job: nothing else can change state before it ends.
                running = [None, None];
            }
        }

        // Refill free devices in two passes: first from each device's own
        // preferred (and non-preferred) sets, then — only if still free —
        // from the other device's preferred set, and only when the steal is
        // profitable (running the job here must beat waiting for its
        // preferred device behind that device's remaining backlog).
        for own_only in [true, false] {
            for device in Device::ALL {
                if running[device.index()].is_some() {
                    continue;
                }
                let order = match device {
                    Device::Cpu => &order_cpu,
                    Device::Gpu => &order_gpu,
                };
                let restricted: [usize; 3] = if own_only {
                    // own preferred set + non-preferred only (sentinel 9
                    // skips the other-preferred set)
                    [order[0], order[1], usize::MAX]
                } else {
                    *order
                };
                let co = running[device.other().index()];
                let picked = match co {
                    Some((co_job, co_level, _)) => pick_least_interference(
                        model,
                        cfg,
                        &sets,
                        &restricted,
                        device,
                        co_job,
                        co_level,
                    ),
                    None => pick_longest(model, cfg, &sets, &restricted, device),
                };
                let Some(pick) = picked else { continue };
                // Steal check: a pick from the other device's preferred set
                // must be profitable versus waiting.
                if pick.set_idx == order[2] {
                    let t_here = model.standalone(sets[pick.set_idx][pick.pos], device, pick.level);
                    let job = sets[pick.set_idx][pick.pos];
                    let other = device.other();
                    let ko = model.levels(other) - 1;
                    let t_there = model.standalone(job, other, ko);
                    // Backlog ahead of the job on its preferred device: the
                    // rest of that device's preferred set plus the running
                    // job's remaining time.
                    let mut backlog: f64 = sets[order[2]]
                        .iter()
                        .filter(|&&y| y != job)
                        .map(|&y| model.standalone(y, other, ko))
                        .sum();
                    if let Some((_, _, rem)) = running[other.index()] {
                        backlog += rem;
                    }
                    if t_here >= backlog + t_there {
                        continue; // let it wait for its preferred device
                    }
                }
                let job = take(&mut sets, pick.set_idx, pick.pos);
                running[device.index()] =
                    Some((job, pick.level, model.standalone(job, device, pick.level)));
                schedule.queue_mut(device).push(Assignment {
                    job,
                    level: pick.level,
                });
            }
        }

        if running.iter().all(std::option::Option::is_none)
            && sets.iter().all(std::vec::Vec::is_empty)
        {
            break;
        }
        if running.iter().all(std::option::Option::is_none) {
            // Candidates remain but none could be dispatched (no feasible
            // level even alone): push them to the solo fallback.
            for set in &mut sets {
                seq_fallback.append(set);
            }
            break;
        }
    }

    // Solo tail: S_seq jobs (and any fallback) on their best device.
    for &job in s_seq.iter().chain(seq_fallback.iter()) {
        if let Some((device, level, _)) = best_solo_placement(model, job, cfg.cap_w) {
            schedule.solo_tail.push(SoloRun { job, device, level });
        } else {
            // Nothing fits the cap even at the floor: run at the floor on
            // the faster device; the runtime governor will do what it can.
            let device =
                if model.standalone(job, Device::Cpu, 0) <= model.standalone(job, Device::Gpu, 0) {
                    Device::Cpu
                } else {
                    Device::Gpu
                };
            schedule.solo_tail.push(SoloRun {
                job,
                device,
                level: 0,
            });
        }
    }

    schedule
}

fn take(sets: &mut [Vec<JobId>; 3], set_idx: usize, pos: usize) -> JobId {
    sets[set_idx].remove(pos)
}

/// First non-empty set in preference order; pick its longest job (by time
/// at the best cap-feasible solo level on `device`).
fn pick_longest(
    model: &dyn CoRunModel,
    cfg: &HcsConfig,
    sets: &[Vec<JobId>; 3],
    order: &[usize; 3],
    device: Device,
) -> Option<Pick> {
    for &si in order {
        if si >= sets.len() || sets[si].is_empty() {
            continue;
        }
        let mut best: Option<(usize, usize, f64)> = None; // (pos, level, time)
        for (pos, &job) in sets[si].iter().enumerate() {
            let Some((level, t)) = best_solo_run(model, job, device, cfg.cap_w) else {
                continue;
            };
            if best.is_none_or(|(_, _, bt)| t > bt) {
                best = Some((pos, level, t));
            }
        }
        if let Some((pos, level, _)) = best {
            return Some(Pick {
                set_idx: si,
                pos,
                level,
            });
        }
    }
    None
}

/// First non-empty set in preference order; pick the job minimizing the sum
/// of co-run degradations against the fixed co-runner (the paper's "least
/// co-run interference" criterion). The job's own frequency level is chosen
/// among cap-feasible ones to *maximize its performance* — minimize its
/// predicted co-run time `l(f) * (1 + d(f))` — since lowering the clock
/// always lowers interference but defeats the purpose.
fn pick_least_interference(
    model: &dyn CoRunModel,
    cfg: &HcsConfig,
    sets: &[Vec<JobId>; 3],
    order: &[usize; 3],
    device: Device,
    co_job: JobId,
    co_level: usize,
) -> Option<Pick> {
    for &si in order {
        if si >= sets.len() || sets[si].is_empty() {
            continue;
        }
        let mut best: Option<(usize, usize, f64)> = None; // (pos, level, deg sum)
        for (pos, &job) in sets[si].iter().enumerate() {
            let k = model.levels(device);
            let mut local: Option<(usize, f64, f64)> = None; // (level, corun time, deg sum)
            for f in 0..k {
                let power = match device {
                    Device::Cpu => model.corun_power(Some((job, f)), Some((co_job, co_level))),
                    Device::Gpu => model.corun_power(Some((co_job, co_level)), Some((job, f))),
                };
                if power > cfg.cap_w {
                    continue;
                }
                let d_own = model.degradation(job, device, f, co_job, co_level);
                let d_co = model.degradation(co_job, device.other(), co_level, job, f);
                let t_own = model.standalone(job, device, f) * (1.0 + d_own);
                if local.is_none_or(|(_, bt, _)| t_own < bt - 1e-12) {
                    local = Some((f, t_own, d_own + d_co));
                }
            }
            if let Some((f, _, sum)) = local {
                if best.is_none_or(|(_, _, bs)| sum < bs) {
                    best = Some((pos, f, sum));
                }
            }
        }
        if let Some((pos, level, _)) = best {
            return Some(Pick {
                set_idx: si,
                pos,
                level,
            });
        }
    }
    None
}

/// Like [`pick_least_interference`] for the *first* CPU dispatch, where the
/// GPU co-runner's level is still free: jointly traverse the feasible
/// `(f, g)` grid. Returns the pick plus the best GPU level.
fn pick_least_interference_joint(
    model: &dyn CoRunModel,
    cfg: &HcsConfig,
    sets: &[Vec<JobId>; 3],
    order: &[usize; 3],
    gpu_job: JobId,
) -> Option<(Pick, usize)> {
    for &si in order {
        if si >= sets.len() || sets[si].is_empty() {
            continue;
        }
        // Per candidate: levels minimizing the pair's conservative makespan
        // (max of the two co-run times); candidates ranked by interference.
        let mut best: Option<(usize, usize, usize, f64)> = None; // (pos, f, g, deg sum)
        for (pos, &job) in sets[si].iter().enumerate() {
            let mut local: Option<(usize, usize, f64, f64)> = None; // (f, g, span, sum)
            for (f, g) in feasible_pair_settings(model, job, gpu_job, cfg.cap_w) {
                let d_c = model.degradation(job, Device::Cpu, f, gpu_job, g);
                let d_g = model.degradation(gpu_job, Device::Gpu, g, job, f);
                let t_c = model.standalone(job, Device::Cpu, f) * (1.0 + d_c);
                let t_g = model.standalone(gpu_job, Device::Gpu, g) * (1.0 + d_g);
                let span = t_c.max(t_g);
                if local.is_none_or(|(_, _, bsp, _)| span < bsp - 1e-12) {
                    local = Some((f, g, span, d_c + d_g));
                }
            }
            if let Some((f, g, _, sum)) = local {
                if best.is_none_or(|(_, _, _, bs)| sum < bs) {
                    best = Some((pos, f, g, sum));
                }
            }
        }
        if let Some((pos, f, g, _)) = best {
            return Some((
                Pick {
                    set_idx: si,
                    pos,
                    level: f,
                },
                g,
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::model::test_model::synthetic;
    use crate::model::TableModel;

    #[test]
    fn empty_batch() {
        let m = synthetic(0, 4, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        assert!(out.schedule.is_empty());
    }

    #[test]
    fn single_job_runs_somewhere() {
        let m = synthetic(1, 4, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        assert!(out.schedule.is_complete_for(1));
    }

    #[test]
    fn schedule_is_complete_permutation() {
        for n in [2, 4, 7, 10] {
            let m = synthetic(n, 6, 5);
            let out = hcs(&m, &HcsConfig::uncapped());
            assert!(out.schedule.is_complete_for(n), "n={n}: {}", out.schedule);
        }
    }

    #[test]
    fn capped_schedule_respects_cap_in_model() {
        let m = synthetic(8, 6, 5);
        let cap = 16.0;
        let out = hcs(&m, &HcsConfig::with_cap(cap));
        assert!(out.schedule.is_complete_for(8));
        let r = evaluate(&m, &out.schedule, Some(cap));
        assert!(r.cap_ok, "peak {} over cap {cap}", r.peak_power_w);
    }

    #[test]
    fn hostile_jobs_go_to_sequential() {
        // Degradations of 90% on 2 equal jobs: l*d = 0.9l > l? No: 0.9l < l,
        // still beneficial. Make degradation 120% so l*d > l.
        let m = TableModel::build(
            vec!["a".into(), "b".into()],
            2,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |_i, _d, _f, _j, _g| 1.2,
            |_i, _d, _f| 5.0,
        );
        let (s_co, s_seq) = partition(&m, &HcsConfig::uncapped());
        assert!(s_co.is_empty());
        assert_eq!(s_seq, vec![0, 1]);
        let out = hcs(&m, &HcsConfig::uncapped());
        assert_eq!(out.schedule.solo_tail.len(), 2);
        assert!(out.schedule.cpu.is_empty() && out.schedule.gpu.is_empty());
    }

    #[test]
    fn friendly_jobs_corun() {
        let m = TableModel::build(
            vec!["a".into(), "b".into()],
            2,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |_i, _d, _f, _j, _g| 0.05,
            |_i, _d, _f| 5.0,
        );
        let out = hcs(&m, &HcsConfig::uncapped());
        assert_eq!(out.schedule.solo_tail.len(), 0);
        assert_eq!(out.schedule.cpu.len() + out.schedule.gpu.len(), 2);
        assert!(out.s_seq.is_empty());
    }

    #[test]
    fn categorize_uses_threshold() {
        // CPU time 10, GPU time 11.5: 15% apart -> Non at D=0.2, Cpu at D=0.1.
        let m = TableModel::build(
            vec!["a".into()],
            2,
            2,
            4.0,
            |_i, d, _f| match d {
                Device::Cpu => 10.0,
                Device::Gpu => 11.5,
            },
            |_i, _d, _f, _j, _g| 0.1,
            |_i, _d, _f| 5.0,
        );
        let mut cfg = HcsConfig::uncapped();
        assert_eq!(categorize(&m, &cfg, 0), Preference::Non);
        cfg.preference_threshold = 0.10;
        assert_eq!(categorize(&m, &cfg, 0), Preference::Cpu);
    }

    #[test]
    fn hcs_beats_naive_all_on_one_device() {
        let m = synthetic(8, 6, 5);
        let out = hcs(&m, &HcsConfig::uncapped());
        let hcs_span = evaluate(&m, &out.schedule, None).makespan_s;
        // Naive: everything on the GPU at max level, sequentially.
        let mut naive = Schedule::new();
        for i in 0..8 {
            naive.gpu.push(Assignment { job: i, level: 4 });
        }
        let naive_span = evaluate(&m, &naive, None).makespan_s;
        assert!(
            hcs_span < naive_span * 0.8,
            "hcs {hcs_span} vs single-device {naive_span}"
        );
    }

    #[test]
    fn tighter_cap_does_not_break_completeness() {
        let m = synthetic(6, 6, 5);
        for cap in [30.0, 18.0, 14.0, 10.0, 7.0] {
            let out = hcs(&m, &HcsConfig::with_cap(cap));
            assert!(out.schedule.is_complete_for(6), "cap {cap}");
        }
    }

    #[test]
    fn tighter_cap_never_speeds_up_schedule() {
        let m = synthetic(8, 6, 5);
        let loose = evaluate(&m, &hcs(&m, &HcsConfig::with_cap(25.0)).schedule, None).makespan_s;
        let tight = evaluate(&m, &hcs(&m, &HcsConfig::with_cap(11.0)).schedule, None).makespan_s;
        assert!(
            tight >= loose * 0.98,
            "tight cap {tight} should not beat loose cap {loose}"
        );
    }

    #[test]
    fn preference_respected_in_placement() {
        // Two strongly CPU-preferred and two strongly GPU-preferred jobs
        // with mild interference: HCS must place them accordingly.
        let m = TableModel::build(
            vec!["c0".into(), "c1".into(), "g0".into(), "g1".into()],
            3,
            3,
            4.0,
            |i, d, f| {
                let fast = 10.0 / (0.5 + 0.5 * f as f64 / 2.0);
                let slow = 30.0 / (0.5 + 0.5 * f as f64 / 2.0);
                match (i < 2, d) {
                    (true, Device::Cpu) => fast,
                    (true, Device::Gpu) => slow,
                    (false, Device::Cpu) => slow,
                    (false, Device::Gpu) => fast,
                }
            },
            |_i, _d, _f, _j, _g| 0.08,
            |_i, _d, _f| 5.0,
        );
        let out = hcs(&m, &HcsConfig::uncapped());
        let cpu_jobs: Vec<JobId> = out.schedule.cpu.iter().map(|a| a.job).collect();
        let gpu_jobs: Vec<JobId> = out.schedule.gpu.iter().map(|a| a.job).collect();
        assert!(
            cpu_jobs.contains(&0) && cpu_jobs.contains(&1),
            "{}",
            out.schedule
        );
        assert!(
            gpu_jobs.contains(&2) && gpu_jobs.contains(&3),
            "{}",
            out.schedule
        );
    }
}
