//! HCS+ post local refinement (paper Section IV-A.3).
//!
//! Three linear-cost passes over a schedule produced by the heuristic:
//!
//! 1. swap every two *adjacent* jobs in each device's queue, keeping a swap
//!    when it reduces the predicted makespan;
//! 2. swap two *randomly picked* jobs within a device's queue, a bounded
//!    number of samples;
//! 3. swap two jobs *across* devices (re-leveling each moved job to its
//!    best cap-feasible level on its new device), a bounded number of
//!    samples.
//!
//! Swaps that would violate the power cap (as judged by the model-based
//! evaluator) are rejected regardless of makespan.

use crate::evaluate::evaluate;
use crate::freqgrid::best_solo_level;
use crate::model::CoRunModel;
use crate::objective::{objective_value, Objective};
use crate::schedule::Schedule;
use apu_sim::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Refinement parameters.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Power cap (must match the cap the schedule was built for).
    pub cap_w: f64,
    /// Random same-device swap attempts per device (step 2).
    pub random_swaps: usize,
    /// Random cross-device swap attempts (step 3).
    pub cross_swaps: usize,
    /// RNG seed (refinement is deterministic given the seed).
    pub seed: u64,
    /// What to minimize (the paper minimizes makespan).
    pub objective: Objective,
}

impl RefineConfig {
    /// Defaults: 32 random swaps per device, 32 cross swaps.
    pub fn new(cap_w: f64) -> Self {
        RefineConfig {
            cap_w,
            random_swaps: 32,
            cross_swaps: 32,
            seed: 0x5eed,
            objective: Objective::Makespan,
        }
    }
}

/// Outcome of refinement.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined schedule.
    pub schedule: Schedule,
    /// Objective value before refinement (seconds for makespan, joules for
    /// energy, joule-seconds for EDP).
    pub before_s: f64,
    /// Objective value after refinement.
    pub after_s: f64,
    /// Number of accepted swaps.
    pub accepted: usize,
}

/// Run the three refinement passes.
pub fn refine(model: &dyn CoRunModel, schedule: &Schedule, cfg: &RefineConfig) -> RefineOutcome {
    let cap = if cfg.cap_w.is_finite() {
        Some(cfg.cap_w)
    } else {
        None
    };
    let objective = cfg.objective;
    let mut best = schedule.clone();
    let before = objective_value(objective, &evaluate(model, &best, cap));
    let mut best_span = before;
    let mut accepted = 0;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let try_accept = |cand: Schedule, best: &mut Schedule, best_span: &mut f64| -> bool {
        let r = evaluate(model, &cand, cap);
        let v = objective_value(objective, &r);
        if r.cap_ok && v < *best_span - 1e-9 {
            *best = cand;
            *best_span = v;
            true
        } else {
            false
        }
    };

    // Pass 1: adjacent swaps on each device.
    for device in Device::ALL {
        let len = best.queue(device).len();
        if len < 2 {
            continue;
        }
        for i in 0..len - 1 {
            let mut cand = best.clone();
            cand.queue_mut(device).swap(i, i + 1);
            if try_accept(cand, &mut best, &mut best_span) {
                accepted += 1;
            }
        }
    }

    // Pass 2: random intra-device swaps.
    for device in Device::ALL {
        let len = best.queue(device).len();
        if len < 2 {
            continue;
        }
        for _ in 0..cfg.random_swaps {
            let i = rng.gen_range(0..len);
            let j = rng.gen_range(0..len);
            if i == j {
                continue;
            }
            let mut cand = best.clone();
            cand.queue_mut(device).swap(i, j);
            if try_accept(cand, &mut best, &mut best_span) {
                accepted += 1;
            }
        }
    }

    // Pass 2b (our extension beyond the paper's three swap passes): try
    // *moving* each job from one queue to the tail of the other, which
    // repairs device-load imbalance that pure swaps cannot (e.g. a
    // GPU-preferred job the greedy stole onto the CPU near the end).
    for device in Device::ALL {
        let len = best.queue(device).len();
        for i in (0..len).rev() {
            let mut cand = best.clone();
            let a = cand.queue_mut(device).remove(i);
            let target = device.other();
            // Highest level that fits the cap against every possible
            // co-runner left in the source queue.
            let Some(start) = best_solo_level(model, a.job, target, cfg.cap_w) else {
                continue;
            };
            let level = (0..=start).rev().find(|&f| {
                cand.queue(device).iter().all(|other| {
                    let power = match target {
                        Device::Cpu => {
                            model.corun_power(Some((a.job, f)), Some((other.job, other.level)))
                        }
                        Device::Gpu => {
                            model.corun_power(Some((other.job, other.level)), Some((a.job, f)))
                        }
                    };
                    power <= cfg.cap_w
                })
            });
            let Some(level) = level else { continue };
            cand.queue_mut(target)
                .push(crate::schedule::Assignment { job: a.job, level });
            if try_accept(cand, &mut best, &mut best_span) {
                accepted += 1;
            }
        }
    }

    // Pass 3: random cross-device swaps with re-leveling.
    for _ in 0..cfg.cross_swaps {
        let nc = best.cpu.len();
        let ng = best.gpu.len();
        if nc == 0 || ng == 0 {
            break;
        }
        let i = rng.gen_range(0..nc);
        let j = rng.gen_range(0..ng);
        let mut cand = best.clone();
        let a = cand.cpu[i];
        let b = cand.gpu[j];
        // `a` moves to the GPU, `b` to the CPU. Levels are re-picked
        // conservatively: the highest level that fits the cap against
        // *every* job queued on the other device (so any overlap the
        // evaluator produces is feasible).
        let Some(a_level) = safe_level(model, a.job, Device::Gpu, &cand.cpu, i, b, cfg.cap_w)
        else {
            continue;
        };
        let Some(b_level) = safe_level(model, b.job, Device::Cpu, &cand.gpu, j, a, cfg.cap_w)
        else {
            continue;
        };
        cand.cpu[i] = crate::schedule::Assignment {
            job: b.job,
            level: b_level,
        };
        cand.gpu[j] = crate::schedule::Assignment {
            job: a.job,
            level: a_level,
        };
        if try_accept(cand, &mut best, &mut best_span) {
            accepted += 1;
        }
    }

    RefineOutcome {
        schedule: best,
        before_s: before,
        after_s: best_span,
        accepted,
    }
}

/// Highest level of `job` on `device` that keeps the pair power under the
/// cap against every assignment in the other device's queue (`other_queue`;
/// the entry at `swap_pos` is about to be replaced by `incoming`).
fn safe_level(
    model: &dyn CoRunModel,
    job: crate::model::JobId,
    device: Device,
    other_queue: &[crate::schedule::Assignment],
    swap_pos: usize,
    incoming: crate::schedule::Assignment,
    cap_w: f64,
) -> Option<usize> {
    let start = best_solo_level(model, job, device, cap_w)?;
    // `incoming` still carries its level from the device it came from; clamp
    // it to the ladder it is moving onto (a placeholder — the evaluator is
    // the final cap gate).
    let co_ladder_max = model.levels(device.other()) - 1;
    'level: for f in (0..=start).rev() {
        for (pos, other) in other_queue.iter().enumerate() {
            let (co_job, co_level) = if pos == swap_pos {
                (incoming.job, incoming.level.min(co_ladder_max))
            } else {
                (other.job, other.level)
            };
            let power = match device {
                Device::Cpu => model.corun_power(Some((job, f)), Some((co_job, co_level))),
                Device::Gpu => model.corun_power(Some((co_job, co_level)), Some((job, f))),
            };
            if power > cap_w {
                continue 'level;
            }
        }
        return Some(f);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;
    use crate::schedule::Assignment;

    #[test]
    fn refinement_never_worsens() {
        let m = synthetic(10, 6, 5);
        let out = hcs(&m, &HcsConfig::with_cap(18.0));
        let r = refine(&m, &out.schedule, &RefineConfig::new(18.0));
        assert!(r.after_s <= r.before_s + 1e-9);
        assert!(r.schedule.is_complete_for(10));
    }

    #[test]
    fn refinement_deterministic_per_seed() {
        let m = synthetic(9, 5, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        let a = refine(&m, &out.schedule, &RefineConfig::new(f64::INFINITY));
        let b = refine(&m, &out.schedule, &RefineConfig::new(f64::INFINITY));
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.after_s, b.after_s);
    }

    #[test]
    fn improves_a_deliberately_bad_order() {
        // Build a pessimal schedule by hand: pair the two most hostile jobs
        // together; refinement should find something better.
        let m = synthetic(8, 5, 4);
        let mut bad = Schedule::new();
        for i in 0..4 {
            bad.cpu.push(Assignment { job: i, level: 4 });
        }
        for i in 4..8 {
            bad.gpu.push(Assignment { job: i, level: 3 });
        }
        let before = evaluate(&m, &bad, None).makespan_s;
        let mut cfg = RefineConfig::new(f64::INFINITY);
        cfg.random_swaps = 64;
        cfg.cross_swaps = 64;
        let r = refine(&m, &bad, &cfg);
        assert!(r.after_s <= before);
        assert!(r.schedule.is_complete_for(8));
    }

    #[test]
    fn cap_violating_swaps_rejected() {
        let m = synthetic(6, 5, 4);
        let cap = 14.0;
        let out = hcs(&m, &HcsConfig::with_cap(cap));
        let base = evaluate(&m, &out.schedule, Some(cap));
        assert!(base.cap_ok);
        let r = refine(&m, &out.schedule, &RefineConfig::new(cap));
        let after = evaluate(&m, &r.schedule, Some(cap));
        assert!(after.cap_ok, "refinement must preserve cap compliance");
    }

    #[test]
    fn energy_objective_prefers_lower_clocks() {
        use crate::objective::{energy_j, Objective};
        let m = synthetic(6, 5, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        let mut rc = RefineConfig::new(f64::INFINITY);
        rc.objective = Objective::Energy;
        rc.random_swaps = 64;
        let r = refine(&m, &out.schedule, &rc);
        let base = evaluate(&m, &out.schedule, None);
        let tuned = evaluate(&m, &r.schedule, None);
        assert!(
            energy_j(&tuned) <= energy_j(&base) + 1e-9,
            "energy objective must not raise energy"
        );
    }

    #[test]
    fn empty_and_tiny_schedules_are_noops() {
        let m = synthetic(1, 4, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        let r = refine(&m, &out.schedule, &RefineConfig::new(f64::INFINITY));
        assert_eq!(r.before_s, r.after_s);
    }
}
