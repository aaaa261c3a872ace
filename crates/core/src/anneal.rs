//! Simulated-annealing co-schedule search.
//!
//! A stronger (but slower) offline optimizer than HCS+: starts from the
//! refined heuristic schedule and explores the same neighborhood moves
//! (intra-device swaps, cross-device swaps, device moves, level nudges)
//! under a geometric cooling schedule, accepting uphill moves with the
//! Metropolis criterion. Useful to quantify how much headroom HCS+ leaves
//! at batch sizes where branch-and-bound is too expensive.

use crate::evaluate::evaluate;
use crate::freqgrid::best_solo_level;
use crate::model::CoRunModel;
use crate::objective::{objective_value, Objective};
use crate::schedule::{Assignment, Schedule};
use apu_sim::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealing parameters.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Power cap.
    pub cap_w: f64,
    /// Iterations.
    pub iterations: usize,
    /// Initial temperature as a fraction of the starting objective value.
    pub t0_frac: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
    /// Objective to minimize.
    pub objective: Objective,
}

impl AnnealConfig {
    /// Defaults: 4000 iterations, T0 = 5% of the initial objective,
    /// cooling 0.999.
    pub fn new(cap_w: f64) -> Self {
        AnnealConfig {
            cap_w,
            iterations: 4000,
            t0_frac: 0.05,
            cooling: 0.999,
            seed: 0xa11ea1,
            objective: Objective::Makespan,
        }
    }
}

/// Annealing outcome.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Best schedule found.
    pub schedule: Schedule,
    /// Its objective value.
    pub value: f64,
    /// Objective value of the starting schedule.
    pub start_value: f64,
    /// Accepted moves (including uphill).
    pub accepted: usize,
}

/// Anneal from `start` (typically the HCS+ schedule).
pub fn anneal(model: &dyn CoRunModel, start: &Schedule, cfg: &AnnealConfig) -> AnnealOutcome {
    let cap = cfg.cap_w.is_finite().then_some(cfg.cap_w);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let eval = |s: &Schedule| {
        let r = evaluate(model, s, cap);
        (objective_value(cfg.objective, &r), r.cap_ok)
    };

    let mut current = start.clone();
    let (mut cur_v, start_ok) = eval(&current);
    let start_value = cur_v;
    let mut best = current.clone();
    let mut best_v = cur_v;
    let mut temp = (cur_v * cfg.t0_frac).max(1e-9);
    let mut accepted = 0;
    debug_assert!(
        start_ok,
        "annealing must start from a cap-feasible schedule"
    );

    for _ in 0..cfg.iterations {
        let Some(cand) = neighbor(model, &current, cfg.cap_w, &mut rng) else {
            temp *= cfg.cooling;
            continue;
        };
        let (v, ok) = eval(&cand);
        if ok {
            let delta = v - cur_v;
            if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                current = cand;
                cur_v = v;
                accepted += 1;
                if cur_v < best_v {
                    best = current.clone();
                    best_v = cur_v;
                }
            }
        }
        temp *= cfg.cooling;
    }

    AnnealOutcome {
        schedule: best,
        value: best_v,
        start_value,
        accepted,
    }
}

/// Generate a random neighbor; `None` when the move is inapplicable.
fn neighbor(
    model: &dyn CoRunModel,
    s: &Schedule,
    cap_w: f64,
    rng: &mut StdRng,
) -> Option<Schedule> {
    let mut cand = s.clone();
    match rng.gen_range(0..4u8) {
        // Intra-device swap.
        0 => {
            let device = if rng.gen() { Device::Cpu } else { Device::Gpu };
            let q = cand.queue_mut(device);
            if q.len() < 2 {
                return None;
            }
            let i = rng.gen_range(0..q.len());
            let j = rng.gen_range(0..q.len());
            if i == j {
                return None;
            }
            q.swap(i, j);
        }
        // Move a job to the other device's tail.
        1 => {
            let device = if rng.gen() { Device::Cpu } else { Device::Gpu };
            if cand.queue(device).is_empty() {
                return None;
            }
            let i = rng.gen_range(0..cand.queue(device).len());
            let a = cand.queue_mut(device).remove(i);
            let target = device.other();
            let level = best_solo_level(model, a.job, target, cap_w)?;
            cand.queue_mut(target)
                .push(Assignment { job: a.job, level });
        }
        // Nudge a job's level by +-1.
        2 => {
            let device = if rng.gen() { Device::Cpu } else { Device::Gpu };
            let k = model.levels(device);
            let q = cand.queue_mut(device);
            if q.is_empty() {
                return None;
            }
            let i = rng.gen_range(0..q.len());
            let a = &mut q[i];
            if rng.gen() {
                if a.level + 1 >= k {
                    return None;
                }
                a.level += 1;
            } else {
                if a.level == 0 {
                    return None;
                }
                a.level -= 1;
            }
        }
        // Pull a solo-tail job back into a queue (undo a demotion).
        _ => {
            if cand.solo_tail.is_empty() {
                return None;
            }
            let i = rng.gen_range(0..cand.solo_tail.len());
            let solo = cand.solo_tail.remove(i);
            let device = if rng.gen() { Device::Cpu } else { Device::Gpu };
            let level = best_solo_level(model, solo.job, device, cap_w)?;
            cand.queue_mut(device).push(Assignment {
                job: solo.job,
                level,
            });
        }
    }
    Some(cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;
    use crate::refine::{refine, RefineConfig};

    #[test]
    fn never_worse_than_start() {
        let m = synthetic(10, 5, 4);
        let cap = 16.0;
        let start = refine(
            &m,
            &hcs(&m, &HcsConfig::with_cap(cap)).schedule,
            &RefineConfig::new(cap),
        )
        .schedule;
        let mut cfg = AnnealConfig::new(cap);
        cfg.iterations = 1500;
        let out = anneal(&m, &start, &cfg);
        assert!(out.value <= out.start_value + 1e-9);
        assert!(out.schedule.is_complete_for(10));
        let check = evaluate(&m, &out.schedule, Some(cap));
        assert!(check.cap_ok);
    }

    #[test]
    fn improves_a_poor_start() {
        let m = synthetic(8, 5, 4);
        // Pessimal start: everything on the CPU at the floor.
        let mut bad = Schedule::new();
        for i in 0..8 {
            bad.cpu.push(Assignment { job: i, level: 0 });
        }
        let mut cfg = AnnealConfig::new(f64::INFINITY);
        cfg.iterations = 3000;
        let out = anneal(&m, &bad, &cfg);
        assert!(
            out.value < out.start_value * 0.6,
            "anneal should fix an awful start: {} -> {}",
            out.start_value,
            out.value
        );
        assert!(out.schedule.is_complete_for(8));
    }

    #[test]
    fn deterministic_per_seed() {
        let m = synthetic(6, 4, 4);
        let start = hcs(&m, &HcsConfig::uncapped()).schedule;
        let mut cfg = AnnealConfig::new(f64::INFINITY);
        cfg.iterations = 500;
        let a = anneal(&m, &start, &cfg);
        let b = anneal(&m, &start, &cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let m = synthetic(5, 4, 4);
        let start = hcs(&m, &HcsConfig::uncapped()).schedule;
        let mut cfg = AnnealConfig::new(f64::INFINITY);
        cfg.iterations = 0;
        let out = anneal(&m, &start, &cfg);
        assert_eq!(out.schedule, start);
        assert_eq!(out.value, out.start_value);
        assert_eq!(out.accepted, 0);
    }
}
