//! Lower bound on the optimal makespan (paper Section IV-B).
//!
//! `T_low = (1/2) * sum_i l'_i`, where per device `p`:
//!
//! * `l'_{i,p}` is the job's minimal cap-feasible co-run time (against the
//!   least-interfering partner over all frequency pairs) when that is less
//!   than twice its minimal cap-feasible standalone time, and twice the
//!   standalone time otherwise (soundness follows from the Co-Run Theorem:
//!   when the best co-run is worse than 2x solo, running solo and "wasting"
//!   the other processor is charged at the solo time itself);
//! * `l'_i = min_p l'_{i,p}`.

use crate::freqgrid::{best_solo_run, feasible_pair_settings};
use crate::model::{CoRunModel, JobId};
use apu_sim::Device;

/// Per-job decomposition of the bound, for reporting.
#[derive(Debug, Clone)]
pub struct BoundReport {
    /// The bound itself, seconds.
    pub t_low_s: f64,
    /// `l'_i` per job.
    pub l_prime_s: Vec<f64>,
    /// A slightly tighter variant: `max(T_low, longest job's best solo
    /// time)` — the makespan can never undercut the longest single job.
    /// (Our extension; the paper reports the plain `T_low`.)
    pub t_low_tight_s: f64,
}

impl BoundReport {
    /// The bound adjusted for `lost_s` seconds of work destroyed by
    /// faults (evicted or failed executions that must re-run). Lost
    /// demand re-enters the two-processor halving, so the bound rises by
    /// `lost_s / 2` — keeping makespan/lower-bound comparisons
    /// consistent in degraded mode.
    pub fn with_lost_work(&self, lost_s: f64) -> f64 {
        self.t_low_s + lost_s.max(0.0) / 2.0
    }
}

/// Best cap-feasible co-run time of job `i` on `device`: minimized over
/// partners `j` and feasible frequency pairs.
fn best_corun_time(model: &dyn CoRunModel, i: JobId, device: Device, cap_w: f64) -> Option<f64> {
    let n = model.len();
    let mut best: Option<f64> = None;
    for j in 0..n {
        if j == i {
            continue;
        }
        let (cpu_job, gpu_job) = match device {
            Device::Cpu => (i, j),
            Device::Gpu => (j, i),
        };
        for (f, g) in feasible_pair_settings(model, cpu_job, gpu_job, cap_w) {
            let own_level = match device {
                Device::Cpu => f,
                Device::Gpu => g,
            };
            let co_level = match device {
                Device::Cpu => g,
                Device::Gpu => f,
            };
            let t = model.standalone(i, device, own_level)
                * (1.0 + model.degradation(i, device, own_level, j, co_level));
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
    }
    best
}

/// Compute the lower bound and its per-job decomposition.
pub fn lower_bound(model: &dyn CoRunModel, cap_w: f64) -> BoundReport {
    let n = model.len();
    let mut l_prime = Vec::with_capacity(n);
    let mut longest_solo: f64 = 0.0;
    for i in 0..n {
        let mut per_dev: Vec<f64> = Vec::with_capacity(2);
        for device in Device::ALL {
            let solo = best_solo_run(model, i, device, cap_w).map(|(_, t)| t);
            let corun = best_corun_time(model, i, device, cap_w);
            let v = match (corun, solo) {
                (Some(c), Some(s)) => c.min(2.0 * s),
                (Some(c), None) => c,
                (None, Some(s)) => 2.0 * s,
                (None, None) => continue,
            };
            per_dev.push(v);
            if let Some(s) = solo {
                // track for the tight variant
                let _ = s;
            }
        }
        let li = per_dev.iter().copied().fold(f64::INFINITY, f64::min);
        let li = if li.is_finite() { li } else { 0.0 };
        l_prime.push(li);
        let solo_i = Device::ALL
            .iter()
            .filter_map(|&d| best_solo_run(model, i, d, cap_w).map(|(_, t)| t))
            .fold(f64::INFINITY, f64::min);
        if solo_i.is_finite() {
            longest_solo = longest_solo.max(solo_i);
        }
    }
    let t_low = 0.5 * l_prime.iter().sum::<f64>();
    BoundReport {
        t_low_s: t_low,
        l_prime_s: l_prime,
        t_low_tight_s: t_low.max(longest_solo),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;
    use crate::refine::{refine, RefineConfig};

    #[test]
    fn bound_below_hcs_makespan() {
        for n in [4, 8, 12] {
            let m = synthetic(n, 6, 5);
            let cap = 18.0;
            let b = lower_bound(&m, cap);
            let out = hcs(&m, &HcsConfig::with_cap(cap));
            let r = refine(&m, &out.schedule, &RefineConfig::new(cap));
            let span = evaluate(&m, &r.schedule, Some(cap)).makespan_s;
            assert!(
                b.t_low_s <= span + 1e-6,
                "n={n}: bound {} above achieved {span}",
                b.t_low_s
            );
            assert!(b.t_low_tight_s >= b.t_low_s);
            assert!(b.t_low_tight_s <= span + 1e-6);
        }
    }

    #[test]
    fn bound_positive_for_nonempty_batch() {
        let m = synthetic(5, 4, 4);
        let b = lower_bound(&m, f64::INFINITY);
        assert!(b.t_low_s > 0.0);
        assert_eq!(b.l_prime_s.len(), 5);
        assert!(b.l_prime_s.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn lost_work_raises_bound_by_half() {
        let m = synthetic(5, 4, 4);
        let b = lower_bound(&m, f64::INFINITY);
        assert_eq!(b.with_lost_work(0.0), b.t_low_s);
        assert!((b.with_lost_work(8.0) - (b.t_low_s + 4.0)).abs() < 1e-12);
        // Negative "lost" work (clock skew artifacts) never lowers it.
        assert_eq!(b.with_lost_work(-3.0), b.t_low_s);
    }

    #[test]
    fn tighter_cap_raises_bound() {
        let m = synthetic(8, 6, 5);
        let loose = lower_bound(&m, 30.0).t_low_s;
        let tight = lower_bound(&m, 10.0).t_low_s;
        assert!(
            tight >= loose - 1e-9,
            "a tighter cap cannot lower the bound: {tight} vs {loose}"
        );
    }

    #[test]
    fn friendly_pair_bound_uses_corun_time() {
        // Two identical friendly jobs: best co-run time l*(1+d) < 2l, so
        // l' = l*(1+d) and T_low = l*(1+d) — the true optimum.
        let m = crate::model::TableModel::build(
            vec!["a".into(), "b".into()],
            2,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |_i, _d, _f, _j, _g| 0.2,
            |_i, _d, _f| 5.0,
        );
        let b = lower_bound(&m, f64::INFINITY);
        assert!((b.t_low_s - 12.0).abs() < 1e-9, "got {}", b.t_low_s);
    }

    #[test]
    fn hostile_pair_bound_uses_double_solo() {
        // Degradation 150%: co-run time 25 > 2*10, so l' = 20 each,
        // T_low = 20 — matching sequential execution.
        let m = crate::model::TableModel::build(
            vec!["a".into(), "b".into()],
            2,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |_i, _d, _f, _j, _g| 1.5,
            |_i, _d, _f| 5.0,
        );
        let b = lower_bound(&m, f64::INFINITY);
        assert!((b.t_low_s - 20.0).abs() < 1e-9, "got {}", b.t_low_s);
    }
}
