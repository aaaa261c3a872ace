//! Exhaustive search over co-schedules for small batches.
//!
//! Used to reproduce the Section III observation ("the optimal setting
//! yields performance 2.3X better than the worst case co-schedule of the
//! four programs") and as an oracle in tests. The search enumerates every
//! device partition, every per-device order, and every *uniform* frequency
//! setting (one `(f, g)` pair for the whole run — exactly the enumeration
//! the paper's example performs), keeping the best and worst cap-compliant
//! schedules.

use crate::evaluate::evaluate;
use crate::model::{CoRunModel, JobId};
use crate::schedule::{Assignment, Schedule};
use apu_sim::Device;

/// Result of the exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    /// Best cap-compliant schedule and its makespan.
    pub best: (Schedule, f64),
    /// Worst cap-compliant schedule and its makespan.
    pub worst: (Schedule, f64),
    /// Number of schedules evaluated (including cap-violating ones).
    pub evaluated: usize,
    /// Number of schedules that satisfied the cap.
    pub feasible: usize,
}

/// Exhaustively enumerate schedules of up to `MAX_JOBS` jobs.
///
/// # Panics
/// Panics if the batch exceeds 8 jobs (the enumeration is factorial) or if
/// no schedule satisfies the cap.
pub fn exhaustive_uniform(model: &dyn CoRunModel, cap_w: f64) -> ExhaustiveResult {
    exhaustive_uniform_opts(model, cap_w, false)
}

/// Like [`exhaustive_uniform`], but optionally restricted to schedules that
/// actually use both processors (the space the paper's Section III example
/// enumerates: `C_4^2 * C_2^1 * 10 * 16` settings all place jobs on both).
pub fn exhaustive_uniform_opts(
    model: &dyn CoRunModel,
    cap_w: f64,
    require_both_devices: bool,
) -> ExhaustiveResult {
    const MAX_JOBS: usize = 8;
    let n = model.len();
    assert!(
        (1..=MAX_JOBS).contains(&n),
        "exhaustive search is for small batches"
    );
    let kc = model.levels(Device::Cpu);
    let kg = model.levels(Device::Gpu);
    let cap = cap_w.is_finite().then_some(cap_w);

    let mut best: Option<(Schedule, f64)> = None;
    let mut worst: Option<(Schedule, f64)> = None;
    let mut evaluated = 0usize;
    let mut feasible = 0usize;

    // Every subset of jobs on the CPU...
    for mask in 0..(1u32 << n) {
        let cpu_jobs: Vec<JobId> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let gpu_jobs: Vec<JobId> = (0..n).filter(|&i| mask & (1 << i) == 0).collect();
        if require_both_devices && (cpu_jobs.is_empty() || gpu_jobs.is_empty()) {
            continue;
        }
        // ...every order on each side...
        for cpu_perm in permutations(&cpu_jobs) {
            for gpu_perm in permutations(&gpu_jobs) {
                // ...every uniform frequency setting.
                for f in 0..kc {
                    for g in 0..kg {
                        let s = Schedule {
                            cpu: cpu_perm
                                .iter()
                                .map(|&job| Assignment { job, level: f })
                                .collect(),
                            gpu: gpu_perm
                                .iter()
                                .map(|&job| Assignment { job, level: g })
                                .collect(),
                            solo_tail: vec![],
                        };
                        let r = evaluate(model, &s, cap);
                        evaluated += 1;
                        if !r.cap_ok {
                            continue;
                        }
                        feasible += 1;
                        if best.as_ref().is_none_or(|(_, b)| r.makespan_s < *b) {
                            best = Some((s.clone(), r.makespan_s));
                        }
                        if worst.as_ref().is_none_or(|(_, w)| r.makespan_s > *w) {
                            worst = Some((s, r.makespan_s));
                        }
                    }
                }
            }
        }
    }

    ExhaustiveResult {
        best: best.expect("no cap-compliant schedule exists"),
        worst: worst.expect("no cap-compliant schedule exists"),
        evaluated,
        feasible,
    }
}

/// All permutations of a slice (iterative heap's algorithm, collected).
fn permutations(items: &[JobId]) -> Vec<Vec<JobId>> {
    let mut out = Vec::new();
    let mut a = items.to_vec();
    let n = a.len();
    if n == 0 {
        return vec![vec![]];
    }
    let mut c = vec![0usize; n];
    out.push(a.clone());
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            out.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;
    use crate::refine::{refine, RefineConfig};

    #[test]
    fn permutation_counts() {
        assert_eq!(permutations(&[]).len(), 1);
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
        assert_eq!(permutations(&[1, 2, 3, 4]).len(), 24);
    }

    #[test]
    fn best_not_worse_than_worst() {
        let m = synthetic(3, 3, 3);
        let r = exhaustive_uniform(&m, f64::INFINITY);
        assert!(r.best.1 <= r.worst.1);
        assert!(r.best.0.is_complete_for(3));
        assert!(r.worst.0.is_complete_for(3));
        assert_eq!(r.evaluated, r.feasible, "no cap, everything feasible");
    }

    #[test]
    fn hcs_close_to_exhaustive_optimum() {
        let m = synthetic(4, 3, 3);
        let cap = 16.0;
        let ex = exhaustive_uniform(&m, cap);
        let out = hcs(&m, &HcsConfig::with_cap(cap));
        let refined = refine(&m, &out.schedule, &RefineConfig::new(cap));
        let span = crate::evaluate::evaluate(&m, &refined.schedule, Some(cap)).makespan_s;
        // The heuristic can use per-job levels the uniform exhaustive
        // search cannot, so it may even beat it; it must never be more than
        // 30% worse.
        assert!(
            span <= ex.best.1 * 1.30,
            "hcs+ {span} vs exhaustive best {}",
            ex.best.1
        );
    }

    #[test]
    fn cap_reduces_feasible_count() {
        let m = synthetic(3, 3, 3);
        let loose = exhaustive_uniform(&m, f64::INFINITY);
        let tight = exhaustive_uniform(&m, 12.0);
        assert!(tight.feasible < loose.feasible);
        assert!(tight.feasible > 0);
        // With fewer (slower) feasible settings, the best cannot improve.
        assert!(tight.best.1 >= loose.best.1 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "small batches")]
    fn too_many_jobs_rejected() {
        let m = synthetic(9, 3, 3);
        let _ = exhaustive_uniform(&m, f64::INFINITY);
    }

    #[test]
    fn single_job() {
        let m = synthetic(1, 3, 3);
        let r = exhaustive_uniform(&m, f64::INFINITY);
        // best: job on its faster device at max level
        let t_best = r.best.1;
        let expect = m
            .standalone(0, Device::Cpu, 2)
            .min(m.standalone(0, Device::Gpu, 2));
        assert!((t_best - expect).abs() < 1e-9);
    }
}
