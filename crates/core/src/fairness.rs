//! Fairness metrics over evaluated schedules.
//!
//! The paper optimizes throughput; much of the related work it cites
//! (Baymax, SMiTe, ...) instead polices *fairness* — no job should pay an
//! outsized price for sharing. These metrics quantify that trade-off for
//! any schedule: per-job slowdown relative to its best standalone run, and
//! the usual aggregate indices.

use crate::evaluate::EvalReport;
use crate::freqgrid::best_solo_run;
use crate::model::CoRunModel;
use apu_sim::Device;

/// Fairness view of one evaluated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Per-job slowdown: finish time divided by the job's best cap-feasible
    /// standalone time (>= 1 even for the luckiest job, since waiting
    /// counts). `None` if the job never ran.
    pub slowdown: Vec<Option<f64>>,
    /// Largest slowdown.
    pub max_slowdown: f64,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Jain's fairness index over job *rates* (1 / slowdown): 1.0 is
    /// perfectly fair, 1/n is maximally unfair.
    pub jain_index: f64,
}

/// Compute fairness metrics. `finish_s` comes from the evaluator (the
/// per-job completion time includes queueing, which is the user-visible
/// delay in a batch system).
pub fn fairness(model: &dyn CoRunModel, report: &EvalReport, cap_w: f64) -> FairnessReport {
    let n = model.len();
    let mut slowdown: Vec<Option<f64>> = vec![None; n];
    for (i, slot) in slowdown.iter_mut().enumerate() {
        let Some(finish) = report.finish_s.get(i).copied().flatten() else {
            continue;
        };
        let best = Device::ALL
            .iter()
            .filter_map(|&d| best_solo_run(model, i, d, cap_w).map(|(_, t)| t))
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() && best > 0.0 {
            *slot = Some(finish / best);
        }
    }
    let vals: Vec<f64> = slowdown.iter().flatten().copied().collect();
    let max = vals.iter().copied().fold(0.0, f64::max);
    let mean = if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    // Jain over rates x_i = 1/slowdown_i.
    let jain = if vals.is_empty() {
        1.0
    } else {
        let rates: Vec<f64> = vals.iter().map(|&s| 1.0 / s).collect();
        let sum: f64 = rates.iter().sum();
        let sumsq: f64 = rates.iter().map(|r| r * r).sum();
        (sum * sum) / (rates.len() as f64 * sumsq)
    };
    FairnessReport {
        slowdown,
        max_slowdown: max,
        mean_slowdown: mean,
        jain_index: jain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;
    use crate::schedule::{Assignment, Schedule};

    #[test]
    fn hcs_schedule_fairness_is_sane() {
        let m = synthetic(8, 5, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        let r = evaluate(&m, &out.schedule, None);
        let f = fairness(&m, &r, f64::INFINITY);
        assert!(f.slowdown.iter().all(std::option::Option::is_some));
        // every job's completion includes queueing, so slowdown >= ~1
        assert!(f.slowdown.iter().flatten().all(|&s| s >= 0.99));
        assert!(f.max_slowdown >= f.mean_slowdown);
        assert!(f.jain_index > 0.0 && f.jain_index <= 1.0 + 1e-12);
    }

    #[test]
    fn single_job_is_perfectly_fair() {
        let m = synthetic(1, 4, 4);
        let mut s = Schedule::new();
        s.gpu.push(Assignment { job: 0, level: 3 });
        let r = evaluate(&m, &s, None);
        let f = fairness(&m, &r, f64::INFINITY);
        assert!((f.jain_index - 1.0).abs() < 1e-9);
        // If the GPU at max level is the job's best device, slowdown == 1.
        let best = m
            .standalone(0, Device::Cpu, 3)
            .min(m.standalone(0, Device::Gpu, 3));
        let expect = r.finish_s[0].unwrap() / best;
        assert!((f.slowdown[0].unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn serializing_everything_is_maximally_unfair_to_the_last_job() {
        let m = synthetic(6, 4, 4);
        let mut s = Schedule::new();
        for i in 0..6 {
            s.gpu.push(Assignment { job: i, level: 3 });
        }
        let r = evaluate(&m, &s, None);
        let f = fairness(&m, &r, f64::INFINITY);
        // The last job waits for all the others: slowdown far above 1.
        assert!(f.max_slowdown > 3.0, "got {}", f.max_slowdown);
        assert!(
            f.jain_index < 0.9,
            "serialization is unfair: {}",
            f.jain_index
        );
    }

    #[test]
    fn unscheduled_jobs_have_no_slowdown() {
        let m = synthetic(3, 4, 4);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 3 });
        let r = evaluate(&m, &s, None);
        let f = fairness(&m, &r, f64::INFINITY);
        assert!(f.slowdown[0].is_some());
        assert!(f.slowdown[1].is_none());
        assert!(f.slowdown[2].is_none());
    }
}
