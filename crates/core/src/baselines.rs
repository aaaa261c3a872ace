//! The comparison schedulers of Section VI-A: Random co-scheduling and the
//! system's Default co-scheduling.
//!
//! Neither controls power by itself; at execution time a reactive
//! GPU-biased or CPU-biased governor (in `apu-sim`) trims frequencies when
//! the sampled power exceeds the cap.

use crate::model::{CoRunModel, JobId};
use crate::schedule::{Assignment, Schedule, SoloRun};
use apu_sim::Device;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random co-scheduling: jobs are placed on a random device in a random
/// order; occasionally a job is left to run alone ("it just leaves the idle
/// processor idle as some jobs prefer to be executed alone"). At most one
/// job occupies each device at a time. Frequency levels are left at the
/// maximum — the runtime governor handles the cap.
pub fn random_schedule(model: &dyn CoRunModel, seed: u64, solo_prob: f64) -> Schedule {
    let n = model.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<JobId> = (0..n).collect();
    order.shuffle(&mut rng);
    let kc = model.levels(Device::Cpu) - 1;
    let kg = model.levels(Device::Gpu) - 1;
    let mut s = Schedule::new();
    for job in order {
        let r: f64 = rng.gen();
        if r < solo_prob {
            let device = if rng.gen() { Device::Cpu } else { Device::Gpu };
            let level = match device {
                Device::Cpu => kc,
                Device::Gpu => kg,
            };
            s.solo_tail.push(SoloRun { job, device, level });
        } else if rng.gen() {
            s.cpu.push(Assignment { job, level: kc });
        } else {
            s.gpu.push(Assignment { job, level: kg });
        }
    }
    s
}

/// The Default scheduler's device partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefaultPartition {
    /// Jobs sent to the GPU, in rank order (most GPU-preferring first).
    pub gpu: Vec<JobId>,
    /// Jobs sent to the CPU, in rank order.
    pub cpu: Vec<JobId>,
}

/// Default co-scheduling (paper Section VI-A): rank programs by the ratio
/// of standalone CPU time to GPU time at the highest frequency; the top of
/// the ranking (most GPU-preferring) forms the GPU partition, the rest run
/// on the CPU; the split point minimizes the larger partition's total
/// standalone execution time.
pub fn default_partition(model: &dyn CoRunModel) -> DefaultPartition {
    let n = model.len();
    let kc = model.levels(Device::Cpu) - 1;
    let kg = model.levels(Device::Gpu) - 1;
    let mut ranked: Vec<JobId> = (0..n).collect();
    ranked.sort_by(|&a, &b| {
        let ra = model.standalone(a, Device::Cpu, kc) / model.standalone(a, Device::Gpu, kg);
        let rb = model.standalone(b, Device::Cpu, kc) / model.standalone(b, Device::Gpu, kg);
        rb.total_cmp(&ra) // descending: most GPU-preferring first
    });

    let mut best: Option<(usize, f64)> = None;
    for k in 0..=n {
        let gpu_sum: f64 = ranked[..k]
            .iter()
            .map(|&j| model.standalone(j, Device::Gpu, kg))
            .sum();
        let cpu_sum: f64 = ranked[k..]
            .iter()
            .map(|&j| model.standalone(j, Device::Cpu, kc))
            .sum();
        let longer = gpu_sum.max(cpu_sum);
        if best.is_none_or(|(_, b)| longer < b) {
            best = Some((k, longer));
        }
    }
    let (k, _) = best.expect("at least one split exists");
    DefaultPartition {
        gpu: ranked[..k].to_vec(),
        cpu: ranked[k..].to_vec(),
    }
}

impl DefaultPartition {
    /// Sequential-per-device schedule form (used for model-based
    /// evaluation; the runtime executor instead launches the whole CPU
    /// partition at once, as Linux would, which is what hurts the Default
    /// baseline in the paper's 16-job study).
    pub fn to_schedule(&self, model: &dyn CoRunModel) -> Schedule {
        let kc = model.levels(Device::Cpu) - 1;
        let kg = model.levels(Device::Gpu) - 1;
        Schedule {
            cpu: self
                .cpu
                .iter()
                .map(|&job| Assignment { job, level: kc })
                .collect(),
            gpu: self
                .gpu
                .iter()
                .map(|&job| Assignment { job, level: kg })
                .collect(),
            solo_tail: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::model::test_model::synthetic;
    use crate::model::TableModel;

    #[test]
    fn random_schedule_complete_and_deterministic() {
        let m = synthetic(10, 5, 4);
        let a = random_schedule(&m, 7, 0.1);
        let b = random_schedule(&m, 7, 0.1);
        let c = random_schedule(&m, 8, 0.1);
        assert!(a.is_complete_for(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_schedules_vary_in_quality() {
        let m = synthetic(10, 5, 4);
        let spans: Vec<f64> = (0..10)
            .map(|s| evaluate(&m, &random_schedule(&m, s, 0.1), None).makespan_s)
            .collect();
        let min = spans.iter().copied().fold(f64::INFINITY, f64::min);
        let max = spans.iter().copied().fold(0.0, f64::max);
        assert!(max > min * 1.05, "random spread expected: {min}..{max}");
    }

    #[test]
    fn random_uses_max_levels() {
        let m = synthetic(6, 5, 4);
        let s = random_schedule(&m, 3, 0.2);
        for a in &s.cpu {
            assert_eq!(a.level, 4);
        }
        for a in &s.gpu {
            assert_eq!(a.level, 3);
        }
    }

    #[test]
    fn default_partition_ranks_by_ratio() {
        // Job 0 strongly GPU-preferring, job 1 strongly CPU-preferring.
        let m = TableModel::build(
            vec!["g".into(), "c".into()],
            2,
            2,
            4.0,
            |i, d, _f| match (i, d) {
                (0, Device::Cpu) => 30.0,
                (0, Device::Gpu) => 10.0,
                (1, Device::Cpu) => 10.0,
                (1, Device::Gpu) => 30.0,
                _ => unreachable!(),
            },
            |_i, _d, _f, _j, _g| 0.1,
            |_i, _d, _f| 5.0,
        );
        let p = default_partition(&m);
        assert_eq!(p.gpu, vec![0]);
        assert_eq!(p.cpu, vec![1]);
    }

    #[test]
    fn default_partition_balances_longer_side() {
        let m = synthetic(8, 6, 5);
        let p = default_partition(&m);
        assert_eq!(p.gpu.len() + p.cpu.len(), 8);
        let kg = 4;
        let kc = 5;
        let gpu_sum: f64 = p
            .gpu
            .iter()
            .map(|&j| m.standalone(j, Device::Gpu, kg))
            .sum();
        let cpu_sum: f64 = p
            .cpu
            .iter()
            .map(|&j| m.standalone(j, Device::Cpu, kc))
            .sum();
        // moving the boundary job either way must not shrink the longer side
        let longer = gpu_sum.max(cpu_sum);
        for k in 0..=8usize {
            let p2 = DefaultPartition {
                gpu: p.gpu.iter().chain(p.cpu.iter()).copied().take(k).collect(),
                cpu: p.gpu.iter().chain(p.cpu.iter()).copied().skip(k).collect(),
            };
            let g2: f64 = p2
                .gpu
                .iter()
                .map(|&j| m.standalone(j, Device::Gpu, kg))
                .sum();
            let c2: f64 = p2
                .cpu
                .iter()
                .map(|&j| m.standalone(j, Device::Cpu, kc))
                .sum();
            assert!(longer <= g2.max(c2) + 1e-9, "split {k} would be better");
        }
    }

    #[test]
    fn default_schedule_form_is_complete() {
        let m = synthetic(7, 5, 4);
        let p = default_partition(&m);
        let s = p.to_schedule(&m);
        assert!(s.is_complete_for(7));
        assert!(s.solo_tail.is_empty());
    }

    #[test]
    fn zero_solo_probability_never_solos() {
        let m = synthetic(12, 5, 4);
        let s = random_schedule(&m, 11, 0.0);
        assert!(s.solo_tail.is_empty());
    }
}
