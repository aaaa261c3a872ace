//! Parameterized synthetic program generation beyond the calibrated
//! Rodinia suite — for stress tests, fuzzing, and exploring workload
//! spaces the paper's eight programs do not cover.

use apu_sim::{JobSpec, MachineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ranges a generated program's character is drawn from.
#[derive(Debug, Clone)]
pub struct SyntheticSpace {
    /// Target standalone time on the preferred device at max frequency,
    /// seconds.
    pub time_s: (f64, f64),
    /// Memory-time share of the total (0 = pure compute, ~0.85 = streaming).
    pub mem_share: (f64, f64),
    /// Ratio of the slower device's time to the faster one's.
    pub device_skew: (f64, f64),
    /// Probability the program prefers the CPU.
    pub cpu_pref_prob: f64,
    /// Probability the program is LLC-fragile (dwt2d-like).
    pub llc_fragile_prob: f64,
    /// Phase count range.
    pub phases: (usize, usize),
}

impl Default for SyntheticSpace {
    fn default() -> Self {
        SyntheticSpace {
            time_s: (8.0, 70.0),
            mem_share: (0.05, 0.8),
            device_skew: (1.1, 2.8),
            cpu_pref_prob: 0.2,
            llc_fragile_prob: 0.15,
            phases: (2, 4),
        }
    }
}

/// Generate one synthetic program.
pub fn synthetic_program(cfg: &MachineConfig, space: &SyntheticSpace, seed: u64) -> JobSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let t_fast = rng.gen_range(space.time_s.0..space.time_s.1);
    let skew = rng.gen_range(space.device_skew.0..space.device_skew.1);
    let cpu_pref = rng.gen_bool(space.cpu_pref_prob);
    let (t_cpu, t_gpu) = if cpu_pref {
        (t_fast, t_fast * skew)
    } else {
        (t_fast * skew, t_fast)
    };
    let mem_share = rng.gen_range(space.mem_share.0..space.mem_share.1);
    let fragile = rng.gen_bool(space.llc_fragile_prob);
    let n_phases = rng.gen_range(space.phases.0..=space.phases.1);

    // Memory seconds at peak bandwidth: bounded so per-phase memory floors
    // stay below both device time budgets (calibratability).
    let tm = (mem_share * t_fast).min(0.8 * t_cpu.min(t_gpu));

    // Random-ish but normalized per-phase splits.
    let mut tc_f: Vec<f64> = (0..n_phases).map(|_| rng.gen_range(0.5..1.5)).collect();
    let mut tm_f: Vec<f64> = (0..n_phases)
        .map(|i| 0.6 * tc_f[i] + rng.gen_range(0.2..0.8))
        .collect();
    let sc: f64 = tc_f.iter().sum();
    let sm: f64 = tm_f.iter().sum();
    tc_f.iter_mut().for_each(|v| *v /= sc);
    tm_f.iter_mut().for_each(|v| *v /= sm);

    let demand_proxy = tm * 11.0 / t_fast;
    let def = crate::rodinia::ProgramDef {
        name: "synthetic",
        t_cpu_s: t_cpu,
        t_gpu_s: t_gpu,
        tm_s: tm,
        splits: tc_f.into_iter().zip(tm_f).collect(),
        llc: if fragile {
            crate::rodinia::LlcProfile {
                footprint_mib: rng.gen_range(2.0..4.0),
                sensitivity: rng.gen_range(6.0..14.0),
                pressure: 0.15,
                miss_bw_gbps: 4.0,
            }
        } else {
            crate::rodinia::LlcProfile {
                footprint_mib: rng.gen_range(6.0..96.0),
                sensitivity: rng.gen_range(0.0..1.2),
                pressure: (0.95 * demand_proxy / 11.0).clamp(0.05, 0.9),
                miss_bw_gbps: 5.0,
            }
        },
        jitter: (
            rng.gen_range(0.03..0.18),
            rng.gen_range(6.0..25.0),
            rng.gen_range(0.0..std::f64::consts::TAU),
        ),
        host_setup_s: rng.gen_range(0.1..0.5),
    };
    let mut job = crate::rodinia::build_program(cfg, &def);
    job.name = format!("syn{seed:04}");
    job
}

/// A batch of `n` synthetic programs.
pub fn synthetic_batch(
    cfg: &MachineConfig,
    space: &SyntheticSpace,
    n: usize,
    seed: u64,
) -> Vec<JobSpec> {
    (0..n)
        .map(|k| synthetic_program(cfg, space, seed.wrapping_mul(1000).wrapping_add(k as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::Device;

    #[test]
    fn generated_program_is_calibrated() {
        let cfg = MachineConfig::ivy_bridge();
        let space = SyntheticSpace::default();
        for seed in 0..20 {
            let job = synthetic_program(&cfg, &space, seed);
            let t_cpu = job.solo_time(&cfg.cpu, Device::Cpu, 3.6, 3.6);
            let t_gpu = job.solo_time(&cfg.gpu, Device::Gpu, 1.25, 1.25);
            assert!(t_cpu > 5.0 && t_cpu < 250.0, "seed {seed}: cpu {t_cpu}");
            assert!(t_gpu > 5.0 && t_gpu < 250.0, "seed {seed}: gpu {t_gpu}");
            for p in &job.phases {
                assert!(p.cpu_eff > 0.0 && p.cpu_eff <= 1.0);
                assert!(p.gpu_eff > 0.0 && p.gpu_eff <= 1.0);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = MachineConfig::ivy_bridge();
        let space = SyntheticSpace::default();
        let a = synthetic_program(&cfg, &space, 7);
        let b = synthetic_program(&cfg, &space, 7);
        let c = synthetic_program(&cfg, &space, 8);
        assert_eq!(a, b);
        assert_ne!(a.total_flops(), c.total_flops());
    }

    #[test]
    fn batch_sizes_and_names() {
        let cfg = MachineConfig::ivy_bridge();
        let jobs = synthetic_batch(&cfg, &SyntheticSpace::default(), 6, 99);
        assert_eq!(jobs.len(), 6);
        let names: std::collections::HashSet<_> = jobs.iter().map(|j| &j.name).collect();
        assert_eq!(names.len(), 6, "names must be unique");
    }

    #[test]
    fn space_produces_some_cpu_preferred_jobs() {
        let cfg = MachineConfig::ivy_bridge();
        let space = SyntheticSpace {
            cpu_pref_prob: 1.0,
            ..Default::default()
        };
        let job = synthetic_program(&cfg, &space, 3);
        let t_cpu = job.solo_time(&cfg.cpu, Device::Cpu, 3.6, 3.6);
        let t_gpu = job.solo_time(&cfg.gpu, Device::Gpu, 1.25, 1.25);
        assert!(
            t_cpu < t_gpu,
            "cpu_pref_prob=1 must yield CPU-preferred jobs"
        );
    }

    #[test]
    fn works_on_the_kaveri_preset_too() {
        let cfg = MachineConfig::kaveri();
        let job = synthetic_program(&cfg, &SyntheticSpace::default(), 11);
        let t = job.solo_time(
            &cfg.gpu,
            Device::Gpu,
            cfg.f_max(Device::Gpu),
            cfg.f_max(Device::Gpu),
        );
        assert!(t > 1.0);
    }
}
