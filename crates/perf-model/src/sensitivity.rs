//! Frequency-sensitivity analysis from standalone profiles.
//!
//! Memory-bound code barely speeds up with higher clocks, compute-bound
//! code scales almost linearly; under a power cap this distinction decides
//! where the watts should go. These metrics are derived purely from the
//! standalone profiles the runtime already collects, and are the
//! model-level counterpart of the engine's roofline behaviour.

use crate::profile::JobProfile;
use apu_sim::{Device, MachineConfig, PerDevice};

/// Frequency sensitivity of one job on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// Measured speedup from the lowest to the highest level
    /// (`t_floor / t_max`).
    pub speedup_full_range: f64,
    /// The speedup a perfectly compute-bound job would get (`f_max / f_min`).
    pub ideal_speedup: f64,
    /// Normalized frequency sensitivity in `[0, 1]`:
    /// 0 = fully memory-bound (no speedup), 1 = fully compute-bound.
    pub index: f64,
}

/// Compute frequency sensitivity of a job on `device`.
pub fn sensitivity(cfg: &MachineConfig, profile: &JobProfile, device: Device) -> Sensitivity {
    let table = cfg.freqs.table(device);
    let k = table.len();
    let t_floor = profile.time(device, 0);
    let t_max = profile.time(device, k - 1);
    let speedup = if t_max > 0.0 { t_floor / t_max } else { 1.0 };
    let ideal = table.max_ghz() / table.min_ghz();
    let index = if ideal > 1.0 {
        ((speedup - 1.0) / (ideal - 1.0)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    Sensitivity {
        speedup_full_range: speedup,
        ideal_speedup: ideal,
        index,
    }
}

/// Sensitivity on both devices.
pub fn sensitivity_both(cfg: &MachineConfig, profile: &JobProfile) -> PerDevice<Sensitivity> {
    PerDevice::from_fn(|d| sensitivity(cfg, profile, d))
}

/// Given a fixed power budget to distribute between the two devices'
/// clocks, which device benefits more from the next watt? A simple
/// comparator over sensitivity indices, used as a tie-breaking heuristic
/// and in reports.
pub fn prefers_watts(cpu_sens: Sensitivity, gpu_sens: Sensitivity) -> Device {
    if cpu_sens.index >= gpu_sens.index {
        Device::Cpu
    } else {
        Device::Gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_job, ProfileMethod};

    #[test]
    fn compute_bound_jobs_are_more_sensitive_than_memory_bound() {
        let cfg = MachineConfig::ivy_bridge();
        let leu = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "leukocyte").unwrap(),
            ProfileMethod::Analytic,
        );
        let sc = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "streamcluster").unwrap(),
            ProfileMethod::Analytic,
        );
        let s_leu = sensitivity(&cfg, &leu, Device::Gpu);
        let s_sc = sensitivity(&cfg, &sc, Device::Gpu);
        assert!(
            s_leu.index > s_sc.index,
            "leukocyte {} vs streamcluster {}",
            s_leu.index,
            s_sc.index
        );
        assert!(s_leu.index > 0.5, "compute-heavy job scales with clock");
        assert!((0.0..=1.0).contains(&s_sc.index));
    }

    #[test]
    fn ideal_speedup_matches_ladder() {
        let cfg = MachineConfig::ivy_bridge();
        let p = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "lud").unwrap(),
            ProfileMethod::Analytic,
        );
        let s = sensitivity(&cfg, &p, Device::Cpu);
        assert!((s.ideal_speedup - 3.0).abs() < 1e-9, "3.6 / 1.2 GHz");
        assert!(s.speedup_full_range > 1.0);
        assert!(s.speedup_full_range <= s.ideal_speedup + 1e-9);
    }

    #[test]
    fn both_devices_reported() {
        let cfg = MachineConfig::ivy_bridge();
        let p = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "dwt2d").unwrap(),
            ProfileMethod::Analytic,
        );
        let both = sensitivity_both(&cfg, &p);
        assert!(both.cpu.index > 0.0);
        assert!(both.gpu.index > 0.0);
    }

    #[test]
    fn watt_preference_comparator() {
        let hi = Sensitivity {
            speedup_full_range: 2.8,
            ideal_speedup: 3.0,
            index: 0.9,
        };
        let lo = Sensitivity {
            speedup_full_range: 1.2,
            ideal_speedup: 3.0,
            index: 0.1,
        };
        assert_eq!(prefers_watts(hi, lo), Device::Cpu);
        assert_eq!(prefers_watts(lo, hi), Device::Gpu);
    }
}
