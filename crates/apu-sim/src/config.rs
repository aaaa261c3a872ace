//! Machine configurations, including the calibrated Ivy Bridge preset.

use crate::device::{Device, DeviceParams, PerDevice};
use crate::freq::{FreqTable, PackageFreqs};
use crate::memory::MemoryParams;
use crate::power::PackagePowerParams;

/// CPU multiprogramming parameters (only exercised by baselines that let the
/// OS time-share the CPU among several jobs, like the paper's Default
/// scheduler in the 16-job study).
#[derive(Debug, Clone)]
pub struct MultiprogParams {
    /// Per-extra-job context-switch efficiency loss: with `k` jobs sharing
    /// the CPU each advances at `(1/k) / (1 + cs_overhead * (k - 1))` of its
    /// dedicated rate.
    pub cs_overhead: f64,
    /// Per-extra-job locality penalty: each job's DRAM traffic is multiplied
    /// by `1 + locality_penalty * (k - 1)` (cold caches after every slice,
    /// more page-level misses).
    pub locality_penalty: f64,
    /// Maximum simultaneously resident CPU jobs the engine will accept.
    pub max_cpu_slots: usize,
}

/// The complete static description of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// DVFS ladders for both devices.
    pub freqs: PackageFreqs,
    /// CPU execution/power parameters.
    pub cpu: DeviceParams,
    /// GPU execution/power parameters.
    pub gpu: DeviceParams,
    /// Shared memory subsystem.
    pub memory: MemoryParams,
    /// Package-level power parameters.
    pub package: PackagePowerParams,
    /// CPU time-sharing behaviour.
    pub multiprog: MultiprogParams,
    /// Simulation tick, seconds.
    pub tick_s: f64,
    /// Power-sampling interval, seconds (the paper samples at 1 Hz; the
    /// governor reacts at this granularity, which is what lets transient
    /// overshoots above the cap survive for under one interval).
    pub power_sample_s: f64,
}

impl MachineConfig {
    /// The calibrated model of the paper's platform: an Intel i7-3520M with
    /// integrated HD Graphics 4000.
    ///
    /// * CPU: 16 DVFS levels, 1.2-3.6 GHz; GPU: 10 levels, 0.35-1.25 GHz.
    /// * Shared 4 MiB LLC and a DRAM subsystem where a single device can
    ///   draw up to ~11 GB/s (the range the paper's micro-benchmark sweeps).
    /// * Full-speed package power exceeds the paper's 15/16 W caps, so
    ///   capped runs must lower frequencies.
    pub fn ivy_bridge() -> Self {
        MachineConfig {
            freqs: PackageFreqs {
                cpu: FreqTable::linear(1.2, 3.6, 16),
                gpu: FreqTable::linear(0.35, 1.25, 10),
            },
            cpu: DeviceParams {
                gflops_per_ghz: 25.0,
                bw_peak_gbps: 11.0,
                bw_freq_floor: 0.6,
                idle_power_w: 1.7,
                dyn_power_w: 9.5,
                dyn_power_exp: 2.4,
                mem_power_w_per_gbps: 0.12,
                stall_power_frac: 0.55,
            },
            gpu: DeviceParams {
                gflops_per_ghz: 200.0,
                bw_peak_gbps: 11.0,
                bw_freq_floor: 0.7,
                idle_power_w: 1.1,
                dyn_power_w: 5.0,
                dyn_power_exp: 2.2,
                mem_power_w_per_gbps: 0.10,
                stall_power_frac: 0.50,
            },
            memory: MemoryParams {
                kind: Default::default(),
                total_bw_gbps: 14.3,
                pressure_ref_gbps: 11.0,
                inflation_coeff: PerDevice::new(0.32, 0.45),
                inflation_exp: PerDevice::new(2.1, 0.9),
                arb_weight: PerDevice::new(0.785, 1.0),
                llc_mib: 4.0,
            },
            package: PackagePowerParams { uncore_w: 2.2 },
            multiprog: MultiprogParams {
                cs_overhead: 0.35,
                locality_penalty: 0.22,
                max_cpu_slots: 32,
            },
            tick_s: 0.01,
            power_sample_s: 0.25,
        }
    }

    /// A second calibration point: an AMD Kaveri-class mobile APU (the
    /// paper reports the same co-run phenomena "on both Intel and AMD").
    ///
    /// Relative to [`MachineConfig::ivy_bridge`]: a weaker CPU complex
    /// (lower IPC, 1.9-3.4 GHz over 8 P-states), a wider integrated GPU
    /// (more CUs, 0.35-0.72 GHz over 8 levels), a larger share of package
    /// power in the GPU, and slightly lower DRAM bandwidth headroom — so
    /// GPU placement matters even more and the cap squeezes the CPU first.
    pub fn kaveri() -> Self {
        MachineConfig {
            freqs: PackageFreqs {
                cpu: FreqTable::linear(1.9, 3.4, 8),
                gpu: FreqTable::linear(0.35, 0.72, 8),
            },
            cpu: DeviceParams {
                gflops_per_ghz: 18.0,
                bw_peak_gbps: 10.0,
                bw_freq_floor: 0.62,
                idle_power_w: 1.9,
                dyn_power_w: 10.0,
                dyn_power_exp: 2.5,
                mem_power_w_per_gbps: 0.13,
                stall_power_frac: 0.55,
            },
            gpu: DeviceParams {
                gflops_per_ghz: 420.0,
                bw_peak_gbps: 10.5,
                bw_freq_floor: 0.72,
                idle_power_w: 1.4,
                dyn_power_w: 7.5,
                dyn_power_exp: 2.1,
                mem_power_w_per_gbps: 0.11,
                stall_power_frac: 0.50,
            },
            memory: MemoryParams {
                kind: Default::default(),
                total_bw_gbps: 13.2,
                pressure_ref_gbps: 10.5,
                inflation_coeff: PerDevice::new(0.34, 0.48),
                inflation_exp: PerDevice::new(2.1, 0.9),
                arb_weight: PerDevice::new(0.76, 1.0),
                llc_mib: 4.0,
            },
            package: PackagePowerParams { uncore_w: 2.4 },
            multiprog: MultiprogParams {
                cs_overhead: 0.35,
                locality_penalty: 0.22,
                max_cpu_slots: 32,
            },
            tick_s: 0.01,
            power_sample_s: 0.25,
        }
    }

    /// Device parameters for `device`.
    #[inline]
    pub fn device(&self, device: Device) -> &DeviceParams {
        match device {
            Device::Cpu => &self.cpu,
            Device::Gpu => &self.gpu,
        }
    }

    /// Maximum frequency (GHz) of `device`.
    #[inline]
    pub fn f_max(&self, device: Device) -> f64 {
        self.freqs.table(device).max_ghz()
    }

    /// A borrowed power model over this configuration.
    pub fn power_model(&self) -> crate::power::PowerModel<'_> {
        crate::power::PowerModel {
            freqs: &self.freqs,
            cpu: &self.cpu,
            gpu: &self.gpu,
            pkg: &self.package,
        }
    }

    /// Time-sharing rate factor for one of `k` jobs on the CPU.
    pub fn multiprog_rate(&self, k: usize) -> f64 {
        if k <= 1 {
            return 1.0;
        }
        let k_f = k as f64;
        (1.0 / k_f) / (1.0 + self.multiprog.cs_overhead * (k_f - 1.0))
    }

    /// Traffic multiplier for one of `k` jobs sharing the CPU.
    pub fn multiprog_traffic(&self, k: usize) -> f64 {
        if k <= 1 {
            return 1.0;
        }
        1.0 + self.multiprog.locality_penalty * (k as f64 - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivy_bridge_frequency_ladders() {
        let m = MachineConfig::ivy_bridge();
        assert_eq!(m.freqs.cpu.len(), 16);
        assert_eq!(m.freqs.gpu.len(), 10);
        assert!((m.f_max(Device::Cpu) - 3.6).abs() < 1e-12);
        assert!((m.f_max(Device::Gpu) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn full_speed_power_exceeds_paper_caps() {
        let m = MachineConfig::ivy_bridge();
        let p = m.power_model().package_power_busy(m.freqs.max_setting());
        assert!(
            p > 16.0,
            "uncapped package power {p} must exceed the 16 W cap"
        );
        assert!(p < 30.0, "package power {p} should stay laptop-scale");
    }

    #[test]
    fn some_settings_fit_under_cap() {
        let m = MachineConfig::ivy_bridge();
        let pm = m.power_model();
        let feasible = m
            .freqs
            .all_settings()
            .filter(|&s| pm.package_power_busy(s) <= 15.0)
            .count();
        assert!(
            feasible > 20,
            "need a meaningful feasible region, got {feasible}"
        );
        assert!(
            feasible < m.freqs.setting_count(),
            "the cap must actually constrain the grid"
        );
    }

    #[test]
    fn kaveri_is_a_distinct_valid_machine() {
        let m = MachineConfig::kaveri();
        assert_eq!(m.freqs.cpu.len(), 8);
        assert_eq!(m.freqs.gpu.len(), 8);
        let busy = m.power_model().package_power_busy(m.freqs.max_setting());
        assert!(busy > 16.0 && busy < 30.0, "kaveri busy power {busy}");
        // Wider GPU: peak GPU compute exceeds Ivy Bridge's.
        let ivy = MachineConfig::ivy_bridge();
        assert!(
            m.gpu.compute_rate(m.f_max(Device::Gpu)) > ivy.gpu.compute_rate(ivy.f_max(Device::Gpu))
        );
        // Weaker CPU.
        assert!(
            m.cpu.compute_rate(m.f_max(Device::Cpu)) < ivy.cpu.compute_rate(ivy.f_max(Device::Cpu))
        );
    }

    #[test]
    fn multiprog_rates() {
        let m = MachineConfig::ivy_bridge();
        assert_eq!(m.multiprog_rate(1), 1.0);
        let r2 = m.multiprog_rate(2);
        let r4 = m.multiprog_rate(4);
        assert!(
            r2 < 0.5 && r2 > 0.3,
            "2-way sharing pays context-switch cost"
        );
        assert!(r4 < 0.25, "4-way sharing is worse than fair split");
        // The OS-style time sharing the paper blames for Default's collapse
        // at 16 jobs: with ~6 resident jobs each gets well under half its
        // fair share.
        assert!(m.multiprog_rate(6) < 1.0 / 6.0 / 2.0);
        assert!(m.multiprog_traffic(4) > m.multiprog_traffic(2));
        assert_eq!(m.multiprog_traffic(1), 1.0);
    }
}
