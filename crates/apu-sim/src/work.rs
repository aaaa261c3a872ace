//! Abstract workload description consumed by the simulator.
//!
//! A job is a sequence of *phases*; each phase is characterized by its total
//! compute work, its total DRAM traffic, per-device efficiency factors (how
//! much of a device's peak throughput the kernel's control flow and
//! parallelism can exploit — GPU-hostile kernels like dwt2d have low GPU
//! efficiency), and its LLC behaviour. This mirrors what the paper's OpenCL
//! jobs look like to the memory system, without executing real kernels.

use crate::device::Device;
use crate::device::DeviceParams;

/// One execution phase of a job (roughly: one OpenCL kernel invocation
/// region with a stable compute/memory mix).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseWork {
    /// Total useful compute in GFLOP.
    pub flops: f64,
    /// Total DRAM traffic in GB when the working set streams (no LLC help
    /// beyond what's already accounted) and no co-runner thrashes the LLC.
    pub bytes: f64,
    /// Fraction of CPU peak compute throughput this phase achieves.
    pub cpu_eff: f64,
    /// Fraction of GPU peak compute throughput this phase achieves.
    pub gpu_eff: f64,
    /// Working-set size in MiB (drives LLC residency).
    pub llc_footprint_mib: f64,
    /// How strongly LLC eviction inflates this phase's DRAM traffic
    /// (multiplier coefficient; 0 = insensitive).
    pub llc_sensitivity: f64,
    /// How aggressively this phase evicts the co-runner's LLC lines, `[0,1]`.
    pub llc_pressure: f64,
    /// Effective bandwidth (GB/s) at which *thrash-induced* extra traffic
    /// streams. Misses caused by LLC eviction are dependent-latency-bound
    /// rather than streaming, so they move far slower than the device's
    /// peak bandwidth and exert little pressure on the co-runner.
    /// `0.0` means "use the device's full bandwidth".
    pub llc_miss_bw_gbps: f64,
    /// Compute/memory overlap coefficient `ov`: phase time is
    /// `max(Tc, Tm) + ov * min(Tc, Tm)` (0 = perfect overlap, 1 = serial).
    pub overlap: f64,
}

impl PhaseWork {
    /// Compute efficiency on `device`.
    #[inline]
    pub fn efficiency(&self, device: Device) -> f64 {
        match device {
            Device::Cpu => self.cpu_eff,
            Device::Gpu => self.gpu_eff,
        }
    }

    /// Compute time of this phase on `device` at `f_ghz` (seconds).
    pub fn compute_time(&self, dev: &DeviceParams, device: Device, f_ghz: f64) -> f64 {
        let rate = dev.compute_rate(f_ghz) * self.efficiency(device);
        if self.flops <= 0.0 {
            0.0
        } else {
            self.flops / rate
        }
    }

    /// Phase time given a compute time and a memory time, using the overlap
    /// model `max + ov * min`.
    #[inline]
    pub fn combine(&self, tc: f64, tm: f64) -> f64 {
        tc.max(tm) + self.overlap * tc.min(tm)
    }

    /// Solo (uncontended) phase time on `device` at `f_ghz`.
    pub fn solo_time(&self, dev: &DeviceParams, device: Device, f_ghz: f64, f_max: f64) -> f64 {
        let tc = self.compute_time(dev, device, f_ghz);
        let bw = dev.solo_bandwidth(f_ghz, f_max);
        let tm = if self.bytes <= 0.0 {
            0.0
        } else {
            self.bytes / bw
        };
        self.combine(tc, tm)
    }

    /// Steady-state solo DRAM demand of this phase on `device` at `f_ghz`
    /// (GB/s): traffic divided by phase time.
    pub fn solo_demand(&self, dev: &DeviceParams, device: Device, f_ghz: f64, f_max: f64) -> f64 {
        let t = self.solo_time(dev, device, f_ghz, f_max);
        if t <= 0.0 {
            0.0
        } else {
            self.bytes / t
        }
    }

    /// Whether this phase performs any work at all.
    pub fn is_trivial(&self) -> bool {
        self.flops <= 0.0 && self.bytes <= 0.0
    }
}

/// A complete job: named sequence of phases plus low-level texture
/// (demand jitter) that makes ground-truth runs richer than what the
/// steady-state predictive model sees.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (e.g. the Rodinia benchmark name).
    pub name: String,
    /// Execution phases, run in order.
    pub phases: Vec<PhaseWork>,
    /// Serial host-side setup time in seconds (context creation, transfers);
    /// runs before the first phase at negligible device activity.
    pub host_setup_s: f64,
    /// Relative amplitude of the sinusoidal memory-demand modulation.
    pub jitter_amp: f64,
    /// Period of the modulation, seconds.
    pub jitter_period_s: f64,
    /// Phase offset of the modulation, radians.
    pub jitter_phase: f64,
}

impl JobSpec {
    /// A job with no jitter and no host setup.
    pub fn plain(name: impl Into<String>, phases: Vec<PhaseWork>) -> Self {
        JobSpec {
            name: name.into(),
            phases,
            host_setup_s: 0.0,
            jitter_amp: 0.0,
            jitter_period_s: 1.0,
            jitter_phase: 0.0,
        }
    }

    /// Instantaneous jitter multiplier on memory traffic at time `t`.
    #[inline]
    pub fn jitter(&self, t: f64) -> f64 {
        if self.jitter_amp == 0.0 {
            return 1.0;
        }
        let w = 2.0 * std::f64::consts::PI / self.jitter_period_s;
        (1.0 + self.jitter_amp * (w * t + self.jitter_phase).sin()).max(0.05)
    }

    /// Solo (uncontended, steady-state) run time on `device` at `f_ghz`.
    pub fn solo_time(&self, dev: &DeviceParams, device: Device, f_ghz: f64, f_max: f64) -> f64 {
        self.host_setup_s
            + self
                .phases
                .iter()
                .map(|p| p.solo_time(dev, device, f_ghz, f_max))
                .sum::<f64>()
    }

    /// Traffic-weighted average solo DRAM demand on `device` at `f_ghz`
    /// (GB/s) — the job's coordinate in the co-run degradation space.
    pub fn avg_demand(&self, dev: &DeviceParams, device: Device, f_ghz: f64, f_max: f64) -> f64 {
        let t = self.solo_time(dev, device, f_ghz, f_max);
        if t <= 0.0 {
            return 0.0;
        }
        let bytes: f64 = self.phases.iter().map(|p| p.bytes).sum();
        bytes / t
    }

    /// Total DRAM traffic in GB.
    pub fn total_bytes(&self) -> f64 {
        self.phases.iter().map(|p| p.bytes).sum()
    }

    /// Total compute in GFLOP.
    pub fn total_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.flops).sum()
    }

    /// Maximum LLC pressure any phase exerts (used by coarse pair analyses).
    pub fn max_llc_pressure(&self) -> f64 {
        self.phases
            .iter()
            .map(|p| p.llc_pressure)
            .fold(0.0, f64::max)
    }
}

/// Convenience builder for a single-phase job, used widely in tests and by
/// the micro-benchmark.
pub fn single_phase_job(name: impl Into<String>, phase: PhaseWork) -> JobSpec {
    JobSpec::plain(name, vec![phase])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceParams {
        DeviceParams {
            gflops_per_ghz: 25.0,
            bw_peak_gbps: 11.0,
            bw_freq_floor: 0.6,
            idle_power_w: 1.5,
            dyn_power_w: 10.0,
            dyn_power_exp: 2.4,
            mem_power_w_per_gbps: 0.1,
            stall_power_frac: 0.4,
        }
    }

    fn phase(flops: f64, bytes: f64) -> PhaseWork {
        PhaseWork {
            flops,
            bytes,
            cpu_eff: 1.0,
            gpu_eff: 0.5,
            llc_footprint_mib: 64.0,
            llc_sensitivity: 0.0,
            llc_pressure: 0.5,
            llc_miss_bw_gbps: 0.0,
            overlap: 0.2,
        }
    }

    #[test]
    fn compute_bound_phase_time() {
        let p = phase(900.0, 0.0); // 900 GFLOP, no memory
        let t = p.solo_time(&dev(), Device::Cpu, 3.6, 3.6);
        // 900 / (25*3.6) = 10 s
        assert!((t - 10.0).abs() < 1e-9);
        assert_eq!(p.solo_demand(&dev(), Device::Cpu, 3.6, 3.6), 0.0);
    }

    #[test]
    fn memory_bound_phase_time() {
        let p = phase(0.0, 110.0); // 110 GB
        let t = p.solo_time(&dev(), Device::Cpu, 3.6, 3.6);
        assert!((t - 10.0).abs() < 1e-9); // 110 / 11
        let d = p.solo_demand(&dev(), Device::Cpu, 3.6, 3.6);
        assert!((d - 11.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_model_mixed_phase() {
        let p = phase(900.0, 55.0); // Tc = 10, Tm = 5
        let t = p.solo_time(&dev(), Device::Cpu, 3.6, 3.6);
        assert!((t - (10.0 + 0.2 * 5.0)).abs() < 1e-9);
    }

    #[test]
    fn efficiency_changes_compute_time_per_device() {
        let p = phase(900.0, 0.0);
        let tc_cpu = p.compute_time(&dev(), Device::Cpu, 3.6);
        let tc_gpu = p.compute_time(&dev(), Device::Gpu, 3.6);
        assert!((tc_gpu / tc_cpu - 2.0).abs() < 1e-9); // gpu_eff = 0.5
    }

    #[test]
    fn lower_freq_slows_compute_more_than_memory() {
        let comp = phase(900.0, 0.0);
        let mem = phase(0.0, 110.0);
        let d = dev();
        let rc =
            comp.solo_time(&d, Device::Cpu, 1.2, 3.6) / comp.solo_time(&d, Device::Cpu, 3.6, 3.6);
        let rm =
            mem.solo_time(&d, Device::Cpu, 1.2, 3.6) / mem.solo_time(&d, Device::Cpu, 3.6, 3.6);
        assert!((rc - 3.0).abs() < 1e-9, "compute slows 3x at 1/3 clock");
        assert!(
            rm < 1.5,
            "memory-bound work is much less frequency-sensitive"
        );
    }

    #[test]
    fn job_times_sum_phases_plus_host() {
        let mut j = JobSpec::plain("t", vec![phase(900.0, 0.0), phase(0.0, 110.0)]);
        j.host_setup_s = 0.5;
        let t = j.solo_time(&dev(), Device::Cpu, 3.6, 3.6);
        assert!((t - 20.5).abs() < 1e-9);
        assert_eq!(j.total_bytes(), 110.0);
        assert_eq!(j.total_flops(), 900.0);
    }

    #[test]
    fn jitter_bounds() {
        let mut j = JobSpec::plain("t", vec![]);
        j.jitter_amp = 0.3;
        j.jitter_period_s = 2.0;
        for i in 0..100 {
            let g = j.jitter(i as f64 * 0.05);
            assert!((0.7 - 1e-9..=1.3 + 1e-9).contains(&g));
        }
        j.jitter_amp = 0.0;
        assert_eq!(j.jitter(1.234), 1.0);
    }

    #[test]
    fn avg_demand_weighted() {
        let j = JobSpec::plain("t", vec![phase(900.0, 0.0), phase(0.0, 110.0)]);
        // total 110 GB over 20 s
        let d = j.avg_demand(&dev(), Device::Cpu, 3.6, 3.6);
        assert!((d - 5.5).abs() < 1e-9);
    }

    #[test]
    fn trivial_phase_detection() {
        assert!(phase(0.0, 0.0).is_trivial());
        assert!(!phase(1.0, 0.0).is_trivial());
    }
}
