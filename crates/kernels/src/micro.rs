//! The controllable micro-benchmark of the paper's Figure 4.
//!
//! The paper's stressor is a three-step OpenCL kernel: each work-item reads
//! from two input arrays (memory), runs `j_max` iterations of register-only
//! arithmetic (compute), and writes one output element (memory). Array size
//! and `j_max` dial the kernel's DRAM demand anywhere from ~0 up to the
//! device's ~11 GB/s peak.
//!
//! Here the same knobs are kept ([`MicroParams`]: `i_max`, `j_max`, array
//! size) and translated into the simulator's `(flops, bytes)` work units.
//! [`MicroKernel::for_bandwidth`] solves the inverse problem: given a target
//! solo DRAM demand at a frequency setting, produce a kernel that hits it.

use apu_sim::{Device, FreqSetting, JobSpec, MachineConfig, PhaseWork};

/// Bytes moved per work-item per outer iteration: two 4-byte loads plus one
/// 4-byte store (Figure 4, steps 1 and 3).
pub const BYTES_PER_ITEM_ITER: f64 = 12.0;

/// Flops per inner-loop iteration: one add and one modulo (step 2).
pub const FLOPS_PER_INNER_ITER: f64 = 2.0;

/// Fixed per-item flops outside the inner loop (address math, final
/// combine on line 16 of Figure 4).
pub const FLOPS_PER_ITEM_FIXED: f64 = 3.0;

/// Raw knobs of the Figure-4 kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroParams {
    /// Number of work-items (one per array element).
    pub items: u64,
    /// Outer-loop trip count (`i_max`).
    pub i_max: u32,
    /// Inner arithmetic loop trip count (`j_max`).
    pub j_max: f64,
}

impl MicroParams {
    /// Total DRAM traffic in GB. The arrays are sized to defeat the LLC
    /// (the paper: "large enough so that no one single array can stay in
    /// LLC"), so every access goes to memory.
    pub fn total_bytes_gb(&self) -> f64 {
        self.items as f64 * self.i_max as f64 * BYTES_PER_ITEM_ITER / 1e9
    }

    /// Total compute in GFLOP.
    pub fn total_flops_g(&self) -> f64 {
        self.items as f64
            * self.i_max as f64
            * (self.j_max * FLOPS_PER_INNER_ITER + FLOPS_PER_ITEM_FIXED)
            / 1e9
    }
}

/// A synthesized instance of the micro-benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroKernel {
    /// The Figure-4 knobs this instance corresponds to.
    pub params: MicroParams,
    /// The compute efficiency assumed on each device (the kernel is simple
    /// streaming code, so it runs near peak on both).
    pub cpu_eff: f64,
    /// GPU compute efficiency.
    pub gpu_eff: f64,
}

impl MicroKernel {
    /// Default efficiencies for the trivially-parallel stressor.
    pub const CPU_EFF: f64 = 0.92;
    /// GPU efficiency of the stressor.
    pub const GPU_EFF: f64 = 0.90;

    /// Build a kernel directly from Figure-4 knobs.
    pub fn from_params(params: MicroParams) -> Self {
        MicroKernel {
            params,
            cpu_eff: Self::CPU_EFF,
            gpu_eff: Self::GPU_EFF,
        }
    }

    /// Synthesize a kernel whose *solo* DRAM demand on `device` at `setting`
    /// is `target_bw_gbps`, with a solo duration of roughly `duration_s`.
    ///
    /// Targets at or above the device's effective bandwidth saturate to a
    /// pure-streaming kernel (`j_max = 0`). A target of 0 produces a pure
    /// compute kernel.
    pub fn for_bandwidth(
        cfg: &MachineConfig,
        device: Device,
        setting: FreqSetting,
        target_bw_gbps: f64,
        duration_s: f64,
    ) -> Self {
        assert!(target_bw_gbps >= 0.0 && duration_s > 0.0);
        let dev = cfg.device(device);
        let f = cfg.freqs.ghz(device, setting);
        let f_max = cfg.f_max(device);
        let bw = dev.solo_bandwidth(f, f_max);
        let comp_rate = dev.compute_rate(f)
            * match device {
                Device::Cpu => Self::CPU_EFF,
                Device::Gpu => Self::GPU_EFF,
            };
        let ov = 0.2;

        // Total traffic to sustain the target for the whole duration.
        let bytes_gb = target_bw_gbps.min(bw) * duration_s;
        let tm = bytes_gb / bw;

        // Solve T = combine(tc, tm) = duration for tc.
        let tc = if tm <= duration_s / (1.0 + ov) {
            // compute-bound branch
            duration_s - ov * tm
        } else {
            // memory-bound branch
            ((duration_s - tm) / ov).max(0.0)
        };
        let flops_g = tc * comp_rate;

        // Back out Figure-4 knobs: size the arrays so at least ~8 outer
        // iterations carry the traffic (keeps the integer i_max rounding
        // error small even for tiny budgets) while staying far beyond the
        // LLC, then derive i_max from traffic and j_max from arithmetic.
        let items: u64 = ((bytes_gb / (8.0 * BYTES_PER_ITEM_ITER / 1e9)) as u64)
            .clamp(4 * 1024 * 1024, 32 * 1024 * 1024);
        let per_iter_gb = items as f64 * BYTES_PER_ITEM_ITER / 1e9;
        let i_max = if bytes_gb <= 0.0 {
            1
        } else {
            (bytes_gb / per_iter_gb).round().max(1.0) as u32
        };
        let total_iters = items as f64 * i_max as f64;
        let j_max =
            ((flops_g * 1e9 / total_iters - FLOPS_PER_ITEM_FIXED) / FLOPS_PER_INNER_ITER).max(0.0);

        MicroKernel {
            params: MicroParams {
                items,
                i_max,
                j_max,
            },
            cpu_eff: Self::CPU_EFF,
            gpu_eff: Self::GPU_EFF,
        }
    }

    /// Lower this kernel to a simulator [`JobSpec`].
    ///
    /// The stressor streams its arrays, so it is LLC-insensitive but exerts
    /// eviction pressure proportional to its traffic intensity.
    pub fn to_job(&self, cfg: &MachineConfig) -> JobSpec {
        let bytes = self.params.total_bytes_gb();
        let flops = self.params.total_flops_g();
        // Pressure scales with how hard the kernel drives DRAM relative to
        // the per-device peak.
        let demand_scale = (bytes / (bytes + flops / 40.0 + 1e-9)).clamp(0.0, 1.0); // crude intensity proxy
        let _ = demand_scale;
        let name = format!(
            "micro(i={},j={:.0},{}GB)",
            self.params.i_max,
            self.params.j_max,
            bytes.round()
        );
        JobSpec::plain(
            name,
            vec![PhaseWork {
                flops,
                bytes,
                cpu_eff: self.cpu_eff,
                gpu_eff: self.gpu_eff,
                llc_footprint_mib: 384.0, // three 128 MiB arrays: streams past LLC
                llc_sensitivity: 0.0,
                llc_pressure: self.pressure(cfg),
                llc_miss_bw_gbps: 0.0,
                overlap: 0.2,
            }],
        )
    }

    /// LLC eviction pressure this kernel exerts, derived from its maximum
    /// per-device demand intensity.
    fn pressure(&self, cfg: &MachineConfig) -> f64 {
        let bytes = self.params.total_bytes_gb();
        if bytes <= 0.0 {
            return 0.0;
        }
        let s = cfg.freqs.max_setting();
        let job_probe = JobSpec::plain(
            "probe",
            vec![PhaseWork {
                flops: self.params.total_flops_g(),
                bytes,
                cpu_eff: self.cpu_eff,
                gpu_eff: self.gpu_eff,
                llc_footprint_mib: 384.0,
                llc_sensitivity: 0.0,
                llc_pressure: 0.0,
                llc_miss_bw_gbps: 0.0,
                overlap: 0.2,
            }],
        );
        let d = Device::ALL
            .iter()
            .map(|&dev| {
                job_probe.avg_demand(cfg.device(dev), dev, cfg.freqs.ghz(dev, s), cfg.f_max(dev))
            })
            .fold(0.0, f64::max);
        (0.95 * d / 11.0).clamp(0.0, 0.95)
    }
}

/// The 11 evenly spaced bandwidth levels (0..=11 GB/s) the paper uses to
/// cover the degradation space.
pub fn paper_bandwidth_levels() -> Vec<f64> {
    (0..11).map(|i| i as f64 * 1.1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::run_solo;

    fn cfg() -> MachineConfig {
        MachineConfig::ivy_bridge()
    }

    #[test]
    fn params_arithmetic() {
        let p = MicroParams {
            items: 1_000_000,
            i_max: 10,
            j_max: 5.0,
        };
        assert!((p.total_bytes_gb() - 0.12).abs() < 1e-9);
        assert!((p.total_flops_g() - 0.13).abs() < 1e-9);
    }

    #[test]
    fn paper_levels_span_zero_to_eleven() {
        let l = paper_bandwidth_levels();
        assert_eq!(l.len(), 11);
        assert_eq!(l[0], 0.0);
        assert!((l[10] - 11.0).abs() < 1e-9);
    }

    #[test]
    fn for_bandwidth_hits_target_on_cpu() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        for target in [2.0, 5.0, 8.0, 10.5] {
            let mk = MicroKernel::for_bandwidth(&cfg, Device::Cpu, s, target, 4.0);
            let job = mk.to_job(&cfg);
            let d = job.avg_demand(&cfg.cpu, Device::Cpu, 3.6, 3.6);
            assert!(
                (d - target).abs() / target < 0.08,
                "target {target} got {d}"
            );
        }
    }

    #[test]
    fn for_bandwidth_hits_target_on_gpu() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        for target in [1.0, 4.0, 7.0, 11.0] {
            let mk = MicroKernel::for_bandwidth(&cfg, Device::Gpu, s, target, 4.0);
            let job = mk.to_job(&cfg);
            let d = job.avg_demand(&cfg.gpu, Device::Gpu, 1.25, 1.25);
            assert!(
                (d - target).abs() / target.max(1.0) < 0.08,
                "target {target} got {d}"
            );
        }
    }

    #[test]
    fn for_bandwidth_duration_roughly_matches() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        let mk = MicroKernel::for_bandwidth(&cfg, Device::Cpu, s, 6.0, 5.0);
        let out = run_solo(&cfg, &mk.to_job(&cfg), Device::Cpu, s).unwrap();
        assert!((out.time_s - 5.0).abs() < 0.5, "got {}", out.time_s);
    }

    #[test]
    fn zero_target_is_pure_compute() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        let mk = MicroKernel::for_bandwidth(&cfg, Device::Gpu, s, 0.0, 3.0);
        let job = mk.to_job(&cfg);
        // one outer iteration of traffic remains (i_max >= 1) but demand ~0
        let d = job.avg_demand(&cfg.gpu, Device::Gpu, 1.25, 1.25);
        assert!(d < 0.3, "near-zero demand expected, got {d}");
    }

    #[test]
    fn saturating_target_clamps_to_device_peak() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        let mk = MicroKernel::for_bandwidth(&cfg, Device::Cpu, s, 25.0, 4.0);
        let job = mk.to_job(&cfg);
        let d = job.avg_demand(&cfg.cpu, Device::Cpu, 3.6, 3.6);
        assert!(d <= 11.0 + 1e-6);
        assert!(d > 9.0, "should run near peak, got {d}");
    }

    #[test]
    fn lower_frequency_lowers_achievable_demand() {
        let cfg = cfg();
        let lo = FreqSetting::new(0, 0);
        let mk = MicroKernel::for_bandwidth(&cfg, Device::Cpu, lo, 11.0, 4.0);
        let job = mk.to_job(&cfg);
        let f_lo = cfg.freqs.ghz(Device::Cpu, lo);
        let d = job.avg_demand(&cfg.cpu, Device::Cpu, f_lo, 3.6);
        // At the lowest CPU level, effective bandwidth is ~73% of peak.
        assert!(d < 9.0, "demand at low freq must be below peak, got {d}");
        assert!(d > 6.0);
    }

    #[test]
    fn pressure_tracks_intensity() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        let heavy = MicroKernel::for_bandwidth(&cfg, Device::Gpu, s, 10.0, 4.0).to_job(&cfg);
        let light = MicroKernel::for_bandwidth(&cfg, Device::Gpu, s, 1.0, 4.0).to_job(&cfg);
        assert!(heavy.max_llc_pressure() > light.max_llc_pressure());
        assert!(heavy.max_llc_pressure() <= 0.95);
    }
}
