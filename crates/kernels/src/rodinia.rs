//! Synthetic stand-ins for the eight Rodinia OpenCL programs the paper
//! evaluates: streamcluster, cfd, dwt2d, hotspot, srad, lud, leukocyte and
//! heartwall.
//!
//! Each program is a multi-phase [`JobSpec`] calibrated so its standalone
//! run time at the highest frequency matches the paper's Table I on both
//! devices. Its memory character (DRAM seconds, LLC footprint/sensitivity/
//! pressure) is chosen to match the program's published behaviour:
//! streamcluster/cfd/srad stream heavily, lud and leukocyte are
//! compute-bound, and dwt2d is cache-resident and extremely sensitive to a
//! streaming co-runner (the 81%-slowdown example of the paper's
//! Section III).
//!
//! Calibration works backwards from times: DRAM traffic comes from the
//! chosen "memory seconds at peak bandwidth" (identical on both devices —
//! same data, same DRAM), and per-device compute efficiencies are then
//! bisected until the analytic solo time hits the Table I target to within
//! a tenth of a percent.

use apu_sim::{Device, JobSpec, MachineConfig, PhaseWork};

/// Overlap coefficient shared by all calibrated programs.
pub const OVERLAP: f64 = 0.2;

/// LLC behaviour of one program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcProfile {
    /// Working-set size, MiB.
    pub footprint_mib: f64,
    /// Traffic-inflation coefficient under eviction.
    pub sensitivity: f64,
    /// Eviction pressure exerted on the co-runner, `[0,1]`.
    pub pressure: f64,
    /// Effective bandwidth of thrash-induced misses, GB/s (0 = device peak).
    pub miss_bw_gbps: f64,
}

/// Declarative definition of one calibrated program.
#[derive(Debug, Clone)]
pub struct ProgramDef {
    /// Benchmark name.
    pub name: &'static str,
    /// Target standalone CPU time at max frequency (paper Table I), seconds.
    pub t_cpu_s: f64,
    /// Target standalone GPU time at max frequency (paper Table I), seconds.
    pub t_gpu_s: f64,
    /// DRAM-access seconds at peak bandwidth (identical on both devices).
    pub tm_s: f64,
    /// Per-phase `(compute_fraction, memory_fraction)`; each column sums to 1.
    pub splits: Vec<(f64, f64)>,
    /// LLC behaviour.
    pub llc: LlcProfile,
    /// Demand jitter: (relative amplitude, period seconds, phase radians).
    pub jitter: (f64, f64, f64),
    /// Host-side serial setup, seconds.
    pub host_setup_s: f64,
}

/// The eight programs with their Table I targets and characters.
pub fn program_defs() -> Vec<ProgramDef> {
    vec![
        ProgramDef {
            name: "streamcluster",
            t_cpu_s: 59.71,
            t_gpu_s: 23.72,
            tm_s: 18.0,
            splits: vec![(0.42, 0.36), (0.30, 0.38), (0.28, 0.26)],
            llc: LlcProfile {
                footprint_mib: 96.0,
                sensitivity: 0.0,
                pressure: 0.90,
                miss_bw_gbps: 0.0,
            },
            jitter: (0.16, 18.0, 0.3),
            host_setup_s: 0.3,
        },
        ProgramDef {
            name: "cfd",
            t_cpu_s: 49.69,
            t_gpu_s: 26.32,
            tm_s: 17.0,
            splits: vec![(0.50, 0.40), (0.25, 0.38), (0.25, 0.22)],
            llc: LlcProfile {
                footprint_mib: 48.0,
                sensitivity: 0.3,
                pressure: 0.80,
                miss_bw_gbps: 5.5,
            },
            jitter: (0.20, 23.0, 1.1),
            host_setup_s: 0.4,
        },
        ProgramDef {
            name: "dwt2d",
            t_cpu_s: 24.37,
            t_gpu_s: 61.66,
            tm_s: 2.2,
            splits: vec![(0.50, 0.30), (0.28, 0.45), (0.22, 0.25)],
            llc: LlcProfile {
                footprint_mib: 3.0,
                sensitivity: 15.0,
                pressure: 0.15,
                miss_bw_gbps: 4.0,
            },
            jitter: (0.12, 9.0, 2.0),
            host_setup_s: 0.2,
        },
        ProgramDef {
            name: "hotspot",
            t_cpu_s: 70.24,
            t_gpu_s: 28.52,
            tm_s: 6.0,
            splits: vec![(0.40, 0.28), (0.27, 0.44), (0.33, 0.28)],
            llc: LlcProfile {
                footprint_mib: 6.0,
                sensitivity: 1.2,
                pressure: 0.15,
                miss_bw_gbps: 5.0,
            },
            jitter: (0.10, 14.0, 0.0),
            host_setup_s: 0.3,
        },
        ProgramDef {
            name: "srad",
            t_cpu_s: 51.39,
            t_gpu_s: 23.71,
            tm_s: 15.0,
            splits: vec![(0.48, 0.38), (0.26, 0.40), (0.26, 0.22)],
            llc: LlcProfile {
                footprint_mib: 32.0,
                sensitivity: 0.4,
                pressure: 0.75,
                miss_bw_gbps: 5.5,
            },
            jitter: (0.18, 16.0, 0.7),
            host_setup_s: 0.3,
        },
        ProgramDef {
            name: "lud",
            t_cpu_s: 27.76,
            t_gpu_s: 24.83,
            tm_s: 3.5,
            splits: vec![(0.55, 0.28), (0.22, 0.48), (0.23, 0.24)],
            llc: LlcProfile {
                footprint_mib: 3.5,
                sensitivity: 1.5,
                pressure: 0.20,
                miss_bw_gbps: 4.5,
            },
            jitter: (0.08, 12.0, 1.6),
            host_setup_s: 0.2,
        },
        ProgramDef {
            name: "leukocyte",
            t_cpu_s: 50.88,
            t_gpu_s: 23.08,
            tm_s: 4.0,
            splits: vec![(0.46, 0.20), (0.28, 0.52), (0.26, 0.28)],
            llc: LlcProfile {
                footprint_mib: 5.0,
                sensitivity: 0.6,
                pressure: 0.25,
                miss_bw_gbps: 5.0,
            },
            jitter: (0.10, 21.0, 2.4),
            host_setup_s: 0.3,
        },
        ProgramDef {
            name: "heartwall",
            t_cpu_s: 54.68,
            t_gpu_s: 22.99,
            tm_s: 9.0,
            splits: vec![(0.44, 0.28), (0.26, 0.46), (0.30, 0.26)],
            llc: LlcProfile {
                footprint_mib: 8.0,
                sensitivity: 0.8,
                pressure: 0.50,
                miss_bw_gbps: 5.0,
            },
            jitter: (0.14, 17.0, 3.0),
            host_setup_s: 0.3,
        },
    ]
}

/// Solve `combine(tc, tm) = t_total` for `tc` under the `max + ov*min`
/// overlap model.
fn solve_tc(t_total: f64, tm: f64) -> f64 {
    if tm <= t_total / (1.0 + OVERLAP) {
        t_total - OVERLAP * tm
    } else {
        ((t_total - tm) / OVERLAP).max(0.0)
    }
}

/// Build the calibrated [`JobSpec`] for one program definition.
///
/// # Panics
/// Panics if the definition cannot be calibrated within the efficiency
/// range `(0.02, 1.0)` — i.e. the Table I targets are unreachable on the
/// given machine.
pub fn build_program(cfg: &MachineConfig, def: &ProgramDef) -> JobSpec {
    assert!(!def.splits.is_empty());
    let sum_tc: f64 = def.splits.iter().map(|s| s.0).sum();
    let sum_tm: f64 = def.splits.iter().map(|s| s.1).sum();
    assert!(
        (sum_tc - 1.0).abs() < 1e-6,
        "{}: compute fractions must sum to 1",
        def.name
    );
    assert!(
        (sum_tm - 1.0).abs() < 1e-6,
        "{}: memory fractions must sum to 1",
        def.name
    );

    let bw_peak = cfg.cpu.bw_peak_gbps; // identical DRAM on both devices
    let tc_cpu_budget = solve_tc(def.t_cpu_s - def.host_setup_s, def.tm_s);

    // Provisional flops from an assumed CPU efficiency of 0.85.
    let e_cpu0 = 0.85;
    let cpu_rate = cfg.cpu.compute_rate(cfg.f_max(Device::Cpu));

    let mut phases: Vec<PhaseWork> = def
        .splits
        .iter()
        .map(|&(tc_frac, tm_frac)| PhaseWork {
            flops: tc_frac * tc_cpu_budget * cpu_rate * e_cpu0,
            bytes: tm_frac * def.tm_s * bw_peak,
            cpu_eff: e_cpu0,
            gpu_eff: 0.5, // placeholder, calibrated below
            llc_footprint_mib: def.llc.footprint_mib,
            llc_sensitivity: def.llc.sensitivity,
            llc_pressure: def.llc.pressure,
            llc_miss_bw_gbps: def.llc.miss_bw_gbps,
            overlap: OVERLAP,
        })
        .collect();

    // Calibrate each device's efficiency so the analytic solo time at max
    // frequency matches Table I (the engine agrees with the analytic model
    // to well under 1%).
    for device in Device::ALL {
        let target = match device {
            Device::Cpu => def.t_cpu_s,
            Device::Gpu => def.t_gpu_s,
        };
        let eff = calibrate_efficiency(cfg, &phases, def.host_setup_s, device, target)
            .unwrap_or_else(|| {
                panic!(
                    "{}: cannot reach {target}s on {device} within efficiency bounds",
                    def.name
                )
            });
        for p in &mut phases {
            match device {
                Device::Cpu => p.cpu_eff = eff,
                Device::Gpu => p.gpu_eff = eff,
            }
        }
    }

    let mut job = JobSpec::plain(def.name, phases);
    job.host_setup_s = def.host_setup_s;
    job.jitter_amp = def.jitter.0;
    job.jitter_period_s = def.jitter.1;
    job.jitter_phase = def.jitter.2;
    job
}

/// Bisect a uniform per-phase efficiency on `device` so the job's analytic
/// solo time at maximum frequency equals `target_s`.
fn calibrate_efficiency(
    cfg: &MachineConfig,
    phases: &[PhaseWork],
    host_setup_s: f64,
    device: Device,
    target_s: f64,
) -> Option<f64> {
    let time_with = |eff: f64| -> f64 {
        let probe: Vec<PhaseWork> = phases
            .iter()
            .map(|p| {
                let mut q = p.clone();
                match device {
                    Device::Cpu => q.cpu_eff = eff,
                    Device::Gpu => q.gpu_eff = eff,
                }
                q
            })
            .collect();
        let job = JobSpec::plain("probe", probe);
        host_setup_s
            + job.solo_time(
                cfg.device(device),
                device,
                cfg.f_max(device),
                cfg.f_max(device),
            )
    };

    let (mut lo, mut hi) = (0.02, 1.0);
    // time is monotone decreasing in efficiency
    if time_with(lo) < target_s || time_with(hi) > target_s {
        return None;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if time_with(mid) > target_s {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Build the full eight-program suite.
pub fn rodinia_suite(cfg: &MachineConfig) -> Vec<JobSpec> {
    program_defs()
        .iter()
        .map(|d| build_program(cfg, d))
        .collect()
}

/// Build one program by name.
pub fn by_name(cfg: &MachineConfig, name: &str) -> Option<JobSpec> {
    program_defs()
        .iter()
        .find(|d| d.name == name)
        .map(|d| build_program(cfg, d))
}

/// Scale a job's work (flops and traffic) by `scale`, modeling a different
/// input size; run time scales approximately linearly.
pub fn with_input_scale(job: &JobSpec, scale: f64) -> JobSpec {
    assert!(scale > 0.0);
    let mut j = job.clone();
    j.name = format!("{}#x{:.2}", job.name, scale);
    for p in &mut j.phases {
        p.flops *= scale;
        p.bytes *= scale;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::run_solo;

    fn cfg() -> MachineConfig {
        MachineConfig::ivy_bridge()
    }

    #[test]
    fn suite_has_eight_programs() {
        let s = rodinia_suite(&cfg());
        assert_eq!(s.len(), 8);
        let names: Vec<&str> = s.iter().map(|j| j.name.as_str()).collect();
        assert!(names.contains(&"dwt2d"));
        assert!(names.contains(&"streamcluster"));
    }

    #[test]
    fn analytic_times_match_table1() {
        let cfg = cfg();
        for def in program_defs() {
            let job = build_program(&cfg, &def);
            let t_cpu = job.solo_time(
                &cfg.cpu,
                Device::Cpu,
                cfg.f_max(Device::Cpu),
                cfg.f_max(Device::Cpu),
            );
            let t_gpu = job.solo_time(
                &cfg.gpu,
                Device::Gpu,
                cfg.f_max(Device::Gpu),
                cfg.f_max(Device::Gpu),
            );
            assert!(
                (t_cpu - def.t_cpu_s).abs() / def.t_cpu_s < 0.005,
                "{}: cpu {t_cpu} vs {}",
                def.name,
                def.t_cpu_s
            );
            assert!(
                (t_gpu - def.t_gpu_s).abs() / def.t_gpu_s < 0.005,
                "{}: gpu {t_gpu} vs {}",
                def.name,
                def.t_gpu_s
            );
        }
    }

    #[test]
    fn engine_times_match_table1() {
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        for def in program_defs() {
            let job = build_program(&cfg, &def);
            let cpu = run_solo(&cfg, &job, Device::Cpu, s).unwrap().time_s;
            let gpu = run_solo(&cfg, &job, Device::Gpu, s).unwrap().time_s;
            assert!(
                (cpu - def.t_cpu_s).abs() / def.t_cpu_s < 0.03,
                "{}: engine cpu {cpu} vs {}",
                def.name,
                def.t_cpu_s
            );
            assert!(
                (gpu - def.t_gpu_s).abs() / def.t_gpu_s < 0.03,
                "{}: engine gpu {gpu} vs {}",
                def.name,
                def.t_gpu_s
            );
        }
    }

    #[test]
    fn preferences_match_paper() {
        // Paper Table I: six GPU-preferred, dwt2d CPU-preferred, lud similar.
        let _cfg = cfg();
        for def in program_defs() {
            let ratio = def.t_cpu_s / def.t_gpu_s;
            match def.name {
                "dwt2d" => assert!(ratio < 0.8, "dwt2d strongly prefers the CPU"),
                "lud" => assert!(
                    (0.8..=1.25).contains(&ratio),
                    "lud has no strong preference"
                ),
                _ => assert!(ratio > 1.25, "{} prefers the GPU", def.name),
            }
        }
    }

    #[test]
    fn efficiencies_in_bounds() {
        let cfg = cfg();
        for job in rodinia_suite(&cfg) {
            for p in &job.phases {
                assert!(p.cpu_eff > 0.02 && p.cpu_eff <= 1.0, "{}", job.name);
                assert!(p.gpu_eff > 0.02 && p.gpu_eff <= 1.0, "{}", job.name);
            }
        }
    }

    #[test]
    fn demand_spread_is_wide() {
        // Bandwidth demands must spread across the degradation space for
        // co-scheduling to have anything to exploit.
        let cfg = cfg();
        let demands: Vec<f64> = rodinia_suite(&cfg)
            .iter()
            .map(|j| j.avg_demand(&cfg.gpu, Device::Gpu, 1.25, 1.25))
            .collect();
        let max = demands.iter().copied().fold(0.0, f64::max);
        let min = demands.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max > 6.0, "heaviest GPU demand {max}");
        assert!(min < 1.5, "lightest GPU demand {min}");
    }

    #[test]
    fn input_scale_scales_time() {
        let cfg = cfg();
        let base = by_name(&cfg, "lud").unwrap();
        let big = with_input_scale(&base, 1.5);
        let t0 = base.solo_time(&cfg.gpu, Device::Gpu, 1.25, 1.25);
        let t1 = big.solo_time(&cfg.gpu, Device::Gpu, 1.25, 1.25);
        assert!((t1 / t0 - 1.5).abs() < 0.05, "ratio {}", t1 / t0);
        assert!(big.name.starts_with("lud#"));
    }

    #[test]
    fn by_name_unknown_is_none() {
        assert!(by_name(&cfg(), "nonexistent").is_none());
    }

    #[test]
    fn section3_pair_degradations_match_paper() {
        // Paper Section III: co-running dwt2d (CPU) with streamcluster (GPU)
        // slows dwt2d by 81% and streamcluster by 5%; with hotspot instead,
        // the slowdowns are ~17% and ~5%.
        let cfg = cfg();
        let s = cfg.freqs.max_setting();
        let sc = by_name(&cfg, "streamcluster").unwrap();
        let dwt = by_name(&cfg, "dwt2d").unwrap();
        let hot = by_name(&cfg, "hotspot").unwrap();
        let dwt_solo = run_solo(&cfg, &dwt, Device::Cpu, s).unwrap().time_s;
        let sc_solo = run_solo(&cfg, &sc, Device::Gpu, s).unwrap().time_s;
        let hot_solo = run_solo(&cfg, &hot, Device::Gpu, s).unwrap().time_s;
        let mut g = apu_sim::NullGovernor;
        let p1 = apu_sim::run_pair(&cfg, &dwt, &sc, s, &mut g).unwrap();
        let p2 = apu_sim::run_pair(&cfg, &dwt, &hot, s, &mut g).unwrap();
        let dwt_vs_sc = p1.cpu_time_s / dwt_solo - 1.0;
        let sc_deg = p1.gpu_time_s / sc_solo - 1.0;
        let dwt_vs_hot = p2.cpu_time_s / dwt_solo - 1.0;
        let hot_deg = p2.gpu_time_s / hot_solo - 1.0;
        assert!(
            (0.55..=1.0).contains(&dwt_vs_sc),
            "dwt2d vs streamcluster: {dwt_vs_sc}"
        );
        assert!(sc_deg < 0.15, "streamcluster barely degrades: {sc_deg}");
        assert!(
            (0.05..=0.30).contains(&dwt_vs_hot),
            "dwt2d vs hotspot: {dwt_vs_hot}"
        );
        assert!(hot_deg < 0.15, "hotspot barely degrades: {hot_deg}");
        assert!(
            dwt_vs_sc > 3.0 * dwt_vs_hot,
            "pairing matters: {dwt_vs_sc} vs {dwt_vs_hot}"
        );
    }

    #[test]
    fn solve_tc_branches() {
        // compute-bound: tm small
        let tc = solve_tc(10.0, 2.0);
        assert!((tc - 9.6).abs() < 1e-12);
        // memory-bound: tm close to total
        let tc2 = solve_tc(10.0, 9.5);
        assert!((tc2 - 2.5).abs() < 1e-9);
        assert!(tc2 < 9.5);
    }
}
