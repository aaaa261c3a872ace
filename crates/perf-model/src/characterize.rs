//! Characterization of the co-run degradation space with the controllable
//! micro-benchmark (paper Section V-B).
//!
//! For each frequency *stage* (a small set of frequency settings), the
//! micro-benchmark is synthesized at evenly spaced demand levels on each
//! device, and every (CPU level, GPU level) pair is co-run to steady state
//! to measure both sides' degradations. The paper uses 11 levels covering
//! 0–11 GB/s; exhaustive profiling of real programs would need
//! `O(N^2 K^2)` runs, while this needs only `O(G^2 S)` micro-runs
//! independent of the number of programs.
//!
//! Pair measurements are embarrassingly parallel and are fanned out over
//! worker threads with `crossbeam::scope`.

use crate::surface::{DegradationSurface, Grid2D};
use apu_sim::{run_solo, run_with_background, Device, FreqSetting, MachineConfig, PerDevice};
use kernels::MicroKernel;

/// Parameters of a characterization sweep.
#[derive(Debug, Clone)]
pub struct CharacterizeConfig {
    /// CPU frequency levels at which stages are measured.
    pub cpu_stage_levels: Vec<usize>,
    /// GPU frequency levels at which stages are measured.
    pub gpu_stage_levels: Vec<usize>,
    /// Demand-axis resolution (the paper uses 11 points).
    pub grid_points: usize,
    /// Solo duration of each micro-kernel instance, seconds.
    pub micro_duration_s: f64,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl CharacterizeConfig {
    /// The paper's setup: 11 demand levels, with a 3x3 grid of frequency
    /// stages spanning each ladder.
    pub fn paper(cfg: &MachineConfig) -> Self {
        let cmax = cfg.freqs.cpu.max_level();
        let gmax = cfg.freqs.gpu.max_level();
        CharacterizeConfig {
            cpu_stage_levels: vec![0, cmax / 2, cmax],
            gpu_stage_levels: vec![0, gmax / 2, gmax],
            grid_points: 11,
            micro_duration_s: 4.0,
            threads: 0,
        }
    }

    /// A coarse, fast configuration for tests: 2x2 stages, 5 demand levels.
    pub fn fast(cfg: &MachineConfig) -> Self {
        CharacterizeConfig {
            cpu_stage_levels: vec![0, cfg.freqs.cpu.max_level()],
            gpu_stage_levels: vec![0, cfg.freqs.gpu.max_level()],
            grid_points: 5,
            micro_duration_s: 2.0,
            threads: 0,
        }
    }
}

/// One characterized frequency stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The frequency setting this stage was measured at.
    pub setting: FreqSetting,
    /// CPU clock of the stage, GHz.
    pub cpu_ghz: f64,
    /// GPU clock of the stage, GHz.
    pub gpu_ghz: f64,
    /// Measured degradation surfaces.
    pub surface: DegradationSurface,
}

/// Run the full characterization sweep: every stage in the config.
pub fn characterize(cfg: &MachineConfig, ccfg: &CharacterizeConfig) -> Vec<Stage> {
    let mut stages = Vec::new();
    for &cl in &ccfg.cpu_stage_levels {
        for &gl in &ccfg.gpu_stage_levels {
            let setting = FreqSetting::new(cl, gl);
            stages.push(characterize_stage(cfg, ccfg, setting));
        }
    }
    stages
}

/// Characterize a single frequency stage.
pub fn characterize_stage(
    cfg: &MachineConfig,
    ccfg: &CharacterizeConfig,
    setting: FreqSetting,
) -> Stage {
    let n = ccfg.grid_points;
    assert!(n >= 2);

    // Demand axes span 0..the device's effective peak at this stage.
    let axis = |device: Device| -> Vec<f64> {
        let dev = cfg.device(device);
        let f = cfg.freqs.ghz(device, setting);
        let peak = dev.solo_bandwidth(f, cfg.f_max(device));
        (0..n).map(|i| peak * i as f64 / (n - 1) as f64).collect()
    };
    let cpu_axis = axis(Device::Cpu);
    let gpu_axis = axis(Device::Gpu);

    // Synthesize one micro-kernel per axis point and measure its solo time.
    let make = |device: Device, target: f64| {
        MicroKernel::for_bandwidth(cfg, device, setting, target, ccfg.micro_duration_s).to_job(cfg)
    };
    let cpu_kernels: Vec<_> = cpu_axis.iter().map(|&d| make(Device::Cpu, d)).collect();
    let gpu_kernels: Vec<_> = gpu_axis.iter().map(|&d| make(Device::Gpu, d)).collect();
    let cpu_solo: Vec<f64> = cpu_kernels
        .iter()
        .map(|j| run_solo(cfg, j, Device::Cpu, setting).expect("solo").time_s)
        .collect();
    let gpu_solo: Vec<f64> = gpu_kernels
        .iter()
        .map(|j| run_solo(cfg, j, Device::Gpu, setting).expect("solo").time_s)
        .collect();

    // Measure every pair, fanned out over threads. Each worker owns a chunk
    // of (i, j) indices and returns (cpu_deg, gpu_deg) per pair.
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let threads = if ccfg.threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
    } else {
        ccfg.threads
    };
    let chunk = pairs.len().div_ceil(threads);

    let mut cpu_vals = vec![0.0; n * n];
    let mut gpu_vals = vec![0.0; n * n];
    let results: Vec<Vec<(usize, usize, f64, f64)>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk.max(1))
            .map(|chunk_pairs| {
                let cpu_kernels = &cpu_kernels;
                let gpu_kernels = &gpu_kernels;
                let cpu_solo = &cpu_solo;
                let gpu_solo = &gpu_solo;
                s.spawn(move |_| {
                    chunk_pairs
                        .iter()
                        .map(|&(i, j)| {
                            let cj = &cpu_kernels[i];
                            let gj = &gpu_kernels[j];
                            let tc = run_with_background(cfg, cj, Device::Cpu, gj, setting)
                                .expect("co-run");
                            let tg = run_with_background(cfg, gj, Device::Gpu, cj, setting)
                                .expect("co-run");
                            let dc = (tc / cpu_solo[i] - 1.0).max(0.0);
                            let dg = (tg / gpu_solo[j] - 1.0).max(0.0);
                            (i, j, dc, dg)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    })
    .expect("scope");

    for chunk in results {
        for (i, j, dc, dg) in chunk {
            cpu_vals[i * n + j] = dc;
            gpu_vals[i * n + j] = dg;
        }
    }

    // A degenerate axis (all-zero peak) cannot happen on a real config, so
    // Grid2D's strictly-increasing invariant holds.
    let surface = DegradationSurface {
        deg: PerDevice::new(
            Grid2D::new(cpu_axis.clone(), gpu_axis.clone(), cpu_vals),
            Grid2D::new(cpu_axis, gpu_axis, gpu_vals),
        ),
    };

    Stage {
        setting,
        cpu_ghz: cfg.freqs.ghz(Device::Cpu, setting),
        gpu_ghz: cfg.freqs.ghz(Device::Gpu, setting),
        surface,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::ivy_bridge()
    }

    #[test]
    fn stage_at_max_frequency_has_paper_shape() {
        let cfg = cfg();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 6;
        let stage = characterize_stage(&cfg, &ccfg, cfg.freqs.max_setting());
        let cpu = &stage.surface.deg.cpu;
        let gpu = &stage.surface.deg.gpu;

        // Paper Fig 5/6: max CPU degradation ~65%, max GPU ~45%; CPU worse
        // than GPU at the high-high corner.
        let n = ccfg.grid_points;
        let cpu_corner = cpu.at(n - 1, n - 1);
        let gpu_corner = gpu.at(n - 1, n - 1);
        assert!(
            cpu_corner > gpu_corner,
            "cpu {cpu_corner} vs gpu {gpu_corner}"
        );
        assert!(
            (0.45..=0.90).contains(&cpu_corner),
            "cpu corner {cpu_corner}"
        );
        assert!(
            (0.25..=0.60).contains(&gpu_corner),
            "gpu corner {gpu_corner}"
        );

        // No contention when one side is idle.
        assert!(cpu.at(n - 1, 0) < 0.05, "no co-runner, no degradation");
        assert!(gpu.at(0, n - 1) < 0.05);

        // CPU suffers <=20% in about half the cases; GPU suffers broadly.
        assert!(
            cpu.frac_in(0.0, 0.20) >= 0.4,
            "cpu mostly mild: {}",
            cpu.frac_in(0.0, 0.20)
        );
        assert!(
            gpu.mean_value() > cpu.mean_value() * 0.9,
            "gpu degradations are broad: {} vs {}",
            gpu.mean_value(),
            cpu.mean_value()
        );
    }

    #[test]
    fn degradation_monotone_in_corunner_demand() {
        let cfg = cfg();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 5;
        let stage = characterize_stage(&cfg, &ccfg, cfg.freqs.max_setting());
        let n = ccfg.grid_points;
        let cpu = &stage.surface.deg.cpu;
        for i in 0..n {
            for j in 1..n {
                assert!(
                    cpu.at(i, j) + 0.03 >= cpu.at(i, j - 1),
                    "row {i}: col {j} not monotone"
                );
            }
        }
    }

    #[test]
    fn full_sweep_produces_all_stages() {
        let cfg = cfg();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 3;
        ccfg.micro_duration_s = 1.5;
        let stages = characterize(&cfg, &ccfg);
        assert_eq!(stages.len(), 4); // 2x2 stages
        for s in &stages {
            assert_eq!(s.surface.deg.cpu.cpu_axis.len(), 3);
            assert!(s.cpu_ghz > 0.0 && s.gpu_ghz > 0.0);
        }
    }

    #[test]
    fn low_frequency_stage_has_smaller_axes() {
        let cfg = cfg();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 3;
        ccfg.micro_duration_s = 1.5;
        let lo = characterize_stage(&cfg, &ccfg, FreqSetting::new(0, 0));
        let hi = characterize_stage(&cfg, &ccfg, cfg.freqs.max_setting());
        let lo_max = *lo.surface.deg.cpu.cpu_axis.last().unwrap();
        let hi_max = *hi.surface.deg.cpu.cpu_axis.last().unwrap();
        assert!(
            lo_max < hi_max,
            "axis peak shrinks with frequency: {lo_max} vs {hi_max}"
        );
    }
}
