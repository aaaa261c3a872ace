//! The staged-interpolation co-run predictor (paper Section V-C) and the
//! standalone-power-sum co-run power predictor (Section VI-B, Figure 8).
//!
//! Given the characterized stages, predicting the co-run behaviour of two
//! *real* programs needs only their standalone profiles:
//!
//! 1. look up each program's solo DRAM demand at the queried frequency,
//! 2. evaluate the degradation surfaces of the four stages bracketing the
//!    queried (CPU GHz, GPU GHz) point at those demand coordinates,
//! 3. bilinearly blend across the stage grid.
//!
//! Power is predicted as the sum of the two standalone package powers minus
//! the double-counted idle package power.

use crate::characterize::Stage;
use crate::profile::{idle_package_power, JobProfile};
use apu_sim::{Device, FreqSetting, MachineConfig, PerDevice};

/// A co-run performance + power predictor assembled from characterization
/// stages and the machine description.
#[derive(Debug, Clone)]
pub struct StagedPredictor {
    stages: Vec<Stage>,
    /// Distinct stage CPU clocks, sorted ascending.
    cpu_ghz_axis: Vec<f64>,
    /// Distinct stage GPU clocks, sorted ascending.
    gpu_ghz_axis: Vec<f64>,
    /// `stage_index[ci * gpu_ghz_axis.len() + gi]` into `stages`.
    stage_index: Vec<usize>,
    idle_power_w: f64,
}

impl StagedPredictor {
    /// Assemble a predictor from characterized stages.
    ///
    /// # Panics
    /// Panics if the stages do not form a complete rectangular grid over
    /// their distinct CPU/GPU clocks.
    pub fn new(cfg: &MachineConfig, stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty());
        let mut cpu_ghz_axis: Vec<f64> = stages.iter().map(|s| s.cpu_ghz).collect();
        let mut gpu_ghz_axis: Vec<f64> = stages.iter().map(|s| s.gpu_ghz).collect();
        dedup_sorted(&mut cpu_ghz_axis);
        dedup_sorted(&mut gpu_ghz_axis);
        let mut stage_index = vec![usize::MAX; cpu_ghz_axis.len() * gpu_ghz_axis.len()];
        for (k, s) in stages.iter().enumerate() {
            let ci = position(&cpu_ghz_axis, s.cpu_ghz);
            let gi = position(&gpu_ghz_axis, s.gpu_ghz);
            stage_index[ci * gpu_ghz_axis.len() + gi] = k;
        }
        assert!(
            stage_index.iter().all(|&i| i != usize::MAX),
            "stages must form a complete frequency grid"
        );
        StagedPredictor {
            stages,
            cpu_ghz_axis,
            gpu_ghz_axis,
            stage_index,
            idle_power_w: idle_package_power(cfg),
        }
    }

    /// The characterization stages backing this predictor.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    fn stage(&self, ci: usize, gi: usize) -> &Stage {
        &self.stages[self.stage_index[ci * self.gpu_ghz_axis.len() + gi]]
    }

    /// Predict the degradation of the job on `device` whose solo demand at
    /// the queried setting is `own_demand`, co-running against a job with
    /// solo demand `co_demand`, at clocks `(cpu_ghz, gpu_ghz)`.
    pub fn degradation_at(
        &self,
        device: Device,
        own_demand: f64,
        co_demand: f64,
        cpu_ghz: f64,
        gpu_ghz: f64,
    ) -> f64 {
        let (c0, c1, tx) = bracket(&self.cpu_ghz_axis, cpu_ghz);
        let (g0, g1, ty) = bracket(&self.gpu_ghz_axis, gpu_ghz);
        let q = |ci: usize, gi: usize| {
            self.stage(ci, gi)
                .surface
                .degradation(device, own_demand, co_demand)
        };
        let a = q(c0, g0) + (q(c0, g1) - q(c0, g0)) * ty;
        let b = q(c1, g0) + (q(c1, g1) - q(c1, g0)) * ty;
        (a + (b - a) * tx).max(0.0)
    }

    /// `d_{i,p,f}^{j,g}` for real programs: degradation of `cpu_job` at CPU
    /// level `f` and of `gpu_job` at GPU level `g` when co-running.
    pub fn predict_pair_degradation(
        &self,
        cfg: &MachineConfig,
        cpu_job: &JobProfile,
        f: usize,
        gpu_job: &JobProfile,
        g: usize,
    ) -> PerDevice<f64> {
        let setting = FreqSetting::new(f, g);
        let cpu_ghz = cfg.freqs.ghz(Device::Cpu, setting);
        let gpu_ghz = cfg.freqs.ghz(Device::Gpu, setting);
        let dc = cpu_job.demand(Device::Cpu, f);
        let dg = gpu_job.demand(Device::Gpu, g);
        PerDevice::new(
            self.degradation_at(Device::Cpu, dc, dg, cpu_ghz, gpu_ghz),
            self.degradation_at(Device::Gpu, dg, dc, cpu_ghz, gpu_ghz),
        )
    }

    /// Predicted co-run *times* for a steady co-run of the pair (both jobs
    /// running for their whole duration): `l * (1 + d)`.
    pub fn predict_pair_times(
        &self,
        cfg: &MachineConfig,
        cpu_job: &JobProfile,
        f: usize,
        gpu_job: &JobProfile,
        g: usize,
    ) -> PerDevice<f64> {
        let d = self.predict_pair_degradation(cfg, cpu_job, f, gpu_job, g);
        PerDevice::new(
            cpu_job.time(Device::Cpu, f) * (1.0 + d.cpu),
            gpu_job.time(Device::Gpu, g) * (1.0 + d.gpu),
        )
    }

    /// Predicted co-run package power: sum of standalone powers minus the
    /// double-counted idle package power. Either side may be absent (solo).
    pub fn predict_power(
        &self,
        cpu_job: Option<(&JobProfile, usize)>,
        gpu_job: Option<(&JobProfile, usize)>,
    ) -> f64 {
        match (cpu_job, gpu_job) {
            (Some((cj, f)), Some((gj, g))) => {
                cj.power(Device::Cpu, f) + gj.power(Device::Gpu, g) - self.idle_power_w
            }
            (Some((cj, f)), None) => cj.power(Device::Cpu, f),
            (None, Some((gj, g))) => gj.power(Device::Gpu, g),
            (None, None) => self.idle_power_w,
        }
    }

    /// Whether a pair (or solo run) fits under `cap_w` at the given levels.
    pub fn fits_cap(
        &self,
        cpu_job: Option<(&JobProfile, usize)>,
        gpu_job: Option<(&JobProfile, usize)>,
        cap_w: f64,
    ) -> bool {
        self.predict_power(cpu_job, gpu_job) <= cap_w
    }
}

fn dedup_sorted(v: &mut Vec<f64>) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
}

fn position(axis: &[f64], x: f64) -> usize {
    axis.iter()
        .position(|&v| (v - x).abs() < 1e-9)
        .expect("stage clock must be on the axis")
}

/// Bracket `x` in `axis` (clamped), returning `(lo, hi, weight)`.
fn bracket(axis: &[f64], x: f64) -> (usize, usize, f64) {
    let n = axis.len();
    if n == 1 || x <= axis[0] {
        return (0, 0, 0.0);
    }
    if x >= axis[n - 1] {
        return (n - 1, n - 1, 0.0);
    }
    let mut lo = 0;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if axis[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizeConfig};
    use crate::profile::{profile_job, ProfileMethod};
    use apu_sim::MachineConfig;

    fn predictor(cfg: &MachineConfig) -> StagedPredictor {
        let mut ccfg = CharacterizeConfig::fast(cfg);
        ccfg.grid_points = 5;
        ccfg.micro_duration_s = 2.0;
        StagedPredictor::new(cfg, characterize(cfg, &ccfg))
    }

    #[test]
    fn bracket_clamps_and_interpolates() {
        let axis = vec![1.0, 2.0, 4.0];
        assert_eq!(bracket(&axis, 0.5), (0, 0, 0.0));
        assert_eq!(bracket(&axis, 9.0), (2, 2, 0.0));
        let (lo, hi, t) = bracket(&axis, 3.0);
        assert_eq!((lo, hi), (1, 2));
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_demand_predicts_zero_degradation() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let d = p.degradation_at(Device::Cpu, 0.0, 0.0, 3.6, 1.25);
        assert!(d < 0.03, "got {d}");
    }

    #[test]
    fn heavy_pair_predicts_heavy_degradation() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let d_cpu = p.degradation_at(Device::Cpu, 10.0, 10.0, 3.6, 1.25);
        let d_gpu = p.degradation_at(Device::Gpu, 10.0, 10.0, 3.6, 1.25);
        assert!(d_cpu > 0.35, "cpu {d_cpu}");
        assert!(d_gpu > 0.25, "gpu {d_gpu}");
        assert!(d_cpu > d_gpu, "cpu suffers more at the high-high corner");
    }

    #[test]
    fn degradation_monotone_in_co_demand() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let mut prev = 0.0;
        for co in [0.0, 3.0, 6.0, 9.0, 11.0] {
            let d = p.degradation_at(Device::Gpu, 7.0, co, 3.6, 1.25);
            assert!(d + 0.05 >= prev, "not monotone at co={co}");
            prev = d;
        }
    }

    #[test]
    fn interpolates_between_stages() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let lo = p.degradation_at(Device::Cpu, 8.0, 8.0, 1.2, 0.35);
        let hi = p.degradation_at(Device::Cpu, 8.0, 8.0, 3.6, 1.25);
        let mid = p.degradation_at(Device::Cpu, 8.0, 8.0, 2.4, 0.8);
        let (a, b) = if lo < hi { (lo, hi) } else { (hi, lo) };
        assert!(
            mid >= a - 0.05 && mid <= b + 0.05,
            "mid {mid} outside [{a},{b}]"
        );
    }

    #[test]
    fn pair_prediction_reasonable_for_real_programs() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let sc = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "streamcluster").unwrap(),
            ProfileMethod::Analytic,
        );
        let cfd = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "cfd").unwrap(),
            ProfileMethod::Analytic,
        );
        let f = cfg.freqs.cpu.max_level();
        let g = cfg.freqs.gpu.max_level();
        let d = p.predict_pair_degradation(&cfg, &cfd, f, &sc, g);
        // two heavy streamers: both sides degrade, the GPU side (higher
        // own demand) more than the moderate-demand CPU side
        assert!(d.cpu > 0.005, "cpu side {}", d.cpu);
        assert!(d.gpu > 0.015, "gpu side {}", d.gpu);
        assert!(d.gpu > d.cpu);
        let t = p.predict_pair_times(&cfg, &cfd, f, &sc, g);
        assert!(t.cpu > cfd.time(Device::Cpu, f));
        assert!(t.gpu > sc.time(Device::Gpu, g));
    }

    #[test]
    fn power_prediction_composes_standalone() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let a = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "lud").unwrap(),
            ProfileMethod::Analytic,
        );
        let b = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "srad").unwrap(),
            ProfileMethod::Analytic,
        );
        let f = cfg.freqs.cpu.max_level();
        let g = cfg.freqs.gpu.max_level();
        let solo_a = p.predict_power(Some((&a, f)), None);
        let solo_b = p.predict_power(None, Some((&b, g)));
        let both = p.predict_power(Some((&a, f)), Some((&b, g)));
        assert!(both > solo_a && both > solo_b);
        assert!((both - (solo_a + solo_b - crate::profile::idle_package_power(&cfg))).abs() < 1e-9);
        assert!(p.predict_power(None, None) > 0.0);
    }

    #[test]
    fn fits_cap_consistent_with_power() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let a = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "heartwall").unwrap(),
            ProfileMethod::Analytic,
        );
        let b = profile_job(
            &cfg,
            &kernels::by_name(&cfg, "hotspot").unwrap(),
            ProfileMethod::Analytic,
        );
        let f = cfg.freqs.cpu.max_level();
        let g = cfg.freqs.gpu.max_level();
        let w = p.predict_power(Some((&a, f)), Some((&b, g)));
        assert!(!p.fits_cap(Some((&a, f)), Some((&b, g)), w - 0.1));
        assert!(p.fits_cap(Some((&a, f)), Some((&b, g)), w + 0.1));
        // At the lowest levels the pair must fit a 15 W cap.
        assert!(p.fits_cap(Some((&a, 0)), Some((&b, 0)), 15.0));
    }

    #[test]
    #[should_panic(expected = "complete frequency grid")]
    fn incomplete_stage_grid_rejected() {
        let cfg = MachineConfig::ivy_bridge();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 3;
        ccfg.micro_duration_s = 1.0;
        let mut stages = characterize(&cfg, &ccfg);
        stages.pop(); // break the grid
        let _ = StagedPredictor::new(&cfg, stages);
    }
}
