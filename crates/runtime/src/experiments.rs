//! Programmatic versions of the paper's headline studies, shared by the
//! experiment binaries and the test suite.

use crate::oracle::measure_pair_truth;
use crate::pipeline::CoScheduleRuntime;
use apu_sim::{Bias, FreqSetting, JobSpec, MachineConfig};
use crossbeam::thread;
use perf_model::{relative_error, ErrorHistogram, JobProfile, StagedPredictor};

/// Results of a Figure-10/11-style speedup study.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupStudy {
    /// Random baseline, averaged over seeds (GPU-biased governor).
    pub random_avg_s: f64,
    /// Default with the GPU-biased governor.
    pub default_g_s: f64,
    /// Default with the CPU-biased governor.
    pub default_c_s: f64,
    /// HCS (planned execution).
    pub hcs_s: f64,
    /// HCS+ (planned execution).
    pub hcs_plus_s: f64,
    /// The paper's lower bound.
    pub bound_s: f64,
}

impl SpeedupStudy {
    /// Speedup of `span` over the random baseline (the paper's y-axis).
    pub fn speedup_over_random(&self, span_s: f64) -> f64 {
        self.random_avg_s / span_s - 1.0
    }
}

/// Run the full speedup comparison on an assembled runtime.
pub fn speedup_study(rt: &CoScheduleRuntime, random_seeds: std::ops::Range<u64>) -> SpeedupStudy {
    let random_avg_s = rt.random_avg_makespan(random_seeds);
    let default = rt.schedule_default();
    SpeedupStudy {
        random_avg_s,
        default_g_s: rt.execute_default(&default, Bias::Gpu).makespan_s,
        default_c_s: rt.execute_default(&default, Bias::Cpu).makespan_s,
        hcs_s: rt.execute_planned(&rt.schedule_hcs().schedule).makespan_s,
        hcs_plus_s: rt.execute_planned(&rt.schedule_hcs_plus()).makespan_s,
        bound_s: rt.lower_bound().t_low_s,
    }
}

/// Figure-7-style model-accuracy study over every ordered pair of a batch
/// at one frequency setting. Ground truth comes from steady-state co-runs
/// on the simulator, fanned out over worker threads.
pub fn perf_model_errors(
    cfg: &MachineConfig,
    jobs: &[JobSpec],
    profiles: &[JobProfile],
    predictor: &StagedPredictor,
    setting: FreqSetting,
) -> ErrorHistogram {
    let n = jobs.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let n_threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let chunk = pairs.len().div_ceil(n_threads);
    let errors: Vec<Vec<f64>> = thread::scope(|s| {
        pairs
            .chunks(chunk)
            .map(|ch| {
                s.spawn(move |_| {
                    ch.iter()
                        .flat_map(|&(ci, gi)| {
                            let truth = measure_pair_truth(cfg, &jobs[ci], &jobs[gi], setting);
                            let pred = predictor.predict_pair_times(
                                cfg,
                                &profiles[ci],
                                setting.cpu,
                                &profiles[gi],
                                setting.gpu,
                            );
                            [
                                relative_error(pred.cpu, truth.cpu_time_s),
                                relative_error(pred.gpu, truth.gpu_time_s),
                            ]
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    })
    .expect("scope");
    let mut hist = ErrorHistogram::paper_buckets();
    for e in errors.into_iter().flatten() {
        hist.add(e);
    }
    hist
}

/// Best cap-feasible frequency setting for one ordered pair by predicted
/// conservative makespan; `None` if no setting fits the cap.
pub fn best_pair_setting(
    cfg: &MachineConfig,
    profiles: &[JobProfile],
    predictor: &StagedPredictor,
    cpu_job: usize,
    gpu_job: usize,
    cap_w: f64,
) -> Option<FreqSetting> {
    let mut best: Option<(FreqSetting, f64)> = None;
    for f in 0..cfg.freqs.cpu.len() {
        for g in 0..cfg.freqs.gpu.len() {
            let power = predictor
                .predict_power(Some((&profiles[cpu_job], f)), Some((&profiles[gpu_job], g)));
            if power > cap_w {
                continue;
            }
            let t = predictor.predict_pair_times(cfg, &profiles[cpu_job], f, &profiles[gpu_job], g);
            let span = t.cpu.max(t.gpu);
            if best.is_none_or(|(_, b)| span < b) {
                best = Some((FreqSetting::new(f, g), span));
            }
        }
    }
    best.map(|(s, _)| s)
}

/// Figure-8-style power-model error study over every ordered pair, each at
/// its best cap-feasible setting.
pub fn power_model_errors(
    cfg: &MachineConfig,
    jobs: &[JobSpec],
    profiles: &[JobProfile],
    predictor: &StagedPredictor,
    cap_w: f64,
) -> ErrorHistogram {
    let n = jobs.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let n_threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let chunk = pairs.len().div_ceil(n_threads);
    let errors: Vec<Vec<f64>> = thread::scope(|s| {
        pairs
            .chunks(chunk)
            .map(|ch| {
                s.spawn(move |_| {
                    ch.iter()
                        .filter_map(|&(ci, gi)| {
                            let setting =
                                best_pair_setting(cfg, profiles, predictor, ci, gi, cap_w)?;
                            let truth = measure_pair_truth(cfg, &jobs[ci], &jobs[gi], setting);
                            let pred = predictor.predict_power(
                                Some((&profiles[ci], setting.cpu)),
                                Some((&profiles[gi], setting.gpu)),
                            );
                            Some(relative_error(pred, truth.corun_power_w))
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    })
    .expect("scope");
    let mut hist = ErrorHistogram::power_buckets();
    for e in errors.into_iter().flatten() {
        hist.add(e);
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RuntimeConfig;

    fn small_rt() -> CoScheduleRuntime {
        let machine = MachineConfig::ivy_bridge();
        let jobs: Vec<JobSpec> = kernels::rodinia8(&machine)
            .jobs
            .iter()
            .take(5)
            .map(|j| kernels::with_input_scale(j, 0.1))
            .collect();
        let mut cfg = RuntimeConfig::fast(&machine);
        cfg.cap_w = 15.0;
        CoScheduleRuntime::new(machine, jobs, cfg)
    }

    #[test]
    fn speedup_study_is_internally_consistent() {
        let rt = small_rt();
        let s = speedup_study(&rt, 0..3);
        assert!(s.hcs_plus_s <= s.random_avg_s, "HCS+ beats random");
        assert!(s.bound_s <= s.hcs_plus_s * 1.05, "bound below achieved");
        assert!(s.speedup_over_random(s.hcs_plus_s) >= 0.0);
        assert!((s.speedup_over_random(s.random_avg_s)).abs() < 1e-9);
    }

    #[test]
    fn perf_errors_cover_all_pairs() {
        let rt = small_rt();
        let h = perf_model_errors(
            rt.machine(),
            rt.jobs(),
            rt.profiles(),
            rt.predictor(),
            rt.machine().freqs.max_setting(),
        );
        assert_eq!(h.len(), 2 * 5 * 5, "two predictions per ordered pair");
        assert!(h.mean() < 0.6, "errors stay bounded: {}", h.mean());
    }

    #[test]
    fn best_pair_setting_respects_cap() {
        let rt = small_rt();
        let s = best_pair_setting(rt.machine(), rt.profiles(), rt.predictor(), 0, 1, 15.0)
            .expect("feasible setting exists");
        let p = rt.predictor().predict_power(
            Some((&rt.profiles()[0], s.cpu)),
            Some((&rt.profiles()[1], s.gpu)),
        );
        assert!(p <= 15.0 + 1e-9);
        // an impossible cap yields None
        assert!(
            best_pair_setting(rt.machine(), rt.profiles(), rt.predictor(), 0, 1, 0.5).is_none()
        );
    }

    #[test]
    fn power_errors_bounded() {
        let rt = small_rt();
        let h = power_model_errors(rt.machine(), rt.jobs(), rt.profiles(), rt.predictor(), 16.0);
        assert_eq!(h.len(), 25);
        assert!(h.mean() < 0.25, "power model accurate: {}", h.mean());
    }
}
