//! Model-based schedule evaluation: predicted makespan, per-job finish
//! times, and power-cap compliance.
//!
//! The evaluator replays a [`Schedule`] against a [`CoRunModel`] as a
//! sequence of steady segments. Within a segment the device occupancy is
//! fixed, so each running job progresses at `1 / (1 + d)` of its standalone
//! rate, where `d` comes from the model for the current pair and levels;
//! when either job completes, the next segment begins (this generalizes the
//! partial-overlap arithmetic of the paper's Section IV-B side note to whole
//! queues).

use crate::model::{CoRunModel, JobId};
use crate::schedule::Schedule;
use apu_sim::Device;

/// One steady segment of the evaluated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start, seconds.
    pub t0: f64,
    /// Segment end, seconds.
    pub t1: f64,
    /// `(job, level)` on the CPU, if any.
    pub cpu: Option<(JobId, usize)>,
    /// `(job, level)` on the GPU, if any.
    pub gpu: Option<(JobId, usize)>,
    /// Predicted package power over the segment, watts.
    pub power_w: f64,
}

/// Result of evaluating a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Predicted makespan, seconds.
    pub makespan_s: f64,
    /// Per-job predicted finish time (`None` if the job was not scheduled).
    pub finish_s: Vec<Option<f64>>,
    /// Peak predicted power across segments, watts.
    pub peak_power_w: f64,
    /// Whether every segment fit under the cap (always true without a cap).
    pub cap_ok: bool,
    /// The steady segments of the timeline.
    pub segments: Vec<Segment>,
}

struct Active {
    job: JobId,
    level: usize,
    /// Remaining work in standalone-seconds.
    remaining: f64,
}

/// Evaluate `schedule` under `model`; if `cap_w` is given, segments whose
/// predicted power exceeds it are flagged (`cap_ok = false`).
pub fn evaluate(model: &dyn CoRunModel, schedule: &Schedule, cap_w: Option<f64>) -> EvalReport {
    const EPS: f64 = 1e-9;
    let n = model.len();
    let mut finish: Vec<Option<f64>> = vec![None; n];
    let mut segments = Vec::new();
    let mut peak: f64 = 0.0;
    let mut cap_ok = true;
    let mut t = 0.0_f64;

    let mut cpu_q = schedule.cpu.iter();
    let mut gpu_q = schedule.gpu.iter();
    let mut cpu: Option<Active> = None;
    let mut gpu: Option<Active> = None;

    loop {
        if cpu.is_none() {
            cpu = cpu_q.next().map(|a| Active {
                job: a.job,
                level: a.level,
                remaining: model.standalone(a.job, Device::Cpu, a.level),
            });
        }
        if gpu.is_none() {
            gpu = gpu_q.next().map(|a| Active {
                job: a.job,
                level: a.level,
                remaining: model.standalone(a.job, Device::Gpu, a.level),
            });
        }
        if cpu.is_none() && gpu.is_none() {
            break;
        }

        // Slowdown factors for the current occupancy.
        let (s_cpu, s_gpu) = match (&cpu, &gpu) {
            (Some(c), Some(g)) => (
                1.0 + model.degradation(c.job, Device::Cpu, c.level, g.job, g.level),
                1.0 + model.degradation(g.job, Device::Gpu, g.level, c.job, c.level),
            ),
            _ => (1.0, 1.0),
        };

        // Time until the nearest completion.
        let dt_cpu = cpu.as_ref().map(|c| c.remaining * s_cpu);
        let dt_gpu = gpu.as_ref().map(|g| g.remaining * s_gpu);
        let dt = match (dt_cpu, dt_gpu) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!(),
        };

        let power = model.corun_power(
            cpu.as_ref().map(|c| (c.job, c.level)),
            gpu.as_ref().map(|g| (g.job, g.level)),
        );
        peak = peak.max(power);
        if let Some(cap) = cap_w {
            if power > cap + 1e-9 {
                cap_ok = false;
            }
        }
        segments.push(Segment {
            t0: t,
            t1: t + dt,
            cpu: cpu.as_ref().map(|c| (c.job, c.level)),
            gpu: gpu.as_ref().map(|g| (g.job, g.level)),
            power_w: power,
        });

        t += dt;
        if let Some(c) = &mut cpu {
            c.remaining -= dt / s_cpu;
            if c.remaining <= EPS {
                finish[c.job] = Some(t);
                cpu = None;
            }
        }
        if let Some(g) = &mut gpu {
            g.remaining -= dt / s_gpu;
            if g.remaining <= EPS {
                finish[g.job] = Some(t);
                gpu = None;
            }
        }
    }

    // Solo tail: strictly sequential, one device busy at a time.
    for s in &schedule.solo_tail {
        let l = model.standalone(s.job, s.device, s.level);
        let power = match s.device {
            Device::Cpu => model.corun_power(Some((s.job, s.level)), None),
            Device::Gpu => model.corun_power(None, Some((s.job, s.level))),
        };
        peak = peak.max(power);
        if let Some(cap) = cap_w {
            if power > cap + 1e-9 {
                cap_ok = false;
            }
        }
        segments.push(Segment {
            t0: t,
            t1: t + l,
            cpu: (s.device == Device::Cpu).then_some((s.job, s.level)),
            gpu: (s.device == Device::Gpu).then_some((s.job, s.level)),
            power_w: power,
        });
        t += l;
        finish[s.job] = Some(t);
    }

    EvalReport {
        makespan_s: t,
        finish_s: finish,
        peak_power_w: peak,
        cap_ok,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_model::synthetic;
    use crate::model::TableModel;
    use crate::schedule::{Assignment, SoloRun};
    use crate::theorem::pair_completion;

    fn flat_model(n: usize, time: f64, deg: f64) -> TableModel {
        TableModel::build(
            (0..n).map(|i| format!("j{i}")).collect(),
            2,
            2,
            4.0,
            move |_i, _d, f| time * if f == 1 { 1.0 } else { 2.0 },
            move |_i, _d, _f, _j, _g| deg,
            |_i, _d, f| 5.0 + f as f64 * 4.0,
        )
    }

    #[test]
    fn empty_schedule_is_zero() {
        let m = flat_model(2, 10.0, 0.1);
        let r = evaluate(&m, &Schedule::new(), None);
        assert_eq!(r.makespan_s, 0.0);
        assert!(r.segments.is_empty());
        assert!(r.cap_ok);
    }

    #[test]
    fn single_solo_job() {
        let m = flat_model(1, 10.0, 0.5);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 1 });
        let r = evaluate(&m, &s, None);
        assert!((r.makespan_s - 10.0).abs() < 1e-9);
        assert_eq!(r.finish_s[0], Some(r.makespan_s));
    }

    #[test]
    fn pair_matches_theorem_arithmetic() {
        let m = flat_model(2, 10.0, 0.25);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 1 });
        s.gpu.push(Assignment { job: 1, level: 1 });
        let r = evaluate(&m, &s, None);
        let (t1, t2) = pair_completion(10.0, 0.25, 10.0, 0.25);
        assert!((r.finish_s[0].unwrap() - t1).abs() < 1e-9);
        assert!((r.finish_s[1].unwrap() - t2).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_pair_of_unequal_lengths() {
        // job 0 at level 0 is 20s, job 1 at level 1 is 10s, deg 0.25 each.
        let m = flat_model(2, 10.0, 0.25);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 0 });
        s.gpu.push(Assignment { job: 1, level: 1 });
        let r = evaluate(&m, &s, None);
        let (t_long, t_short) = pair_completion(20.0, 0.25, 10.0, 0.25);
        assert!((r.finish_s[1].unwrap() - t_short).abs() < 1e-9);
        assert!((r.finish_s[0].unwrap() - t_long).abs() < 1e-9);
        assert!((r.makespan_s - t_long).abs() < 1e-9);
    }

    #[test]
    fn queue_succession() {
        // CPU: a 10s then a 20s job; GPU: one 20s job, all with deg 0.25.
        // Segments: (0,2) co-run until 12.5; (1,2) co-run until 2 ends at
        // 25; then job 1's remaining 10 standalone-seconds run clean.
        let m = flat_model(3, 10.0, 0.25);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 1 });
        s.cpu.push(Assignment { job: 1, level: 0 });
        s.gpu.push(Assignment { job: 2, level: 0 });
        let r = evaluate(&m, &s, None);
        assert_eq!(r.segments.len(), 3);
        assert!((r.finish_s[0].unwrap() - 12.5).abs() < 1e-9);
        assert!((r.finish_s[2].unwrap() - 25.0).abs() < 1e-9);
        assert!((r.makespan_s - 35.0).abs() < 1e-9);
        assert!(r.finish_s.iter().all(std::option::Option::is_some));
    }

    #[test]
    fn solo_tail_is_sequential_and_uncontended() {
        let m = flat_model(2, 10.0, 0.9);
        let mut s = Schedule::new();
        s.solo_tail.push(SoloRun {
            job: 0,
            device: Device::Cpu,
            level: 1,
        });
        s.solo_tail.push(SoloRun {
            job: 1,
            device: Device::Gpu,
            level: 1,
        });
        let r = evaluate(&m, &s, None);
        assert!((r.makespan_s - 20.0).abs() < 1e-9);
        assert_eq!(r.finish_s[0], Some(10.0));
        assert_eq!(r.finish_s[1], Some(20.0));
    }

    #[test]
    fn cap_violation_detected() {
        let m = flat_model(2, 10.0, 0.1);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 1 });
        s.gpu.push(Assignment { job: 1, level: 1 });
        // pair power = 9 + 9 - 4 = 14
        let ok = evaluate(&m, &s, Some(14.5));
        assert!(ok.cap_ok);
        assert!((ok.peak_power_w - 14.0).abs() < 1e-9);
        let bad = evaluate(&m, &s, Some(13.5));
        assert!(!bad.cap_ok);
    }

    #[test]
    fn lower_levels_fit_cap() {
        let m = flat_model(2, 10.0, 0.1);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 0 });
        s.gpu.push(Assignment { job: 1, level: 0 });
        // pair power = 5 + 5 - 4 = 6
        let r = evaluate(&m, &s, Some(13.5));
        assert!(r.cap_ok);
        assert!(r.makespan_s > 20.0, "low levels run slower");
    }

    #[test]
    fn segments_tile_the_timeline() {
        let m = synthetic(6, 4, 4);
        let mut s = Schedule::new();
        for i in 0..3 {
            s.cpu.push(Assignment { job: i, level: 3 });
        }
        for i in 3..6 {
            s.gpu.push(Assignment { job: i, level: 3 });
        }
        let r = evaluate(&m, &s, None);
        assert!(!r.segments.is_empty());
        assert!((r.segments[0].t0 - 0.0).abs() < 1e-12);
        for w in r.segments.windows(2) {
            assert!(
                (w[0].t1 - w[1].t0).abs() < 1e-9,
                "segments must be contiguous"
            );
        }
        assert!((r.segments.last().unwrap().t1 - r.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn makespan_is_max_finish() {
        let m = synthetic(5, 4, 4);
        let mut s = Schedule::new();
        s.cpu.push(Assignment { job: 0, level: 2 });
        s.cpu.push(Assignment { job: 1, level: 3 });
        s.gpu.push(Assignment { job: 2, level: 1 });
        s.gpu.push(Assignment { job: 3, level: 3 });
        s.solo_tail.push(SoloRun {
            job: 4,
            device: Device::Gpu,
            level: 3,
        });
        let r = evaluate(&m, &s, None);
        let max_finish = r.finish_s.iter().flatten().fold(0.0_f64, |a, &b| a.max(b));
        assert!((r.makespan_s - max_finish).abs() < 1e-9);
    }
}
