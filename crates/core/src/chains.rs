//! Long-job / short-jobs chain analysis.
//!
//! The paper's introduction singles this interplay out: "a long job may
//! need to co-run with a sequence of short jobs and the lengths of a job
//! vary along with the power allocation and memory contention." This module
//! provides the arithmetic and a solver for exactly that sub-problem: one
//! long job pinned to a device, a set of short jobs to be sequenced on the
//! other device, the long job's remaining work stretching under each
//! partner in turn (the evaluator's partial-overlap rule applied
//! repeatedly).

use crate::model::{CoRunModel, JobId};
use apu_sim::Device;

/// Completion outcome of a chain co-run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainOutcome {
    /// When the long job finishes.
    pub long_finish_s: f64,
    /// When each short job finishes, in sequence order.
    pub short_finish_s: Vec<f64>,
    /// Makespan (max of all finishes).
    pub makespan_s: f64,
}

/// Simulate (in the model) the long job `long` on `long_device` at
/// `long_level`, co-running against `sequence` executed in order on the
/// other device at the given levels. Short jobs past the long job's
/// completion run un-degraded; the long job runs un-degraded once the
/// sequence drains.
pub fn chain_completion(
    model: &dyn CoRunModel,
    long: JobId,
    long_device: Device,
    long_level: usize,
    sequence: &[(JobId, usize)],
) -> ChainOutcome {
    let short_device = long_device.other();
    let mut t = 0.0_f64;
    let mut long_remaining = model.standalone(long, long_device, long_level);
    let mut short_finish = Vec::with_capacity(sequence.len());

    for &(short, short_level) in sequence {
        let mut short_remaining = model.standalone(short, short_device, short_level);
        if long_remaining > 1e-12 {
            let s_long = 1.0 + model.degradation(long, long_device, long_level, short, short_level);
            let s_short =
                1.0 + model.degradation(short, short_device, short_level, long, long_level);
            let t_long = long_remaining * s_long;
            let t_short = short_remaining * s_short;
            if t_short <= t_long {
                // Short finishes first: long ran degraded the whole time.
                t += t_short;
                long_remaining -= t_short / s_long;
                short_remaining = 0.0;
            } else {
                // Long finishes first: short continues clean.
                t += t_long;
                short_remaining -= t_long / s_short;
                long_remaining = 0.0;
            }
        }
        // Whatever remains of the short job runs un-degraded.
        t += short_remaining;
        short_finish.push(t);
        // If the long job is done, the remaining shorts just queue up; if
        // the short finished first, loop to the next short with the long
        // still running.
    }
    // Drain the long job after the sequence.
    let long_finish = if long_remaining > 1e-12 {
        // time so far spent co-running; shorts consumed `t` seconds total,
        // but the long job only ran while shorts overlapped it. The long
        // job has been running since t=0 continuously, so its finish is
        // now + remaining clean time.
        t.max(0.0) + long_remaining
    } else {
        // finished during some short's window; reconstruct: it finished
        // when remaining hit zero, which was at the segment boundary time
        // recorded in `t` at that moment. For reporting, recompute below.
        f64::NAN
    };

    // Recompute the long finish exactly with a second pass when it ended
    // mid-sequence (cheap and keeps the hot loop simple).
    let long_finish = if long_finish.is_nan() {
        let mut t2 = 0.0_f64;
        let mut rem = model.standalone(long, long_device, long_level);
        let mut out = 0.0;
        for &(short, short_level) in sequence {
            let s_long = 1.0 + model.degradation(long, long_device, long_level, short, short_level);
            let s_short =
                1.0 + model.degradation(short, short_device, short_level, long, long_level);
            let t_long = rem * s_long;
            let t_short = model.standalone(short, short_device, short_level) * s_short;
            if t_long <= t_short {
                out = t2 + t_long;
                break;
            }
            t2 += t_short;
            rem -= t_short / s_long;
        }
        out
    } else {
        long_finish
    };

    let makespan = short_finish.iter().copied().fold(long_finish, f64::max);
    ChainOutcome {
        long_finish_s: long_finish,
        short_finish_s: short_finish,
        makespan_s: makespan,
    }
}

/// Find the ordering of `shorts` (each with a fixed level) that minimizes
/// the chain makespan against `long`. Exhaustive for up to 8 shorts,
/// greedy (least marginal makespan growth) beyond.
pub fn best_sequence(
    model: &dyn CoRunModel,
    long: JobId,
    long_device: Device,
    long_level: usize,
    shorts: &[(JobId, usize)],
) -> (Vec<(JobId, usize)>, ChainOutcome) {
    if shorts.len() <= 8 {
        let mut best: Option<(Vec<(JobId, usize)>, ChainOutcome)> = None;
        permute(&mut shorts.to_vec(), 0, &mut |perm| {
            let out = chain_completion(model, long, long_device, long_level, perm);
            if best
                .as_ref()
                .is_none_or(|(_, b)| out.makespan_s < b.makespan_s)
            {
                best = Some((perm.to_vec(), out));
            }
        });
        best.expect("non-empty permutation set")
    } else {
        // Greedy: repeatedly append the short job that grows the makespan
        // the least.
        let mut remaining: Vec<(JobId, usize)> = shorts.to_vec();
        let mut seq: Vec<(JobId, usize)> = Vec::with_capacity(shorts.len());
        while !remaining.is_empty() {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &cand)| {
                    let mut trial = seq.clone();
                    trial.push(cand);
                    let out = chain_completion(model, long, long_device, long_level, &trial);
                    (i, out.makespan_s)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            seq.push(remaining.remove(idx));
        }
        let out = chain_completion(model, long, long_device, long_level, &seq);
        (seq, out)
    }
}

fn permute<T: Clone>(items: &mut Vec<T>, k: usize, visit: &mut impl FnMut(&[T])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::model::test_model::synthetic;
    use crate::model::TableModel;
    use crate::schedule::{Assignment, Schedule};

    #[test]
    fn chain_matches_evaluator() {
        // The chain arithmetic must agree with the general evaluator when
        // expressed as a schedule.
        let m = synthetic(5, 4, 4);
        let long = 0;
        let seq = [(1usize, 3usize), (2, 2), (3, 3), (4, 1)];
        let chain = chain_completion(&m, long, Device::Gpu, 3, &seq);
        let mut s = Schedule::new();
        s.gpu.push(Assignment {
            job: long,
            level: 3,
        });
        for &(j, l) in &seq {
            s.cpu.push(Assignment { job: j, level: l });
        }
        let ev = evaluate(&m, &s, None);
        assert!(
            (chain.makespan_s - ev.makespan_s).abs() < 1e-6,
            "chain {} vs evaluator {}",
            chain.makespan_s,
            ev.makespan_s
        );
        assert!(
            (chain.long_finish_s - ev.finish_s[long].unwrap()).abs() < 1e-6,
            "long finish"
        );
        for (k, &(j, _)) in seq.iter().enumerate() {
            assert!(
                (chain.short_finish_s[k] - ev.finish_s[j].unwrap()).abs() < 1e-6,
                "short {j}"
            );
        }
    }

    #[test]
    fn empty_sequence_is_solo() {
        let m = synthetic(3, 4, 4);
        let c = chain_completion(&m, 1, Device::Cpu, 3, &[]);
        assert!((c.long_finish_s - m.standalone(1, Device::Cpu, 3)).abs() < 1e-9);
        assert!(c.short_finish_s.is_empty());
    }

    #[test]
    fn best_sequence_no_worse_than_given_order() {
        let m = synthetic(6, 4, 4);
        let shorts: Vec<(usize, usize)> = (1..6).map(|j| (j, 3)).collect();
        let given = chain_completion(&m, 0, Device::Gpu, 3, &shorts);
        let (seq, best) = best_sequence(&m, 0, Device::Gpu, 3, &shorts);
        assert!(best.makespan_s <= given.makespan_s + 1e-9);
        assert_eq!(seq.len(), 5);
        let mut sorted: Vec<usize> = seq.iter().map(|&(j, _)| j).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5], "a permutation of the shorts");
    }

    #[test]
    fn ordering_matters_with_asymmetric_interference() {
        // Long job 0; short job 1 interferes heavily with it, job 2 hardly.
        // Running the hostile short while the long job still runs hurts;
        // the best order schedules the hostile one late if the long job
        // can finish first.
        let m = TableModel::build(
            vec!["long".into(), "hostile".into(), "gentle".into()],
            2,
            2,
            4.0,
            |i, _d, _f| match i {
                0 => 10.0,
                _ => 8.0,
            },
            |i, _d, _f, j, _g| match (i, j) {
                (0, 1) | (1, 0) => 0.9, // hostile pair
                _ => 0.02,
            },
            |_i, _d, _f| 5.0,
        );
        let a = chain_completion(&m, 0, Device::Gpu, 1, &[(1, 1), (2, 1)]);
        let b = chain_completion(&m, 0, Device::Gpu, 1, &[(2, 1), (1, 1)]);
        assert!(
            b.makespan_s < a.makespan_s,
            "gentle-first {} must beat hostile-first {}",
            b.makespan_s,
            a.makespan_s
        );
        let (seq, _) = best_sequence(&m, 0, Device::Gpu, 1, &[(1, 1), (2, 1)]);
        assert_eq!(seq[0].0, 2, "solver must put the gentle job first");
    }

    #[test]
    fn greedy_path_used_for_large_sets() {
        let m = synthetic(12, 3, 3);
        let shorts: Vec<(usize, usize)> = (1..12).map(|j| (j, 2)).collect();
        let (seq, out) = best_sequence(&m, 0, Device::Gpu, 2, &shorts);
        assert_eq!(seq.len(), 11);
        assert!(out.makespan_s > 0.0);
    }
}
