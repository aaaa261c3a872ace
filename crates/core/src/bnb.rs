//! Branch-and-bound optimal co-schedule search for small batches.
//!
//! The paper notes that prior work used A*-search to co-schedule jobs on
//! homogeneous multicores (Tian et al.), and argues such searches do not
//! answer the frequency/placement questions of the integrated, power-capped
//! setting. This module generalizes the idea to that setting: it searches
//! over device placements and dispatch orders, assigns each job the
//! cap-feasible level that maximizes its performance against the co-runner
//! present at its dispatch (the same level rule HCS uses), and prunes with
//! an admissible bound. Exponential — use for `n <= ~9` as an oracle to
//! measure how far HCS/HCS+ sit from the constrained optimum.

use crate::evaluate::evaluate;
use crate::freqgrid::{best_solo_run, feasible_pair_settings};
use crate::model::{CoRunModel, JobId};
use crate::schedule::{Assignment, Schedule};
use apu_sim::Device;

/// Result of the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BnbResult {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its model-predicted makespan.
    pub makespan_s: f64,
    /// Nodes expanded.
    pub expanded: usize,
    /// Nodes pruned by the bound.
    pub pruned: usize,
}

/// Search configuration.
#[derive(Debug, Clone)]
pub struct BnbConfig {
    /// Power cap (infinite to disable).
    pub cap_w: f64,
    /// Hard limit on expanded nodes (the search returns the best schedule
    /// found so far once exceeded). Guards against misuse on large batches.
    pub node_limit: usize,
}

impl BnbConfig {
    /// Default configuration for a given cap.
    pub fn new(cap_w: f64) -> Self {
        BnbConfig {
            cap_w,
            node_limit: 2_000_000,
        }
    }
}

struct SearchState<'a> {
    model: &'a dyn CoRunModel,
    cfg: &'a BnbConfig,
    /// Fastest possible time of each job anywhere under the cap (for the
    /// admissible remaining-work bound).
    min_time: Vec<f64>,
    best: Option<(Schedule, f64)>,
    expanded: usize,
    pruned: usize,
}

/// Run the search.
///
/// # Panics
/// Panics on an empty batch.
pub fn branch_and_bound(model: &dyn CoRunModel, cfg: &BnbConfig) -> BnbResult {
    let n = model.len();
    assert!(n >= 1, "empty batch");

    let min_time: Vec<f64> = (0..n)
        .map(|i| {
            Device::ALL
                .iter()
                .filter_map(|&d| best_solo_run(model, i, d, cfg.cap_w).map(|(_, t)| t))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut st = SearchState {
        model,
        cfg,
        min_time,
        best: None,
        expanded: 0,
        pruned: 0,
    };

    // Seed with the refined greedy solution so pruning bites immediately
    // (and the search result is never worse than HCS+).
    let seed = crate::hcs::hcs(model, &crate::hcs::HcsConfig::with_cap(cfg.cap_w));
    let refined = crate::refine::refine(
        model,
        &seed.schedule,
        &crate::refine::RefineConfig::new(cfg.cap_w),
    );
    st.best = Some((refined.schedule, refined.after_s));

    let mut partial = Schedule::new();
    let mut used = vec![false; n];
    expand(&mut st, &mut partial, &mut used, 0);

    let (schedule, makespan_s) = st.best.expect("seeded");
    BnbResult {
        schedule,
        makespan_s,
        expanded: st.expanded,
        pruned: st.pruned,
    }
}

fn finite(cap: f64) -> Option<f64> {
    cap.is_finite().then_some(cap)
}

fn expand(st: &mut SearchState<'_>, partial: &mut Schedule, used: &mut [bool], depth: usize) {
    if st.expanded >= st.cfg.node_limit {
        return;
    }
    st.expanded += 1;
    let n = used.len();

    if depth == n {
        let r = evaluate(st.model, partial, finite(st.cfg.cap_w));
        if r.cap_ok {
            let better = st.best.as_ref().is_none_or(|(_, b)| r.makespan_s < *b);
            if better {
                st.best = Some((partial.clone(), r.makespan_s));
            }
        }
        return;
    }

    // Admissible bound: the makespan of what's already placed cannot shrink,
    // and the remaining jobs need at least half their total best-case time
    // across the two devices.
    let placed = evaluate(st.model, partial, finite(st.cfg.cap_w));
    if !placed.cap_ok {
        st.pruned += 1;
        return;
    }
    let remaining: f64 = (0..n).filter(|&i| !used[i]).map(|i| st.min_time[i]).sum();
    let optimistic = placed.makespan_s.max(remaining / 2.0);
    if let Some((_, best)) = &st.best {
        if optimistic >= *best - 1e-9 {
            st.pruned += 1;
            return;
        }
    }

    // Branch: next job onto either device. To curb symmetric orderings,
    // only the lowest-indexed unused job and every *distinct* job after it
    // are tried in first position of a fresh region; a simple and safe
    // variant is to try all unused jobs (schedules are order-sensitive).
    for j in 0..n {
        if used[j] {
            continue;
        }
        used[j] = true;
        for device in Device::ALL {
            let level = pick_level(st.model, st.cfg.cap_w, partial, j, device);
            let Some(level) = level else { continue };
            partial.queue_mut(device).push(Assignment { job: j, level });
            expand(st, partial, used, depth + 1);
            partial.queue_mut(device).pop();
        }
        used[j] = false;
    }
}

/// Level for job `j` appended to `device`: the fastest cap-feasible level
/// against the co-runner it is most likely to face (the last job queued on
/// the other device), falling back to the best solo level.
fn pick_level(
    model: &dyn CoRunModel,
    cap_w: f64,
    partial: &Schedule,
    j: JobId,
    device: Device,
) -> Option<usize> {
    let other_last = partial.queue(device.other()).last().copied();
    match other_last {
        Some(co) => {
            let (cpu_job, gpu_job) = match device {
                Device::Cpu => (j, co.job),
                Device::Gpu => (co.job, j),
            };
            let mut best: Option<(usize, f64)> = None;
            for (f, g) in feasible_pair_settings(model, cpu_job, gpu_job, cap_w) {
                let own = match device {
                    Device::Cpu => f,
                    Device::Gpu => g,
                };
                let co_level = match device {
                    Device::Cpu => g,
                    Device::Gpu => f,
                };
                if co_level != co.level {
                    continue; // the co-runner's level is already fixed
                }
                let t = model.corun_time(j, device, own, co.job, co.level);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((own, t));
                }
            }
            best.map(|(l, _)| l)
                .or_else(|| best_solo_run(model, j, device, cap_w).map(|(l, _)| l))
        }
        None => best_solo_run(model, j, device, cap_w).map(|(l, _)| l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;
    use crate::refine::{refine, RefineConfig};

    #[test]
    fn finds_at_least_the_greedy_solution() {
        let m = synthetic(5, 4, 3);
        let r = branch_and_bound(&m, &BnbConfig::new(f64::INFINITY));
        let g = hcs(&m, &HcsConfig::uncapped());
        let g_span = evaluate(&m, &g.schedule, None).makespan_s;
        assert!(r.makespan_s <= g_span + 1e-9);
        assert!(r.schedule.is_complete_for(5));
    }

    #[test]
    fn beats_or_matches_refined_heuristic() {
        let m = synthetic(6, 4, 3);
        let cap = 16.0;
        let r = branch_and_bound(&m, &BnbConfig::new(cap));
        let g = hcs(&m, &HcsConfig::with_cap(cap));
        let refined = refine(&m, &g.schedule, &RefineConfig::new(cap));
        let span = evaluate(&m, &refined.schedule, Some(cap)).makespan_s;
        assert!(
            r.makespan_s <= span + 1e-9,
            "bnb {} vs hcs+ {span}",
            r.makespan_s
        );
    }

    #[test]
    fn respects_cap() {
        let m = synthetic(5, 4, 3);
        let cap = 14.0;
        let r = branch_and_bound(&m, &BnbConfig::new(cap));
        let check = evaluate(&m, &r.schedule, Some(cap));
        assert!(check.cap_ok);
    }

    #[test]
    fn bound_above_lower_bound() {
        let m = synthetic(5, 4, 3);
        let r = branch_and_bound(&m, &BnbConfig::new(f64::INFINITY));
        let lb = crate::bound::lower_bound(&m, f64::INFINITY);
        assert!(r.makespan_s + 1e-9 >= lb.t_low_s);
    }

    #[test]
    fn single_job_optimal() {
        let m = synthetic(1, 4, 3);
        let r = branch_and_bound(&m, &BnbConfig::new(f64::INFINITY));
        let best = m
            .standalone(0, Device::Cpu, 3)
            .min(m.standalone(0, Device::Gpu, 2));
        assert!((r.makespan_s - best).abs() < 1e-9);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let m = synthetic(7, 4, 3);
        let mut cfg = BnbConfig::new(f64::INFINITY);
        cfg.node_limit = 50;
        let r = branch_and_bound(&m, &cfg);
        // Still returns a valid (seeded) schedule.
        assert!(r.schedule.is_complete_for(7));
        assert!(r.expanded <= 51);
    }

    #[test]
    fn prunes_something_on_nontrivial_input() {
        let m = synthetic(6, 3, 3);
        let r = branch_and_bound(&m, &BnbConfig::new(f64::INFINITY));
        assert!(r.pruned > 0, "bound should prune");
        assert!(r.expanded > 6);
    }
}
