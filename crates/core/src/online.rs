//! Online co-scheduling with job arrivals — the deployment scenario the
//! paper's introduction motivates (shared servers and data centers receive
//! jobs over time) but evaluates only in batch form.
//!
//! [`OnlinePolicy`] makes HCS-style decisions one dispatch at a time: given
//! the set of *ready* jobs, a free device and the co-runner currently on
//! the other device, it picks the job and frequency level the batch
//! heuristic would have picked — preference order first, least predicted
//! interference second, best cap-feasible performance for the level, and
//! the same steal-profitability guard against hijacking a job that should
//! wait for its preferred device.
//!
//! [`evaluate_online`] replays an arrival trace against the model (the
//! online analogue of [`crate::evaluate::evaluate`]); the `runtime` crate
//! drives the same policy against the simulator for ground truth.

use crate::freqgrid::{best_level_against, best_solo_run};
use crate::hcs::{categorize, HcsConfig, Preference};
use crate::model::{CoRunModel, JobId};
use apu_sim::hash::{mix64, unit, GOLDEN_GAMMA};
use apu_sim::Device;

/// A job plus its arrival time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// The job.
    pub job: JobId,
    /// When it becomes ready, seconds.
    pub at_s: f64,
}

/// Bounded-retry configuration for requeueing jobs lost to machine
/// crashes or injected failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per job before it is dead-lettered.
    pub max_retries: u32,
    /// Backoff before the first retry, seconds (doubles per retry).
    pub backoff_base_s: f64,
    /// Backoff ceiling, seconds.
    pub backoff_max_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_s: 0.05,
            backoff_max_s: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry attempt `n` (1-based): exponential with a
    /// deterministic per-(job, attempt) jitter in `[1.0, 1.5)`, capped.
    pub fn backoff_s(&self, job: JobId, attempt: u32) -> f64 {
        let exp = self.backoff_base_s * 2f64.powi(attempt.saturating_sub(1).min(20) as i32);
        let jitter = 1.0 + 0.5 * hash_unit(job as u64, attempt as u64);
        (exp * jitter).min(self.backoff_max_s)
    }
}

/// What [`OnlinePolicy::requeue`] decided for one lost job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequeueOutcome {
    /// Re-admit the job after `backoff_s`; this is retry number
    /// `attempt` (1-based).
    Retry {
        /// Which retry this is, 1-based.
        attempt: u32,
        /// How long to hold the job back before re-dispatch, seconds.
        backoff_s: f64,
    },
    /// Retry budget exhausted: surface the job as dead-letter.
    DeadLetter {
        /// Total attempts consumed (initial dispatch + retries).
        attempts: u32,
    },
}

/// splitmix64-style hash of `(a, b)` mapped to `[0, 1)`, for
/// deterministic backoff jitter (no RNG state to persist or replay).
fn hash_unit(a: u64, b: u64) -> f64 {
    let z = a
        .wrapping_mul(GOLDEN_GAMMA)
        .wrapping_add(b)
        .wrapping_add(0x243F_6A88_85A3_08D3);
    unit(mix64(z))
}

/// The online dispatch policy.
#[derive(Debug, Clone)]
pub struct OnlinePolicy {
    cfg: HcsConfig,
    preference: Vec<Preference>,
    retry: RetryPolicy,
    /// Retries consumed per admitted job (parallel to `preference`).
    retries: Vec<u32>,
}

/// One dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePick {
    /// The chosen job.
    pub job: JobId,
    /// Its frequency level on the free device.
    pub level: usize,
}

impl OnlinePolicy {
    /// Build the policy: preferences are precomputed per job (they depend
    /// only on standalone profiles).
    pub fn new(model: &dyn CoRunModel, cfg: HcsConfig) -> Self {
        let preference: Vec<Preference> = (0..model.len())
            .map(|i| categorize(model, &cfg, i))
            .collect();
        let retries = vec![0; preference.len()];
        OnlinePolicy {
            cfg,
            preference,
            retry: RetryPolicy::default(),
            retries,
        }
    }

    /// An empty policy that knows about no jobs yet; register jobs as
    /// they arrive with [`OnlinePolicy::admit_job`]. This is the
    /// constructor a resident service uses: the job universe grows over
    /// the service's lifetime, so preferences cannot be precomputed.
    pub fn empty(cfg: HcsConfig) -> Self {
        OnlinePolicy {
            cfg,
            preference: Vec::new(),
            retry: RetryPolicy::default(),
            retries: Vec::new(),
        }
    }

    /// Incrementally register job `job` (which must be the next unseen
    /// index, or an already-admitted one — preferences are append-only and
    /// dense). Categorization depends only on the job's own standalone
    /// profile, so admitting jobs one at a time yields exactly the policy
    /// [`OnlinePolicy::new`] would have built from scratch.
    ///
    /// # Panics
    ///
    /// If `job` would leave a gap (`job > self.job_count()`) or is not
    /// covered by `model`.
    pub fn admit_job(&mut self, model: &dyn CoRunModel, job: JobId) {
        assert!(
            job <= self.preference.len(),
            "admit_job({job}) would leave a gap: only {} jobs admitted",
            self.preference.len()
        );
        assert!(job < model.len(), "job {job} not in the model");
        if job == self.preference.len() {
            self.preference.push(categorize(model, &self.cfg, job));
            self.retries.push(0);
        }
    }

    /// The power cap this policy currently schedules under, watts.
    pub fn cap_w(&self) -> f64 {
        self.cfg.cap_w
    }

    /// Re-cap the policy (fleet budget rebalancing hands shards new caps
    /// while they run). Preferences depend on the cap through the
    /// cap-feasible frequency grid, so they are recomputed for every
    /// admitted job — exactly what [`OnlinePolicy::new`] would have
    /// produced had it been built with the new cap.
    ///
    /// # Panics
    ///
    /// If `model` does not cover every admitted job.
    pub fn set_cap_w(&mut self, model: &dyn CoRunModel, cap_w: f64) {
        assert!(
            self.preference.len() <= model.len(),
            "model covers {} jobs but {} are admitted",
            model.len(),
            self.preference.len()
        );
        self.cfg.cap_w = cap_w;
        for (job, slot) in self.preference.iter_mut().enumerate() {
            *slot = categorize(model, &self.cfg, job);
        }
    }

    /// Replace the retry policy governing [`OnlinePolicy::requeue`].
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Retries consumed so far by `job`.
    pub fn retries(&self, job: JobId) -> u32 {
        self.retries.get(job).copied().unwrap_or(0)
    }

    /// Restore a job's consumed-retry count (journal recovery: the count
    /// survives a daemon crash so a flaky job cannot retry forever by
    /// repeatedly killing the service).
    ///
    /// # Panics
    ///
    /// If `job` has not been admitted.
    pub fn restore_retries(&mut self, job: JobId, consumed: u32) {
        self.retries[job] = consumed;
    }

    /// Decide the fate of a job lost to a fault: consume one retry and
    /// compute its backoff, or dead-letter it once the budget is spent.
    ///
    /// # Panics
    ///
    /// If `job` has not been admitted.
    pub fn requeue(&mut self, job: JobId) -> RequeueOutcome {
        if self.retries[job] >= self.retry.max_retries {
            return RequeueOutcome::DeadLetter {
                attempts: self.retries[job] + 1,
            };
        }
        self.retries[job] += 1;
        let attempt = self.retries[job];
        RequeueOutcome::Retry {
            attempt,
            backoff_s: self.retry.backoff_s(job, attempt),
        }
    }

    /// Evict a crashed machine's in-flight jobs: each is either retried
    /// (with backoff) or dead-lettered, per [`OnlinePolicy::requeue`].
    /// Returns the outcome per job, in input order.
    pub fn evict_machine(&mut self, in_flight: &[JobId]) -> Vec<(JobId, RequeueOutcome)> {
        in_flight.iter().map(|&j| (j, self.requeue(j))).collect()
    }

    /// Number of jobs this policy has preferences for.
    pub fn job_count(&self) -> usize {
        self.preference.len()
    }

    /// The preference categorization per admitted job.
    pub fn preferences(&self) -> &[Preference] {
        &self.preference
    }

    /// The scheduling configuration.
    pub fn config(&self) -> &HcsConfig {
        &self.cfg
    }

    /// Decide what to run on `device` given the ready set and the current
    /// co-runner. `None` means "leave the device idle for now".
    pub fn pick(
        &self,
        model: &dyn CoRunModel,
        ready: &[JobId],
        device: Device,
        co: Option<(JobId, usize)>,
    ) -> Option<OnlinePick> {
        let own_pref = match device {
            Device::Cpu => Preference::Cpu,
            Device::Gpu => Preference::Gpu,
        };
        let other_pref = match device {
            Device::Cpu => Preference::Gpu,
            Device::Gpu => Preference::Cpu,
        };
        // Preference order: own-preferred, non-preferred, other-preferred.
        for class in [own_pref, Preference::Non, other_pref] {
            let candidates: Vec<JobId> = ready
                .iter()
                .copied()
                .filter(|&j| self.preference[j] == class)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let pick = self.pick_from(model, &candidates, device, co);
            let Some(pick) = pick else { continue };
            // Steal-profitability guard for other-preferred jobs: only take
            // the job if running it here beats waiting for its preferred
            // device behind the other-preferred backlog.
            if class == other_pref {
                let other = device.other();
                let ko = model.levels(other) - 1;
                let t_here = model.standalone(pick.job, device, pick.level);
                let t_there = model.standalone(pick.job, other, ko);
                let backlog: f64 = candidates
                    .iter()
                    .filter(|&&y| y != pick.job)
                    .map(|&y| model.standalone(y, other, ko))
                    .sum();
                if t_here >= backlog + t_there {
                    return None;
                }
            }
            return Some(pick);
        }
        None
    }

    /// Least-interference candidate with a performance-maximizing feasible
    /// level.
    fn pick_from(
        &self,
        model: &dyn CoRunModel,
        candidates: &[JobId],
        device: Device,
        co: Option<(JobId, usize)>,
    ) -> Option<OnlinePick> {
        match co {
            None => {
                // Free machine: longest job first (the batch heuristic's
                // seeding rule) at its best solo level.
                let mut best: Option<(JobId, usize, f64)> = None;
                for &j in candidates {
                    let Some((level, t)) = best_solo_run(model, j, device, self.cfg.cap_w) else {
                        continue;
                    };
                    if best.is_none_or(|(_, _, bt)| t > bt) {
                        best = Some((j, level, t));
                    }
                }
                best.map(|(job, level, _)| OnlinePick { job, level })
            }
            Some((co_job, co_level)) => {
                let mut best: Option<(JobId, usize, f64)> = None; // deg sum
                for &j in candidates {
                    let Some(level) =
                        best_level_against(model, j, device, co_job, co_level, self.cfg.cap_w)
                    else {
                        continue;
                    };
                    let d_own = model.degradation(j, device, level, co_job, co_level);
                    let d_co = model.degradation(co_job, device.other(), co_level, j, level);
                    let sum = d_own + d_co;
                    if best.is_none_or(|(_, _, bs)| sum < bs) {
                        best = Some((j, level, sum));
                    }
                }
                best.map(|(job, level, _)| OnlinePick { job, level })
            }
        }
    }
}

/// Result of a model-level online replay.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Time from t=0 to the last completion.
    pub makespan_s: f64,
    /// Per-job finish times.
    pub finish_s: Vec<Option<f64>>,
    /// Mean flow time (finish - arrival) over all jobs.
    pub mean_flow_s: f64,
}

/// Replay an arrival trace against the model under `policy` (non-preemptive,
/// one job per device, decisions at completions and arrivals).
pub fn evaluate_online(
    model: &dyn CoRunModel,
    arrivals: &[Arrival],
    policy: &OnlinePolicy,
) -> OnlineReport {
    let n = model.len();
    let mut arrivals: Vec<Arrival> = arrivals.to_vec();
    arrivals.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let mut next_arrival = 0usize;
    let mut ready: Vec<JobId> = Vec::new();
    let mut finish: Vec<Option<f64>> = vec![None; n];
    let mut arrival_of: Vec<f64> = vec![0.0; n];
    for a in &arrivals {
        arrival_of[a.job] = a.at_s;
    }
    // (job, level, remaining standalone seconds) per device
    let mut running: [Option<(JobId, usize, f64)>; 2] = [None, None];
    let mut t = 0.0_f64;

    loop {
        // Admit arrivals due by t.
        while next_arrival < arrivals.len() && arrivals[next_arrival].at_s <= t + 1e-12 {
            ready.push(arrivals[next_arrival].job);
            next_arrival += 1;
        }
        // Fill free devices.
        for device in Device::ALL {
            if running[device.index()].is_some() {
                continue;
            }
            let co = running[device.other().index()].map(|(j, l, _)| (j, l));
            if let Some(p) = policy.pick(model, &ready, device, co) {
                ready.retain(|&j| j != p.job);
                running[device.index()] =
                    Some((p.job, p.level, model.standalone(p.job, device, p.level)));
            }
        }

        // Next event: a completion or an arrival.
        let (s_cpu, s_gpu) = match (&running[0], &running[1]) {
            (Some((cj, cl, _)), Some((gj, gl, _))) => (
                1.0 + model.degradation(*cj, Device::Cpu, *cl, *gj, *gl),
                1.0 + model.degradation(*gj, Device::Gpu, *gl, *cj, *cl),
            ),
            _ => (1.0, 1.0),
        };
        let t_cpu = running[0].map(|(_, _, r)| r * s_cpu);
        let t_gpu = running[1].map(|(_, _, r)| r * s_gpu);
        let next_completion = [t_cpu, t_gpu]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        let next_arrival_dt = arrivals
            .get(next_arrival)
            .map(|a| a.at_s - t)
            .filter(|&d| d > 0.0)
            .unwrap_or(f64::INFINITY);

        if !next_completion.is_finite() && !next_arrival_dt.is_finite() {
            break; // nothing running, nothing arriving
        }
        let dt = next_completion.min(next_arrival_dt);
        t += dt;
        for (idx, s) in [(0usize, s_cpu), (1, s_gpu)] {
            if let Some((j, l, r)) = running[idx] {
                let nr = r - dt / s;
                if nr <= 1e-9 {
                    finish[j] = Some(t);
                    running[idx] = None;
                } else {
                    running[idx] = Some((j, l, nr));
                }
            }
        }
    }

    let makespan = finish.iter().flatten().fold(0.0_f64, |a, &b| a.max(b));
    let flows: Vec<f64> = (0..n)
        .filter_map(|j| finish[j].map(|f| f - arrival_of[j]))
        .collect();
    let mean_flow = if flows.is_empty() {
        0.0
    } else {
        flows.iter().sum::<f64>() / flows.len() as f64
    };
    OnlineReport {
        makespan_s: makespan,
        finish_s: finish,
        mean_flow_s: mean_flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_model::synthetic;

    fn batch_arrivals(n: usize) -> Vec<Arrival> {
        (0..n).map(|j| Arrival { job: j, at_s: 0.0 }).collect()
    }

    #[test]
    fn all_jobs_finish() {
        let m = synthetic(8, 5, 4);
        let p = OnlinePolicy::new(&m, HcsConfig::with_cap(16.0));
        let r = evaluate_online(&m, &batch_arrivals(8), &p);
        assert!(r.finish_s.iter().all(std::option::Option::is_some));
        assert!(r.makespan_s > 0.0);
        assert!(r.mean_flow_s > 0.0);
    }

    #[test]
    fn staggered_arrivals_respected() {
        let m = synthetic(4, 4, 4);
        let p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        let arrivals = vec![
            Arrival { job: 0, at_s: 0.0 },
            Arrival { job: 1, at_s: 5.0 },
            Arrival {
                job: 2,
                at_s: 100.0,
            },
            Arrival {
                job: 3,
                at_s: 100.0,
            },
        ];
        let r = evaluate_online(&m, &arrivals, &p);
        // Job 2 and 3 cannot finish before they arrive plus their best time.
        let best2 = m
            .standalone(2, Device::Cpu, 3)
            .min(m.standalone(2, Device::Gpu, 3));
        assert!(r.finish_s[2].unwrap() >= 100.0 + best2 * 0.99);
        assert!(r.finish_s[1].unwrap() >= 5.0);
    }

    #[test]
    fn batch_online_close_to_batch_hcs() {
        // With all arrivals at t=0 the online policy approximates batch HCS.
        let m = synthetic(8, 5, 4);
        let p = OnlinePolicy::new(&m, HcsConfig::with_cap(16.0));
        let online = evaluate_online(&m, &batch_arrivals(8), &p).makespan_s;
        let batch = crate::evaluate::evaluate(
            &m,
            &crate::hcs::hcs(&m, &HcsConfig::with_cap(16.0)).schedule,
            Some(16.0),
        )
        .makespan_s;
        assert!(
            online <= batch * 1.35,
            "online {online} too far from batch {batch}"
        );
    }

    #[test]
    fn online_beats_fifo_single_device() {
        // Everything sequentially on the GPU is a valid online strategy;
        // the policy should beat it.
        let m = synthetic(6, 4, 4);
        let p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        let online = evaluate_online(&m, &batch_arrivals(6), &p).makespan_s;
        let fifo: f64 = (0..6).map(|j| m.standalone(j, Device::Gpu, 3)).sum();
        assert!(online < fifo);
    }

    #[test]
    fn idle_gap_between_waves() {
        let m = synthetic(2, 4, 4);
        let p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        let arrivals = vec![
            Arrival { job: 0, at_s: 0.0 },
            Arrival {
                job: 1,
                at_s: 500.0,
            },
        ];
        let r = evaluate_online(&m, &arrivals, &p);
        assert!(
            r.finish_s[0].unwrap() < 500.0,
            "first wave done before second"
        );
        assert!(r.finish_s[1].unwrap() > 500.0);
    }

    #[test]
    fn empty_arrivals() {
        let m = synthetic(3, 4, 4);
        let p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        let r = evaluate_online(&m, &[], &p);
        assert_eq!(r.makespan_s, 0.0);
        assert!(r.finish_s.iter().all(std::option::Option::is_none));
    }

    #[test]
    fn incremental_admission_matches_batch_construction() {
        let m = synthetic(9, 5, 4);
        let batch = OnlinePolicy::new(&m, HcsConfig::with_cap(16.0));
        let mut inc = OnlinePolicy::empty(HcsConfig::with_cap(16.0));
        for j in 0..m.len() {
            inc.admit_job(&m, j);
            // Re-admitting is idempotent.
            inc.admit_job(&m, j);
        }
        assert_eq!(inc.job_count(), m.len());
        assert_eq!(batch.preferences(), inc.preferences());
        // And the policies decide identically on a mixed ready set.
        let ready: Vec<usize> = (0..m.len()).collect();
        for device in apu_sim::Device::ALL {
            assert_eq!(
                batch.pick(&m, &ready, device, None),
                inc.pick(&m, &ready, device, None)
            );
            assert_eq!(
                batch.pick(&m, &ready[1..], device, Some((0, 2))),
                inc.pick(&m, &ready[1..], device, Some((0, 2)))
            );
        }
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn admission_gap_panics() {
        let m = synthetic(4, 4, 4);
        let mut p = OnlinePolicy::empty(HcsConfig::uncapped());
        p.admit_job(&m, 2);
    }

    #[test]
    fn requeue_retries_then_dead_letters() {
        let m = synthetic(3, 4, 4);
        let mut p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        p.set_retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_base_s: 0.1,
            backoff_max_s: 10.0,
        });
        let RequeueOutcome::Retry {
            attempt: 1,
            backoff_s: b1,
        } = p.requeue(0)
        else {
            panic!("first loss retries");
        };
        let RequeueOutcome::Retry {
            attempt: 2,
            backoff_s: b2,
        } = p.requeue(0)
        else {
            panic!("second loss retries");
        };
        // Exponential: base*2 with jitter in [1, 1.5) must exceed base*1.5.
        assert!((0.1..0.15).contains(&b1), "b1={b1}");
        assert!((0.2..0.3).contains(&b2), "b2={b2}");
        assert_eq!(p.requeue(0), RequeueOutcome::DeadLetter { attempts: 3 });
        // Other jobs are unaffected.
        assert!(matches!(
            p.requeue(1),
            RequeueOutcome::Retry { attempt: 1, .. }
        ));
        assert_eq!(p.retries(0), 2);
        assert_eq!(p.retries(1), 1);
        assert_eq!(p.retries(2), 0);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let rp = RetryPolicy::default();
        assert_eq!(rp.backoff_s(7, 2), rp.backoff_s(7, 2), "deterministic");
        // Different jobs de-synchronize (jitter differs somewhere).
        assert!((0..16).any(|j| rp.backoff_s(j, 1) != rp.backoff_s(j + 16, 1)));
        // Large attempts hit the ceiling.
        assert_eq!(rp.backoff_s(3, 30), rp.backoff_max_s);
    }

    #[test]
    fn evict_machine_processes_all_in_flight() {
        let m = synthetic(4, 4, 4);
        let mut p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        let out = p.evict_machine(&[2, 0]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 2);
        assert_eq!(out[1].0, 0);
        assert!(out
            .iter()
            .all(|(_, o)| matches!(o, RequeueOutcome::Retry { attempt: 1, .. })));
    }

    #[test]
    fn restored_retries_survive_into_budget() {
        let m = synthetic(2, 4, 4);
        let mut p = OnlinePolicy::new(&m, HcsConfig::uncapped());
        // As after journal recovery: job 0 already burned its budget.
        p.restore_retries(0, p.retry_policy().max_retries);
        assert!(matches!(p.requeue(0), RequeueOutcome::DeadLetter { .. }));
    }

    #[test]
    fn cap_respected_in_level_choices() {
        let m = synthetic(6, 5, 4);
        let cap = m.corun_power(Some((0, 2)), Some((1, 2)));
        let p = OnlinePolicy::new(&m, HcsConfig::with_cap(cap));
        // Every pick against a max-level co-runner must fit the cap.
        let ready: Vec<usize> = (1..6).collect();
        if let Some(pick) = p.pick(&m, &ready, Device::Cpu, Some((0, 3))) {
            let power = m.corun_power(Some((pick.job, pick.level)), Some((0, 3)));
            assert!(power <= cap + 1e-9);
        }
    }
}
