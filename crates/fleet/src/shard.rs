//! Shard backends: the coordinator's uniform view of one shard, whether
//! it is an in-process [`corun_serve::Service`] or a remote `corun
//! serve` daemon — both reached over the line-JSON protocol.

use crate::net::{over_local, NetConfig, NetFaultPlan, RpcSnapshot};
use apu_sim::FaultPlan;
use corun_core::WallClock;
use corun_serve::{Service, ServiceConfig};
use std::path::Path;
use std::sync::Arc;

/// What happened to one submission attempt.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The shard accepted the jobs under these shard-local ids.
    Accepted(Vec<usize>),
    /// Queue full; try again after the hint.
    Backpressure {
        /// Server back-off hint, seconds.
        retry_after_s: f64,
    },
    /// Permanently refused (lint failure, cap-infeasible): terminal.
    Refused(String),
    /// The request certainly never reached the shard (connect refused,
    /// shutting down): the job stays with the coordinator and the shard
    /// is marked dead. Safe to re-place elsewhere.
    Down(String),
    /// The RPC failed *after* the request may have been delivered (reply
    /// lost to a partition, timeout, truncated frame): the shard may be
    /// running the job. The coordinator must pin it in-doubt and resolve
    /// by resubmitting the same key to the same shard — never re-place.
    Indeterminate(String),
}

/// Coordinator-level view of one shard-local job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, not yet terminal (queued or running).
    Pending,
    /// Finished.
    Done,
    /// Retry budget exhausted on the shard.
    DeadLetter,
    /// Rejected by the shard's admission gate.
    Rejected,
    /// The shard does not know the id — a restarted, unrecovered
    /// incarnation. The coordinator requeues the job elsewhere.
    Unknown,
}

/// The slice of a shard's metrics the coordinator consumes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardMetrics {
    /// Jobs admitted but not yet dispatched.
    pub queue_depth: usize,
    /// Jobs ever admitted (accepted minus admission-rejected).
    pub submitted: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs dead-lettered.
    pub dead_lettered: usize,
    /// Worker threads still alive.
    pub workers_alive: usize,
    /// Simulated machines.
    pub machines: usize,
    /// The shard's live power cap, watts.
    pub cap_w: f64,
    /// Power samples above the cap.
    pub cap_violations: usize,
    /// Power samples observed.
    pub cap_samples: usize,
}

impl ShardMetrics {
    /// Admitted-but-unfinished jobs — the demand weight the budget
    /// partitioner splits the cluster cap by.
    pub fn demand_jobs(&self) -> usize {
        self.submitted
            .saturating_sub(self.completed + self.dead_lettered)
    }

    /// A shard with no live workers can accept but never finish work.
    pub fn is_alive(&self) -> bool {
        self.workers_alive > 0
    }
}

/// One shard as the coordinator drives it.
pub trait ShardBackend: Send {
    /// Submit one spec fragment under a fleet-unique idempotency `key`.
    /// Resubmitting the same key to the same shard is safe: a shard that
    /// already admitted it replies with the original ids instead of
    /// running the job twice.
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome;

    /// Phase of one shard-local job. `Err` means the shard is down.
    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String>;

    /// Metrics snapshot. `Err` means the shard is down.
    fn metrics(&mut self) -> Result<ShardMetrics, String>;

    /// Push a rebalanced power cap.
    fn set_cap(&mut self, cap_w: f64) -> Result<(), String>;

    /// Bring a dead shard back under `cap_w`: restart a crashed
    /// in-process service with journal recovery, or reconnect to an
    /// externally restarted daemon, then push the cap.
    fn recover(&mut self, cap_w: f64) -> Result<(), String>;

    /// Ask the shard to stop accepting work and drain.
    fn begin_shutdown(&mut self);

    /// Block until the shard is fully stopped. Nothing to wait for by
    /// default: remote daemons outlive the coordinator, and an
    /// in-process service drains and joins its workers when its last
    /// handle drops.
    fn finish(&mut self) {}

    /// `"local"` or `"remote"`, for status output.
    fn kind(&self) -> &'static str;

    /// True once since the shard was last observed under a different
    /// boot nonce or a higher fencing epoch — i.e. it restarted or
    /// recovered behind the coordinator's back. The coordinator must
    /// re-resolve every outstanding job it had on the shard.
    fn take_incarnation_change(&mut self) -> bool;

    /// Transport-level RPC counters.
    fn rpc_stats(&self) -> RpcSnapshot;
}

/// Start `shards` in-process shards from one [`ServiceConfig`]
/// template, each behind the full RPC stack ([`over_local`]) exactly as
/// a remote daemon is driven. Shard `s` journals to
/// `journal_dir/shard-s.jsonl` (when a dir is given), runs
/// `fault_plan(s)`, and sees network faults from `net_plan` (none when
/// `None`). Shards start sequentially so the first pays the
/// characterization cost and the rest hit the cache (set
/// `template.cache_dir`).
pub fn start_local_shards(
    template: &ServiceConfig,
    shards: usize,
    machines_per_shard: usize,
    journal_dir: Option<&Path>,
    mut fault_plan: impl FnMut(usize) -> Option<FaultPlan>,
    net: NetConfig,
    net_plan: Option<&NetFaultPlan>,
) -> Vec<Box<dyn ShardBackend>> {
    (0..shards)
        .map(|s| {
            let mut cfg = template.clone();
            cfg.machines = machines_per_shard;
            cfg.journal_path = journal_dir.map(|d| d.join(format!("shard-{s}.jsonl")));
            cfg.fault_plan = fault_plan(s);
            let service = Arc::new(Service::start(cfg));
            let clock = Arc::new(WallClock::new());
            Box::new(over_local(service, net_plan.cloned(), s, net, clock)) as Box<dyn ShardBackend>
        })
        .collect()
}

// The shard backend itself lives in [`crate::net`]: `RpcShard` over
// `TcpRaw` (a remote daemon, `RemoteShard`) or over `LocalRaw` (an
// in-process service) — deadline-bounded line-JSON RPC with reconnect,
// fencing-epoch checks, and per-shard latency counters.
