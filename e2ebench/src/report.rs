//! What a workload run hands back, and how the benchmark prints it.

use crate::stats::{median, Dist};
use std::path::PathBuf;

/// End-to-end metrics, in report order: (name, unit). Every workload
/// reports every one of them, and `BENCHMARK.json` bounds each.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("read_p50_ms", "ms"),
    ("recover_s", "s"),
    ("sim_makespan_s", "sim_s"),
    ("peak_rss_mb", "MiB"),
];

/// Latencies printed with the end-to-end metrics on every run but
/// reported in the per-layer set, which carries no bound: on a shared
/// two-vCPU host these fsync- and queue-bound figures moved by more than
/// the largest allowed bound between sets of runs.
pub const UNGATED: [(&str, &str); 5] = [
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("done_p50_ms", "ms"),
    ("done_p99_ms", "ms"),
    ("read_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer that is
/// not on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("client.submit_ms.p50", "ms"),
    ("client.submit_ms.p99", "ms"),
    ("client.read_ms.p50", "ms"),
    ("client.read_ms.p99", "ms"),
    ("service.queue_depth.mean", "jobs"),
    ("service.queue_depth.max", "jobs"),
    ("service.util", "fraction"),
    ("verify.lint_us", "us"),
    ("runtime.push_job_us", "us"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.records_per_job", "records"),
    ("journal.bytes_per_job", "bytes"),
    ("journal.snapshot_byte_share", "fraction"),
    ("snapshot.encode_ms", "ms"),
    ("replay.events_per_s", "events/s"),
    ("fleet.admit_ms.p50", "ms"),
    ("fleet.admit_ms.p99", "ms"),
    ("fleet.pump_ms.p50", "ms"),
    ("fleet.pump_ms.p99", "ms"),
    ("fleet.rounds", "count"),
    ("shard.submit_ms.p50", "ms"),
    ("shard.submit_ms.p99", "ms"),
    ("shard.submit.calls", "count"),
    ("shard.job_phase_ms.p50", "ms"),
    ("shard.job_phase_ms.p99", "ms"),
    ("shard.job_phase.calls", "count"),
    ("shard.metrics_ms.p50", "ms"),
    ("shard.metrics_ms.p99", "ms"),
    ("shard.metrics.calls", "count"),
    ("shard.set_cap_ms.p50", "ms"),
    ("shard.set_cap_ms.p99", "ms"),
    ("shard.set_cap.calls", "count"),
    ("shard.job_phase_calls_per_folded_job", "calls/job"),
    ("fleetlog.records_per_job", "records"),
    ("fleetlog.append_us", "us"),
    ("rpc.retries", "count"),
    ("rpc.reconnects", "count"),
    ("rpc.fenced", "count"),
    ("router.steals", "count"),
    ("fleet.rebalances", "count"),
    ("perf_model.characterize_s", "s"),
    ("perf_model.profile_ms", "ms"),
    ("perf_model.probe_ms", "ms"),
    ("core.hcs_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.bound_us", "us"),
    ("apu_sim.execute_ms", "ms"),
    ("apu_sim.sim_s_per_s", "sim_s/s"),
    ("apu_sim.cap_over_w", "W"),
    ("loadgen.lag_p99_ms", "ms"),
];

/// Host metrics appended to the per-layer set by `main`.
pub const ENV_LAYER: [(&str, &str); 2] = [("env.fsync_us", "us"), ("env.fs_tmpfs", "bool")];

/// Prefix of the per-layer tracing-overhead metrics (traced minus
/// untraced value of each end-to-end metric, in its unit).
pub const OVERHEAD_PREFIX: &str = "trace_overhead.";

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it (1 for a single measurement).
    pub n: usize,
    /// How it was taken, e.g. the effective percentile.
    pub note: String,
}

/// A correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted (submits, reads, batches).
    pub attempted: u64,
    /// Operations that failed: refused, errored, dead-lettered, or
    /// failing a check.
    pub failed: u64,
}

impl Outcome {
    fn push(list: &mut Vec<Metric>, name: &str, value: f64, n: usize, note: String) {
        list.push(Metric {
            name: name.to_string(),
            value,
            n,
            note,
        });
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, n: usize) {
        Self::push(&mut self.e2e, name, value, n, String::new());
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, n: usize) {
        Self::push(&mut self.layers, name, value, n, String::new());
    }

    /// Record `<prefix>_p50_ms` and `<prefix>_p99_ms` over the latencies
    /// (seconds) of every cycle of the run.
    pub fn latency(&mut self, prefix: &str, cycles: Vec<Vec<f64>>) {
        let d = Dist::new(cycles.concat());
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            Self::push(
                &mut self.e2e,
                &format!("{prefix}_{tag}_ms"),
                d.pct(q) * 1e3,
                d.n(),
                format!("p{:.1}", d.effective_q(q) * 100.0),
            );
        }
    }

    /// Record `<name>.p50` and `<name>.p99` per-layer metrics from a set
    /// already in the metric's unit.
    pub fn layer_pcts(&mut self, name: &str, d: &Dist) {
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            Self::push(
                &mut self.layers,
                &format!("{name}.{tag}"),
                d.pct(q),
                d.n(),
                format!("p{:.1}", d.effective_q(q) * 100.0),
            );
        }
    }

    /// Record a check; a failed check also counts as a failed op.
    pub fn check(&mut self, what: &str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            what: what.to_string(),
            ok,
            detail,
        });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Value of an end-to-end metric, if recorded.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Samples gathered over the cycles of one run, turned into the
/// end-to-end metrics every workload reports (except `peak_rss_mb`,
/// which `main` adds). Latency percentiles are taken over the samples of
/// all cycles; throughput is the jobs of all cycles' windows over their
/// summed length; every other figure is a median over its samples.
#[derive(Debug, Default)]
pub struct Pooled {
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// Jobs that reached a terminal state in the throughput windows
    /// (each cycle's burst, or its whole batch sequence).
    pub rate_jobs: usize,
    /// Total length of those windows, seconds.
    pub rate_s: f64,
    /// Due-to-ack latencies of each cycle, seconds.
    pub acks: Vec<Vec<f64>>,
    /// Due-to-done latencies of each cycle, seconds.
    pub dones: Vec<Vec<f64>>,
    /// Due-to-answer latencies of each cycle's monitoring reads, seconds.
    pub reads: Vec<Vec<f64>>,
    /// Restart-with-recovery times, seconds.
    pub recovers: Vec<f64>,
    /// Simulated makespan of each cycle.
    pub sims: Vec<f64>,
    /// Jobs behind `sims`.
    pub sim_jobs: usize,
}

impl Pooled {
    /// Record the end-to-end metrics into `out`.
    pub fn finish(self, out: &mut Outcome) {
        out.e2e("setup_s", median(&self.setups), self.setups.len());
        out.e2e(
            "jobs_per_s",
            self.rate_jobs as f64 / self.rate_s.max(1e-9),
            self.rate_jobs,
        );
        out.latency("ack", self.acks);
        out.latency("done", self.dones);
        out.latency("read", self.reads);
        out.e2e("recover_s", median(&self.recovers), self.recovers.len());
        out.e2e("sim_makespan_s", median(&self.sims), self.sim_jobs);
    }
}

/// Removes a run's scratch directory (journals, caches) on every exit
/// path, so repeated runs do not fill the disk.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Render the final result line: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name -> value and unit).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(UNGATED.iter().map(|m| m.0));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(ENV_LAYER.iter().map(|m| m.0));
        let overheads: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{OVERHEAD_PREFIX}{}", m.0))
            .collect();
        all.extend(overheads.iter().map(String::as_str));
        let mut seen = std::collections::HashSet::new();
        for name in &all {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(all.len() - END_TO_END.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let key = "\"name\": \"";
        let mut declared: Vec<&str> = text
            .match_indices(key)
            .map(|(i, _)| {
                let rest = &text[i + key.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect();
        let overheads: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{OVERHEAD_PREFIX}{}", m.0))
            .collect();
        let mut expected: Vec<&str> = vec!["serve-durable", "fleet-durable", "batch-paper"];
        expected.extend(
            END_TO_END
                .iter()
                .chain(&UNGATED)
                .chain(&PER_LAYER)
                .chain(&ENV_LAYER)
                .map(|m| m.0),
        );
        expected.extend(overheads.iter().map(String::as_str));
        declared.sort_unstable();
        expected.sort_unstable();
        assert_eq!(declared, expected);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[("a_ms".into(), 1.5, "ms"), ("b".into(), 2.0, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
