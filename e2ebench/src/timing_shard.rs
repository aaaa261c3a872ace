//! A [`ShardBackend`] wrapper that times every call to the shard it
//! wraps and otherwise passes calls and results through untouched. The
//! traced fleet run puts one around each `RemoteShard`; the untraced
//! runs use the bare backends.

use corun_fleet::{JobPhase, RpcSnapshot, ShardBackend, ShardMetrics, SubmitOutcome};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-operation call latencies, milliseconds.
#[derive(Debug, Default, Clone)]
pub struct CallLog {
    /// `submit` latencies.
    pub submit_ms: Vec<f64>,
    /// `job_phase` latencies.
    pub job_phase_ms: Vec<f64>,
    /// `metrics` latencies.
    pub metrics_ms: Vec<f64>,
    /// `set_cap` latencies.
    pub set_cap_ms: Vec<f64>,
}

/// Shared between the wrappers of one fleet and the report.
pub type SharedLog = Arc<Mutex<CallLog>>;

/// Times the wrapped backend's RPC-carrying calls into a [`SharedLog`].
pub struct TimingShard<B: ShardBackend> {
    inner: B,
    log: SharedLog,
}

impl<B: ShardBackend> TimingShard<B> {
    /// Wrap `inner`, logging into `log`.
    pub fn new(inner: B, log: SharedLog) -> TimingShard<B> {
        TimingShard { inner, log }
    }

    fn timed<T>(
        &mut self,
        pick: fn(&mut CallLog) -> &mut Vec<f64>,
        f: impl FnOnce(&mut B) -> T,
    ) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pick(&mut self.log.lock().expect("call log")).push(ms);
        out
    }
}

impl<B: ShardBackend> ShardBackend for TimingShard<B> {
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome {
        self.timed(|l| &mut l.submit_ms, |b| b.submit(key, spec))
    }

    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String> {
        self.timed(|l| &mut l.job_phase_ms, |b| b.job_phase(local_id))
    }

    fn metrics(&mut self) -> Result<ShardMetrics, String> {
        self.timed(|l| &mut l.metrics_ms, |b| b.metrics())
    }

    fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
        self.timed(|l| &mut l.set_cap_ms, |b| b.set_cap(cap_w))
    }

    fn recover(&mut self, cap_w: f64) -> Result<(), String> {
        self.inner.recover(cap_w)
    }

    fn begin_shutdown(&mut self) {
        self.inner.begin_shutdown();
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn take_incarnation_change(&mut self) -> bool {
        self.inner.take_incarnation_change()
    }

    fn rpc_stats(&self) -> RpcSnapshot {
        self.inner.rpc_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted backend: every call is logged by name with its
    /// argument and answers from a fixed script, so a wrapper that alters
    /// an argument, a result or the call order is caught.
    #[derive(Default)]
    struct Scripted {
        calls: Vec<String>,
        n: usize,
    }

    impl Scripted {
        fn tick(&mut self, call: String) -> usize {
            self.calls.push(call);
            self.n += 1;
            self.n
        }
    }

    impl ShardBackend for Scripted {
        fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome {
            match self.tick(format!("submit {key} {spec}")) % 5 {
                0 => SubmitOutcome::Accepted(vec![self.n, self.n + 1]),
                1 => SubmitOutcome::Backpressure {
                    retry_after_s: 0.25,
                },
                2 => SubmitOutcome::Refused("lint".into()),
                3 => SubmitOutcome::Down("gone".into()),
                _ => SubmitOutcome::Indeterminate("lost reply".into()),
            }
        }
        fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String> {
            match self.tick(format!("job_phase {local_id}")) % 6 {
                0 => Ok(JobPhase::Pending),
                1 => Ok(JobPhase::Done),
                2 => Ok(JobPhase::DeadLetter),
                3 => Ok(JobPhase::Rejected),
                4 => Ok(JobPhase::Unknown),
                _ => Err("down".into()),
            }
        }
        fn metrics(&mut self) -> Result<ShardMetrics, String> {
            let n = self.tick("metrics".into());
            if n % 2 == 0 {
                Err("down".into())
            } else {
                Ok(ShardMetrics {
                    queue_depth: n,
                    submitted: 2 * n,
                    completed: n,
                    dead_lettered: 1,
                    workers_alive: 2,
                    machines: 2,
                    cap_w: 15.5,
                    cap_violations: 3,
                    cap_samples: 9,
                })
            }
        }
        fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
            match self.tick(format!("set_cap {cap_w}")) % 2 {
                0 => Ok(()),
                _ => Err("refused".into()),
            }
        }
        fn recover(&mut self, cap_w: f64) -> Result<(), String> {
            match self.tick(format!("recover {cap_w}")) % 2 {
                0 => Ok(()),
                _ => Err("no daemon".into()),
            }
        }
        fn begin_shutdown(&mut self) {
            self.tick("begin_shutdown".into());
        }
        fn finish(&mut self) {
            self.tick("finish".into());
        }
        fn kind(&self) -> &'static str {
            "scripted"
        }
        fn take_incarnation_change(&mut self) -> bool {
            self.tick("take_incarnation_change".into()) % 3 == 0
        }
        fn rpc_stats(&self) -> RpcSnapshot {
            RpcSnapshot {
                ops: self.n as u64,
                retries: 4,
                timeouts: 5,
                reconnects: 6,
                fenced: 7,
                desyncs: 8,
                p50_ms: 0.5,
                p99_ms: 9.5,
            }
        }
    }

    /// Drive one backend through a fixed call sequence, rendering every
    /// result.
    fn drive(b: &mut dyn ShardBackend) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..12 {
            out.push(format!("{:?}", b.submit(&format!("k{i}"), "srad x0.05\n")));
            out.push(format!("{:?}", b.job_phase(i * 3)));
            out.push(format!("{:?}", b.metrics()));
            out.push(format!("{:?}", b.set_cap(10.0 + i as f64 / 4.0)));
            out.push(format!("{:?}", b.recover(12.5)));
            out.push(format!("{:?}", b.take_incarnation_change()));
            out.push(format!("{:?} {}", b.rpc_stats(), b.kind()));
        }
        b.begin_shutdown();
        b.finish();
        out
    }

    #[test]
    fn wrapper_passes_every_call_and_result_through() {
        let mut bare = Scripted::default();
        let direct = drive(&mut bare);

        let log = SharedLog::default();
        let mut wrapped = TimingShard::new(Scripted::default(), Arc::clone(&log));
        let through = drive(&mut wrapped);

        assert_eq!(direct, through, "results must be identical");
        assert_eq!(
            bare.calls, wrapped.inner.calls,
            "calls and arguments must be identical"
        );
        let log = log.lock().unwrap();
        assert_eq!(log.submit_ms.len(), 12);
        assert_eq!(log.job_phase_ms.len(), 12);
        assert_eq!(log.metrics_ms.len(), 12);
        assert_eq!(log.set_cap_ms.len(), 12);
        assert!(log.submit_ms.iter().all(|&ms| ms >= 0.0));
    }
}
