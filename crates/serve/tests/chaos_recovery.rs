//! Crash-safety properties of the journal + recovery path.
//!
//! The central property: killing the daemon after *any* prefix of the
//! journal and restarting with `recover` loses no job and re-dispatches
//! no completed job — the recovered end state equals the uninterrupted
//! one. Truncation points are sampled both at record boundaries (a clean
//! kill between fsyncs) and at arbitrary bytes (a torn tail mid-write).

use corun_core::RetryPolicy;
use corun_serve::journal::{read_journal, replay, scan_journal, Disposition};
use corun_serve::{JobState, Service, ServiceConfig};
use corun_verify::Code;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_journal(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "corun-chaos-recovery-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn journaled_cfg(path: &Path, recover: bool) -> ServiceConfig {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.queue_capacity = 32;
    cfg.journal_path = Some(path.to_path_buf());
    cfg.recover = recover;
    cfg
}

/// Run a journaled service over `spec` to completion and return the
/// journal bytes it left behind.
fn run_and_capture(path: &Path, spec: &str) -> Vec<u8> {
    let svc = Service::start(journaled_cfg(path, false));
    let ids = svc.submit_spec(spec).expect("submit");
    for &id in &ids {
        let st = svc.wait_job(id).expect("known id");
        assert!(matches!(st.state, JobState::Done { .. }), "{st:?}");
    }
    svc.shutdown();
    drop(svc);
    std::fs::read(path).expect("journal bytes")
}

/// Restart from whatever is at `path` and check the invariants: no
/// accepted job is lost (all reach a terminal state), and no job the
/// journal already records as Done is ever dispatched again.
fn recover_and_check(path: &Path) {
    // What does the truncated journal itself say?
    let (records, report) = read_journal(path);
    let (expected, replay_report) = replay(&records);
    let wholesale_abandon = report.has_errors() || replay_report.has_errors();

    let svc = Service::start(journaled_cfg(path, true));
    if wholesale_abandon {
        assert_eq!(
            svc.job_count(),
            0,
            "an unreplayable journal must start fresh, not half-recovered"
        );
        svc.shutdown();
        return;
    }
    assert_eq!(svc.job_count(), expected.jobs.len(), "no job may be lost");
    // Every journaled job must reach a terminal state after recovery; a
    // job already Done must keep its exact completion and stay at one
    // dispatch (zero double-dispatch).
    for (id, rj) in expected.jobs.iter().enumerate() {
        let st = svc.wait_job(id).expect("recovered id");
        match &rj.disposition {
            Disposition::Done { end_s, .. } => {
                match st.state {
                    JobState::Done {
                        end_s: recovered, ..
                    } => assert_eq!(recovered, *end_s, "job {id}: completion must be verbatim"),
                    other => panic!("job {id} lost its completion: {other:?}"),
                }
                assert_eq!(st.dispatches, 1, "job {id} was re-dispatched after Done");
            }
            Disposition::Pending => {
                // In-flight or queued at the kill: must be re-run to Done.
                assert!(
                    matches!(st.state, JobState::Done { .. }),
                    "pending job {id} must complete after recovery: {:?}",
                    st.state
                );
            }
            Disposition::Rejected => assert_eq!(st.state, JobState::Rejected),
            Disposition::Dead { .. } => {
                assert!(matches!(st.state, JobState::DeadLetter { .. }));
            }
        }
    }
    svc.wait_idle();
    let m = svc.metrics();
    assert_eq!(
        m.completed + m.dead_lettered + m.rejected,
        svc.job_count(),
        "metrics must balance after recovery"
    );
    assert_eq!(m.queue_depth, 0);
    assert!(m.worker_error.is_none(), "{:?}", m.worker_error);
    svc.shutdown();
}

proptest! {
    // Each case runs two full service lifecycles (characterization +
    // simulation + recovery), so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Kill at any record boundary: replaying the journal prefix must
    /// reproduce exactly the completed work and finish the rest.
    #[test]
    fn kill_at_any_record_boundary_loses_nothing(
        njobs in 1usize..4,
        pick in 0usize..10_000,
    ) {
        let path = temp_journal("boundary");
        let bytes = run_and_capture(&path, &format!("srad x0.05 *{njobs}\nlud x0.05\n"));

        // Record boundaries: after each newline (a kill between fsyncs).
        let boundaries: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        prop_assert!(!boundaries.is_empty());
        let cut = boundaries[pick % boundaries.len()];
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        recover_and_check(&path);
        std::fs::remove_file(&path).ok();
    }

    /// Kill mid-record: a torn JSON tail is dropped (SRV007 warning), the
    /// intact prefix still replays, nothing is lost.
    #[test]
    fn kill_at_any_byte_tolerates_torn_tail(
        njobs in 1usize..3,
        pick in 0usize..10_000,
    ) {
        let path = temp_journal("torn");
        let bytes = run_and_capture(&path, &format!("hotspot x0.05 *{njobs}\n"));
        prop_assert!(bytes.len() > 2);
        // Any byte offset except 0 (an empty file is the fresh-start case,
        // covered separately below).
        let cut = 1 + pick % (bytes.len() - 1);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        recover_and_check(&path);
        std::fs::remove_file(&path).ok();
    }
}

/// A corrupt record with committed records after it is corruption, not
/// a torn tail: the scan reports an SRV007 error, recovery is abandoned
/// without re-dispatching the job the journal records as done, and the
/// journal is set aside byte for byte instead of truncated — also when
/// the corrupt line is the header, and never over an earlier one.
#[test]
fn mid_file_corruption_abandons_recovery_and_keeps_the_journal() {
    let path = temp_journal("midfile");
    let clean = run_and_capture(&path, "srad x0.05\n");
    let text = String::from_utf8(clean.clone()).expect("utf-8 journal");
    let at = text.find(r#""t":"dispatch""#).expect("a dispatch record");
    assert!(
        text[at..].contains(r#""t":"done""#),
        "done follows dispatch"
    );
    let kept = |suffix: &str| {
        let mut kept = path.clone().into_os_string();
        kept.push(suffix);
        PathBuf::from(kept)
    };
    // `{"#":"dispatch",...}` has no record type; `{#t":"meta",...}` no
    // longer parses at all.
    for (byte, suffix) in [(at + 1, ".abandoned"), (1, ".abandoned.1")] {
        let mut bytes = clean.clone();
        bytes[byte] = b'#';
        std::fs::write(&path, &bytes).expect("corrupt");

        let scan = scan_journal(&path);
        assert!(scan.report.has(Code::Srv007));
        assert!(scan.report.has_errors(), "{}", scan.report.render_human());
        assert_eq!(scan.torn_at, None, "mid-file corruption is not a torn tail");

        let svc = Service::start(journaled_cfg(&path, true));
        assert!(svc.chaos_report().has_errors());
        assert_eq!(svc.job_count(), 0, "the done job must not be re-dispatched");
        svc.shutdown();
        drop(svc);
        assert_eq!(std::fs::read(kept(suffix)).expect("journal kept"), bytes);
    }
    for suffix in [".abandoned", ".abandoned.1", ""] {
        std::fs::remove_file(kept(suffix)).ok();
    }
}

#[test]
fn empty_journal_starts_fresh() {
    let path = temp_journal("empty");
    std::fs::write(&path, b"").unwrap();
    recover_and_check(&path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_run_journals_every_outcome() {
    // A fault plan that fails every execution: all jobs must end
    // dead-lettered — visibly, in the journal and the metrics — and the
    // journal must replay to the same picture.
    let path = temp_journal("faulted");
    let mut cfg = journaled_cfg(&path, false);
    cfg.fault_plan = Some(apu_sim::FaultPlan::parse("@chaos seed=7 job-fail=1\n").unwrap());
    cfg.retry = RetryPolicy {
        max_retries: 1,
        backoff_base_s: 0.01,
        backoff_max_s: 0.02,
    };
    let svc = Service::start(cfg);
    let ids = svc.submit_spec("srad x0.05 *2\n").unwrap();
    for &id in &ids {
        let st = svc.wait_job(id).expect("known id");
        assert!(matches!(st.state, JobState::DeadLetter { .. }), "{st:?}");
    }
    let m = svc.metrics();
    assert_eq!(m.dead_lettered + m.completed, m.submitted);
    let chaos = svc.chaos_report();
    assert!(chaos.has(corun_verify::Code::Srv003));
    assert!(chaos.has(corun_verify::Code::Srv006));
    svc.shutdown();
    drop(svc);

    let (records, report) = read_journal(&path);
    assert!(!report.has_errors(), "{}", report.render_human());
    let (recovered, replay_report) = replay(&records);
    assert!(
        !replay_report.has_errors(),
        "{}",
        replay_report.render_human()
    );
    assert_eq!(recovered.jobs.len(), 2);
    for rj in &recovered.jobs {
        assert!(matches!(rj.disposition, Disposition::Dead { .. }));
    }
    // And the dead-letter verdicts survive a recovery restart.
    recover_and_check(&path);
    std::fs::remove_file(&path).ok();
}
