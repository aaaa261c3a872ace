//! Crash-safe service journal: an append-only, fsync'd line-JSON log of
//! every admission, dispatch, completion, requeue, dead-letter, and
//! eviction the daemon performs.
//!
//! The journal is the daemon's write-ahead record: each record is one
//! JSON object on one line, flushed and `sync_data`'d before the state
//! change it describes becomes observable to clients. A daemon killed at
//! any byte can therefore be restarted with `--recover`: [`read_journal`]
//! tolerates a torn final line (the kill landed mid-write) and
//! [`replay`] folds the surviving prefix into one [`Disposition`] per
//! job — done work stays done, in-flight work is re-queued, and nothing
//! is double-dispatched.
//!
//! The format is versioned by [`JOURNAL_FORMAT_VERSION`], the sibling of
//! `runtime::CACHE_FORMAT_VERSION`: bump it whenever a record's schema
//! changes so stale journals are refused (SRV007) instead of
//! misinterpreted. `docs/FAULTS.md` documents the format and the
//! recovery semantics.

use crate::json::{obj, Json};
use apu_sim::Device;
use corun_verify::{Code, Diagnostic, Report, Severity};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Journal schema revision; mismatches are refused at recovery with
/// SRV007. Versioned alongside `runtime::CACHE_FORMAT_VERSION`.
/// v2 added `machines` to `meta`/`recovered` and the `cap`, `shutdown`,
/// and `snapshot` record types that make journals deterministically
/// replayable (`docs/REPLAY.md`).
pub const JOURNAL_FORMAT_VERSION: u32 = 2;

/// One journal record. The first line of every journal is `Meta`; every
/// later line describes one state transition, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Journal header: format version and machine count, so `corun
    /// replay` can rebuild the service shape without out-of-band flags.
    Meta {
        /// The [`JOURNAL_FORMAT_VERSION`] the journal was written under.
        version: u32,
        /// Simulated machines the daemon was started with.
        machines: usize,
    },
    /// A recovery generation boundary: the daemon restarted and replayed
    /// everything above this line; `jobs` jobs were reconstructed.
    Recovered {
        /// Jobs known after replay.
        jobs: usize,
        /// Machine count of the restarted incarnation.
        machines: usize,
    },
    /// A job passed admission. `id`s are dense and in admission order.
    Accept {
        /// The assigned job id.
        id: usize,
        /// Instance name (`program#k`).
        name: String,
        /// Program the job was built from.
        program: String,
        /// Workload scale factor.
        scale: f64,
    },
    /// A job was profiled but refused (cap-infeasible).
    Reject {
        /// The assigned job id.
        id: usize,
    },
    /// A job was handed to a simulated machine.
    Dispatch {
        /// The job id.
        id: usize,
        /// Hosting machine index.
        machine: usize,
        /// Device it was placed on.
        device: Device,
        /// Dispatch time on that machine's simulated clock, seconds.
        start_s: f64,
        /// Model-predicted duration, seconds.
        predicted_s: f64,
        /// Execution attempt (0 for the first dispatch).
        attempt: u32,
    },
    /// A job completed.
    Done {
        /// The job id.
        id: usize,
        /// Hosting machine index.
        machine: usize,
        /// Device it ran on.
        device: Device,
        /// Dispatch time, simulated seconds.
        start_s: f64,
        /// Completion time, simulated seconds.
        end_s: f64,
        /// Model-predicted duration at dispatch, seconds.
        predicted_s: f64,
    },
    /// A failed or evicted job went back to the queue.
    Requeue {
        /// The job id.
        id: usize,
        /// Retry attempt this requeue starts (1-based).
        attempt: u32,
        /// Back-off before the job becomes dispatchable again, seconds.
        backoff_s: f64,
        /// Why the previous execution was lost.
        reason: String,
    },
    /// A job exhausted its retry budget and was dead-lettered.
    Dead {
        /// The job id.
        id: usize,
        /// Why the job was given up on.
        reason: String,
    },
    /// A machine crashed and its in-flight work was evicted.
    Evict {
        /// The crashed machine's index.
        machine: usize,
        /// Simulated time of the crash, seconds.
        at_s: f64,
    },
    /// The power cap was rebalanced (operator `set_cap` or a fleet
    /// coordinator repartition).
    CapChange {
        /// The new cap, watts.
        cap_w: f64,
    },
    /// Graceful shutdown began: no further admissions, the queue drains.
    ShutdownBegin,
    /// A periodic checkpoint of the full `ServiceState`, written at a
    /// quiescent point (state and journal agree). Bounds replay time and
    /// lets `corun replay` verify fingerprint equality mid-run.
    Snapshot {
        /// Records written before this snapshot (its own journal index).
        seq: u64,
        /// `ServiceState::fingerprint()` at the checkpoint.
        fingerprint: u64,
        /// The encoded state (see `snapshot::encode_state`).
        state: String,
    },
}

fn device_str(d: Device) -> &'static str {
    match d {
        Device::Cpu => "cpu",
        Device::Gpu => "gpu",
    }
}

fn parse_device(s: &str) -> Option<Device> {
    match s {
        "cpu" => Some(Device::Cpu),
        "gpu" => Some(Device::Gpu),
        _ => None,
    }
}

impl Record {
    /// Render as one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let v = match self {
            Record::Meta { version, machines } => obj(vec![
                ("t", Json::Str("meta".into())),
                ("version", Json::Num(*version as f64)),
                ("machines", Json::Num(*machines as f64)),
            ]),
            Record::Recovered { jobs, machines } => obj(vec![
                ("t", Json::Str("recovered".into())),
                ("jobs", Json::Num(*jobs as f64)),
                ("machines", Json::Num(*machines as f64)),
            ]),
            Record::Accept {
                id,
                name,
                program,
                scale,
            } => obj(vec![
                ("t", Json::Str("accept".into())),
                ("id", Json::Num(*id as f64)),
                ("name", Json::Str(name.clone())),
                ("program", Json::Str(program.clone())),
                ("scale", Json::Num(*scale)),
            ]),
            Record::Reject { id } => obj(vec![
                ("t", Json::Str("reject".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            Record::Dispatch {
                id,
                machine,
                device,
                start_s,
                predicted_s,
                attempt,
            } => obj(vec![
                ("t", Json::Str("dispatch".into())),
                ("id", Json::Num(*id as f64)),
                ("machine", Json::Num(*machine as f64)),
                ("device", Json::Str(device_str(*device).into())),
                ("start_s", Json::Num(*start_s)),
                ("predicted_s", Json::Num(*predicted_s)),
                ("attempt", Json::Num(*attempt as f64)),
            ]),
            Record::Done {
                id,
                machine,
                device,
                start_s,
                end_s,
                predicted_s,
            } => obj(vec![
                ("t", Json::Str("done".into())),
                ("id", Json::Num(*id as f64)),
                ("machine", Json::Num(*machine as f64)),
                ("device", Json::Str(device_str(*device).into())),
                ("start_s", Json::Num(*start_s)),
                ("end_s", Json::Num(*end_s)),
                ("predicted_s", Json::Num(*predicted_s)),
            ]),
            Record::Requeue {
                id,
                attempt,
                backoff_s,
                reason,
            } => obj(vec![
                ("t", Json::Str("requeue".into())),
                ("id", Json::Num(*id as f64)),
                ("attempt", Json::Num(*attempt as f64)),
                ("backoff_s", Json::Num(*backoff_s)),
                ("reason", Json::Str(reason.clone())),
            ]),
            Record::Dead { id, reason } => obj(vec![
                ("t", Json::Str("dead".into())),
                ("id", Json::Num(*id as f64)),
                ("reason", Json::Str(reason.clone())),
            ]),
            Record::Evict { machine, at_s } => obj(vec![
                ("t", Json::Str("evict".into())),
                ("machine", Json::Num(*machine as f64)),
                ("at_s", Json::Num(*at_s)),
            ]),
            Record::CapChange { cap_w } => obj(vec![
                ("t", Json::Str("cap".into())),
                ("cap_w", Json::Num(*cap_w)),
            ]),
            Record::ShutdownBegin => obj(vec![("t", Json::Str("shutdown".into()))]),
            Record::Snapshot {
                seq,
                fingerprint,
                state,
            } => obj(vec![
                ("t", Json::Str("snapshot".into())),
                ("seq", Json::Num(*seq as f64)),
                // 64-bit fingerprints don't fit a JSON double; hex string.
                ("fp", Json::Str(format!("{fingerprint:016x}"))),
                ("state", Json::Str(state.clone())),
            ]),
        };
        v.render()
    }

    /// Parse one journal line. `Ok(None)` means the record type is
    /// unknown (written by a newer minor revision) and should be skipped.
    pub fn from_json(line: &str) -> Result<Option<Record>, String> {
        let v = Json::parse(line)?;
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or("record missing `t`")?;
        let idx = |key: &str| {
            v.get(key)
                .and_then(Json::as_index)
                .ok_or_else(|| format!("record missing `{key}`"))
        };
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record missing `{key}`"))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record missing `{key}`"))
        };
        let dev = || {
            text("device").and_then(|s| parse_device(&s).ok_or_else(|| format!("bad device `{s}`")))
        };
        let rec = match t {
            // `machines` arrived in v2; default it so a v1 header still
            // parses far enough to earn the version-mismatch diagnostic
            // instead of a torn-tail one.
            "meta" => Record::Meta {
                version: idx("version")? as u32,
                machines: v.get("machines").and_then(Json::as_index).unwrap_or(1),
            },
            "recovered" => Record::Recovered {
                jobs: idx("jobs")?,
                machines: v.get("machines").and_then(Json::as_index).unwrap_or(1),
            },
            "accept" => Record::Accept {
                id: idx("id")?,
                name: text("name")?,
                program: text("program")?,
                scale: num("scale")?,
            },
            "reject" => Record::Reject { id: idx("id")? },
            "dispatch" => Record::Dispatch {
                id: idx("id")?,
                machine: idx("machine")?,
                device: dev()?,
                start_s: num("start_s")?,
                predicted_s: num("predicted_s")?,
                attempt: idx("attempt")? as u32,
            },
            "done" => Record::Done {
                id: idx("id")?,
                machine: idx("machine")?,
                device: dev()?,
                start_s: num("start_s")?,
                end_s: num("end_s")?,
                predicted_s: num("predicted_s")?,
            },
            "requeue" => Record::Requeue {
                id: idx("id")?,
                attempt: idx("attempt")? as u32,
                backoff_s: num("backoff_s")?,
                reason: text("reason")?,
            },
            "dead" => Record::Dead {
                id: idx("id")?,
                reason: text("reason")?,
            },
            "evict" => Record::Evict {
                machine: idx("machine")?,
                at_s: num("at_s")?,
            },
            "cap" => Record::CapChange {
                cap_w: num("cap_w")?,
            },
            "shutdown" => Record::ShutdownBegin,
            "snapshot" => Record::Snapshot {
                seq: idx("seq")? as u64,
                fingerprint: text("fp").and_then(|s| {
                    u64::from_str_radix(&s, 16).map_err(|e| format!("bad fingerprint `{s}`: {e}"))
                })?,
                state: text("state")?,
            },
            _ => return Ok(None),
        };
        Ok(Some(rec))
    }
}

/// An open journal file. Every [`Journal::append`] flushes and
/// `sync_data`s before returning, so a record the caller has seen
/// committed survives `kill -9`.
pub struct Journal {
    file: File,
    path: PathBuf,
    seq: u64,
}

impl Journal {
    /// Create (truncate) a fresh journal and write the `Meta` header.
    pub fn create(path: &Path, machines: usize) -> std::io::Result<Journal> {
        let mut j = Journal::create_raw(path)?;
        j.append(&Record::Meta {
            version: JOURNAL_FORMAT_VERSION,
            machines,
        })?;
        Ok(j)
    }

    /// Create (truncate) a fresh journal without writing the service
    /// `Meta` header. For callers that own their own record vocabulary
    /// (the fleet coordinator log) but want the same durable writer.
    pub fn create_raw(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            seq: 0,
        })
    }

    /// Open an existing journal for appending (after a successful
    /// recovery replay). `seq` is the number of records already in the
    /// file, so snapshot sequence numbers stay contiguous across
    /// restarts.
    pub fn open_append(path: &Path, seq: u64) -> std::io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            seq,
        })
    }

    /// Durably append one record: write the line, flush, `sync_data`.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let mut line = record.to_json();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.seq += 1;
        Ok(())
    }

    /// Durably append one pre-rendered line (no trailing newline):
    /// same write/flush/`sync_data` discipline as [`Journal::append`],
    /// for callers with their own record vocabulary.
    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.seq += 1;
        Ok(())
    }

    /// Records written to the file so far (the journal index the next
    /// record will take).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What replay concluded about one job.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Accepted; never completed (queued or in-flight at the kill).
    /// Recovery re-queues it.
    Pending,
    /// Refused at admission.
    Rejected,
    /// Completed; recovery must not re-dispatch it.
    Done {
        /// Hosting machine index.
        machine: usize,
        /// Device it ran on.
        device: Device,
        /// Dispatch time, simulated seconds.
        start_s: f64,
        /// Completion time, simulated seconds.
        end_s: f64,
        /// Model-predicted duration at dispatch, seconds.
        predicted_s: f64,
    },
    /// Retries exhausted before the kill.
    Dead {
        /// Why the job was given up on.
        reason: String,
    },
}

/// One job reconstructed by [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// Instance name (`program#k`).
    pub name: String,
    /// Program to rebuild the [`apu_sim::JobSpec`] from.
    pub program: String,
    /// Workload scale factor.
    pub scale: f64,
    /// Where the job stood at the last committed record.
    pub disposition: Disposition,
    /// Retry attempts already consumed (counted off `Requeue` records).
    pub retries: u32,
}

/// The outcome of replaying a journal.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// One entry per job id, dense in admission order.
    pub jobs: Vec<RecoveredJob>,
}

/// Read a journal file into records, tolerantly.
///
/// Problems surface as SRV007 diagnostics in the returned report rather
/// than hard errors: an unreadable file, a bad/missing version header,
/// or a corrupt record with committed records after it is an error (the
/// journal cannot be trusted); a corrupt *final* record is a warning
/// (the tail was torn by a kill mid-write, everything before it is
/// intact).
///
/// Records that parse are then run through [`check_causality`]: a
/// journal whose records are individually valid but causally impossible
/// (e.g. `done` before `dispatch`) earns error-severity SRV010
/// diagnostics, and recovery abandons it rather than replaying a
/// fabricated history.
pub fn read_journal(path: &Path) -> (Vec<Record>, Report) {
    let scan = scan_journal(path);
    (scan.records, scan.report)
}

/// Everything [`scan_log`] learned about a line log on disk — a service
/// journal or the fleet coordinator's log — including the byte geometry
/// recovery needs to repair a torn tail.
#[derive(Debug)]
pub struct LogScan<R> {
    /// The records of the intact prefix.
    pub records: Vec<R>,
    /// Diagnostics under the log's code; `has_errors()` means the log
    /// must be abandoned.
    pub report: Report,
    /// Byte length of the intact prefix: every complete, parseable line
    /// lies below this offset.
    pub valid_len: u64,
    /// Byte offset of the torn final record, if the scan hit one.
    /// Mid-file corruption is an error instead and leaves this `None`,
    /// so [`repair_tail`] can never truncate committed records.
    pub torn_at: Option<u64>,
    /// The last intact record was not newline-terminated (the kill
    /// landed between the payload and the `\n`); [`repair_tail`]
    /// restores the terminator so appends start on a fresh line.
    pub needs_newline: bool,
}

/// A scanned service journal.
pub type JournalScan = LogScan<Record>;

/// Scan a line log byte-accurately, decoding each line with `decode`
/// (`Ok(None)` = a well-formed record of an unknown type, skipped with a
/// warning). A corrupt final line is a torn crash write: a warning, and
/// [`repair_tail`] cuts it off. A corrupt line with any record after it
/// is real corruption: an error, and the scan stops there. Lines are
/// decoded from bytes one at a time, so a tear inside a multi-byte UTF-8
/// character spoils only its own line. Every diagnostic carries `code`.
pub fn scan_log<R>(
    path: &Path,
    code: Code,
    decode: impl Fn(&str) -> Result<Option<R>, String>,
) -> LogScan<R> {
    let mut scan = LogScan {
        records: Vec::new(),
        report: Report::new(),
        valid_len: 0,
        torn_at: None,
        needs_newline: false,
    };
    let loc = path.display().to_string();
    let error =
        |at: String, msg: String| Diagnostic::new(code, at, msg).with_severity(Severity::Error);
    let mut reader = match File::open(path) {
        Ok(f) => BufReader::new(f),
        Err(e) => {
            scan.report
                .push(error(loc, format!("cannot read log: {e}")));
            return scan;
        }
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut offset: u64 = 0;
    let mut lineno: usize = 0;
    // The first undecodable line — `(line, byte offset, why)`. It is a
    // torn tail only if nothing but blank lines follows it.
    let mut bad: Option<(usize, u64, String)> = None;
    loop {
        buf.clear();
        let n = match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                scan.report.push(error(
                    format!("{loc}:{}", lineno + 1),
                    format!("read failed at byte {offset}: {e}"),
                ));
                return scan;
            }
        };
        let line_start = offset;
        offset += n as u64;
        lineno += 1;
        if buf.iter().all(u8::is_ascii_whitespace) {
            if bad.is_none() && buf.last() == Some(&b'\n') {
                scan.valid_len = offset;
            }
            continue;
        }
        if let Some((at_line, at, why)) = bad {
            scan.report.push(error(
                format!("{loc}:{at_line}"),
                format!("corrupt record at byte {at}, before the last line: {why}"),
            ));
            return scan;
        }
        let decoded = std::str::from_utf8(&buf)
            .map_err(|e| format!("invalid UTF-8: {e}"))
            .and_then(|line| decode(line.trim()));
        match decoded {
            Ok(rec) => {
                match rec {
                    Some(rec) => scan.records.push(rec),
                    None => scan.report.push(
                        Diagnostic::new(
                            code,
                            format!("{loc}:{lineno}"),
                            "unknown record type; skipped",
                        )
                        .with_severity(Severity::Warning),
                    ),
                }
                scan.valid_len = offset;
                // An unterminated payload that still parses is durable;
                // only the `\n` needs repair before appends resume.
                scan.needs_newline = buf.last() != Some(&b'\n');
            }
            Err(why) => bad = Some((lineno, line_start, why)),
        }
    }
    if let Some((at_line, at, why)) = bad {
        scan.torn_at = Some(at);
        scan.report.push(
            Diagnostic::new(
                code,
                format!("{loc}:{at_line}"),
                format!("torn journal tail: {why} (first corrupt record at byte {at})"),
            )
            .with_severity(Severity::Warning)
            .with_help("the writer was killed mid-write; the intact prefix is recovered"),
        );
    }
    scan
}

/// Scan a service journal: [`scan_log`] under SRV007, then the header
/// gate (a missing or mismatched `meta` invalidates every record) and
/// [`check_causality`]. [`read_journal`] is the records-and-report view
/// of this; recovery uses the full scan to [`repair_tail`] before
/// reopening the file for appends.
pub fn scan_journal(path: &Path) -> JournalScan {
    let mut scan = scan_log(path, Code::Srv007, Record::from_json);
    let loc = path.display().to_string();
    let refused = match scan.records.first() {
        Some(Record::Meta { version, .. }) if *version == JOURNAL_FORMAT_VERSION => None,
        Some(Record::Meta { version, .. }) => Some(format!(
            "journal format v{version} does not match this build (v{JOURNAL_FORMAT_VERSION})"
        )),
        _ => Some("journal has no version header".to_string()),
    };
    if let Some(msg) = refused {
        scan.report
            .push(Diagnostic::new(Code::Srv007, loc, msg).with_severity(Severity::Error));
        scan.records.clear();
    }
    scan.report.merge(check_causality(&scan.records));
    scan
}

/// Truncate a torn tail off a log so the file once again ends at a
/// record boundary, and restore a missing final newline. Recovery calls
/// this (with the scan it already has) before reopening the log for
/// appends — otherwise the first post-recovery record would concatenate
/// onto the torn fragment and corrupt the file for the *next* recovery.
/// Returns whether the file was modified.
pub fn repair_tail<R>(path: &Path, scan: &LogScan<R>) -> std::io::Result<bool> {
    let mut changed = false;
    if scan.torn_at.is_some() {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(scan.valid_len)?;
        f.sync_data()?;
        changed = true;
    }
    if scan.needs_newline {
        let mut f = OpenOptions::new().append(true).open(path)?;
        f.write_all(b"\n")?;
        f.sync_data()?;
        changed = true;
    }
    Ok(changed)
}

/// Check that a record sequence tells a causally possible story.
///
/// [`replay`] is deliberately tolerant — it folds whatever records it is
/// given and flags only local inconsistencies (SRV009). That tolerance
/// would let a journal whose records are *individually* valid but out of
/// order (a `done` before its `dispatch`, overlapping dispatches of one
/// job, retry attempts that skip numbers) replay into a state the
/// service never passed through. This pass enforces the ordering rules
/// the live daemon's transitions guarantee:
///
/// * `done`, `requeue`, and `dead` each close a dispatch that is
///   actually open for that job, and `done` names the machine/device the
///   open dispatch used;
/// * a job is never dispatched while a dispatch for it is open, nor
///   after it finished (`done`/`dead`) or was rejected;
/// * `reject` only hits a job with no open dispatch and no terminal
///   state;
/// * `dispatch` carries `attempt` equal to the retries consumed so far,
///   and each `requeue` carries exactly the next attempt number;
/// * a `recovered` boundary closes every open dispatch (in-flight work
///   became pending at the kill).
///
/// A dispatch left open at the end of the journal is *not* a violation:
/// that is exactly what a kill leaves behind, and every record-boundary
/// prefix of a causal journal is itself causal. Violations are SRV010 at
/// error severity, so [`read_journal`] callers that gate on
/// `Report::has_errors` abandon the journal instead of replaying it.
pub fn check_causality(records: &[Record]) -> Report {
    struct Track {
        open: Option<(usize, Device)>,
        retries: u32,
        terminal: Option<&'static str>,
    }
    let mut report = Report::new();
    let mut jobs: Vec<Track> = Vec::new();
    let mut bad = |rec: usize, msg: String| {
        report.push(
            Diagnostic::new(Code::Srv010, format!("journal record {rec}"), msg).with_help(
                "this journal's history is causally impossible; recovery abandons it".to_string(),
            ),
        );
    };
    for (k, rec) in records.iter().enumerate() {
        match rec {
            Record::Meta { .. }
            | Record::Evict { .. }
            | Record::CapChange { .. }
            | Record::ShutdownBegin
            | Record::Snapshot { .. } => {}
            Record::Recovered { .. } => {
                // A restart boundary: whatever was in flight at the kill
                // was reconstructed as pending, so no dispatch stays open
                // across it.
                for j in &mut jobs {
                    j.open = None;
                }
            }
            Record::Accept { id, .. } => {
                // Density is replay's concern (SRV009); only track the
                // jobs that fit the dense sequence.
                if *id == jobs.len() {
                    jobs.push(Track {
                        open: None,
                        retries: 0,
                        terminal: None,
                    });
                }
            }
            Record::Reject { id } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if let Some((machine, _)) = j.open {
                        bad(
                            k,
                            format!("job {id} rejected while running on machine {machine}"),
                        );
                    } else if let Some(t) = j.terminal {
                        bad(k, format!("job {id} rejected after it was already {t}"));
                    } else {
                        j.terminal = Some("rejected");
                    }
                }
            }
            Record::Dispatch {
                id,
                machine,
                device,
                attempt,
                ..
            } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if let Some((open_m, _)) = j.open {
                        bad(
                            k,
                            format!(
                                "job {id} dispatched to machine {machine} while a dispatch on machine {open_m} is still open"
                            ),
                        );
                    } else if let Some(t) = j.terminal {
                        bad(k, format!("job {id} dispatched after it was already {t}"));
                    } else if *attempt != j.retries {
                        bad(
                            k,
                            format!(
                                "job {id} dispatched as attempt {attempt} but {} retr{} consumed",
                                j.retries,
                                if j.retries == 1 { "y was" } else { "ies were" }
                            ),
                        );
                    } else {
                        j.open = Some((*machine, *device));
                    }
                }
            }
            Record::Done {
                id,
                machine,
                device,
                ..
            } => {
                if let Some(j) = jobs.get_mut(*id) {
                    match j.open {
                        None => bad(
                            k,
                            format!("job {id} done with no open dispatch (done before dispatch?)"),
                        ),
                        Some((open_m, open_d)) if open_m != *machine || open_d != *device => bad(
                            k,
                            format!(
                                "job {id} done on machine {machine}/{} but was dispatched to machine {open_m}/{}",
                                device_str(*device),
                                device_str(open_d)
                            ),
                        ),
                        Some(_) => {
                            j.open = None;
                            j.terminal = Some("done");
                        }
                    }
                }
            }
            Record::Requeue { id, attempt, .. } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if j.open.is_none() {
                        bad(
                            k,
                            format!("job {id} requeued with no open dispatch to fail"),
                        );
                    } else if *attempt != j.retries + 1 {
                        bad(
                            k,
                            format!(
                                "job {id} requeued as attempt {attempt} after attempt {} (retry numbering must be contiguous)",
                                j.retries
                            ),
                        );
                    } else {
                        j.open = None;
                        j.retries = *attempt;
                    }
                }
            }
            Record::Dead { id, .. } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if j.open.is_none() {
                        bad(
                            k,
                            format!("job {id} dead-lettered with no open dispatch to fail"),
                        );
                    } else {
                        j.open = None;
                        j.terminal = Some("dead-lettered");
                    }
                }
            }
        }
    }
    report
}

/// Fold a record sequence into per-job dispositions.
///
/// Inconsistencies (references to unknown ids, completions of already
/// completed jobs) surface as SRV009 diagnostics; the offending record
/// is skipped and replay continues, so one bad record cannot poison the
/// rest of the journal.
pub fn replay(records: &[Record]) -> (Recovered, Report) {
    let mut report = Report::new();
    let mut out = Recovered::default();
    let mut bad = |rec: usize, msg: String| {
        report.push(Diagnostic::new(
            Code::Srv009,
            format!("journal record {rec}"),
            msg,
        ));
    };
    for (k, rec) in records.iter().enumerate() {
        match rec {
            Record::Meta { .. }
            | Record::Recovered { .. }
            | Record::Evict { .. }
            | Record::CapChange { .. }
            | Record::ShutdownBegin
            | Record::Snapshot { .. } => {}
            Record::Accept {
                id,
                name,
                program,
                scale,
            } => {
                if *id != out.jobs.len() {
                    bad(
                        k,
                        format!("accept of job {id} but {} jobs known", out.jobs.len()),
                    );
                    continue;
                }
                out.jobs.push(RecoveredJob {
                    name: name.clone(),
                    program: program.clone(),
                    scale: *scale,
                    disposition: Disposition::Pending,
                    retries: 0,
                });
            }
            Record::Reject { id } => match out.jobs.get_mut(*id) {
                Some(j) => j.disposition = Disposition::Rejected,
                None => bad(k, format!("reject of unknown job {id}")),
            },
            Record::Dispatch { id, .. } => match out.jobs.get(*id) {
                // A dispatch without a matching done means the job was
                // in-flight at the kill: it stays Pending and recovery
                // re-queues it. A dispatch *after* a done is the
                // double-dispatch the journal exists to prevent.
                Some(j) if matches!(j.disposition, Disposition::Done { .. }) => {
                    bad(k, format!("job {id} dispatched after completing"));
                }
                Some(_) => {}
                None => bad(k, format!("dispatch of unknown job {id}")),
            },
            Record::Done {
                id,
                machine,
                device,
                start_s,
                end_s,
                predicted_s,
            } => match out.jobs.get_mut(*id) {
                Some(j) => {
                    if matches!(j.disposition, Disposition::Done { .. }) {
                        bad(k, format!("job {id} completed twice"));
                    } else {
                        j.disposition = Disposition::Done {
                            machine: *machine,
                            device: *device,
                            start_s: *start_s,
                            end_s: *end_s,
                            predicted_s: *predicted_s,
                        };
                    }
                }
                None => bad(k, format!("completion of unknown job {id}")),
            },
            Record::Requeue { id, attempt, .. } => match out.jobs.get_mut(*id) {
                Some(j) => j.retries = (*attempt).max(j.retries),
                None => bad(k, format!("requeue of unknown job {id}")),
            },
            Record::Dead { id, reason } => match out.jobs.get_mut(*id) {
                Some(j) => {
                    j.disposition = Disposition::Dead {
                        reason: reason.clone(),
                    }
                }
                None => bad(k, format!("dead-letter of unknown job {id}")),
            },
        }
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "corun-journal-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Accept {
                id: 0,
                name: "srad#0".into(),
                program: "srad".into(),
                scale: 0.2,
            },
            Record::Accept {
                id: 1,
                name: "lud#0".into(),
                program: "lud".into(),
                scale: 0.1,
            },
            Record::Dispatch {
                id: 0,
                machine: 0,
                device: Device::Gpu,
                start_s: 0.0,
                predicted_s: 3.5,
                attempt: 0,
            },
            Record::Done {
                id: 0,
                machine: 0,
                device: Device::Gpu,
                start_s: 0.0,
                end_s: 3.4,
                predicted_s: 3.5,
            },
            Record::Dispatch {
                id: 1,
                machine: 0,
                device: Device::Cpu,
                start_s: 3.4,
                predicted_s: 2.0,
                attempt: 0,
            },
            Record::Requeue {
                id: 1,
                attempt: 1,
                backoff_s: 0.05,
                reason: "injected job failure".into(),
            },
            Record::Evict {
                machine: 0,
                at_s: 4.0,
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_json() {
        let mut all = sample_records();
        all.extend([
            Record::Meta {
                version: JOURNAL_FORMAT_VERSION,
                machines: 3,
            },
            Record::Recovered {
                jobs: 2,
                machines: 3,
            },
            Record::CapChange { cap_w: 12.5 },
            Record::ShutdownBegin,
            Record::Snapshot {
                seq: 17,
                fingerprint: 0xdead_beef_cafe_f00d,
                state: "{\"jobs\":[],\"queue\":[]}".into(),
            },
        ]);
        for rec in all {
            let line = rec.to_json();
            let back = Record::from_json(&line).unwrap().unwrap();
            assert_eq!(back, rec, "roundtrip failed for {line}");
        }
        // Unknown types are skipped, not errors; garbage is an error.
        assert_eq!(Record::from_json(r#"{"t":"future_thing"}"#).unwrap(), None);
        assert!(Record::from_json("{half a rec").is_err());
        assert!(Record::from_json(r#"{"t":"accept","id":0}"#).is_err());
    }

    #[test]
    fn journal_write_read_replay() {
        let path = temp_path("roundtrip");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let (records, report) = read_journal(&path);
        assert!(report.is_empty(), "{}", report.render_human());
        assert_eq!(records.len(), 1 + sample_records().len());
        let (rec, replay_report) = replay(&records);
        assert!(replay_report.is_empty(), "{}", replay_report.render_human());
        assert_eq!(rec.jobs.len(), 2);
        assert!(matches!(rec.jobs[0].disposition, Disposition::Done { .. }));
        assert_eq!(rec.jobs[1].disposition, Disposition::Pending);
        assert_eq!(rec.jobs[1].retries, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        // Chop the file mid-way through the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let scan = scan_journal(&path);
        assert!(scan.report.has(Code::Srv007));
        assert!(!scan.report.has_errors(), "a torn tail is recoverable");
        assert_eq!(scan.records.len(), sample_records().len()); // meta + all but the torn one
        let (rec, _) = replay(&scan.records);
        assert_eq!(rec.jobs.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_diagnostic_reports_the_byte_offset() {
        let path = temp_path("torn-offset");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        // The corrupt record starts right after the last intact newline.
        let cut = bytes.len() - 9;
        let expect_at = bytes[..cut]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap() as u64;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let scan = scan_journal(&path);
        assert_eq!(scan.torn_at, Some(expect_at));
        assert_eq!(scan.valid_len, expect_at);
        let rendered = scan.report.render_human();
        assert!(
            rendered.contains(&format!("first corrupt record at byte {expect_at}")),
            "diagnostic must name the byte offset: {rendered}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repair_tail_restores_a_record_boundary() {
        let path = temp_path("repair");
        let mut j = Journal::create(&path, 1).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let clean = std::fs::read(&path).unwrap();

        // Torn mid-record: repair truncates the fragment, and appends
        // resume on a clean boundary that a later scan fully reads.
        std::fs::write(&path, &clean[..clean.len() - 9]).unwrap();
        let scan = scan_journal(&path);
        assert!(repair_tail(&path, &scan).unwrap());
        let mut j = Journal::open_append(&path, scan.records.len() as u64).unwrap();
        j.append(&Record::Recovered {
            jobs: 2,
            machines: 1,
        })
        .unwrap();
        drop(j);
        let rescan = scan_journal(&path);
        assert!(rescan.torn_at.is_none());
        assert!(
            !rescan.report.has_errors(),
            "{}",
            rescan.report.render_human()
        );
        assert_eq!(rescan.records.len(), sample_records().len() + 1);
        assert!(matches!(
            rescan.records.last(),
            Some(Record::Recovered { jobs: 2, .. })
        ));

        // Missing final newline only: the record is durable; repair
        // restores the terminator without dropping it.
        std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        let scan = scan_journal(&path);
        assert!(scan.torn_at.is_none());
        assert!(scan.needs_newline);
        assert_eq!(scan.records.len(), 1 + sample_records().len());
        assert!(repair_tail(&path, &scan).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), clean);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_refuses_the_journal() {
        let path = temp_path("version");
        std::fs::write(
            &path,
            "{\"t\":\"meta\",\"version\":99}\n{\"t\":\"reject\",\"id\":0}\n",
        )
        .unwrap();
        let (records, report) = read_journal(&path);
        assert!(records.is_empty());
        assert!(report.has(Code::Srv007));
        assert!(report.has_errors(), "a version mismatch is not recoverable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_flags_inconsistencies_as_srv009() {
        let records = vec![
            Record::Meta {
                version: JOURNAL_FORMAT_VERSION,
                machines: 1,
            },
            Record::Accept {
                id: 0,
                name: "srad#0".into(),
                program: "srad".into(),
                scale: 0.2,
            },
            Record::Done {
                id: 0,
                machine: 0,
                device: Device::Gpu,
                start_s: 0.0,
                end_s: 1.0,
                predicted_s: 1.0,
            },
            // Duplicate completion and an unknown id: both SRV009.
            Record::Done {
                id: 0,
                machine: 0,
                device: Device::Gpu,
                start_s: 0.0,
                end_s: 2.0,
                predicted_s: 1.0,
            },
            Record::Requeue {
                id: 7,
                attempt: 1,
                backoff_s: 0.1,
                reason: "x".into(),
            },
        ];
        let (rec, report) = replay(&records);
        assert_eq!(report.count(Code::Srv009), 2);
        // The first completion wins.
        match &rec.jobs[0].disposition {
            Disposition::Done { end_s, .. } => assert_eq!(*end_s, 1.0),
            other => panic!("expected done, got {other:?}"),
        }
        std::mem::drop(rec);
    }

    #[test]
    fn done_before_dispatch_abandons_the_journal() {
        // The ISSUE example: every record parses and replay would happily
        // fold them, but the story is impossible — `done` precedes its
        // `dispatch`. read_journal must flag it at error severity so
        // recovery abandons the journal.
        let path = temp_path("causality");
        let mut j = Journal::create(&path, 1).unwrap();
        j.append(&Record::Accept {
            id: 0,
            name: "srad#0".into(),
            program: "srad".into(),
            scale: 0.2,
        })
        .unwrap();
        j.append(&Record::Done {
            id: 0,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            end_s: 1.0,
            predicted_s: 1.0,
        })
        .unwrap();
        j.append(&Record::Dispatch {
            id: 0,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            predicted_s: 1.0,
            attempt: 0,
        })
        .unwrap();
        drop(j);
        let (_, report) = read_journal(&path);
        assert!(report.has(Code::Srv010), "{}", report.render_human());
        assert!(
            report.has_errors(),
            "causality violations must abandon recovery"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn causality_accepts_every_live_shape() {
        // Clean journals in every shape the daemon actually writes:
        // dispatch/done, dispatch/requeue/redispatch, dead-letter,
        // eviction before the per-job requeues, and a recovery boundary
        // that voids in-flight dispatches.
        let mut records = vec![Record::Meta {
            version: JOURNAL_FORMAT_VERSION,
            machines: 2,
        }];
        records.extend(sample_records());
        // Job 1 was requeued (attempt 1); redispatch and kill in flight.
        records.push(Record::Dispatch {
            id: 1,
            machine: 1,
            device: Device::Cpu,
            start_s: 5.0,
            predicted_s: 2.0,
            attempt: 1,
        });
        // Restart: the open dispatch of job 1 becomes pending again.
        records.push(Record::Recovered {
            jobs: 2,
            machines: 2,
        });
        records.push(Record::Dispatch {
            id: 1,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            predicted_s: 2.0,
            attempt: 1,
        });
        records.push(Record::Requeue {
            id: 1,
            attempt: 2,
            backoff_s: 0.1,
            reason: "injected job failure".into(),
        });
        records.push(Record::Dispatch {
            id: 1,
            machine: 0,
            device: Device::Cpu,
            start_s: 1.0,
            predicted_s: 2.0,
            attempt: 2,
        });
        records.push(Record::Dead {
            id: 1,
            reason: "gave up".into(),
        });
        let report = check_causality(&records);
        assert!(report.is_empty(), "{}", report.render_human());
        // And every record-boundary prefix is itself causal — exactly
        // the journals a kill can leave behind.
        for cut in 0..=records.len() {
            assert!(
                check_causality(&records[..cut]).is_empty(),
                "prefix {cut} flagged"
            );
        }
    }

    #[test]
    fn causality_rejects_impossible_histories() {
        let accept = |id: usize| Record::Accept {
            id,
            name: format!("srad#{id}"),
            program: "srad".into(),
            scale: 0.2,
        };
        let dispatch = |id: usize, machine: usize, attempt: u32| Record::Dispatch {
            id,
            machine,
            device: Device::Cpu,
            start_s: 0.0,
            predicted_s: 1.0,
            attempt,
        };
        // Overlapping dispatches of one job.
        let r = check_causality(&[accept(0), dispatch(0, 0, 0), dispatch(0, 1, 0)]);
        assert_eq!(r.count(Code::Srv010), 1, "{}", r.render_human());
        // Requeue without an open dispatch.
        let r = check_causality(&[
            accept(0),
            Record::Requeue {
                id: 0,
                attempt: 1,
                backoff_s: 0.1,
                reason: "x".into(),
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Retry numbering must be contiguous: attempt 2 after attempt 0.
        let r = check_causality(&[
            accept(0),
            dispatch(0, 0, 0),
            Record::Requeue {
                id: 0,
                attempt: 2,
                backoff_s: 0.1,
                reason: "x".into(),
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Dispatch attempt must match retries consumed.
        let r = check_causality(&[accept(0), dispatch(0, 0, 3)]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Done on a machine the job was never dispatched to.
        let r = check_causality(&[
            accept(0),
            dispatch(0, 0, 0),
            Record::Done {
                id: 0,
                machine: 1,
                device: Device::Cpu,
                start_s: 0.0,
                end_s: 1.0,
                predicted_s: 1.0,
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Dead-letter without an open dispatch.
        let r = check_causality(&[
            accept(0),
            Record::Dead {
                id: 0,
                reason: "x".into(),
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Reject while running.
        let r = check_causality(&[accept(0), dispatch(0, 0, 0), Record::Reject { id: 0 }]);
        assert_eq!(r.count(Code::Srv010), 1);
        // All SRV010s are errors by default.
        assert!(r.has_errors());
    }

    #[test]
    fn every_prefix_replays_without_errors() {
        // Replay must accept any record-boundary prefix: that is exactly
        // the state a kill can leave behind.
        let mut records = vec![Record::Meta {
            version: JOURNAL_FORMAT_VERSION,
            machines: 2,
        }];
        records.extend(sample_records());
        records.push(Record::Dead {
            id: 1,
            reason: "retries exhausted".into(),
        });
        for cut in 1..=records.len() {
            let (rec, report) = replay(&records[..cut]);
            assert!(report.is_empty(), "prefix {cut}: {}", report.render_human());
            assert!(rec.jobs.len() <= 2);
        }
    }
}
