//! The coordinator's own write-ahead journal ("fleetlog").
//!
//! The shard journals make each *shard* kill -9-safe; this log makes the
//! *coordinator* recoverable: every placement decision is journaled via
//! the same fsync'd writer ([`corun_serve::Journal`]) the shards use, so
//! `corun fleet --recover` rebuilds the router books after a coordinator
//! crash with nothing lost and nothing double-dispatched.
//!
//! The exactly-once trick is the `intent` record: it is written *before*
//! the submit RPC leaves the coordinator. A crash between the RPC and
//! its `confirm` leaves an intent-without-confirm in the log, which
//! recovery maps to the in-doubt state — the job is then re-submitted
//! under its idempotent key *to the same shard*, where the shard-side
//! dedup (journaled in its own `accept` records) returns the original id
//! instead of running a second copy.

use corun_serve::json::{obj, Json};
use corun_serve::{scan_log, Journal, LogScan};
use corun_verify::Code;
use std::io;
use std::path::Path;

/// Fleetlog format revision, checked on recovery.
pub const FLEETLOG_FORMAT_VERSION: u32 = 1;

/// One coordinator decision, journaled before its effects are
/// observable.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetRecord {
    /// Header: format version and fleet shape.
    Meta {
        /// Format revision.
        version: u32,
        /// Shard count the books are indexed by.
        shards: usize,
        /// The cluster power cap, watts.
        cluster_cap_w: f64,
    },
    /// A job entered the fleet under an idempotent key.
    Admit {
        /// Fleet job id (dense, admission order).
        id: usize,
        /// Idempotent submit key (doubles as the shard-side job name).
        key: String,
        /// Single-job spec fragment to resubmit from.
        spec: String,
    },
    /// About to submit `id` to `shard` — written *before* the RPC.
    Intent {
        /// Fleet job id.
        id: usize,
        /// Destination shard.
        shard: usize,
    },
    /// The shard accepted `id` as its `local_id`.
    Confirm {
        /// Fleet job id.
        id: usize,
        /// Accepting shard.
        shard: usize,
        /// Shard-local job id.
        local_id: usize,
    },
    /// The submission certainly did not land; the job returned to the
    /// backlog.
    Abort {
        /// Fleet job id.
        id: usize,
    },
    /// Terminal: completed.
    Done {
        /// Fleet job id.
        id: usize,
    },
    /// Terminal: dead-lettered.
    Dead {
        /// Fleet job id.
        id: usize,
    },
    /// Terminal: rejected.
    Rejected {
        /// Fleet job id.
        id: usize,
    },
    /// A submitted job was re-placed off a journal-less incarnation.
    Requeue {
        /// Fleet job id.
        id: usize,
    },
    /// The per-shard cap budget after a rebalance, watts.
    Caps {
        /// Booked cap per shard.
        caps_w: Vec<f64>,
    },
    /// A coordinator recovery completed from this log.
    Recovered,
}

impl FleetRecord {
    /// Render as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let j = match self {
            FleetRecord::Meta {
                version,
                shards,
                cluster_cap_w,
            } => obj(vec![
                ("t", Json::Str("meta".into())),
                ("v", Json::Num(f64::from(*version))),
                ("shards", Json::Num(*shards as f64)),
                ("cluster_cap_w", Json::Num(*cluster_cap_w)),
            ]),
            FleetRecord::Admit { id, key, spec } => obj(vec![
                ("t", Json::Str("admit".into())),
                ("id", Json::Num(*id as f64)),
                ("key", Json::Str(key.clone())),
                ("spec", Json::Str(spec.clone())),
            ]),
            FleetRecord::Intent { id, shard } => obj(vec![
                ("t", Json::Str("intent".into())),
                ("id", Json::Num(*id as f64)),
                ("shard", Json::Num(*shard as f64)),
            ]),
            FleetRecord::Confirm {
                id,
                shard,
                local_id,
            } => obj(vec![
                ("t", Json::Str("confirm".into())),
                ("id", Json::Num(*id as f64)),
                ("shard", Json::Num(*shard as f64)),
                ("local", Json::Num(*local_id as f64)),
            ]),
            FleetRecord::Abort { id } => obj(vec![
                ("t", Json::Str("abort".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Done { id } => obj(vec![
                ("t", Json::Str("done".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Dead { id } => obj(vec![
                ("t", Json::Str("dead".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Rejected { id } => obj(vec![
                ("t", Json::Str("rejected".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Requeue { id } => obj(vec![
                ("t", Json::Str("requeue".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Caps { caps_w } => obj(vec![
                ("t", Json::Str("caps".into())),
                (
                    "caps_w",
                    Json::Arr(caps_w.iter().map(|&c| Json::Num(c)).collect()),
                ),
            ]),
            FleetRecord::Recovered => obj(vec![("t", Json::Str("recovered".into()))]),
        };
        j.render()
    }

    /// Parse one line. `Ok(None)` skips an unknown-but-wellformed record
    /// type (forward compatibility); `Err` is a malformed record.
    pub fn from_json(line: &str) -> Result<Option<FleetRecord>, String> {
        let j = Json::parse(line.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
        let Some(t) = j.get("t").and_then(Json::as_str) else {
            return Err("missing string field `t`".into());
        };
        let id = || {
            j.get("id")
                .and_then(Json::as_index)
                .ok_or_else(|| format!("`{t}` record missing numeric `id`"))
        };
        Ok(Some(match t {
            "meta" => FleetRecord::Meta {
                version: j.get("v").and_then(Json::as_index).unwrap_or(0) as u32,
                shards: j
                    .get("shards")
                    .and_then(Json::as_index)
                    .ok_or("`meta` record missing `shards`")?,
                cluster_cap_w: j
                    .get("cluster_cap_w")
                    .and_then(Json::as_f64)
                    .ok_or("`meta` record missing `cluster_cap_w`")?,
            },
            "admit" => FleetRecord::Admit {
                id: id()?,
                key: j
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or("`admit` record missing `key`")?
                    .to_string(),
                spec: j
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or("`admit` record missing `spec`")?
                    .to_string(),
            },
            "intent" => FleetRecord::Intent {
                id: id()?,
                shard: j
                    .get("shard")
                    .and_then(Json::as_index)
                    .ok_or("`intent` record missing `shard`")?,
            },
            "confirm" => FleetRecord::Confirm {
                id: id()?,
                shard: j
                    .get("shard")
                    .and_then(Json::as_index)
                    .ok_or("`confirm` record missing `shard`")?,
                local_id: j
                    .get("local")
                    .and_then(Json::as_index)
                    .ok_or("`confirm` record missing `local`")?,
            },
            "abort" => FleetRecord::Abort { id: id()? },
            "done" => FleetRecord::Done { id: id()? },
            "dead" => FleetRecord::Dead { id: id()? },
            "rejected" => FleetRecord::Rejected { id: id()? },
            "requeue" => FleetRecord::Requeue { id: id()? },
            "caps" => FleetRecord::Caps {
                caps_w: j
                    .get("caps_w")
                    .and_then(Json::as_arr)
                    .ok_or("`caps` record missing `caps_w`")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("non-numeric cap"))
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "recovered" => FleetRecord::Recovered,
            _ => return Ok(None),
        }))
    }
}

/// The open fleetlog: [`Journal`]'s durable writer with the fleet's own
/// record vocabulary.
pub struct FleetLog {
    journal: Journal,
}

impl FleetLog {
    /// Create (truncate) a fresh log and write the `meta` header.
    pub fn create(path: &Path, shards: usize, cluster_cap_w: f64) -> io::Result<FleetLog> {
        let mut log = FleetLog {
            journal: Journal::create_raw(path)?,
        };
        log.append(&FleetRecord::Meta {
            version: FLEETLOG_FORMAT_VERSION,
            shards,
            cluster_cap_w,
        })?;
        Ok(log)
    }

    /// Reopen for appending after recovery; `seq` is the record count
    /// already in the file.
    pub fn open_append(path: &Path, seq: u64) -> io::Result<FleetLog> {
        Ok(FleetLog {
            journal: Journal::open_append(path, seq)?,
        })
    }

    /// Durably append one record (write + flush + `sync_data`).
    pub fn append(&mut self, record: &FleetRecord) -> io::Result<()> {
        self.journal.append_line(&record.to_json())
    }

    /// Records written so far.
    pub fn seq(&self) -> u64 {
        self.journal.seq()
    }
}

/// What a scan of the log on disk found (see [`LogScan`]).
pub type FleetScan = LogScan<FleetRecord>;

/// Read and parse the log with the shared line-log scanner under
/// `FLT009`: a malformed *final* line is a torn crash write (warning,
/// dropped, cut off by [`corun_serve::repair_tail`]); a malformed line
/// with records after it means real corruption (error — recovery must
/// not guess).
pub fn scan_fleetlog(path: &Path) -> FleetScan {
    scan_log(path, Code::Flt009, FleetRecord::from_json)
}

/// Where recovery concluded one fleet job stands.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredLoc {
    /// Not (certainly) submitted anywhere: re-place and resubmit.
    Pending,
    /// An intent without a confirm: the submit RPC may or may not have
    /// landed on this shard. Must be resolved by keyed resubmission to
    /// the *same* shard, never re-placed.
    InDoubt(usize),
    /// Confirmed on a shard under a local id.
    Submitted {
        /// Accepting shard.
        shard: usize,
        /// Shard-local id.
        local_id: usize,
    },
    /// Terminal: done, on the shard that ran it.
    Done(usize),
    /// Terminal: dead-lettered, on the shard that spent its retries.
    Dead(usize),
    /// Terminal: rejected.
    Rejected,
}

/// One fleet job rebuilt from the log.
#[derive(Debug, Clone)]
pub struct RecoveredFleetJob {
    /// Idempotent submit key.
    pub key: String,
    /// Spec fragment to resubmit from.
    pub spec: String,
    /// Reconstructed location.
    pub loc: RecoveredLoc,
    /// Confirmed submissions counted off `confirm` records.
    pub submits: u32,
    /// `requeue` records counted.
    pub requeues: u32,
}

/// The whole fold of a scanned log.
#[derive(Debug, Default)]
pub struct RecoveredFleet {
    /// One entry per fleet job id, dense in admission order.
    pub jobs: Vec<RecoveredFleetJob>,
    /// Shard count from `meta`.
    pub shards: usize,
    /// Cluster cap from `meta`, watts.
    pub cluster_cap_w: f64,
    /// The last booked per-shard cap split, if any was journaled.
    pub caps_w: Option<Vec<f64>>,
    /// Prior `recovered` markers (this recovery will add one more).
    pub recoveries: usize,
}

/// Fold records into final per-job state. Later records win; any
/// reference to an unknown id or an out-of-order transition is an error
/// (the log is append-only and single-writer, so these only appear under
/// corruption).
pub fn replay_fleetlog(records: &[FleetRecord]) -> Result<RecoveredFleet, String> {
    let mut out = RecoveredFleet::default();
    let mut seen_meta = false;
    for (i, rec) in records.iter().enumerate() {
        let at = |msg: String| format!("record {}: {msg}", i + 1);
        match rec {
            FleetRecord::Meta {
                version,
                shards,
                cluster_cap_w,
            } => {
                if *version != FLEETLOG_FORMAT_VERSION {
                    return Err(at(format!(
                        "fleetlog format v{version}, this build reads v{FLEETLOG_FORMAT_VERSION}"
                    )));
                }
                out.shards = *shards;
                out.cluster_cap_w = *cluster_cap_w;
                seen_meta = true;
            }
            FleetRecord::Admit { id, key, spec } => {
                if *id != out.jobs.len() {
                    return Err(at(format!(
                        "admit id {id} out of order (expected {})",
                        out.jobs.len()
                    )));
                }
                out.jobs.push(RecoveredFleetJob {
                    key: key.clone(),
                    spec: spec.clone(),
                    loc: RecoveredLoc::Pending,
                    submits: 0,
                    requeues: 0,
                });
            }
            FleetRecord::Intent { id, shard } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("intent for unknown job {id}")))?;
                job.loc = RecoveredLoc::InDoubt(*shard);
            }
            FleetRecord::Confirm {
                id,
                shard,
                local_id,
            } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("confirm for unknown job {id}")))?;
                job.loc = RecoveredLoc::Submitted {
                    shard: *shard,
                    local_id: *local_id,
                };
                job.submits += 1;
            }
            FleetRecord::Abort { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("abort for unknown job {id}")))?;
                job.loc = RecoveredLoc::Pending;
            }
            FleetRecord::Done { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("done for unknown job {id}")))?;
                let RecoveredLoc::Submitted { shard, .. } = job.loc else {
                    return Err(at(format!("done for job {id} never confirmed anywhere")));
                };
                job.loc = RecoveredLoc::Done(shard);
            }
            FleetRecord::Dead { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("dead for unknown job {id}")))?;
                let RecoveredLoc::Submitted { shard, .. } = job.loc else {
                    return Err(at(format!("dead for job {id} never confirmed anywhere")));
                };
                job.loc = RecoveredLoc::Dead(shard);
            }
            FleetRecord::Rejected { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("rejected for unknown job {id}")))?;
                job.loc = RecoveredLoc::Rejected;
            }
            FleetRecord::Requeue { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("requeue for unknown job {id}")))?;
                job.loc = RecoveredLoc::Pending;
                job.requeues += 1;
            }
            FleetRecord::Caps { caps_w } => out.caps_w = Some(caps_w.clone()),
            FleetRecord::Recovered => out.recoveries += 1,
        }
    }
    if !seen_meta {
        return Err("fleet journal has no meta record".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corun_serve::repair_tail;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_log(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "corun-fleetlog-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn sample_records() -> Vec<FleetRecord> {
        vec![
            FleetRecord::Meta {
                version: FLEETLOG_FORMAT_VERSION,
                shards: 2,
                cluster_cap_w: 40.0,
            },
            FleetRecord::Admit {
                id: 0,
                key: "sradx0.05#0".into(),
                spec: "srad x0.05\n".into(),
            },
            FleetRecord::Admit {
                id: 1,
                key: "sradx0.05#1".into(),
                spec: "srad x0.05\n".into(),
            },
            FleetRecord::Caps {
                caps_w: vec![20.0, 20.0],
            },
            FleetRecord::Intent { id: 0, shard: 0 },
            FleetRecord::Confirm {
                id: 0,
                shard: 0,
                local_id: 0,
            },
            FleetRecord::Intent { id: 1, shard: 1 },
            FleetRecord::Done { id: 0 },
        ]
    }

    #[test]
    fn records_roundtrip_through_json() {
        for rec in sample_records() {
            let line = rec.to_json();
            let back = FleetRecord::from_json(&line)
                .expect("parse")
                .expect("known type");
            assert_eq!(back, rec, "roundtrip {line}");
        }
    }

    #[test]
    fn replay_maps_intent_without_confirm_to_in_doubt() {
        let rec = replay_fleetlog(&sample_records()).expect("replay");
        assert_eq!(rec.jobs.len(), 2);
        assert_eq!(rec.jobs[0].loc, RecoveredLoc::Done(0));
        assert_eq!(rec.jobs[0].submits, 1);
        assert_eq!(rec.jobs[1].loc, RecoveredLoc::InDoubt(1));
        assert_eq!(rec.caps_w, Some(vec![20.0, 20.0]));
    }

    #[test]
    fn scan_tolerates_torn_tail_but_not_mid_file_corruption() {
        let path = temp_log("tail");
        {
            let mut log = FleetLog::create(&path, 2, 40.0).expect("create");
            log.append(&FleetRecord::Admit {
                id: 0,
                key: "k#0".into(),
                spec: "srad x0.05\n".into(),
            })
            .expect("append");
        }
        // Simulate a crash mid-write: a torn, unterminated fragment.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            f.write_all(b"{\"t\":\"intent\",\"id\":0,\"sh")
                .expect("tear");
        }
        let scan = scan_fleetlog(&path);
        assert_eq!(scan.records.len(), 2, "meta + admit survive");
        assert!(!scan.report.has_errors(), "torn tail is only a warning");
        assert_eq!(scan.report.len(), 1);

        // Repair truncates the fragment; appends land clean after it.
        assert!(repair_tail(&path, &scan).expect("repair"));
        {
            let mut log = FleetLog::open_append(&path, scan.records.len() as u64).expect("reopen");
            log.append(&FleetRecord::Recovered).expect("append");
        }
        let rescan = scan_fleetlog(&path);
        assert!(rescan.report.is_empty(), "repaired log scans clean");
        assert_eq!(rescan.records.len(), 3);

        // Corruption *before* valid records is a hard error.
        std::fs::write(&path, "not json at all\n{\"t\":\"recovered\"}\n").expect("write");
        let scan = scan_fleetlog(&path);
        assert!(scan.report.has_errors());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_recovers_the_prefix_of_a_log_torn_inside_a_utf8_character() {
        let path = temp_log("utf8");
        {
            let mut log = FleetLog::create(&path, 1, 10.0).expect("create");
            log.append(&FleetRecord::Admit {
                id: 0,
                key: "k#0".into(),
                spec: "srad x0.05\n".into(),
            })
            .expect("append");
            log.append(&FleetRecord::Admit {
                id: 1,
                key: "café#1".into(),
                spec: "srad x0.05\n".into(),
            })
            .expect("append");
        }
        // The crash cut the last record between the two bytes of `é`.
        let bytes = std::fs::read(&path).expect("read");
        let cut = bytes.len() - bytes.rsplit(|&b| b == 0xc3).next().expect("é").len();
        std::fs::write(&path, &bytes[..cut]).expect("tear");
        let scan = scan_fleetlog(&path);
        assert!(!scan.report.has_errors(), "{}", scan.report.render_human());
        assert_eq!(scan.records.len(), 2, "meta + the intact admit survive");
        assert!(scan.torn_at.is_some());
        assert!(repair_tail(&path, &scan).expect("repair"));
        assert_eq!(scan_fleetlog(&path).records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// The service journal and the fleetlog share one scanner, so every
    /// kind of damage must read the same way through both.
    #[test]
    fn both_logs_read_damage_alike_through_the_shared_scanner() {
        use corun_serve::{scan_journal, Journal, LogScan, Record};

        /// (records, errors, warnings, torn tail, needs newline)
        type Shape = (usize, bool, usize, bool, bool);
        fn shape<R>(scan: &LogScan<R>) -> Shape {
            let warnings = scan.report.warnings().count();
            let errors = scan.report.has_errors();
            (
                scan.records.len(),
                errors,
                warnings,
                scan.torn_at.is_some(),
                scan.needs_newline,
            )
        }
        let journal = temp_log("table-journal");
        let fleetlog = temp_log("table-fleetlog");
        {
            let mut j = Journal::create(&journal, 1).expect("create");
            j.append(&Record::CapChange { cap_w: 12.0 })
                .expect("append");
            j.append(&Record::CapChange { cap_w: 15.0 })
                .expect("append");
            let mut f = FleetLog::create(&fleetlog, 1, 10.0).expect("create");
            f.append(&FleetRecord::Recovered).expect("append");
            f.append(&FleetRecord::Recovered).expect("append");
        }
        let pristine = [
            std::fs::read(&journal).expect("read"),
            std::fs::read(&fleetlog).expect("read"),
        ];
        let after_first_line = |b: &[u8]| b.iter().position(|&c| c == b'\n').expect("line") + 1;
        type Damage = fn(&[u8], usize) -> Vec<u8>;
        let cases: [(&str, Damage, Shape); 4] = [
            (
                "torn tail",
                |b, _| [b, &b"{\"t\":\"rec"[..]].concat(),
                (3, false, 1, true, false),
            ),
            (
                "missing final newline",
                |b, _| b[..b.len() - 1].to_vec(),
                (3, false, 0, false, true),
            ),
            (
                "mid-file corruption",
                |b, at| [&b[..at], &b"{not json\n"[..], &b[at..]].concat(),
                (1, true, 0, false, false),
            ),
            (
                "unknown record type",
                |b, _| [b, &b"{\"t\":\"from_the_future\"}\n"[..]].concat(),
                (3, false, 1, false, false),
            ),
        ];
        for (name, damage, want) in cases {
            for (path, clean) in [&journal, &fleetlog].into_iter().zip(&pristine) {
                std::fs::write(path, damage(clean, after_first_line(clean))).expect("damage");
                let got = if path == &journal {
                    shape(&scan_journal(path))
                } else {
                    shape(&scan_fleetlog(path))
                };
                assert_eq!(got, want, "{name}: {}", path.display());
            }
        }
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&fleetlog).ok();
    }

    #[test]
    fn durable_writer_survives_reopen() {
        let path = temp_log("reopen");
        {
            let mut log = FleetLog::create(&path, 1, 10.0).expect("create");
            log.append(&FleetRecord::Recovered).expect("append");
            assert_eq!(log.seq(), 2);
        }
        let scan = scan_fleetlog(&path);
        assert_eq!(scan.records.len(), 2);
        {
            let mut log = FleetLog::open_append(&path, scan.records.len() as u64).expect("reopen");
            log.append(&FleetRecord::Recovered).expect("append");
            assert_eq!(log.seq(), 3);
        }
        assert_eq!(scan_fleetlog(&path).records.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
