//! Proof-carrying schedule certificates.
//!
//! A schedule alone says "trust the optimizer". A [`Certificate`] says
//! "check me": alongside the claimed makespan it carries, per steady
//! segment, the model facts the claim rests on (who ran where at what
//! level, the witnessed device and pair powers), a Co-Run Theorem
//! witness for every co-run pair (the standalone lengths and
//! degradations the benefit precondition is evaluated over, paper
//! Sec. IV-A), and the lower-bound witness (`l'_i` per job and
//! `T_low = ½ Σ l'_i`, Sec. IV-B). An *independent* checker —
//! `corun_verify::cert`, O(segments + pairs + jobs), no model, no
//! scheduler — re-derives every arithmetic claim and rejects tampering
//! via an embedded checksum (CRT0xx diagnostics).
//!
//! The text format follows the workspace's line-oriented persistence
//! idiom (`[section]` blocks of `key = value`, cf.
//! `perf_model::persist`): versioned, dependency-free, diff-friendly.
//! Floats render through Rust's shortest-roundtrip `{:?}` so
//! re-rendering a parsed certificate reproduces it byte for byte.

use crate::bound::lower_bound;
use crate::evaluate::evaluate;
use crate::model::{CoRunModel, JobId};
use crate::schedule::Schedule;
use crate::theorem::corun_beneficial;
use apu_sim::hash::fnv1a;
use std::fmt::Write as _;

/// Certificate format revision; bump on any schema change so stale
/// certificates are refused rather than misread.
pub const CERT_FORMAT_VERSION: u32 = 1;

/// One steady segment with its power accounting witnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentWitness {
    /// Segment start, seconds.
    pub t0: f64,
    /// Segment end, seconds.
    pub t1: f64,
    /// `(job, level)` on the CPU, if occupied.
    pub cpu: Option<(JobId, usize)>,
    /// `(job, level)` on the GPU, if occupied.
    pub gpu: Option<(JobId, usize)>,
    /// Witnessed package power with only the CPU side running, watts.
    pub cpu_w: Option<f64>,
    /// Witnessed package power with only the GPU side running, watts.
    pub gpu_w: Option<f64>,
    /// Claimed package power of the segment's occupancy, watts.
    pub power_w: f64,
}

/// A Co-Run Theorem precondition witness for one co-run pair: the model
/// facts (`l`, `d` per side) the benefit claim is arithmetic over.
#[derive(Debug, Clone, PartialEq)]
pub struct PairWitness {
    /// `(job, level)` on the CPU.
    pub cpu: (JobId, usize),
    /// `(job, level)` on the GPU.
    pub gpu: (JobId, usize),
    /// Standalone length of the CPU job at its level, seconds.
    pub l_cpu: f64,
    /// Fractional degradation of the CPU job against this partner.
    pub d_cpu: f64,
    /// Standalone length of the GPU job at its level, seconds.
    pub l_gpu: f64,
    /// Fractional degradation of the GPU job against this partner.
    pub d_gpu: f64,
    /// The scheduler's claim: co-running this pair beats running the
    /// two jobs sequentially (`l_a · d_a < l_b`, Sec. IV-A).
    pub beneficial: bool,
}

/// The lower-bound witness (Sec. IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundWitness {
    /// `T_low = ½ Σ l'_i`, seconds.
    pub t_low_s: f64,
    /// `l'_i` per job, seconds.
    pub l_prime_s: Vec<f64>,
}

/// A proof-carrying schedule: claims plus the witnesses to check them.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Number of jobs in the certified batch.
    pub jobs: usize,
    /// The power cap the schedule was planned under, watts
    /// (`inf` when uncapped).
    pub cap_w: f64,
    /// Witnessed both-devices-idle package power, watts — the term the
    /// paper's power composition subtracts from a co-run pair's summed
    /// solo powers.
    pub idle_w: f64,
    /// Claimed makespan, seconds.
    pub makespan_s: f64,
    /// The steady segments tiling `[0, makespan_s]`.
    pub segments: Vec<SegmentWitness>,
    /// One witness per distinct co-run pairing in the segments.
    pub pairs: Vec<PairWitness>,
    /// The lower-bound witness.
    pub bound: BoundWitness,
}

/// Build the certificate for `schedule` under `model` and `cap_w`: the
/// evaluator's segment timeline, a theorem witness per co-run pairing,
/// and the lower-bound decomposition.
pub fn certify(model: &dyn CoRunModel, schedule: &Schedule, cap_w: f64) -> Certificate {
    let eval = evaluate(model, schedule, cap_w.is_finite().then_some(cap_w));
    let mut segments = Vec::with_capacity(eval.segments.len());
    let mut pairs: Vec<PairWitness> = Vec::new();
    for s in &eval.segments {
        segments.push(SegmentWitness {
            t0: s.t0,
            t1: s.t1,
            cpu: s.cpu,
            gpu: s.gpu,
            cpu_w: s.cpu.map(|c| model.corun_power(Some(c), None)),
            gpu_w: s.gpu.map(|g| model.corun_power(None, Some(g))),
            power_w: s.power_w,
        });
        if let (Some(c), Some(g)) = (s.cpu, s.gpu) {
            if !pairs.iter().any(|p| p.cpu == c && p.gpu == g) {
                let l_cpu = model.standalone(c.0, apu_sim::Device::Cpu, c.1);
                let d_cpu = model.degradation(c.0, apu_sim::Device::Cpu, c.1, g.0, g.1);
                let l_gpu = model.standalone(g.0, apu_sim::Device::Gpu, g.1);
                let d_gpu = model.degradation(g.0, apu_sim::Device::Gpu, g.1, c.0, c.1);
                pairs.push(PairWitness {
                    cpu: c,
                    gpu: g,
                    l_cpu,
                    d_cpu,
                    l_gpu,
                    d_gpu,
                    beneficial: corun_beneficial(l_cpu, d_cpu, l_gpu, d_gpu),
                });
            }
        }
    }
    let bound = lower_bound(model, cap_w);
    Certificate {
        jobs: model.len(),
        cap_w,
        idle_w: model.idle_power(),
        makespan_s: eval.makespan_s,
        segments,
        pairs,
        bound: BoundWitness {
            t_low_s: bound.t_low_s,
            l_prime_s: bound.l_prime_s,
        },
    }
}

fn occ(slot: Option<(JobId, usize)>) -> String {
    match slot {
        Some((j, l)) => format!("{j} {l}"),
        None => "-".to_string(),
    }
}

impl Certificate {
    /// Render the full certificate text, checksum line included. The
    /// checksum (FNV-1a over every byte above the `[checksum]` line) is
    /// what `corun lint --cert` verifies first: any tampering with a
    /// witness, however plausible, is caught before semantics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "[certificate]");
        let _ = writeln!(w, "version = {CERT_FORMAT_VERSION}");
        let _ = writeln!(w, "jobs = {}", self.jobs);
        let _ = writeln!(w, "cap_w = {:?}", self.cap_w);
        let _ = writeln!(w, "idle_w = {:?}", self.idle_w);
        let _ = writeln!(w, "makespan_s = {:?}", self.makespan_s);
        for s in &self.segments {
            let _ = writeln!(w);
            let _ = writeln!(w, "[segment]");
            let _ = writeln!(w, "t0 = {:?}", s.t0);
            let _ = writeln!(w, "t1 = {:?}", s.t1);
            let _ = writeln!(w, "cpu = {}", occ(s.cpu));
            let _ = writeln!(w, "gpu = {}", occ(s.gpu));
            if let Some(p) = s.cpu_w {
                let _ = writeln!(w, "cpu_w = {p:?}");
            }
            if let Some(p) = s.gpu_w {
                let _ = writeln!(w, "gpu_w = {p:?}");
            }
            let _ = writeln!(w, "power_w = {:?}", s.power_w);
        }
        for p in &self.pairs {
            let _ = writeln!(w);
            let _ = writeln!(w, "[pair]");
            let _ = writeln!(w, "cpu = {} {}", p.cpu.0, p.cpu.1);
            let _ = writeln!(w, "gpu = {} {}", p.gpu.0, p.gpu.1);
            let _ = writeln!(w, "l_cpu = {:?}", p.l_cpu);
            let _ = writeln!(w, "d_cpu = {:?}", p.d_cpu);
            let _ = writeln!(w, "l_gpu = {:?}", p.l_gpu);
            let _ = writeln!(w, "d_gpu = {:?}", p.d_gpu);
            let _ = writeln!(w, "beneficial = {}", p.beneficial);
        }
        let _ = writeln!(w);
        let _ = writeln!(w, "[bound]");
        let _ = writeln!(w, "t_low_s = {:?}", self.bound.t_low_s);
        let mut lp = String::new();
        for v in &self.bound.l_prime_s {
            let _ = write!(lp, " {v:?}");
        }
        let _ = writeln!(w, "l_prime ={lp}");
        let _ = writeln!(out);
        let digest = fnv1a(out.as_bytes());
        let _ = writeln!(out, "[checksum]");
        let _ = writeln!(out, "fnv64 = {digest:016x}");
        out
    }
}

/// A parsed certificate plus its checksum facts; the semantic checker
/// compares `stored_fnv` against `computed_fnv` (CRT002).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCertificate {
    /// The certificate content.
    pub cert: Certificate,
    /// The checksum the file claims.
    pub stored_fnv: u64,
    /// The checksum the file's body actually hashes to.
    pub computed_fnv: u64,
}

/// Parse a rendered certificate. Errors are structural only (missing
/// sections, malformed numbers, wrong version); semantic validity —
/// checksum, tiling, power, theorem and bound arithmetic — is the
/// domain of `corun_verify::cert`.
pub fn parse_certificate(text: &str) -> Result<ParsedCertificate, String> {
    // The checksum covers every byte above its own section header.
    let body_len = text
        .find("[checksum]")
        .ok_or("missing [checksum] section")?;
    let computed_fnv = fnv1a(&text.as_bytes()[..body_len]);

    let mut sections: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            sections.push((name.to_string(), Vec::new()));
        } else if let Some((k, v)) = line.split_once('=') {
            let Some(last) = sections.last_mut() else {
                return Err(format!("line {}: key before any [section]", lineno + 1));
            };
            last.1.push((k.trim().to_string(), v.trim().to_string()));
        } else {
            return Err(format!("line {}: expected `key = value`", lineno + 1));
        }
    }

    let get = |kvs: &[(String, String)], key: &str| -> Result<String, String> {
        kvs.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("missing key `{key}`"))
    };
    let getf = |kvs: &[(String, String)], key: &str| -> Result<f64, String> {
        let v = get(kvs, key)?;
        v.parse::<f64>()
            .map_err(|_| format!("bad number `{v}` for `{key}`"))
    };
    let getu = |kvs: &[(String, String)], key: &str| -> Result<usize, String> {
        let v = get(kvs, key)?;
        v.parse::<usize>()
            .map_err(|_| format!("bad count `{v}` for `{key}`"))
    };
    let getocc = |kvs: &[(String, String)], key: &str| -> Result<Option<(usize, usize)>, String> {
        let v = get(kvs, key)?;
        if v == "-" {
            return Ok(None);
        }
        let (j, l) = v
            .split_once(' ')
            .ok_or_else(|| format!("bad occupancy `{v}` for `{key}`"))?;
        Ok(Some((
            j.trim().parse().map_err(|_| format!("bad job in `{v}`"))?,
            l.trim()
                .parse()
                .map_err(|_| format!("bad level in `{v}`"))?,
        )))
    };
    let getoptf = |kvs: &[(String, String)], key: &str| -> Result<Option<f64>, String> {
        match kvs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("bad number `{v}` for `{key}`")),
        }
    };

    let mut header = None;
    let mut segments = Vec::new();
    let mut pairs = Vec::new();
    let mut bound = None;
    let mut stored_fnv = None;
    for (name, kvs) in &sections {
        match name.as_str() {
            "certificate" => {
                let version = getu(kvs, "version")?;
                if version != CERT_FORMAT_VERSION as usize {
                    return Err(format!(
                        "certificate format v{version} does not match this build (v{CERT_FORMAT_VERSION})"
                    ));
                }
                header = Some((
                    getu(kvs, "jobs")?,
                    getf(kvs, "cap_w")?,
                    getf(kvs, "idle_w")?,
                    getf(kvs, "makespan_s")?,
                ));
            }
            "segment" => segments.push(SegmentWitness {
                t0: getf(kvs, "t0")?,
                t1: getf(kvs, "t1")?,
                cpu: getocc(kvs, "cpu")?,
                gpu: getocc(kvs, "gpu")?,
                cpu_w: getoptf(kvs, "cpu_w")?,
                gpu_w: getoptf(kvs, "gpu_w")?,
                power_w: getf(kvs, "power_w")?,
            }),
            "pair" => pairs.push(PairWitness {
                cpu: getocc(kvs, "cpu")?.ok_or("pair with empty cpu side")?,
                gpu: getocc(kvs, "gpu")?.ok_or("pair with empty gpu side")?,
                l_cpu: getf(kvs, "l_cpu")?,
                d_cpu: getf(kvs, "d_cpu")?,
                l_gpu: getf(kvs, "l_gpu")?,
                d_gpu: getf(kvs, "d_gpu")?,
                beneficial: match get(kvs, "beneficial")?.as_str() {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad boolean `{other}` for `beneficial`")),
                },
            }),
            "bound" => {
                let t_low_s = getf(kvs, "t_low_s")?;
                let lp = get(kvs, "l_prime")?;
                let mut l_prime_s = Vec::new();
                for tok in lp.split_whitespace() {
                    l_prime_s.push(
                        tok.parse::<f64>()
                            .map_err(|_| format!("bad number `{tok}` in `l_prime`"))?,
                    );
                }
                bound = Some(BoundWitness { t_low_s, l_prime_s });
            }
            "checksum" => {
                let v = get(kvs, "fnv64")?;
                stored_fnv =
                    Some(u64::from_str_radix(&v, 16).map_err(|_| format!("bad checksum `{v}`"))?);
            }
            other => return Err(format!("unknown section [{other}]")),
        }
    }
    let (jobs, cap_w, idle_w, makespan_s) = header.ok_or("missing [certificate] section")?;
    Ok(ParsedCertificate {
        cert: Certificate {
            jobs,
            cap_w,
            idle_w,
            makespan_s,
            segments,
            pairs,
            bound: bound.ok_or("missing [bound] section")?,
        },
        stored_fnv: stored_fnv.ok_or("missing fnv64 in [checksum]")?,
        computed_fnv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcs::{hcs, HcsConfig};
    use crate::model::test_model::synthetic;

    fn sample() -> Certificate {
        let m = synthetic(6, 4, 4);
        let cap = 18.0;
        let out = hcs(&m, &HcsConfig::with_cap(cap));
        certify(&m, &out.schedule, cap)
    }

    #[test]
    fn certificate_witnesses_are_internally_consistent() {
        let c = sample();
        assert_eq!(c.jobs, 6);
        assert!(!c.segments.is_empty());
        assert!((c.segments[0].t0).abs() < 1e-9);
        assert!((c.segments.last().unwrap().t1 - c.makespan_s).abs() < 1e-9);
        assert_eq!(c.bound.l_prime_s.len(), 6);
        assert!(c.makespan_s >= c.bound.t_low_s - 1e-9);
        // Every two-sided segment has its theorem witness.
        for s in &c.segments {
            if let (Some(cp), Some(gp)) = (s.cpu, s.gpu) {
                assert!(c.pairs.iter().any(|p| p.cpu == cp && p.gpu == gp));
            }
        }
    }

    #[test]
    fn render_parse_roundtrip_is_exact() {
        let c = sample();
        let text = c.render();
        let parsed = parse_certificate(&text).unwrap();
        assert_eq!(parsed.cert, c);
        assert_eq!(parsed.stored_fnv, parsed.computed_fnv);
        // Re-rendering reproduces the file byte for byte.
        assert_eq!(parsed.cert.render(), text);
    }

    #[test]
    fn tampering_changes_the_computed_checksum() {
        let text = sample().render();
        // Flip one witness digit somewhere in the body.
        let tampered = text.replacen("makespan_s = ", "makespan_s = 9", 1);
        let parsed = parse_certificate(&tampered).unwrap();
        assert_ne!(parsed.stored_fnv, parsed.computed_fnv);
    }

    #[test]
    fn structural_errors_are_reported() {
        assert!(parse_certificate("").is_err());
        assert!(parse_certificate("[certificate]\nversion = 99\n[checksum]\nfnv64 = 0\n").is_err());
        let c = sample().render();
        let noversion = c.replacen("version = 1\n", "", 1);
        assert!(parse_certificate(&noversion).is_err());
    }

    #[test]
    fn uncapped_certificates_roundtrip_infinity() {
        let m = synthetic(4, 3, 3);
        let out = hcs(&m, &HcsConfig::with_cap(f64::INFINITY));
        let c = certify(&m, &out.schedule, f64::INFINITY);
        assert!(c.cap_w.is_infinite());
        let parsed = parse_certificate(&c.render()).unwrap();
        assert!(parsed.cert.cap_w.is_infinite());
        assert_eq!(parsed.stored_fnv, parsed.computed_fnv);
    }
}
