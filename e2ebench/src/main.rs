//! End-to-end benchmark of the co-scheduling stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --serve-rate R --fleet-rate R \
//!     --workload serve-durable|fleet-durable|batch-paper \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run builds its inputs from
//! `--seed`, measures for about `--seconds`, checks the system's outputs,
//! prints a human-readable report, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones. With `--trace 1` the workload runs
//! four times, each a one-cycle pass in a process of its own, in the
//! order untraced, traced, traced, untraced; the metrics are the ungated
//! latencies and per-layer figures of the first traced pass plus the
//! tracing overhead (mean traced minus mean untraced, per end-to-end
//! metric). The spans of each traced pass are written to
//! `e2ebench/runs/`. A failed check exits with status 1.

mod batch;
mod env;
mod fleet;
mod loadgen;
mod report;
mod serve;
mod stats;
mod timing_shard;
mod trace;

use corun_serve::Json;
use report::{DirGuard, Outcome, END_TO_END, ENV_LAYER, OVERHEAD_PREFIX, PER_LAYER, UNGATED};
use std::path::{Path, PathBuf};
use trace::Tracer;

/// Share of a cycle spent in the fixed-rate phase.
pub const FIXED_SHARE: f64 = 0.75;
/// The burst offers `2 × rate × BURST_SHARE × cycle seconds` jobs: what
/// the fixed rate offers in this share of a cycle, doubled.
pub const BURST_SHARE: f64 = 0.25;
/// Set-ups per cycle; `setup_s` is the median over all of a run's.
pub const SETUP_REPS: usize = 9;
/// Cycles an untraced run splits `--seconds` into. Each pass of a traced
/// run is one cycle of the same length.
pub const CYCLES: usize = 4;
/// Passes of a traced run, in order (`true` = traced). Each kind runs
/// once early and once late, so drift over the run cancels out of the
/// overhead, and each runs in its own process, so `peak_rss_mb` is that
/// pass's own peak.
const TRACE_PASSES: [bool; 4] = [false, true, true, false];
/// Where runs keep their scratch files and traces, relative to the root.
const RUNS_DIR: &str = "e2ebench/runs";

/// One workload run's inputs.
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measured cycles (fresh system each); samples are pooled.
    pub cycles: usize,
    /// Measurement budget of one cycle, seconds.
    pub cycle_seconds: f64,
    /// Offered job rate of the fixed-rate phase (durable workloads).
    pub rate: Option<f64>,
    /// Scratch directory (journals, caches), removed at exit.
    pub dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_rate: Option<f64>,
    fleet_rate: Option<f64>,
    /// Set in the processes a traced run starts: the index of the pass.
    pass: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_rate: None,
        fleet_rate: None,
        pass: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => a.seconds = num(&value)?,
            "--trace" => a.trace = value == "1",
            "--serve-rate" => a.serve_rate = Some(num(&value)?),
            "--fleet-rate" => a.fleet_rate = Some(num(&value)?),
            "--pass" => a.pass = Some(value.parse().map_err(|e| format!("--pass {value}: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run_once(a: &Args, dir: PathBuf, cycles: usize, tr: &Tracer) -> Result<Outcome, String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut p = Params {
        seed: a.seed,
        cycles,
        cycle_seconds: a.seconds / CYCLES as f64,
        rate: None,
        dir,
    };
    let mut out = match a.workload.as_str() {
        "serve-durable" => {
            p.rate = a.serve_rate;
            serve::run(&p, tr)
        }
        "fleet-durable" => {
            p.rate = a.fleet_rate;
            fleet::run(&p, tr)
        }
        "batch-paper" => batch::run(&p, tr),
        w => Err(format!("unknown workload `{w}`")),
    }?;
    out.e2e("peak_rss_mb", env::peak_rss_mb(), 1);
    Ok(out)
}

fn print_metric(kind: &str, m: &report::Metric, unit: &str) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!(", {}", m.note)
    };
    println!("{kind} {} = {} {unit} (n={}{note})", m.name, m.value, m.n);
}

/// Workloads the benchmark knows.
const WORKLOADS: [&str; 3] = ["serve-durable", "fleet-durable", "batch-paper"];

fn main() {
    std::process::exit(run_main());
}

/// Run the benchmark; returns the exit status (0 correct, 1 a check
/// failed or a workload errored, 2 bad arguments). Returning instead of
/// exiting lets the scratch-directory guard clean up on every path.
fn run_main() -> i32 {
    let a = match parse_args() {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!("e2ebench: unknown workload `{}`", a.workload);
            return 2;
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return 2;
        }
    };
    let root = PathBuf::from(RUNS_DIR);
    let run_dir = root.join(format!(
        "{}-s{}-p{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("e2ebench: {}: {e}", run_dir.display());
        return 2;
    }
    let _cleanup = DirGuard(run_dir.clone());
    if let Some(pass) = a.pass {
        return run_pass(&a, pass, &root, &run_dir);
    }
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let fsync_us = env::fsync_us(&run_dir, 200).unwrap_or(0.0);
    let fs = env::fs_type(&run_dir);
    println!("env journal_fs={fs} fsync_us={fsync_us:.1}");
    if fs == "tmpfs" {
        eprintln!("e2ebench: warning: journals are on tmpfs, where fsync is free");
    }
    if a.trace {
        return run_traced(&a, fsync_us, &fs);
    }

    let mut out = match run_once(&a, run_dir.join("run"), CYCLES, &Tracer::off()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return 1;
        }
    };
    print_e2e(&mut out);
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), out.e2e_value(name).unwrap_or(0.0), unit))
        .collect::<Vec<_>>();
    finish(&out, &metrics)
}

/// Print every end-to-end metric; a missing one fails a check.
fn print_e2e(out: &mut Outcome) {
    for &(name, unit) in END_TO_END.iter().chain(&UNGATED) {
        match out.e2e.iter().find(|m| m.name == name) {
            Some(m) => print_metric("metric", m, unit),
            None => out.check(&format!("{name} measured"), false, "missing".into()),
        }
    }
}

/// Print the checks and the result line; returns the exit status.
fn finish(out: &Outcome, metrics: &[(String, f64, &str)]) -> i32 {
    for c in &out.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok" } else { "FAILED" },
            c.what,
            c.detail
        );
    }
    let correct = out.correct();
    println!(
        "{}",
        report::result_json(correct, out.attempted.max(1), out.failed, metrics)
    );
    i32::from(!correct)
}

/// One pass of a traced run, in a process of its own: one cycle, traced
/// or not, reporting every metric it recorded.
fn run_pass(a: &Args, pass: usize, root: &Path, run_dir: &Path) -> i32 {
    let tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let result = run_once(a, run_dir.join("pass"), 1, &tr).and_then(|out| {
        if a.trace {
            let path = root.join(format!("trace-{}-s{}-pass{pass}.jsonl", a.workload, a.seed));
            tr.write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("trace {} spans written to {}", tr.len(), path.display());
        }
        Ok(out)
    });
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return 1;
        }
    };
    print_e2e(&mut out);
    for m in &out.layers {
        let unit = PER_LAYER.iter().find(|l| l.0 == m.name).map_or("", |l| l.1);
        print_metric("layer", m, unit);
    }
    let metrics: Vec<(String, f64, &str)> = out
        .e2e
        .iter()
        .chain(&out.layers)
        .map(|m| (m.name.clone(), m.value, ""))
        .collect();
    finish(&out, &metrics)
}

/// What one pass process reported on its result line.
struct PassResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl PassResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Parse a result line (`result_json`'s format).
fn parse_result(line: &str) -> Result<PassResult, String> {
    let j = Json::parse(line)?;
    let count = |k: &str| j.get(k).and_then(Json::as_index).map(|v| v as u64);
    let metrics = match j.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(Json::as_f64);
                value
                    .map(|x| (k.clone(), x))
                    .ok_or(format!("metric {k} has no value"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("result line has no metrics".into()),
    };
    Ok(PassResult {
        correct: j
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("no `correct`")?,
        attempted: count("attempted").ok_or("no `attempted`")?,
        failed: count("failed").ok_or("no `failed`")?,
        metrics,
    })
}

/// Start one pass process and wait for it; its report is echoed.
fn spawn_pass(a: &Args, pass: usize, traced: bool) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &a.workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--pass", &pass.to_string()]);
    for (flag, rate) in [
        ("--serve-rate", a.serve_rate),
        ("--fleet-rate", a.fleet_rate),
    ] {
        if let Some(r) = rate {
            cmd.args([flag, &r.to_string()]);
        }
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("pass {pass}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    let kind = if traced { "traced" } else { "untraced" };
    for l in lines {
        println!("pass{pass} {kind}: {l}");
    }
    let r = parse_result(last).map_err(|e| format!("pass {pass}: {e}"))?;
    if !output.status.success() && r.correct {
        return Err(format!("pass {pass} exited with {}", output.status));
    }
    Ok(r)
}

/// A traced run: the passes of `TRACE_PASSES`, each in its own process.
/// Reports the ungated latencies and per-layer metrics of the first
/// traced pass, the host figures, and the tracing overhead.
fn run_traced(a: &Args, fsync_us: f64, fs: &str) -> i32 {
    let passes = match TRACE_PASSES
        .iter()
        .enumerate()
        .map(|(k, &traced)| spawn_pass(a, k, traced).map(|r| (traced, r)))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return 1;
        }
    };
    let first_traced = &passes.iter().find(|p| p.0).expect("a traced pass").1;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for &(name, unit) in UNGATED.iter().chain(&PER_LAYER) {
        metrics.push((
            name.to_string(),
            first_traced.value(name).unwrap_or(0.0),
            unit,
        ));
    }
    metrics.push(("env.fsync_us".into(), fsync_us, ENV_LAYER[0].1));
    metrics.push((
        "env.fs_tmpfs".into(),
        f64::from(u8::from(fs == "tmpfs")),
        ENV_LAYER[1].1,
    ));
    let mean = |traced: bool, name: &str| {
        let v: Vec<f64> = passes
            .iter()
            .filter(|p| p.0 == traced)
            .map(|p| p.1.value(name).unwrap_or(0.0))
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    for &(name, unit) in &END_TO_END {
        let delta = mean(true, name) - mean(false, name);
        let key = format!("{OVERHEAD_PREFIX}{name}");
        println!("layer {key} = {delta} {unit} (mean traced minus mean untraced)");
        metrics.push((key, delta, unit));
    }
    let mut out = Outcome::default();
    for (k, (_, p)) in passes.iter().enumerate() {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.check(
            &format!("pass {k} is correct"),
            p.correct,
            format!("{} attempted, {} failed", p.attempted, p.failed),
        );
    }
    finish(&out, &metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_result_line_parses_back() {
        let line = report::result_json(
            false,
            12,
            2,
            &[
                ("jobs_per_s".into(), 1234.5, "jobs/s"),
                ("a.b_ms".into(), 0.25, ""),
            ],
        );
        let r = parse_result(&line).unwrap();
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (12, 2));
        assert_eq!(r.value("jobs_per_s"), Some(1234.5));
        assert_eq!(r.value("a.b_ms"), Some(0.25));
        assert_eq!(r.value("missing"), None);
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn each_pass_kind_runs_early_and_late() {
        let traced: Vec<usize> = (0..TRACE_PASSES.len())
            .filter(|&k| TRACE_PASSES[k])
            .collect();
        let untraced: Vec<usize> = (0..TRACE_PASSES.len())
            .filter(|&k| !TRACE_PASSES[k])
            .collect();
        assert_eq!(traced.len(), untraced.len());
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
        assert_eq!(mean(&traced), mean(&untraced));
    }
}
