//! What the host contributes: the journal directory's filesystem and its
//! `fdatasync` cost, and the process's peak resident memory. A journal on
//! tmpfs makes fsync free and would flatter the durable workloads, so the
//! filesystem is printed beside every result.

use crate::stats::median;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Median `fdatasync` of a 512-byte append in `dir`, microseconds.
pub fn fsync_us(dir: &Path, reps: usize) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut f = std::fs::File::create(&path)?;
    let block = [b'x'; 512];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        f.write_all(&block)?;
        let t = Instant::now();
        f.sync_data()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `"unknown"`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // id parent maj:min root mountpoint opts [optional...] - fstype src superopts
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
