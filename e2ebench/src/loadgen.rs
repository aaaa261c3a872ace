//! Seeded inputs and the open-loop clock.
//!
//! Everything a run feeds the system comes from here and from the run's
//! `--seed`: spec fragments (1–16 jobs, mostly 1, drawn from the eight
//! Rodinia programs at small input scale) and their due times. Arrivals
//! are open-loop: a request's latency is timed from its due time, so a
//! slow system cannot hide queueing delay by slowing the generator down.

use corun_core::DetRng;
use std::time::{Duration, Instant};

/// The eight Rodinia programs the fragments draw from.
pub const PROGRAMS: [&str; 8] = [
    "streamcluster",
    "cfd",
    "dwt2d",
    "hotspot",
    "srad",
    "lud",
    "leukocyte",
    "heartwall",
];

/// Small input scales (a fraction of the paper's inputs).
pub const SCALES: [&str; 3] = ["0.03", "0.05", "0.08"];

/// Share of fragments that carry a single job.
pub const SINGLE_JOB_SHARE: f64 = 0.75;

/// Largest fragment.
pub const MAX_FRAGMENT_JOBS: usize = 16;

/// The seeded stream `stream` of `seed`: `DetRng` over the seed mixed
/// with a per-stream odd constant, so the streams of one seed differ.
pub fn stream_rng(seed: u64, stream: u64) -> DetRng {
    DetRng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Uniform in `0..n`.
pub fn below(rng: &mut DetRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One submission: spec text and the number of jobs it expands to.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Spec fragment text (`name xSCALE [*COUNT]` lines).
    pub text: String,
    /// Jobs the fragment expands to.
    pub jobs: usize,
}

/// Fragments totalling exactly `total_jobs` jobs (the last one is cut
/// short if needed), so the job-table size of a run is fixed.
pub fn fragment_mix(seed: u64, stream: u64, total_jobs: usize) -> Vec<Fragment> {
    let mut rng = stream_rng(seed, stream);
    let mut out = Vec::new();
    let mut left = total_jobs;
    while left > 0 {
        let size = if rng.next_unit() < SINGLE_JOB_SHARE {
            1
        } else {
            2 + below(&mut rng, MAX_FRAGMENT_JOBS - 1)
        };
        let size = size.min(left);
        left -= size;
        // Consecutive jobs of one program and scale fold into `*COUNT`.
        let mut lines: Vec<(&str, &str, usize)> = Vec::new();
        for _ in 0..size {
            let prog = PROGRAMS[below(&mut rng, PROGRAMS.len())];
            let scale = SCALES[below(&mut rng, SCALES.len())];
            match lines.last_mut() {
                Some((p, s, c)) if *p == prog && *s == scale => *c += 1,
                _ => lines.push((prog, scale, 1)),
            }
        }
        let text = lines
            .iter()
            .map(|&(p, s, c)| match c {
                1 => format!("{p} x{s}\n"),
                c => format!("{p} x{s} *{c}\n"),
            })
            .collect();
        out.push(Fragment { text, jobs: size });
    }
    out
}

/// `n` Poisson arrival offsets (seconds from phase start) at `rate` per
/// second. The gaps are exponential, drawn by stratified sampling (one
/// gap per quantile stratum, jittered within it) and put in a seeded
/// random order: each schedule is a Poisson-like open-loop stream, but
/// seeds differ in the order of their gaps rather than in how many long
/// or short gaps they happen to draw, which keeps tail latencies
/// comparable across seeds.
pub fn poisson_schedule(seed: u64, stream: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = stream_rng(seed, stream);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + rng.next_unit()) / n as f64).ln() / rate)
        .collect();
    for i in (1..n).rev() {
        gaps.swap(i, below(&mut rng, i + 1));
    }
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g;
            t
        })
        .collect()
}

/// `start + offset_s` as an instant.
pub fn at(start: Instant, offset_s: f64) -> Instant {
    start + Duration::from_secs_f64(offset_s.max(0.0))
}

/// Sleep until `due`; returns how late the caller woke, seconds (the
/// generator's own lag, 0 if it was on time).
pub fn sleep_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_mix_and_schedule() {
        assert_eq!(fragment_mix(7, 1, 500), fragment_mix(7, 1, 500));
        assert_eq!(
            poisson_schedule(7, 2, 300, 100.0),
            poisson_schedule(7, 2, 300, 100.0)
        );
    }

    #[test]
    fn different_seeds_give_different_mixes_and_schedules() {
        assert_ne!(fragment_mix(7, 1, 500), fragment_mix(8, 1, 500));
        assert_ne!(
            poisson_schedule(7, 2, 300, 100.0),
            poisson_schedule(8, 2, 300, 100.0)
        );
        // Streams of one seed are independent too.
        assert_ne!(fragment_mix(7, 1, 500), fragment_mix(7, 3, 500));
    }

    #[test]
    fn mix_has_exact_job_count_and_expected_shape() {
        let mix = fragment_mix(11, 1, 20_000);
        assert_eq!(mix.iter().map(|f| f.jobs).sum::<usize>(), 20_000);
        assert!(mix
            .iter()
            .all(|f| (1..=MAX_FRAGMENT_JOBS).contains(&f.jobs)));
        let singles = mix.iter().filter(|f| f.jobs == 1).count() as f64 / mix.len() as f64;
        assert!(
            (singles - SINGLE_JOB_SHARE).abs() < 0.03,
            "singles {singles}"
        );
        // Expected jobs per fragment: 0.75 * 1 + 0.25 * mean(2..=16) = 3.
        let mean = 20_000.0 / mix.len() as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
        // Every fragment is valid spec text that lints clean.
        for f in mix.iter().take(200) {
            let (lines, report) = corun_verify::lint_spec_full(&f.text);
            assert!(!report.has_errors(), "{}", f.text);
            assert_eq!(lines.iter().map(|l| l.count).sum::<usize>(), f.jobs);
        }
    }

    #[test]
    fn poisson_gaps_are_exponential() {
        let s = poisson_schedule(5, 2, 10_000, 100.0);
        let gaps: Vec<f64> = std::iter::once(s[0])
            .chain(s.windows(2).map(|w| w[1] - w[0]))
            .collect();
        // Exponential(rate 100): mean 0.01 s, P(gap > mean) = 1/e.
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.0005, "mean {mean}");
        let above = gaps.iter().filter(|&&g| g > 0.01).count() as f64 / gaps.len() as f64;
        assert!(
            (above - (-1.0f64).exp()).abs() < 0.01,
            "share above mean {above}"
        );
    }

    #[test]
    fn poisson_rate_is_respected() {
        let s = poisson_schedule(3, 2, 20_000, 500.0);
        assert!(s.windows(2).all(|w| w[1] >= w[0]));
        let rate = s.len() as f64 / s[s.len() - 1];
        assert!((rate - 500.0).abs() < 15.0, "rate {rate}");
    }
}
