//! Arrival-trace generators for online-scheduling studies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One arrival: job index and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Job index into the workload.
    pub job: usize,
    /// Arrival time, seconds.
    pub at_s: f64,
}

/// All jobs at t = 0 (the paper's batch setting).
pub fn batch(n: usize) -> Vec<ArrivalSpec> {
    (0..n).map(|job| ArrivalSpec { job, at_s: 0.0 }).collect()
}

/// Poisson arrivals: exponential inter-arrival gaps with the given mean,
/// capped at `max_gap_s` to keep traces bounded.
pub fn poisson(n: usize, mean_gap_s: f64, max_gap_s: f64, seed: u64) -> Vec<ArrivalSpec> {
    assert!(mean_gap_s > 0.0 && max_gap_s > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|job| {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += (-mean_gap_s * u.ln()).min(max_gap_s);
            ArrivalSpec { job, at_s: t }
        })
        .collect()
}

/// Bursty arrivals: `bursts` waves separated by `gap_s`, jobs inside a wave
/// arriving within `spread_s` of its start.
pub fn bursty(n: usize, bursts: usize, gap_s: f64, spread_s: f64, seed: u64) -> Vec<ArrivalSpec> {
    assert!(bursts >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|job| {
            let wave = job % bursts;
            let base = wave as f64 * gap_s;
            ArrivalSpec {
                job,
                at_s: base + rng.gen_range(0.0..spread_s.max(1e-9)),
            }
        })
        .collect()
}

/// Staircase arrivals: one job every `step_s` seconds, deterministic.
pub fn staircase(n: usize, step_s: f64) -> Vec<ArrivalSpec> {
    (0..n)
        .map(|job| ArrivalSpec {
            job,
            at_s: job as f64 * step_s,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_all_zero() {
        let a = batch(5);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|x| x.at_s == 0.0));
        assert_eq!(a[3].job, 3);
    }

    #[test]
    fn poisson_monotone_and_bounded() {
        let a = poisson(50, 10.0, 40.0, 3);
        assert_eq!(a.len(), 50);
        for w in a.windows(2) {
            let gap = w[1].at_s - w[0].at_s;
            assert!((0.0..=40.0 + 1e-9).contains(&gap));
        }
        // mean gap roughly right (loose band; 50 samples)
        let mean = a.last().unwrap().at_s / 50.0;
        assert!((4.0..25.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn poisson_deterministic_per_seed() {
        assert_eq!(poisson(10, 5.0, 20.0, 1), poisson(10, 5.0, 20.0, 1));
        assert_ne!(poisson(10, 5.0, 20.0, 1), poisson(10, 5.0, 20.0, 2));
    }

    #[test]
    fn bursty_forms_waves() {
        let a = bursty(12, 3, 100.0, 5.0, 7);
        // wave of job 0, 3, 6, 9 near t=0; wave of 1,4,7,10 near 100; ...
        for x in &a {
            let wave = x.job % 3;
            let base = wave as f64 * 100.0;
            assert!(x.at_s >= base && x.at_s <= base + 5.0);
        }
    }

    #[test]
    fn staircase_even_spacing() {
        let a = staircase(4, 2.5);
        assert_eq!(a[0].at_s, 0.0);
        assert_eq!(a[3].at_s, 7.5);
    }
}
