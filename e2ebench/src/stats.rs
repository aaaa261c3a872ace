//! Sample summaries and the benchmark's percentile rule.
//!
//! A tail percentile is only as good as the samples beyond it. The rule
//! used for every reported percentile: take the nearest-rank value at
//! `q`, but never a rank with fewer than [`TAIL_MIN`] samples above it,
//! and never below the median. With 2000 samples "p99" is the real p99;
//! with 300 it is the p96.7, and the report says so.

/// Samples that must lie strictly above a reported percentile.
pub const TAIL_MIN: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `samples` (NaNs are dropped: they carry no measurement).
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank reported for quantile `q` under the rule.
    pub fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        if n == 0 {
            return 0;
        }
        let want = ((q * n as f64).ceil() as usize).clamp(1, n);
        let median = n.div_ceil(2);
        let cap = n.saturating_sub(TAIL_MIN).max(median.min(want));
        want.min(cap)
    }

    /// The quantile actually reported for `q` (rank / n).
    pub fn effective_q(&self, q: f64) -> f64 {
        match self.sorted.len() {
            0 => 0.0,
            n => self.rank(q) as f64 / n as f64,
        }
    }

    /// Value at quantile `q` under the rule; 0 for an empty set.
    pub fn pct(&self, q: f64) -> f64 {
        match self.rank(q) {
            0 => 0.0,
            r => self.sorted[r - 1],
        }
    }

    /// Arithmetic mean; 0 for an empty set.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Largest sample; 0 for an empty set.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Median of a small set (e.g. repeated set-ups); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    Dist::new(samples.to_vec()).pct(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).map(|v| v as f64).collect())
    }

    #[test]
    fn p99_is_exact_when_enough_samples_lie_beyond_it() {
        let d = ramp(2000);
        assert_eq!(d.pct(0.99), 1980.0);
        assert_eq!(d.pct(0.5), 1000.0);
        // 20 samples above the reported value, at least TAIL_MIN.
        assert!(d.n() - d.rank(0.99) >= TAIL_MIN);
    }

    #[test]
    fn tail_is_capped_to_keep_ten_samples_beyond_it() {
        let d = ramp(300);
        // Nearest-rank p99 would be rank 297 with only 3 samples above.
        assert_eq!(d.rank(0.99), 290);
        assert_eq!(d.pct(0.99), 290.0);
        assert_eq!(d.n() - d.rank(0.99), TAIL_MIN);
        assert!((d.effective_q(0.99) - 290.0 / 300.0).abs() < 1e-12);
        // p50 is untouched by the cap.
        assert_eq!(d.pct(0.5), 150.0);
    }

    #[test]
    fn small_sets_fall_back_to_the_median_never_below() {
        let d = ramp(15);
        assert_eq!(d.pct(0.99), 8.0);
        assert_eq!(d.pct(0.5), 8.0);
        let d = ramp(1);
        assert_eq!(d.pct(0.99), 1.0);
        assert_eq!(Dist::default().pct(0.99), 0.0);
    }

    #[test]
    fn unsorted_input_and_nans_are_handled() {
        let d = Dist::new(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(d.n(), 3);
        assert_eq!(d.pct(0.5), 2.0);
        assert_eq!(d.max(), 3.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
