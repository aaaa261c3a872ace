//! Error statistics for model validation (paper Figures 7 and 8).

/// Relative error of a prediction against ground truth, `|pred - real| / real`.
///
/// # Panics
/// Panics if `real` is not strictly positive.
pub fn relative_error(pred: f64, real: f64) -> f64 {
    assert!(real > 0.0, "ground truth must be positive");
    (pred - real).abs() / real
}

/// A histogram of error rates over fixed buckets, as the paper plots in
/// Figures 7 and 8.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorHistogram {
    /// Bucket edges; bucket `k` covers `[edges[k], edges[k+1])`, with a
    /// final open bucket `[edges.last(), inf)`.
    pub edges: Vec<f64>,
    /// Counts per bucket (`edges.len()` buckets).
    pub counts: Vec<usize>,
    /// All recorded errors (kept for mean/max).
    pub errors: Vec<f64>,
}

impl ErrorHistogram {
    /// Histogram over the paper's buckets: 0-5%, 5-10%, ..., 25-30%, >30%.
    pub fn paper_buckets() -> Self {
        Self::new(vec![0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30])
    }

    /// Histogram over fine buckets for the power model (paper Figure 8
    /// uses 0-2%, 2-4%, 4-6%, 6-8%).
    pub fn power_buckets() -> Self {
        Self::new(vec![0.0, 0.02, 0.04, 0.06, 0.08])
    }

    /// Histogram with custom bucket edges (strictly increasing, first 0).
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let n = edges.len();
        ErrorHistogram {
            edges,
            counts: vec![0; n],
            errors: Vec::new(),
        }
    }

    /// Record one error value (must be >= 0).
    pub fn add(&mut self, err: f64) {
        assert!(err >= 0.0 && err.is_finite());
        let mut bucket = self.edges.len() - 1;
        for k in 0..self.edges.len() - 1 {
            if err >= self.edges[k] && err < self.edges[k + 1] {
                bucket = k;
                break;
            }
        }
        self.counts[bucket] += 1;
        self.errors.push(err);
    }

    /// Total number of recorded errors.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Whether no errors were recorded.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Mean error.
    pub fn mean(&self) -> f64 {
        if self.errors.is_empty() {
            0.0
        } else {
            self.errors.iter().sum::<f64>() / self.errors.len() as f64
        }
    }

    /// Maximum error.
    pub fn max(&self) -> f64 {
        self.errors.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of errors strictly below `threshold`.
    pub fn frac_below(&self, threshold: f64) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let n = self.errors.iter().filter(|&&e| e < threshold).count();
        n as f64 / self.errors.len() as f64
    }

    /// Fraction of samples in bucket `k`.
    pub fn frac_in_bucket(&self, k: usize) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        self.counts[k] as f64 / self.errors.len() as f64
    }

    /// Render rows of `(bucket label, fraction)` for reports.
    pub fn rows(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for k in 0..self.edges.len() {
            let label = if k + 1 < self.edges.len() {
                format!(
                    "{:.0}-{:.0}%",
                    self.edges[k] * 100.0,
                    self.edges[k + 1] * 100.0
                )
            } else {
                format!(">{:.0}%", self.edges[k] * 100.0)
            };
            out.push((label, self.frac_in_bucket(k)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn relative_error_rejects_zero_truth() {
        let _ = relative_error(1.0, 0.0);
    }

    #[test]
    fn bucket_assignment() {
        let mut h = ErrorHistogram::paper_buckets();
        h.add(0.03); // 0-5
        h.add(0.07); // 5-10
        h.add(0.29); // 25-30
        h.add(0.50); // >30
        assert_eq!(h.counts, vec![1, 1, 0, 0, 0, 1, 1]);
        assert_eq!(h.len(), 4);
        assert!((h.frac_below(0.10) - 0.5).abs() < 1e-12);
        assert!((h.max() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_goes_to_upper_bucket() {
        let mut h = ErrorHistogram::new(vec![0.0, 0.1, 0.2]);
        h.add(0.1);
        assert_eq!(h.counts, vec![0, 1, 0]);
    }

    #[test]
    fn mean_and_rows() {
        let mut h = ErrorHistogram::power_buckets();
        for e in [0.01, 0.01, 0.03, 0.07] {
            h.add(e);
        }
        assert!((h.mean() - 0.03).abs() < 1e-12);
        let rows = h.rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, "0-2%");
        assert!((rows[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(rows[4].0, ">8%");
    }

    #[test]
    fn empty_histogram_stats() {
        let h = ErrorHistogram::paper_buckets();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.frac_below(0.5), 0.0);
        assert_eq!(h.frac_in_bucket(0), 0.0);
    }
}
