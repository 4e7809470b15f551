//! Empirical cumulative distribution functions.
//!
//! Used for every "CDF of X" figure in the paper (Figs. 2, 7, 10, 11).

/// An empirical CDF over `f64` samples.
///
/// Construction sorts the samples once; evaluation is `O(log n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from samples. NaNs are rejected with a panic because a
    /// CDF over NaN is meaningless and almost always indicates an upstream bug.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "Ecdf::new: NaN sample");
        // total_cmp is branch-light and panic-free; with NaN excluded above
        // it orders exactly like partial_cmp.
        samples.sort_unstable_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of samples `<= x`. Returns 0 for empty ECDFs.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let n_le = self.sorted.partition_point(|&v| v <= x);
        n_le as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile). `q` is clamped to `[0, 1]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::quantile_sorted(&self.sorted, q)
    }

    /// Median, i.e. `quantile(0.5)`.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The sorted samples (ascending). Useful for plotting (x = value,
    /// y = (i+1)/n).
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_counts_inclusive() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn quantiles_round_trip_at_extremes() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(5.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(5.0));
    }

    #[test]
    fn empty_ecdf_behaves() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// F is monotonically non-decreasing.
        #[test]
        fn monotone(mut xs in proptest::collection::vec(0.0f64..1e6, 1..200),
                    a in 0.0f64..1e6, b in 0.0f64..1e6) {
            xs.iter_mut().for_each(|x| *x = x.floor());
            let e = Ecdf::new(xs);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.eval(lo) <= e.eval(hi));
        }

        /// F(max) == 1 and F(min - 1) == 0.
        #[test]
        fn bounds(xs in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            let e = Ecdf::new(xs);
            prop_assert!((e.eval(e.max().unwrap()) - 1.0).abs() < 1e-12);
            prop_assert_eq!(e.eval(e.min().unwrap() - 1.0), 0.0);
        }

        /// quantile(F(x)) never exceeds the smallest sample strictly greater
        /// than x (interpolated quantiles may exceed x itself, but must stay
        /// below the next observed value).
        #[test]
        fn quantile_inverse(xs in proptest::collection::vec(0.0f64..1e4, 1..100)) {
            let e = Ecdf::new(xs.clone());
            for &x in &xs {
                let q = e.eval(x);
                let v = e.quantile(q).unwrap();
                let next_above = e
                    .samples()
                    .iter()
                    .copied()
                    .find(|&s| s > x)
                    .unwrap_or(x);
                prop_assert!(v <= next_above + 1e-9, "quantile({q}) = {v} > {next_above}");
            }
        }
    }
}
