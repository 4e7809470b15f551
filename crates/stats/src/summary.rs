//! Five-number summaries and box-plot statistics (Fig. 8 of the paper).

/// A basic distribution summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile (used repeatedly by the paper, e.g. Fig. 7).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise `data`; `None` on empty input.
    pub fn of(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut v = data.to_vec();
        assert!(v.iter().all(|x| !x.is_nan()), "NaN in Summary input");
        v.sort_unstable_by(f64::total_cmp);
        Some(Self {
            n: v.len(),
            mean: crate::mean(&v)?,
            std_dev: crate::std_dev(&v)?,
            min: v[0],
            p25: crate::quantile_sorted(&v, 0.25)?,
            median: crate::quantile_sorted(&v, 0.5)?,
            p75: crate::quantile_sorted(&v, 0.75)?,
            p95: crate::quantile_sorted(&v, 0.95)?,
            max: *v.last().unwrap(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

/// Tukey box-plot statistics: quartiles, whiskers at 1.5·IQR, and outliers.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// 25th percentile (box bottom).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (box top).
    pub q3: f64,
    /// Lowest sample within `q1 - 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest sample within `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxStats {
    /// Compute box-plot statistics; `None` on empty input.
    pub fn of(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut v = data.to_vec();
        assert!(v.iter().all(|x| !x.is_nan()), "NaN in BoxStats input");
        v.sort_unstable_by(f64::total_cmp);
        Some(Self::from_ranks(
            v.len(),
            |r| v[r],
            v.iter().map(|&x| (x, 1)),
        ))
    }

    /// [`BoxStats::of`] over counted data: each `(value, count)` pair
    /// stands for `count` samples equal to `value`, and the pairs are
    /// sorted ascending by [`f64::total_cmp`] (a value may repeat). The
    /// quartiles are read by rank over the cumulative counts, so no sample
    /// is expanded except the outliers, which list one entry per sample.
    /// Every field equals [`BoxStats::of`] over the expanded samples.
    /// `None` when the counts sum to zero.
    pub fn of_counts(counts: &[(f64, u64)]) -> Option<Self> {
        assert!(
            counts.iter().all(|(x, _)| !x.is_nan()),
            "NaN in BoxStats input"
        );
        assert!(
            counts.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()),
            "BoxStats::of_counts needs values sorted by f64::total_cmp"
        );
        // `ends[i]`: the samples in pairs 0..=i, so rank `r` is the value
        // of the first pair whose end exceeds it.
        let ends: Vec<u64> = counts
            .iter()
            .scan(0u64, |sum, &(_, c)| {
                *sum += c;
                Some(*sum)
            })
            .collect();
        let n =
            usize::try_from(ends.last().copied().unwrap_or(0)).expect("sample count fits usize");
        if n == 0 {
            return None;
        }
        Some(Self::from_ranks(
            n,
            |r| counts[ends.partition_point(|&e| e <= r as u64)].0,
            counts.iter().copied().filter(|&(_, c)| c > 0),
        ))
    }

    /// The box over `n >= 1` samples: R-7 quartiles read by rank through
    /// `at`, then Tukey fences, whiskers and outliers over `sorted`, the
    /// same samples as ascending `(value, count)` pairs with no zero count.
    fn from_ranks(
        n: usize,
        at: impl Fn(usize) -> f64,
        sorted: impl DoubleEndedIterator<Item = (f64, u64)> + Clone,
    ) -> Self {
        let q1 = crate::quantile_by_rank(n, 0.25, &at);
        let median = crate::quantile_by_rank(n, 0.5, &at);
        let q3 = crate::quantile_by_rank(n, 0.75, &at);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let values = sorted.clone().map(|(x, _)| x);
        // Most extreme samples inside the fences; when every sample on a
        // side is an outlier the whisker collapses onto the box edge
        // (matplotlib's convention), keeping whisker_lo <= q1 <= q3 <= whisker_hi.
        let whisker_lo = values
            .clone()
            .find(|&x| x >= lo_fence)
            .unwrap_or(at(0))
            .min(q1);
        let whisker_hi = values
            .rev()
            .find(|&x| x <= hi_fence)
            .unwrap_or(at(n - 1))
            .max(q3);
        let outside = sorted.filter(|&(x, _)| x < lo_fence || x > hi_fence);
        let n_out: u64 = outside.clone().map(|(_, c)| c).sum();
        let mut outliers = Vec::with_capacity(n_out as usize);
        for (x, c) in outside {
            outliers.resize(outliers.len() + c as usize, x);
        }
        Self {
            q1,
            median,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_data() {
        let data: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!((s.p25 - 25.75).abs() < 1e-12);
        assert!((s.p95 - 95.05).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(BoxStats::of(&[]).is_none());
    }

    #[test]
    fn box_stats_no_outliers_for_uniform() {
        let data: Vec<f64> = (0..20).map(|x| x as f64).collect();
        let b = BoxStats::of(&data).unwrap();
        assert!(b.outliers.is_empty());
        assert_eq!(b.whisker_lo, 0.0);
        assert_eq!(b.whisker_hi, 19.0);
    }

    #[test]
    fn box_stats_flags_extreme_outlier() {
        let mut data: Vec<f64> = (0..20).map(|x| x as f64).collect();
        data.push(1000.0);
        let b = BoxStats::of(&data).unwrap();
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_hi <= 20.0);
    }

    #[test]
    fn box_order_invariant() {
        let b = BoxStats::of(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert!(b.whisker_lo <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.whisker_hi);
    }

    #[test]
    fn of_counts_single_value_and_flat_box() {
        // one value: a zero-width box and no outlier
        let b = BoxStats::of_counts(&[(0.25, 7)]).unwrap();
        assert_eq!(b, BoxStats::of(&[0.25; 7]).unwrap());
        assert!(b.outliers.is_empty());
        // IQR 0: every sample off the box is an outlier, one entry each
        let b = BoxStats::of_counts(&[(0.0, 2), (0.5, 40), (1.0, 3)]).unwrap();
        assert_eq!((b.q1, b.median, b.q3), (0.5, 0.5, 0.5));
        assert_eq!((b.whisker_lo, b.whisker_hi), (0.5, 0.5));
        assert_eq!(b.outliers, [0.0, 0.0, 1.0, 1.0, 1.0]);
        // no samples
        assert!(BoxStats::of_counts(&[]).is_none());
        assert!(BoxStats::of_counts(&[(1.0, 0)]).is_none());
    }

    #[test]
    fn iqr_nonnegative() {
        let s = Summary::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(s.iqr(), 0.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// A value on Fig. 8's whole-day grid k/288 (three draws in four, so
    /// ties are heavy) or an arbitrary one.
    fn value() -> impl Strategy<Value = f64> {
        (0u32..385, -1.0f64..2.0).prop_map(|(k, x)| if k <= 288 { k as f64 / 288.0 } else { x })
    }

    /// Counted data sorted by value (a value may repeat), in three shapes:
    /// general; one pair; and one value holding 8/9 of the samples, so the
    /// IQR is 0 and every other value is an outlier.
    fn counted() -> impl Strategy<Value = Vec<(f64, u64)>> {
        (
            0u8..3,
            proptest::collection::vec((value(), 1u64..=50), 1..60),
            value(),
        )
            .prop_map(|(shape, mut pairs, heavy)| {
                match shape {
                    0 => pairs.truncate(1),
                    1 => {
                        pairs.truncate(5);
                        let rest: u64 = pairs.iter().map(|p| p.1).sum();
                        pairs.push((heavy, 8 * rest + 8));
                    }
                    _ => {}
                }
                pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                pairs
            })
    }

    /// Every field of a box, as bits.
    fn bits(b: &BoxStats) -> ([u64; 5], Vec<u64>) {
        (
            [b.q1, b.median, b.q3, b.whisker_lo, b.whisker_hi].map(f64::to_bits),
            b.outliers.iter().map(|x| x.to_bits()).collect(),
        )
    }

    proptest! {
        /// `of_counts` is `of` over the expanded samples, field for field
        /// and bit for bit, outliers included.
        #[test]
        fn of_counts_matches_of_expanded(counts in counted()) {
            let expanded: Vec<f64> = counts
                .iter()
                .flat_map(|&(x, c)| std::iter::repeat_n(x, c as usize))
                .collect();
            let got = BoxStats::of_counts(&counts).unwrap();
            let want = BoxStats::of(&expanded).unwrap();
            prop_assert_eq!(bits(&got), bits(&want));
        }

        /// Quartile ordering always holds and whiskers bound the box.
        #[test]
        fn box_invariants(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
            let b = BoxStats::of(&xs).unwrap();
            prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
            prop_assert!(b.q1 <= b.median + 1e-9);
            prop_assert!(b.median <= b.q3 + 1e-9);
            prop_assert!(b.q3 <= b.whisker_hi + 1e-9);
            // every outlier is outside the whiskers
            for o in &b.outliers {
                prop_assert!(*o < b.whisker_lo || *o > b.whisker_hi);
            }
        }

        /// Summary min/max bracket every other statistic.
        #[test]
        fn summary_bracketing(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
            let s = Summary::of(&xs).unwrap();
            for v in [s.mean, s.p25, s.median, s.p75, s.p95] {
                prop_assert!(v >= s.min - 1e-9 && v <= s.max + 1e-9);
            }
        }
    }
}
