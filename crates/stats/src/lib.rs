//! # fediscope-stats
//!
//! Statistics substrate for the fediscope toolkit.
//!
//! The IMC'19 Mastodon study is, at heart, a pile of distributional
//! analyses: CDFs of users/toots per instance (Fig. 2), downtime
//! distributions (Figs. 7, 8, 10), degree distributions (Fig. 11),
//! correlation claims ("correlation between toots and downtime is −0.04"),
//! and share/top-k statements ("top 5% of instances hold 90.6% of users").
//! This crate provides the small, dependency-free numeric toolkit those
//! analyses are built on:
//!
//! - [`Ecdf`]: empirical CDFs with exact quantiles,
//! - [`Summary`] and [`BoxStats`]: five-number summaries for box plots,
//! - [`pearson`] / [`spearman`]: correlation coefficients,
//! - [`PowerLawFit`]: maximum-likelihood power-law exponent estimation,
//! - [`gini()`] / [`lorenz`] / [`top_share`]: concentration measures,
//! - [`Histogram`] / [`LogHistogram`]: linear and logarithmic binning,
//! - [`Counter`]: ranked frequency counting for top-k tables.
//!
//! Everything is deterministic and `f64`-based; callers convert counts with
//! `as f64` at the boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod counter;
pub mod ecdf;
pub mod gini;
pub mod hist;
pub mod powerlaw;
pub mod summary;

pub use correlation::{pearson, spearman};
pub use counter::Counter;
pub use ecdf::Ecdf;
pub use gini::{gini, lorenz, top_share};
pub use hist::{Histogram, LogHistogram};
pub use powerlaw::PowerLawFit;
pub use summary::{BoxStats, Summary};

/// Linearly interpolated quantile of already-sorted data (`q` in `[0, 1]`).
///
/// Uses the common "R-7" definition (as NumPy's default). Returns `None` on
/// empty input. Panics in debug builds if the input is not sorted.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    Some(quantile_by_rank(sorted.len(), q, |r| sorted[r]))
}

/// The R-7 quantile of `n >= 1` sorted values that `at(rank)` reads by
/// 0-based rank: [`quantile_sorted`]'s arithmetic for data that is not
/// held as one slice (such as [`BoxStats::of_counts`]' counted values).
pub(crate) fn quantile_by_rank(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    debug_assert!(n >= 1, "quantile of no values");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return at(lo);
    }
    let frac = pos - lo as f64;
    at(lo) * (1.0 - frac) + at(hi) * frac
}

/// Convenience: sort a copy of `data` and take a quantile.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = data.to_vec();
    assert!(v.iter().all(|x| !x.is_nan()), "quantile: NaN value");
    v.sort_unstable_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        None
    } else {
        Some(data.iter().sum::<f64>() / data.len() as f64)
    }
}

/// Population standard deviation; `None` if fewer than one element.
pub fn std_dev(data: &[f64]) -> Option<f64> {
    let m = mean(data)?;
    let var = data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64;
    Some(var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_singleton_is_value() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.5), Some(2.5));
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        // R-7: pos = 0.25 * 3 = 0.75 -> 1 + 0.75*(2-1) = 1.75
        assert_eq!(quantile(&data, 0.25), Some(1.75));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let data = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&data, -1.0), Some(1.0));
        assert_eq!(quantile(&data, 2.0), Some(3.0));
    }

    #[test]
    fn mean_and_std_dev_basic() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data), Some(5.0));
        assert!((std_dev(&data).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let data = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&data, 0.5), Some(2.0));
    }
}
