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
//! - [`BoxStats`]: quartiles, whiskers and outliers for box plots,
//! - [`pearson`] / [`spearman`]: correlation coefficients,
//! - [`PowerLawFit`]: maximum-likelihood power-law exponent estimation,
//! - [`top_share`]: the share held by the top holders.
//!
//! Everything is deterministic and `f64`-based; callers convert counts with
//! `as f64` at the boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod ecdf;
pub mod gini;
pub mod powerlaw;
pub mod summary;

pub use correlation::{pearson, spearman};
pub use ecdf::Ecdf;
pub use gini::top_share;
pub use powerlaw::PowerLawFit;
pub use summary::BoxStats;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_singleton_is_value() {
        assert_eq!(quantile_sorted(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile_sorted(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile_sorted(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&data, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&data, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&data, 1.0), Some(4.0));
        // R-7: pos = 0.25 * 3 = 0.75 -> 1 + 0.75*(2-1) = 1.75
        assert_eq!(quantile_sorted(&data, 0.25), Some(1.75));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let data = [1.0, 2.0, 3.0];
        assert_eq!(quantile_sorted(&data, -1.0), Some(1.0));
        assert_eq!(quantile_sorted(&data, 2.0), Some(3.0));
    }
}
