//! Concentration measures: Gini coefficient, Lorenz curve, top-k shares.
//!
//! The paper's centralisation narrative rests on statements like "the top 5%
//! of all instances have 90.6% of all users" and "10% of instances host
//! almost half of the users". [`top_share`] computes exactly those numbers;
//! [`gini`] summarises the skew in one scalar.

/// Gini coefficient of non-negative values in `[0, 1]`.
///
/// 0 = perfectly equal, →1 = maximally concentrated. Returns `None` on empty
/// input or when the total is zero.
pub fn gini(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    // NaN fails the >= too, so corrupt input still fails fast here.
    assert!(v.iter().all(|x| *x >= 0.0), "gini: negative or NaN value");
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len() as f64;
    let total: f64 = v.iter().sum();
    if total == 0.0 {
        return None;
    }
    // G = (2 * sum_i i*x_i) / (n * total) - (n + 1) / n, with i 1-based over
    // ascending-sorted values.
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    Some((2.0 * weighted) / (n * total) - (n + 1.0) / n)
}

/// Lorenz curve: returns `(population_fraction, value_fraction)` points for
/// the *ascending*-sorted values, starting at `(0, 0)` and ending at `(1, 1)`.
pub fn lorenz(values: &[f64]) -> Vec<(f64, f64)> {
    let mut v = values.to_vec();
    assert!(v.iter().all(|x| !x.is_nan()), "lorenz: NaN value");
    v.sort_unstable_by(f64::total_cmp);
    let total: f64 = v.iter().sum();
    let n = v.len() as f64;
    let mut out = vec![(0.0, 0.0)];
    if total == 0.0 || v.is_empty() {
        out.push((1.0, 1.0));
        return out;
    }
    let mut acc = 0.0;
    for (i, &x) in v.iter().enumerate() {
        acc += x;
        out.push(((i as f64 + 1.0) / n, acc / total));
    }
    out
}

/// Share of the total held by the top `frac` of holders (by value).
///
/// `top_share(&users_per_instance, 0.05)` answers "what fraction of users do
/// the top 5% of instances hold?". The number of top holders is
/// `ceil(frac * n)` so that a non-empty prefix is always considered for
/// `frac > 0`. Returns `None` on empty input or zero total.
pub fn top_share(values: &[f64], frac: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&frac) {
        return None;
    }
    let total: f64 = values.iter().sum();
    if total == 0.0 {
        return None;
    }
    let mut v = values.to_vec();
    assert!(v.iter().all(|x| !x.is_nan()), "top_share: NaN value");
    // descending
    v.sort_unstable_by(|a, b| f64::total_cmp(b, a));
    let k = ((frac * v.len() as f64).ceil() as usize).min(v.len());
    Some(v[..k].iter().sum::<f64>() / total)
}

/// Smallest fraction of (top) holders needed to cover at least `share` of the
/// total — the inverse question of [`top_share`]. E.g. "what fraction of
/// instances hold half the users?".
pub fn holders_for_share(values: &[f64], share: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let total: f64 = values.iter().sum();
    if total == 0.0 {
        return None;
    }
    let mut v = values.to_vec();
    assert!(
        v.iter().all(|x| !x.is_nan()),
        "holders_for_share: NaN value"
    );
    v.sort_unstable_by(|a, b| f64::total_cmp(b, a));
    let target = share.clamp(0.0, 1.0) * total;
    let mut acc = 0.0;
    for (i, &x) in v.iter().enumerate() {
        acc += x;
        if acc >= target {
            return Some((i + 1) as f64 / v.len() as f64);
        }
    }
    Some(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_equal_distribution_is_zero() {
        let g = gini(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert!(g.abs() < 1e-12);
    }

    #[test]
    fn gini_single_holder_approaches_one() {
        let mut v = vec![0.0; 999];
        v.push(100.0);
        let g = gini(&v).unwrap();
        assert!(g > 0.99, "g = {g}");
    }

    #[test]
    fn gini_empty_or_zero_is_none() {
        assert_eq!(gini(&[]), None);
        assert_eq!(gini(&[0.0, 0.0]), None);
    }

    #[test]
    fn lorenz_endpoints() {
        let l = lorenz(&[1.0, 2.0, 3.0]);
        assert_eq!(l.first(), Some(&(0.0, 0.0)));
        let last = *l.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-12 && (last.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lorenz_below_diagonal_for_skewed() {
        let l = lorenz(&[1.0, 1.0, 1.0, 97.0]);
        for &(p, v) in &l[1..l.len() - 1] {
            assert!(v <= p + 1e-12, "Lorenz curve must lie below the diagonal");
        }
    }

    #[test]
    fn top_share_picks_largest() {
        // 10 instances, one with 91 users, nine with 1.
        let mut v = vec![1.0; 9];
        v.push(91.0);
        // top 10% = 1 instance = the big one.
        assert!((top_share(&v, 0.10).unwrap() - 0.91).abs() < 1e-12);
        // top 100% = everything.
        assert!((top_share(&v, 1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn holders_for_share_inverse_of_top_share() {
        let mut v = vec![1.0; 90];
        v.extend(std::iter::repeat_n(91.0, 10));
        // top 10 holders have 910 of 1000 -> to cover 50% we need few holders.
        let h = holders_for_share(&v, 0.5).unwrap();
        assert!(h <= 0.10, "h = {h}");
    }

    #[test]
    fn top_share_frac_zero_takes_nothing_extra() {
        // ceil(0 * n) = 0 holders -> share 0
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(top_share(&v, 0.0), Some(0.0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Gini is within [0, 1] and invariant under scaling.
        #[test]
        fn gini_bounds_and_scale(xs in proptest::collection::vec(0.0f64..1e4, 1..200), k in 0.1f64..100.0) {
            if let Some(g) = gini(&xs) {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&g));
                let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
                let g2 = gini(&scaled).unwrap();
                prop_assert!((g - g2).abs() < 1e-9);
            }
        }

        /// top_share is monotone in frac.
        #[test]
        fn top_share_monotone(xs in proptest::collection::vec(0.0f64..1e4, 1..200),
                              a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if let (Some(s1), Some(s2)) = (top_share(&xs, lo), top_share(&xs, hi)) {
                prop_assert!(s1 <= s2 + 1e-9);
            }
        }

        /// Lorenz curve is monotone in both coordinates.
        #[test]
        fn lorenz_monotone(xs in proptest::collection::vec(0.0f64..1e4, 1..200)) {
            let l = lorenz(&xs);
            for w in l.windows(2) {
                prop_assert!(w[0].0 <= w[1].0 + 1e-12);
                prop_assert!(w[0].1 <= w[1].1 + 1e-12);
            }
        }
    }
}
