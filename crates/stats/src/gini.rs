//! Concentration: top-k shares.
//!
//! The paper's centralisation narrative rests on statements like "the top 5%
//! of all instances have 90.6% of all users". [`top_share`] computes exactly
//! those numbers.

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

#[cfg(test)]
mod tests {
    use super::*;

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
        /// top_share is monotone in frac.
        #[test]
        fn top_share_monotone(xs in proptest::collection::vec(0.0f64..1e4, 1..200),
                              a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if let (Some(s1), Some(s2)) = (top_share(&xs, lo), top_share(&xs, hi)) {
                prop_assert!(s1 <= s2 + 1e-9);
            }
        }

    }
}
