//! Ranked frequency counting for the paper's "top-N" tables and shares
//! (Fig. 5 country/AS shares, Table 1, Table 2).

use std::collections::HashMap;
use std::hash::Hash;

/// A frequency counter with weighted increments and ranked extraction.
#[derive(Debug, Clone)]
pub struct Counter<K: Eq + Hash> {
    counts: HashMap<K, f64>,
}

impl<K: Eq + Hash + Clone> Default for Counter<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> Counter<K> {
    /// Empty counter.
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
        }
    }

    /// Increment `key` by 1.
    pub fn add(&mut self, key: K) {
        self.add_weighted(key, 1.0);
    }

    /// Increment `key` by `w`.
    pub fn add_weighted(&mut self, key: K, w: f64) {
        *self.counts.entry(key).or_insert(0.0) += w;
    }

    /// Current count for `key` (0 when absent).
    pub fn get(&self, key: &K) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Sum of all counts.
    pub fn total(&self) -> f64 {
        self.counts.values().sum()
    }

    /// Keys ranked by descending count. Ties are broken arbitrarily but
    /// deterministically is NOT guaranteed by HashMap iteration, so callers
    /// needing stable output should use [`Counter::top_k_stable`].
    pub fn ranked(&self) -> Vec<(K, f64)> {
        let mut v: Vec<(K, f64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN count"));
        v
    }

    /// Top `k` entries by count with a secondary deterministic ordering
    /// provided by the caller's key-ordering function.
    pub fn top_k_stable<F>(&self, k: usize, mut key_ord: F) -> Vec<(K, f64)>
    where
        F: FnMut(&K, &K) -> std::cmp::Ordering,
    {
        let mut v: Vec<(K, f64)> = self
            .counts
            .iter()
            .map(|(key, &c)| (key.clone(), c))
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("NaN count")
                .then_with(|| key_ord(&a.0, &b.0))
        });
        v.truncate(k);
        v
    }

    /// Share of the total held by `key` (0 when total is 0).
    pub fn share(&self, key: &K) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.get(key) / t
        }
    }

    /// All counts as a vector (for feeding into gini / top_share).
    pub fn values(&self) -> Vec<f64> {
        self.counts.values().copied().collect()
    }
}

impl<K: Eq + Hash + Clone> FromIterator<K> for Counter<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let mut c = Self::new();
        for k in iter {
            c.add(k);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_shares() {
        let c: Counter<&str> = ["jp", "jp", "us", "fr"].into_iter().collect();
        assert_eq!(c.get(&"jp"), 2.0);
        assert_eq!(c.get(&"de"), 0.0);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.total(), 4.0);
        assert!((c.share(&"jp") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_adds() {
        let mut c = Counter::new();
        c.add_weighted("amazon", 30.5);
        c.add_weighted("amazon", 10.0);
        c.add_weighted("ovh", 5.0);
        assert_eq!(c.get(&"amazon"), 40.5);
        let ranked = c.ranked();
        assert_eq!(ranked[0].0, "amazon");
    }

    #[test]
    fn top_k_stable_breaks_ties_deterministically() {
        let mut c = Counter::new();
        c.add_weighted("b", 1.0);
        c.add_weighted("a", 1.0);
        c.add_weighted("c", 2.0);
        let top = c.top_k_stable(3, |x, y| x.cmp(y));
        assert_eq!(
            top.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec!["c", "a", "b"]
        );
    }

    #[test]
    fn top_k_truncates() {
        let c: Counter<u32> = (0..100).collect();
        assert_eq!(c.top_k_stable(5, |a, b| a.cmp(b)).len(), 5);
    }

    #[test]
    fn empty_counter() {
        let c: Counter<u8> = Counter::new();
        assert_eq!(c.total(), 0.0);
        assert_eq!(c.share(&1), 0.0);
        assert!(c.ranked().is_empty());
    }
}
