//! A consistent-hash ring: the "global index (such as a Distributed Hash
//! Table)" the paper assumes for discovering replicated toots (§5.2).
//!
//! Instances join the ring with a configurable number of virtual nodes;
//! a toot key maps to the `n` distinct successor instances. The classic
//! consistent-hashing property holds: removing an instance only remaps keys
//! it owned (tested by property).

/// 64-bit SplitMix-based hashing (stable across platforms; no dependency on
/// `std::hash`'s unspecified hasher).
fn hash64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn point_for(instance: u32, vnode: u32) -> u64 {
    hash64(
        (instance as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((vnode as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)),
    )
}

/// A consistent-hash ring over instance ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted `(point, instance)` pairs.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Build a ring over `instances` with `vnodes` virtual nodes each.
    pub fn new(instances: impl IntoIterator<Item = u32>, vnodes: u32) -> Self {
        assert!(vnodes > 0, "need at least one virtual node");
        let mut points = Vec::new();
        for i in instances {
            for v in 0..vnodes {
                points.push((point_for(i, v), i));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// Number of distinct instances on the ring.
    pub fn instance_count(&self) -> usize {
        let mut ids: Vec<u32> = self.points.iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Remove an instance (all its virtual nodes).
    pub fn remove(&mut self, instance: u32) {
        self.points.retain(|&(_, i)| i != instance);
    }

    /// The `n` distinct instances responsible for `key`, clockwise from the
    /// key's point. Fewer than `n` are returned if the ring is smaller.
    pub fn lookup(&self, key: u64, n: usize) -> Vec<u32> {
        if self.points.is_empty() || n == 0 {
            return Vec::new();
        }
        let h = hash64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut out: Vec<u32> = Vec::with_capacity(n);
        let len = self.points.len();
        for idx in start..start + len {
            let inst = self.points[idx % len].1;
            if !out.contains(&inst) {
                out.push(inst);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_returns_distinct_instances() {
        let ring = HashRing::new(0..10, 16);
        for key in 0..100u64 {
            let replicas = ring.lookup(key, 3);
            assert_eq!(replicas.len(), 3);
            let mut d = replicas.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "duplicates for key {key}");
        }
    }

    #[test]
    fn small_ring_returns_what_it_has() {
        let ring = HashRing::new(0..2, 4);
        assert_eq!(ring.lookup(42, 5).len(), 2);
        let empty = HashRing::new(std::iter::empty(), 4);
        assert!(empty.lookup(42, 3).is_empty());
        assert!(empty.lookup(42, 1).is_empty());
    }

    #[test]
    fn deterministic_lookup() {
        let a = HashRing::new(0..20, 8);
        let b = HashRing::new(0..20, 8);
        for key in 0..50u64 {
            assert_eq!(a.lookup(key, 3), b.lookup(key, 3));
        }
    }

    #[test]
    fn balance_is_reasonable() {
        let ring = HashRing::new(0..10, 64);
        let mut counts = [0u32; 10];
        for key in 0..20_000u64 {
            counts[ring.lookup(key, 1)[0] as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        // within 2.5x of each other at 64 vnodes
        assert!(max / min < 2.5, "imbalance {counts:?}");
    }

    #[test]
    fn removal_only_remaps_removed_owners_keys() {
        let mut ring = HashRing::new(0..10, 32);
        let before: Vec<Vec<u32>> = (0..5_000u64).map(|k| ring.lookup(k, 1)).collect();
        ring.remove(3);
        for (k, owner_before) in before.iter().enumerate() {
            let owner_after = ring.lookup(k as u64, 1);
            if owner_before != &[3] {
                assert_eq!(
                    &owner_after, owner_before,
                    "key {k} moved although its owner survived"
                );
            } else {
                assert_ne!(owner_after, [3]);
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Consistent hashing: removing one instance never remaps a key
        /// between two *surviving* instances.
        #[test]
        fn monotone_removal(
            n_instances in 2u32..20,
            victim_seed in any::<u32>(),
            keys in proptest::collection::vec(any::<u64>(), 1..100)
        ) {
            let mut ring = HashRing::new(0..n_instances, 8);
            let victim = victim_seed % n_instances;
            let before: Vec<u32> = keys.iter().map(|&k| ring.lookup(k, 1)[0]).collect();
            ring.remove(victim);
            for (k, ob) in keys.iter().zip(&before) {
                let oa = ring.lookup(*k, 1)[0];
                if *ob != victim {
                    prop_assert_eq!(oa, *ob);
                }
            }
        }

        /// lookup(k, n) is a prefix of lookup(k, n+1).
        #[test]
        fn lookup_prefix_stability(key in any::<u64>(), n in 1usize..5) {
            let ring = HashRing::new(0..12, 8);
            let small = ring.lookup(key, n);
            let big = ring.lookup(key, n + 1);
            prop_assert_eq!(&big[..small.len()], &small[..]);
        }
    }
}
