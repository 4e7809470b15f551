//! The holder arena: follow edges grouped by followee, built in one place.
//!
//! Every instance-level view of the follower graph reads the same
//! structure: for each user, one value per follower, deduplicated. The
//! values are either the followers themselves (the followers endpoint) or
//! their home instances — the instances that hold the user's toots under
//! §5.2's subscription replication, and, minus the user's own home, the
//! push fan-out of a federated toot. [`HolderRows`] builds each of them
//! with one counting sort over the edge list, and
//! [`HolderRows::federation_edges`] derives §3's federation graph
//! GF(I, E) from the holder rows without hashing.

/// A CSR arena of per-user rows: row `u` is
/// `data[offsets[u]..offsets[u + 1]]`, ascending and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HolderRows {
    /// `n_rows + 1` offsets into `data`.
    offsets: Vec<u32>,
    /// Row values, ascending and distinct within each row.
    data: Vec<u32>,
}

impl HolderRows {
    /// The one grouping of follow edges by followee: row `b` holds
    /// `key(a)` for every edge `(a, b)` ("user `a` follows user `b`"),
    /// sorted, deduplicated, and without `skip(b)`. The keys in use are
    /// the follower itself (`|a| a`) and its home instance
    /// (`|a| home[a as usize]`); skipping `home[b]` leaves the push
    /// fan-out. `edges` is walked twice (count, then scatter), so the edge
    /// list is never copied.
    pub fn by_followee(
        n_users: usize,
        edges: impl ExactSizeIterator<Item = (u32, u32)> + Clone,
        key: impl Fn(u32) -> u32,
        skip: impl Fn(usize) -> Option<u32>,
    ) -> Self {
        assert!(n_users < u32::MAX as usize, "user count overflows CSR");
        assert!(
            edges.len() < u32::MAX as usize,
            "follow count overflows CSR offsets"
        );

        // Counting sort: count each followee's edges, prefix-sum the
        // counts into row offsets, then scatter each follower's key.
        let mut offsets = vec![0u32; n_users + 1];
        for (a, b) in edges.clone() {
            assert!(
                (a.max(b) as usize) < n_users,
                "follow edge ({a}, {b}) out of range"
            );
            offsets[b as usize + 1] += 1;
        }
        for u in 0..n_users {
            offsets[u + 1] += offsets[u];
        }
        let mut data = vec![0u32; edges.len()];
        let mut cursor: Vec<u32> = offsets[..n_users].to_vec();
        for (a, b) in edges {
            let c = &mut cursor[b as usize];
            data[*c as usize] = key(a);
            *c += 1;
        }

        // Sort + dedup each row in place, compacting the arena forward.
        // The write cursor never passes a row's start, so reads stay
        // ahead of writes.
        let mut write = 0usize;
        for u in 0..n_users {
            let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
            data[start..end].sort_unstable();
            offsets[u] = write as u32;
            let skip = skip(u);
            let mut prev = None;
            for r in start..end {
                let v = Some(data[r]);
                if v != prev && v != skip {
                    data[write] = data[r];
                    write += 1;
                }
                prev = v;
            }
        }
        offsets[n_users] = write as u32;
        data.truncate(write);
        data.shrink_to_fit();
        HolderRows { offsets, data }
    }

    /// Row `i`: the users whose home is instance `i`, ascending.
    pub fn residents(n_instances: usize, home: &[u32]) -> Self {
        assert!(home.len() < u32::MAX as usize, "user count overflows CSR");
        let mut offsets = vec![0u32; n_instances + 1];
        for &h in home {
            offsets[h as usize + 1] += 1;
        }
        for i in 0..n_instances {
            offsets[i + 1] += offsets[i];
        }
        let mut data = vec![0u32; home.len()];
        let mut cursor: Vec<u32> = offsets[..n_instances].to_vec();
        for (u, &h) in home.iter().enumerate() {
            let c = &mut cursor[h as usize];
            data[*c as usize] = u as u32;
            *c += 1;
        }
        HolderRows { offsets, data }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `u`: ascending, deduplicated.
    #[inline]
    pub fn row(&self, u: usize) -> &[u32] {
        &self.data[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Total entries across all rows (the arena length).
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// The federation edges these holder rows induce, §3's GF(I, E): an
    /// edge `(h, t)` for every holder `h` of a user homed on `t != h` (a
    /// user on `h` follows a user on `t`). Deduplicated, in ascending
    /// `(source, target)` order. `residents` is [`Self::residents`] over
    /// the same homes; the rows may include or drop the home instance.
    ///
    /// No hashing: walking `residents` visits the targets in ascending
    /// order and a stamp per source instance drops a repeated `(h, t)`;
    /// grouping the pairs by source is then a stable counting sort.
    pub fn federation_edges(&self, residents: &HolderRows) -> Vec<(u32, u32)> {
        let n_instances = residents.n_rows();
        let mut stamp = vec![u32::MAX; n_instances];
        let mut by_target = Vec::new();
        for t in 0..n_instances as u32 {
            for &u in residents.row(t as usize) {
                for &h in self.row(u as usize) {
                    if h != t && stamp[h as usize] != t {
                        stamp[h as usize] = t;
                        by_target.push((t, h));
                    }
                }
            }
        }
        let targets = Self::by_followee(n_instances, by_target.iter().copied(), |t| t, |_| None);
        (0..n_instances)
            .flat_map(|h| targets.row(h).iter().map(move |&t| (h as u32, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_past_the_users_is_rejected() {
        HolderRows::by_followee(2, [(0, 2)].iter().copied(), |a| a, |_| None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Reference: one `Vec` per user — push every key, sort, dedup, drop
    /// `skip(u)`.
    fn naive_rows(
        n_users: usize,
        follows: &[(u32, u32)],
        key: impl Fn(u32) -> u32,
        skip: impl Fn(usize) -> Option<u32>,
    ) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); n_users];
        for &(a, b) in follows {
            rows[b as usize].push(key(a));
        }
        for (u, row) in rows.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            row.retain(|&v| Some(v) != skip(u));
        }
        rows
    }

    /// Reference: a hash set of the cross-instance `(follower instance,
    /// followee instance)` pairs, sorted.
    fn hash_set_federation_edges(home: &[u32], follows: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let set: HashSet<(u32, u32)> = follows
            .iter()
            .map(|&(a, b)| (home[a as usize], home[b as usize]))
            .filter(|&(ia, ib)| ia != ib)
            .collect();
        let mut v: Vec<_> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    fn rows_of(rows: &HolderRows) -> Vec<Vec<u32>> {
        (0..rows.n_rows()).map(|u| rows.row(u).to_vec()).collect()
    }

    /// A random population: up to 40 users (some with no followers) on up
    /// to 8 instances, and edges drawn with repeats.
    fn world() -> impl Strategy<Value = (usize, Vec<u32>, Vec<(u32, u32)>)> {
        (
            proptest::collection::vec(0u32..8, 1..40),
            proptest::collection::vec((0u32..40, 0u32..40), 0..120),
        )
            .prop_map(|(home, raw)| {
                let n = home.len() as u32;
                let follows: Vec<(u32, u32)> = raw
                    .into_iter()
                    .map(|(a, b)| (a % n, b % n))
                    // the edges of some users repeat, to exercise dedup
                    .flat_map(|(a, b)| std::iter::repeat_n((a, b), 1 + (a % 3 == 0) as usize))
                    .collect();
                (8, home, follows)
            })
    }

    proptest! {
        /// Every key and drop mode equals the naive per-user build.
        #[test]
        fn rows_match_naive_lists((n_instances, home, follows) in world()) {
            let n = home.len();
            let edges = || follows.iter().copied();
            let rows = |key: &dyn Fn(u32) -> u32, skip: &dyn Fn(usize) -> Option<u32>| {
                rows_of(&HolderRows::by_followee(n, edges(), key, skip))
            };
            let key = |a: u32| home[a as usize];
            let skip_home = |u: usize| Some(home[u]);
            prop_assert_eq!(rows(&|a| a, &|_| None), naive_rows(n, &follows, |a| a, |_| None));
            prop_assert_eq!(rows(&key, &|_| None), naive_rows(n, &follows, key, |_| None));
            prop_assert_eq!(rows(&key, &skip_home), naive_rows(n, &follows, key, skip_home));
            let residents = rows_of(&HolderRows::residents(n_instances, &home));
            for (i, users) in residents.iter().enumerate() {
                let expect: Vec<u32> = (0..n as u32).filter(|&u| home[u as usize] == i as u32).collect();
                prop_assert_eq!(users, &expect);
            }
        }

        /// The federation edges equal the hash-set derivation, in order,
        /// from rows that keep or drop the home instance.
        #[test]
        fn federation_edges_match_hash_set((n_instances, home, follows) in world()) {
            let residents = HolderRows::residents(n_instances, &home);
            let reference = hash_set_federation_edges(&home, &follows);
            for drop_home in [false, true] {
                let holders = HolderRows::by_followee(
                    home.len(),
                    follows.iter().copied(),
                    |a| home[a as usize],
                    |u| drop_home.then(|| home[u]),
                );
                prop_assert_eq!(holders.federation_edges(&residents), reference.clone());
            }
        }
    }
}
