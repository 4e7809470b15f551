//! The content view: the minimal projection of a world that replication
//! analysis needs.
//!
//! All of a user's toots share the same holder set under subscription
//! replication (the follower instances), so the evaluators work per *user*
//! weighted by toot count — exact, and ~100× smaller than per-toot state.
//!
//! The holder sets are the model's holder arena
//! ([`HolderRows::by_followee`], keyed by home instance): one flat CSR
//! (offsets + data) instead of a `Vec<Vec<u32>>`. At the million-user tier
//! the per-user `Vec` headers alone would cost 24 MB, and every evaluator
//! pass would chase a pointer per user.

use fediscope_model::followers::HolderRows;
use fediscope_model::world::World;

/// Per-user content/holder data.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentView {
    /// Number of instances.
    pub n_instances: usize,
    /// Home instance of each user.
    pub home: Vec<u32>,
    /// Toot count of each user.
    pub toots: Vec<u64>,
    /// Holder instances per user, sorted + deduplicated (may include the
    /// home instance).
    holders: HolderRows,
    /// Users grouped by home instance (ascending user id per instance).
    /// Lets evaluators visit only the users homed on a removed instance
    /// instead of scanning the whole population.
    residents: HolderRows,
    /// Resident arena bounds: instance `i`'s *tooting* residents occupy
    /// rows `res_bounds[i]..res_bounds[i + 1]` of the arrays below.
    ///
    /// The resident arena is a home-major mirror of the holder CSR,
    /// restricted to users with at least one toot (zero-toot users carry
    /// no mass in any evaluator): walking one instance's residents reads
    /// toot counts and holder slices *sequentially*, where the user-major
    /// CSR costs two dependent cache misses per resident.
    pub(crate) res_bounds: Vec<u32>,
    /// Toot count per resident row (home-major order: by instance, then
    /// ascending user id).
    pub(crate) res_toots: Vec<u64>,
    /// User id per resident row — lets evaluators that need per-user
    /// state (the Monte-Carlo placement streams are keyed by user id)
    /// walk the arena without a detour through the home CSR.
    pub(crate) res_users: Vec<u32>,
    /// CSR offsets into [`Self::res_holder_data`] per resident row.
    pub(crate) res_holder_offsets: Vec<u32>,
    /// Holder slices per resident row (same contents as the user-major
    /// arena, relaid in home-major order).
    pub(crate) res_holder_data: Vec<u32>,
    /// Total toots.
    pub total_toots: u64,
}

impl ContentView {
    /// Build from a world.
    pub fn from_world(world: &World) -> Self {
        let n_instances = world.instances.len();
        let home = world.homes();
        let toots: Vec<u64> = world.users.iter().map(|u| u.toot_count as u64).collect();
        // a follows b, so a's instance receives (holds) b's toots.
        let key = |a: u32| home[a as usize];
        let holders = HolderRows::by_followee(home.len(), world.follow_edges(), key, |_| None);
        let residents = HolderRows::residents(n_instances, &home);

        // Resident arena: tooting users' toots + holder slices in
        // home-major order (one sequential stream per instance segment).
        let tooting = toots.iter().filter(|&&t| t > 0).count();
        let mut res_bounds = Vec::with_capacity(n_instances + 1);
        let mut res_toots = Vec::with_capacity(tooting);
        let mut res_users = Vec::with_capacity(tooting);
        let mut res_holder_offsets = Vec::with_capacity(tooting + 1);
        let mut res_holder_data = Vec::new();
        res_bounds.push(0u32);
        res_holder_offsets.push(0u32);
        for i in 0..n_instances {
            for &u in residents.row(i) {
                let u = u as usize;
                if toots[u] == 0 {
                    continue;
                }
                res_toots.push(toots[u]);
                res_users.push(u as u32);
                res_holder_data.extend_from_slice(holders.row(u));
                res_holder_offsets.push(res_holder_data.len() as u32);
            }
            res_bounds.push(res_toots.len() as u32);
        }

        let total_toots = toots.iter().sum();
        Self {
            n_instances,
            home,
            toots,
            holders,
            residents,
            res_bounds,
            res_toots,
            res_users,
            res_holder_offsets,
            res_holder_data,
            total_toots,
        }
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.home.len()
    }

    /// Instances hosting at least one follower of user `u` (sorted,
    /// deduplicated; may include the home instance).
    #[inline]
    pub fn follower_instances(&self, u: usize) -> &[u32] {
        self.holders.row(u)
    }

    /// Total holder entries across all users (the CSR arena length).
    pub fn holder_entries(&self) -> usize {
        self.holders.entries()
    }

    /// Users whose home is instance `i` (ascending user ids).
    #[inline]
    pub fn users_homed_on(&self, i: usize) -> &[u32] {
        self.residents.row(i)
    }

    /// The federation edges the holder sets induce (§3's GF(I, E)),
    /// deduplicated, in ascending `(source, target)` order.
    pub fn federation_edges(&self) -> Vec<(u32, u32)> {
        self.holders.federation_edges(&self.residents)
    }

    /// Fraction of toots whose author has **no** followers on any other
    /// instance than their own — such toots gain nothing from subscription
    /// replication (paper: "9.7% of toots have no replication due to a lack
    /// of followers").
    pub fn unreplicated_toot_fraction(&self) -> f64 {
        if self.total_toots == 0 {
            return 0.0;
        }
        let mut unreplicated = 0u64;
        for u in 0..self.n_users() {
            let has_remote_holder = self
                .follower_instances(u)
                .iter()
                .any(|&i| i != self.home[u]);
            if !has_remote_holder {
                unreplicated += self.toots[u];
            }
        }
        unreplicated as f64 / self.total_toots as f64
    }

    /// Fraction of toots with more than `k` replicas (paper: "23% of toots
    /// have more than 10 replicas because they are authored by popular
    /// users").
    pub fn over_replicated_fraction(&self, k: usize) -> f64 {
        if self.total_toots == 0 {
            return 0.0;
        }
        let mut over = 0u64;
        for u in 0..self.n_users() {
            let replicas = self
                .follower_instances(u)
                .iter()
                .filter(|&&i| i != self.home[u])
                .count();
            if replicas > k {
                over += self.toots[u];
            }
        }
        over as f64 / self.total_toots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    /// The pre-CSR reference build: per-user `Vec`s, sorted + deduped.
    fn naive_holder_lists(w: &World) -> Vec<Vec<u32>> {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); w.users.len()];
        for &(a, b) in &w.follows {
            lists[b.index()].push(w.users[a.index()].instance.0);
        }
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
        }
        lists
    }

    /// Reference: a hash set of the cross-instance `(follower instance,
    /// followee instance)` pairs, sorted.
    fn hash_set_federation_edges(w: &World) -> Vec<(u32, u32)> {
        let mut set = std::collections::HashSet::new();
        for &(a, b) in &w.follows {
            let (ia, ib) = (w.instance_of(a).0, w.instance_of(b).0);
            if ia != ib {
                set.insert((ia, ib));
            }
        }
        let mut v: Vec<_> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn federation_edges_match_hash_set_reference() {
        for seed in [7u64, 31, 98] {
            let w = Generator::generate_world(WorldConfig::tiny(seed));
            let edges = ContentView::from_world(&w).federation_edges();
            assert!(!edges.is_empty());
            assert_eq!(edges, hash_set_federation_edges(&w), "seed {seed}");
        }
    }

    #[test]
    fn from_world_consistency() {
        let w = Generator::generate_world(WorldConfig::tiny(31));
        let v = ContentView::from_world(&w);
        assert_eq!(v.n_users(), w.users.len());
        assert_eq!(v.total_toots, w.total_toots());
        // spot-check a follower-instance set
        let (a, b) = w.follows[0];
        let fa = w.users[a.index()].instance.0;
        assert!(v.follower_instances(b.index()).contains(&fa));
        // sorted + dedup
        for u in 0..v.n_users() {
            let list = v.follower_instances(u);
            assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn csr_matches_naive_lists() {
        for seed in [7u64, 31, 98] {
            let w = Generator::generate_world(WorldConfig::tiny(seed));
            let v = ContentView::from_world(&w);
            let reference = naive_holder_lists(&w);
            for (u, list) in reference.iter().enumerate() {
                assert_eq!(v.follower_instances(u), &list[..], "user {u}");
            }
            assert_eq!(
                v.holder_entries(),
                reference.iter().map(Vec::len).sum::<usize>()
            );
        }
    }

    #[test]
    fn home_csr_partitions_users() {
        let w = Generator::generate_world(WorldConfig::tiny(34));
        let v = ContentView::from_world(&w);
        let mut seen = vec![false; v.n_users()];
        for i in 0..v.n_instances {
            let users = v.users_homed_on(i);
            assert!(users.windows(2).all(|w| w[0] < w[1]), "sorted per instance");
            for &u in users {
                assert_eq!(v.home[u as usize], i as u32);
                assert!(!seen[u as usize], "user listed twice");
                seen[u as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every user listed exactly once");
    }

    #[test]
    fn resident_arena_mirrors_user_major_csr() {
        let w = Generator::generate_world(WorldConfig::tiny(35));
        let v = ContentView::from_world(&w);
        let mut rows = 0usize;
        for i in 0..v.n_instances {
            let (lo, hi) = (v.res_bounds[i] as usize, v.res_bounds[i + 1] as usize);
            let tooting: Vec<u32> = v
                .users_homed_on(i)
                .iter()
                .copied()
                .filter(|&u| v.toots[u as usize] > 0)
                .collect();
            assert_eq!(hi - lo, tooting.len(), "instance {i} row count");
            for (row, &u) in (lo..hi).zip(&tooting) {
                assert_eq!(v.res_users[row], u);
                assert_eq!(v.res_toots[row], v.toots[u as usize]);
                let slice = &v.res_holder_data[v.res_holder_offsets[row] as usize
                    ..v.res_holder_offsets[row + 1] as usize];
                assert_eq!(slice, v.follower_instances(u as usize));
            }
            rows = hi;
        }
        assert_eq!(rows, v.res_toots.len());
        // total resident mass equals total toots (zero-toot users add none)
        assert_eq!(v.res_toots.iter().sum::<u64>(), v.total_toots);
    }

    #[test]
    fn unreplicated_fraction_bounds() {
        let w = Generator::generate_world(WorldConfig::tiny(32));
        let v = ContentView::from_world(&w);
        let f = v.unreplicated_toot_fraction();
        assert!((0.0..=1.0).contains(&f));
        // monotone: over-replication fraction shrinks with k
        assert!(v.over_replicated_fraction(1) >= v.over_replicated_fraction(10));
    }

    #[test]
    fn hand_built_view() {
        use fediscope_model::ids::UserId;
        // 3 instances; user0@0 followed by user1@1; user2@2 friendless
        let mut w = fediscope_worldgen::Generator::generate_world({
            let mut c = WorldConfig::tiny(33);
            c.n_instances = 3;
            c.n_users = 3;
            c
        });
        w.users[0].instance = fediscope_model::ids::InstanceId(0);
        w.users[0].toot_count = 10;
        w.users[1].instance = fediscope_model::ids::InstanceId(1);
        w.users[1].toot_count = 0;
        w.users[2].instance = fediscope_model::ids::InstanceId(2);
        w.users[2].toot_count = 30;
        w.follows = vec![(UserId(1), UserId(0))];
        let v = ContentView::from_world(&w);
        assert_eq!(v.follower_instances(0), &[1]);
        assert!(v.follower_instances(2).is_empty());
        // 30 of 40 toots unreplicated
        assert!((v.unreplicated_toot_fraction() - 0.75).abs() < 1e-9);
    }
}
