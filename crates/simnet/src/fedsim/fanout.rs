//! Push fan-out topology: author → distinct remote follower instances.
//!
//! ActivityPub delivery is per *instance pair*, not per follower: a toot
//! travels once from the author's home instance to each instance hosting
//! at least one follower (Mastodon's sidekiq `push` queue dedups shared
//! inboxes). [`FanoutArena`] holds that dedup precompiled — the model's
//! holder arena with each row's home instance dropped — so the
//! simulator's hot loop is a flat slice walk.

use fediscope_model::followers::HolderRows;

/// User-indexed CSR: `dsts(u)` is the ascending, deduplicated list of
/// remote instances that host at least one follower of `u` (the home
/// instance is excluded — local delivery is not federation traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutArena {
    n_instances: usize,
    /// User `u`'s home instance, `home[u]`.
    home: Vec<u32>,
    /// Destination instance ids per user: the holder arena keyed by home
    /// instance, each row without its own home.
    dsts: HolderRows,
}

impl FanoutArena {
    /// Build from the follower edge list (`(a, b)` = user `a` follows user
    /// `b`, so a toot by `b` is pushed toward `a`'s instance).
    ///
    /// One counting sort by followee, then a per-row sort and dedup
    /// ([`HolderRows::by_followee`]) — no hash maps, so the build is
    /// deterministic.
    pub fn from_follows(n_instances: usize, home: Vec<u32>, follows: &[(u32, u32)]) -> Self {
        Self::build(n_instances, home, follows.iter().copied())
    }

    /// Build straight from a generated world's follower graph.
    pub fn from_world(world: &fediscope_model::World) -> Self {
        Self::build(world.instances.len(), world.homes(), world.follow_edges())
    }

    fn build(
        n_instances: usize,
        home: Vec<u32>,
        edges: impl ExactSizeIterator<Item = (u32, u32)> + Clone,
    ) -> Self {
        for &h in &home {
            assert!((h as usize) < n_instances, "home instance {h} out of range");
        }
        let key = |a: u32| home[a as usize];
        let dsts = HolderRows::by_followee(home.len(), edges, key, |u| Some(home[u]));
        FanoutArena { n_instances, home, dsts }
    }

    /// Number of instances in the topology.
    pub fn n_instances(&self) -> usize {
        self.n_instances
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.home.len()
    }

    /// User `u`'s home instance.
    pub fn home(&self, u: u32) -> u32 {
        self.home[u as usize]
    }

    /// Distinct remote follower instances of user `u`, ascending.
    pub fn dsts(&self, u: u32) -> &[u32] {
        self.dsts.row(u as usize)
    }

    /// Total (user → instance) delivery pairs.
    pub fn n_pairs(&self) -> usize {
        self.dsts.entries()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_drops_home() {
        // users 0,1 on instance 0; user 2 on instance 1; user 3 on 2.
        let home = vec![0, 0, 1, 2];
        // followers of user 0: 1 (inst 0 = home, dropped), 2 and 3; plus a
        // duplicate instance via both 2 and another user on inst 1.
        let follows = vec![(1, 0), (2, 0), (3, 0), (0, 2), (2, 3), (3, 2)];
        let f = FanoutArena::from_follows(3, home, &follows);
        assert_eq!(f.dsts(0), &[1, 2]); // dedup + home dropped
        assert_eq!(f.dsts(1), &[] as &[u32]);
        assert_eq!(f.dsts(2), &[0, 2]);
        assert_eq!(f.dsts(3), &[1]);
        assert_eq!(f.n_pairs(), 5);
        assert_eq!(f.home(2), 1);
    }

    #[test]
    fn rows_equal_holder_rows_minus_home() {
        use fediscope_worldgen::{Generator, WorldConfig};
        for seed in [5u64, 17] {
            let w = Generator::generate_world(WorldConfig::tiny(seed));
            let f = FanoutArena::from_world(&w);
            // Reference: one `Vec` per user of every follower's instance,
            // sorted, deduplicated, home dropped.
            let mut reference = vec![Vec::new(); w.users.len()];
            for &(a, b) in &w.follows {
                reference[b.index()].push(w.instance_of(a).0);
            }
            for (u, list) in reference.iter_mut().enumerate() {
                list.sort_unstable();
                list.dedup();
                list.retain(|&i| i != f.home(u as u32));
                assert_eq!(f.dsts(u as u32), &list[..], "seed {seed} user {u}");
            }
            let follows: Vec<(u32, u32)> = w.follow_edges().collect();
            assert_eq!(FanoutArena::from_follows(f.n_instances(), w.homes(), &follows), f);
        }
    }

    #[test]
    fn edge_order_does_not_matter() {
        let home = vec![0, 1, 2];
        let a = FanoutArena::from_follows(3, home.clone(), &[(1, 0), (2, 0)]);
        let b = FanoutArena::from_follows(3, home, &[(2, 0), (1, 0)]);
        assert_eq!(a, b);
    }
}
