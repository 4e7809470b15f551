//! Virtual timelines: deterministic, pageable views over an instance's
//! public toots without materialising millions of toot records.
//!
//! Toots are enumerated user-major: all public toots of the lowest local
//! user id first. Toot ids are dense and descending-from-`total` so the
//! standard Mastodon `max_id` pagination works: a page returns ids strictly
//! below `max_id`, newest (highest) first.

use fediscope_model::world::World;

/// Pageable index over one instance's public toots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineIndex {
    /// Local users with at least one public toot, ascending by id.
    pub user_ids: Vec<u32>,
    /// Cumulative public-toot counts aligned with `user_ids`
    /// (`cum[i]` = total public toots of users `0..=i`).
    cum: Vec<u64>,
    /// Total public toots on this instance.
    pub total_public: u64,
}

/// Public toots of one user: the ground-truth count scaled by the
/// instance's private fraction.
pub fn public_toots_of(world: &World, user_idx: usize) -> u64 {
    let u = &world.users[user_idx];
    let inst = &world.instances[u.instance.index()];
    (u.toot_count as f64 * (1.0 - inst.private_toot_frac)).floor() as u64
}

impl TimelineIndex {
    /// Build every instance's index (indexed by instance) in one pass
    /// over the users.
    pub fn build_all(world: &World) -> Vec<Self> {
        let mut all = vec![Self::default(); world.instances.len()];
        for u in &world.users {
            let public = public_toots_of(world, u.id.index());
            if public > 0 {
                let tl = &mut all[u.instance.index()];
                tl.total_public += public;
                tl.user_ids.push(u.id.0);
                tl.cum.push(tl.total_public);
            }
        }
        all
    }

    /// Map a 0-based enumeration index to `(user, per-user toot number)`.
    pub fn locate(&self, idx: u64) -> Option<(u32, u64)> {
        if idx >= self.total_public {
            return None;
        }
        let pos = self.cum.partition_point(|&c| c <= idx);
        let prev = if pos == 0 { 0 } else { self.cum[pos - 1] };
        Some((self.user_ids[pos], idx - prev))
    }

    /// The page of toot ids strictly below `max_id`, descending, at most
    /// `limit` entries. Ids are 1-based (`1..=total_public`);
    /// pass `u64::MAX` for the first page.
    pub fn page(&self, max_id: u64, limit: usize) -> Vec<u64> {
        let start = max_id.min(self.total_public + 1);
        (1..start).rev().take(limit).collect()
    }

    /// The author of toot `id` (1-based id).
    pub fn author_of(&self, id: u64) -> Option<u32> {
        if id == 0 || id > self.total_public {
            return None;
        }
        // id N is enumeration index total - N (id 'total' = index 0 = oldest
        // user's… ordering direction is arbitrary but fixed).
        self.locate(self.total_public - id).map(|(u, _)| u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::ids::InstanceId;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn world() -> World {
        let mut cfg = WorldConfig::tiny(11);
        cfg.n_instances = 10;
        cfg.n_users = 300;
        Generator::generate_world(cfg)
    }

    /// One instance's index from a scan over every user: the reference
    /// `build_all` must reproduce.
    fn build_by_scan(world: &World, instance: InstanceId) -> TimelineIndex {
        let mut user_ids = Vec::new();
        let mut cum = Vec::new();
        let mut total = 0u64;
        for u in &world.users {
            if u.instance != instance {
                continue;
            }
            let public = public_toots_of(world, u.id.index());
            if public > 0 {
                total += public;
                user_ids.push(u.id.0);
                cum.push(total);
            }
        }
        TimelineIndex {
            user_ids,
            cum,
            total_public: total,
        }
    }

    #[test]
    fn one_pass_matches_per_instance_scans() {
        for seed in [11, 12, 13] {
            let mut cfg = WorldConfig::tiny(seed);
            cfg.n_instances = 25;
            cfg.n_users = 400;
            let w = Generator::generate_world(cfg);
            let all = TimelineIndex::build_all(&w);
            assert_eq!(all.len(), w.instances.len());
            for inst in &w.instances {
                assert_eq!(
                    all[inst.id.index()],
                    build_by_scan(&w, inst.id),
                    "seed {seed} {}",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn totals_match_per_user_publics() {
        let w = world();
        let all = TimelineIndex::build_all(&w);
        for inst in &w.instances {
            let idx = &all[inst.id.index()];
            let expect: u64 = w
                .users
                .iter()
                .filter(|u| u.instance == inst.id)
                .map(|u| public_toots_of(&w, u.id.index()))
                .sum();
            assert_eq!(idx.total_public, expect, "instance {}", inst.id);
        }
    }

    #[test]
    fn locate_covers_every_index_exactly_once() {
        let w = world();
        let inst = w.instances.iter().find(|i| i.user_count > 3).unwrap();
        let idx = &TimelineIndex::build_all(&w)[inst.id.index()];
        let mut per_user: std::collections::HashMap<u32, u64> = Default::default();
        for i in 0..idx.total_public {
            let (user, k) = idx.locate(i).unwrap();
            let c = per_user.entry(user).or_insert(0);
            assert_eq!(*c, k, "per-user toot numbers must be sequential");
            *c += 1;
        }
        for (user, count) in per_user {
            assert_eq!(count, public_toots_of(&w, user as usize));
        }
        assert_eq!(idx.locate(idx.total_public), None);
    }

    #[test]
    fn paging_walks_all_ids_without_overlap() {
        let w = world();
        let inst = w.instances.iter().find(|i| i.user_count > 3).unwrap();
        let idx = &TimelineIndex::build_all(&w)[inst.id.index()];
        let mut seen = Vec::new();
        let mut max_id = u64::MAX;
        loop {
            let page = idx.page(max_id, 7);
            if page.is_empty() {
                break;
            }
            // descending within the page
            assert!(page.windows(2).all(|w| w[0] > w[1]));
            max_id = *page.last().unwrap();
            seen.extend(page);
        }
        assert_eq!(seen.len() as u64, idx.total_public);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "duplicate ids served");
    }

    #[test]
    fn author_of_bounds() {
        let w = world();
        let inst = w.instances.iter().find(|i| i.user_count > 0).unwrap();
        let idx = &TimelineIndex::build_all(&w)[inst.id.index()];
        assert_eq!(idx.author_of(0), None);
        assert_eq!(idx.author_of(idx.total_public + 1), None);
        if idx.total_public > 0 {
            assert!(idx.author_of(1).is_some());
            assert!(idx.author_of(idx.total_public).is_some());
        }
    }

    #[test]
    fn empty_instance_has_empty_timeline() {
        let w = world();
        if let Some(inst) = w.instances.iter().find(|i| i.user_count == 0) {
            let idx = &TimelineIndex::build_all(&w)[inst.id.index()];
            assert_eq!(idx.total_public, 0);
            assert!(idx.page(u64::MAX, 40).is_empty());
        }
    }
}
