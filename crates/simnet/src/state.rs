//! Shared state of the simulated fediverse.

use crate::clock::SimClock;
use crate::fault::{FaultInjector, FaultPlan};
use crate::timelines::TimelineIndex;
use bytes::Bytes;
use fediscope_activitypub::Activity;
use fediscope_model::followers::HolderRows;
use fediscope_model::ids::InstanceId;
use fediscope_model::world::World;
use parking_lot::Mutex;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::OnceLock;

/// Everything the instance-API handler needs, shared across connections.
pub struct SimState {
    /// Ground truth.
    pub world: Arc<World>,
    /// Virtual clock.
    pub clock: SimClock,
    /// Fault injection.
    pub faults: FaultInjector,
    domains: HashMap<String, InstanceId>,
    timelines: OnceLock<Vec<TimelineIndex>>,
    followers_of: OnceLock<HolderRows>,
    instance_tallies: OnceLock<(Vec<u32>, Vec<u64>)>,
    weekly_logins: OnceLock<Vec<f64>>,
    instance_documents: OnceLock<Vec<Bytes>>,
    inboxes: Vec<Mutex<Vec<Activity>>>,
}

impl SimState {
    /// Build state over a world.
    pub fn new(world: Arc<World>, plan: FaultPlan, seed: u64) -> Arc<Self> {
        let domains = world
            .instances
            .iter()
            .map(|i| (i.domain.clone(), i.id))
            .collect();
        let n = world.instances.len();
        // The clock is built first so the injector's per-epoch budget
        // windows track the same virtual time the availability checks use.
        let clock = SimClock::new();
        Arc::new(Self {
            faults: FaultInjector::new(plan, seed).with_clock(clock.clone()),
            clock,
            domains,
            timelines: OnceLock::new(),
            followers_of: OnceLock::new(),
            instance_tallies: OnceLock::new(),
            weekly_logins: OnceLock::new(),
            instance_documents: OnceLock::new(),
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            world,
        })
    }

    /// Resolve a `Host` header to an instance.
    pub fn instance_by_domain(&self, domain: &str) -> Option<InstanceId> {
        self.domains.get(domain).copied()
    }

    /// Is the instance up at the current virtual time?
    pub fn is_up(&self, id: InstanceId) -> bool {
        self.world.schedules[id.index()].is_up(self.clock.now())
    }

    /// Timeline index for an instance; the first call builds every
    /// instance's index in one pass over the users.
    pub fn timeline(&self, id: InstanceId) -> &TimelineIndex {
        &self
            .timelines
            .get_or_init(|| TimelineIndex::build_all(&self.world))[id.index()]
    }

    /// Lazily built reverse follower index: `followers_of().row(u)` lists
    /// the user ids following `u`, ascending.
    pub fn followers_of(&self) -> &HolderRows {
        self.followers_of.get_or_init(|| {
            let world = &self.world;
            HolderRows::by_followee(world.users.len(), world.follow_edges(), |a| a, |_| None)
        })
    }

    /// Outbound federated-subscription count per instance (the number the
    /// instance API reports): its out-degree in the federation graph.
    pub fn subscription_counts(&self) -> &Vec<u32> {
        &self.instance_tallies().0
    }

    /// Expected weekly logins per instance: the sum of its members'
    /// `weekly_login_prob`, added in user-id order.
    pub fn weekly_login_sums(&self) -> &Vec<f64> {
        self.weekly_logins.get_or_init(|| {
            let mut sums = vec![0.0f64; self.world.instances.len()];
            for u in &self.world.users {
                sums[u.instance.index()] += u.weekly_login_prob as f64;
            }
            sums
        })
    }

    /// Per-instance *remote* toot volume: the public toots authored by
    /// remote accounts that local users follow — the federated-timeline
    /// replica pool of §5.2 (Fig. 14). A followee's toots count once per
    /// instance, however many locals follow them.
    pub fn remote_toot_counts(&self) -> &Vec<u64> {
        &self.instance_tallies().1
    }

    /// Both per-instance tallies, from one holder arena built on first use
    /// and dropped after: row `u` holds the remote instances hosting a
    /// follower of `u`.
    fn instance_tallies(&self) -> &(Vec<u32>, Vec<u64>) {
        self.instance_tallies.get_or_init(|| {
            let world = &self.world;
            let n = world.instances.len();
            // The kept tallies are allocated before the transient arena, so
            // they do not sit above its freed space on the heap: the other
            // order raised `crawl-flaky`'s peak RSS by about 3 MB.
            let mut subscriptions = vec![0u32; n];
            let mut remote = vec![0u64; n];
            let home = world.homes();
            let key = |a: u32| home[a as usize];
            let holders =
                HolderRows::by_followee(home.len(), world.follow_edges(), key, |u| Some(home[u]));
            for (h, _) in holders.federation_edges(&HolderRows::residents(n, &home)) {
                subscriptions[h as usize] += 1;
            }
            for u in 0..holders.n_rows() {
                let public = crate::timelines::public_toots_of(world, u);
                for &h in holders.row(u) {
                    remote[h as usize] += public;
                }
            }
            (subscriptions, remote)
        })
    }

    /// The `/api/v1/instance` body of every instance, rendered on first use
    /// and then served as shared bytes. The document reads only the
    /// immutable world (the clock, faults and budgets are all decided
    /// before routing), so an instance's bytes never change between polls.
    pub fn instance_documents(&self) -> &Vec<Bytes> {
        self.instance_documents.get_or_init(|| {
            self.world
                .instances
                .iter()
                .map(|inst| self.render_instance_document(inst.id))
                .collect()
        })
    }

    /// Render one instance's `/api/v1/instance` document: the metadata
    /// mnm.social polled (§3). `uri` and `title` are the domain, which is
    /// also the `Host` the request was routed by.
    pub fn render_instance_document(&self, id: InstanceId) -> Bytes {
        let inst = &self.world.instances[id.index()];
        let subs = self.subscription_counts()[id.index()];
        let remote = self.remote_toot_counts()[id.index()];
        let logins = self.weekly_login_sums()[id.index()];
        let body = json!({
            "uri": inst.domain.as_str(),
            "title": inst.domain.as_str(),
            "version": inst.software.version_string(),
            "registrations": inst.is_open(),
            "stats": {
                "user_count": inst.user_count,
                "status_count": inst.toot_count,
                "domain_count": subs,
            },
            "logins_week": logins.round() as u64,
            "fediscope_remote_toots": remote,
            "fediscope_boosted_toots": inst.boosted_toots,
        });
        Bytes::from(body.to_string())
    }

    /// Enforce the per-epoch request budget for an instance. Returns `false`
    /// when the request should be rejected with 429. Budget accounting
    /// lives in the [`FaultInjector`], keyed by the shared virtual clock.
    pub fn consume_budget(&self, id: InstanceId) -> bool {
        self.faults.consume_budget(id.0)
    }

    /// Deliver an activity into an instance's inbox (in-process transport).
    pub fn deliver(&self, to: InstanceId, act: Activity) {
        self.inboxes[to.index()].lock().push(act);
    }

    /// Drain an instance's inbox (test/driver API).
    pub fn drain_inbox(&self, id: InstanceId) -> Vec<Activity> {
        std::mem::take(&mut *self.inboxes[id.index()].lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::time::Epoch;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn state() -> Arc<SimState> {
        let mut cfg = WorldConfig::tiny(21);
        cfg.n_instances = 12;
        cfg.n_users = 240;
        let world = Arc::new(Generator::generate_world(cfg));
        SimState::new(world, FaultPlan::default(), 1)
    }

    #[test]
    fn domain_resolution() {
        let s = state();
        for inst in &s.world.instances {
            assert_eq!(s.instance_by_domain(&inst.domain), Some(inst.id));
        }
        assert_eq!(s.instance_by_domain("nonexistent.example"), None);
    }

    #[test]
    fn is_up_tracks_clock() {
        let s = state();
        // find an instance with an outage
        let (idx, outage) = s
            .world
            .schedules
            .iter()
            .enumerate()
            .find_map(|(i, sched)| sched.outages().first().map(|o| (i, *o)))
            .expect("some outage exists");
        let id = InstanceId(idx as u32);
        s.clock.set(outage.start);
        assert!(!s.is_up(id));
        s.clock.set(Epoch(outage.end.0));
        // may still be down if next outage is adjacent; consult ground truth
        assert_eq!(s.is_up(id), s.world.schedules[idx].is_up(outage.end));
    }

    #[test]
    fn followers_index_matches_edges() {
        let s = state();
        let rev = s.followers_of();
        assert_eq!(rev.n_rows(), s.world.users.len());
        // generated follows hold no duplicates, so every edge keeps its row entry
        assert_eq!(rev.entries(), s.world.follows.len());
        for &(a, b) in &s.world.follows {
            assert!(rev.row(b.index()).binary_search(&a.0).is_ok());
        }
    }

    fn states() -> impl Iterator<Item = Arc<SimState>> {
        [21, 22, 23].into_iter().map(|seed| {
            let mut cfg = WorldConfig::tiny(seed);
            cfg.n_instances = 25;
            cfg.n_users = 400;
            SimState::new(
                Arc::new(Generator::generate_world(cfg)),
                FaultPlan::default(),
                1,
            )
        })
    }

    /// Cross-instance follows as `(follower instance, followee instance,
    /// followee)`.
    fn cross_follows(world: &World) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        world.follows.iter().filter_map(|&(a, b)| {
            let (ia, ib) = (world.instance_of(a), world.instance_of(b));
            (ia != ib).then_some((ia.0, ib.0, b.0))
        })
    }

    #[test]
    fn subscription_counts_match_federation_edges() {
        for s in states() {
            // reference: sort and dedup the instance pairs
            let mut edges: Vec<(u32, u32)> = cross_follows(&s.world)
                .map(|(ia, ib, _)| (ia, ib))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let mut reference = vec![0u32; s.world.instances.len()];
            for (ia, _) in edges {
                reference[ia as usize] += 1;
            }
            assert!(reference.iter().sum::<u32>() > 0);
            assert_eq!(s.subscription_counts(), &reference);
        }
    }

    #[test]
    fn remote_toot_counts_match_pair_reference() {
        for s in states() {
            // reference: sort and dedup (subscribing instance, followee)
            let mut pairs: Vec<(u32, u32)> =
                cross_follows(&s.world).map(|(ia, _, b)| (ia, b)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            let mut reference = vec![0u64; s.world.instances.len()];
            for (inst, followee) in pairs {
                reference[inst as usize] +=
                    crate::timelines::public_toots_of(&s.world, followee as usize);
            }
            assert!(reference.iter().sum::<u64>() > 0);
            assert_eq!(s.remote_toot_counts(), &reference);
        }
    }

    #[test]
    fn weekly_login_sums_match_per_instance_scans() {
        for seed in [21, 22, 23] {
            let mut cfg = WorldConfig::tiny(seed);
            cfg.n_instances = 25;
            cfg.n_users = 400;
            let s = SimState::new(
                Arc::new(Generator::generate_world(cfg)),
                FaultPlan::default(),
                1,
            );
            let sums = s.weekly_login_sums();
            for inst in &s.world.instances {
                let scan: f64 = s
                    .world
                    .users
                    .iter()
                    .filter(|u| u.instance == inst.id)
                    .map(|u| u.weekly_login_prob as f64)
                    .sum();
                assert_eq!(sums[inst.id.index()], scan, "seed {seed} {}", inst.id);
            }
        }
    }

    #[test]
    fn inbox_delivery_and_drain() {
        let s = state();
        let id = InstanceId(0);
        assert!(s.drain_inbox(id).is_empty());
        s.deliver(
            id,
            Activity::Announce {
                id: "https://x/act/1".into(),
                actor: "https://x/users/u1".into(),
                object: "https://y/notes/9".into(),
            },
        );
        let drained = s.drain_inbox(id);
        assert_eq!(drained.len(), 1);
        assert!(s.drain_inbox(id).is_empty());
    }

    #[test]
    fn timeline_caching_is_stable() {
        let s = state();
        let id = s
            .world
            .instances
            .iter()
            .find(|i| i.user_count > 0)
            .unwrap()
            .id;
        let a = s.timeline(id) as *const _;
        let b = s.timeline(id) as *const _;
        assert_eq!(a, b, "timeline index must be built once");
    }
}
