//! The ground-truth world: everything the synthetic fediverse "is",
//! independent of what a crawler later observes.

use crate::geo::ProviderCatalog;
use crate::ids::{InstanceId, UserId};
use crate::instance::Instance;
use crate::schedule::AvailabilitySchedule;
use crate::user::UserProfile;
use serde::{Deserialize, Serialize};

/// One point of the daily growth series (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct GrowthPoint {
    /// Instances online that day.
    pub instances: u32,
    /// Registered users that day.
    pub users: u32,
    /// Cumulative toots that day.
    pub toots: u64,
}

/// The Twitter comparison baselines (§3 "Twitter" dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TwitterBaseline {
    /// Per-day downtime fraction, Feb–Dec 2007 (pingdom-style probe data).
    pub daily_downtime: Vec<f64>,
    /// Follower edges `(follower, followee)` of the 2011-era social graph
    /// sample, over a dense node space `0..n_users`.
    pub follows: Vec<(u32, u32)>,
    /// Node count of the Twitter graph sample.
    pub n_users: u32,
}

/// The fully generated fediverse plus its comparison baselines.
///
/// Invariants (checked by [`World::validate`]):
/// - `users[i].id == UserId(i)` and `instances[j].id == InstanceId(j)`,
/// - every user's instance exists,
/// - `schedules.len() == instances.len()`,
/// - follower edges reference valid users and contain no self-loops.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct World {
    /// Seed the world was generated from (for provenance).
    pub seed: u64,
    /// Instance table (dense by `InstanceId`).
    pub instances: Vec<Instance>,
    /// User table (dense by `UserId`).
    pub users: Vec<UserProfile>,
    /// Follower edges: `(a, b)` means *a follows b*.
    pub follows: Vec<(UserId, UserId)>,
    /// Availability schedule per instance (same indexing as `instances`).
    pub schedules: Vec<AvailabilitySchedule>,
    /// Hosting provider catalog.
    pub providers: ProviderCatalog,
    /// Daily growth series over the measurement window.
    pub growth: Vec<GrowthPoint>,
    /// Twitter baselines for Figs. 8, 11, 12.
    pub twitter: TwitterBaseline,
}

impl World {
    /// Panic (with a useful message) if any structural invariant is broken.
    /// Generators call this before returning a world.
    pub fn validate(&self) {
        assert_eq!(
            self.instances.len(),
            self.schedules.len(),
            "instances/schedules length mismatch"
        );
        for (i, inst) in self.instances.iter().enumerate() {
            assert_eq!(inst.id.index(), i, "instance id not dense at {i}");
        }
        for (i, u) in self.users.iter().enumerate() {
            assert_eq!(u.id.index(), i, "user id not dense at {i}");
            assert!(
                u.instance.index() < self.instances.len(),
                "user {i} on unknown instance"
            );
        }
        for &(a, b) in &self.follows {
            assert!(a != b, "self-loop follow {a}");
            assert!(
                a.index() < self.users.len() && b.index() < self.users.len(),
                "follow edge out of range"
            );
        }
    }

    /// Per-instance user counts derived from the user table.
    pub fn user_counts(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.instances.len()];
        for u in &self.users {
            out[u.instance.index()] += 1;
        }
        out
    }

    /// Per-instance total toot counts derived from the user table.
    pub fn toot_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.instances.len()];
        for u in &self.users {
            out[u.instance.index()] += u.toot_count as u64;
        }
        out
    }

    /// Total toots across the world.
    pub fn total_toots(&self) -> u64 {
        self.users.iter().map(|u| u.toot_count as u64).sum()
    }

    /// Instance of a user.
    pub fn instance_of(&self, u: UserId) -> InstanceId {
        self.users[u.index()].instance
    }

    /// Follower edges as raw `(a, b)` user indices, *a follows b* — the
    /// edge stream the holder arena ([`crate::followers::HolderRows`])
    /// groups by followee.
    pub fn follow_edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + Clone + '_ {
        self.follows.iter().map(|&(a, b)| (a.0, b.0))
    }

    /// Home instance index of every user, by user id.
    pub fn homes(&self) -> Vec<u32> {
        self.users.iter().map(|u| u.instance.0).collect()
    }

    /// Instances grouped by AS: `(provider_index, member instance ids)`.
    pub fn instances_by_provider(&self) -> Vec<Vec<InstanceId>> {
        let mut out = vec![Vec::new(); self.providers.len()];
        for inst in &self.instances {
            out[inst.provider_index as usize].push(inst.id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certs::{Certificate, CertificateAuthority};
    use crate::geo::Country;
    use crate::ids::AsId;
    use crate::instance::{OperatorKind, Registration, Software};
    use crate::taxonomy::{CategorySet, PolicySet};
    use crate::time::Day;

    fn mk_instance(i: u32) -> Instance {
        Instance {
            id: InstanceId(i),
            domain: format!("i{i}.example"),
            software: Software::Mastodon,
            registration: Registration::Open,
            declares_categories: false,
            categories: CategorySet::empty(),
            policies: PolicySet::unstated(),
            country: Country::Japan,
            asn: AsId(64512),
            provider_index: 0,
            ip: i,
            certificate: Certificate {
                ca: CertificateAuthority::LetsEncrypt,
                issued: Day(0),
                auto_renew: true,
            },
            created: Day(0),
            operator: OperatorKind::Individual,
            user_count: 0,
            toot_count: 0,
            boosted_toots: 0,
            active_user_pct: 50.0,
            crawl_allowed: true,
            private_toot_frac: 0.0,
        }
    }

    fn mk_user(i: u32, inst: u32, toots: u32) -> UserProfile {
        UserProfile {
            id: UserId(i),
            instance: InstanceId(inst),
            toot_count: toots,
            weekly_login_prob: 0.5,
        }
    }

    fn small_world() -> World {
        World {
            seed: 1,
            instances: vec![mk_instance(0), mk_instance(1)],
            users: vec![mk_user(0, 0, 5), mk_user(1, 0, 0), mk_user(2, 1, 7)],
            follows: vec![
                (UserId(0), UserId(2)),
                (UserId(2), UserId(0)),
                (UserId(1), UserId(0)),
            ],
            schedules: vec![
                AvailabilitySchedule::always_up(),
                AvailabilitySchedule::always_up(),
            ],
            providers: ProviderCatalog::with_tail(5),
            growth: vec![],
            twitter: TwitterBaseline::default(),
        }
    }

    #[test]
    fn validate_accepts_consistent_world() {
        small_world().validate();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn validate_rejects_self_loop() {
        let mut w = small_world();
        w.follows.push((UserId(1), UserId(1)));
        w.validate();
    }

    #[test]
    fn per_instance_aggregates() {
        let w = small_world();
        assert_eq!(w.user_counts(), vec![2, 1]);
        assert_eq!(w.toot_counts(), vec![5, 7]);
        assert_eq!(w.total_toots(), 12);
        assert_eq!(w.homes(), vec![0, 0, 1]);
    }

    #[test]
    fn federation_edges_deduplicate_and_skip_local() {
        use crate::followers::HolderRows;
        let w = small_world();
        let home = w.homes();
        let key = |a: u32| home[a as usize];
        let holders = HolderRows::by_followee(3, w.follow_edges(), key, |_| None);
        // user1 -> user0 is intra-instance: no federation edge.
        let fed = holders.federation_edges(&HolderRows::residents(2, &home));
        assert_eq!(fed, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn provider_grouping() {
        let w = small_world();
        let groups = w.instances_by_provider();
        assert_eq!(groups[0].len(), 2);
        assert!(groups[1..].iter().all(|g| g.is_empty()));
    }
}
