//! The *measured* datasets — what a crawler observes, as opposed to the
//! ground truth in [`crate::world`].
//!
//! Mirrors §3 of the paper: an **Instances** dataset (5-minute metadata
//! polls), a **Toots** dataset (historical toots per instance), and a
//! **Graphs** dataset (follower and federation graphs).

use crate::ids::{InstanceId, UserId};
use crate::time::Epoch;
use serde::{Deserialize, Serialize};

/// What the instance API reports when a poll succeeds — the fields named in
/// §3 ("name, version, number of toots, users, federated subscriptions, and
/// user logins; whether registration is open").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceApiInfo {
    /// Instance domain name.
    pub name: String,
    /// Software version string.
    pub version: String,
    /// Total toots on the instance.
    pub toots: u64,
    /// Registered users.
    pub users: u32,
    /// Outbound federated subscription count.
    pub subscriptions: u32,
    /// User logins in the current week.
    pub logins: u32,
    /// Whether registration is open.
    pub registration_open: bool,
}

/// Result of one poll of one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PollResult {
    /// Instance responded.
    Up(InstanceApiInfo),
    /// The instance (or its hosting) answered negatively: 503, blocked, …
    /// — the monitor observed it to be down.
    Down,
    /// The poll itself failed (connection reset, persistent rate limiting,
    /// corrupt payload): the monitor learned *nothing* about the instance.
    /// Reconstruction skips these; coverage reporting counts them.
    Unknown,
}

impl PollResult {
    /// True when the instance answered.
    pub fn is_up(&self) -> bool {
        matches!(self, PollResult::Up(_))
    }

    /// Did this poll observe the instance at all? (`Up` and `Down` did;
    /// `Unknown` is a gap in the measurement.)
    pub fn is_known(&self) -> bool {
        !matches!(self, PollResult::Unknown)
    }
}

/// The monitoring time series for one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ObservedSeries {
    /// Instance identity (known from the seed list).
    pub instance: InstanceId,
    /// Epochs at which polls were made, with results, in ascending order.
    pub polls: Vec<(Epoch, PollResult)>,
}

impl ObservedSeries {
    /// Fraction of *known* polls that observed the instance down (`None`
    /// when nothing was ever observed). `Unknown` polls are measurement
    /// gaps, not observations, so they join neither numerator nor
    /// denominator.
    pub fn downtime_fraction(&self) -> Option<f64> {
        let known = self.known_polls();
        if known == 0 {
            return None;
        }
        let down = self
            .polls
            .iter()
            .filter(|(_, r)| r.is_known() && !r.is_up())
            .count();
        Some(down as f64 / known as f64)
    }

    /// Number of polls that actually observed the instance.
    pub fn known_polls(&self) -> usize {
        self.polls.iter().filter(|(_, r)| r.is_known()).count()
    }

    /// Number of polls lost to measurement failure.
    pub fn unknown_polls(&self) -> usize {
        self.polls.len() - self.known_polls()
    }

    /// Latest successful poll payload, if any.
    pub fn last_up(&self) -> Option<&InstanceApiInfo> {
        self.polls.iter().rev().find_map(|(_, r)| match r {
            PollResult::Up(info) => Some(info),
            _ => None,
        })
    }
}

/// The Instances dataset: one observed series per instance in the seed list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct InstancesDataset {
    /// One series per instance.
    pub series: Vec<ObservedSeries>,
}

/// Per-instance outcome of the toot crawl.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TootCrawlRecord {
    /// Which instance.
    pub instance: InstanceId,
    /// Whether the instance was reachable and allowed crawling.
    pub crawled: bool,
    /// Toots collected from the *federated* timeline that were authored
    /// locally.
    pub home_toots: u64,
    /// Toots collected that were authored on other instances (replicas).
    pub remote_toots: u64,
    /// Distinct local users seen tooting.
    pub tooting_users: u32,
    /// Per-user toot counts observed `(user, count)`.
    pub user_toots: Vec<(UserId, u32)>,
}

/// The Toots dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TootsDataset {
    /// One record per attempted instance.
    pub records: Vec<TootCrawlRecord>,
}

impl TootsDataset {
    /// Total toots collected (home timeline view, i.e. deduplicated by
    /// authorship).
    pub fn total_home_toots(&self) -> u64 {
        self.records.iter().map(|r| r.home_toots).sum()
    }

    /// Number of instances successfully crawled.
    pub fn crawled_instances(&self) -> usize {
        self.records.iter().filter(|r| r.crawled).count()
    }

    /// Coverage against a known global toot total (the paper reports 62%).
    pub fn coverage(&self, global_toots: u64) -> f64 {
        if global_toots == 0 {
            return 0.0;
        }
        self.total_home_toots() as f64 / global_toots as f64
    }
}

/// The Graphs dataset: follower edges scraped from profile pages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GraphDataset {
    /// `(a, b)`: account `a` follows account `b`.
    pub follows: Vec<(UserId, UserId)>,
    /// All accounts seen (nodes of the induced graph).
    pub accounts: Vec<UserId>,
}

impl GraphDataset {
    /// Deduplicate and sort edges/nodes in place.
    pub fn normalise(&mut self) {
        self.follows.sort_unstable();
        self.follows.dedup();
        self.accounts.sort_unstable();
        self.accounts.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(users: u32) -> InstanceApiInfo {
        InstanceApiInfo {
            name: "x.example".into(),
            version: "2.4.0".into(),
            toots: 10,
            users,
            subscriptions: 3,
            logins: 5,
            registration_open: true,
        }
    }

    #[test]
    fn observed_series_downtime() {
        let s = ObservedSeries {
            instance: InstanceId(0),
            polls: vec![
                (Epoch(0), PollResult::Up(info(1))),
                (Epoch(1), PollResult::Down),
                (Epoch(2), PollResult::Down),
                (Epoch(3), PollResult::Up(info(2))),
            ],
        };
        assert_eq!(s.downtime_fraction(), Some(0.5));
        assert_eq!(s.last_up().unwrap().users, 2);
    }

    #[test]
    fn unknown_polls_are_gaps_not_observations() {
        let s = ObservedSeries {
            instance: InstanceId(0),
            polls: vec![
                (Epoch(0), PollResult::Up(info(1))),
                (Epoch(1), PollResult::Unknown),
                (Epoch(2), PollResult::Down),
                (Epoch(3), PollResult::Unknown),
            ],
        };
        assert_eq!(s.known_polls(), 2);
        assert_eq!(s.unknown_polls(), 2);
        // downtime over known polls only: 1 down of 2 known
        assert_eq!(s.downtime_fraction(), Some(0.5));
        assert!(!PollResult::Unknown.is_up());
        assert!(!PollResult::Unknown.is_known());
        // a series of only unknowns observed nothing
        let blind = ObservedSeries {
            instance: InstanceId(1),
            polls: vec![(Epoch(0), PollResult::Unknown)],
        };
        assert_eq!(blind.downtime_fraction(), None);
        assert!(blind.last_up().is_none());
    }

    #[test]
    fn empty_series() {
        let s = ObservedSeries::default();
        assert_eq!(s.downtime_fraction(), None);
        assert!(s.last_up().is_none());
    }

    #[test]
    fn toots_dataset_aggregates() {
        let d = TootsDataset {
            records: vec![
                TootCrawlRecord {
                    instance: InstanceId(0),
                    crawled: true,
                    home_toots: 60,
                    remote_toots: 40,
                    tooting_users: 2,
                    user_toots: vec![],
                },
                TootCrawlRecord {
                    instance: InstanceId(1),
                    crawled: false,
                    home_toots: 0,
                    remote_toots: 0,
                    tooting_users: 0,
                    user_toots: vec![],
                },
            ],
        };
        assert_eq!(d.total_home_toots(), 60);
        assert_eq!(d.crawled_instances(), 1);
        assert!((d.coverage(100) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_zero_total() {
        let d = TootsDataset::default();
        assert_eq!(d.coverage(0), 0.0);
    }

    #[test]
    fn graph_dataset_normalises() {
        let mut g = GraphDataset {
            follows: vec![
                (UserId(2), UserId(1)),
                (UserId(0), UserId(1)),
                (UserId(2), UserId(1)),
            ],
            accounts: vec![UserId(2), UserId(0), UserId(1), UserId(1)],
        };
        g.normalise();
        assert_eq!(
            g.follows,
            vec![(UserId(0), UserId(1)), (UserId(2), UserId(1))]
        );
        assert_eq!(g.accounts, vec![UserId(0), UserId(1), UserId(2)]);
    }
}
