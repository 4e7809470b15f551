//! The instance monitor: the mnm.social replica.
//!
//! "Every five minutes, mnm.social connected to each instance's
//! `/api/v1/instance` API endpoint" (§3). [`InstanceMonitor::poll_all`]
//! performs one such sweep; the caller advances the virtual clock between
//! sweeps (or wires a ticker). Results accumulate into an
//! [`InstancesDataset`].

use crate::discovery::{Seed, SeedList};
use crate::politeness::Politeness;
use crate::retry::{fetch_with_retry, BreakerBank, FetchResult};
use fediscope_httpwire::Client;
use fediscope_model::datasets::{InstanceApiInfo, InstancesDataset, ObservedSeries, PollResult};
use fediscope_model::time::Epoch;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tokio::sync::Semaphore;

/// Resumable monitor state: everything [`InstanceMonitor`] mutates across
/// sweeps. Config (seed list, politeness, client) is *not* stored — resume
/// reconstructs it, so a snapshot can never disagree with its config. The
/// breaker rows matter for bit-identical resume: an open breaker's
/// remaining cooldown shapes which polls fast-fail after the crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorState {
    /// Polls accumulated so far, one series per seed.
    pub dataset: InstancesDataset,
    /// Circuit-breaker rows ([`BreakerBank::export_state`]).
    pub breakers: Vec<(u32, u32, u32)>,
}

/// Accumulating monitor.
pub struct InstanceMonitor {
    seeds: SeedList,
    politeness: Politeness,
    client: Client,
    dataset: InstancesDataset,
    breakers: Arc<BreakerBank>,
}

impl InstanceMonitor {
    /// New monitor over a seed list.
    pub fn new(seeds: SeedList, politeness: Politeness) -> Self {
        let dataset = InstancesDataset {
            series: seeds
                .entries()
                .iter()
                .map(|s| ObservedSeries {
                    instance: s.instance,
                    polls: Vec::new(),
                })
                .collect(),
        };
        Self {
            seeds,
            politeness,
            client: Client::default(),
            dataset,
            breakers: Arc::new(BreakerBank::new()),
        }
    }

    /// Snapshot the monitor's mutable state for a checkpoint.
    pub fn capture(&self) -> MonitorState {
        MonitorState {
            dataset: self.dataset.clone(),
            breakers: self.breakers.export_state(),
        }
    }

    /// Rebuild a monitor from a checkpoint on a fresh executor. The
    /// accumulated polls and breaker cooldowns continue exactly where the
    /// crashed process stopped; `seeds` and `politeness` come from config,
    /// exactly as in [`InstanceMonitor::new`]. A state whose series do not
    /// follow `seeds` instance for instance is an error.
    pub fn resume(
        seeds: SeedList,
        politeness: Politeness,
        state: &MonitorState,
    ) -> Result<Self, String> {
        let same_list = state.dataset.series.len() == seeds.len()
            && (state.dataset.series.iter())
                .zip(seeds.entries())
                .all(|(series, seed)| series.instance == seed.instance);
        if !same_list {
            return Err("snapshot was taken over a different seed list".into());
        }
        Ok(Self {
            seeds,
            politeness,
            client: Client::default(),
            dataset: state.dataset.clone(),
            breakers: Arc::new(BreakerBank::restore_state(&state.breakers)),
        })
    }

    /// Poll every seed once, recording results under `epoch`.
    pub async fn poll_all(&mut self, epoch: Epoch) {
        let sem = Arc::new(Semaphore::new(self.politeness.concurrency));
        let mut joins = Vec::with_capacity(self.seeds.len());
        for (idx, seed) in self.seeds.entries().iter().cloned().enumerate() {
            let sem = sem.clone();
            let client = self.client.clone();
            let politeness = self.politeness.clone();
            let breakers = self.breakers.clone();
            joins.push(tokio::spawn(async move {
                let _permit = sem.acquire_owned().await.expect("semaphore open");
                let result = poll_instance(&client, &politeness, Some(&breakers), &seed).await;
                (idx, result)
            }));
        }
        for j in joins {
            let (idx, result) = j.await.expect("poll task panicked");
            self.dataset.series[idx].polls.push((epoch, result));
        }
    }

    /// Finish monitoring and take the dataset.
    pub fn into_dataset(self) -> InstancesDataset {
        self.dataset
    }

    /// Peek at the dataset so far.
    pub fn dataset(&self) -> &InstancesDataset {
        &self.dataset
    }
}

/// One poll through the shared retry engine ([`crate::retry`]).
///
/// Outcome mapping — the load-bearing distinction is *observation* versus
/// *measurement gap*:
/// - 2xx with a valid payload → [`PollResult::Up`];
/// - a well-formed negative answer (503, 403, 404, any other 4xx) →
///   [`PollResult::Down`] — something answered for the instance and said
///   no, which is exactly the mnm.social vantage point;
/// - everything where the *measurement itself* failed (connection
///   reset/refused/timeout after retries, persistent 429/5xx from the
///   fault layer, corrupt payload) → [`PollResult::Unknown`] — the poll
///   says nothing about the instance, and reconstruction must not read an
///   outage into it.
pub async fn poll_instance(
    client: &Client,
    politeness: &Politeness,
    breakers: Option<&BreakerBank>,
    seed: &Seed,
) -> PollResult {
    let token = u64::from(seed.instance.0);
    match fetch_with_retry(
        client,
        politeness,
        breakers,
        seed,
        token,
        "/api/v1/instance",
    )
    .await
    {
        FetchResult::Ok(resp) => match parse_instance_info(&resp.text()) {
            Some(info) => PollResult::Up(info),
            None => PollResult::Unknown, // corrupt payload: learned nothing
        },
        FetchResult::Denied(status) if status.0 == 429 || (500..600).contains(&status.0) => {
            if status.0 == 503 {
                // a 503 is the instance's hosting answering "down"
                PollResult::Down
            } else {
                // persistent injected faults (429/500/502): no observation
                PollResult::Unknown
            }
        }
        FetchResult::Denied(_) => PollResult::Down,
        FetchResult::Unreachable => PollResult::Unknown,
    }
}

/// Parse the instance-API payload into the §3 field set.
///
/// A count that does not fit its `u32` field makes the payload unparsable
/// (the poll reads as unknown) rather than wrapping into the dataset.
pub fn parse_instance_info(body: &str) -> Option<InstanceApiInfo> {
    let v: serde_json::Value = serde_json::from_str(body).ok()?;
    let count = |n: u64| u32::try_from(n).ok();
    Some(InstanceApiInfo {
        name: v["uri"].as_str()?.to_string(),
        version: v["version"].as_str()?.to_string(),
        toots: v["stats"]["status_count"].as_u64()?,
        users: count(v["stats"]["user_count"].as_u64()?)?,
        subscriptions: count(v["stats"]["domain_count"].as_u64()?)?,
        logins: count(v["logins_week"].as_u64().unwrap_or(0))?,
        registration_open: v["registrations"].as_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_model::ids::InstanceId;

    #[test]
    fn resume_rejects_a_state_over_another_seed_list() {
        let addr = "127.0.0.1:1".parse().unwrap();
        let seed = |i: u32| Seed {
            instance: InstanceId(i),
            domain: format!("m{i}.test"),
            addr,
        };
        let seeds = SeedList::new(vec![seed(0), seed(1)]);
        let state = InstanceMonitor::new(seeds.clone(), Politeness::fast()).capture();
        let resume = |seeds: SeedList| InstanceMonitor::resume(seeds, Politeness::fast(), &state);
        assert!(resume(seeds.clone()).is_ok());
        // fewer seeds, and as many seeds over other instances
        assert!(resume(seeds.truncated(1)).is_err());
        assert!(resume(SeedList::new(vec![seed(0), seed(2)])).is_err());
    }

    #[test]
    fn parse_valid_payload() {
        let body = r#"{
            "uri": "m0001.fedi.test", "version": "2.4.0",
            "registrations": true,
            "stats": {"user_count": 12, "status_count": 340, "domain_count": 7},
            "logins_week": 5
        }"#;
        let info = parse_instance_info(body).unwrap();
        assert_eq!(info.name, "m0001.fedi.test");
        assert_eq!(info.users, 12);
        assert_eq!(info.toots, 340);
        assert_eq!(info.subscriptions, 7);
        assert_eq!(info.logins, 5);
        assert!(info.registration_open);
    }

    #[test]
    fn out_of_range_counts_are_rejected() {
        let body = |users: u64, domains: u64, logins: u64| {
            format!(
                r#"{{"uri": "m.test", "version": "2.4.0", "registrations": false,
                    "stats": {{"user_count": {users}, "status_count": 1, "domain_count": {domains}}},
                    "logins_week": {logins}}}"#
            )
        };
        let max = u64::from(u32::MAX);
        let info = parse_instance_info(&body(max, max, max)).unwrap();
        assert_eq!(
            (info.users, info.subscriptions, info.logins),
            (u32::MAX, u32::MAX, u32::MAX)
        );
        // 2^32 + 1 is what an `as u32` cast reads as 1
        let over = max + 2;
        assert!(parse_instance_info(&body(over, 1, 1)).is_none());
        assert!(parse_instance_info(&body(1, over, 1)).is_none());
        assert!(parse_instance_info(&body(1, 1, over)).is_none());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_instance_info("not json").is_none());
        assert!(parse_instance_info(r#"{"uri": 5}"#).is_none());
        assert!(parse_instance_info(r#"{"uri":"x","version":"v","stats":{}}"#).is_none());
    }

    #[test]
    fn deeply_nested_payload_is_rejected() {
        for open in ["[", r#"{"a":"#] {
            assert!(
                parse_instance_info(&open.repeat(100_000)).is_none(),
                "{open}"
            );
        }
    }
}
