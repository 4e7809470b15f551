//! `fedsim` — the deterministic federation delivery simulator.
//!
//! Reproduces the paper's §3 load-concentration finding *dynamically*:
//! the tier's users' toot streams are pushed through ActivityPub-style
//! fan-out (toot → home instance → each follower's instance, deduplicated
//! per instance pair) into bounded per-instance inboxes with service
//! rates, sender-visible backpressure, sidekiq-style redelivery with
//! capped exponential backoff, and a federation-level circuit breaker
//! (suspension + probes + catch-up bursts). The §4 outage schedules and
//! §5 removal orders overlay onto the live system via
//! [`overlay`], answering the robustness question the static analyses
//! can't: does a top-5-AS outage merely *delay* the federation, or melt
//! it?
//!
//! Module map — see `crates/simnet/README.md` for the state machines:
//! - [`events`]: messages, attempts, verdicts, the transcript digest,
//! - [`fanout`]: the precompiled author → follower-instances CSR,
//! - [`queues`]: bounded destination inboxes + service,
//! - [`redelivery`]: the deterministic retry calendar (buckets by due
//!   tick) + backoff schedule,
//! - [`suspension`]: the circuit breaker and parked mail,
//! - [`metrics`]: per-tick series and the conservation-checked report,
//! - [`overlay`]: §4/§5 schedules rebased onto the simulation clock,
//! - [`engine`]: the tick-synchronous BSP loop over active instances,
//! - [`snapshot`]: checkpoint/resume state (see `crates/recover`) with
//!   the crash-then-resume ≡ uninterrupted bit-identity guarantee.
//!
//! **Determinism contract**: same seed, same world, same config ⇒
//! bit-identical per-tick series, report, and `event_hash` at any shard
//! or thread count. Enforced by `tests/fedsim.rs` proptests and the
//! `bench fedsim` `identical` gate.

pub mod engine;
pub mod events;
pub mod fanout;
pub mod metrics;
pub mod overlay;
pub mod queues;
pub mod redelivery;
pub mod snapshot;
pub mod suspension;

pub use engine::FedSim;
pub use events::{Attempt, EventDigest, Msg, Outcome, Verdict, PROBE_SEQ};
pub use fanout::FanoutArena;
pub use metrics::{DeliveryReport, SimRun, TickStat};
pub use queues::DestState;
pub use redelivery::{backoff_delay, RetryQueue};
pub use snapshot::{resume_or_restart, FedSimState, RecoveryInfo};
pub use suspension::{SourceState, Suspension};

use fediscope_model::ScaleTier;
pub use fediscope_replication::scenario::ScenarioSpec;
use serde::{Deserialize, Serialize};

/// Which outage overlay drives a run (serialized into bench records; the
/// tuple variants exercise the vendored serde derive's tuple support).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlaySpec {
    /// No failures: the clean load-concentration run.
    Baseline,
    /// `(n_ases, start_tick, end_tick)`: the §4 Table-1 scenario — the
    /// top-`n` user-hosting ASes go dark for the window.
    TopAsOutage(u32, u32, u32),
    /// `(n_instances, start_tick)`: the §5 removal order — the top-`n`
    /// toot-hosting instances die permanently at `start_tick`.
    TopInstanceRemoval(u32, u32),
    /// `(spec, start_tick, step_ticks)`: a compiled correlated-failure
    /// scenario from the batch sweep's vocabulary — step `k` of the
    /// scenario's removal plan goes (permanently) dark at
    /// `start_tick + k * step_ticks`, with intervals tagged by the
    /// scenario's [`OutageCause`](fediscope_model::schedule::OutageCause).
    Scenario(ScenarioSpec, u32, u32),
}

/// Simulator knobs. Everything that shapes behaviour is here and
/// serializable, so a bench record fully identifies its run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedSimConfig {
    /// Master seed (drives retry jitter; world/toot RNG is upstream).
    pub seed: u64,
    /// State shards per phase (1 = serial). Output is identical at any
    /// value.
    pub shards: u32,
    /// Ticks past the toot horizon the simulator may keep draining.
    pub drain_epochs: u32,
    /// Inbox service rate per 1000 local users, per tick.
    pub service_per_kuser: u32,
    /// Service-rate floor for tiny instances.
    pub min_service: u32,
    /// Inbox capacity = service rate × this many ticks of backlog.
    pub backlog_ticks: u32,
    /// Delivery attempts per message before it is dropped.
    pub max_attempts: u32,
    /// First retry delay in ticks.
    pub backoff_base: u32,
    /// Retry-delay cap in ticks.
    pub backoff_cap: u32,
    /// Max deterministic jitter added to each retry delay.
    pub jitter: u32,
    /// Consecutive failures to one destination before suspension.
    pub suspend_after: u32,
    /// Ticks between reachability probes of a suspended destination.
    pub probe_interval: u32,
    /// The outage overlay.
    pub overlay: OverlaySpec,
}

impl FedSimConfig {
    /// Defaults calibrated for the repo's tiers: service rates that keep a
    /// healthy federation prompt, with enough headroom pressure that
    /// outage overlays visibly queue and retry.
    pub fn new(seed: u64) -> Self {
        FedSimConfig {
            seed,
            shards: 1,
            drain_epochs: 2 * fediscope_model::EPOCHS_PER_DAY,
            service_per_kuser: 100,
            min_service: 6,
            backlog_ticks: 8,
            max_attempts: 8,
            backoff_base: 1,
            backoff_cap: 64,
            jitter: 2,
            suspend_after: 4,
            probe_interval: 8,
            overlay: OverlaySpec::Baseline,
        }
    }

    /// Tier-shaped config (drain budget from the tier's knobs).
    pub fn for_tier(tier: ScaleTier, seed: u64) -> Self {
        let mut cfg = Self::new(seed);
        cfg.drain_epochs = tier.fedsim_drain_epochs();
        cfg
    }

    /// Overlay this config with the tier's headline degradation scenario:
    /// the top-`fedsim_outage_ases` ASes down for the tier's window.
    pub fn with_top_as_outage(mut self, tier: ScaleTier) -> Self {
        let (start, end) = tier.fedsim_outage_window();
        self.overlay = OverlaySpec::TopAsOutage(tier.fedsim_outage_ases() as u32, start, end);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_spec_round_trips_tuple_variants() {
        for spec in [
            OverlaySpec::Baseline,
            OverlaySpec::TopAsOutage(5, 72, 144),
            OverlaySpec::TopInstanceRemoval(10, 100),
            OverlaySpec::Scenario(ScenarioSpec::AsSharedFate(10), 72, 12),
            OverlaySpec::Scenario(ScenarioSpec::CertCascade(8), 0, 36),
            OverlaySpec::Scenario(ScenarioSpec::ChurnRebirth(16), 144, 6),
        ] {
            let v = serde::Serialize::to_json_value(&spec);
            let back: OverlaySpec = serde::Deserialize::from_json_value(&v).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn config_round_trips_and_tier_shapes_it() {
        let cfg = FedSimConfig::for_tier(ScaleTier::Mid, 9).with_top_as_outage(ScaleTier::Mid);
        let v = serde::Serialize::to_json_value(&cfg);
        let back: FedSimConfig = serde::Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.overlay, OverlaySpec::TopAsOutage(5, 72, 144));
    }
}
