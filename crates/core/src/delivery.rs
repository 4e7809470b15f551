//! §3's load concentration, brought alive: the federation delivery
//! simulator run over an observatory's world.
//!
//! The static §3 analyses rank instances by stock (users, toots hosted);
//! this module measures *flow* — where delivery traffic actually lands
//! when the tier's toot streams are pushed through ActivityPub fan-out —
//! and then overlays the §4 headline failure (the top user-hosting ASes
//! going dark) on the live system to answer the robustness question:
//! does the federation melt, or merely delay and heal?
//!
//! Entry points mirror the §4/§5 convention: [`section3_live`] takes
//! explicit configs, [`section3_live_tier`] applies the tier's knobs
//! ([`FedSimConfig::for_tier`] clean + [`FedSimConfig::with_top_as_outage`]
//! for the degradation run). Rendering lives in
//! [`crate::report::render_section3_live`].

use crate::observatory::Observatory;
use fediscope_model::scale::ScaleTier;
use fediscope_model::TootArena;
use fediscope_simnet::fedsim::{overlay, FanoutArena, FedSim, FedSimConfig, SimRun};
use fediscope_simnet::DeliveryReport;

/// How concentrated delivered load is across instances (the dynamic
/// analogue of the paper's "top instances hold most of the content").
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConcentration {
    /// Total messages delivered across all instances.
    pub delivered_total: u64,
    /// Share of delivered load landing on the top 1% of instances
    /// (by delivered load, at least one instance).
    pub top1pct_share: f64,
    /// Share landing on the top 10%.
    pub top10pct_share: f64,
    /// The five busiest instances: `(instance id, delivered)`.
    pub top5: Vec<(u32, u64)>,
}

/// Compute concentration from per-instance delivered counts.
pub fn load_concentration(delivered: &[u64]) -> LoadConcentration {
    let total: u64 = delivered.iter().sum();
    let mut ranked: Vec<(u32, u64)> = delivered
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as u32, d))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let share = |top_n: usize| -> f64 {
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = ranked.iter().take(top_n).map(|&(_, d)| d).sum();
        sum as f64 / total as f64
    };
    let n = delivered.len();
    LoadConcentration {
        delivered_total: total,
        top1pct_share: share((n / 100).max(1)),
        top10pct_share: share((n / 10).max(1)),
        top5: ranked.into_iter().take(5).collect(),
    }
}

/// Clean run vs outage run, side by side: how much the failure hurt and
/// whether the federation healed.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Attempts refused because the destination was dark.
    pub rejected_down: u64,
    /// Redelivery attempts the outage forced (clean baseline subtracted).
    pub extra_redeliveries: u64,
    /// Deliveries pushed from prompt to delayed by the outage.
    pub extra_delayed: u64,
    /// Amplification under outage ÷ amplification clean.
    pub amplification_ratio: f64,
    /// Deepest total backlog the outage run ever carried.
    pub peak_backlog: u64,
    /// Suspensions entered / lifted again by probes.
    pub suspensions: u64,
    /// Suspensions recovered by a successful probe.
    pub recovered_suspensions: u64,
    /// Ticks past the horizon the outage run needed to empty every queue
    /// (-1: the drain budget expired first).
    pub time_to_drain: i64,
    /// The outage run emptied every queue within the drain budget.
    pub healed: bool,
}

/// The §3 live-system result: both runs, where the load concentrates,
/// and how gracefully the overlay degraded it.
#[derive(Debug, Clone, PartialEq)]
pub struct Section3Live {
    /// The clean (baseline-overlay) run's report.
    pub clean: DeliveryReport,
    /// The degraded (outage-overlay) run's report.
    pub outage: DeliveryReport,
    /// Load concentration measured on the clean run.
    pub load: LoadConcentration,
    /// Load concentration measured under the outage.
    pub outage_load: LoadConcentration,
    /// Clean-vs-outage degradation summary.
    pub degradation: DegradationSummary,
}

/// Run one simulation over the observatory's world under `cfg`'s overlay,
/// on a fan-out arena built once for both of [`section3_live`]'s runs.
fn run_with_fanout(
    obs: &Observatory,
    fanout: &FanoutArena,
    toots: &TootArena,
    cfg: FedSimConfig,
) -> SimRun {
    let total_ticks = toots.horizon() + cfg.drain_epochs;
    let arena = overlay::build(&cfg.overlay, &obs.world.instances, total_ticks);
    FedSim::new(cfg, fanout, toots, &obs.users_per_instance, arena).run()
}

/// Run the live §3 analysis: `clean_cfg` (expected overlay: baseline)
/// against `outage_cfg`, sharing one fan-out build.
pub fn section3_live(
    obs: &Observatory,
    toots: &TootArena,
    clean_cfg: FedSimConfig,
    outage_cfg: FedSimConfig,
) -> Section3Live {
    let fanout = FanoutArena::from_world(&obs.world);
    let clean = run_with_fanout(obs, &fanout, toots, clean_cfg);
    let outage = run_with_fanout(obs, &fanout, toots, outage_cfg);
    let load = load_concentration(&clean.delivered_per_instance);
    let outage_load = load_concentration(&outage.delivered_per_instance);
    let degradation = DegradationSummary {
        rejected_down: outage.report.rejected_down,
        extra_redeliveries: outage
            .report
            .redelivery_attempts
            .saturating_sub(clean.report.redelivery_attempts),
        extra_delayed: outage
            .report
            .delivered_delayed
            .saturating_sub(clean.report.delivered_delayed),
        amplification_ratio: if clean.report.amplification > 0.0 {
            outage.report.amplification / clean.report.amplification
        } else {
            0.0
        },
        peak_backlog: outage.series.iter().map(|s| s.backlog).max().unwrap_or(0),
        suspensions: outage.report.suspensions,
        recovered_suspensions: outage.report.recovered_suspensions,
        time_to_drain: outage.report.time_to_drain,
        healed: outage.report.drained,
    };
    Section3Live {
        clean: clean.report,
        outage: outage.report,
        load,
        outage_load,
        degradation,
    }
}

/// [`section3_live`] with the tier's knobs: a clean
/// [`FedSimConfig::for_tier`] run against the tier's headline scenario
/// ([`FedSimConfig::with_top_as_outage`] — the top
/// `fedsim_outage_ases` user-hosting ASes dark for the tier's window).
pub fn section3_live_tier(
    obs: &Observatory,
    toots: &TootArena,
    tier: ScaleTier,
    seed: u64,
) -> Section3Live {
    let clean_cfg = FedSimConfig::for_tier(tier, seed);
    let outage_cfg = clean_cfg.clone().with_top_as_outage(tier);
    section3_live(obs, toots, clean_cfg, outage_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_simnet::fedsim::OverlaySpec;
    use fediscope_worldgen::{toots, Generator, WorldConfig};

    const HORIZON: u32 = 48;

    fn fixture() -> (Observatory, TootArena) {
        let cfg = WorldConfig::tiny(61);
        let world = Generator::generate_world(cfg.clone());
        let arena = toots::generate(&cfg, &world.users, HORIZON, 8.0);
        (Observatory::new(world), arena)
    }

    fn configs(seed: u64) -> (FedSimConfig, FedSimConfig) {
        let mut clean = FedSimConfig::new(seed);
        clean.drain_epochs = 96;
        clean.suspend_after = 3;
        clean.probe_interval = 5;
        let mut outage = clean.clone();
        outage.overlay = OverlaySpec::TopAsOutage(3, 8, 28);
        (clean, outage)
    }

    #[test]
    fn load_concentration_math() {
        let delivered = vec![0, 50, 10, 30, 5, 5];
        let lc = load_concentration(&delivered);
        assert_eq!(lc.delivered_total, 100);
        // n=6 → top 1% and top 10% both round up to 1 instance
        assert_eq!(lc.top1pct_share, 0.5);
        assert_eq!(lc.top10pct_share, 0.5);
        assert_eq!(lc.top5[0], (1, 50));
        assert_eq!(lc.top5[1], (3, 30));
        assert_eq!(lc.top5.len(), 5);
        // empty load degrades to zero shares
        let zero = load_concentration(&[0, 0]);
        assert_eq!(zero.delivered_total, 0);
        assert_eq!(zero.top1pct_share, 0.0);
    }

    #[test]
    fn live_run_degrades_then_heals() {
        let (obs, arena) = fixture();
        let (clean_cfg, outage_cfg) = configs(11);
        let s3 = section3_live(&obs, &arena, clean_cfg, outage_cfg);
        assert!(s3.clean.conserved() && s3.outage.conserved());
        assert!(s3.clean.fanned_out > 0, "fixture must generate traffic");
        assert_eq!(s3.clean.rejected_down, 0);
        assert!(s3.degradation.rejected_down > 0, "outage must refuse mail");
        assert!(s3.degradation.amplification_ratio > 1.0);
        assert!(s3.degradation.healed, "bounded outage must drain");
        // authors on dark instances post nothing, so the outage run fans
        // out no more than the clean one — and loses nothing silently
        assert!(s3.outage.fanned_out <= s3.clean.fanned_out);
        // load concentrates: the top decile carries more than its share
        assert_eq!(s3.load.delivered_total, s3.clean.delivered());
        assert!(s3.load.top10pct_share > 0.1);
        assert!(s3.load.top1pct_share <= s3.load.top10pct_share);
        assert!(!s3.load.top5.is_empty());
    }

    #[test]
    fn tier_entry_point_is_deterministic() {
        let (obs, arena) = fixture();
        let tier = ScaleTier::Paper2019;
        let a = section3_live_tier(&obs, &arena, tier, 7);
        let b = section3_live_tier(&obs, &arena, tier, 7);
        assert_eq!(a, b);
        assert_eq!(
            a.outage.overlay,
            OverlaySpec::TopAsOutage(
                tier.fedsim_outage_ases() as u32,
                tier.fedsim_outage_window().0,
                tier.fedsim_outage_window().1
            )
        );
    }
}
