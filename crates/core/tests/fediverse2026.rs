//! Smoke coverage for the `fediverse2026` tier: every `*_tier` analysis
//! entry point runs with [`ScaleTier::Fediverse2026`] knobs against a
//! quick-scale (tiny) world.
//!
//! The tier tables only parameterise sweep *depths* and simulator knobs —
//! they must clamp gracefully when the observatory is smaller than the
//! tier's nominal population, because that is exactly how CI exercises
//! the 10M-account configuration without generating 10M accounts. A panic
//! or empty result here means a tier knob leaked an unclamped index.

use fediscope_core::availability::section4_tier;
use fediscope_core::content::{fig15_replication_tier, fig16_random_replication_tier};
use fediscope_core::delivery::section3_live_tier;
use fediscope_core::graphs::{
    fig12_random_baseline_tier, fig12_user_removal_tier, fig13_federation_removal_tier,
};
use fediscope_core::scenarios::section5_scenarios_tier;
use fediscope_core::Observatory;
use fediscope_model::scale::ScaleTier;
use fediscope_worldgen::{toots, Generator, WorldConfig};

const TIER: ScaleTier = ScaleTier::Fediverse2026;

fn observatory() -> Observatory {
    Observatory::new(Generator::generate_world(WorldConfig::tiny(2026)))
}

#[test]
fn tier_tables_are_sane() {
    // The 2026 projection is strictly the largest tier on every population
    // axis, and parses back from its CLI spellings.
    assert_eq!(TIER.n_users(), 10_000_000);
    assert!(TIER.n_instances() > ScaleTier::Modern.n_instances());
    assert!(TIER.n_providers() > ScaleTier::Modern.n_providers());
    assert_eq!(ScaleTier::parse("fediverse2026"), Some(TIER));
    assert_eq!(ScaleTier::parse("fediverse-2026"), Some(TIER));
    assert_eq!(ScaleTier::parse("2026"), Some(TIER));
    assert_eq!(ScaleTier::ALL.last(), Some(&TIER));
}

#[test]
fn section4_entry_points_run() {
    let obs = observatory();
    let s4 = section4_tier(&obs, TIER);
    assert!(!s4.fig07.downtime_cdf.is_empty());
    assert!(!s4.fig08.bins.is_empty());
    assert!(s4.fig10.any_outage_frac > 0.0);
}

#[test]
fn graph_entry_points_run() {
    let obs = observatory();
    let fig12 = fig12_user_removal_tier(&obs, TIER);
    // 100 rounds of 1% exhaust a tiny graph early; the sweep still reports
    // an intact round 0 and a connected starting graph.
    assert!(!fig12.mastodon.is_empty());
    assert!(fig12.mastodon_initial_lcc > 0.9);

    let fig13 = fig13_federation_removal_tier(&obs, TIER);
    let n_inst = obs.world.instances.len();
    // Depth clamps to the world: the tier asks for 25K instance removals.
    assert_eq!(
        fig13.by_instance_users.len(),
        n_inst.min(TIER.fig13_max_instances()) + 1
    );
    assert!(!fig13.by_as_instances.is_empty());

    let base = fig12_random_baseline_tier(&obs, TIER, 7);
    assert_eq!(base.trials.len(), TIER.baseline_trials());
    assert!(!base.mean_lcc_frac.is_empty());
}

#[test]
fn content_entry_points_run() {
    let obs = observatory();
    let n_inst = obs.world.instances.len();
    let fig15 = fig15_replication_tier(&obs, TIER);
    assert_eq!(
        fig15.none_by_instance.len(),
        n_inst.min(TIER.fig15_max_instances()) + 1
    );
    assert_eq!(fig15.sub_by_instance.len(), fig15.none_by_instance.len());

    let fig16 = fig16_random_replication_tier(&obs, TIER);
    assert_eq!(fig16.none.len(), n_inst.min(TIER.fig16_max_instances()) + 1);
    assert!(!fig16.random.is_empty());
}

#[test]
fn delivery_entry_point_runs() {
    let cfg = WorldConfig::tiny(2026);
    let world = Generator::generate_world(cfg.clone());
    // The tier's one-day horizon and lifetime-spread rates on a tiny
    // population produce a small but non-empty event stream.
    let arena = toots::generate(
        &cfg,
        &world.users,
        TIER.fedsim_horizon_epochs(),
        TIER.fedsim_rate_scale(),
    );
    assert!(arena.n_toots() > 0);
    let obs = Observatory::new(world);
    let live = section3_live_tier(&obs, &arena, TIER, 11);
    assert!(live.clean.fanned_out > 0);
    assert!(live.clean.drained, "clean tier run must drain");
    assert!(live.degradation.amplification_ratio >= 1.0);
}

#[test]
fn scenario_entry_point_runs() {
    let obs = observatory();
    let s5 = section5_scenarios_tier(&obs, TIER, 13, None);
    assert!(!s5.grid.rows.is_empty());
    assert!(!s5.grid.cols.is_empty());
    assert_eq!(s5.grid.cells.len(), s5.grid.rows.len() * s5.grid.cols.len());
}
