//! §5 extension: the correlated-failure scenario grid.
//!
//! The paper's §5.2 sweeps (Figs. 15/16) remove instances one at a time;
//! this analysis runs the repo's correlated-failure engine
//! (`fediscope_replication::scenario`) over an observatory world: every
//! [`ScenarioSpec`] (AS/hoster shared fate, cert-lapse cascades, region
//! waves, churn with rebirth) × every [`ScenarioStrategy`] (the paper's
//! No-Rep/S-Rep/Random plus k-of-n erasure, popularity-weighted, and
//! follower-locality placement), evaluated in one sharded pass and
//! reported as the replication strategy frontier: availability vs
//! storage cost per scenario.

use crate::observatory::Observatory;
use fediscope_model::scale::ScaleTier;
use fediscope_model::time::Day;
use fediscope_replication::scenario::{
    compile, evaluate_grid, FrontierCell, Grid, ScenarioSpec, ScenarioStrategy, ScenarioWorld,
};

/// The scenario-grid analysis output.
#[derive(Debug, Clone)]
pub struct Section5Scenarios {
    /// Placement seed the randomized strategies drew from.
    pub seed: u64,
    /// The frontier: rows = scenarios, columns = strategies.
    pub grid: Grid<FrontierCell>,
}

/// The default scenario set at a tier: both shared-fate axes at the
/// tier's depth, a four-country region wave, and the tier's cascade and
/// churn resolutions.
pub fn tier_specs(tier: ScaleTier) -> Vec<ScenarioSpec> {
    let fate = tier.scenario_shared_fate_groups() as u32;
    vec![
        ScenarioSpec::AsSharedFate(fate),
        ScenarioSpec::HosterSharedFate(fate),
        ScenarioSpec::RegionWave(4),
        ScenarioSpec::CertCascade(tier.scenario_cascade_buckets() as u32),
        ScenarioSpec::ChurnRebirth(tier.scenario_churn_steps() as u32),
    ]
}

/// The default strategy frontier: the paper's three schemes plus the
/// three extended placements.
pub fn frontier_strategies() -> Vec<ScenarioStrategy> {
    vec![
        ScenarioStrategy::NoRep,
        ScenarioStrategy::SRep,
        ScenarioStrategy::Random(2),
        ScenarioStrategy::KOfN(2, 4),
        ScenarioStrategy::PopWeighted(1, 4),
        ScenarioStrategy::FollowerLocal(3),
    ]
}

/// Evaluate an explicit scenario × strategy grid over the observatory's
/// world. `rebirth` is an optional per-instance rebirth stream (e.g.
/// `fediscope_worldgen::streams::rebirth_days`); without one, churn
/// scenarios treat every retirement as permanent.
pub fn section5_scenarios(
    obs: &Observatory,
    specs: &[ScenarioSpec],
    strategies: &[ScenarioStrategy],
    seed: u64,
    rebirth: Option<Vec<Option<Day>>>,
) -> Section5Scenarios {
    let mut sw = ScenarioWorld::from_world(&obs.world);
    if let Some(rebirth) = rebirth {
        sw = sw.with_rebirth(rebirth);
    }
    let compiled: Vec<_> = specs.iter().map(|s| compile(s, &sw)).collect();
    let grid = evaluate_grid(obs.content_view(), &sw, &compiled, strategies, seed);
    Section5Scenarios { seed, grid }
}

/// [`section5_scenarios`] with the tier's default specs and the default
/// strategy frontier.
pub fn section5_scenarios_tier(
    obs: &Observatory,
    tier: ScaleTier,
    seed: u64,
    rebirth: Option<Vec<Option<Day>>>,
) -> Section5Scenarios {
    section5_scenarios(
        obs,
        &tier_specs(tier),
        &frontier_strategies(),
        seed,
        rebirth,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{streams, Generator, WorldConfig};

    fn tiny_obs(seed: u64) -> Observatory {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 30;
        cfg.n_users = 400;
        Observatory::new(Generator::generate_world(cfg))
    }

    #[test]
    fn tier_defaults_shape_the_grid() {
        let obs = tiny_obs(3);
        let s = section5_scenarios_tier(&obs, ScaleTier::Paper2019, 7, None);
        assert_eq!(s.grid.rows.len(), 5);
        assert_eq!(s.grid.cols.len(), 6);
        assert_eq!(s.grid.cells.len(), 30);
        for cell in &s.grid.cells {
            assert!((0.0..=1.0).contains(&cell.availability));
            assert!(cell.storage_cost >= 1.0 || cell.storage_cost > 0.0);
            assert_eq!(cell.curve[0], 1.0);
        }
        // no-rep stores exactly one copy per toot
        for r in 0..s.grid.rows.len() {
            assert_eq!(s.grid.get(r, 0).storage_cost, 1.0);
        }
    }

    #[test]
    fn rebirth_stream_softens_churn() {
        let obs = tiny_obs(5);
        let churn = [ScenarioSpec::ChurnRebirth(6)];
        let strategies = [ScenarioStrategy::NoRep];
        let gone = section5_scenarios(&obs, &churn, &strategies, 11, None);
        let rebirth = streams::rebirth_days(&obs.world.schedules, 11, 1.0);
        let reborn = section5_scenarios(&obs, &churn, &strategies, 11, Some(rebirth));
        // reviving every eligible instance can only help availability
        assert!(
            reborn.grid.get(0, 0).availability >= gone.grid.get(0, 0).availability,
            "rebirth spares content"
        );
    }
}
