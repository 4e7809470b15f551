//! Outage overlays: §4 schedules and §5 removal orders rebased onto the
//! simulation clock.
//!
//! An overlay is an [`OutageArena`] over simulation ticks (every instance
//! alive from tick 0, outages per [`super::OverlaySpec`]). Overlays are
//! built through [`OutageArena::from_unsorted`] — the counting-sort ingest
//! path — since interval order here falls out of AS grouping, not of
//! instance order.

use fediscope_model::schedule::{OutageArena, OutageCause};
use fediscope_model::time::Epoch;
use fediscope_model::Instance;
use fediscope_replication::scenario::{self, ScenarioWorld};

use super::OverlaySpec;

/// Compile `spec` into a sim-clock outage arena over `instances`
/// (`total_ticks` = toot horizon + drain budget).
pub fn build(spec: &OverlaySpec, instances: &[Instance], total_ticks: u32) -> OutageArena {
    let lifetimes: Vec<(Epoch, Epoch)> = vec![(Epoch(0), Epoch(total_ticks)); instances.len()];
    let intervals: Vec<(u32, Epoch, Epoch, OutageCause)> = match *spec {
        OverlaySpec::Baseline => Vec::new(),
        OverlaySpec::TopAsOutage(n_ases, start, end) => {
            assert!(
                start <= end && end <= total_ticks,
                "outage window out of range"
            );
            let targets = top_ases_by_users(instances, n_ases as usize);
            instances
                .iter()
                .enumerate()
                .filter(|(_, inst)| targets.contains(&inst.asn.0))
                .map(|(i, _)| (i as u32, Epoch(start), Epoch(end), OutageCause::AsFailure))
                .collect()
        }
        OverlaySpec::TopInstanceRemoval(n, start) => {
            assert!(start <= total_ticks, "removal tick out of range");
            top_instances_by_toots(instances, n as usize)
                .into_iter()
                .map(|i| (i, Epoch(start), Epoch(total_ticks), OutageCause::Organic))
                .collect()
        }
        OverlaySpec::Scenario(ref spec, start, step_ticks) => {
            assert!(start <= total_ticks, "scenario start out of range");
            // Compiled against the instance table alone: shared-fate,
            // region, and cert-cascade scenarios are fully determined by
            // it; churn scenarios need availability schedules and compile
            // to an empty plan here (use the batch sweep for those).
            let sw = ScenarioWorld::from_instances(instances);
            let compiled = scenario::compile(spec, &sw);
            let mut intervals = Vec::new();
            for (k, members) in compiled.groups.iter().enumerate() {
                let at = start.saturating_add((k as u32).saturating_mul(step_ticks));
                if at >= total_ticks {
                    break;
                }
                for &i in members {
                    intervals.push((i, Epoch(at), Epoch(total_ticks), compiled.cause));
                }
            }
            intervals
        }
    };
    OutageArena::from_unsorted(&lifetimes, intervals)
}

/// The `n` ASes hosting the most users (ties: lower AS id wins) — the
/// paper's Table 1 ranking.
pub fn top_ases_by_users(instances: &[Instance], n: usize) -> Vec<u32> {
    let mut users_by_as: Vec<(u32, u64)> = Vec::new();
    let max_as = instances.iter().map(|i| i.asn.0).max().unwrap_or(0);
    let mut acc = vec![0u64; max_as as usize + 1];
    for inst in instances {
        acc[inst.asn.0 as usize] += inst.user_count as u64;
    }
    for (asid, &users) in acc.iter().enumerate() {
        if users > 0 {
            users_by_as.push((asid as u32, users));
        }
    }
    users_by_as.sort_by_key(|&(asid, users)| (std::cmp::Reverse(users), asid));
    users_by_as.truncate(n);
    users_by_as.into_iter().map(|(asid, _)| asid).collect()
}

/// The `n` instances with the most toots (ties: lower id wins) — the §5
/// removal order.
pub fn top_instances_by_toots(instances: &[Instance], n: usize) -> Vec<u32> {
    let mut ranked: Vec<(u32, u64)> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| (i as u32, inst.toot_count))
        .collect();
    ranked.sort_by_key(|&(i, toots)| (std::cmp::Reverse(toots), i));
    ranked.truncate(n);
    ranked.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    #[test]
    fn top_as_outage_covers_the_right_instances() {
        let w = Generator::generate_world(WorldConfig::tiny(21));
        let arena = build(&OverlaySpec::TopAsOutage(2, 10, 20), &w.instances, 100);
        let targets = top_ases_by_users(&w.instances, 2);
        assert_eq!(targets.len(), 2);
        let mut hit = 0;
        for (i, inst) in w.instances.iter().enumerate() {
            let v = arena.view(i);
            if targets.contains(&inst.asn.0) {
                assert!(!v.is_up(Epoch(15)));
                assert!(v.is_up(Epoch(25)));
                hit += 1;
            } else {
                assert!(v.is_up(Epoch(15)));
            }
        }
        assert!(hit > 0, "top ASes host at least one instance");
    }

    #[test]
    fn removal_is_permanent() {
        let w = Generator::generate_world(WorldConfig::tiny(22));
        let arena = build(&OverlaySpec::TopInstanceRemoval(3, 50), &w.instances, 100);
        let removed = top_instances_by_toots(&w.instances, 3);
        for &i in &removed {
            let v = arena.view(i as usize);
            assert!(v.is_up(Epoch(49)));
            assert!(!v.is_up(Epoch(50)));
            assert!(!v.is_up(Epoch(99)));
        }
    }

    #[test]
    fn scenario_overlay_steps_groups_onto_the_sim_clock() {
        use fediscope_model::schedule::OutageCause;
        use fediscope_replication::scenario::{compile, ScenarioSpec};
        let w = Generator::generate_world(WorldConfig::tiny(24));
        let spec = ScenarioSpec::AsSharedFate(3);
        let arena = build(&OverlaySpec::Scenario(spec, 10, 5), &w.instances, 100);
        let compiled = compile(&spec, &ScenarioWorld::from_instances(&w.instances));
        let mut dark = 0;
        for (k, members) in compiled.groups.iter().enumerate() {
            let at = 10 + k as u32 * 5;
            for &i in members {
                let v = arena.view(i as usize);
                assert!(v.is_up(Epoch(at - 1)), "up until its step");
                assert!(!v.is_up(Epoch(at)), "dark from its step");
                assert!(!v.is_up(Epoch(99)), "removal is permanent");
                assert_eq!(v.outage(0).cause, OutageCause::SharedFate);
                dark += 1;
            }
        }
        assert!(dark > 0, "top ASes host instances");
        // cert cascades carry their own provenance tag
        let cascade = build(
            &OverlaySpec::Scenario(ScenarioSpec::CertCascade(4), 0, 1),
            &w.instances,
            100,
        );
        for v in cascade.views() {
            for k in 0..v.outage_count() {
                assert_eq!(v.outage(k).cause, OutageCause::CertLapseCascade);
            }
        }
    }

    #[test]
    fn scenario_steps_past_the_horizon_are_dropped() {
        let w = Generator::generate_world(WorldConfig::tiny(25));
        let spec = scenario::ScenarioSpec::AsSharedFate(8);
        // step 0 lands at tick 90, step 1 would land at 190 > 100
        let arena = build(&OverlaySpec::Scenario(spec, 90, 100), &w.instances, 100);
        let compiled = scenario::compile(&spec, &ScenarioWorld::from_instances(&w.instances));
        let expected: usize = compiled.groups.first().map_or(0, |g| g.len());
        assert_eq!(arena.n_outages(), expected);
    }

    #[test]
    fn baseline_is_all_up() {
        let w = Generator::generate_world(WorldConfig::tiny(23));
        let arena = build(&OverlaySpec::Baseline, &w.instances, 10);
        assert_eq!(arena.n_outages(), 0);
    }
}
