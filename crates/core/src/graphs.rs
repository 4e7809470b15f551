//! §5.1 analyses: graph structure and resilience (Figs. 11–13, Table 2).

use crate::observatory::{Metric, Observatory};
use fediscope_graph::par;
use fediscope_graph::removal::{RankBy, RemovalSweep, SweepPoint};
use fediscope_graph::{degree, weakly_connected};
use fediscope_model::scale::ScaleTier;
use fediscope_stats::{Ecdf, PowerLawFit};

/// Fig. 11: out-degree distributions.
#[derive(Debug, Clone)]
pub struct Fig11Degrees {
    /// Mastodon user out-degree CDF.
    pub social: Ecdf,
    /// Federation-graph instance out-degree CDF.
    pub federation: Ecdf,
    /// Twitter user out-degree CDF.
    pub twitter: Ecdf,
    /// Power-law fit of the social out-degree tail.
    pub social_fit: Option<PowerLawFit>,
    /// Power-law fit of the Twitter out-degree tail.
    pub twitter_fit: Option<PowerLawFit>,
}

/// Compute Fig. 11.
pub fn fig11_degrees(obs: &Observatory) -> Fig11Degrees {
    let social: Vec<f64> = degree::out_degrees(obs.user_graph())
        .into_iter()
        .map(|d| d as f64)
        .collect();
    let federation: Vec<f64> = degree::out_degrees(obs.federation_graph())
        .into_iter()
        .map(|d| d as f64)
        .collect();
    let twitter: Vec<f64> = degree::out_degrees(obs.twitter_graph())
        .into_iter()
        .map(|d| d as f64)
        .collect();
    Fig11Degrees {
        social_fit: PowerLawFit::fit(&social, 5.0),
        twitter_fit: PowerLawFit::fit(&twitter, 5.0),
        social: Ecdf::new(social),
        federation: Ecdf::new(federation),
        twitter: Ecdf::new(twitter),
    }
}

/// One Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Instance domain.
    pub domain: String,
    /// Home-timeline toots.
    pub home_toots: u64,
    /// Registered users.
    pub users: u32,
    /// Federation-graph out-degree (instances this instance subscribes to).
    pub fed_out_degree: u32,
    /// Federation-graph in-degree.
    pub fed_in_degree: u32,
    /// Operator kind.
    pub operator: fediscope_model::instance::OperatorKind,
    /// Hosting AS organisation.
    pub as_org: String,
    /// Hosting country code.
    pub country: &'static str,
}

/// Table 2: the top 10 instances by home toots.
pub fn table2_top_instances(obs: &Observatory) -> Vec<Table2Row> {
    let fed = obs.federation_graph();
    let mut order = obs.instance_order(Metric::Toots);
    order.truncate(10);
    order
        .into_iter()
        .map(|i| {
            let inst = &obs.world.instances[i as usize];
            Table2Row {
                domain: inst.domain.clone(),
                home_toots: obs.toots_per_instance[i as usize],
                users: obs.users_per_instance[i as usize],
                fed_out_degree: fed.out_degree(i),
                fed_in_degree: fed.in_degree(i),
                operator: inst.operator,
                as_org: obs
                    .world
                    .providers
                    .get(inst.provider_index as usize)
                    .name
                    .clone(),
                country: inst.country.code(),
            }
        })
        .collect()
}

/// Fig. 12: iterative top-degree user removal, Mastodon vs Twitter.
#[derive(Debug, Clone)]
pub struct Fig12UserRemoval {
    /// Mastodon sweep points (round 0 = intact).
    pub mastodon: Vec<SweepPoint>,
    /// Twitter sweep points.
    pub twitter: Vec<SweepPoint>,
    /// LCC fraction of the intact Mastodon graph (paper: 99.95%).
    pub mastodon_initial_lcc: f64,
    /// LCC fraction after removing the top 1% (paper: 26.38%).
    pub mastodon_after_1pct: f64,
    /// Twitter LCC fraction after removing ≈10% via ten 1% rounds
    /// (paper: ≈80% from a 95% baseline).
    pub twitter_after_10pct: f64,
}

/// Compute Fig. 12 with `steps` rounds of 1% removals.
///
/// The Mastodon and Twitter sweeps are independent, so they run on two
/// threads (in sequence at a one-thread `par` budget); each sweep is
/// deterministic, so the output does not depend on scheduling.
pub fn fig12_user_removal(obs: &Observatory, steps: usize) -> Fig12UserRemoval {
    let (mastodon, twitter) = par::join(
        || {
            RemovalSweep::new(obs.user_graph()).iterative_fraction(
                0.01,
                steps,
                RankBy::DegreeIterative,
            )
        },
        || {
            RemovalSweep::new(obs.twitter_graph()).iterative_fraction(
                0.01,
                steps,
                RankBy::DegreeIterative,
            )
        },
    );
    let after_10 = twitter.get(10.min(twitter.len() - 1)).unwrap();
    Fig12UserRemoval {
        mastodon_initial_lcc: mastodon[0].lcc_node_frac,
        mastodon_after_1pct: mastodon.get(1).map(|p| p.lcc_node_frac).unwrap_or(0.0),
        twitter_after_10pct: after_10.lcc_node_frac,
        mastodon,
        twitter,
    }
}

/// Fig. 13: federation-graph resilience to instance and AS removal.
#[derive(Debug, Clone)]
pub struct Fig13FederationRemoval {
    /// (a) top-N instance removal ranked by users.
    pub by_instance_users: Vec<SweepPoint>,
    /// (a) top-N instance removal ranked by toots.
    pub by_instance_toots: Vec<SweepPoint>,
    /// (b) AS removal ranked by instances hosted.
    pub by_as_instances: Vec<SweepPoint>,
    /// (b) AS removal ranked by users hosted.
    pub by_as_users: Vec<SweepPoint>,
    /// Intact LCC fraction over instances (paper: 92%).
    pub initial_lcc_instances: f64,
    /// Intact LCC user coverage (paper: 96%).
    pub initial_lcc_users: f64,
}

/// Compute Fig. 13. `max_instances` bounds the 13(a) sweep depth;
/// `max_ases` bounds 13(b).
pub fn fig13_federation_removal(
    obs: &Observatory,
    max_instances: usize,
    max_ases: usize,
) -> Fig13FederationRemoval {
    let fed = obs.federation_graph();
    let weights = obs.user_weights();

    let checkpoints: Vec<usize> = (0..=max_instances.min(fed.node_count())).collect();
    // The weights are borrowed by the sweep (not cloned), so the same
    // vector backs all four fanned-out sweeps below.
    let sweep = RemovalSweep::new(fed).with_weights(&weights);

    let order_users = obs.instance_order(Metric::Users);
    let order_toots = obs.instance_order(Metric::Toots);
    let mut groups_inst = obs.as_groups(Metric::Instances);
    groups_inst.truncate(max_ases);
    let mut groups_users = obs.as_groups(Metric::Users);
    groups_users.truncate(max_ases);

    // The four sweeps share nothing but the (immutable) sweep runner, so
    // fan them out over threads; each is deterministic on its own.
    let ((by_instance_users, by_instance_toots), (by_as_instances, by_as_users)) = par::join(
        || {
            par::join(
                || sweep.ranked(&order_users, &checkpoints),
                || sweep.ranked(&order_toots, &checkpoints),
            )
        },
        || {
            par::join(
                || sweep.grouped(&groups_inst),
                || sweep.grouped(&groups_users),
            )
        },
    );

    // intact stats: consider only populated instances when quoting the LCC
    // coverage (isolated zero-user instances are not in the graph's edges).
    // User weights are integer counts, so the heaviest component's weight
    // is exact whatever order the labelling sums it in.
    let wcc = weakly_connected(fed, None);
    let total_users: f64 = weights.iter().sum();
    Fig13FederationRemoval {
        initial_lcc_instances: wcc.largest() as f64 / fed.node_count().max(1) as f64,
        initial_lcc_users: if total_users > 0.0 {
            wcc.largest_weight(&weights) / total_users
        } else {
            0.0
        },
        by_instance_users,
        by_instance_toots,
        by_as_instances,
        by_as_users,
    }
}

/// Fig. 12's error-tolerance baseline: random removal instead of the
/// targeted attack, averaged over Monte-Carlo trials.
#[derive(Debug, Clone)]
pub struct Fig12RandomBaseline {
    /// Mean LCC node fraction after each round (index 0 = intact), averaged
    /// across trials.
    pub mean_lcc_frac: Vec<f64>,
    /// Per-trial sweep points (trial-major), for spread inspection.
    pub trials: Vec<Vec<SweepPoint>>,
    /// Base seed the trial seeds derive from.
    pub base_seed: u64,
}

/// Random-removal baseline on the Mastodon user graph: `trials` independent
/// sweeps of `steps` rounds of 1% random removals.
///
/// Trials run in parallel via [`par::parallel_map`]; trial `i` uses seed
/// `base_seed.wrapping_add(i)`, and results are collected in trial order,
/// so output is identical no matter how many threads run (seed-stable).
pub fn fig12_random_baseline(
    obs: &Observatory,
    steps: usize,
    trials: usize,
    base_seed: u64,
) -> Fig12RandomBaseline {
    let sweep = RemovalSweep::new(obs.user_graph());
    let seeds: Vec<u64> = (0..trials as u64)
        .map(|i| base_seed.wrapping_add(i))
        .collect();
    let trials: Vec<Vec<SweepPoint>> = par::parallel_map(&seeds, |&seed| {
        sweep.iterative_fraction(0.01, steps, RankBy::Random { seed })
    });
    let rounds = trials.iter().map(Vec::len).max().unwrap_or(0);
    let mean_lcc_frac: Vec<f64> = (0..rounds)
        .map(|round| {
            let mut sum = 0.0;
            let mut n = 0usize;
            for t in &trials {
                if let Some(p) = t.get(round) {
                    sum += p.lcc_node_frac;
                    n += 1;
                }
            }
            if n > 0 {
                sum / n as f64
            } else {
                0.0
            }
        })
        .collect();
    Fig12RandomBaseline {
        mean_lcc_frac,
        trials,
        base_seed,
    }
}

/// Compute Fig. 12 at a named scale tier (the tier fixes the round count,
/// so per-tier results are comparable across worlds of the same tier).
pub fn fig12_user_removal_tier(obs: &Observatory, tier: ScaleTier) -> Fig12UserRemoval {
    fig12_user_removal(obs, tier.fig12_steps())
}

/// Compute Fig. 13 at a named scale tier: sweep depth and AS count follow
/// the tier tables (a quarter of the tier's instances, 30–50 ASes).
pub fn fig13_federation_removal_tier(obs: &Observatory, tier: ScaleTier) -> Fig13FederationRemoval {
    fig13_federation_removal(obs, tier.fig13_max_instances(), tier.fig13_max_ases())
}

/// Compute the Fig. 12 random baseline at a named scale tier (trial count
/// shrinks as worlds grow — each trial already averages over more nodes).
pub fn fig12_random_baseline_tier(
    obs: &Observatory,
    tier: ScaleTier,
    base_seed: u64,
) -> Fig12RandomBaseline {
    fig12_random_baseline(obs, tier.fig12_steps(), tier.baseline_trials(), base_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::shard::fnv1a64;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn obs() -> Observatory {
        Observatory::new(Generator::generate_world(WorldConfig::small(91)))
    }

    #[test]
    fn fig11_power_laws() {
        let o = obs();
        let f = fig11_degrees(&o);
        assert_eq!(f.social.len(), o.world.users.len());
        let fit = f.social_fit.expect("social fit");
        assert!(fit.alpha > 1.3 && fit.alpha < 4.0, "alpha {}", fit.alpha);
        // Mastodon's social median out-degree is low; hubs carry the tail
        assert!(f.social.median().unwrap() <= f.social.max().unwrap() / 10.0);
    }

    #[test]
    fn table2_is_sorted_and_complete() {
        let o = obs();
        let rows = table2_top_instances(&o);
        assert_eq!(rows.len(), 10);
        for w in rows.windows(2) {
            assert!(w[0].home_toots >= w[1].home_toots);
        }
        // the renamed paper domains float to the top by construction
        assert!(rows.iter().any(|r| r.domain == "mstdn.jp"));
    }

    #[test]
    fn fig12_mastodon_fragile_twitter_robust() {
        let o = obs();
        let f = fig12_user_removal(&o, 12);
        assert!(f.mastodon_initial_lcc > 0.98, "{}", f.mastodon_initial_lcc);
        assert!(
            f.mastodon_after_1pct < 0.65,
            "Mastodon should shatter: {}",
            f.mastodon_after_1pct
        );
        assert!(
            f.twitter_after_10pct > 0.55,
            "Twitter should survive: {}",
            f.twitter_after_10pct
        );
        // the qualitative contrast of the paper
        assert!(f.twitter_after_10pct > f.mastodon_after_1pct);
    }

    #[test]
    fn fig13_linear_decay_and_as_damage() {
        let o = obs();
        let n = o.world.instances.len();
        let f = fig13_federation_removal(&o, n / 4, 10);
        assert!(f.initial_lcc_instances > 0.5);
        assert!(f.initial_lcc_users > 0.9);
        // LCC decays monotonically
        for series in [&f.by_instance_users, &f.by_instance_toots] {
            for w in series.windows(2) {
                assert!(w[1].lcc_nodes <= w[0].lcc_nodes);
            }
        }
        // AS removal (grouped) after k groups removes at least as many
        // instances as k singleton removals, so it is at least as damaging
        let k = 5.min(f.by_as_instances.len() - 1);
        assert!(
            f.by_as_instances[k].lcc_nodes <= f.by_instance_users[k].lcc_nodes,
            "AS removal should dominate single-instance removal"
        );
    }

    #[test]
    fn fig12_random_baseline_is_gentler_and_seed_stable() {
        let o = obs();
        let a = fig12_random_baseline(&o, 8, 4, 1234);
        let b = fig12_random_baseline(&o, 8, 4, 1234);
        // seed-stable regardless of thread scheduling
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.mean_lcc_frac, b.mean_lcc_frac);
        // random removal of ~8% degrades the LCC far less than the attack
        let attack = fig12_user_removal(&o, 8);
        let last = *a.mean_lcc_frac.last().unwrap();
        assert!(
            last > attack.mastodon.last().unwrap().lcc_node_frac,
            "random baseline ({last}) should dominate the attack"
        );
    }

    #[test]
    fn fig12_random_baseline_is_pinned() {
        // Every trial's sweep points on a real world, digested. The value
        // was recorded with the full-array `shuffle` + `truncate` victim
        // selector, so a selector that changes one victim, their order or
        // the RNG stream fails here.
        let o = obs();
        let b = fig12_random_baseline(&o, 20, 3, 77);
        let digest = fnv1a64(b.trials.iter().flatten().flat_map(|p| {
            [
                p.removed as u64,
                p.groups_removed as u64,
                p.lcc_nodes as u64,
                p.lcc_node_frac.to_bits(),
                p.lcc_weight.to_bits(),
                p.lcc_weight_frac.to_bits(),
                p.wcc_count as u64,
                p.scc_count as u64,
            ]
        }));
        assert_eq!(b.trials.iter().map(Vec::len).sum::<usize>(), 3 * 21);
        assert_eq!(digest, 0x23df_e8da_f9c9_529b);
    }

    #[test]
    fn tier_entry_points_follow_tier_tables() {
        // A tiny world exercises the plumbing; sweep depths clamp to the
        // world where the tier tables exceed it.
        let o = Observatory::new(Generator::generate_world(WorldConfig::tiny(3)));
        let tier = ScaleTier::Paper2019;
        let f12 = fig12_user_removal_tier(&o, tier);
        assert_eq!(f12.mastodon.len(), tier.fig12_steps() + 1);
        let f13 = fig13_federation_removal_tier(&o, tier);
        assert_eq!(
            f13.by_instance_users.len(),
            o.world.instances.len().min(tier.fig13_max_instances()) + 1
        );
        let rb = fig12_random_baseline_tier(&o, tier, 7);
        assert_eq!(rb.trials.len(), tier.baseline_trials());
        assert_eq!(rb.mean_lcc_frac.len(), tier.fig12_steps() + 1);
    }

    #[test]
    fn fig13_user_ranked_as_removal_kills_more_users() {
        let o = obs();
        let f = fig13_federation_removal(&o, 10, 8);
        let k = 5
            .min(f.by_as_users.len() - 1)
            .min(f.by_as_instances.len() - 1);
        // ranking ASes by users must remove at least as much user weight
        assert!(f.by_as_users[k].lcc_weight_frac <= f.by_as_instances[k].lcc_weight_frac + 0.05);
    }
}
