//! §5.2 analyses: content federation and replication (Figs. 14–16).

use crate::observatory::{Metric, Observatory};
use fediscope_model::scale::ScaleTier;
use fediscope_replication::eval::{
    evaluate_plans_fused, AvailabilityPoint, AvailabilitySweep, RemovalPlan,
};
use fediscope_stats::spearman;

/// Fig. 14: home vs remote toots on federated timelines.
#[derive(Debug, Clone)]
pub struct Fig14RemoteRatio {
    /// Per instance (sorted ascending by home share): fraction of the
    /// federated timeline that is locally authored.
    pub home_share_sorted: Vec<f64>,
    /// Fraction of instances producing <10% of their own timeline
    /// (paper: 78%).
    pub below_10pct_frac: f64,
    /// Fraction of instances with *zero* home toots on their timeline
    /// (paper: 5%).
    pub fully_remote_frac: f64,
    /// Correlation between toots produced and volume replicated outward
    /// (paper: 0.97).
    pub production_replication_corr: Option<f64>,
}

/// Compute Fig. 14.
pub fn fig14_remote_ratio(obs: &Observatory) -> Fig14RemoteRatio {
    let remote = obs.remote_toots_per_instance();
    let mut home_share = Vec::new();
    for (i, &rem) in remote.iter().enumerate().take(obs.world.instances.len()) {
        let home = obs.toots_per_instance[i] as f64;
        let rem = rem as f64;
        let total = home + rem;
        if total > 0.0 {
            home_share.push(home / total);
        }
    }
    home_share.sort_by(f64::total_cmp);
    let n = home_share.len().max(1) as f64;
    let below_10 = home_share.iter().filter(|&&s| s < 0.10).count() as f64 / n;
    let zero = home_share.iter().filter(|&&s| s == 0.0).count() as f64 / n;

    // replication volume: how many remote timelines a given instance's
    // content lands on, weighted by its toots
    let view = obs.content_view();
    let mut replicated_out = vec![0f64; obs.world.instances.len()];
    for u in 0..view.n_users() {
        let remote_holders = view
            .follower_instances(u)
            .iter()
            .filter(|&&i| i != view.home[u])
            .count() as f64;
        replicated_out[view.home[u] as usize] += view.toots[u] as f64 * remote_holders;
    }
    let produced: Vec<f64> = obs.toots_per_instance.iter().map(|&t| t as f64).collect();
    Fig14RemoteRatio {
        home_share_sorted: home_share,
        below_10pct_frac: below_10,
        fully_remote_frac: zero,
        // Rank correlation: per-instance toot counts span decades, and at
        // test scale raw Pearson is decided by whichever single instance
        // hosts the biggest account rather than by the relationship.
        production_replication_corr: spearman(&produced, &replicated_out),
    }
}

/// Fig. 15: toot availability without replication and with subscription
/// replication, under instance and AS removal.
#[derive(Debug, Clone)]
pub struct Fig15Replication {
    /// No replication, removing top instances (by toots).
    pub none_by_instance: Vec<AvailabilityPoint>,
    /// No replication, removing top ASes (by toots).
    pub none_by_as: Vec<AvailabilityPoint>,
    /// Subscription replication, removing top instances.
    pub sub_by_instance: Vec<AvailabilityPoint>,
    /// Subscription replication, removing top ASes.
    pub sub_by_as: Vec<AvailabilityPoint>,
    /// Toots lost after removing the top-10 instances without replication
    /// (paper: 62.69%).
    pub none_top10_instance_loss: f64,
    /// Toots lost after removing the top-10 ASes without replication
    /// (paper: 90.1%).
    pub none_top10_as_loss: f64,
    /// Same with subscription replication (paper: 2.1% / 18.66%).
    pub sub_top10_instance_loss: f64,
    /// AS variant (paper: 18.66%).
    pub sub_top10_as_loss: f64,
}

/// Compute Fig. 15 with sweeps of `max_instances` and `max_ases` removals.
///
/// Both removal orders are compiled into [`RemovalPlan`]s up front and
/// evaluated out of **one** fused walk over the union of their removed
/// instances' resident segments ([`evaluate_plans_fused`]): the heavily
/// overlapping instance/AS orders share most of their segments, so the
/// fused walk streams each shared segment once instead of twice —
/// bit-identical curves to two independent sweeps.
pub fn fig15_replication(
    obs: &Observatory,
    max_instances: usize,
    max_ases: usize,
) -> Fig15Replication {
    let view = obs.content_view();
    let mut inst_order = obs.instance_order(Metric::Toots);
    inst_order.truncate(max_instances);
    let mut as_groups = obs.as_groups(Metric::Toots);
    as_groups.truncate(max_ases);

    let inst_plan = RemovalPlan::from_order(view.n_instances, &inst_order);
    let as_plan = RemovalPlan::from_groups(view.n_instances, &as_groups);
    let (by_instance, by_as) = evaluate_plans_fused(view, &inst_plan, &as_plan, &[]);

    let loss_at =
        |curve: &[AvailabilityPoint], k: usize| 1.0 - curve[k.min(curve.len() - 1)].availability;
    Fig15Replication {
        none_top10_instance_loss: loss_at(&by_instance.none, 10),
        none_top10_as_loss: loss_at(&by_as.none, 10),
        sub_top10_instance_loss: loss_at(&by_instance.subscription, 10),
        sub_top10_as_loss: loss_at(&by_as.subscription, 10),
        none_by_instance: by_instance.none,
        none_by_as: by_as.none,
        sub_by_instance: by_instance.subscription,
        sub_by_as: by_as.subscription,
    }
}

/// Fig. 16: random replication for n ∈ {1, 2, 3, 4, 7, 9} vs S-Rep vs
/// No-Rep, under instance removal ranked by toots.
#[derive(Debug, Clone)]
pub struct Fig16RandomReplication {
    /// `(n, curve)` for each replica count.
    pub random: Vec<(usize, Vec<AvailabilityPoint>)>,
    /// Subscription-replication curve.
    pub subscription: Vec<AvailabilityPoint>,
    /// No-replication curve.
    pub none: Vec<AvailabilityPoint>,
    /// Fraction of toots with no subscription replicas (paper: 9.7%).
    pub unreplicated_frac: f64,
    /// Fraction with >10 subscription replicas (paper: 23%).
    pub over10_frac: f64,
}

/// Replica counts evaluated by the paper.
pub const FIG16_NS: [usize; 6] = [1, 2, 3, 4, 7, 9];

/// Compute Fig. 16 with a sweep of `max_instances` removals.
///
/// All eight curves (No-Rep, S-Rep, and every `Random{n}`) come out of a
/// single batched [`AvailabilitySweep`] pass over the flat removal order —
/// no per-strategy rescans, no singleton-group materialisation.
pub fn fig16_random_replication(obs: &Observatory, max_instances: usize) -> Fig16RandomReplication {
    let view = obs.content_view();
    let mut order = obs.instance_order(Metric::Toots);
    order.truncate(max_instances);
    let batch = AvailabilitySweep::singletons(view, &order).evaluate(&FIG16_NS);
    Fig16RandomReplication {
        random: batch.random,
        subscription: batch.subscription,
        none: batch.none,
        unreplicated_frac: view.unreplicated_toot_fraction(),
        over10_frac: view.over_replicated_fraction(10),
    }
}

/// Compute Fig. 15 at a named scale tier: sweep depths follow the tier
/// tables, so per-tier results are comparable across worlds of that tier.
pub fn fig15_replication_tier(obs: &Observatory, tier: ScaleTier) -> Fig15Replication {
    fig15_replication(obs, tier.fig15_max_instances(), tier.fig15_max_ases())
}

/// Compute Fig. 16 at a named scale tier.
pub fn fig16_random_replication_tier(obs: &Observatory, tier: ScaleTier) -> Fig16RandomReplication {
    fig16_random_replication(obs, tier.fig16_max_instances())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn obs() -> Observatory {
        Observatory::new(Generator::generate_world(WorldConfig::small(95)))
    }

    #[test]
    fn fig14_feeders_exist() {
        let o = obs();
        let f = fig14_remote_ratio(&o);
        // most instances' timelines are dominated by remote toots
        assert!(
            f.below_10pct_frac > 0.3,
            "below-10% share {}",
            f.below_10pct_frac
        );
        // production strongly correlates with outward replication
        let c = f.production_replication_corr.expect("correlation");
        assert!(c > 0.5, "correlation {c}");
        // shares are sorted and in range
        for w in f.home_share_sorted.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn fig15_replication_rescues_availability() {
        let o = obs();
        let f = fig15_replication(&o, 30, 10);
        // the paper's core contrast: massive loss without replication,
        // small loss with subscription replication
        assert!(
            f.none_top10_instance_loss > 0.3,
            "no-rep loss {}",
            f.none_top10_instance_loss
        );
        // At paper scale the rescue factor is ~30x (62.69% -> 2.1%); at
        // test scale the follower pool spans far fewer instances, so the
        // factor compresses. Demand a solid improvement, not the full 30x.
        assert!(
            f.sub_top10_instance_loss < f.none_top10_instance_loss * 0.75,
            "sub loss {} vs none {}",
            f.sub_top10_instance_loss,
            f.none_top10_instance_loss
        );
        // AS removal is worse than instance removal
        assert!(f.none_top10_as_loss >= f.none_top10_instance_loss - 0.05);
        assert!(f.sub_top10_as_loss >= f.sub_top10_instance_loss - 0.02);
    }

    #[test]
    fn fig16_random_beats_subscription_for_small_n() {
        let o = obs();
        let f = fig16_random_replication(&o, 25);
        let n1 = &f.random.iter().find(|(n, _)| *n == 1).unwrap().1;
        let k = n1.len() - 1;
        // paper: after 25 removals S-Rep ~95% vs random n=1 ~99.2%
        assert!(
            n1[k].availability >= f.subscription[k].availability - 0.02,
            "random n=1 {} vs subscription {}",
            n1[k].availability,
            f.subscription[k].availability
        );
        // n ≥ 4 keeps availability very high
        let n4 = &f.random.iter().find(|(n, _)| *n == 4).unwrap().1;
        assert!(
            n4[k].availability > 0.95,
            "n=4 availability {}",
            n4[k].availability
        );
        // replication-skew facts
        assert!(f.unreplicated_frac > 0.0);
        assert!(f.over10_frac > 0.0);
    }

    #[test]
    fn fig15_fused_walk_equals_two_independent_passes() {
        // Real Observatory orders: the fused two-plan walk must be
        // bit-identical to evaluating each removal order on its own.
        let o = obs();
        let view = o.content_view();
        let mut inst_order = o.instance_order(Metric::Toots);
        inst_order.truncate(30);
        let mut as_groups = o.as_groups(Metric::Toots);
        as_groups.truncate(10);
        let by_instance = AvailabilitySweep::singletons(view, &inst_order).evaluate(&[]);
        let by_as = AvailabilitySweep::grouped(view, &as_groups).evaluate(&[]);
        let f = fig15_replication(&o, 30, 10);
        assert_eq!(f.none_by_instance, by_instance.none);
        assert_eq!(f.sub_by_instance, by_instance.subscription);
        assert_eq!(f.none_by_as, by_as.none);
        assert_eq!(f.sub_by_as, by_as.subscription);
    }

    #[test]
    fn fig15_tier_entry_points_follow_tier_tables() {
        // A tiny world exercises the plumbing; sweep depths clamp to the
        // world where the tier tables exceed it.
        let o = Observatory::new(Generator::generate_world(WorldConfig::tiny(5)));
        let tier = ScaleTier::Paper2019;
        let f15 = fig15_replication_tier(&o, tier);
        assert_eq!(
            f15.none_by_instance.len(),
            o.world.instances.len().min(tier.fig15_max_instances()) + 1
        );
        assert!(f15.none_by_as.len() <= tier.fig15_max_ases() + 1);
        let f16 = fig16_random_replication_tier(&o, tier);
        assert_eq!(
            f16.none.len(),
            o.world.instances.len().min(tier.fig16_max_instances()) + 1
        );
        assert_eq!(f16.random.len(), FIG16_NS.len());
    }

    #[test]
    fn fig16_monotone_in_n() {
        let o = obs();
        let f = fig16_random_replication(&o, 15);
        for pair in f.random.windows(2) {
            let (na, ca) = &pair[0];
            let (nb, cb) = &pair[1];
            assert!(na < nb);
            for k in 0..ca.len() {
                assert!(cb[k].availability >= ca[k].availability - 1e-12);
            }
        }
    }
}
