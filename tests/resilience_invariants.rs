//! Cross-crate invariants tying §5's resilience machinery together: the
//! graph-sweep view and the replication-evaluator view of the same failure
//! sequence must agree on what "gone" means.

use fediscope::core::{Metric, Observatory};
use fediscope::prelude::*;
use fediscope::replication::eval::{availability_curve, singleton_groups, Strategy};

fn obs() -> Observatory {
    Observatory::new(Generator::generate_world(WorldConfig::tiny(31337)))
}

#[test]
fn no_replication_loss_equals_removed_toot_mass() {
    // Removing instances under No-Rep must lose exactly the toots homed on
    // them — the availability curve is just a cumulative sum.
    let o = obs();
    let order = o.instance_order(Metric::Toots);
    let k = 8.min(order.len());
    let groups = singleton_groups(&order[..k]);
    let curve = availability_curve(o.content_view(), Strategy::NoReplication, &groups);
    let total: u64 = o.toots_per_instance.iter().sum();
    let mut lost = 0u64;
    for (step, &inst) in order[..k].iter().enumerate() {
        lost += o.toots_per_instance[inst as usize];
        let expect = 1.0 - lost as f64 / total as f64;
        assert!(
            (curve[step + 1].availability - expect).abs() < 1e-9,
            "step {step}: curve {} vs direct {expect}",
            curve[step + 1].availability
        );
    }
}

#[test]
fn subscription_availability_dominated_by_graph_survival() {
    // If an author's instance *and* every follower instance is removed, the
    // toot must be counted lost; spot-check against a hand computation.
    let o = obs();
    let view = o.content_view();
    let order = o.instance_order(Metric::Users);
    let k = 10.min(order.len());
    let removed: std::collections::HashSet<u32> = order[..k].iter().copied().collect();
    let groups = singleton_groups(&order[..k]);
    let curve = availability_curve(view, Strategy::Subscription, &groups);

    let mut lost = 0u64;
    for u in 0..view.n_users() {
        let home_gone = removed.contains(&view.home[u]);
        let replicas_gone = view
            .follower_instances(u)
            .iter()
            .all(|i| removed.contains(i));
        if home_gone && replicas_gone {
            lost += view.toots[u];
        }
    }
    let expect = 1.0 - lost as f64 / view.total_toots as f64;
    assert!(
        (curve[k].availability - expect).abs() < 1e-9,
        "curve {} vs direct {expect}",
        curve[k].availability
    );
}

#[test]
fn federation_lcc_user_weight_matches_world_totals() {
    let o = obs();
    let weights = o.user_weights();
    let sweep = fediscope::graph::RemovalSweep::new(o.federation_graph()).with_weights(&weights);
    let pts = sweep.ranked(&[], &[0]);
    // nothing removed: the LCC weight cannot exceed the world's user count
    let total_users = o.world.users.len() as f64;
    assert!(pts[0].lcc_weight <= total_users);
    assert!(pts[0].lcc_weight_frac <= 1.0);
    // and the federation graph's node count matches the instance table
    assert_eq!(o.federation_graph().node_count(), o.world.instances.len());
}

#[test]
fn strategies_are_totally_ordered_everywhere() {
    let o = obs();
    let view = o.content_view();
    let order = o.instance_order(Metric::Toots);
    let k = 12.min(order.len());
    let groups = singleton_groups(&order[..k]);
    let none = availability_curve(view, Strategy::NoReplication, &groups);
    let sub = availability_curve(view, Strategy::Subscription, &groups);
    for step in 0..=k {
        assert!(
            sub[step].availability >= none[step].availability - 1e-12,
            "subscription must dominate no-replication at every step"
        );
    }
}

#[test]
fn batched_sweep_agrees_with_naive_on_observatory_orders() {
    // The batched engine must be bit-identical to the per-strategy
    // reference on the real removal orders the figures use — both the
    // flat toot-ranked instance order and the grouped AS order.
    use fediscope::replication::eval::AvailabilitySweep;

    let o = obs();
    let view = o.content_view();
    let order = o.instance_order(Metric::Toots);
    let k = 15.min(order.len());
    let groups = singleton_groups(&order[..k]);
    let batch = AvailabilitySweep::singletons(view, &order[..k]).evaluate(&[1, 4, 9]);
    assert_eq!(
        batch.none,
        availability_curve(view, Strategy::NoReplication, &groups)
    );
    assert_eq!(
        batch.subscription,
        availability_curve(view, Strategy::Subscription, &groups)
    );
    for (n, curve) in &batch.random {
        assert_eq!(
            curve,
            &availability_curve(view, Strategy::Random { n: *n }, &groups)
        );
    }

    let mut as_groups = o.as_groups(Metric::Toots);
    as_groups.truncate(8);
    let grouped = AvailabilitySweep::grouped(view, &as_groups).evaluate(&[]);
    assert_eq!(
        grouped.none,
        availability_curve(view, Strategy::NoReplication, &as_groups)
    );
    assert_eq!(
        grouped.subscription,
        availability_curve(view, Strategy::Subscription, &as_groups)
    );
}
