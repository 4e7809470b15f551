//! Capacity-weighted random replication — the extension the paper sketches
//! in §5.2's closing remark: "it would be important to weight replication
//! based on the resources available at the instance (e.g., storage)".
//!
//! Replicas are drawn with probability proportional to instance capacity
//! instead of uniformly. The evaluator is Monte-Carlo (the non-uniform
//! without-replacement expectation has no clean closed form).
//!
//! The production engine runs the uniform Monte-Carlo evaluator's walk
//! (see `eval.rs`) with two differences: a Walker **alias table** makes
//! each capacity-weighted draw `O(1)` (the original cumulative-sum sampler
//! paid a binary search per draw), and each toot stops after `64 * n`
//! draws, so a profile with fewer than `n` positive capacities still
//! terminates. The walk keeps the uniform evaluator's discipline: a
//! stamped array for `O(1)` replica distinctness, per-user
//! counter-derived RNG streams, integral per-sample weights, and a walk
//! *inverted* onto the resident arena (only users homed on removed
//! instances are visited), whose `u64` histograms merge exactly, so output
//! is shard- and thread-count independent. The pre-rewrite engine is kept
//! as [`weighted_random_curve_reference`] for differential testing.

use crate::content::ContentView;
use crate::eval::{AvailabilityPoint, AvailabilitySweep, EVAL_CHUNK_USERS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Walker alias table: `O(n)` construction, `O(1)` samples from a
/// discrete distribution proportional to the given weights (negative
/// weights clamp to zero).
pub struct AliasTable {
    /// Acceptance probability per bucket (scaled to mean 1).
    prob: Vec<f64>,
    /// Fallback bucket when the acceptance draw fails.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from `weights`; panics if the clamped weights sum to zero.
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "alias table needs at least one weight");
        assert!(n < u32::MAX as usize, "too many weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        assert!(total > 0.0, "weights must not all be zero");
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w.max(0.0) * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // donate the overflow of l to fill s's bucket to exactly 1
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers on either worklist are buckets that should
        // be exactly full.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Draw one index (two RNG consumptions: bucket + acceptance).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let i = rng.gen_range(0..self.prob.len() as u32);
        if rng.gen::<f64>() < self.prob[i as usize] {
            i
        } else {
            self.alias[i as usize]
        }
    }
}

/// Availability curve for capacity-weighted random replication with `n`
/// replicas per toot, sampled per user (up to `toot_cap` samples per
/// user; the remaining toots ride the sampled placements with integral
/// weights). Sharded over the removed instances' resident segments with
/// shard-count-independent output.
pub fn weighted_random_curve(
    view: &ContentView,
    capacities: &[f64],
    n: usize,
    groups: &[Vec<u32>],
    toot_cap: u32,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    weighted_random_curve_chunked(
        view,
        capacities,
        n,
        groups,
        toot_cap,
        seed,
        EVAL_CHUNK_USERS,
    )
}

/// [`weighted_random_curve`] with an explicit shard size, so tests can pin
/// 1-shard ≡ N-shard equality. It runs the uniform Monte-Carlo walk with
/// an alias-table draw and at most `64 * n` draws per toot: a capacity
/// profile with fewer than `n` positive entries must terminate with a
/// short replica set, as in the reference engine.
fn weighted_random_curve_chunked(
    view: &ContentView,
    capacities: &[f64],
    n: usize,
    groups: &[Vec<u32>],
    toot_cap: u32,
    seed: u64,
    chunk_rows: usize,
) -> Vec<AvailabilityPoint> {
    assert_eq!(capacities.len(), view.n_instances, "capacity length");
    let sampler = AliasTable::new(capacities);
    let max_draws = 64 * n.min(view.n_instances).max(1);
    AvailabilitySweep::grouped(view, groups).placement_walk(
        n,
        toot_cap,
        seed,
        chunk_rows,
        Some(max_draws),
        |rng| sampler.sample(rng),
    )
}

/// The pre-rewrite engine, kept verbatim as the differential baseline:
/// cumulative-sum binary-search sampling with linear-`contains`
/// rejection, one global RNG stream, fractional per-sample weights, one
/// serial pass over the whole population. Statistically equivalent to
/// [`weighted_random_curve`] (both sample the same placement
/// distribution); not bit-equal — the samplers consume randomness
/// differently.
pub fn weighted_random_curve_reference(
    view: &ContentView,
    capacities: &[f64],
    n: usize,
    groups: &[Vec<u32>],
    toot_cap: u32,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    assert_eq!(capacities.len(), view.n_instances, "capacity length");
    struct WeightedSampler {
        cum: Vec<f64>,
    }
    impl WeightedSampler {
        fn new(weights: &[f64]) -> Self {
            let mut cum = Vec::with_capacity(weights.len());
            let mut acc = 0.0;
            for &w in weights {
                acc += w.max(0.0);
                cum.push(acc);
            }
            assert!(acc > 0.0, "weights must not all be zero");
            Self { cum }
        }
        fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
            let x = rng.gen::<f64>() * self.cum.last().unwrap();
            self.cum.partition_point(|&c| c < x).min(self.cum.len() - 1) as u32
        }
    }
    let sampler = WeightedSampler::new(capacities);
    let mut steps = vec![usize::MAX; view.n_instances];
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            if steps[m as usize] == usize::MAX {
                steps[m as usize] = g + 1;
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut death_toots = vec![0f64; groups.len() + 2];
    for u in 0..view.n_users() {
        if view.toots[u] == 0 {
            continue;
        }
        let home_step = steps[view.home[u] as usize];
        if home_step == usize::MAX || home_step > groups.len() {
            continue;
        }
        let samples = view.toots[u].min(toot_cap as u64) as u32;
        let weight = view.toots[u] as f64 / samples as f64;
        for _ in 0..samples {
            let mut replicas: Vec<u32> = Vec::with_capacity(n);
            let mut guard = 0;
            while replicas.len() < n.min(view.n_instances) && guard < 64 * n {
                let cand = sampler.sample(&mut rng);
                guard += 1;
                if !replicas.contains(&cand) {
                    replicas.push(cand);
                }
            }
            let mut death = home_step;
            for &r in &replicas {
                death = death.max(steps[r as usize]);
            }
            if death != usize::MAX && death <= groups.len() {
                death_toots[death] += weight;
            }
        }
    }
    let total = view.total_toots.max(1) as f64;
    crate::eval::fold_availability(&death_toots, groups.len(), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{random_monte_carlo_curve, singleton_groups};
    use fediscope_worldgen::{Generator, WorldConfig};

    fn view() -> ContentView {
        let mut cfg = WorldConfig::tiny(51);
        cfg.n_instances = 30;
        cfg.n_users = 900;
        ContentView::from_world(&Generator::generate_world(cfg))
    }

    #[test]
    fn alias_table_matches_weights_statistically() {
        let weights = [1.0f64, 0.0, 3.0, 6.0];
        let table = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        // zero-weight bucket is never drawn
        assert_eq!(counts[1], 0);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "bucket {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn alias_table_uniform_is_uniform() {
        let table = AliasTable::new(&[2.5; 8]);
        // every acceptance probability is exactly 1: the first draw wins
        for p in &table.prob {
            assert_eq!(*p, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn alias_table_rejects_all_zero() {
        let _ = AliasTable::new(&[0.0, -1.0]);
    }

    #[test]
    fn uniform_capacity_matches_uniform_random() {
        let v = view();
        let order: Vec<u32> = (0..v.n_instances as u32).collect();
        let groups = singleton_groups(&order[..8]);
        let caps = vec![1.0; v.n_instances];
        let weighted = weighted_random_curve(&v, &caps, 2, &groups, 32, 7);
        let uniform = random_monte_carlo_curve(&v, 2, &groups, 32, 7);
        for k in 0..weighted.len() {
            assert!(
                (weighted[k].availability - uniform[k].availability).abs() < 0.06,
                "k={k}"
            );
        }
    }

    #[test]
    fn differential_against_reference_engine() {
        // Same distributionally — the alias/stamped engine and the kept
        // reference must agree within Monte-Carlo noise on small worlds,
        // across capacity profiles.
        let v = view();
        let order: Vec<u32> = (0..12u32).collect();
        let groups = singleton_groups(&order);
        for (caps, label) in [
            (vec![1.0; v.n_instances], "uniform"),
            (
                (0..v.n_instances)
                    .map(|i| 1.0 + (i % 7) as f64)
                    .collect::<Vec<_>>(),
                "mild skew",
            ),
            (
                (0..v.n_instances)
                    .map(|i| if i < 6 { 0.01 } else { 2.0 })
                    .collect::<Vec<_>>(),
                "victims starved",
            ),
        ] {
            let fast = weighted_random_curve(&v, &caps, 2, &groups, 48, 23);
            let reference = weighted_random_curve_reference(&v, &caps, 2, &groups, 48, 23);
            assert_eq!(fast.len(), reference.len());
            for k in 0..fast.len() {
                assert!(
                    (fast[k].availability - reference[k].availability).abs() < 0.05,
                    "{label} k={k}: fast {} vs reference {}",
                    fast[k].availability,
                    reference[k].availability
                );
            }
        }
    }

    #[test]
    fn capacity_skew_away_from_victims_helps() {
        let v = view();
        // remove instances 0..6; give them tiny capacity so replicas avoid them
        let order: Vec<u32> = (0..6u32).collect();
        let groups = singleton_groups(&order);
        let mut smart = vec![1.0; v.n_instances];
        smart[..6].fill(0.001);
        let mut dumb = vec![0.001; v.n_instances];
        dumb[..6].fill(1.0); // replicas pile onto the doomed instances
        let s = weighted_random_curve(&v, &smart, 2, &groups, 32, 11);
        let d = weighted_random_curve(&v, &dumb, 2, &groups, 32, 11);
        let k = groups.len();
        assert!(
            s[k].availability >= d[k].availability,
            "capacity-aware placement should not be worse: {} vs {}",
            s[k].availability,
            d[k].availability
        );
    }

    #[test]
    fn monotone_decreasing() {
        let v = view();
        let order: Vec<u32> = (0..v.n_instances as u32).collect();
        let groups = singleton_groups(&order[..10]);
        let caps: Vec<f64> = (0..v.n_instances).map(|i| 1.0 + i as f64).collect();
        let curve = weighted_random_curve(&v, &caps, 3, &groups, 16, 13);
        for w in curve.windows(2) {
            assert!(w[1].availability <= w[0].availability + 1e-12);
        }
    }

    #[test]
    fn shard_count_invariant() {
        let v = view();
        let order: Vec<u32> = (0..14u32).collect();
        let groups = singleton_groups(&order);
        let caps: Vec<f64> = (0..v.n_instances).map(|i| 0.5 + (i % 5) as f64).collect();
        let one = weighted_random_curve_chunked(&v, &caps, 2, &groups, 16, 99, usize::MAX);
        let many = weighted_random_curve_chunked(&v, &caps, 2, &groups, 16, 99, 13);
        let tiny = weighted_random_curve_chunked(&v, &caps, 2, &groups, 16, 99, 1);
        assert_eq!(one, many);
        assert_eq!(one, tiny);
    }

    #[test]
    fn removing_everything_loses_everything() {
        // Integral weights must cover every toot: removing all instances
        // drives availability exactly to zero.
        let v = view();
        let all: Vec<u32> = (0..v.n_instances as u32).collect();
        let groups = singleton_groups(&all);
        let caps: Vec<f64> = (0..v.n_instances).map(|i| 1.0 + (i % 3) as f64).collect();
        let curve = weighted_random_curve(&v, &caps, 3, &groups, 8, 5);
        assert!(
            curve.last().unwrap().availability.abs() < 1e-12,
            "all mass must be lost: {}",
            curve.last().unwrap().availability
        );
    }

    #[test]
    fn weighted_curve_values_are_pinned() {
        let mut cfg = WorldConfig::tiny(61);
        cfg.n_instances = 20;
        cfg.n_users = 250;
        let v = ContentView::from_world(&Generator::generate_world(cfg));
        let mut toots = vec![0u64; v.n_instances];
        for u in 0..v.n_users() {
            toots[v.home[u] as usize] += v.toots[u];
        }
        let mut order: Vec<u32> = (0..v.n_instances as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(toots[i as usize]));
        let groups = singleton_groups(&order[..8]);
        let skewed: Vec<f64> = (0..v.n_instances).map(|i| 1.0 + (i % 4) as f64).collect();
        // Two positive instances, both removed, for three replicas: every
        // sample spends the full draw cap and keeps a short replica set.
        // The second is rare enough that whether a sample finds it depends
        // on the number of draws.
        let mut starved = vec![0.0; v.n_instances];
        starved[order[1] as usize] = 3.0;
        starved[order[5] as usize] = 0.015;
        let pinned: [(&[f64], usize, [f64; 9]); 2] = [
            (
                &skewed,
                2,
                [
                    1.0,
                    1.0,
                    1.0,
                    0.9864911240757496,
                    0.96443390634262,
                    0.9578510591832278,
                    0.9195395126821202,
                    0.9149533584999844,
                    0.847845755467507,
                ],
            ),
            (
                &starved,
                3,
                [
                    1.0,
                    1.0,
                    0.7997379340467351,
                    0.7108226999032852,
                    0.679593173805884,
                    0.6738214831685021,
                    0.04848220135400738,
                    0.032071880947181275,
                    0.018687798334009242,
                ],
            ),
        ];
        for (caps, n, expect) in pinned {
            let curve = weighted_random_curve(&v, caps, n, &groups, 8, 17);
            let got: Vec<f64> = curve.iter().map(|p| p.availability).collect();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity length")]
    fn wrong_capacity_length_panics() {
        let v = view();
        let _ = weighted_random_curve(&v, &[1.0], 2, &[vec![0]], 8, 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::eval::singleton_groups;
    use fediscope_worldgen::{Generator, WorldConfig};
    use proptest::prelude::*;

    fn tiny_view(seed: u64) -> ContentView {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 20;
        cfg.n_users = 250;
        ContentView::from_world(&Generator::generate_world(cfg))
    }

    proptest! {
        /// Shard layout never changes the curve (same seed discipline as
        /// the uniform Monte-Carlo shard-invariance proptest).
        #[test]
        fn weighted_curve_shard_invariance(
            seed in 0u64..500,
            mc_seed in any::<u64>(),
            k in 1usize..16,
            chunk in 1usize..48,
            cap_kind in 0usize..3,
        ) {
            let v = tiny_view(seed);
            let caps: Vec<f64> = match cap_kind {
                0 => vec![1.0; v.n_instances],
                1 => (0..v.n_instances).map(|i| 1.0 + (i % 4) as f64).collect(),
                _ => (0..v.n_instances)
                    .map(|i| if i % 3 == 0 { 0.0 } else { 2.0 })
                    .collect(),
            };
            let order: Vec<u32> = (0..k as u32).collect();
            let groups = singleton_groups(&order);
            let sharded =
                weighted_random_curve_chunked(&v, &caps, 2, &groups, 8, mc_seed, chunk);
            let serial =
                weighted_random_curve_chunked(&v, &caps, 2, &groups, 8, mc_seed, usize::MAX);
            prop_assert_eq!(sharded, serial);
        }
    }
}
