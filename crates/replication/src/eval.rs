//! Availability-under-failure evaluation (Figs. 15 and 16).
//!
//! A toot is *available* if at least one live instance holds a copy and the
//! copy is discoverable through the assumed global index (§5.2: "we assume
//! the presence of a global index (such as a Distributed Hash Table)").
//!
//! Removal is modelled as a fixed sequence of instances (or groups of
//! instances = ASes); after each prefix, availability is the fraction of
//! all toots with a surviving holder.
//!
//! Two engines cover the same semantics:
//!
//! - [`availability_curve`] is the naive per-strategy reference: one full
//!   pass over every user (and every holder entry) *per strategy*.
//! - [`AvailabilitySweep`] is the batched engine: the removal schedule is
//!   compiled once into a [`RemovalPlan`], then **one** sharded scan over
//!   the users folds each user's death step into per-strategy death
//!   histograms — no-replication, subscription, and every requested
//!   `Random{n}` come out of the same pass. All histogram mass is integral
//!   toot counts accumulated in `u64`, so shard merging is exact and the
//!   output is bit-identical to the reference no matter how many threads
//!   or shards run (differential proptests below pin this). One sweep
//!   evaluates one removal order; Fig. 15's instance and AS orders are two
//!   sweeps.
//!
//! [`AvailabilitySweep::monte_carlo`] places explicit random replicas
//! instead of taking the expectation. Its walk is the one the
//! capacity-weighted evaluator ([`crate::weighted`]) runs too, with an
//! alias-table draw and a draw cap in place of the uniform draw.

use crate::content::ContentView;
use fediscope_graph::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replication strategy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Home instance only.
    NoReplication,
    /// Home + every follower instance (persistent + globally indexed).
    Subscription,
    /// Home + `n` uniformly random instances per toot.
    Random {
        /// Replica count.
        n: usize,
    },
}

/// One point of an availability curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityPoint {
    /// Instances (or groups) removed so far.
    pub removed: usize,
    /// Fraction of toots still available, in `[0, 1]`.
    pub availability: f64,
}

/// Map each instance to the 1-based step at which it is removed
/// (`usize::MAX` = never). Steps come from a grouped order: group `g`
/// (0-based) is removed at step `g + 1`.
fn removal_steps(n_instances: usize, groups: &[Vec<u32>]) -> Vec<usize> {
    let mut step = vec![usize::MAX; n_instances];
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            // first group wins if an instance appears twice
            if step[m as usize] == usize::MAX {
                step[m as usize] = g + 1;
            }
        }
    }
    step
}

/// A removal schedule compiled for repeated evaluation: the per-instance
/// death step plus the cumulative removed-instance count after each step.
///
/// Built from a grouped order ([`RemovalPlan::from_groups`], one group per
/// step, as in AS-failure sweeps); a flat instance order is the special
/// case of one-member groups ([`singleton_groups`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RemovalPlan {
    /// 1-based step at which each instance dies; `u32::MAX` = never. `u32`
    /// keeps the table half the size of the reference evaluator's — at the
    /// `modern` tier it stays cache-resident under the holder walk's
    /// random access pattern.
    steps: Vec<u32>,
    /// `removed_prefix[k]`: instances removed after step `k` (duplicated
    /// members count once per listing, mirroring the reference evaluator).
    removed_prefix: Vec<usize>,
    /// Instances that are ever removed (ascending, deduplicated) —
    /// compiled here once so every evaluation (batched sweep, Monte-Carlo)
    /// starts from the list directly instead of re-filtering all
    /// `n_instances` per call.
    removed: Vec<u32>,
}

/// Sentinel step for instances that are never removed.
pub(crate) const NEVER: u32 = u32::MAX;

impl RemovalPlan {
    /// Compile a grouped order: group `g`'s members are all removed at step
    /// `g + 1` (first listing wins for instances appearing twice).
    pub fn from_groups(n_instances: usize, groups: &[Vec<u32>]) -> Self {
        assert!(
            groups.len() < NEVER as usize,
            "too many groups for u32 steps"
        );
        let mut steps = vec![NEVER; n_instances];
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                if steps[m as usize] == NEVER {
                    steps[m as usize] = g as u32 + 1;
                }
            }
        }
        let mut removed_prefix = Vec::with_capacity(groups.len() + 1);
        let mut acc = 0usize;
        removed_prefix.push(0);
        for g in groups {
            acc += g.len();
            removed_prefix.push(acc);
        }
        let removed = (0..n_instances as u32)
            .filter(|&i| steps[i as usize] != NEVER)
            .collect();
        RemovalPlan {
            steps,
            removed_prefix,
            removed,
        }
    }

    /// Number of removal steps.
    pub fn n_steps(&self) -> usize {
        self.removed_prefix.len() - 1
    }

    /// Instances removed at any step (ascending, deduplicated).
    pub fn removed_instances(&self) -> &[u32] {
        &self.removed
    }

    /// Per-instance death step table (`u32::MAX` = never removed), for
    /// in-crate evaluators built on the same plan compilation.
    pub(crate) fn steps(&self) -> &[u32] {
        &self.steps
    }
}

/// All curves produced by one [`AvailabilitySweep::evaluate`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityBatch {
    /// [`Strategy::NoReplication`] curve.
    pub none: Vec<AvailabilityPoint>,
    /// [`Strategy::Subscription`] curve.
    pub subscription: Vec<AvailabilityPoint>,
    /// `(n, curve)` for each requested [`Strategy::Random`] replica count.
    pub random: Vec<(usize, Vec<AvailabilityPoint>)>,
}

/// Users per shard for the batched scan and the Monte-Carlo evaluator.
/// Fixed (not thread-count-derived) so the shard layout never varies; the
/// merged histograms are exact integer sums either way, so this constant
/// only affects scheduling, never output.
pub(crate) const EVAL_CHUNK_USERS: usize = 65_536;

/// The batched availability engine: one compiled [`RemovalPlan`] evaluated
/// for every strategy in a single sharded pass over the users.
pub struct AvailabilitySweep<'v> {
    view: &'v ContentView,
    plan: RemovalPlan,
}

impl<'v> AvailabilitySweep<'v> {
    /// Sweep a flat instance order (one instance per step).
    pub fn singletons(view: &'v ContentView, order: &[u32]) -> Self {
        Self::grouped(view, &singleton_groups(order))
    }

    /// Sweep a grouped order (one group — e.g. one AS — per step).
    pub fn grouped(view: &'v ContentView, groups: &[Vec<u32>]) -> Self {
        AvailabilitySweep {
            view,
            plan: RemovalPlan::from_groups(view.n_instances, groups),
        }
    }

    /// Evaluate every strategy in one pass: the no-replication and
    /// subscription curves plus one exact-expectation curve per entry of
    /// `random_ns`.
    ///
    /// One scan folds each user's home death step (no-replication *and* the
    /// shared input of every random curve) and subscription death step
    /// (max over the CSR holder slice, short-circuited on the first
    /// surviving holder) into two `u64` histograms; the scan is sharded
    /// over users via [`par::parallel_map`] and merged with exact integer
    /// adds, so output is independent of thread and shard count.
    pub fn evaluate(&self, random_ns: &[usize]) -> AvailabilityBatch {
        let (view, plan) = (self.view, &self.plan);
        let (home_death, sub_death) = self.death_histograms();
        let n_steps = plan.n_steps();
        let total = view.total_toots.max(1) as f64;
        let to_f64 = |h: &[u64]| h.iter().map(|&v| v as f64).collect::<Vec<f64>>();
        AvailabilityBatch {
            none: fold_availability(&to_f64(&home_death), n_steps, total),
            subscription: fold_availability(&to_f64(&sub_death), n_steps, total),
            random: random_ns
                .iter()
                .map(|&n| (n, random_curve_from_home_deaths(view, plan, &home_death, n)))
                .collect(),
        }
    }

    /// The sharded scan: returns `(home_death, sub_death)` histograms of
    /// toot mass indexed by death step.
    ///
    /// The scan is *inverted*: only users homed on a **removed** instance
    /// can lose their toots under either strategy, so it walks the
    /// resident-arena segments of the plan's precompiled removed list
    /// instead of the whole population — sublinear in users whenever the
    /// removal order is a prefix of the network. Histograms are `u64`
    /// (toot counts are integral), so shard merging is exact and the
    /// result is independent of shard layout and thread count.
    fn death_histograms(&self) -> (Vec<u64>, Vec<u64>) {
        let view = self.view;
        let steps = &self.plan.steps[..];
        let n_steps = self.plan.n_steps();
        let removed = &self.plan.removed[..];
        let shards = instance_shards(view, removed, EVAL_CHUNK_USERS);
        let partials = par::parallel_map(&shards, |&(lo, hi)| {
            let mut home_death = vec![0u64; n_steps + 2];
            let mut sub_death = vec![0u64; n_steps + 2];
            for &inst in &removed[lo..hi] {
                let home_step = steps[inst as usize];
                // Walk the instance's resident-arena segment: toot counts
                // and holder slices stream sequentially (home-major
                // layout), and zero-toot users are already excluded.
                let (rlo, rhi) = (
                    view.res_bounds[inst as usize] as usize,
                    view.res_bounds[inst as usize + 1] as usize,
                );
                // Every resident loses its home at the same step — fold
                // the mass locally, one histogram add per segment.
                let mut seg_toots = 0u64;
                for row in rlo..rhi {
                    let toots = view.res_toots[row];
                    seg_toots += toots;
                    // Subscription death = max step over home + holders;
                    // any surviving holder (step NEVER) keeps the toot, so
                    // the scan stops at the first one.
                    let mut death = home_step;
                    let mut all_gone = true;
                    for &f in &view.res_holder_data[view.res_holder_offsets[row] as usize
                        ..view.res_holder_offsets[row + 1] as usize]
                    {
                        let s = steps[f as usize];
                        if s == NEVER {
                            all_gone = false;
                            break;
                        }
                        death = death.max(s);
                    }
                    if all_gone {
                        sub_death[death as usize] += toots;
                    }
                }
                home_death[home_step as usize] += seg_toots;
            }
            (home_death, sub_death)
        });
        let mut home_death = vec![0u64; n_steps + 2];
        let mut sub_death = vec![0u64; n_steps + 2];
        for (h, s) in partials {
            for (acc, v) in home_death.iter_mut().zip(&h) {
                *acc += v;
            }
            for (acc, v) in sub_death.iter_mut().zip(&s) {
                *acc += v;
            }
        }
        (home_death, sub_death)
    }

    /// Monte-Carlo evaluation of random replication with explicit per-toot
    /// placements — see [`random_monte_carlo_curve`] for semantics. Runs
    /// sharded with the default chunk size.
    pub fn monte_carlo(&self, n: usize, toot_cap: u32, seed: u64) -> Vec<AvailabilityPoint> {
        self.monte_carlo_chunked(n, toot_cap, seed, EVAL_CHUNK_USERS)
    }

    /// [`Self::monte_carlo`] with an explicit shard size (resident rows
    /// per shard), so tests can pin 1-shard ≡ N-shard equality.
    fn monte_carlo_chunked(
        &self,
        n: usize,
        toot_cap: u32,
        seed: u64,
        chunk_rows: usize,
    ) -> Vec<AvailabilityPoint> {
        let n_inst = self.view.n_instances as u32;
        self.placement_walk(n, toot_cap, seed, chunk_rows, None, |rng| {
            rng.gen_range(0..n_inst)
        })
    }

    /// The Monte-Carlo walk shared by the uniform and the capacity-weighted
    /// evaluators: each sampled toot of each user homed on a removed
    /// instance gets up to `n` distinct replicas, each drawn by `draw`, and
    /// dies at the latest death step among its home and replicas.
    /// `max_draws` caps the draws per toot (`None`: draw until `n` distinct
    /// replicas are found), so a sampler that can reach fewer than `n`
    /// instances terminates with a short replica set.
    ///
    /// The walk is *inverted* onto the resident arena: only users homed
    /// on a removed instance can lose a placement race, so the scan
    /// iterates the plan's removed instances' resident segments
    /// (sequential toot counts + user ids) instead of testing every user
    /// in the population — sublinear in users for any realistic removal
    /// prefix.
    ///
    /// Output is **independent of `chunk_rows`**: each user draws from its
    /// own counter-derived RNG stream and contributes integral toot mass to
    /// a `u64` histogram, so shard merging is exact in any order.
    pub(crate) fn placement_walk<D>(
        &self,
        n: usize,
        toot_cap: u32,
        seed: u64,
        chunk_rows: usize,
        max_draws: Option<usize>,
        draw: D,
    ) -> Vec<AvailabilityPoint>
    where
        D: Fn(&mut StdRng) -> u32 + Sync,
    {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        assert!(toot_cap > 0, "toot_cap must be positive");
        let view = self.view;
        let steps = &self.plan.steps[..];
        let n_steps = self.plan.n_steps();
        let n_inst = view.n_instances;
        let target = n.min(n_inst);
        let max_draws = max_draws.unwrap_or(usize::MAX);
        let removed = &self.plan.removed[..];
        let shards = instance_shards(view, removed, chunk_rows);

        let partials = par::parallel_map(&shards, |&(lo, hi)| {
            let mut death = vec![0u64; n_steps + 2];
            // Stamped scratch: `stamp[i] == epoch` marks instance i as
            // already picked for the current sample — O(1) distinctness
            // instead of a linear `contains` over a per-sample Vec.
            let mut stamp = vec![0u64; n_inst];
            let mut epoch = 0u64;
            for &inst in &removed[lo..hi] {
                // Every resident's home dies at this step; the arena rows
                // carry exactly the tooting users (zero-toot users hold
                // no mass and are already excluded).
                let home_step = steps[inst as usize] as usize;
                let (rlo, rhi) = (
                    view.res_bounds[inst as usize] as usize,
                    view.res_bounds[inst as usize + 1] as usize,
                );
                for row in rlo..rhi {
                    let toots = view.res_toots[row];
                    // Counter-derived per-user stream: placement draws do
                    // not depend on which shard (or thread) processes the
                    // user — and match the former full-population scan
                    // stream for stream.
                    let mut rng = user_stream_rng(seed, view.res_users[row] as usize);
                    let samples = toots.min(toot_cap as u64);
                    // Integral weights: sample j stands for base (+1 for
                    // the first `rem` samples) real toots, so histogram
                    // mass stays integer-exact under any accumulation
                    // order.
                    let base = toots / samples;
                    let rem = toots % samples;
                    for j in 0..samples {
                        epoch += 1;
                        let mut dead_step = home_step;
                        let mut picked = 0usize;
                        let mut draws = 0usize;
                        while picked < target && draws < max_draws {
                            let cand = draw(&mut rng) as usize;
                            draws += 1;
                            if stamp[cand] != epoch {
                                stamp[cand] = epoch;
                                picked += 1;
                                let s = steps[cand] as usize;
                                if s > dead_step {
                                    dead_step = s;
                                }
                            }
                        }
                        if dead_step <= n_steps {
                            death[dead_step] += base + u64::from(j < rem);
                        }
                    }
                }
            }
            death
        });
        let mut death = vec![0u64; n_steps + 2];
        for h in partials {
            for (acc, v) in death.iter_mut().zip(&h) {
                *acc += v;
            }
        }
        let total = view.total_toots.max(1) as f64;
        let death_f: Vec<f64> = death.iter().map(|&v| v as f64).collect();
        fold_availability(&death_f, n_steps, total)
    }
}

/// Shard ranges over a removed-instance list, split at instance
/// boundaries so each shard covers roughly `chunk_rows` resident rows.
/// Layout depends only on the view, the list, and the chunk target —
/// never on the thread count (and the merged histograms are exact
/// integer sums, so the layout could not change output even if it did).
pub(crate) fn instance_shards(
    view: &ContentView,
    removed: &[u32],
    chunk_rows: usize,
) -> Vec<(usize, usize)> {
    let mut shards = Vec::new();
    let mut lo = 0usize;
    let mut rows = 0usize;
    for (k, &inst) in removed.iter().enumerate() {
        let i = inst as usize;
        rows += (view.res_bounds[i + 1] - view.res_bounds[i]) as usize;
        if rows >= chunk_rows {
            shards.push((lo, k + 1));
            lo = k + 1;
            rows = 0;
        }
    }
    if lo < removed.len() {
        shards.push((lo, removed.len()));
    }
    shards
}

/// Exact random-replication expectation from the shared home-death
/// histogram — term-for-term the same float sequence as the reference
/// evaluator, so the curves match bit-for-bit.
fn random_curve_from_home_deaths(
    view: &ContentView,
    plan: &RemovalPlan,
    home_death: &[u64],
    n: usize,
) -> Vec<AvailabilityPoint> {
    let n_steps = plan.n_steps();
    let total = view.total_toots.max(1) as f64;
    let i_total = view.n_instances;
    let mut homeless = 0u64;
    let mut out = Vec::with_capacity(n_steps + 1);
    out.push(AvailabilityPoint {
        removed: 0,
        availability: 1.0,
    });
    for (k, &dead) in home_death.iter().enumerate().take(n_steps + 1).skip(1) {
        let removed_count = plan.removed_prefix[k];
        homeless += dead;
        let mut p_all_gone = 1.0f64;
        // More replicas than instances means one on every instance.
        for i in 0..n.min(i_total) {
            let num = removed_count.saturating_sub(i) as f64;
            let den = (i_total - i).max(1) as f64;
            p_all_gone *= (num / den).clamp(0.0, 1.0);
        }
        let expected_lost = homeless as f64 * p_all_gone;
        out.push(AvailabilityPoint {
            removed: k,
            availability: 1.0 - expected_lost / total,
        });
    }
    out
}

/// The RNG stream for user `u`: a golden-ratio counter mix feeding the
/// SplitMix64 expansion inside `seed_from_u64`, so streams are
/// decorrelated and depend only on `(seed, u)` — never on scheduling.
/// Shared with the capacity-weighted evaluator (`weighted.rs`) so both
/// Monte-Carlo engines draw from the same per-user streams.
pub(crate) fn user_stream_rng(seed: u64, u: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (u as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Exact availability curve for [`Strategy::NoReplication`] and
/// [`Strategy::Subscription`], and the exact *expectation* for
/// [`Strategy::Random`] (over the per-toot placement randomness).
///
/// `groups`: removal sequence; element `g` lists the instances removed at
/// step `g + 1`. Returns one point per step, including a step-0 baseline.
///
/// This is the naive reference engine — one full pass per strategy. The
/// batched [`AvailabilitySweep`] produces bit-identical curves for every
/// strategy in a single pass; this path is kept as the differential
/// baseline.
pub fn availability_curve(
    view: &ContentView,
    strategy: Strategy,
    groups: &[Vec<u32>],
) -> Vec<AvailabilityPoint> {
    match strategy {
        Strategy::Random { n } => random_expectation_curve(view, n, groups),
        _ => exact_curve(view, strategy, groups),
    }
}

/// Fold per-step lost-toot masses into a cumulative availability curve:
/// point 0 is the intact network, point `k` subtracts all mass whose death
/// step is `<= k`. `death[k]` is the mass first lost at step `k`; entries
/// past `steps` are ignored. Masses are integral toot counts (well below
/// 2^53), so f64 accumulation is exact.
pub(crate) fn fold_availability(death: &[f64], steps: usize, total: f64) -> Vec<AvailabilityPoint> {
    let mut lost = 0.0;
    let mut out = Vec::with_capacity(steps + 1);
    out.push(AvailabilityPoint {
        removed: 0,
        availability: 1.0,
    });
    for (k, &dead) in death.iter().enumerate().take(steps + 1).skip(1) {
        lost += dead;
        out.push(AvailabilityPoint {
            removed: k,
            availability: 1.0 - lost / total,
        });
    }
    out
}

fn exact_curve(
    view: &ContentView,
    strategy: Strategy,
    groups: &[Vec<u32>],
) -> Vec<AvailabilityPoint> {
    let steps = removal_steps(view.n_instances, groups);
    // death step per user: all holders removed
    // availability(k) = 1 - sum_{death <= k} toots / total
    let mut death_toots = vec![0.0f64; groups.len() + 2]; // index by step
    for u in 0..view.n_users() {
        let home_step = steps[view.home[u] as usize];
        let death = match strategy {
            Strategy::NoReplication => home_step,
            Strategy::Subscription => {
                let mut death = home_step;
                for &f in view.follower_instances(u) {
                    death = death.max(steps[f as usize]);
                }
                death
            }
            Strategy::Random { .. } => unreachable!("handled elsewhere"),
        };
        if death != usize::MAX && death <= groups.len() {
            death_toots[death] += view.toots[u] as f64;
        }
    }
    let total = view.total_toots.max(1) as f64;
    fold_availability(&death_toots, groups.len(), total)
}

/// Exact expectation for random replication: a toot with a removed home
/// survives unless all `n` replicas (uniform without replacement over all
/// instances) are inside the removed set — a hypergeometric zero-overlap
/// complement.
fn random_expectation_curve(
    view: &ContentView,
    n: usize,
    groups: &[Vec<u32>],
) -> Vec<AvailabilityPoint> {
    let steps = removal_steps(view.n_instances, groups);
    // toots whose home dies at step k
    let mut home_death_toots = vec![0u64; groups.len() + 2];
    for u in 0..view.n_users() {
        let s = steps[view.home[u] as usize];
        if s != usize::MAX && s <= groups.len() {
            home_death_toots[s] += view.toots[u];
        }
    }
    let total = view.total_toots.max(1) as f64;
    let i_total = view.n_instances;
    let mut removed_count = 0usize;
    let mut homeless = 0u64; // toots with removed homes so far
    let mut out = Vec::with_capacity(groups.len() + 1);
    out.push(AvailabilityPoint {
        removed: 0,
        availability: 1.0,
    });
    for k in 1..=groups.len() {
        removed_count += groups[k - 1].len();
        homeless += home_death_toots[k];
        // P(all n replicas fall in the removed set); more replicas than
        // instances means one on every instance.
        let mut p_all_gone = 1.0f64;
        for i in 0..n.min(i_total) {
            let num = removed_count.saturating_sub(i) as f64;
            let den = (i_total - i).max(1) as f64;
            p_all_gone *= (num / den).clamp(0.0, 1.0);
        }
        let expected_lost = homeless as f64 * p_all_gone;
        out.push(AvailabilityPoint {
            removed: k,
            availability: 1.0 - expected_lost / total,
        });
    }
    out
}

/// Monte-Carlo evaluation of random replication with explicit per-toot
/// placements (exercises the real code path; used to validate the
/// expectation and by the DHT-backed write-path demo). `toot_cap` bounds
/// the sampled toots per user; the remaining toots ride the sampled
/// placements with integral weights (`⌈toots/samples⌉` on the first
/// `toots % samples` draws, `⌊toots/samples⌋` after — a documented
/// approximation that keeps the histogram integer-exact).
///
/// Each user draws from its own counter-derived RNG stream, so the
/// evaluation shards over users with seed-stable, shard-count-independent
/// output (see [`AvailabilitySweep::monte_carlo`]).
pub fn random_monte_carlo_curve(
    view: &ContentView,
    n: usize,
    groups: &[Vec<u32>],
    toot_cap: u32,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    AvailabilitySweep::grouped(view, groups).monte_carlo(n, toot_cap, seed)
}

/// Turn a flat instance order into single-member groups: step `g + 1`
/// removes `order[g]` alone. Both engines take orders in this shape
/// ([`AvailabilitySweep::singletons`] builds it from the flat order).
pub fn singleton_groups(order: &[u32]) -> Vec<Vec<u32>> {
    order.iter().map(|&i| vec![i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn view() -> ContentView {
        let mut cfg = WorldConfig::tiny(41);
        cfg.n_instances = 40;
        cfg.n_users = 1200;
        ContentView::from_world(&Generator::generate_world(cfg))
    }

    /// Removal order: by per-instance toot volume, descending.
    fn toot_order(v: &ContentView) -> Vec<u32> {
        let mut toots = vec![0u64; v.n_instances];
        for u in 0..v.n_users() {
            toots[v.home[u] as usize] += v.toots[u];
        }
        let mut order: Vec<u32> = (0..v.n_instances as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(toots[i as usize]));
        order
    }

    #[test]
    fn baseline_is_full_availability() {
        let v = view();
        let groups = singleton_groups(&toot_order(&v)[..10]);
        for strat in [
            Strategy::NoReplication,
            Strategy::Subscription,
            Strategy::Random { n: 2 },
        ] {
            let curve = availability_curve(&v, strat, &groups);
            assert_eq!(curve[0].availability, 1.0);
            assert_eq!(curve.len(), 11);
        }
    }

    #[test]
    fn availability_monotone_decreasing() {
        let v = view();
        let groups = singleton_groups(&toot_order(&v));
        for strat in [
            Strategy::NoReplication,
            Strategy::Subscription,
            Strategy::Random { n: 3 },
        ] {
            let curve = availability_curve(&v, strat, &groups);
            for w in curve.windows(2) {
                assert!(
                    w[1].availability <= w[0].availability + 1e-12,
                    "{strat:?} not monotone"
                );
            }
        }
    }

    #[test]
    fn strategy_ordering_no_rep_worst() {
        let v = view();
        let groups = singleton_groups(&toot_order(&v)[..10]);
        let none = availability_curve(&v, Strategy::NoReplication, &groups);
        let sub = availability_curve(&v, Strategy::Subscription, &groups);
        let rnd = availability_curve(&v, Strategy::Random { n: 3 }, &groups);
        for k in 1..=10 {
            assert!(
                sub[k].availability >= none[k].availability - 1e-12,
                "subscription must dominate no-replication"
            );
            assert!(
                rnd[k].availability >= none[k].availability - 1e-12,
                "random must dominate no-replication"
            );
        }
        // the paper's headline: removing the top instances kills the
        // no-replication world but barely dents the replicated ones
        assert!(none[10].availability < sub[10].availability);
    }

    #[test]
    fn random_monotone_in_n() {
        let v = view();
        let groups = singleton_groups(&toot_order(&v)[..15]);
        let mut prev: Option<Vec<AvailabilityPoint>> = None;
        for n in [1usize, 2, 4, 7] {
            let curve = availability_curve(&v, Strategy::Random { n }, &groups);
            if let Some(p) = &prev {
                for k in 0..curve.len() {
                    assert!(
                        curve[k].availability >= p[k].availability - 1e-12,
                        "more replicas must not hurt (n={n}, k={k})"
                    );
                }
            }
            prev = Some(curve);
        }
    }

    #[test]
    fn removing_everything_kills_everything() {
        let v = view();
        let all: Vec<u32> = (0..v.n_instances as u32).collect();
        let groups = vec![all]; // one giant group
        for strat in [
            Strategy::NoReplication,
            Strategy::Subscription,
            Strategy::Random { n: 4 },
        ] {
            let curve = availability_curve(&v, strat, &groups);
            assert!(
                curve[1].availability.abs() < 1e-9,
                "{strat:?} availability {} after total removal",
                curve[1].availability
            );
        }
    }

    #[test]
    fn monte_carlo_matches_expectation() {
        let v = view();
        let groups = singleton_groups(&toot_order(&v)[..12]);
        let n = 2;
        let exact = availability_curve(&v, Strategy::Random { n }, &groups);
        let mc = random_monte_carlo_curve(&v, n, &groups, 32, 99);
        for k in 0..exact.len() {
            assert!(
                (exact[k].availability - mc[k].availability).abs() < 0.05,
                "k={k}: exact {} vs mc {}",
                exact[k].availability,
                mc[k].availability
            );
        }
    }

    #[test]
    fn grouped_as_removal_is_harsher_than_single() {
        let v = view();
        let order = toot_order(&v);
        // group the top 10 into 2 "ASes" of 5 vs removing 2 single instances
        let grouped = vec![order[..5].to_vec(), order[5..10].to_vec()];
        let single = singleton_groups(&order[..2]);
        let g = availability_curve(&v, Strategy::NoReplication, &grouped);
        let s = availability_curve(&v, Strategy::NoReplication, &single);
        assert!(g[2].availability <= s[2].availability + 1e-12);
    }

    #[test]
    fn duplicate_instance_in_groups_ignored() {
        let v = view();
        let groups = vec![vec![0u32], vec![0u32, 1]];
        let curve = availability_curve(&v, Strategy::NoReplication, &groups);
        assert_eq!(curve.len(), 3);
        for w in curve.windows(2) {
            assert!(w[1].availability <= w[0].availability + 1e-12);
        }
    }

    #[test]
    fn batched_sweep_matches_naive_on_flat_order() {
        let v = view();
        let order = toot_order(&v);
        let groups = singleton_groups(&order[..20]);
        let ns = [1usize, 2, 3, 4, 7, 9];
        let batch = AvailabilitySweep::singletons(&v, &order[..20]).evaluate(&ns);
        assert_eq!(
            batch.none,
            availability_curve(&v, Strategy::NoReplication, &groups)
        );
        assert_eq!(
            batch.subscription,
            availability_curve(&v, Strategy::Subscription, &groups)
        );
        for (n, curve) in &batch.random {
            assert_eq!(
                curve,
                &availability_curve(&v, Strategy::Random { n: *n }, &groups),
                "n={n}"
            );
        }
    }

    #[test]
    fn batched_sweep_matches_naive_on_groups() {
        let v = view();
        let order = toot_order(&v);
        let groups = vec![
            order[..5].to_vec(),
            order[5..7].to_vec(),
            order[7..16].to_vec(),
        ];
        let batch = AvailabilitySweep::grouped(&v, &groups).evaluate(&[2, 5]);
        assert_eq!(
            batch.none,
            availability_curve(&v, Strategy::NoReplication, &groups)
        );
        assert_eq!(
            batch.subscription,
            availability_curve(&v, Strategy::Subscription, &groups)
        );
        for (n, curve) in &batch.random {
            assert_eq!(
                curve,
                &availability_curve(&v, Strategy::Random { n: *n }, &groups)
            );
        }
    }

    #[test]
    fn plan_removed_instances_are_sorted_unique() {
        let v = view();
        let order = toot_order(&v);
        let mut with_dup = order[..10].to_vec();
        with_dup.push(order[3]);
        let plan = RemovalPlan::from_groups(v.n_instances, &singleton_groups(&with_dup));
        let removed = plan.removed_instances();
        assert_eq!(removed.len(), 10);
        assert!(removed.windows(2).all(|w| w[0] < w[1]));
        let mut expect = order[..10].to_vec();
        expect.sort_unstable();
        assert_eq!(removed, &expect[..]);
    }

    #[test]
    fn monte_carlo_shard_count_invariant() {
        let v = view();
        let order = toot_order(&v);
        let sweep = AvailabilitySweep::singletons(&v, &order[..12]);
        let one = sweep.monte_carlo_chunked(2, 16, 77, usize::MAX);
        let many = sweep.monte_carlo_chunked(2, 16, 77, 37);
        let tiny = sweep.monte_carlo_chunked(2, 16, 77, 1);
        assert_eq!(one, many);
        assert_eq!(one, tiny);
    }

    #[test]
    fn monte_carlo_integral_weights_cover_all_toots() {
        // Removing every instance must lose exactly the total mass: the
        // integral per-sample weights must sum to each user's toot count.
        let v = view();
        let all: Vec<u32> = (0..v.n_instances as u32).collect();
        let sweep = AvailabilitySweep::singletons(&v, &all);
        let curve = sweep.monte_carlo(3, 7, 5);
        assert!(
            curve.last().unwrap().availability.abs() < 1e-9,
            "all mass must be lost: {}",
            curve.last().unwrap().availability
        );
    }

    #[test]
    fn empty_order_is_baseline_only() {
        let v = view();
        let batch = AvailabilitySweep::singletons(&v, &[]).evaluate(&[3]);
        assert_eq!(batch.none.len(), 1);
        assert_eq!(batch.none[0].availability, 1.0);
        assert_eq!(batch.subscription.len(), 1);
        assert_eq!(batch.random[0].1.len(), 1);
    }

    #[test]
    fn random_n_above_instance_count_places_one_replica_everywhere() {
        let mut cfg = WorldConfig::tiny(41);
        cfg.n_instances = 20;
        cfg.n_users = 300;
        let v = ContentView::from_world(&Generator::generate_world(cfg));
        let all: Vec<u32> = (0..v.n_instances as u32).collect();
        let groups = singleton_groups(&all);
        let every = availability_curve(&v, Strategy::Random { n: 20 }, &groups);
        assert_eq!(every.last().unwrap().availability, 0.0);
        let sweep = AvailabilitySweep::singletons(&v, &all);
        assert_eq!(
            sweep.monte_carlo(21, 4, 3).last().unwrap().availability,
            0.0
        );
        let batch = sweep.evaluate(&[21, 22]);
        for (n, curve) in &batch.random {
            let reference = availability_curve(&v, Strategy::Random { n: *n }, &groups);
            assert_eq!(reference, every, "reference n={n}");
            assert_eq!(curve, &every, "batched n={n}");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    // the proptest prelude also exports a `Strategy` trait; the explicit
    // import keeps the replication enum in scope
    use super::Strategy;
    use fediscope_worldgen::{Generator, WorldConfig};
    use proptest::prelude::*;

    /// Random worlds × random (possibly duplicated) removal orders ×
    /// grouped/singleton shapes: the batched sweep must be bit-identical
    /// to the naive per-strategy reference for every strategy at once.
    fn tiny_view(seed: u64) -> ContentView {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 24;
        cfg.n_users = 300;
        ContentView::from_world(&Generator::generate_world(cfg))
    }

    /// Chop `order` into groups at the given (sorted, deduped) cut points.
    fn chop(order: &[u32], cuts: &[usize]) -> Vec<Vec<u32>> {
        let mut groups = Vec::new();
        let mut lo = 0usize;
        for &c in cuts {
            let hi = c.min(order.len());
            if hi > lo {
                groups.push(order[lo..hi].to_vec());
            }
            lo = hi.max(lo);
        }
        if lo < order.len() {
            groups.push(order[lo..].to_vec());
        }
        groups
    }

    proptest! {
        #[test]
        fn batched_bit_identical_to_naive(
            seed in 0u64..1000,
            order in proptest::collection::vec(0u32..24, 0..40),
            mut cuts in proptest::collection::vec(0usize..40, 0..6),
            grouped in any::<bool>(),
        ) {
            let v = tiny_view(seed);
            let groups = if grouped {
                cuts.sort_unstable();
                cuts.dedup();
                chop(&order, &cuts)
            } else {
                singleton_groups(&order)
            };
            let sweep = if grouped {
                AvailabilitySweep::grouped(&v, &groups)
            } else {
                AvailabilitySweep::singletons(&v, &order)
            };
            let ns = [1usize, 3, 9];
            let batch = sweep.evaluate(&ns);
            prop_assert_eq!(
                &batch.none,
                &availability_curve(&v, Strategy::NoReplication, &groups)
            );
            prop_assert_eq!(
                &batch.subscription,
                &availability_curve(&v, Strategy::Subscription, &groups)
            );
            for (n, curve) in &batch.random {
                prop_assert_eq!(
                    curve,
                    &availability_curve(&v, Strategy::Random { n: *n }, &groups)
                );
            }
        }

        #[test]
        fn monte_carlo_shard_invariance(
            seed in 0u64..1000,
            mc_seed in any::<u64>(),
            k in 1usize..20,
            chunk in 1usize..64,
        ) {
            let v = tiny_view(seed);
            let order: Vec<u32> = (0..k as u32).collect();
            let sweep = AvailabilitySweep::singletons(&v, &order);
            let sharded = sweep.monte_carlo_chunked(2, 8, mc_seed, chunk);
            let serial = sweep.monte_carlo_chunked(2, 8, mc_seed, usize::MAX);
            prop_assert_eq!(sharded, serial);
        }

        /// The inverted (resident-arena) Monte-Carlo walk reproduces the
        /// pre-inversion full-population scan bit-for-bit: same per-user
        /// RNG streams, same integral weights, just without visiting the
        /// users that cannot lose anything.
        #[test]
        fn monte_carlo_inversion_equals_full_scan(
            seed in 0u64..500,
            mc_seed in any::<u64>(),
            order in proptest::collection::vec(0u32..24, 1..24),
            n in 1usize..4,
        ) {
            let v = tiny_view(seed);
            let sweep = AvailabilitySweep::singletons(&v, &order);

            // Reference: the former evaluator's shape — scan *every*
            // user, skip the ones whose home survives.
            let plan = RemovalPlan::from_groups(v.n_instances, &singleton_groups(&order));
            let n_steps = plan.n_steps();
            let n_inst = v.n_instances;
            let target = n.min(n_inst);
            let toot_cap = 8u32;
            let mut death = vec![0u64; n_steps + 2];
            let mut stamp = vec![0u64; n_inst];
            let mut epoch = 0u64;
            for u in 0..v.n_users() {
                let toots = v.toots[u];
                if toots == 0 {
                    continue;
                }
                let home_step = plan.steps[v.home[u] as usize] as usize;
                if home_step > n_steps {
                    continue;
                }
                let mut rng = user_stream_rng(mc_seed, u);
                let samples = toots.min(toot_cap as u64);
                let base = toots / samples;
                let rem = toots % samples;
                for j in 0..samples {
                    epoch += 1;
                    let mut dead_step = home_step;
                    let mut picked = 0usize;
                    while picked < target {
                        let cand = rng.gen_range(0..n_inst as u32) as usize;
                        if stamp[cand] != epoch {
                            stamp[cand] = epoch;
                            picked += 1;
                            let s = plan.steps[cand] as usize;
                            if s > dead_step {
                                dead_step = s;
                            }
                        }
                    }
                    if dead_step <= n_steps {
                        death[dead_step] += base + u64::from(j < rem);
                    }
                }
            }
            let total = v.total_toots.max(1) as f64;
            let death_f: Vec<f64> = death.iter().map(|&x| x as f64).collect();
            let reference = fold_availability(&death_f, n_steps, total);

            let inverted = sweep.monte_carlo(n, toot_cap, mc_seed);
            prop_assert_eq!(inverted, reference);
        }
    }
}
