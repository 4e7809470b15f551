//! Correlated-failure scenario engine: shared-fate cascades × replication
//! strategies in one sharded sweep (ROADMAP item 4).
//!
//! The paper's §5 sweeps remove instances uniformly, randomly, or by AS
//! group — but its own warning is about *correlated* failure: hosting
//! concentration makes AS- and hoster-level shared fate the realistic
//! threat, and the Fig. 9 cert-expiry outages are cascades that take many
//! instances down on a calendar schedule. This module compiles declarative
//! [`ScenarioSpec`]s into the same [`RemovalPlan`] representation the §5
//! sweeps use, layers richer placement strategies ([`ScenarioStrategy`])
//! on top of the No-Rep/S-Rep/Random set, and evaluates the whole
//! strategy × scenario product in **one** sharded pass over the
//! [`ContentView`]'s resident arena — integer histograms per shard,
//! exact integer merges, so output is bit-identical at any shard or
//! thread count (differential proptests below pin this against the kept
//! naive per-scenario reference, [`naive_grid`]).
//!
//! The output is a "replication strategy frontier" [`Grid`]: per scenario
//! (rows) and strategy (columns), final availability vs storage cost.

use crate::content::ContentView;
use crate::eval::{instance_shards, user_stream_rng, RemovalPlan, NEVER};
use fediscope_graph::par;
use fediscope_model::certs::LapseBitset;
use fediscope_model::geo::Country;
use fediscope_model::instance::Instance;
use fediscope_model::schedule::OutageCause;
use fediscope_model::time::{Day, WINDOW_DAYS};
use fediscope_model::world::World;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Days an admin takes to fix a lapsed certificate (matches the worldgen
/// availability model's manual-renewal delay seed).
pub const LAPSE_FIX_DAYS: u32 = 3;

/// Resident rows per sweep shard (same budget as the §5 sweeps).
const SWEEP_CHUNK_ROWS: usize = 65_536;

// ---------------------------------------------------------------------------
// Scenario specifications
// ---------------------------------------------------------------------------

/// A declarative correlated-failure process. Compilation ([`compile`])
/// turns a spec plus a [`ScenarioWorld`] into a stepped [`RemovalPlan`]:
/// one shared-fate group (or cascade bucket, or churn cohort) per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioSpec {
    /// Top-`n` hosting ASes (ranked by hosted users) fail one per step —
    /// the paper's §4 concentration warning taken literally.
    AsSharedFate(u32),
    /// Top-`n` hosting providers fail one per step. Finer-grained than
    /// [`ScenarioSpec::AsSharedFate`] when an AS hosts several providers.
    HosterSharedFate(u32),
    /// Cert-expiry cascade: the window's lapse calendar (Fig. 9b, indexed
    /// as per-instance [`LapseBitset`]s) is folded into `n` equal day
    /// buckets; bucket `k` removes every instance whose *first* lapse
    /// falls in it at step `k + 1`. Auto-renewing instances never lapse.
    CertCascade(u32),
    /// Geographic wave: the top-`n` hosting countries (ranked by hosted
    /// users) go dark one per step — a region-level outage sweep.
    RegionWave(u32),
    /// Churn with rebirth over `n` steps: instances that retired during
    /// the window are removed in retirement order, folded into `n` equal
    /// cohorts — except those with a rebirth day, which are spared (a
    /// reborn instance's content comes back, including the degenerate
    /// "rebirth before removal" case).
    ChurnRebirth(u32),
}

impl ScenarioSpec {
    /// Stable label used in frontier tables and bench records.
    pub fn label(&self) -> String {
        match *self {
            ScenarioSpec::AsSharedFate(n) => format!("as-fate({n})"),
            ScenarioSpec::HosterSharedFate(n) => format!("hoster-fate({n})"),
            ScenarioSpec::CertCascade(n) => format!("cert-cascade({n})"),
            ScenarioSpec::RegionWave(n) => format!("region-wave({n})"),
            ScenarioSpec::ChurnRebirth(n) => format!("churn({n})"),
        }
    }

    /// Outage provenance tag carried into overlay arenas compiled from
    /// this scenario.
    pub fn cause(&self) -> OutageCause {
        match self {
            ScenarioSpec::CertCascade(_) => OutageCause::CertLapseCascade,
            ScenarioSpec::ChurnRebirth(_) => OutageCause::Churn,
            _ => OutageCause::SharedFate,
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario world: the failure-relevant slice of a generated world
// ---------------------------------------------------------------------------

/// Everything scenario compilation and strategy placement need to know
/// about a world, precomputed once: shared-fate groupings ranked by blast
/// radius, cert-lapse calendars, churn timelines, and locality/popularity
/// lookups.
#[derive(Debug, Clone)]
pub struct ScenarioWorld {
    /// Instance population (dense ids `0..n_instances`).
    pub n_instances: usize,
    /// Instances grouped by hosting AS, groups ranked descending by hosted
    /// users (ties: smaller AS number first), members ascending by id.
    pub as_groups: Vec<Vec<u32>>,
    /// Instances grouped by hosting provider, same ranking.
    pub hoster_groups: Vec<Vec<u32>>,
    /// Instances grouped by hosting country, same ranking.
    pub region_groups: Vec<Vec<u32>>,
    /// Per-instance cert-lapse calendar over the window (Fig. 9b bitsets).
    pub lapses: Vec<LapseBitset>,
    /// Day each instance permanently retired, if it did (from the world's
    /// availability schedules; all `None` when built from instances only).
    pub retired: Vec<Option<Day>>,
    /// Day each retired instance comes back, if it does (see
    /// [`ScenarioWorld::with_rebirth`]; default all `None`).
    pub rebirth: Vec<Option<Day>>,
    /// Hosting AS number per instance (for follower-locality placement).
    pub inst_as: Vec<u32>,
    /// Hosting country per instance.
    pub inst_country: Vec<Country>,
    /// Popularity decile per instance by local toots (0 = most popular),
    /// ties broken by id.
    pub pop_decile: Vec<u8>,
}

/// Group instances by `key`, rank groups descending by hosted users
/// (ties: ascending key), members ascending by id.
fn ranked_groups<K: Ord>(instances: &[Instance], key: impl Fn(&Instance) -> K) -> Vec<Vec<u32>> {
    let mut map: std::collections::BTreeMap<K, (u64, Vec<u32>)> = std::collections::BTreeMap::new();
    for inst in instances {
        let e = map.entry(key(inst)).or_default();
        e.0 += inst.user_count as u64;
        e.1.push(inst.id.0);
    }
    let mut groups: Vec<(u64, Vec<u32>)> = map.into_values().collect();
    // BTreeMap yields ascending keys; the stable sort keeps that order
    // within equal user totals.
    groups.sort_by_key(|g| std::cmp::Reverse(g.0));
    groups.into_iter().map(|(_, g)| g).collect()
}

impl ScenarioWorld {
    /// Build from the instance table alone. Churn timelines are empty
    /// (retirement lives in availability schedules — use
    /// [`ScenarioWorld::from_world`] when they are available), so
    /// [`ScenarioSpec::ChurnRebirth`] compiles to a plan that removes
    /// nothing.
    pub fn from_instances(instances: &[Instance]) -> Self {
        let n = instances.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            instances[b as usize]
                .toot_count
                .cmp(&instances[a as usize].toot_count)
                .then(a.cmp(&b))
        });
        let mut pop_decile = vec![0u8; n];
        for (rank, &i) in order.iter().enumerate() {
            pop_decile[i as usize] = ((rank * 10) / n.max(1)).min(9) as u8;
        }
        ScenarioWorld {
            n_instances: n,
            as_groups: ranked_groups(instances, |i| i.asn.0),
            hoster_groups: ranked_groups(instances, |i| i.provider_index),
            region_groups: ranked_groups(instances, |i| i.country),
            lapses: instances
                .iter()
                .map(|i| i.certificate.lapse_bitset(LAPSE_FIX_DAYS, WINDOW_DAYS))
                .collect(),
            retired: vec![None; n],
            rebirth: vec![None; n],
            inst_as: instances.iter().map(|i| i.asn.0).collect(),
            inst_country: instances.iter().map(|i| i.country).collect(),
            pop_decile,
        }
    }

    /// Build from a full world: instance table plus retirement days from
    /// the availability schedules.
    pub fn from_world(world: &World) -> Self {
        let mut s = Self::from_instances(&world.instances);
        s.retired = world.schedules.iter().map(|sch| sch.retired).collect();
        s
    }

    /// Attach a rebirth stream (e.g. `fediscope_worldgen::streams::rebirth_days`).
    pub fn with_rebirth(mut self, rebirth: Vec<Option<Day>>) -> Self {
        assert_eq!(rebirth.len(), self.n_instances, "rebirth stream length");
        self.rebirth = rebirth;
        self
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// A scenario compiled against one world: the stepped removal groups, the
/// [`RemovalPlan`] built from them, and display/provenance metadata.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The spec this was compiled from.
    pub spec: ScenarioSpec,
    /// Display label (`spec.label()`).
    pub label: String,
    /// Outage provenance for overlay arenas built from this scenario.
    pub cause: OutageCause,
    /// Removal groups: `groups[k]` dies at step `k + 1`. Groups are
    /// disjoint by construction and may be empty (a cascade bucket with
    /// no lapses, a churn cohort beyond the churned population).
    pub groups: Vec<Vec<u32>>,
    /// The compiled plan (`from_groups` over `groups`).
    pub plan: RemovalPlan,
}

/// Compile a [`ScenarioSpec`] against a [`ScenarioWorld`].
pub fn compile(spec: &ScenarioSpec, world: &ScenarioWorld) -> CompiledScenario {
    let groups: Vec<Vec<u32>> = match *spec {
        ScenarioSpec::AsSharedFate(n) => world.as_groups.iter().take(n as usize).cloned().collect(),
        ScenarioSpec::HosterSharedFate(n) => world
            .hoster_groups
            .iter()
            .take(n as usize)
            .cloned()
            .collect(),
        ScenarioSpec::RegionWave(n) => world
            .region_groups
            .iter()
            .take(n as usize)
            .cloned()
            .collect(),
        ScenarioSpec::CertCascade(buckets) => {
            let buckets = buckets.max(1);
            let span = WINDOW_DAYS.div_ceil(buckets);
            let mut groups = vec![Vec::new(); buckets as usize];
            for (i, bits) in world.lapses.iter().enumerate() {
                if let Some(first) = bits.first_set_at_or_after(Day(0)) {
                    groups[((first.0 / span).min(buckets - 1)) as usize].push(i as u32);
                }
            }
            groups
        }
        ScenarioSpec::ChurnRebirth(steps) => {
            let steps = steps.max(1) as usize;
            // Permanently lost = retired with no rebirth. Any rebirth day —
            // even one at or before the retirement day — spares the
            // instance: the availability model is monotone removal, and a
            // reborn instance's content is back by the end of the window.
            let mut lost: Vec<(u32, u32)> = (0..world.n_instances as u32)
                .filter_map(
                    |i| match (world.retired[i as usize], world.rebirth[i as usize]) {
                        (Some(day), None) => Some((day.0, i)),
                        _ => None,
                    },
                )
                .collect();
            lost.sort_unstable();
            let per = lost.len().div_ceil(steps).max(1);
            let mut groups = vec![Vec::new(); steps];
            for (k, &(_, i)) in lost.iter().enumerate() {
                groups[(k / per).min(steps - 1)].push(i);
            }
            groups
        }
    };
    CompiledScenario {
        spec: *spec,
        label: spec.label(),
        cause: spec.cause(),
        plan: RemovalPlan::from_groups(world.n_instances, &groups),
        groups,
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A replica-placement strategy evaluated on the frontier. The first
/// three mirror the paper's §5.2 set; the rest extend it with erasure
/// thresholds, popularity weighting, and follower locality.
///
/// Placement is a deterministic function of `(strategy, seed, user)` —
/// randomized strategies draw from the same keyed per-user stream as the
/// Monte-Carlo evaluator (`user_stream_rng`), so the sweep and the
/// naive reference see identical replica sets by construction. Note the
/// random strategies here *sample* placements (one draw per author),
/// unlike the Fig. 16 evaluator's closed-form expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioStrategy {
    /// A toot lives only on its author's instance.
    NoRep,
    /// Home plus every instance hosting a follower (Mastodon's implicit
    /// scheme, as in the paper's S-Rep).
    SRep,
    /// Home plus `n` distinct uniformly random other instances.
    Random(u32),
    /// `KOfN(k, n)`: `n` erasure-coded fragments on `n` distinct random
    /// instances (home not privileged); content survives while at least
    /// `k` fragments do. Storage cost is `n / k` of a full copy.
    KOfN(u32, u32),
    /// `PopWeighted(lo, hi)`: home plus `lo..=hi` random replicas, scaled
    /// by the *home instance's* popularity decile — the most popular
    /// decile gets `hi`, the least popular `lo` (popular instances are
    /// the correlated-failure jackpot, so they buy more copies).
    PopWeighted(u32, u32),
    /// Home plus up to `cap` follower instances chosen nearest-first:
    /// same AS, then same country, then anywhere (ascending id within
    /// each class). Cheap locality — but it concentrates replicas in
    /// exactly the blast radius shared-fate scenarios remove.
    FollowerLocal(u32),
}

impl ScenarioStrategy {
    /// Stable label used in frontier tables and bench records.
    pub fn label(&self) -> String {
        match *self {
            ScenarioStrategy::NoRep => "no-rep".into(),
            ScenarioStrategy::SRep => "s-rep".into(),
            ScenarioStrategy::Random(n) => format!("random({n})"),
            ScenarioStrategy::KOfN(k, n) => format!("k-of-n({k}/{n})"),
            ScenarioStrategy::PopWeighted(lo, hi) => format!("pop({lo}..{hi})"),
            ScenarioStrategy::FollowerLocal(cap) => format!("local({cap})"),
        }
    }

    /// Storage-cost denominator: a k-of-n fragment is `1/k` of a copy.
    fn cost_den(&self) -> u64 {
        match *self {
            ScenarioStrategy::KOfN(k, n) => k.clamp(1, n.max(1)) as u64,
            _ => 1,
        }
    }
}

/// Draw `n` instances distinct from each other *and* from anything
/// already in `out`, by rejection against the current contents.
fn draw_distinct(rng: &mut StdRng, n_instances: u32, n: u32, out: &mut Vec<u32>) {
    for _ in 0..n {
        loop {
            let cand = rng.gen_range(0..n_instances);
            if !out.contains(&cand) {
                out.push(cand);
                break;
            }
        }
    }
}

/// Compute the replica set of one author into `out`. `holders` is the
/// author's follower-instance list (sorted, deduplicated, may include the
/// home instance — S-Rep and locality placement skip the duplicate).
fn place(
    strategy: ScenarioStrategy,
    world: &ScenarioWorld,
    seed: u64,
    user: u32,
    home: u32,
    holders: &[u32],
    out: &mut Vec<u32>,
) {
    out.clear();
    let n_inst = world.n_instances as u32;
    match strategy {
        ScenarioStrategy::NoRep => out.push(home),
        ScenarioStrategy::SRep => {
            out.push(home);
            out.extend(holders.iter().copied().filter(|&h| h != home));
        }
        ScenarioStrategy::Random(n) => {
            out.push(home);
            let mut rng = user_stream_rng(seed, user as usize);
            draw_distinct(&mut rng, n_inst, n.min(n_inst.saturating_sub(1)), out);
        }
        ScenarioStrategy::KOfN(_, n) => {
            let mut rng = user_stream_rng(seed, user as usize);
            draw_distinct(&mut rng, n_inst, n.clamp(1, n_inst), out);
        }
        ScenarioStrategy::PopWeighted(lo, hi) => {
            out.push(home);
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let d = world.pop_decile[home as usize] as u32;
            let n = lo + (hi - lo) * (9 - d) / 9;
            let mut rng = user_stream_rng(seed, user as usize);
            draw_distinct(&mut rng, n_inst, n.min(n_inst.saturating_sub(1)), out);
        }
        ScenarioStrategy::FollowerLocal(cap) => {
            out.push(home);
            let cap = cap as usize;
            for class in 0u8..3 {
                for &h in holders {
                    if out.len() > cap {
                        return;
                    }
                    if h == home {
                        continue;
                    }
                    let c = if world.inst_as[h as usize] == world.inst_as[home as usize] {
                        0
                    } else if world.inst_country[h as usize] == world.inst_country[home as usize] {
                        1
                    } else {
                        2
                    };
                    if c == class && !out.contains(&h) {
                        out.push(h);
                    }
                }
            }
        }
    }
}

/// Death step of one replica set under a per-instance step table
/// (`NEVER` = survives the whole scenario).
fn death_of(strategy: ScenarioStrategy, copies: &[u32], steps: &[u32], buf: &mut Vec<u32>) -> u32 {
    match strategy {
        ScenarioStrategy::KOfN(k, _) => {
            buf.clear();
            buf.extend(copies.iter().map(|&c| steps[c as usize]));
            buf.sort_unstable();
            let n = copies.len() as u32;
            let k = k.clamp(1, n);
            // content dies when the (n - k + 1)-th fragment dies
            buf[(n - k) as usize]
        }
        _ => copies
            .iter()
            .map(|&c| steps[c as usize])
            .max()
            .unwrap_or(NEVER),
    }
}

// ---------------------------------------------------------------------------
// Frontier grid
// ---------------------------------------------------------------------------

/// A labelled 2-D result grid (rows × columns, row-major cells). Generic
/// so frontier cells, timing cells, and test payloads share one shape;
/// serialization derives through the generic parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid<T> {
    /// Row labels (scenarios, for the frontier).
    pub rows: Vec<String>,
    /// Column labels (strategies, for the frontier).
    pub cols: Vec<String>,
    /// Row-major cells, `rows.len() * cols.len()` of them.
    pub cells: Vec<T>,
}

impl<T> Grid<T> {
    /// Assemble a grid, checking the cell count.
    pub fn new(rows: Vec<String>, cols: Vec<String>, cells: Vec<T>) -> Self {
        assert_eq!(cells.len(), rows.len() * cols.len(), "grid cell count");
        Grid { rows, cols, cells }
    }

    /// Cell at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> &T {
        assert!(row < self.rows.len() && col < self.cols.len());
        &self.cells[row * self.cols.len() + col]
    }
}

/// One frontier cell: how a strategy fares under a scenario, and what it
/// pays for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierCell {
    /// Toot-weighted availability after the scenario's final step.
    pub availability: f64,
    /// Mean stored copies per toot (fragments count as `1/k` of a copy).
    /// Scenario-independent; repeated per row for uniform cells.
    pub storage_cost: f64,
    /// Availability after step `0..=n_steps` (point 0 is always 1.0).
    pub curve: Vec<f64>,
}

/// Fold one integer death histogram (index = death step, `hist[0]`
/// unused) plus the integer cost accumulator into a [`FrontierCell`].
/// Shared by the sweep and the naive reference so both produce the exact
/// same float sequence.
fn fold_cell(hist: &[u64], total_toots: u64, cost_num: u128, cost_den: u64) -> FrontierCell {
    let total = total_toots.max(1) as f64;
    let mut curve = Vec::with_capacity(hist.len());
    curve.push(1.0);
    let mut lost = 0u64;
    for &h in &hist[1..] {
        lost += h;
        curve.push(1.0 - lost as f64 / total);
    }
    FrontierCell {
        availability: *curve.last().expect("curve has point 0"),
        storage_cost: cost_num as f64 / (cost_den as f64 * total),
        curve,
    }
}

// ---------------------------------------------------------------------------
// The fused sharded sweep
// ---------------------------------------------------------------------------

/// Fold one instance shard `[lo, hi)` of the resident arena into the
/// death histograms (`hist[sci * n_st + sti]`, index = death step) and
/// per-strategy integer cost accumulators: one shard of
/// [`evaluate_grid_chunked`].
#[allow(clippy::too_many_arguments)]
fn fold_shard(
    view: &ContentView,
    world: &ScenarioWorld,
    strategies: &[ScenarioStrategy],
    step_tables: &[&[u32]],
    seed: u64,
    lo: usize,
    hi: usize,
    hist: &mut [Vec<u64>],
    cost: &mut [u128],
) {
    let n_st = strategies.len();
    let mut copies: Vec<u32> = Vec::new();
    let mut buf: Vec<u32> = Vec::new();
    for inst in lo..hi {
        let (row_lo, row_hi) = (
            view.res_bounds[inst] as usize,
            view.res_bounds[inst + 1] as usize,
        );
        for row in row_lo..row_hi {
            let user = view.res_users[row];
            let toots = view.res_toots[row];
            let holders = &view.res_holder_data
                [view.res_holder_offsets[row] as usize..view.res_holder_offsets[row + 1] as usize];
            for (sti, &st) in strategies.iter().enumerate() {
                place(st, world, seed, user, inst as u32, holders, &mut copies);
                cost[sti] += toots as u128 * copies.len() as u128;
                for (sci, steps) in step_tables.iter().enumerate() {
                    let d = death_of(st, &copies, steps, &mut buf);
                    if d != NEVER {
                        hist[sci * n_st + sti][d as usize] += toots;
                    }
                }
            }
        }
    }
}

/// Evaluate the full strategy × scenario product in one sharded pass
/// over the resident arena. Returns the frontier grid: rows = scenarios,
/// columns = strategies.
///
/// Each author's replica set is placed **once per strategy** and then
/// scored against every scenario's step table; per-shard accumulators are
/// integer histograms merged in shard order, so the result is
/// bit-identical at any shard or thread count.
pub fn evaluate_grid(
    view: &ContentView,
    world: &ScenarioWorld,
    scenarios: &[CompiledScenario],
    strategies: &[ScenarioStrategy],
    seed: u64,
) -> Grid<FrontierCell> {
    evaluate_grid_chunked(view, world, scenarios, strategies, seed, SWEEP_CHUNK_ROWS)
}

/// [`evaluate_grid`] with an explicit shard-size target (rows per shard),
/// so the shard-invariance proptests can vary it.
fn evaluate_grid_chunked(
    view: &ContentView,
    world: &ScenarioWorld,
    scenarios: &[CompiledScenario],
    strategies: &[ScenarioStrategy],
    seed: u64,
    chunk_rows: usize,
) -> Grid<FrontierCell> {
    assert_eq!(view.n_instances, world.n_instances, "view/world mismatch");
    let n_sc = scenarios.len();
    let n_st = strategies.len();
    let step_tables: Vec<&[u32]> = scenarios.iter().map(|s| s.plan.steps()).collect();
    let hist_lens: Vec<usize> = scenarios.iter().map(|s| s.plan.n_steps() + 1).collect();

    // Shard the full instance range at instance boundaries; the layout
    // depends only on the view and `chunk_rows`, never the thread count.
    let all: Vec<u32> = (0..view.n_instances as u32).collect();
    let shards = instance_shards(view, &all, chunk_rows.max(1));

    let partials: Vec<(Vec<Vec<u64>>, Vec<u128>)> = par::parallel_map(&shards, |&(lo, hi)| {
        let mut hist: Vec<Vec<u64>> = (0..n_sc * n_st)
            .map(|cell| vec![0u64; hist_lens[cell / n_st]])
            .collect();
        let mut cost = vec![0u128; n_st];
        fold_shard(
            view,
            world,
            strategies,
            &step_tables,
            seed,
            lo,
            hi,
            &mut hist,
            &mut cost,
        );
        (hist, cost)
    });

    // Exact integer merge, in shard order.
    let mut hist: Vec<Vec<u64>> = (0..n_sc * n_st)
        .map(|cell| vec![0u64; hist_lens[cell / n_st]])
        .collect();
    let mut cost = vec![0u128; n_st];
    for (ph, pc) in &partials {
        for (acc, part) in hist.iter_mut().zip(ph) {
            for (a, &p) in acc.iter_mut().zip(part) {
                *a += p;
            }
        }
        for (a, &p) in cost.iter_mut().zip(pc) {
            *a += p;
        }
    }

    grid_from_accumulators(view, scenarios, strategies, &hist, &cost)
}

/// Fold finished accumulators into the labelled frontier grid.
fn grid_from_accumulators(
    view: &ContentView,
    scenarios: &[CompiledScenario],
    strategies: &[ScenarioStrategy],
    hist: &[Vec<u64>],
    cost: &[u128],
) -> Grid<FrontierCell> {
    let n_st = strategies.len();
    let cells: Vec<FrontierCell> = (0..scenarios.len() * n_st)
        .map(|cell| {
            let sti = cell % n_st;
            fold_cell(
                &hist[cell],
                view.total_toots,
                cost[sti],
                strategies[sti].cost_den(),
            )
        })
        .collect();
    Grid::new(
        scenarios.iter().map(|s| s.label.clone()).collect(),
        strategies.iter().map(|s| s.label()).collect(),
        cells,
    )
}

// ---------------------------------------------------------------------------
// Naive reference
// ---------------------------------------------------------------------------

/// The kept naive reference: one full pass over the user table per
/// scenario × strategy cell, with its own step-table computation from the
/// raw removal groups. Placement is the shared deterministic contract
/// (`place`); everything downstream — step lookup, death rule,
/// histogram, fold — is recomputed independently. Bit-identical to
/// [`evaluate_grid`] (pinned by the differential proptests).
pub fn naive_grid(
    view: &ContentView,
    world: &ScenarioWorld,
    scenarios: &[CompiledScenario],
    strategies: &[ScenarioStrategy],
    seed: u64,
) -> Grid<FrontierCell> {
    assert_eq!(view.n_instances, world.n_instances, "view/world mismatch");
    let mut cells = Vec::with_capacity(scenarios.len() * strategies.len());
    for sc in scenarios {
        // First listing wins, as in `RemovalPlan::from_groups`.
        let mut steps = vec![NEVER; world.n_instances];
        for (g, members) in sc.groups.iter().enumerate() {
            for &m in members {
                if steps[m as usize] == NEVER {
                    steps[m as usize] = g as u32 + 1;
                }
            }
        }
        for &st in strategies {
            let mut hist = vec![0u64; sc.groups.len() + 1];
            let mut cost_num = 0u128;
            let mut copies: Vec<u32> = Vec::new();
            for u in 0..view.n_users() {
                let toots = view.toots[u];
                if toots == 0 {
                    continue;
                }
                place(
                    st,
                    world,
                    seed,
                    u as u32,
                    view.home[u],
                    view.follower_instances(u),
                    &mut copies,
                );
                cost_num += toots as u128 * copies.len() as u128;
                let d = match st {
                    ScenarioStrategy::KOfN(k, _) => {
                        let mut ds: Vec<u32> = copies.iter().map(|&c| steps[c as usize]).collect();
                        ds.sort_unstable();
                        let k = k.clamp(1, copies.len() as u32) as usize;
                        ds[copies.len() - k]
                    }
                    _ => copies
                        .iter()
                        .map(|&c| steps[c as usize])
                        .max()
                        .unwrap_or(NEVER),
                };
                if d != NEVER {
                    hist[d as usize] += toots;
                }
            }
            cells.push(fold_cell(&hist, view.total_toots, cost_num, st.cost_den()));
        }
    }
    Grid::new(
        scenarios.iter().map(|s| s.label.clone()).collect(),
        strategies.iter().map(|s| s.label()).collect(),
        cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};

    fn tiny_world(seed: u64) -> World {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 24;
        cfg.n_users = 300;
        Generator::generate_world(cfg)
    }

    const ALL_STRATEGIES: [ScenarioStrategy; 6] = [
        ScenarioStrategy::NoRep,
        ScenarioStrategy::SRep,
        ScenarioStrategy::Random(2),
        ScenarioStrategy::KOfN(2, 4),
        ScenarioStrategy::PopWeighted(1, 4),
        ScenarioStrategy::FollowerLocal(3),
    ];

    fn all_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::AsSharedFate(3),
            ScenarioSpec::HosterSharedFate(3),
            ScenarioSpec::CertCascade(6),
            ScenarioSpec::RegionWave(2),
            ScenarioSpec::ChurnRebirth(4),
        ]
    }

    #[test]
    fn compiled_groups_are_disjoint_and_plans_step_per_group() {
        let world = tiny_world(7);
        let sw = ScenarioWorld::from_world(&world);
        for spec in all_specs() {
            let c = compile(&spec, &sw);
            assert_eq!(c.plan.n_steps(), c.groups.len(), "{}", c.label);
            let mut seen = std::collections::HashSet::new();
            for g in &c.groups {
                for &m in g {
                    assert!(seen.insert(m), "{}: instance {m} in two groups", c.label);
                }
            }
            assert_eq!(c.cause, spec.cause());
        }
    }

    #[test]
    fn shared_fate_groups_ranked_by_users() {
        let world = tiny_world(11);
        let sw = ScenarioWorld::from_world(&world);
        let users_of = |g: &Vec<u32>| -> u64 {
            g.iter()
                .map(|&i| world.instances[i as usize].user_count as u64)
                .sum()
        };
        for groups in [&sw.as_groups, &sw.hoster_groups, &sw.region_groups] {
            for pair in groups.windows(2) {
                assert!(users_of(&pair[0]) >= users_of(&pair[1]));
            }
        }
    }

    #[test]
    fn cert_cascade_buckets_by_first_lapse() {
        let world = tiny_world(13);
        let sw = ScenarioWorld::from_world(&world);
        let buckets = 6u32;
        let c = compile(&ScenarioSpec::CertCascade(buckets), &sw);
        let span = WINDOW_DAYS.div_ceil(buckets);
        for (k, g) in c.groups.iter().enumerate() {
            for &i in g {
                let first = sw.lapses[i as usize]
                    .first_set_at_or_after(Day(0))
                    .expect("grouped instance has a lapse");
                assert_eq!(((first.0 / span).min(buckets - 1)) as usize, k);
            }
        }
        // every lapsing instance is scheduled, every auto-renewing one spared
        let scheduled: usize = c.groups.iter().map(|g| g.len()).sum();
        let lapsing = sw.lapses.iter().filter(|b| !b.is_empty()).count();
        assert_eq!(scheduled, lapsing);
    }

    #[test]
    fn empty_cascade_removes_nothing_and_keeps_availability_at_one() {
        let mut world = tiny_world(17);
        for inst in &mut world.instances {
            inst.certificate.auto_renew = true;
        }
        let sw = ScenarioWorld::from_world(&world);
        let c = compile(&ScenarioSpec::CertCascade(5), &sw);
        assert_eq!(c.plan.removed_instances().len(), 0);
        let view = ContentView::from_world(&world);
        let grid = evaluate_grid(&view, &sw, &[c], &ALL_STRATEGIES, 42);
        for cell in &grid.cells {
            assert!(cell.curve.iter().all(|&a| a == 1.0));
        }
    }

    #[test]
    fn whole_network_shared_fate_kills_everything() {
        let mut world = tiny_world(19);
        for inst in &mut world.instances {
            inst.asn = fediscope_model::ids::AsId(64512);
        }
        let sw = ScenarioWorld::from_world(&world);
        let c = compile(&ScenarioSpec::AsSharedFate(1), &sw);
        assert_eq!(c.plan.removed_instances().len(), world.instances.len());
        let view = ContentView::from_world(&world);
        let grid = evaluate_grid(&view, &sw, &[c], &ALL_STRATEGIES, 42);
        for cell in &grid.cells {
            assert_eq!(*cell.curve.last().unwrap(), 0.0, "no strategy survives");
        }
    }

    #[test]
    fn rebirth_spares_instances_including_rebirth_before_removal() {
        let world = tiny_world(23);
        let mut sw = ScenarioWorld::from_world(&world);
        let churned: Vec<usize> = (0..sw.n_instances)
            .filter(|&i| sw.retired[i].is_some())
            .collect();
        assert!(churned.len() >= 2, "tiny world churns some instances");
        // first churned instance reborn *after* retirement, second reborn
        // pathologically *before* it — both must be spared.
        let mut rebirth = vec![None; sw.n_instances];
        rebirth[churned[0]] = Some(Day(sw.retired[churned[0]].unwrap().0 + 1));
        rebirth[churned[1]] = Some(Day(sw.retired[churned[1]].unwrap().0.saturating_sub(1)));
        sw = sw.with_rebirth(rebirth);
        let c = compile(&ScenarioSpec::ChurnRebirth(4), &sw);
        let removed = c.plan.removed_instances();
        assert_eq!(removed.len(), churned.len() - 2);
        assert!(!removed.contains(&(churned[0] as u32)));
        assert!(!removed.contains(&(churned[1] as u32)));
    }

    #[test]
    fn churn_steps_follow_retirement_order() {
        let world = tiny_world(29);
        let sw = ScenarioWorld::from_world(&world);
        let c = compile(&ScenarioSpec::ChurnRebirth(3), &sw);
        let mut last_max: Option<u32> = None;
        for g in c.groups.iter().filter(|g| !g.is_empty()) {
            let days: Vec<u32> = g
                .iter()
                .map(|&i| sw.retired[i as usize].unwrap().0)
                .collect();
            if let Some(prev) = last_max {
                assert!(days.iter().all(|&d| d >= prev));
            }
            last_max = Some(*days.iter().max().unwrap());
        }
    }

    #[test]
    fn from_instances_compiles_churn_to_empty_plan() {
        let world = tiny_world(31);
        let sw = ScenarioWorld::from_instances(&world.instances);
        let c = compile(&ScenarioSpec::ChurnRebirth(4), &sw);
        assert_eq!(c.plan.removed_instances().len(), 0);
    }

    #[test]
    fn sweep_matches_naive_on_the_full_product() {
        let world = tiny_world(37);
        let view = ContentView::from_world(&world);
        let sw = ScenarioWorld::from_world(&world);
        let compiled: Vec<_> = all_specs().iter().map(|s| compile(s, &sw)).collect();
        let fast = evaluate_grid(&view, &sw, &compiled, &ALL_STRATEGIES, 99);
        let slow = naive_grid(&view, &sw, &compiled, &ALL_STRATEGIES, 99);
        assert_eq!(fast, slow);
        assert_eq!(fast.rows.len(), compiled.len());
        assert_eq!(fast.cols.len(), ALL_STRATEGIES.len());
    }

    #[test]
    fn storage_cost_ordering_is_sane() {
        let world = tiny_world(41);
        let view = ContentView::from_world(&world);
        let sw = ScenarioWorld::from_world(&world);
        let compiled = [compile(&ScenarioSpec::AsSharedFate(3), &sw)];
        let strategies = [
            ScenarioStrategy::NoRep,
            ScenarioStrategy::Random(2),
            ScenarioStrategy::KOfN(2, 4),
        ];
        let grid = evaluate_grid(&view, &sw, &compiled, &strategies, 7);
        let cost = |c: usize| grid.get(0, c).storage_cost;
        assert_eq!(cost(0), 1.0, "no-rep stores exactly the home copy");
        assert!((cost(1) - 3.0).abs() < 1e-9, "random(2) = home + 2");
        assert!((cost(2) - 2.0).abs() < 1e-9, "4 fragments at 1/2 copy each");
        // more copies can only help (same scenario, monotone death rule)
        assert!(grid.get(0, 1).availability >= grid.get(0, 0).availability);
    }

    #[test]
    fn grid_round_trips_through_serde() {
        let grid = Grid::new(
            vec!["a".into(), "b".into()],
            vec!["x".into()],
            vec![
                FrontierCell {
                    availability: 0.5,
                    storage_cost: 1.25,
                    curve: vec![1.0, 0.5],
                },
                FrontierCell {
                    availability: 1.0,
                    storage_cost: 3.0,
                    curve: vec![1.0, 1.0],
                },
            ],
        );
        let json = serde_json::to_string(&grid).unwrap();
        let back: Grid<FrontierCell> = serde_json::from_str(&json).unwrap();
        assert_eq!(grid, back);
        // the generic derive also covers non-float payloads
        let ints = Grid::new(vec!["r".into()], vec!["c".into()], vec![7u32]);
        let back: Grid<u32> = serde_json::from_str(&serde_json::to_string(&ints).unwrap()).unwrap();
        assert_eq!(ints, back);
    }

    #[test]
    fn spec_round_trips_through_serde() {
        for spec in all_specs() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
        for st in ALL_STRATEGIES {
            let json = serde_json::to_string(&st).unwrap();
            let back: ScenarioStrategy = serde_json::from_str(&json).unwrap();
            assert_eq!(st, back);
        }
    }

    #[test]
    fn follower_local_prefers_same_as_then_same_country() {
        let world = tiny_world(43);
        let sw = ScenarioWorld::from_world(&world);
        let view = ContentView::from_world(&world);
        let mut out = Vec::new();
        for u in 0..view.n_users() {
            if view.toots[u] == 0 {
                continue;
            }
            let home = view.home[u];
            let holders = view.follower_instances(u);
            place(
                ScenarioStrategy::FollowerLocal(2),
                &sw,
                0,
                u as u32,
                home,
                holders,
                &mut out,
            );
            assert_eq!(out[0], home);
            assert!(out.len() <= 3);
            let class = |h: u32| -> u8 {
                if sw.inst_as[h as usize] == sw.inst_as[home as usize] {
                    0
                } else if sw.inst_country[h as usize] == sw.inst_country[home as usize] {
                    1
                } else {
                    2
                }
            };
            for pair in out[1..].windows(2) {
                assert!(class(pair[0]) <= class(pair[1]), "nearest-first ordering");
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use fediscope_worldgen::{Generator, WorldConfig};
    use proptest::prelude::*;

    fn tiny_setup(seed: u64) -> (ContentView, ScenarioWorld) {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = 24;
        cfg.n_users = 300;
        let world = Generator::generate_world(cfg);
        let sw = ScenarioWorld::from_world(&world);
        (ContentView::from_world(&world), sw)
    }

    fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
        (0u8..5, 1u32..8).prop_map(|(kind, n)| match kind {
            0 => ScenarioSpec::AsSharedFate(n),
            1 => ScenarioSpec::HosterSharedFate(n),
            2 => ScenarioSpec::CertCascade(n),
            3 => ScenarioSpec::RegionWave(n.min(4)),
            _ => ScenarioSpec::ChurnRebirth(n),
        })
    }

    fn arb_strategy() -> impl Strategy<Value = ScenarioStrategy> {
        (0u8..6, 1u32..5, 1u32..6).prop_map(|(kind, a, b)| match kind {
            0 => ScenarioStrategy::NoRep,
            1 => ScenarioStrategy::SRep,
            2 => ScenarioStrategy::Random(a),
            3 => ScenarioStrategy::KOfN(a, a + b - 1),
            4 => ScenarioStrategy::PopWeighted(a.min(2), b + 1),
            _ => ScenarioStrategy::FollowerLocal(a),
        })
    }

    proptest! {
        /// The fused sharded sweep is bit-identical to the naive
        /// per-scenario reference for random worlds × random spec/strategy
        /// subsets × random placement seeds.
        #[test]
        fn sweep_bit_identical_to_naive(
            world_seed in 0u64..500,
            place_seed in any::<u64>(),
            specs in proptest::collection::vec(arb_spec(), 1..4),
            strategies in proptest::collection::vec(arb_strategy(), 1..4),
        ) {
            let (view, sw) = tiny_setup(world_seed);
            let compiled: Vec<_> = specs.iter().map(|s| compile(s, &sw)).collect();
            let fast = evaluate_grid(&view, &sw, &compiled, &strategies, place_seed);
            let slow = naive_grid(&view, &sw, &compiled, &strategies, place_seed);
            prop_assert_eq!(fast, slow);
        }

        /// Shard layout must not leak into output: any chunk size (1 row
        /// per shard up to everything in one shard) produces the same
        /// bits.
        #[test]
        fn sweep_shard_invariant(
            world_seed in 0u64..500,
            place_seed in any::<u64>(),
            spec in arb_spec(),
            chunk in 1usize..64,
        ) {
            let (view, sw) = tiny_setup(world_seed);
            let compiled = [compile(&spec, &sw)];
            let strategies = [
                ScenarioStrategy::SRep,
                ScenarioStrategy::KOfN(2, 4),
                ScenarioStrategy::FollowerLocal(2),
            ];
            let sharded = evaluate_grid_chunked(&view, &sw, &compiled, &strategies, place_seed, chunk);
            let serial = evaluate_grid_chunked(&view, &sw, &compiled, &strategies, place_seed, usize::MAX);
            prop_assert_eq!(sharded, serial);
        }

        /// Thread count must not leak into output either (the layout is
        /// data-derived, and merges are exact integer sums).
        #[test]
        fn sweep_thread_invariant(
            world_seed in 0u64..200,
            threads in 1usize..5,
        ) {
            let (view, sw) = tiny_setup(world_seed);
            let compiled = [compile(&ScenarioSpec::AsSharedFate(5), &sw)];
            let strategies = [ScenarioStrategy::SRep, ScenarioStrategy::Random(2)];
            par::set_thread_override(Some(threads));
            let multi = evaluate_grid_chunked(&view, &sw, &compiled, &strategies, 7, 8);
            par::set_thread_override(Some(1));
            let single = evaluate_grid_chunked(&view, &sw, &compiled, &strategies, 7, 8);
            par::set_thread_override(None);
            prop_assert_eq!(multi, single);
        }
    }
}
