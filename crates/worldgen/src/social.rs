//! Follower-graph generation: static fitness attachment with instance and
//! country homophily, sharded bit-identically.
//!
//! Calibration targets (§3, §5.1):
//! - ≈10.8 follower edges per account (9.25M edges / 853K accounts),
//! - power-law out-degree (Fig. 11),
//! - LCC containing ≈99.95% of accounts,
//! - catastrophic sensitivity to top-degree removal (top 1% → LCC ≈26%,
//!   Fig. 12), which emerges from hub-mediated connectivity,
//! - instance homophily so the induced federation graph has ≈92% of
//!   instances in its LCC and 32% same-country subscription links (Fig. 6).
//!
//! ## The sharding model (PR 10)
//!
//! The previous generator was a sequential copy model (linear preferential
//! attachment): every accepted edge was pushed back into the attachment
//! pools, so edge `k` depended on edges `0..k` and the stream could not be
//! split. This version draws hubs from a **static fitness law** instead:
//! a keyed ~1% celebrity layer holds most of the attachment mass
//! (hub-dominated enough that removing the top 1% of accounts shatters
//! the LCC, Fig. 12, yet with hubs *not* the heaviest tooters, so the
//! federation traffic they induce stays within bounded-inbox capacity),
//! and everyone else's fitness grows with their own toot production,
//! keeping audience aligned with output so subscription replication
//! rescues the heavy tooters' content (Fig. 15). The law is frozen
//! into Walker alias tables ([`crate::pools::AliasFamily`]) per instance,
//! per country, and globally. Every user then samples its followees from
//! its own counter-derived RNG stream ([`crate::shard::unit_rng`]), which
//! makes [`SocialCursor`] *seekable*: any user's (or block's) edges can be
//! produced without replaying the stream before it — the property the
//! `recover` crate's resume-identity guarantee wants, and what lets
//! [`par::parallel_map`] build CSR segments that concatenate bit-identical
//! to the serial walk at any block size.

use crate::config::{sub_seed, WorldConfig};
use crate::pools::{sample_slice, touch_slice, AliasFamily, AliasSampler, AliasSlot, Membership};
use crate::shard::{blocks, unit_rng, DEFAULT_BLOCK};
use fediscope_graph::par;
use fediscope_model::geo::Country;
use fediscope_model::ids::UserId;
use fediscope_model::instance::Instance;
use fediscope_model::user::UserProfile;
use rand::prelude::*;

/// RNG stream tag for the per-user fitness draw (separate from the
/// per-user edge draws so adding a draw to one never shifts the other).
const FITNESS_TAG: u64 = 0x4649_544e_4553_5300; // "FITNESS"

/// Attachment fitness: a keyed ~[`CELEBRITY_FRAC`] of tooting accounts
/// form a celebrity layer whose fitness is [`CELEBRITY_BOOST`]× the base
/// law `w = toot_count^FITNESS_EXP × u^-FITNESS_JITTER_EXP`. Calibrated
/// jointly with [`UNIFORM_MIX`] against three pulls:
///
/// - **Fig. 12** needs removing the top 1% of accounts to collapse the
///   LCC below 65%: the celebrity layer holds ~90% of the attachment
///   mass, so the residual (non-hub) degree per user is ≲1 — below the
///   giant-component threshold. The layer must also be *flat* (a boost,
///   not a deep Pareto tail): with one mega-hub a user's draws collide
///   and dedup far below the configured 10.8 mean degree, while ~100
///   comparably-weighted hubs keep the draws distinct.
/// - **Fig. 15** needs follower counts correlated with production so
///   subscription replication rescues the heavy tooters' toots — the
///   `toot_count^0.5` base factor gives the authors who carry most of
///   the toot volume a handful of followers each.
/// - The fedsim delivery engine needs clean-run traffic within
///   bounded-inbox capacity, which rules out a super-linear toot factor:
///   that would make the heaviest tooters also the widest-audience
///   accounts and their combined fan-out would congest every inbox with
///   no outage at all. Celebrity status is keyed noise ⊥ toot volume, so
///   hubs have typical production and the volume-weighted fan-out span
///   stays small.
///
/// The cap keeps the single biggest hub from absorbing a macroscopic
/// share of *all* edges at full scale.
const FITNESS_EXP: f64 = 0.5;
const FITNESS_JITTER_EXP: f64 = 0.25;
const FITNESS_CAP: f64 = 1.0e12;

/// Fraction of *all* accounts in the celebrity layer (conditioned on
/// tooting inside [`SocialCursor::new`], ≈1% of accounts ≈ 3.6% of
/// tooting users at the configured [`WorldConfig::tooting_frac`]) — the
/// hub stratum Fig. 12's top-1% removal strips away.
const CELEBRITY_FRAC: f64 = 0.01;

/// Fitness multiplier for the celebrity layer; sets the layer's share of
/// total attachment mass (~90%) and therefore the residual degree that
/// survives hub removal.
const CELEBRITY_BOOST: f64 = 1_000.0;

/// Probability of a uniform (non-fitness) draw inside the chosen domain.
/// Kept small: a large uniform mix builds an Erdős–Rényi backbone that
/// survives hub removal, which would contradict the paper's Fig. 12.
const UNIFORM_MIX: f64 = 0.02;

/// Hard ceiling on a single user's emission attempts. The per-user budget
/// is `4 × target degree`; the out-degree cap grows with the population
/// (`n / 4`), so at mega-tiers a single dedup-starved mega-follower would
/// otherwise burn ~1M mostly-rejected draws (its draws concentrate on the
/// ~1% celebrity layer, so past ~10⁴ distinct followees almost every draw
/// is a duplicate). The ceiling only binds for target degrees above
/// 16 384 — far beyond the degree cap at every calibration scale (tiny
/// caps at 375, small at 3 000), so statistical fixtures are unaffected;
/// at the modern tier it trims only the last few percent of edge mass.
const MAX_EMIT_ATTEMPTS: u32 = 65_536;

/// Solve for the Pareto exponent α such that a power law truncated at `cap`
/// has (approximately) the requested mean:
/// `E[floor(X) | X ≤ cap] ≈ (cap^(2−α) − 1) / (2 − α) = mean`.
///
/// Without the truncation correction the realised mean falls far short of
/// the target (the untruncated tail above the cap carries a large share of
/// the mass at α ≈ 2).
fn solve_alpha(mean: f64, cap: u32) -> f64 {
    assert!(mean > 1.0, "mean out-degree must exceed 1");
    let cap = cap.max(2) as f64;
    let truncated_mean = |alpha: f64| -> f64 {
        let e = 2.0 - alpha;
        if e.abs() < 1e-9 {
            cap.ln()
        } else {
            (cap.powf(e) - 1.0) / e
        }
    };
    let (mut lo, mut hi) = (1.05f64, 3.5f64); // mean decreasing in alpha
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if truncated_mean(mid) > mean {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Sample an out-degree from a discrete power law with exponent `alpha`
/// (from [`solve_alpha`]), floored and clamped to `[1, cap]`.
fn sample_out_degree<R: Rng>(alpha: f64, cap: u32, rng: &mut R) -> u32 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let x = u.powf(-1.0 / (alpha - 1.0));
    (x.floor() as u32).clamp(1, cap)
}

/// Uniform index in `0..n` from one `u64` (Lemire reduction).
#[inline]
fn lemire(r: u64, n: usize) -> usize {
    ((r as u128 * n as u128) >> 64) as usize
}

/// One user's sorted-unique adjacency block inside a sharded segment.
/// Targets are canonical: ascending, deduplicated, self-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialSegment {
    /// First user id covered by this segment.
    pub start: u32,
    /// Local CSR offsets: user `start + k`'s targets are
    /// `targets[offsets[k]..offsets[k+1]]`.
    pub offsets: Vec<u32>,
    /// Concatenated per-user target lists.
    pub targets: Vec<u32>,
}

/// A seekable, shareable edge cursor over the follower graph.
///
/// Construction freezes the fitness alias tables; after that,
/// [`segment`](Self::segment) produces any user block's edges from those
/// users' keyed RNG streams alone — no replay of earlier users, no
/// mutable attachment state. `&self` everywhere, so shards sample the
/// same frozen tables concurrently.
pub struct SocialCursor {
    stage_seed: u64,
    p_inst: f64,
    /// `p_inst + p_country`, frozen so the per-draw domain dispatch is a
    /// pair of compares instead of re-summing.
    p12: f64,
    /// Per-domain uniform-mix windows, indexed by domain (instance,
    /// country, global): a draw whose roll lands within `mix[dom]` of the
    /// domain's range start is a uniform pick instead of a weighted one.
    /// `base1`/`base2` reproduce the range starts with the exact
    /// subtraction order of the original branchy dispatch
    /// (`(roll - base1[dom]) - base2[dom]`), so the boundary rounding —
    /// and therefore the draw stream — is bit-identical.
    base1: [f64; 3],
    base2: [f64; 3],
    mix: [f64; 3],
    cap: u32,
    alpha_tooting: f64,
    /// Instance index per user.
    inst_of_user: Vec<u32>,
    /// Country index (into `Country::ALL`) per instance.
    country_of_instance: Vec<u32>,
    /// Degree-law selector per user.
    tooting: Vec<bool>,
    /// Candidate followees grouped by instance / country, with frozen
    /// fitness-weighted samplers per domain and a global one.
    by_instance: Membership,
    by_country: Membership,
    candidates: Vec<u32>,
    inst_alias: AliasFamily,
    country_alias: AliasFamily,
    global_alias: AliasSampler,
}

impl SocialCursor {
    /// Freeze the attachment tables for a generated population.
    pub fn new(cfg: &WorldConfig, instances: &[Instance], users: &[UserProfile]) -> Self {
        let stage_seed = sub_seed(cfg.seed, 3);
        let country_of_instance: Vec<u32> = instances
            .iter()
            .map(|i| Country::ALL.iter().position(|&c| c == i.country).unwrap() as u32)
            .collect();
        let inst_of_user: Vec<u32> = users.iter().map(|u| u.instance.0).collect();
        let tooting: Vec<bool> = users.iter().map(|u| u.has_tooted()).collect();

        // Every account is a valid followee. Tooting users carry the
        // fitness law below (you discover accounts through content), while
        // silent accounts sit at the floor fitness — they still absorb a
        // diffuse share of in-edges, which keeps the *mean* audience of a
        // tooting author near the configured mean degree instead of
        // concentrating the whole edge budget on the ~28% who toot (that
        // concentration is what overloads the federation delivery engine:
        // every author's toots would fan out to dozens of instances).
        let candidates: Vec<u32> = (0..users.len() as u32).collect();

        // Two-layer fitness (see the constant docs): a thin celebrity
        // layer (~1% of accounts) holds most of the attachment mass, flat
        // enough across the layer that a user's ~10.8 draws land on many
        // *distinct* hubs, while everyone else carries
        // (own toot production)^FITNESS_EXP × a mild keyed jitter — you
        // gain followers by posting (the production ↔ outward-replication
        // correlation Fig. 14 reports). Depends only on the candidate's
        // own row in the frozen user table plus its keyed stream —
        // independent of population order, so shardable.
        let fitness_seed = stage_seed ^ FITNESS_TAG;
        let p_celebrity = (CELEBRITY_FRAC / cfg.tooting_frac.max(1e-9)).min(1.0);
        // Evaluated once per user and cached: the law feeds three table
        // builds (instance, country, global), and each evaluation costs
        // a keyed RNG seeding plus two `powf`s — at 10M users the naive
        // 3× re-evaluation is seconds of pure recomputation.
        let fitness: Vec<f64> = users
            .iter()
            .enumerate()
            .map(|(uid, u)| {
                let tc = u.toot_count as f64;
                let mut r = unit_rng(fitness_seed, uid as u64);
                let celeb_roll: f64 = r.r#gen();
                let jitter: f64 = r.r#gen::<f64>().max(1e-12).powf(-FITNESS_JITTER_EXP);
                let base = tc.powf(FITNESS_EXP) * jitter;
                if tc > 0.0 && celeb_roll < p_celebrity {
                    (base * CELEBRITY_BOOST).clamp(1.0, FITNESS_CAP)
                } else {
                    base.clamp(1.0, FITNESS_CAP)
                }
            })
            .collect();
        let fitness_of = |uid: u32| -> f64 { fitness[uid as usize] };

        let by_instance = Membership::new(
            instances.len(),
            candidates
                .iter()
                .map(|&c| (inst_of_user[c as usize], c))
                .collect::<Vec<_>>()
                .into_iter(),
        );
        let by_country = Membership::new(
            Country::ALL.len(),
            candidates
                .iter()
                .map(|&c| (country_of_instance[inst_of_user[c as usize] as usize], c))
                .collect::<Vec<_>>()
                .into_iter(),
        );
        let inst_alias = AliasFamily::build(&by_instance, instances.len(), fitness_of);
        let country_alias = AliasFamily::build(&by_country, Country::ALL.len(), fitness_of);
        // `candidates` is 0..n in order, so the cache *is* the global
        // weight vector.
        let global_alias = AliasSampler::from_weighted_ids(&candidates, &fitness);

        // Lurkers follow 1–2 accounts; tooting users carry the rest of the
        // configured mean degree.
        let n = users.len();
        let cap = (n as u32 / 4).max(10);
        let lurker_mean = 1.5f64;
        let tooting_mean = ((cfg.mean_out_degree - (1.0 - cfg.tooting_frac) * lurker_mean)
            / cfg.tooting_frac)
            .max(2.0);
        let p_inst = cfg.p_follow_same_instance;
        let p_country = cfg.p_follow_same_country;
        let p_global = 1.0 - p_inst - p_country;
        Self {
            stage_seed,
            p_inst,
            p12: p_inst + p_country,
            base1: [0.0, p_inst, p_inst],
            base2: [0.0, 0.0, p_country],
            mix: [
                p_inst * UNIFORM_MIX,
                p_country * UNIFORM_MIX,
                p_global * UNIFORM_MIX,
            ],
            cap,
            alpha_tooting: solve_alpha(tooting_mean, cap),
            inst_of_user,
            country_of_instance,
            tooting,
            by_instance,
            by_country,
            candidates,
            inst_alias,
            country_alias,
            global_alias,
        }
    }

    /// Number of users the cursor covers.
    pub fn n_users(&self) -> usize {
        self.inst_of_user.len()
    }

    /// The three alias tables a given user draws from (own instance, own
    /// country, global) plus the matching uniform-pick member lists. Both
    /// are fixed for the whole of a user's emission, so the per-draw
    /// domain dispatch reduces to an array index.
    #[inline]
    fn draw_tables(&self, inst: usize, country: usize) -> ([&[AliasSlot]; 3], [&[u32]; 3]) {
        (
            [
                self.inst_alias.domain_slots(inst),
                self.country_alias.domain_slots(country),
                self.global_alias.slots(),
            ],
            [
                self.by_instance.domain(inst),
                self.by_country.domain(country),
                self.candidates.as_slice(),
            ],
        )
    }

    /// Which domain (0 = instance, 1 = country, 2 = global) `roll`
    /// selects. Two compares, no data-dependent jump: the domain outcome
    /// of each draw is uniform-random, so a branchy three-way dispatch
    /// mispredicts on most draws — at ~14M draws per million users the
    /// flushes alone were a measurable slice of the social stage.
    #[inline]
    fn draw_domain(&self, roll: f64) -> usize {
        (roll >= self.p_inst) as usize + (roll >= self.p12) as usize
    }

    /// One candidate draw: `roll` picks the domain *and* the uniform-mix
    /// sub-range (the mix is a scaled prefix of each domain's range, so a
    /// single f64 covers both decisions); `r` feeds either the alias table
    /// or the uniform Lemire pick. `(slots, members)` are the caller's
    /// [`Self::draw_tables`] for the emitting user.
    #[inline]
    fn draw_from(
        &self,
        slots: &[&[AliasSlot]; 3],
        members: &[&[u32]; 3],
        roll: f64,
        r: u64,
    ) -> u32 {
        let dom = self.draw_domain(roll);
        let uniform = (roll - self.base1[dom]) - self.base2[dom] < self.mix[dom];
        if uniform {
            let m = members[dom];
            if !m.is_empty() {
                return m[lemire(r, m.len())];
            }
            // Empty domain (an instance or country without candidates):
            // global fallback, preserving the draw's uniform kind.
            return self.candidates[lemire(r, self.candidates.len())];
        }
        let s = slots[dom];
        if !s.is_empty() {
            sample_slice(s, r)
        } else {
            // Weighted draw against an empty domain: global fallback.
            self.global_alias.sample_u64(r)
        }
    }

    /// Emit user `uid`'s canonical adjacency (ascending, unique, no self
    /// loop) into `buf`. This is the seek primitive: the draws come from
    /// `unit_rng(stage_seed, uid)` alone. `seen` is a caller-owned dedup
    /// bitset (one bit per user id), so block emission reuses one
    /// allocation across users.
    /// The bitset must be all-zero on entry; it is restored to all-zero
    /// before returning (set bits are exactly the accepted targets, so
    /// the reset walks `buf`, not the whole array).
    fn emit_user_scratch(&self, uid: u32, buf: &mut Vec<u32>, seen: &mut Vec<u64>) {
        buf.clear();
        let mut rng = unit_rng(self.stage_seed, uid as u64);
        let d = if self.tooting[uid as usize] {
            sample_out_degree(self.alpha_tooting, self.cap, &mut rng)
        } else {
            // 1 w.p. 0.7, 2 w.p. 0.2, 3..=5 otherwise (mean ≈ 1.5)
            match rng.gen::<f64>() {
                x if x < 0.7 => 1,
                x if x < 0.9 => 2,
                _ => rng.gen_range(3..=5),
            }
        };
        let inst = self.inst_of_user[uid as usize] as usize;
        let country = self.country_of_instance[inst] as usize;
        let (slots, members) = self.draw_tables(inst, country);
        buf.reserve(d as usize);
        // Hub-heavy fitness means blind draws collide often (half of a
        // user's draws can land on the same top account), which would
        // dedup the realized mean degree far below the configured one —
        // so duplicates are redrawn under a bounded attempt budget
        // (capped by [`MAX_EMIT_ATTEMPTS`] for mega-followers), and the
        // budget (not a retry loop per slot) keeps emission total work
        // O(d). Typical degrees are small enough that the linear
        // `contains` probe beats any set, but the power-law tail reaches
        // deep into the population (cap = n/4): a 10⁵-degree hub under a
        // linear probe is O(d²) and alone costs seconds, so big emitters
        // switch to a per-id bitset. Both probes answer exactly the same
        // question, so the accept/reject sequence — and therefore the
        // emitted adjacency — is identical either way.
        let mut attempts = (4 * d.max(1)).min(MAX_EMIT_ATTEMPTS);
        if d <= 64 {
            while buf.len() < d as usize && attempts > 0 {
                attempts -= 1;
                let roll: f64 = rng.r#gen();
                let r: u64 = rng.r#gen();
                let cand = self.draw_from(&slots, &members, roll, r);
                if cand != uid && !buf.contains(&cand) {
                    buf.push(cand);
                }
            }
        } else {
            // Big emitters resolve draws in batches: the (roll, r) pairs
            // are pure RNG output, and the alias-slot address each pair
            // will read is computable before the read — so a batch of
            // prefetches overlaps the table misses that otherwise
            // serialize one per accept/reject step. The candidate
            // sequence and the acceptance walk are unchanged (over-drawn
            // RNG output past a filled adjacency is dead — the per-user
            // stream ends here), so the emitted adjacency is
            // bit-identical to draw-at-a-time. Small emitters skip this:
            // for the d ≤ 64 majority the over-draw at the tail would
            // cost more than the overlap wins.
            const BATCH: usize = 16;
            let mut pairs = [(0.0f64, 0u64); BATCH];
            seen.resize(self.n_users().div_ceil(64), 0);
            let want = d as usize;
            'big: while buf.len() < want && attempts > 0 {
                let k = (attempts as usize).min(BATCH);
                for p in pairs.iter_mut().take(k) {
                    let roll: f64 = rng.r#gen();
                    let r: u64 = rng.r#gen();
                    *p = (roll, r);
                    touch_slice(slots[self.draw_domain(roll)], r);
                }
                attempts -= k as u32;
                for &(roll, r) in &pairs[..k] {
                    let cand = self.draw_from(&slots, &members, roll, r);
                    let (w, bit) = ((cand >> 6) as usize, 1u64 << (cand & 63));
                    if cand != uid && seen[w] & bit == 0 {
                        seen[w] |= bit;
                        buf.push(cand);
                        if buf.len() == want {
                            break 'big;
                        }
                    }
                }
            }
            // Set bits are exactly `buf`: restore all-zero for the next
            // caller in O(degree) instead of re-zeroing the whole array.
            for &c in buf.iter() {
                seen[(c >> 6) as usize] = 0;
            }
        }
        buf.sort_unstable();
    }

    /// Build the `[lo, hi)` user block's CSR segment.
    pub fn segment(&self, lo: u32, hi: u32) -> SocialSegment {
        let span = (hi - lo) as usize;
        let mut offsets = Vec::with_capacity(span + 1);
        let mut targets = Vec::new();
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        offsets.push(0);
        for uid in lo..hi {
            self.emit_user_scratch(uid, &mut buf, &mut scratch);
            targets.extend_from_slice(&buf);
            offsets.push(targets.len() as u32);
        }
        SocialSegment {
            start: lo,
            offsets,
            targets,
        }
    }

    /// All segments for a block size, fanned out over
    /// [`par::parallel_map`]; concatenation is bit-identical at any
    /// block/thread count.
    pub fn segments(&self, block: usize) -> Vec<SocialSegment> {
        par::parallel_map(&blocks(self.n_users(), block), |&(lo, hi)| {
            self.segment(lo as u32, hi as u32)
        })
    }

    /// Stream every edge `(follower, followee)` in canonical order
    /// (users ascending, each user's targets ascending) through `sink`.
    pub fn stream(&self, block: usize, sink: &mut dyn FnMut(u32, u32)) {
        for seg in self.segments(block) {
            for k in 0..seg.offsets.len() - 1 {
                let uid = seg.start + k as u32;
                for &t in &seg.targets[seg.offsets[k] as usize..seg.offsets[k + 1] as usize] {
                    sink(uid, t);
                }
            }
        }
    }
}

/// Collect the follower graph as an edge list (the
/// [`World`](fediscope_model::world::World) representation). Large-scale
/// consumers that only need the CSR graph should take
/// [`SocialCursor::segments`] straight into
/// `DiGraph::from_sorted_blocks` — at a million users the intermediate
/// edge list alone is ~100 MB.
pub fn generate(
    cfg: &WorldConfig,
    instances: &[Instance],
    users: &[UserProfile],
) -> Vec<(UserId, UserId)> {
    if users.len() < 2 {
        return Vec::new();
    }
    let cursor = SocialCursor::new(cfg, instances, users);
    let mut edges: Vec<(UserId, UserId)> =
        Vec::with_capacity((users.len() as f64 * cfg.mean_out_degree) as usize);
    cursor.stream(DEFAULT_BLOCK, &mut |a, b| {
        edges.push((UserId(a), UserId(b)))
    });
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::sub_seed;
    use fediscope_graph::{weakly_connected, DiGraph};
    use fediscope_model::geo::ProviderCatalog;
    use rand::rngs::StdRng;

    fn build(
        seed: u64,
        n_inst: usize,
        n_users: usize,
    ) -> (Vec<Instance>, Vec<UserProfile>, Vec<(UserId, UserId)>) {
        let mut cfg = WorldConfig::tiny(seed);
        cfg.n_instances = n_inst;
        cfg.n_users = n_users;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut r1 = StdRng::seed_from_u64(sub_seed(seed, 1));
        let stage = crate::instances::generate(&cfg, &providers, &mut r1);
        let mut instances = stage.instances;
        let users = crate::users::generate(&cfg, &mut instances, &stage.popularity);
        let follows = generate(&cfg, &instances, &users);
        (instances, users, follows)
    }

    fn to_graph(n: usize, follows: &[(UserId, UserId)]) -> DiGraph {
        DiGraph::from_edges(n as u32, follows.iter().map(|&(a, b)| (a.0, b.0)))
    }

    #[test]
    fn no_self_loops_and_in_range() {
        let (_, users, follows) = build(3, 40, 2_000);
        for &(a, b) in &follows {
            assert_ne!(a, b);
            assert!(a.index() < users.len() && b.index() < users.len());
        }
    }

    #[test]
    fn canonical_order_sorted_unique_per_user() {
        let (_, _, follows) = build(4, 40, 2_000);
        for w in follows.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(
                a.0 .0 < b.0 .0 || (a.0 == b.0 && a.1 .0 < b.1 .0),
                "{a:?} !< {b:?}"
            );
        }
    }

    #[test]
    fn block_size_is_unobservable() {
        let (instances, users, follows) = build(6, 40, 2_000);
        let mut cfg = WorldConfig::tiny(6);
        cfg.n_instances = 40;
        cfg.n_users = 2_000;
        let cursor = SocialCursor::new(&cfg, &instances, &users);
        for block in [1usize, 7, 333, 10_000] {
            let mut streamed = Vec::new();
            cursor.stream(block, &mut |a, b| streamed.push((UserId(a), UserId(b))));
            assert_eq!(streamed, follows, "block {block} diverged");
        }
    }

    #[test]
    fn cursor_seeks_without_replay() {
        // Emitting user k alone equals user k's slice of the full stream —
        // no prefix replay needed (the recover crate's resume contract).
        let (instances, users, follows) = build(8, 40, 1_500);
        let mut cfg = WorldConfig::tiny(8);
        cfg.n_instances = 40;
        cfg.n_users = 1_500;
        let cursor = SocialCursor::new(&cfg, &instances, &users);
        for probe in [0u32, 1, 700, 1_499] {
            let buf = cursor.segment(probe, probe + 1).targets;
            let expect: Vec<u32> = follows
                .iter()
                .filter(|(a, _)| a.0 == probe)
                .map(|(_, b)| b.0)
                .collect();
            assert_eq!(buf, expect, "user {probe}");
        }
    }

    #[test]
    fn mean_degree_near_target() {
        let (_, users, follows) = build(5, 40, 4_000);
        let mean = follows.len() as f64 / users.len() as f64;
        assert!(
            mean > 5.0 && mean < 25.0,
            "mean out-degree {mean} out of band"
        );
    }

    #[test]
    fn lcc_is_nearly_everyone() {
        let (_, users, follows) = build(7, 40, 4_000);
        let g = to_graph(users.len(), &follows);
        let wcc = weakly_connected(&g, None);
        let frac = wcc.largest() as f64 / users.len() as f64;
        assert!(frac > 0.99, "LCC fraction {frac}");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let (_, users, follows) = build(11, 40, 6_000);
        let g = to_graph(users.len(), &follows);
        let in_degrees: Vec<f64> = (0..users.len() as u32)
            .map(|v| g.in_degree(v) as f64)
            .collect();
        let max_in = in_degrees.iter().cloned().fold(0.0, f64::max);
        let mean_in = in_degrees.iter().sum::<f64>() / in_degrees.len() as f64;
        // hubs exist: max ≫ mean
        assert!(
            max_in > 20.0 * mean_in,
            "no hubs: max {max_in} mean {mean_in}"
        );
        let fit = fediscope_stats::PowerLawFit::fit(&in_degrees, 5.0).expect("fit");
        assert!(
            fit.alpha > 1.3 && fit.alpha < 4.0,
            "implausible alpha {}",
            fit.alpha
        );
    }

    #[test]
    fn homophily_matches_configuration() {
        let (_, users, follows) = build(13, 200, 8_000);
        let same_inst = follows
            .iter()
            .filter(|&&(a, b)| users[a.index()].instance == users[b.index()].instance)
            .count() as f64
            / follows.len() as f64;
        // p_follow_same_instance is 0.30, but the concentration of users on
        // a few big instances means country/global draws also frequently
        // land on the follower's own instance; the share sits well above the
        // parameter and below total dominance.
        assert!(
            same_inst > 0.25 && same_inst < 0.80,
            "same-instance share {same_inst}"
        );
        // there must still be substantial federation
        assert!(1.0 - same_inst > 0.15, "cross-instance share too small");
    }

    #[test]
    fn federation_graph_mostly_connected() {
        let (instances, users, follows) = build(17, 80, 6_000);
        let mut fed = std::collections::HashSet::new();
        for &(a, b) in &follows {
            let (ia, ib) = (users[a.index()].instance, users[b.index()].instance);
            if ia != ib {
                fed.insert((ia.0, ib.0));
            }
        }
        let g = DiGraph::from_edges(instances.len() as u32, fed.iter().copied());
        let wcc = weakly_connected(&g, None);
        // instances with zero users are isolated; among populated ones the
        // LCC should dominate
        let populated = instances.iter().filter(|i| i.user_count > 0).count();
        let frac = wcc.largest() as f64 / populated.max(1) as f64;
        assert!(frac > 0.7, "federation LCC fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let (_, _, a) = build(23, 40, 2_000);
        let (_, _, b) = build(23, 40, 2_000);
        assert_eq!(a, b);
    }

    #[test]
    fn out_degree_sampler_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let alpha = solve_alpha(10.8, 100);
        for _ in 0..5_000 {
            let d = sample_out_degree(alpha, 100, &mut rng);
            assert!((1..=100).contains(&d));
        }
        let cap = 10_000;
        let alpha = solve_alpha(10.8, cap);
        let mean: f64 = (0..100_000)
            .map(|_| sample_out_degree(alpha, cap, &mut rng) as f64)
            .sum::<f64>()
            / 100_000.0;
        // truncation-corrected alpha should land near the requested mean
        assert!(mean > 6.0 && mean < 18.0, "sampled mean {mean}");
    }

    #[test]
    fn solve_alpha_monotone_in_mean() {
        let a_small = solve_alpha(3.0, 1000);
        let a_big = solve_alpha(20.0, 1000);
        // larger target mean needs a heavier tail (smaller alpha)
        assert!(a_big < a_small);
        assert!(a_small > 1.05 && a_small < 3.5);
    }

    #[test]
    fn tiny_population_degenerate_ok() {
        let mut cfg = WorldConfig::tiny(1);
        cfg.n_instances = 2;
        cfg.n_users = 1;
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut r = StdRng::seed_from_u64(1);
        let stage = crate::instances::generate(&cfg, &providers, &mut r);
        let mut instances = stage.instances;
        let users = crate::users::generate(&cfg, &mut instances, &stage.popularity);
        let follows = generate(&cfg, &instances, &users);
        assert!(follows.is_empty());
    }
}
