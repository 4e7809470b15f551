//! Flat membership lists and Walker alias tables for the static
//! fitness-attachment social generator.
//!
//! At modern-Fediverse scale (30K instances, 1M+ accounts, ~10M follow
//! edges) the social generator's per-domain candidate sets dominate
//! memory traffic, and its samplers dominate time. Everything here lives
//! in a handful of flat arrays:
//!
//! - [`Membership`]: CSR-style *static* member lists (offsets + one flat
//!   member array), built once from counting passes.
//! - [`AliasSampler`] / [`AliasFamily`]: Walker alias tables packed as
//!   12-byte entries, one per candidate, giving O(1) weighted sampling
//!   from a **single `u64` draw** — the bucket comes from the high 32
//!   bits (a Lemire reduction), acceptance from an integer compare of
//!   the low 32 bits against a fixed-point probability. No floats, no
//!   rejection loop, at most one cache line per sample.
//!
//! The tables are immutable after construction, which is what makes the
//! sharded generator possible: every shard samples from the same frozen
//! tables with its own counter-derived RNG stream, so output is
//! independent of the partition.

/// CSR-style static membership lists: `domain -> &[u32]` built once.
#[derive(Debug, Clone)]
pub struct Membership {
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl Membership {
    /// Build from `(domain, member)` pairs; members appear in each domain's
    /// slice in the order the iterator yields them. The iterator is
    /// consumed twice (counting pass + fill pass), hence `Clone`.
    pub fn new(n_domains: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0u32; n_domains + 1];
        for (d, _) in pairs.clone() {
            offsets[d as usize + 1] += 1;
        }
        for i in 0..n_domains {
            offsets[i + 1] += offsets[i];
        }
        let mut members = vec![0u32; offsets[n_domains] as usize];
        let mut cursor: Vec<u32> = offsets[..n_domains].to_vec();
        for (d, m) in pairs {
            members[cursor[d as usize] as usize] = m;
            cursor[d as usize] += 1;
        }
        Self { offsets, members }
    }

    /// Members of `domain`, in insertion order.
    pub fn domain(&self, domain: usize) -> &[u32] {
        let lo = self.offsets[domain] as usize;
        let hi = self.offsets[domain + 1] as usize;
        &self.members[lo..hi]
    }

    /// Total members across all domains.
    pub fn total(&self) -> usize {
        self.members.len()
    }
}

/// One packed alias slot: accept `accept` if the low 32 draw bits fall
/// under `prob` (fixed-point in [0, 1]), else `alias`. Opaque outside
/// this module — callers hold `&[AliasSlot]` slices (via
/// [`AliasSampler::slots`] / [`AliasFamily::domain_slots`]) and sample
/// them with [`sample_slice`], which lets a hot loop pick its table by
/// *index* instead of re-branching through a sampler enum per draw.
#[derive(Debug, Clone, Copy)]
pub struct AliasSlot {
    prob: u32,
    accept: u32,
    alias: u32,
}

/// Vose/Walker alias-table construction over `weights`, emitting one
/// slot per entry with `ids[i]` as the accepted value. Deterministic:
/// the small/large worklists are filled in index order and popped from
/// the back.
fn build_slots(ids: &[u32], weights: &[f64], out: &mut Vec<AliasSlot>) {
    let n = ids.len();
    debug_assert_eq!(n, weights.len());
    if n == 0 {
        return;
    }
    let total: f64 = weights.iter().sum();
    let base = out.len();
    out.reserve(n);
    // Degenerate mass: fall back to uniform.
    let scale = if total > 0.0 { n as f64 / total } else { 0.0 };
    let mut scaled: Vec<f64> = weights
        .iter()
        .map(|&w| if total > 0.0 { w * scale } else { 1.0 })
        .collect();
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &p) in scaled.iter().enumerate() {
        if p < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    out.resize(
        base + n,
        AliasSlot {
            prob: u32::MAX,
            accept: 0,
            alias: 0,
        },
    );
    while let Some(&l) = large.last() {
        let Some(s) = small.pop() else { break };
        let p = scaled[s as usize];
        out[base + s as usize] = AliasSlot {
            prob: (p * 4_294_967_296.0) as u32,
            accept: ids[s as usize],
            alias: ids[l as usize],
        };
        let rem = scaled[l as usize] - (1.0 - p);
        scaled[l as usize] = rem;
        if rem < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Leftovers (either list) saturate: always accept.
    for &i in small.iter().chain(large.iter()) {
        out[base + i as usize] = AliasSlot {
            prob: u32::MAX,
            accept: ids[i as usize],
            alias: ids[i as usize],
        };
    }
}

/// Touch the cache line holding the slot `r` selects. The bucket
/// arithmetic mirrors [`sample_slots`] exactly, so a caller that batches
/// draws can issue the table touches up front as *independent* loads —
/// the out-of-order core overlaps the L2/L3 misses instead of paying one
/// serialized miss per accept/reject resolution. `black_box` keeps the
/// otherwise-dead load; the crate forbids `unsafe`, so this is the
/// portable stand-in for a prefetch intrinsic.
#[inline]
fn prefetch_slot(slots: &[AliasSlot], r: u64) {
    let n = slots.len() as u64;
    let bucket = ((r >> 32) * n) >> 32;
    std::hint::black_box(slots[bucket as usize].prob);
}

#[inline]
fn sample_slots(slots: &[AliasSlot], r: u64) -> u32 {
    let n = slots.len() as u64;
    let bucket = ((r >> 32) * n) >> 32;
    let slot = slots[bucket as usize];
    if (r as u32) < slot.prob {
        slot.accept
    } else {
        slot.alias
    }
}

/// Sample a raw slot slice from one uniform `u64`. Panics on an empty
/// slice — callers that can see empty domains must check first.
#[inline]
pub fn sample_slice(slots: &[AliasSlot], r: u64) -> u32 {
    sample_slots(slots, r)
}

/// Touch the slot a later [`sample_slice`] with the same `(slots, r)`
/// will read; a no-op on an empty slice.
#[inline]
pub fn touch_slice(slots: &[AliasSlot], r: u64) {
    if !slots.is_empty() {
        prefetch_slot(slots, r);
    }
}

/// A single frozen weighted sampler over an id set.
#[derive(Debug, Clone)]
pub struct AliasSampler {
    slots: Vec<AliasSlot>,
}

impl AliasSampler {
    /// Weighted sampler returning `ids[i]` with probability proportional
    /// to `weights[i]`. Zero total weight degrades to uniform.
    pub fn from_weighted_ids(ids: &[u32], weights: &[f64]) -> Self {
        let mut slots = Vec::new();
        build_slots(ids, weights, &mut slots);
        Self { slots }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sample from one uniform `u64`. Panics (debug) on an empty table.
    #[inline]
    pub fn sample_u64(&self, r: u64) -> u32 {
        sample_slots(&self.slots, r)
    }

    /// The raw slot table, for callers that batch draws over a fixed
    /// table set via [`sample_slice`].
    #[inline]
    pub fn slots(&self) -> &[AliasSlot] {
        &self.slots
    }
}

/// A CSR family of alias tables: one frozen weighted sampler per domain
/// (instance, country), all slots in a single flat allocation.
#[derive(Debug, Clone)]
pub struct AliasFamily {
    offsets: Vec<u32>,
    slots: Vec<AliasSlot>,
}

impl AliasFamily {
    /// One alias table per [`Membership`] domain, weighting member `m`
    /// by `weight_of(m)`.
    pub fn build(members: &Membership, n_domains: usize, weight_of: impl Fn(u32) -> f64) -> Self {
        let mut offsets = Vec::with_capacity(n_domains + 1);
        let mut slots = Vec::with_capacity(members.total());
        let mut weights: Vec<f64> = Vec::new();
        offsets.push(0);
        for d in 0..n_domains {
            let ids = members.domain(d);
            weights.clear();
            weights.extend(ids.iter().map(|&m| weight_of(m)));
            build_slots(ids, &weights, &mut slots);
            offsets.push(slots.len() as u32);
        }
        Self { offsets, slots }
    }

    /// Sample `domain` from one uniform `u64`; `None` if the domain has
    /// no candidates.
    #[inline]
    pub fn sample_u64(&self, domain: usize, r: u64) -> Option<u32> {
        let lo = self.offsets[domain] as usize;
        let hi = self.offsets[domain + 1] as usize;
        if lo == hi {
            return None;
        }
        Some(sample_slots(&self.slots[lo..hi], r))
    }

    /// `domain`'s raw slot table (possibly empty), for callers that
    /// batch draws over a fixed table set via [`sample_slice`].
    #[inline]
    pub fn domain_slots(&self, domain: usize) -> &[AliasSlot] {
        let lo = self.offsets[domain] as usize;
        let hi = self.offsets[domain + 1] as usize;
        &self.slots[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn membership_matches_vec_of_vecs() {
        let pairs = [(2u32, 10u32), (0, 11), (2, 12), (1, 13), (2, 14)];
        let m = Membership::new(4, pairs.iter().copied());
        assert_eq!(m.domain(0), &[11]);
        assert_eq!(m.domain(1), &[13]);
        assert_eq!(m.domain(2), &[10, 12, 14]);
        assert_eq!(m.domain(3), &[] as &[u32]);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn alias_sampler_tracks_weights() {
        let ids = [7u32, 8, 9];
        let weights = [1.0, 2.0, 7.0];
        let a = AliasSampler::from_weighted_ids(&ids, &weights);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut counts = [0u32; 3];
        const N: u32 = 200_000;
        for _ in 0..N {
            let v = a.sample_u64(rng.r#gen());
            counts[(v - 7) as usize] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / 10.0;
            let got = counts[i] as f64 / N as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "id {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn alias_sampler_uniform_on_zero_mass() {
        let a = AliasSampler::from_weighted_ids(&[1, 2], &[0.0, 0.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut ones = 0u32;
        for _ in 0..10_000 {
            if a.sample_u64(rng.r#gen()) == 1 {
                ones += 1;
            }
        }
        assert!((2_000..8_000).contains(&ones));
    }

    #[test]
    fn alias_family_respects_domains() {
        let pairs = [(0u32, 5u32), (0, 6), (2, 9)];
        let m = Membership::new(3, pairs.iter().copied());
        let fam = AliasFamily::build(&m, 3, |_| 1.0);
        assert_eq!(fam.sample_u64(1, 12345), None);
        assert_eq!(fam.sample_u64(2, 12345), Some(9));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = fam.sample_u64(0, rng.r#gen()).unwrap();
            assert!(v == 5 || v == 6);
        }
    }

    #[test]
    fn single_entry_table_always_accepts() {
        let a = AliasSampler::from_weighted_ids(&[42], &[3.5]);
        for r in [0u64, u64::MAX, 1 << 33] {
            assert_eq!(a.sample_u64(r), 42);
        }
    }
}
