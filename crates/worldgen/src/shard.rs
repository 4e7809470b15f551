//! Sharding protocol for deterministic parallel worldgen.
//!
//! Every generator stage draws from **counter-derived per-unit RNG
//! streams** (the idiom established by [`crate::toots`] and
//! `replication::weighted`): a unit — one user, one instance — gets
//! `unit_rng(stage_seed, unit)`, so its draws do not depend on how the
//! population is partitioned into work blocks. A stage then shards as
//!
//! ```text
//!   blocks(n, block)  ──►  parallel_map  ──►  concat segments
//! ```
//!
//! and the concatenation is bit-identical to the serial left-to-right
//! walk at **any** block size and thread count. The differential
//! proptests in `tests/sharded.rs` enforce this with the FNV-1a world
//! digests defined here.
//!
//! Serial passes are still allowed where an aggregate is genuinely
//! global (e.g. per-instance activity sums, which are f64 and therefore
//! order-sensitive); the rule is that such passes run over the already
//! concatenated output, never inside a shard.

use fediscope_model::schedule::OutageArena;
use fediscope_model::{OutageCause, TootArena, UserProfile};

/// Default number of users (or instances) per work block. Small enough
/// that a modern-tier stage yields ~16 blocks per core, large enough
/// that per-block RNG setup is noise.
pub const DEFAULT_BLOCK: usize = 65_536;

/// Default number of instances per work block for the per-instance
/// stages (availability, rebirth): instance populations are ~30x smaller
/// than user populations, so the blocks shrink accordingly.
pub const INSTANCE_BLOCK: usize = 4_096;

/// Split `0..n` into half-open `[lo, hi)` blocks of at most `block`
/// units. `block == 0` is treated as one block spanning everything.
pub fn blocks(n: usize, block: usize) -> Vec<(usize, usize)> {
    let block = if block == 0 { n.max(1) } else { block };
    let mut out = Vec::with_capacity(n / block + 1);
    let mut lo = 0;
    while lo < n {
        let hi = (lo + block).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// The counter-derived per-unit RNG stream: unit `u` of a stage always
/// sees the same draws, regardless of which shard visits it.
pub fn unit_rng(stage_seed: u64, unit: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(stage_seed ^ (unit + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// 64-bit FNV-1a over a word stream (each word hashed little-endian).
pub fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of the user table: identity, placement, activity, and the
/// exact login-probability bits.
pub fn digest_users(users: &[UserProfile]) -> u64 {
    fnv1a64(users.iter().flat_map(|u| {
        [
            u.id.0 as u64,
            u.instance.0 as u64,
            u.toot_count as u64,
            u.weekly_login_prob.to_bits() as u64,
        ]
    }))
}

/// Digest of an edge stream in arrival order.
pub fn digest_edges(edges: impl IntoIterator<Item = (u32, u32)>) -> u64 {
    fnv1a64(
        edges
            .into_iter()
            .map(|(a, b)| ((a as u64) << 32) | b as u64),
    )
}

fn cause_code(c: OutageCause) -> u64 {
    match c {
        OutageCause::Organic => 0,
        OutageCause::CertExpiry => 1,
        OutageCause::AsFailure => 2,
        OutageCause::CertLapseCascade => 3,
        OutageCause::SharedFate => 4,
        OutageCause::Churn => 5,
    }
}

/// Digest of a built [`OutageArena`]: per instance, lifetime plus every
/// merged `(start, end, cause)` interval.
pub fn digest_arena(arena: &OutageArena) -> u64 {
    fnv1a64(arena.views().flat_map(|v| {
        let mut words = vec![v.birth.0 as u64, v.death.0 as u64];
        for k in 0..v.starts.len() {
            words.push(v.starts[k].0 as u64);
            words.push(v.ends[k].0 as u64);
            words.push(cause_code(v.causes[k]));
        }
        words
    }))
}

/// Digest of a [`TootArena`]: horizon plus the author list at every
/// tick, in stored order.
pub fn digest_toots(arena: &TootArena) -> u64 {
    let per_tick = (0..arena.horizon()).flat_map(|t| {
        std::iter::once(u64::MAX).chain(arena.authors_at(t).iter().map(|&a| a as u64))
    });
    fnv1a64(std::iter::once(arena.horizon() as u64).chain(per_tick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_exactly() {
        for n in [0usize, 1, 7, 64, 65, 1000] {
            for b in [1usize, 3, 64, 0] {
                let bs = blocks(n, b);
                let mut expect = 0;
                for &(lo, hi) in &bs {
                    assert_eq!(lo, expect);
                    assert!(hi > lo);
                    expect = hi;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn unit_rng_is_keyed_not_sequential() {
        use rand::Rng;
        let a: u64 = unit_rng(9, 4).r#gen();
        let b: u64 = unit_rng(9, 5).r#gen();
        assert_ne!(a, b);
        let a2: u64 = unit_rng(9, 4).r#gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a of the byte string "a" is a published vector; one u64
        // word 0x61 hashes its 8 LE bytes (a + seven NULs).
        assert_ne!(fnv1a64([0x61u64]), fnv1a64([0x62u64]));
        assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn edge_digest_is_order_sensitive() {
        let a = digest_edges([(1, 2), (3, 4)]);
        let b = digest_edges([(3, 4), (1, 2)]);
        assert_ne!(a, b);
    }
}
