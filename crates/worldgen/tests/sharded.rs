//! Differential proptests for the sharded worldgen pipeline: every
//! generator stage must be **bit-identical** across shard geometries.
//!
//! The sharding contract is that each work unit derives its RNG stream
//! from a (stage seed, unit index) counter ([`shard::unit_rng`]), never
//! from draw order — so concatenating per-block segments reproduces the
//! serial output exactly, for *any* block size. These tests pin that with
//! FNV-1a digests of the concrete outputs (users, edges, outage arena,
//! toot streams) while proptest varies the seed, the block size (1..=64
//! and the production defaults), and the population shape.
//!
//! A failure here means a stage picked up order-dependent state (a shared
//! RNG, a running sum feeding back into draws) and the parallel fan-out
//! in `par::parallel_map` would silently change the world.

use fediscope_model::geo::ProviderCatalog;
use fediscope_model::schedule::OutageArena;
use fediscope_worldgen::{
    availability, instances, shard, social, sub_seed, toots, users, WorldConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small world shape the proptests can afford to regenerate ~dozens of
/// times: tiny preset, with the population nudged so block boundaries
/// land in different places relative to `n_users`.
fn shaped_config(seed: u64, extra_users: usize, extra_instances: usize) -> WorldConfig {
    let mut cfg = WorldConfig::tiny(seed);
    cfg.n_users += extra_users;
    cfg.n_instances += extra_instances;
    cfg
}

fn instance_stage(cfg: &WorldConfig) -> instances::InstanceStage {
    let providers = ProviderCatalog::with_tail(cfg.n_providers);
    instances::generate(
        cfg,
        &providers,
        &mut StdRng::seed_from_u64(sub_seed(cfg.seed, 1)),
    )
}

/// Digest a segment list as the flat `(src, dst)` edge stream it encodes.
fn digest_segments(segs: &[social::SocialSegment]) -> u64 {
    shard::digest_edges(segs.iter().flat_map(|s| {
        (0..s.offsets.len() - 1).flat_map(move |k| {
            s.targets[s.offsets[k] as usize..s.offsets[k + 1] as usize]
                .iter()
                .map(move |&t| (s.start + k as u32, t))
        })
    }))
}

proptest! {
    /// Users: serial (one spanning block) ≡ sharded at any block size.
    #[test]
    fn users_identical_at_any_block(
        seed in 0u64..1_000_000,
        extra in 0usize..97,
        block in 1usize..64,
    ) {
        let cfg = shaped_config(seed, extra, 0);
        let stage = instance_stage(&cfg);

        let serial = {
            let mut inst = stage.instances.clone();
            users::generate_with_block(&cfg, &mut inst, &stage.popularity, 0)
        };
        let mut inst = stage.instances.clone();
        let sharded = users::generate_with_block(&cfg, &mut inst, &stage.popularity, block);

        prop_assert_eq!(shard::digest_users(&serial), shard::digest_users(&sharded));
        // Block size must not leak into the instance aggregates either.
        let mut inst_serial = stage.instances.clone();
        users::generate_with_block(&cfg, &mut inst_serial, &stage.popularity, 0);
        for (a, b) in inst_serial.iter().zip(inst.iter()) {
            prop_assert_eq!(a.user_count, b.user_count);
            prop_assert_eq!(a.toot_count, b.toot_count);
        }
    }

    /// Social edges: the frozen cursor emits the same edge stream whether
    /// segmented per-user, in odd blocks, or in one spanning block.
    #[test]
    fn social_identical_at_any_block(
        seed in 0u64..1_000_000,
        extra in 0usize..61,
        block in 1usize..64,
    ) {
        let cfg = shaped_config(seed, extra, 0);
        let stage = instance_stage(&cfg);
        let mut inst = stage.instances.clone();
        let users_v = users::generate_with_block(&cfg, &mut inst, &stage.popularity, 0);
        let cursor = social::SocialCursor::new(&cfg, &inst, &users_v);

        let serial = digest_segments(&cursor.segments(0));
        prop_assert_eq!(serial, digest_segments(&cursor.segments(block)));
        prop_assert_eq!(serial, digest_segments(&cursor.segments(shard::DEFAULT_BLOCK)));
    }

    /// Availability: the unsorted-interval arena ingest is block-invariant
    /// and matches the sorted per-schedule builder path exactly.
    #[test]
    fn arena_identical_at_any_block(
        seed in 0u64..1_000_000,
        extra in 0usize..37,
        block in 1usize..64,
    ) {
        let cfg = shaped_config(seed, 0, extra);
        let stage = instance_stage(&cfg);

        let serial = {
            let mut inst = stage.instances.clone();
            availability::generate_arena_with_block(&cfg, &mut inst, 0)
        };
        let sharded = {
            let mut inst = stage.instances.clone();
            availability::generate_arena_with_block(&cfg, &mut inst, block)
        };
        // Sorted-builder reference: schedules → OutageArena::from_schedules.
        let sorted = {
            let mut inst = stage.instances.clone();
            let schedules = availability::generate_with_block(&cfg, &mut inst, 0);
            OutageArena::from_schedules(&schedules)
        };

        let want = shard::digest_arena(&serial);
        prop_assert_eq!(want, shard::digest_arena(&sharded));
        prop_assert_eq!(want, shard::digest_arena(&sorted));
    }

    /// Toot streams: per-user keyed event draws are block-invariant.
    #[test]
    fn toots_identical_at_any_block(
        seed in 0u64..1_000_000,
        extra in 0usize..53,
        block in 1usize..64,
        horizon in 4u32..48,
    ) {
        let cfg = shaped_config(seed, extra, 0);
        let stage = instance_stage(&cfg);
        let mut inst = stage.instances.clone();
        let users_v = users::generate_with_block(&cfg, &mut inst, &stage.popularity, 0);

        let serial = toots::generate_with_block(&cfg, &users_v, horizon, 1.0, 0);
        let sharded = toots::generate_with_block(&cfg, &users_v, horizon, 1.0, block);
        prop_assert_eq!(shard::digest_toots(&serial), shard::digest_toots(&sharded));
    }
}

/// The full pipeline at the production block sizes equals the explicit
/// serial pipeline — one fixed-seed end-to-end pin on top of the
/// per-stage proptests.
#[test]
fn default_blocks_match_serial_end_to_end() {
    let cfg = WorldConfig::tiny(2026);
    let stage = instance_stage(&cfg);

    let (serial_users, serial_inst) = {
        let mut inst = stage.instances.clone();
        let u = users::generate_with_block(&cfg, &mut inst, &stage.popularity, 0);
        (u, inst)
    };
    let mut inst = stage.instances.clone();
    let users_v = users::generate(&cfg, &mut inst, &stage.popularity);
    assert_eq!(
        shard::digest_users(&serial_users),
        shard::digest_users(&users_v)
    );

    let cursor = social::SocialCursor::new(&cfg, &inst, &users_v);
    let serial_cursor = social::SocialCursor::new(&cfg, &serial_inst, &serial_users);
    assert_eq!(
        digest_segments(&serial_cursor.segments(0)),
        digest_segments(&cursor.segments(shard::DEFAULT_BLOCK))
    );

    let serial_arena = {
        let mut i = serial_inst.clone();
        availability::generate_arena_with_block(&cfg, &mut i, 0)
    };
    let arena = availability::generate_arena_with_block(&cfg, &mut inst, shard::INSTANCE_BLOCK);
    assert_eq!(
        shard::digest_arena(&serial_arena),
        shard::digest_arena(&arena)
    );

    let serial_toots = toots::generate_with_block(&cfg, &serial_users, 24, 1.0, 0);
    let toots_v = toots::generate(&cfg, &users_v, 24, 1.0);
    assert_eq!(
        shard::digest_toots(&serial_toots),
        shard::digest_toots(&toots_v)
    );
}
