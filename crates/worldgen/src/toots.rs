//! Stage 6: per-user toot streams for the delivery simulator.
//!
//! The user table only carries *lifetime* toot counts (Fig. 2a's
//! distribution over the 472-day measurement window). The federation
//! simulator needs those counts turned into timestamped events over its
//! much shorter horizon. This stage spreads each user's lifetime rate
//! uniformly over the simulation window: a user with `toot_count` lifetime
//! toots posts at `toot_count / WINDOW_EPOCHS` toots per tick, scaled by
//! the tier's [`fedsim_rate_scale`](fediscope_model::ScaleTier::fedsim_rate_scale)
//! knob.
//!
//! Determinism follows the repo's counter-derived-stream idiom: every user
//! draws from [`crate::shard::unit_rng`]`(sub_seed(seed, 6), user_id)`, so
//! the event stream for user *u* never depends on how many events users
//! `0..u` drew — sharding the loop or regenerating a single user's stream
//! yields bit-identical events.

use crate::config::{sub_seed, WorldConfig};
use fediscope_model::time::WINDOW_EPOCHS;
use fediscope_model::traffic::TootArena;
use fediscope_model::user::UserProfile;
use rand::Rng;

/// The worldgen stream id for this stage (stages 1–5 are taken by
/// instances/users/social/availability/twitter).
const TOOT_STAGE: u64 = 6;

/// Generate every user's toot events over `horizon` ticks and pack them
/// into a canonical [`TootArena`].
///
/// Expected events for user `u` = `toot_count / WINDOW_EPOCHS × horizon ×
/// rate_scale`; the fractional part is resolved with one Bernoulli draw so
/// the population total is unbiased. Event ticks are uniform over the
/// horizon (the paper gives no intra-day shape; uniformity keeps the
/// per-tick load interpretable as the mean rate).
pub fn generate(
    cfg: &WorldConfig,
    users: &[UserProfile],
    horizon: u32,
    rate_scale: f64,
) -> TootArena {
    generate_with_block(cfg, users, horizon, rate_scale, crate::shard::DEFAULT_BLOCK)
}

/// [`generate`] with an explicit user-block size: each block's events are
/// drawn independently from the per-user streams and concatenated. The
/// arena canonicalises per-tick author order, so output is bit-identical
/// at any block size (the sharding proptests pin this).
pub fn generate_with_block(
    cfg: &WorldConfig,
    users: &[UserProfile],
    horizon: u32,
    rate_scale: f64,
    block: usize,
) -> TootArena {
    assert!(horizon > 0, "toot horizon must be positive");
    let stage_seed = sub_seed(cfg.seed, TOOT_STAGE);
    let per_tick = rate_scale * horizon as f64 / WINDOW_EPOCHS as f64;
    let segments = fediscope_graph::par::parallel_map(
        &crate::shard::blocks(users.len(), block),
        |&(lo, hi)| {
            let mut events: Vec<(u32, u32)> = Vec::new();
            for u in &users[lo..hi] {
                if u.toot_count == 0 {
                    continue;
                }
                let expect = u.toot_count as f64 * per_tick;
                let mut rng = crate::shard::unit_rng(stage_seed, u.id.0 as u64);
                let mut count = expect.floor() as u64;
                if rng.gen_bool(expect.fract()) {
                    count += 1;
                }
                for _ in 0..count {
                    events.push((rng.gen_range(0..horizon), u.id.0));
                }
            }
            events
        },
    );
    TootArena::from_events(horizon, segments.into_iter().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Generator;

    #[test]
    fn deterministic_and_rate_calibrated() {
        let cfg = WorldConfig::tiny(11);
        let w = Generator::generate_world(cfg.clone());
        let a = generate(&cfg, &w.users, 288, 1.0);
        let b = generate(&cfg, &w.users, 288, 1.0);
        assert_eq!(a, b);
        // Expected total = total lifetime toots × horizon / window.
        let expect = w.total_toots() as f64 * 288.0 / WINDOW_EPOCHS as f64;
        let got = a.n_toots() as f64;
        assert!(
            got > expect * 0.5 && got < expect * 2.0,
            "total {got} vs expected {expect}"
        );
        // Scaling the rate scales the volume.
        let double = generate(&cfg, &w.users, 288, 2.0);
        assert!(double.n_toots() > a.n_toots());
    }

    #[test]
    fn per_user_streams_are_independent_of_population() {
        // Dropping the silent users must not perturb anyone else's events:
        // the per-user counter-derived streams make the stage shardable.
        let cfg = WorldConfig::tiny(13);
        let w = Generator::generate_world(cfg.clone());
        let full = generate(&cfg, &w.users, 64, 1.0);
        let tooting: Vec<_> = w.users.iter().filter(|u| u.has_tooted()).copied().collect();
        let only_tooting = generate(&cfg, &tooting, 64, 1.0);
        assert_eq!(full, only_tooting);
    }
}
