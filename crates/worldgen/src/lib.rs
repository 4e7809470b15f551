//! # fediscope-worldgen
//!
//! Calibrated synthetic-fediverse generator — the substitute for the IMC'19
//! paper's proprietary datasets (mnm.social's 15-month monitoring feed, the
//! May-2018 toot crawl, the July-2018 follower scrape, Maxmind geo data,
//! crt.sh certificate logs, and the pingdom/2011 Twitter baselines).
//!
//! The generator is a pipeline of seeded stages, each with its own derived
//! RNG stream (adding a stage never perturbs the others):
//!
//! 1. [`instances`]: the instance population (registration policy,
//!    categories, activity policies, hosting provider/country/IP,
//!    certificates, creation dates),
//! 2. [`users`]: user placement (Zipf popularity with open/adult boosts),
//!    toot counts, activity levels,
//! 3. [`social`]: the follower graph (preferential attachment with instance
//!    and country homophily),
//! 4. [`availability`]: outage schedules (organic + certificate expiry +
//!    AS-wide failures) and churn,
//! 5. [`growth`]: the Fig.-1 daily series,
//! 6. [`twitter`]: the comparison baselines,
//! 7. [`toots`]: per-user toot-event streams over a simulation horizon
//!    (feeds `simnet::fedsim`).
//!
//! [`Generator::generate_world`] runs stages 1–6 into a validated `World`;
//! [`Generator::social_cursor`] runs stages 1–2 and emits the follower
//! graph block by block.
//!
//! Every constant is calibrated against a number quoted in the paper; the
//! per-module doc comments give the specific citations.
//!
//! Beyond the pipeline, [`observatory`] replays a generated world's
//! schedules as a mnm.social-style 5-minute poll feed (streaming, so even
//! the 30k-instance modern tier's multi-billion-poll feed never
//! materialises).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod config;
pub mod growth;
pub mod instances;
pub mod observatory;
pub mod pools;
pub mod shard;
pub mod social;
pub mod streams;
pub mod toots;
pub mod twitter;
pub mod users;

pub use config::{sub_seed, ScaleTier, WorldConfig};

use fediscope_model::geo::ProviderCatalog;
use fediscope_model::instance::Instance;
use fediscope_model::user::UserProfile;
use fediscope_model::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The world generator: every entry point is deterministic in its config.
pub struct Generator;

impl Generator {
    /// Run the full pipeline and validate the result.
    pub fn generate_world(cfg: WorldConfig) -> World {
        let (providers, mut instances, users) = Self::user_stage(&cfg);

        let follows = social::generate(&cfg, &instances, &users);

        let schedules = availability::generate(&cfg, &mut instances);

        let total_toots: u64 = users.iter().map(|u| u.toot_count as u64).sum();
        let growth = growth::series(&schedules, users.len() as u64, total_toots);

        let mut r_twitter = StdRng::seed_from_u64(sub_seed(cfg.seed, 5));
        let twitter = twitter::generate(&cfg, &mut r_twitter);

        let world = World {
            seed: cfg.seed,
            instances,
            users,
            follows,
            schedules,
            providers,
            growth,
            twitter,
        };
        world.validate();
        world
    }

    /// Run the pipeline up to the user table (instances → users) — the
    /// prerequisite state for the social stage. Returns the provider
    /// catalog, the instances with their per-instance aggregates
    /// back-filled, and the users.
    fn user_stage(cfg: &WorldConfig) -> (ProviderCatalog, Vec<Instance>, Vec<UserProfile>) {
        let providers = ProviderCatalog::with_tail(cfg.n_providers);
        let mut r_inst = StdRng::seed_from_u64(sub_seed(cfg.seed, 1));
        let stage = instances::generate(cfg, &providers, &mut r_inst);
        let mut instances = stage.instances;
        let users = users::generate(cfg, &mut instances, &stage.popularity);
        (providers, instances, users)
    }

    /// Build a seekable social-edge cursor: instance and user stages run
    /// eagerly, then the returned [`social::SocialCursor`] can emit any
    /// user's adjacency block independently (`segment`)
    /// without replaying the users before it — block `b` maps straight to
    /// its counter-derived RNG offset. This is the resume-identity path:
    /// a crash-recovered run re-emits exactly the blocks it needs.
    pub fn social_cursor(cfg: &WorldConfig) -> social::SocialCursor {
        let (_, instances, users) = Self::user_stage(cfg);
        social::SocialCursor::new(cfg, &instances, &users)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_world_generates_and_validates() {
        let w = Generator::generate_world(WorldConfig::tiny(1));
        assert_eq!(w.instances.len(), 60);
        assert_eq!(w.users.len(), 1_500);
        assert!(!w.follows.is_empty());
        assert_eq!(w.growth.len(), 472);
        assert_eq!(w.seed, 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Generator::generate_world(WorldConfig::tiny(99));
        let b = Generator::generate_world(WorldConfig::tiny(99));
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.users, b.users);
        assert_eq!(a.follows, b.follows);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.growth, b.growth);
        assert_eq!(a.twitter, b.twitter);
    }

    #[test]
    fn seeds_produce_different_worlds() {
        let a = Generator::generate_world(WorldConfig::tiny(1));
        let b = Generator::generate_world(WorldConfig::tiny(2));
        assert_ne!(a.follows, b.follows);
    }

    #[test]
    fn instance_aggregates_match_user_table() {
        let w = Generator::generate_world(WorldConfig::tiny(5));
        let uc = w.user_counts();
        let tc = w.toot_counts();
        for (i, inst) in w.instances.iter().enumerate() {
            assert_eq!(inst.user_count, uc[i], "user_count at {i}");
            assert_eq!(inst.toot_count, tc[i], "toot_count at {i}");
        }
    }

    #[test]
    fn growth_final_day_matches_population() {
        let w = Generator::generate_world(WorldConfig::tiny(7));
        let last = w.growth.last().unwrap();
        assert_eq!(last.users as usize, w.users.len());
        assert_eq!(last.toots, w.total_toots());
    }
}
