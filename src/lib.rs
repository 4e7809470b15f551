//! # fediscope
//!
//! A toolkit for **measuring and simulating the Decentralised Web**,
//! reproducing *"Challenges in the Decentralised Web: The Mastodon Case"*
//! (Raman et al., IMC 2019) end-to-end in Rust.
//!
//! This crate is the umbrella façade: it re-exports every workspace crate
//! under one namespace and provides a couple of one-line entry points.
//!
//! ```
//! use fediscope::prelude::*;
//!
//! // Generate a deterministic synthetic fediverse and run the study.
//! let world = Generator::generate_world(WorldConfig::tiny(42));
//! let obs = Observatory::new(world);
//! let growth = fediscope::core::population::fig01_growth(&obs, 30);
//! assert!(!growth.samples.is_empty());
//! ```
//!
//! The subsystems:
//!
//! | module | contents |
//! |---|---|
//! | [`stats`] | ECDFs, quantiles, correlation, power-law fits |
//! | [`model`] | the domain model (instances, users, schedules, time) |
//! | [`graph`] | CSR digraph, components, removal sweeps |
//! | [`worldgen`] | the calibrated synthetic-fediverse generator |
//! | [`httpwire`] | HTTP/1.1 from scratch on tokio |
//! | [`activitypub`] | the federation protocol subset |
//! | [`simnet`] | live simulated instances behind one listener |
//! | [`crawler`] | the measurement toolkit (monitor, toots, followers) |
//! | [`monitor`] | availability analytics (downtime, outages, AS, certs) |
//! | [`replication`] | replication strategies + DHT + evaluators |
//! | [`core`] | every figure/table of the paper as a typed analysis |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fediscope_activitypub as activitypub;
pub use fediscope_core as core;
pub use fediscope_crawler as crawler;
pub use fediscope_graph as graph;
pub use fediscope_httpwire as httpwire;
pub use fediscope_model as model;
pub use fediscope_monitor as monitor;
pub use fediscope_replication as replication;
pub use fediscope_simnet as simnet;
pub use fediscope_stats as stats;
pub use fediscope_worldgen as worldgen;

/// The most common imports in one place.
pub mod prelude {
    pub use fediscope_core::{Metric, Observatory};
    pub use fediscope_model::{World, WINDOW_DAYS, WINDOW_EPOCHS};
    pub use fediscope_worldgen::{Generator, WorldConfig};
}
