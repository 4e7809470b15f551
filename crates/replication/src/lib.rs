//! # fediscope-replication
//!
//! Toot replication strategies and availability-under-failure evaluation
//! (§5.2 of the paper, Figs. 15 and 16).
//!
//! The paper evaluates three schemes:
//! - **No replication**: a toot lives only on its author's instance,
//! - **Subscription replication**: a toot is replicated to every instance
//!   hosting at least one follower of the author (what Mastodon loosely
//!   does, minus persistence and global indexing),
//! - **Random replication**: each toot is copied to `n` uniformly random
//!   instances.
//!
//! Both an exact-expectation evaluator and a seeded Monte-Carlo evaluator
//! are provided ([`eval`]); they agree within sampling error (tested). The
//! global index the paper assumes ("e.g., via a Distributed Hash Table") is
//! implemented as a consistent-hash ring ([`dht`]). A capacity-weighted
//! variant ([`weighted`]) explores the paper's closing remark that
//! "it would be important to weight replication based on the resources
//! available at the instance"; it runs the uniform Monte-Carlo walk with a
//! capacity-weighted draw.
//!
//! Evaluation has two engines: the naive per-strategy reference
//! ([`eval::availability_curve`]) and the batched
//! [`AvailabilitySweep`], which compiles one removal order once
//! ([`eval::RemovalPlan`]) and folds **every** strategy's curve out of one
//! sharded pass over the [`ContentView`]'s flat CSR holder arena —
//! bit-identical output, several times faster on multi-strategy workloads
//! (see `README.md` and `BENCH_avail.json`).
//!
//! The correlated-failure extension lives in [`scenario`]: declarative
//! failure processes (AS/hoster shared fate, cert-lapse cascades,
//! geographic waves, churn with rebirth) compile into the same
//! [`RemovalPlan`] machinery, richer strategies (k-of-n erasure,
//! popularity-weighted, follower-locality) layer on top, and one sharded
//! pass emits the full strategy × scenario "replication frontier" grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content;
pub mod dht;
pub mod eval;
pub mod scenario;
pub mod weighted;

pub use content::ContentView;
pub use dht::HashRing;
pub use eval::{AvailabilityBatch, AvailabilityPoint, AvailabilitySweep, RemovalPlan, Strategy};
pub use scenario::{
    compile, evaluate_grid, naive_grid, CompiledScenario, FrontierCell, Grid, ScenarioSpec,
    ScenarioStrategy, ScenarioWorld,
};
