//! # fediscope-monitor
//!
//! Availability analytics over monitoring data — the §4.4 machinery:
//!
//! - [`observe`]: reconstruct outage schedules from raw poll series (what a
//!   measurement sees) so every analysis runs identically on ground truth
//!   and on crawled data,
//! - [`downtime`]: lifetime downtime distributions and the unavailable
//!   users/toots exposure (Fig. 7),
//! - [`daily`]: per-day downtime by instance size bin, vs Twitter (Fig. 8),
//! - [`outages`]: continuous-outage durations and worst-day impact
//!   (Fig. 10),
//! - [`asn`]: AS-wide co-failure detection (Table 1),
//! - [`certs`]: certificate-expiry attribution (Fig. 9),
//! - [`sweep`]: the columnar engine — one sharded pass over an
//!   [`fediscope_model::schedule::OutageArena`] folds Figs. 7, 8, 10, the
//!   worst-day blackout, and Table 1 at once, bit-identical to the naive
//!   per-schedule path at any shard count.
//!
//! Each analysis module keeps its per-schedule function as the reference
//! ([`naive_section4`] composes them); [`sweep`] folds the same figures out
//! of the flat interval columns in the single production pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod certs;
pub mod daily;
pub mod downtime;
pub mod observe;
pub mod outages;
pub mod sweep;

pub use observe::{arena_from_polls, arena_from_polls_with_coverage, CrawlCoverage};
pub use sweep::{naive_section4, MonitorSweep, SweepConfig, SweepOutput};
