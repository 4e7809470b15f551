//! # fediscope-core
//!
//! The IMC'19 study pipeline: every figure and table of "Challenges in the
//! Decentralised Web: The Mastodon Case" as a typed, testable analysis over
//! a [`fediscope_model::World`].
//!
//! - [`observatory::Observatory`]: caches the derived artefacts (user graph,
//!   federation graph, content view, per-instance aggregates),
//! - [`population`]: Figs. 1–6 (§4.1–§4.3),
//! - [`availability`]: Figs. 7–10 and Table 1 (§4.4),
//! - [`graphs`]: Figs. 11–13 and Table 2 (§5.1),
//! - [`content`]: Figs. 14–16 (§5.2),
//! - [`delivery`]: the live §3 — the federation delivery simulator's
//!   load-concentration and outage-degradation runs,
//! - [`report`]: the [`Report`], every figure and table the `repro` binary
//!   prints, computed once, and the plain-text rendering shared by `repro`,
//!   the CLI and the examples,
//! - [`verdicts`]: automated paper-vs-measured shape checks, judged on the
//!   computed [`Report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod delivery;
pub mod content;
pub mod graphs;
pub mod observatory;
pub mod population;
pub mod report;
pub mod scenarios;
pub mod verdicts;

pub use observatory::{Metric, Observatory};
pub use report::Report;
