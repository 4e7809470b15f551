//! # fediscope-crawler
//!
//! The measurement toolkit of the study (§3), as a reusable library:
//!
//! - [`discovery`]: the seed list of instances (the mnm.social index),
//! - [`monitor`]: the 5-minute `/api/v1/instance` poller producing the
//!   *Instances* dataset,
//! - [`toots`]: the multi-worker toot crawler walking paged public
//!   timelines with politeness delays, producing the *Toots* dataset
//!   ("we parallelised this across 10 threads on 7 machines … we introduced
//!   artificial delays between API calls"),
//! - [`followers`]: the follower-list scraper producing the *Graphs*
//!   dataset,
//! - [`politeness`]: concurrency limits, delays, retry/backoff/breaker
//!   policy knobs,
//! - [`retry`]: the shared retry engine — capped jittered backoff,
//!   `retry-after`-honouring 429 handling, per-instance circuit breakers.
//!
//! Everything is cancellation-safe in the async-book sense: buffers and
//! partial results live in owned collections, so dropping a crawl future
//! mid-flight never corrupts state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod followers;
pub mod monitor;
pub mod politeness;
pub mod retry;
pub mod toots;

pub use discovery::SeedList;
pub use monitor::{InstanceMonitor, MonitorState};
pub use politeness::Politeness;
pub use retry::{fetch_with_retry, BreakerBank, FetchResult};
