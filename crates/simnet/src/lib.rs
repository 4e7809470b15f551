//! # fediscope-simnet
//!
//! The simulated fediverse: every generated instance served as a live HTTP
//! endpoint (Mastodon-compatible API + ActivityPub inbox) behind a single
//! loopback listener with `Host`-header virtual hosting.
//!
//! This is the stand-in for "the public fediverse of 2017–2018" that the
//! paper measured: the crawler and the monitoring service talk to it over
//! real sockets, exercising exactly the code paths a live deployment would
//! (timeouts, pagination, retries, failures).
//!
//! Components:
//! - [`clock::SimClock`]: virtual 5-minute-epoch time, manually advanced or
//!   driven by a compressing ticker,
//! - [`state::SimState`]: world + lazily built serving indexes,
//! - [`api`]: the HTTP API surface (§3's endpoints),
//! - [`timelines`]: deterministic pageable toot enumeration,
//! - [`fault`]: smoltcp-style fault injection (errors, delays, rate limits),
//! - [`fedsim`]: the deterministic federation delivery simulator (bounded
//!   inboxes, backpressure, redelivery, suspension, outage overlays),
//! - [`net`]: the loopback listener.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod clock;
pub mod fault;
pub mod fedsim;
pub mod net;
pub mod state;
pub mod timelines;

pub use clock::SimClock;
pub use fault::{FaultDecision, FaultInjector, FaultPlan, InjectorState};
pub use fedsim::{DeliveryReport, FanoutArena, FedSim, FedSimConfig, OverlaySpec, SimRun};
pub use net::{launch, SimNetHandle};
pub use state::SimState;
pub use timelines::TimelineIndex;
