//! # fediscope-model
//!
//! Shared domain model for the fediscope toolkit: the vocabulary of the
//! IMC'19 Mastodon study expressed as Rust types.
//!
//! - [`ids`]: newtype identifiers for instances, users and ASes,
//! - [`time`]: the study's virtual clock (5-minute epochs across the
//!   2017-04-11 → 2018-07-27 measurement window) and civil-date conversion,
//! - [`taxonomy`]: the 15 instance categories of Fig. 3 and the 8 activity
//!   policies of Fig. 4,
//! - [`geo`]: countries, hosting providers (ASes) and synthetic IP blocks,
//! - [`certs`]: certificate authorities and certificate lifecycles (Fig. 9),
//! - [`instance`] / [`user`]: the core population records,
//! - [`schedule`]: per-instance availability schedules (sparse outage
//!   intervals) with cause tags,
//! - [`world`]: the fully-generated ground-truth world consumed by the
//!   simulator, the crawler and the analyses,
//! - [`followers`]: the holder arena, the one grouping of follow edges by
//!   followee behind every instance-level view of the follower graph,
//! - [`datasets`]: the *measured* datasets a crawler produces (the study's
//!   "Instances", "Toots" and "Graphs" datasets),
//! - [`scale`]: named world-scale tiers (paper-2019 / mid / modern) shared
//!   by the generator, the analyses, and the benchmarks,
//! - [`traffic`]: tick-major toot-event arenas feeding the federation
//!   delivery simulator.
//!
//! The model deliberately distinguishes ground truth ([`world::World`]) from
//! measurement ([`datasets`]): the paper only ever sees the latter, and our
//! integration tests verify the crawler recovers the former.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certs;
pub mod datasets;
pub mod followers;
pub mod geo;
pub mod ids;
pub mod instance;
pub mod scale;
pub mod schedule;
pub mod taxonomy;
pub mod time;
pub mod traffic;
pub mod user;
pub mod world;

pub use certs::{Certificate, CertificateAuthority};
pub use geo::{Country, ProviderCatalog, ProviderInfo};
pub use ids::{AsId, InstanceId, UserId};
pub use instance::{Instance, Registration, Software};
pub use scale::ScaleTier;
pub use schedule::{AvailabilitySchedule, Outage, OutageCause};
pub use taxonomy::{Activity, Category, PolicySet};
pub use time::{Day, Epoch, EPOCHS_PER_DAY, WINDOW_DAYS, WINDOW_EPOCHS};
pub use traffic::TootArena;
pub use user::UserProfile;
pub use world::World;
