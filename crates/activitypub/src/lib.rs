//! # fediscope-activitypub
//!
//! A from-scratch subset of the ActivityPub/WebFinger federation stack —
//! the protocol layer Mastodon and Pleroma share (the paper, §2: Mastodon
//! supports OStatus and, from v1.6, ActivityPub, which is what lets the two
//! implementations federate).
//!
//! Implemented:
//! - actor documents and id/inbox/outbox URL construction ([`actor`]),
//! - WebFinger `acct:` resolution documents ([`webfinger`]),
//! - the four activities the study's traffic needs: `Follow`, `Accept`,
//!   `Create(Note)`, `Announce` ([`activity`]).
//!
//! Not implemented (outside the study's scope): HTTP signatures, Linked Data
//! signatures, collections paging beyond followers, `Undo`/`Delete`/`Move`
//! activities, and OStatus/Salmon legacy federation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod actor;
pub mod webfinger;

pub use activity::Activity;
pub use actor::Actor;
pub use webfinger::WebFingerDoc;
