//! Checkpoint/restore for the long-running engines.
//!
//! Every stateful long-runner in this workspace (the federation simulator,
//! the fault-injected crawl loop, the replication scenario sweep) is
//! deterministic: same seed ⇒ bit-identical output. That makes crash
//! recovery *provable* — a run killed at any virtual tick and resumed from
//! its last good snapshot must produce output bit-identical to the
//! uninterrupted run. This crate supplies the shared machinery:
//!
//! - [`format`](mod@format): a compact binary encoding of the serde [`Value`] tree,
//!   wrapped in a versioned frame (magic, format + state versions, engine
//!   kind, virtual tick, payload length, FNV-1a checksum). Torn writes —
//!   truncation or bit corruption — are detected by the length/checksum
//!   pair, never by a panic.
//! - [`store`]: checkpoint stores. [`store::DirStore`] keeps frames as
//!   files written temp-then-rename (a crash mid-write never corrupts an
//!   existing snapshot); [`store::MemStore`] is an in-memory double for
//!   fast torn-corpus proptests. [`store::recover_latest`] walks snapshots
//!   newest-first, skipping torn frames, and reports how many it skipped —
//!   when *every* snapshot is torn the caller gets an honest empty
//!   [`store::Recovery`], not garbage.
//! - [`crash`]: [`crash::CrashPlan`] — a deterministic crash injector.
//!   The kill tick is drawn from `mix(seed, counter)` (same SplitMix64
//!   finalizer idiom as `simnet`'s fault layer), and the plan can model a
//!   torn final checkpoint (the in-flight frame is truncated mid-write).
//! - [`drive`]: [`drive::Steppable`] + [`Snapshot`] traits and
//!   [`drive::run_checkpointed`], the generic loop that steps an engine on
//!   its virtual clock, checkpoints every K ticks, and honors a
//!   [`crash::CrashPlan`].
//!
//! The headline guarantee — crash-then-resume ≡ uninterrupted, bit for bit
//! — is proptested per engine (`crates/simnet/tests/recover.rs`,
//! `crates/crawler/tests/crawl_resume.rs`, `crates/replication` unit
//! tests) and CI-gated via `bench recover`.

pub mod crash;
pub mod drive;
pub mod format;
pub mod store;

pub use crash::CrashPlan;
pub use drive::{run_checkpointed, RunOutcome, Steppable};
pub use format::{decode_frame, encode_frame, FrameError, FrameMeta, FORMAT_VERSION};
pub use store::{recover_latest, write_atomic, DirStore, MemStore, Recovery, SnapshotStore};

use serde::Value;

/// An engine whose state can be captured as a versioned snapshot.
///
/// `snapshot_state` must capture *everything* the engine's transition
/// function reads — queue contents, RNG counters, digest accumulators —
/// so that an engine rebuilt from the snapshot on a fresh executor steps
/// identically to one that never stopped.
pub trait Snapshot {
    /// Engine family tag embedded in the frame (e.g. `"fedsim"`).
    /// Recovery refuses frames of a different kind.
    const KIND: &'static str;

    /// Version of the state schema. Bump on any change to the snapshot
    /// shape; recovery refuses frames with a different version rather
    /// than misinterpreting them.
    const STATE_VERSION: u32;

    /// Current virtual time (ticks stepped so far). Stored in the frame
    /// header so stores can order snapshots without decoding payloads.
    fn virtual_tick(&self) -> u64;

    /// Capture the full resumable state as a serde value tree.
    fn snapshot_state(&self) -> Value;
}

/// Encode an engine's current state as a framed snapshot, ready for a
/// [`SnapshotStore`].
pub fn snapshot_frame<E: Snapshot>(engine: &E) -> Vec<u8> {
    format::encode_frame(
        E::KIND,
        E::STATE_VERSION,
        engine.virtual_tick(),
        &engine.snapshot_state(),
    )
}
