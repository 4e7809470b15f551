//! Checkpoint/resume for the federation simulator.
//!
//! [`FedSimState`] is the serialized form of everything
//! [`FedSim`] mutates: per-tick counters, the accumulated
//! series, and for every instance the sender side (retry heap as a
//! sorted list, suspension table with parked mail, breaker counts,
//! transcript digest) and the receiver side (inbox FIFO, saturation and
//! latency accounting, digest). Derived values — inbox capacities,
//! service rates, the horizon — are *not* stored; resume recomputes them
//! from the config, so a snapshot can never disagree with its config.
//!
//! The recover traits plug the simulator into
//! [`fediscope_recover::run_checkpointed`]: `Steppable` exposes the tick
//! loop, `Snapshot` captures state, and [`resume_or_restart`] is the
//! read side — take the newest good snapshot from a store (skipping torn
//! ones) or honestly restart from scratch when nothing usable survived.
//!
//! **Resume identity** (proptested in `tests/recover.rs`, CI-gated via
//! `bench recover`): crash at any tick, resume from any checkpoint ≤ the
//! crash, and the finished run — report, series, per-instance loads,
//! `event_hash` — is bit-identical to the run that never crashed.

use std::collections::{BTreeMap, VecDeque};

use fediscope_model::schedule::OutageArena;
use fediscope_model::TootArena;
use fediscope_recover::{recover_latest, Snapshot, SnapshotStore, Steppable};
use serde::{Deserialize, Serialize};

use super::engine::FedSim;
use super::events::Msg;
use super::fanout::FanoutArena;
use super::metrics::TickStat;
use super::FedSimConfig;

/// Frame kind tag for fedsim snapshots.
pub const FEDSIM_KIND: &str = "fedsim";

/// Schema version of [`FedSimState`]. Bump on any shape change.
pub const FEDSIM_STATE_VERSION: u32 = 1;

/// One suspended destination: its parked mail and next probe tick.
///
/// The per-instance snaps below ([`SuspensionSnap`], [`SourceSnap`],
/// [`DestSnap`]) serialize as compact positional arrays, not field-named
/// objects, and message queues pack into single byte columns
/// ([`Msg::write_le`] records inside `Value::Bytes`): a checkpoint
/// carries two snaps per instance plus every in-flight [`Msg`], and at
/// paper scale per-node tree overhead dominated both frame size and
/// encode time. Field and record order are part of the frame format —
/// append-only, and bump [`FEDSIM_STATE_VERSION`] on any change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspensionSnap {
    /// Held-back messages in park order.
    pub parked: VecDeque<Msg>,
    /// Next reachability probe tick — must *not* reset on resume.
    pub probe_due: u32,
}

/// A message queue as one packed byte column of LE records.
fn msg_column<'a>(msgs: impl ExactSizeIterator<Item = &'a Msg>) -> serde::Value {
    let mut out = Vec::with_capacity(msgs.len() * Msg::LE_LEN);
    for m in msgs {
        m.write_le(&mut out);
    }
    serde::Value::Bytes(out)
}

fn msg_column_back(v: &serde::Value, what: &'static str) -> Result<Vec<Msg>, serde::Error> {
    let b = v
        .as_bytes()
        .ok_or_else(|| serde::Error::custom(format!("{what}: expected packed msg bytes")))?;
    if b.len() % Msg::LE_LEN != 0 {
        return Err(serde::Error::custom(format!("{what}: ragged msg column")));
    }
    Ok(b.chunks_exact(Msg::LE_LEN).map(Msg::read_le).collect())
}

impl Serialize for SuspensionSnap {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Array(vec![msg_column(self.parked.iter()), self.probe_due.to_json_value()])
    }
}

impl Deserialize for SuspensionSnap {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let a = v
            .as_array()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| serde::Error::custom("SuspensionSnap: expected [parked,probe_due]"))?;
        Ok(SuspensionSnap {
            parked: msg_column_back(&a[0], "SuspensionSnap.parked")?.into(),
            probe_due: u32::from_json_value(&a[1])?,
        })
    }
}

/// Sender-side state of one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSnap {
    /// Retry schedule in pop order (`RetryQueue::entries`); backoff
    /// deadlines survive the crash untouched.
    pub retry: Vec<(u32, Msg)>,
    /// Suspended destinations keyed by instance id.
    pub suspended: BTreeMap<u32, SuspensionSnap>,
    /// Consecutive-failure breaker counts per destination.
    pub breaker: BTreeMap<u32, u32>,
    /// Messages abandoned after the retry budget.
    pub dropped: u64,
    /// Redelivery attempts emitted.
    pub redelivery_attempts: u64,
    /// Suspensions ever entered.
    pub suspensions: u64,
    /// Suspensions lifted by probes.
    pub recovered: u64,
    /// Transcript digest accumulator.
    pub digest: u64,
}

/// A `BTreeMap<u32, V>` as a compact `[[k, v], …]` pair list (the derive
/// form would stringify every key).
fn pairs<V: Serialize>(m: &BTreeMap<u32, V>) -> serde::Value {
    serde::Value::Array(
        m.iter()
            .map(|(k, v)| serde::Value::Array(vec![k.to_json_value(), v.to_json_value()]))
            .collect(),
    )
}

/// The retry schedule as 20-byte records: due tick (u32 LE) + msg.
fn retry_column(entries: &[(u32, Msg)]) -> serde::Value {
    let mut out = Vec::with_capacity(entries.len() * (4 + Msg::LE_LEN));
    for (due, m) in entries {
        out.extend_from_slice(&due.to_le_bytes());
        m.write_le(&mut out);
    }
    serde::Value::Bytes(out)
}

fn retry_column_back(v: &serde::Value) -> Result<Vec<(u32, Msg)>, serde::Error> {
    let b = v
        .as_bytes()
        .ok_or_else(|| serde::Error::custom("SourceSnap.retry: expected packed bytes"))?;
    const REC: usize = 4 + Msg::LE_LEN;
    if b.len() % REC != 0 {
        return Err(serde::Error::custom("SourceSnap.retry: ragged retry column"));
    }
    Ok(b.chunks_exact(REC)
        .map(|r| (u32::from_le_bytes(r[..4].try_into().unwrap()), Msg::read_le(&r[4..])))
        .collect())
}

impl Serialize for SourceSnap {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Array(vec![
            retry_column(&self.retry),
            pairs(&self.suspended),
            pairs(&self.breaker),
            self.dropped.to_json_value(),
            self.redelivery_attempts.to_json_value(),
            self.suspensions.to_json_value(),
            self.recovered.to_json_value(),
            self.digest.to_json_value(),
        ])
    }
}

impl Deserialize for SourceSnap {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let a = v
            .as_array()
            .filter(|a| a.len() == 8)
            .ok_or_else(|| serde::Error::custom("SourceSnap: expected 8-element array"))?;
        Ok(SourceSnap {
            retry: retry_column_back(&a[0])?,
            suspended: Vec::<(u32, SuspensionSnap)>::from_json_value(&a[1])?
                .into_iter()
                .collect(),
            breaker: Vec::<(u32, u32)>::from_json_value(&a[2])?.into_iter().collect(),
            dropped: u64::from_json_value(&a[3])?,
            redelivery_attempts: u64::from_json_value(&a[4])?,
            suspensions: u64::from_json_value(&a[5])?,
            recovered: u64::from_json_value(&a[6])?,
            digest: u64::from_json_value(&a[7])?,
        })
    }
}

/// Receiver-side state of one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestSnap {
    /// Queued inbox messages in FIFO order.
    pub inbox: VecDeque<Msg>,
    /// Deepest the inbox ever got.
    pub peak_depth: u32,
    /// First saturation tick, if any.
    pub first_saturated: Option<u32>,
    /// Prompt deliveries so far.
    pub delivered_prompt: u64,
    /// Delayed deliveries so far.
    pub delivered_delayed: u64,
    /// Latency accumulator.
    pub latency_sum: u64,
    /// Transcript digest accumulator.
    pub digest: u64,
}

impl Serialize for DestSnap {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Array(vec![
            msg_column(self.inbox.iter()),
            self.peak_depth.to_json_value(),
            self.first_saturated.to_json_value(),
            self.delivered_prompt.to_json_value(),
            self.delivered_delayed.to_json_value(),
            self.latency_sum.to_json_value(),
            self.digest.to_json_value(),
        ])
    }
}

impl Deserialize for DestSnap {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let a = v
            .as_array()
            .filter(|a| a.len() == 7)
            .ok_or_else(|| serde::Error::custom("DestSnap: expected 7-element array"))?;
        Ok(DestSnap {
            inbox: msg_column_back(&a[0], "DestSnap.inbox")?.into(),
            peak_depth: u32::from_json_value(&a[1])?,
            first_saturated: Option::from_json_value(&a[2])?,
            delivered_prompt: u64::from_json_value(&a[3])?,
            delivered_delayed: u64::from_json_value(&a[4])?,
            latency_sum: u64::from_json_value(&a[5])?,
            digest: u64::from_json_value(&a[6])?,
        })
    }
}

/// The complete resumable state of a [`FedSim`] between two ticks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FedSimState {
    /// Ticks completed.
    pub tick: u32,
    /// Next fan-out sequence number (the message-identity RNG counter).
    pub next_seq: u32,
    /// Messages created by fan-out so far.
    pub fanned_out: u64,
    /// Messages serviced out of inboxes so far.
    pub delivered_total: u64,
    /// Messages abandoned so far.
    pub dropped_total: u64,
    /// Probes sent so far.
    pub probes_total: u64,
    /// Delivery attempts sent so far.
    pub attempts_total: u64,
    /// Backpressure rejections so far.
    pub rejected_full_total: u64,
    /// Down rejections so far.
    pub rejected_down_total: u64,
    /// Per-tick series accumulated so far.
    pub series: Vec<TickStat>,
    /// Sender-side state, one per instance.
    pub sources: Vec<SourceSnap>,
    /// Receiver-side state, one per instance.
    pub dests: Vec<DestSnap>,
}

impl Steppable for FedSim<'_> {
    fn tick(&self) -> u64 {
        FedSim::tick(self) as u64
    }

    fn is_done(&self) -> bool {
        FedSim::is_done(self)
    }

    fn step(&mut self) {
        self.step_tick();
    }
}

impl Snapshot for FedSim<'_> {
    const KIND: &'static str = FEDSIM_KIND;
    const STATE_VERSION: u32 = FEDSIM_STATE_VERSION;

    fn virtual_tick(&self) -> u64 {
        FedSim::tick(self) as u64
    }

    fn snapshot_state(&self) -> serde::Value {
        self.capture().to_json_value()
    }
}

/// What recovery found in the checkpoint store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryInfo {
    /// Tick of the snapshot resumed from; `None` means no snapshot was
    /// usable (none existed, every one was torn, or the newest good one
    /// did not fit) and the run restarted from scratch — the honest
    /// degradation, reported rather than hidden.
    pub resumed_from: Option<u64>,
    /// Snapshots skipped as torn or corrupt, including a checksummed
    /// frame whose state fails to decode or does not fit the world.
    pub torn_skipped: u32,
}

/// Rebuild a simulator from the newest good snapshot in `store`, or from
/// scratch when no snapshot survives. Never panics on a bad frame: a torn
/// frame, or a checksummed one whose state fails to decode or does not
/// fit this world (see [`FedSim::resume`]), is skipped and counted in the
/// returned [`RecoveryInfo`]; a newest good frame that does not fit means
/// a restart from scratch.
pub fn resume_or_restart<'a, S: SnapshotStore>(
    store: &S,
    cfg: FedSimConfig,
    fanout: &'a FanoutArena,
    toots: &'a TootArena,
    dest_users: &[u32],
    outages: OutageArena,
) -> (FedSim<'a>, RecoveryInfo) {
    let rec = recover_latest(store, FEDSIM_KIND, FEDSIM_STATE_VERSION);
    let mut info = RecoveryInfo { resumed_from: None, torn_skipped: rec.torn_skipped };
    let mut sim = FedSim::new(cfg, fanout, toots, dest_users, outages);
    if let Some((meta, value)) = &rec.good {
        match FedSimState::from_json_value(value).and_then(|state| sim.restore(&state)) {
            Ok(()) => info.resumed_from = Some(meta.tick),
            Err(_) => info.torn_skipped += 1,
        }
    }
    (sim, info)
}
