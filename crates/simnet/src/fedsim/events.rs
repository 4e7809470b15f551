//! Event vocabulary of the delivery simulator.
//!
//! A toot fan-out produces one [`Msg`] per (home instance → follower
//! instance) pair; every send of a message is an [`Attempt`], every
//! attempt resolves to an [`Outcome`] carrying a [`Verdict`]. Each message
//! has a globally unique `seq` assigned in canonical fan-out order, which
//! gives every collection of in-flight messages a total order — the
//! property all the deterministic queues downstream lean on.
//!
//! [`EventDigest`] is the transcript witness: a running FNV-1a fold over
//! every event's fields, accumulated per sharded state and combined in
//! state order, so two runs produce the same digest iff they produced the
//! same events in the same order — at any shard count.

/// `seq` value reserved for synthetic probe attempts (probes are
/// zero-footprint reachability checks, not queued messages).
pub const PROBE_SEQ: u32 = u32::MAX;

/// One federation message: a toot notification bound for one remote
/// instance's inbox. In-flight messages are part of the checkpoint state
/// (`fedsim::snapshot`) — and since a checkpoint can hold tens of
/// thousands of them, whole queues serialize as one packed byte column
/// ([`Msg::write_le`] records), not one value-tree node per field:
/// checkpoint encode time scales with node count, and queued mail
/// dominates the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Msg {
    /// Globally unique fan-out sequence number (canonical creation order).
    pub seq: u32,
    /// Destination instance.
    pub dst: u32,
    /// Tick the toot was posted.
    pub created: u32,
    /// Failed delivery attempts so far.
    pub attempts: u32,
}

impl Msg {
    /// Size of one little-endian checkpoint record.
    pub const LE_LEN: usize = 16;

    /// Append this message as a fixed 16-byte little-endian record
    /// (`seq, dst, created, attempts`, 4 bytes each).
    pub fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.created.to_le_bytes());
        out.extend_from_slice(&self.attempts.to_le_bytes());
    }

    /// Read one record back; `b` must be exactly [`Msg::LE_LEN`] bytes.
    pub fn read_le(b: &[u8]) -> Msg {
        let word = |i: usize| u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().unwrap());
        Msg {
            seq: word(0),
            dst: word(1),
            created: word(2),
            attempts: word(3),
        }
    }
}

/// One send of a message (or a synthetic probe) from a source instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Sending (home) instance.
    pub src: u32,
    /// The message being sent; probes carry `seq == PROBE_SEQ`.
    pub msg: Msg,
    /// True for circuit-breaker reachability probes.
    pub probe: bool,
}

/// The receiving side's verdict on one attempt — what the sender observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Enqueued into the destination inbox (probes: would have been).
    Accepted,
    /// Bounded inbox full: backpressure, sender must retry.
    RejectedFull,
    /// Destination instance is down (outage overlay says so).
    RejectedDown,
}

impl Verdict {
    /// Stable small code for digests.
    pub fn code(self) -> u64 {
        match self {
            Verdict::Accepted => 1,
            Verdict::RejectedFull => 2,
            Verdict::RejectedDown => 3,
        }
    }
}

/// An attempt plus its verdict, routed back to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The attempt as sent.
    pub attempt: Attempt,
    /// What the destination said.
    pub verdict: Verdict,
}

/// SplitMix64 — the repo's standard cheap deterministic mixer (same
/// finalizer as `simnet::fault`); used for retry jitter.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Running FNV-1a fold over 64-bit words: the per-state transcript hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDigest(u64);

impl Default for EventDigest {
    fn default() -> Self {
        EventDigest(0xCBF2_9CE4_8422_2325) // FNV-1a offset basis
    }
}

impl EventDigest {
    /// Fold one word into the digest.
    pub fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Fold a batch of words.
    pub fn fold_all(&mut self, words: &[u64]) {
        for &w in words {
            self.fold(w);
        }
    }

    /// The current value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Rebuild a digest from a previously captured [`value`](Self::value)
    /// — the accumulator state is the value, so folds continue exactly
    /// where the captured digest left off (checkpoint/resume).
    pub fn restore(value: u64) -> Self {
        EventDigest(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = EventDigest::default();
        let mut b = EventDigest::default();
        a.fold_all(&[1, 2]);
        b.fold_all(&[2, 1]);
        assert_ne!(a.value(), b.value());
        let mut c = EventDigest::default();
        c.fold(1);
        c.fold(2);
        assert_eq!(a, c);
    }

    #[test]
    fn msg_order_is_total_by_seq_first() {
        let a = Msg {
            seq: 1,
            dst: 9,
            created: 0,
            attempts: 5,
        };
        let b = Msg {
            seq: 2,
            dst: 0,
            created: 0,
            attempts: 0,
        };
        assert!(a < b);
    }

    #[test]
    fn mix64_spreads() {
        assert_ne!(mix64(0), mix64(1));
        assert_eq!(mix64(42), mix64(42));
    }
}
