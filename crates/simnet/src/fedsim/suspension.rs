//! Federation-level circuit breaker: unreachable-instance suspension.
//!
//! After `suspend_after` consecutive failures toward one destination, a
//! source stops attempting deliveries to it (Mastodon marks the instance
//! unreachable): messages *park* instead of burning retry attempts, and a
//! periodic zero-footprint probe checks for recovery. A successful probe
//! flushes everything parked into the redelivery queue as a catch-up
//! burst.
//!
//! [`SourceState`] bundles the whole sender side for one instance —
//! retry queue, suspension table, failure breaker, drop accounting — and
//! is the unit of sharding for phases S and R.

use std::collections::{BTreeMap, HashMap, VecDeque};

use super::events::{EventDigest, Msg};
use super::redelivery::RetryQueue;

/// One suspended destination, as seen from one source.
#[derive(Debug, Clone)]
pub struct Suspension {
    /// Messages held back while the destination is unreachable, in park
    /// order.
    pub parked: VecDeque<Msg>,
    /// Next tick to send a reachability probe.
    pub probe_due: u32,
}

/// Mutable per-source-instance state (sharded by instance in phases S/R).
#[derive(Debug, Clone, Default)]
pub struct SourceState {
    /// Redelivery schedule for failed (non-suspended) messages.
    pub retry: RetryQueue,
    /// Suspended destinations, keyed by instance id (BTreeMap: probes are
    /// emitted in ascending-destination order, deterministically).
    pub suspended: BTreeMap<u32, Suspension>,
    /// Consecutive-failure counts per destination. The tick loop only
    /// looks entries up; `FedSim::capture` iterates the map into a
    /// `BTreeMap`, so its order never reaches the output.
    pub breaker: HashMap<u32, u32>,
    /// Messages abandoned after exhausting their delivery attempts.
    pub dropped: u64,
    /// Non-first delivery attempts emitted (redelivery traffic).
    pub redelivery_attempts: u64,
    /// Suspensions ever entered.
    pub suspensions: u64,
    /// Suspensions lifted by a successful probe.
    pub recovered: u64,
    /// Transcript digest of every outcome this source processed.
    pub digest: EventDigest,
}

impl SourceState {
    /// Is `dst` currently suspended?
    pub fn is_suspended(&self, dst: u32) -> bool {
        self.suspended.contains_key(&dst)
    }

    /// Park `msg` behind its suspended destination. Panics if the
    /// destination is not suspended (callers must check first).
    pub fn park(&mut self, msg: Msg) {
        self.suspended
            .get_mut(&msg.dst)
            .expect("park requires an active suspension")
            .parked
            .push_back(msg);
    }

    /// Enter suspension for `dst` with `msg` as the first parked message.
    pub fn suspend(&mut self, dst: u32, msg: Msg, probe_due: u32) {
        let prev = self.suspended.insert(
            dst,
            Suspension {
                parked: VecDeque::from([msg]),
                probe_due,
            },
        );
        debug_assert!(prev.is_none(), "double suspension for dst {dst}");
        self.suspensions += 1;
    }

    /// Lift the suspension of `dst` (a probe succeeded): flush every
    /// parked message into the retry queue due `resume_tick` — the
    /// catch-up burst — and reset the breaker.
    pub fn unsuspend(&mut self, dst: u32, resume_tick: u32) {
        let susp = self
            .suspended
            .remove(&dst)
            .expect("unsuspend requires suspension");
        for msg in susp.parked {
            self.retry.push(resume_tick, msg);
        }
        self.breaker.insert(dst, 0);
        self.recovered += 1;
    }

    /// Record one failure toward `dst`; returns the new consecutive count.
    pub fn breaker_trip(&mut self, dst: u32) -> u32 {
        let c = self.breaker.entry(dst).or_insert(0);
        *c += 1;
        *c
    }

    /// Record a success toward `dst` (resets the consecutive count).
    pub fn breaker_reset(&mut self, dst: u32) {
        self.breaker.insert(dst, 0);
    }

    /// Messages currently parked behind suspended destinations.
    pub fn parked_len(&self) -> usize {
        self.suspended.values().map(|s| s.parked.len()).sum()
    }

    /// All sender-held messages (retry + parked).
    pub fn backlog(&self) -> usize {
        self.retry.len() + self.parked_len()
    }

    /// True when no retry is scheduled and no destination is suspended:
    /// with no new mail, a tick would not touch this source.
    pub(crate) fn is_idle(&self) -> bool {
        self.retry.is_empty() && self.suspended.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u32, dst: u32) -> Msg {
        Msg {
            seq,
            dst,
            created: 0,
            attempts: 1,
        }
    }

    #[test]
    fn suspend_park_unsuspend_cycle() {
        let mut s = SourceState::default();
        assert!(!s.is_suspended(3));
        s.suspend(3, msg(0, 3), 10);
        assert!(s.is_suspended(3));
        s.park(msg(1, 3));
        s.park(msg(2, 3));
        assert_eq!(s.parked_len(), 3);
        s.unsuspend(3, 21);
        assert!(!s.is_suspended(3));
        assert_eq!(s.parked_len(), 0);
        assert_eq!(s.retry.len(), 3, "catch-up burst lands in retry");
        // burst comes due in seq order at the resume tick
        let burst = s.retry.take_due(21).unwrap();
        assert_eq!(burst.iter().map(|m| m.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!((s.suspensions, s.recovered), (1, 1));
    }

    #[test]
    fn breaker_counts_consecutive_failures() {
        let mut s = SourceState::default();
        assert_eq!(s.breaker_trip(5), 1);
        assert_eq!(s.breaker_trip(5), 2);
        s.breaker_reset(5);
        assert_eq!(s.breaker_trip(5), 1);
        assert_eq!(s.breaker_trip(6), 1, "independent per destination");
    }
}
