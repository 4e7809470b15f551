//! Sender side: the redelivery queue with capped exponential backoff.
//!
//! Mastodon's sidekiq retries failed deliveries on an exponential
//! schedule. [`RetryQueue`] is the deterministic equivalent: a calendar
//! of buckets keyed by due tick, taken one bucket at a time in due order
//! and each sorted by `Msg`'s total order (unique `seq`) as it is taken,
//! so messages come due in `(due_tick, msg)` order whatever the push
//! order was. A catch-up burst, parked in emission order and flushed
//! into one due tick, costs one near-linear sort, not `O(log n)` per
//! message.
//! [`backoff_delay`] derives the retry delay from the attempt count plus
//! deterministic jitter mixed from the seed and the message identity
//! (counter-derived, like every RNG stream in this repo).

use std::collections::BTreeMap;

use super::events::{mix64, Msg};

/// Deterministic retry schedule: buckets of messages keyed by due tick,
/// each in push order until [`take_due`](Self::take_due) sorts it. No
/// bucket is empty.
#[derive(Debug, Clone, Default)]
pub struct RetryQueue(BTreeMap<u32, Vec<Msg>>);

impl RetryQueue {
    /// Schedule `msg` for redelivery at `due`.
    pub fn push(&mut self, due: u32, msg: Msg) {
        self.0.entry(due).or_default().push(msg);
    }

    /// Remove the earliest bucket due at or before `tick` and return its
    /// messages in ascending `Msg` order. Taking buckets until `None`
    /// yields every message due by `tick` in `(due, msg)` order.
    pub fn take_due(&mut self, tick: u32) -> Option<Vec<Msg>> {
        let first = self.0.first_entry().filter(|e| *e.key() <= tick)?;
        let mut bucket = first.remove();
        bucket.sort_unstable();
        Some(bucket)
    }

    /// Messages still scheduled.
    pub fn len(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every scheduled entry in due order (ascending `(due, msg)`), for
    /// checkpoints. That order is total — `Msg`'s unique `seq` breaks all
    /// ties — so this sorted list fully determines future behaviour.
    pub fn entries(&self) -> Vec<(u32, Msg)> {
        let mut v: Vec<(u32, Msg)> = self
            .0
            .iter()
            .flat_map(|(&due, bucket)| bucket.iter().map(move |&m| (due, m)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Rebuild a queue from captured [`entries`](Self::entries); the
    /// restored queue yields the identical sequence the original would
    /// have.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, Msg)>) -> Self {
        let mut q = RetryQueue::default();
        for (due, msg) in entries {
            q.push(due, msg);
        }
        q
    }
}

/// Retry delay in ticks after a message's `attempts`-th failure:
/// `min(base × 2^(attempts-1), cap)` plus jitter in `0..=jitter` mixed
/// from `(seed, seq, attempts)` — same message, same attempt, same seed ⇒
/// same delay, on any shard.
pub fn backoff_delay(base: u32, cap: u32, jitter: u32, seed: u64, msg: Msg) -> u32 {
    let exp = base
        .saturating_mul(
            1u32.checked_shl(msg.attempts.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
        .min(cap)
        .max(1);
    let j = if jitter == 0 {
        0
    } else {
        (mix64(seed ^ ((msg.seq as u64) << 32) ^ msg.attempts as u64) % (jitter as u64 + 1)) as u32
    };
    exp + j
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// The reference order: a min-heap of `(due, msg)`.
    #[derive(Default)]
    struct HeapOracle(BinaryHeap<Reverse<(u32, Msg)>>);

    impl HeapOracle {
        fn push(&mut self, due: u32, msg: Msg) {
            self.0.push(Reverse((due, msg)));
        }

        /// Pop every entry sharing the earliest due, if that due is at or
        /// before `tick`.
        fn take_due(&mut self, tick: u32) -> Option<(u32, Vec<Msg>)> {
            let &Reverse((due, _)) = self.0.peek().filter(|e| e.0 .0 <= tick)?;
            let mut bucket = Vec::new();
            while let Some(Reverse((_, m))) = self.0.peek().filter(|e| e.0 .0 == due) {
                bucket.push(*m);
                self.0.pop();
            }
            Some((due, bucket))
        }

        fn entries(&self) -> Vec<(u32, Msg)> {
            let mut v: Vec<(u32, Msg)> = self.0.iter().map(|Reverse(e)| *e).collect();
            v.sort_unstable();
            v
        }
    }

    fn msg(seq: u32, attempts: u32) -> Msg {
        Msg {
            seq,
            dst: 0,
            created: 0,
            attempts,
        }
    }

    fn seqs(bucket: Option<Vec<Msg>>) -> Option<Vec<u32>> {
        bucket.map(|b| b.iter().map(|m| m.seq).collect())
    }

    #[test]
    fn pops_in_due_then_seq_order() {
        let mut q = RetryQueue::default();
        q.push(5, msg(2, 1));
        q.push(3, msg(9, 1));
        q.push(5, msg(1, 1));
        assert_eq!(seqs(q.take_due(10)), Some(vec![9]));
        assert_eq!(seqs(q.take_due(10)), Some(vec![1, 2]));
        assert!(q.take_due(10).is_none());
    }

    #[test]
    fn respects_due_time() {
        let mut q = RetryQueue::default();
        q.push(7, msg(0, 1));
        assert!(q.take_due(6).is_none());
        assert!(q.take_due(7).is_some());
    }

    proptest! {
        /// The calendar yields exactly what the heap pops, through pushes
        /// below, at and above the last due taken, takes at ticks that go
        /// back and forth, `len`, `entries` and `from_entries`
        /// round-trips. Seqs repeat, as a hostile snapshot may make them,
        /// so `Msg`'s other fields break those ties.
        #[test]
        fn calendar_pops_like_the_heap(
            ops in proptest::collection::vec((0u32..6, 0u32..40, 0u32..12, 0u32..4), 0..300)
        ) {
            let mut q = RetryQueue::default();
            let mut oracle = HeapOracle::default();
            let mut last_due = 0u32;
            for (kind, a, b, c) in ops {
                let msg = Msg { seq: b, dst: c, created: a % 3, attempts: c };
                match kind {
                    0 => {
                        q.push(last_due, msg);
                        oracle.push(last_due, msg);
                    }
                    1 => {
                        let due = last_due.saturating_sub(a % 4);
                        q.push(due, msg);
                        oracle.push(due, msg);
                    }
                    2 => {
                        q.push(a, msg);
                        oracle.push(a, msg);
                    }
                    3 => {
                        for _ in 0..b {
                            let want = oracle.take_due(a);
                            prop_assert_eq!(q.take_due(a), want.clone().map(|(_, m)| m), "tick {}", a);
                            match want {
                                Some((due, _)) => last_due = due,
                                None => break,
                            }
                        }
                    }
                    4 => {
                        prop_assert_eq!(q.len(), oracle.0.len());
                        prop_assert_eq!(q.is_empty(), oracle.0.is_empty());
                        prop_assert_eq!(q.entries(), oracle.entries());
                    }
                    _ => {
                        q = RetryQueue::from_entries(q.entries());
                        prop_assert_eq!(q.entries(), oracle.entries());
                    }
                }
            }
            while let Some((_, want)) = oracle.take_due(u32::MAX) {
                prop_assert_eq!(q.take_due(u32::MAX), Some(want));
            }
            prop_assert!(q.is_empty() && q.take_due(u32::MAX).is_none());
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let d1 = backoff_delay(2, 64, 0, 1, msg(0, 1));
        let d3 = backoff_delay(2, 64, 0, 1, msg(0, 3));
        let d9 = backoff_delay(2, 64, 0, 1, msg(0, 9));
        assert_eq!(d1, 2);
        assert_eq!(d3, 8);
        assert_eq!(d9, 64, "capped");
        // jitter is deterministic and bounded
        let j = backoff_delay(2, 64, 3, 42, msg(7, 2));
        assert_eq!(j, backoff_delay(2, 64, 3, 42, msg(7, 2)));
        assert!((4..=7).contains(&j));
    }
}
