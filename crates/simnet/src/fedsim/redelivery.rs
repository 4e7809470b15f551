//! Sender side: the redelivery queue with capped exponential backoff.
//!
//! Mastodon's sidekiq retries failed deliveries on an exponential
//! schedule. [`RetryQueue`] is the deterministic equivalent: a min-heap
//! keyed by `(due_tick, msg)` — `Msg`'s total order (unique `seq`) breaks
//! every tie, so pop order is independent of insertion history.
//! [`backoff_delay`] derives the retry delay from the attempt count plus
//! deterministic jitter mixed from the seed and the message identity
//! (counter-derived, like every RNG stream in this repo).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::events::{mix64, Msg};

/// Deterministic retry schedule: messages pop in `(due, msg)` order.
#[derive(Debug, Clone, Default)]
pub struct RetryQueue {
    heap: BinaryHeap<Reverse<(u32, Msg)>>,
}

impl RetryQueue {
    /// Schedule `msg` for redelivery at `due`.
    pub fn push(&mut self, due: u32, msg: Msg) {
        self.heap.push(Reverse((due, msg)));
    }

    /// Pop the next message due at or before `tick`, lowest `(due, msg)`
    /// first.
    pub fn pop_due(&mut self, tick: u32) -> Option<Msg> {
        match self.heap.peek() {
            Some(&Reverse((due, _))) if due <= tick => {
                let Reverse((_, msg)) = self.heap.pop().expect("peeked");
                Some(msg)
            }
            _ => None,
        }
    }

    /// Messages still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every scheduled entry in pop order (ascending `(due, msg)`), for
    /// checkpoints. The heap's pop order is total — `Msg`'s unique `seq`
    /// breaks all ties — so this sorted list fully determines future
    /// behaviour.
    pub fn entries(&self) -> Vec<(u32, Msg)> {
        let mut v: Vec<(u32, Msg)> = self.heap.iter().map(|std::cmp::Reverse(e)| *e).collect();
        v.sort_unstable();
        v
    }

    /// Rebuild a queue from captured [`entries`](Self::entries); the
    /// restored queue pops the identical sequence the original would have.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, Msg)>) -> Self {
        RetryQueue {
            heap: entries.into_iter().map(Reverse).collect(),
        }
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
    use super::*;

    fn msg(seq: u32, attempts: u32) -> Msg {
        Msg {
            seq,
            dst: 0,
            created: 0,
            attempts,
        }
    }

    #[test]
    fn pops_in_due_then_seq_order() {
        let mut q = RetryQueue::default();
        q.push(5, msg(2, 1));
        q.push(3, msg(9, 1));
        q.push(5, msg(1, 1));
        assert_eq!(q.pop_due(10).unwrap().seq, 9);
        assert_eq!(q.pop_due(10).unwrap().seq, 1);
        assert_eq!(q.pop_due(10).unwrap().seq, 2);
        assert!(q.pop_due(10).is_none());
    }

    #[test]
    fn respects_due_time() {
        let mut q = RetryQueue::default();
        q.push(7, msg(0, 1));
        assert!(q.pop_due(6).is_none());
        assert!(q.pop_due(7).is_some());
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
