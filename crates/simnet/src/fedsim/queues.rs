//! Destination side: bounded inbox queues with fixed service rates.
//!
//! Each instance's inbox is a FIFO with a hard capacity (the bounded
//! sidekiq queue): an attempt arriving at a full inbox is rejected with
//! sender-visible backpressure ([`Verdict::RejectedFull`]), never silently
//! dropped. Service drains up to `service_rate` messages per tick —
//! capacity and rate both scale with the instance's local user count, so
//! the §3 concentration shows up as big instances having both the most
//! load *and* the most workers.

use std::collections::VecDeque;

use super::events::{EventDigest, Msg, Verdict};

/// Mutable per-destination-instance state (sharded by instance in phase D).
#[derive(Debug, Clone)]
pub struct DestState {
    /// FIFO inbox.
    pub inbox: VecDeque<Msg>,
    /// Hard inbox bound.
    pub capacity: u32,
    /// Messages serviced (delivered) per tick.
    pub service_rate: u32,
    /// Deepest the inbox ever got.
    pub peak_depth: u32,
    /// First tick an attempt bounced off a full inbox, if any.
    pub first_saturated: Option<u32>,
    /// Messages delivered on their creation tick, first attempt.
    pub delivered_prompt: u64,
    /// Messages delivered late (queued and/or retried).
    pub delivered_delayed: u64,
    /// Sum of delivery latencies in ticks (mean = sum / delivered).
    pub latency_sum: u64,
    /// Transcript digest of every admission verdict and delivery.
    pub digest: EventDigest,
}

impl DestState {
    /// State for an instance hosting `users` accounts: `service_rate =
    /// max(min_service, users × per_kuser / 1000)`, `capacity = rate ×
    /// backlog_ticks`.
    pub fn new(users: u32, per_kuser: u32, min_service: u32, backlog_ticks: u32) -> Self {
        let service_rate = ((users as u64 * per_kuser as u64) / 1000)
            .max(min_service as u64)
            .min(u32::MAX as u64) as u32;
        DestState {
            inbox: VecDeque::new(),
            capacity: service_rate.saturating_mul(backlog_ticks).max(1),
            service_rate,
            peak_depth: 0,
            first_saturated: None,
            delivered_prompt: 0,
            delivered_delayed: 0,
            latency_sum: 0,
            digest: EventDigest::default(),
        }
    }

    /// Admit one attempt at `tick`. `down` is the outage overlay's verdict
    /// for this instance at this tick; probes are capacity-checked but
    /// never enqueued.
    pub fn admit(&mut self, tick: u32, msg: Msg, probe: bool, down: bool) -> Verdict {
        let verdict = if down {
            Verdict::RejectedDown
        } else if (self.inbox.len() as u32) < self.capacity {
            if !probe {
                self.inbox.push_back(msg);
                self.peak_depth = self.peak_depth.max(self.inbox.len() as u32);
            }
            Verdict::Accepted
        } else {
            if self.first_saturated.is_none() {
                self.first_saturated = Some(tick);
            }
            Verdict::RejectedFull
        };
        self.digest.fold_all(&[
            tick as u64,
            msg.seq as u64,
            msg.attempts as u64,
            probe as u64,
            verdict.code(),
        ]);
        verdict
    }

    /// Service up to `service_rate` queued messages; returns `(delivered,
    /// prompt)` counts for this tick.
    pub fn service(&mut self, tick: u32) -> (u32, u32) {
        let n = (self.service_rate as usize).min(self.inbox.len());
        let mut prompt = 0u32;
        for _ in 0..n {
            let msg = self.inbox.pop_front().expect("len checked");
            let latency = (tick - msg.created) as u64;
            self.latency_sum += latency;
            if latency == 0 && msg.attempts == 0 {
                self.delivered_prompt += 1;
                prompt += 1;
            } else {
                self.delivered_delayed += 1;
            }
            self.digest
                .fold_all(&[u64::MAX, tick as u64, msg.seq as u64, latency]);
        }
        (n as u32, prompt)
    }

    /// Messages still queued.
    pub fn backlog(&self) -> usize {
        self.inbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u32, created: u32) -> Msg {
        Msg {
            seq,
            dst: 0,
            created,
            attempts: 0,
        }
    }

    #[test]
    fn bounded_inbox_backpressures() {
        let mut d = DestState::new(0, 100, 2, 1); // rate 2, capacity 2
        assert_eq!(d.admit(0, msg(0, 0), false, false), Verdict::Accepted);
        assert_eq!(d.admit(0, msg(1, 0), false, false), Verdict::Accepted);
        assert_eq!(d.admit(0, msg(2, 0), false, false), Verdict::RejectedFull);
        assert_eq!(d.first_saturated, Some(0));
        assert_eq!(d.peak_depth, 2);
        let (delivered, prompt) = d.service(0);
        assert_eq!((delivered, prompt), (2, 2));
        assert_eq!(d.backlog(), 0);
    }

    #[test]
    fn down_rejects_everything_and_probes_take_no_space() {
        let mut d = DestState::new(1000, 100, 1, 4); // rate 100, cap 400
        assert_eq!(d.admit(3, msg(0, 3), false, true), Verdict::RejectedDown);
        assert_eq!(d.backlog(), 0);
        assert_eq!(d.admit(4, msg(1, 4), true, false), Verdict::Accepted);
        assert_eq!(d.backlog(), 0, "probe must not enqueue");
    }

    #[test]
    fn delayed_delivery_accounting() {
        let mut d = DestState::new(0, 100, 1, 8); // rate 1
        d.admit(0, msg(0, 0), false, false);
        d.admit(0, msg(1, 0), false, false);
        assert_eq!(d.service(0), (1, 1)); // first is prompt
        assert_eq!(d.service(1), (1, 0)); // second waited a tick
        assert_eq!(d.delivered_prompt, 1);
        assert_eq!(d.delivered_delayed, 1);
        assert_eq!(d.latency_sum, 1);
    }
}
