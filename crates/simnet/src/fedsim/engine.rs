//! The deterministic discrete-event core: a tick-synchronous BSP loop
//! that visits only active instances.
//!
//! Activity concentrates (the paper's §3): on a modern-tier tick a few
//! hundred of 30,000 sources have mail to send or retry, and a few dozen
//! inboxes are non-empty. So no phase walks every instance; each walks
//! the tick's ascending *active list*:
//!
//! - a **source** is active when it has new mail this tick, a non-empty
//!   retry queue, or a non-empty suspension table;
//! - a **destination** is active when it receives attempts this tick or
//!   holds a non-empty inbox.
//!
//! An instance that holds queued state stays on its list between ticks,
//! including ticks its outage skips it. Skipping an idle instance is
//! exact: it would emit nothing, admit nothing, service an empty inbox and
//! change no state.
//!
//! Each tick runs four phases, every one over *disjoint* per-instance
//! state with outputs concatenated in instance order — so the transcript
//! is bit-identical at any shard count:
//!
//! 1. **Fan-out** (serial): toots posted this tick become messages, one
//!    per (home → follower-instance) pair, `seq` assigned in canonical
//!    author order.
//! 2. **Phase S** (by source): each live source emits attempts in fixed
//!    order — redelivery due, then probes (ascending destination), then
//!    new messages; anything aimed at a suspended destination parks.
//! 3. **Phase D** (by destination): the outage overlay and the bounded
//!    inbox judge every attempt; live inboxes then service up to their
//!    rate.
//! 4. **Phase R** (by source): verdicts drive the retry/backoff/suspension
//!    state machines.
//!
//! Between phases a stable sort of the tick's own events regroups them by
//! the next phase's instance; within a group events keep the order the
//! previous phase emitted them in. `shard_map` splits an active list
//! into `shards` contiguous runs, so one code path serves every shard
//! count; each run pushes its attempts, outcomes or held ids into one
//! list, and the lists join in run order. `engine/dense.rs` (test build
//! only) holds the dense reference tick — every instance, every phase —
//! that a differential proptest compares this loop against after every
//! tick.

use std::ops::Range;

use fediscope_model::schedule::OutageArena;
use fediscope_model::time::Epoch;
use fediscope_model::TootArena;

use super::events::{Attempt, EventDigest, Msg, Outcome, Verdict, PROBE_SEQ};
use super::fanout::FanoutArena;
use super::metrics::{percentile, DeliveryReport, SimRun, TickStat};
use super::queues::DestState;
use super::redelivery::{backoff_delay, RetryQueue};
use super::snapshot::{DestSnap, FedSimState, SourceSnap, SuspensionSnap};
use super::suspension::{SourceState, Suspension};
use super::FedSimConfig;

#[cfg(test)]
mod dense;

/// Run `f(k, id, state, out)` for the `k`-th id of the strictly ascending
/// list `ids`, split into `shards` contiguous runs: the first run on the
/// calling thread, the others on scoped threads. Each run owns the slice of
/// `states` from its first id up to the next run's first id, so runs never
/// share a state, and each run has one emit list `out` that `f` may push
/// any number of items to. Returns `f`'s results and the runs' emit lists
/// concatenated, both in `ids` order at any shard count.
fn shard_map<S, R, E, F>(shards: usize, ids: &[u32], states: &mut [S], f: F) -> (Vec<R>, Vec<E>)
where
    S: Send,
    R: Send,
    E: Send,
    F: Fn(usize, u32, &mut S, &mut Vec<E>) -> R + Sync,
{
    let Some(&first) = ids.first() else {
        return (Vec::new(), Vec::new());
    };
    let per_run = ids.len().div_ceil(shards.max(1));
    let mut runs = Vec::with_capacity(ids.len().div_ceil(per_run));
    let mut rest = &mut states[first as usize..];
    let mut lo = first as usize;
    for (r, run) in ids.chunks(per_run).enumerate() {
        let hi = ids
            .get((r + 1) * per_run)
            .map_or(lo + rest.len(), |&id| id as usize);
        let (owned, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
        runs.push((r * per_run, run, lo, owned));
        rest = tail;
        lo = hi;
    }
    let work = |(k0, run, lo, owned): (usize, &[u32], usize, &mut [S])| {
        let (mut results, mut out) = (Vec::with_capacity(run.len()), Vec::new());
        for (k, &id) in run.iter().enumerate() {
            results.push(f(k0 + k, id, &mut owned[id as usize - lo], &mut out));
        }
        (results, out)
    };
    std::thread::scope(|scope| {
        let work = &work;
        let mut runs = runs.into_iter();
        let head = runs.next().expect("ids is not empty");
        let handles: Vec<_> = runs.map(|run| scope.spawn(move || work(run))).collect();
        let (mut results, mut out) = work(head);
        for h in handles {
            let (r, e) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            results.extend(r);
            out.extend(e);
        }
        (results, out)
    })
}

/// Stable LSD radix sort of `items` by an instance id below `bound`, one
/// byte of the id per pass: O(items) per pass whatever the instance count,
/// and two passes below 65,536 instances.
fn sort_by_instance<T: Copy>(items: &mut Vec<T>, bound: usize, key: impl Fn(&T) -> u32) {
    let Some(&fill) = items.first() else {
        return;
    };
    let mut from = std::mem::take(items);
    let mut to = vec![fill; from.len()];
    let mut shift = 0;
    while shift < u32::BITS && bound.saturating_sub(1) >> shift > 0 {
        let digit = |it: &T| (key(it) >> shift) as usize & 0xFF;
        let mut next = [0usize; 256];
        for it in &from {
            next[digit(it)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        for &it in &from {
            let d = digit(&it);
            to[next[d]] = it;
            next[d] += 1;
        }
        std::mem::swap(&mut from, &mut to);
        shift += 8;
    }
    *items = from;
}

/// Merge the ascending ids in `held` with the keys of `items` (sorted by
/// `key`) into one ascending active list, paired with each active id's
/// range of `items` (empty for an id that only holds state).
fn activate<T>(
    held: &[u32],
    items: &[T],
    key: impl Fn(&T) -> u32,
) -> (Vec<u32>, Vec<Range<usize>>) {
    let mut ids = Vec::with_capacity(held.len());
    let mut ranges = Vec::with_capacity(held.len());
    let (mut h, mut c) = (0, 0);
    while let Some(id) = [held.get(h).copied(), items.get(c).map(&key)]
        .into_iter()
        .flatten()
        .min()
    {
        let start = c;
        while c < items.len() && key(&items[c]) == id {
            c += 1;
        }
        if held.get(h) == Some(&id) {
            h += 1;
        }
        ids.push(id);
        ranges.push(start..c);
    }
    (ids, ranges)
}

/// The federation delivery simulator. Construct with [`FedSim::new`],
/// consume with [`FedSim::run`].
pub struct FedSim<'a> {
    cfg: FedSimConfig,
    fanout: &'a FanoutArena,
    toots: &'a TootArena,
    outages: OutageArena,
    sources: Vec<SourceState>,
    dests: Vec<DestState>,
    /// Ascending ids of the sources holding retry or suspension state.
    held_sources: Vec<u32>,
    /// Ascending ids of the destinations holding a non-empty inbox.
    held_dests: Vec<u32>,
    tick: u32,
    horizon: u32,
    total_ticks: u32,
    next_seq: u32,
    fanned_out: u64,
    delivered_total: u64,
    dropped_total: u64,
    probes_total: u64,
    attempts_total: u64,
    rejected_full_total: u64,
    rejected_down_total: u64,
    series: Vec<TickStat>,
}

impl<'a> FedSim<'a> {
    /// Assemble a simulator over a fan-out topology, a toot arena, the
    /// per-instance local user counts (scales inbox service rates), and
    /// an outage overlay on the simulation clock (see
    /// [`super::overlay::build`]).
    pub fn new(
        cfg: FedSimConfig,
        fanout: &'a FanoutArena,
        toots: &'a TootArena,
        dest_users: &[u32],
        outages: OutageArena,
    ) -> Self {
        let n = fanout.n_instances();
        assert_eq!(dest_users.len(), n, "one user count per instance");
        assert_eq!(outages.len(), n, "overlay must cover every instance");
        let horizon = toots.horizon();
        let total_ticks = horizon + cfg.drain_epochs;
        let dests = dest_users
            .iter()
            .map(|&u| DestState::new(u, cfg.service_per_kuser, cfg.min_service, cfg.backlog_ticks))
            .collect();
        FedSim {
            sources: (0..n).map(|_| SourceState::default()).collect(),
            dests,
            held_sources: Vec::new(),
            held_dests: Vec::new(),
            tick: 0,
            horizon,
            total_ticks,
            next_seq: 0,
            fanned_out: 0,
            delivered_total: 0,
            dropped_total: 0,
            probes_total: 0,
            attempts_total: 0,
            rejected_full_total: 0,
            rejected_down_total: 0,
            series: Vec::with_capacity(total_ticks as usize),
            cfg,
            fanout,
            toots,
            outages,
        }
    }

    /// Messages in flight (created but not yet delivered or dropped).
    fn backlog(&self) -> u64 {
        self.fanned_out - self.delivered_total - self.dropped_total
    }

    /// Ticks completed so far (the simulator's virtual clock).
    pub fn tick(&self) -> u32 {
        self.tick
    }

    /// True when [`run`](Self::run) would stop: the total tick budget is
    /// spent, or the toot horizon has passed and every queue is empty.
    pub fn is_done(&self) -> bool {
        self.tick >= self.total_ticks || (self.tick >= self.horizon && self.backlog() == 0)
    }

    /// Advance exactly one tick — the checkpointing driver's entry point.
    /// `run` is `step_tick` until `is_done`, then [`finish`](Self::finish);
    /// interleaving snapshots between steps cannot change the stream.
    pub fn step_tick(&mut self) {
        self.step();
    }

    /// Advance one tick through all four phases, visiting active
    /// instances only.
    fn step(&mut self) {
        let t = self.tick;
        let n = self.fanout.n_instances();
        let shards = (self.cfg.shards as usize).max(1);
        let mut stat = TickStat::default();

        // Phase 1 — fan-out (serial; seq numbers are globally ordered).
        let mut fresh: Vec<(u32, Msg)> = Vec::new();
        for &author in self.toots.authors_at(t) {
            let src = self.fanout.home(author);
            if !self.outages.view(src as usize).is_up(Epoch(t)) {
                continue; // the author's instance is down: nothing is posted
            }
            for &dst in self.fanout.dsts(author) {
                fresh.push((
                    src,
                    Msg {
                        seq: self.next_seq,
                        dst,
                        created: t,
                        attempts: 0,
                    },
                ));
                self.next_seq += 1;
            }
        }
        stat.fanned = fresh.len() as u32;
        self.fanned_out += fresh.len() as u64;
        sort_by_instance(&mut fresh, n, |&(src, _)| src);
        let (senders, new_mail) = activate(&self.held_sources, &fresh, |&(src, _)| src);

        // Phase S — by source: emit attempts in canonical order.
        let outages = &self.outages;
        let cfg = &self.cfg;
        let (_, mut attempts) = shard_map(shards, &senders, &mut self.sources, |k, i, s, out| {
            if !outages.view(i as usize).is_up(Epoch(t)) {
                return; // a down instance's delivery workers are paused
            }
            while let Some(due) = s.retry.take_due(t) {
                for msg in due {
                    if s.is_suspended(msg.dst) {
                        s.park(msg);
                    } else {
                        s.redelivery_attempts += 1;
                        out.push(Attempt {
                            src: i,
                            msg,
                            probe: false,
                        });
                    }
                }
            }
            for (&dst, susp) in s.suspended.iter_mut() {
                if susp.probe_due <= t {
                    susp.probe_due = t + cfg.probe_interval;
                    let msg = Msg {
                        seq: PROBE_SEQ,
                        dst,
                        created: t,
                        attempts: 0,
                    };
                    out.push(Attempt {
                        src: i,
                        msg,
                        probe: true,
                    });
                }
            }
            for &(_, msg) in &fresh[new_mail[k].clone()] {
                if s.is_suspended(msg.dst) {
                    s.park(msg);
                } else {
                    out.push(Attempt {
                        src: i,
                        msg,
                        probe: false,
                    });
                }
            }
        });
        let probes = attempts.iter().filter(|a| a.probe).count() as u32;
        stat.probes = probes;
        stat.attempts = attempts.len() as u32 - probes;
        self.probes_total += probes as u64;
        self.attempts_total += stat.attempts as u64;

        // Phase D — by destination: admit + service.
        sort_by_instance(&mut attempts, n, |a| a.msg.dst);
        let (targets, inbound) = activate(&self.held_dests, &attempts, |a| a.msg.dst);
        let (dest_out, mut outcomes) =
            shard_map(shards, &targets, &mut self.dests, |k, j, d, out| {
                let down = !outages.view(j as usize).is_up(Epoch(t));
                for &attempt in &attempts[inbound[k].clone()] {
                    let verdict = d.admit(t, attempt.msg, attempt.probe, down);
                    out.push(Outcome { attempt, verdict });
                }
                let (delivered, _) = if down { (0, 0) } else { d.service(t) };
                (delivered, d.backlog() > 0)
            });
        self.held_dests.clear();
        for (&j, (delivered, queued)) in targets.iter().zip(dest_out) {
            stat.delivered += delivered;
            if queued {
                self.held_dests.push(j);
            }
        }
        self.delivered_total += stat.delivered as u64;
        for o in &outcomes {
            match o.verdict {
                Verdict::Accepted => stat.accepted += 1,
                Verdict::RejectedFull => stat.rejected_full += 1,
                Verdict::RejectedDown => stat.rejected_down += 1,
            }
        }
        self.rejected_full_total += stat.rejected_full as u64;
        self.rejected_down_total += stat.rejected_down as u64;

        // Phase R — by source: verdicts drive retry/suspension. Every
        // outcome's source sent this tick, so `senders` is the active list.
        sort_by_instance(&mut outcomes, n, |o| o.attempt.src);
        let (senders, verdicts) = activate(&senders, &outcomes, |o| o.attempt.src);
        let (dropped, held) = shard_map(shards, &senders, &mut self.sources, |k, i, s, held| {
            let mut dropped_now = 0u32;
            for &Outcome { attempt, verdict } in &outcomes[verdicts[k].clone()] {
                let dst = attempt.msg.dst;
                s.digest.fold_all(&[
                    t as u64,
                    dst as u64,
                    attempt.msg.seq as u64,
                    attempt.msg.attempts as u64,
                    attempt.probe as u64,
                    verdict.code(),
                ]);
                if attempt.probe {
                    if verdict == Verdict::Accepted {
                        // Reachable again: catch-up burst next tick.
                        s.unsuspend(dst, t + 1);
                    }
                    continue; // failed probe: the next one is already scheduled
                }
                match verdict {
                    Verdict::Accepted => s.breaker_reset(dst),
                    Verdict::RejectedFull | Verdict::RejectedDown => {
                        let mut msg = attempt.msg;
                        msg.attempts += 1;
                        if msg.attempts >= cfg.max_attempts {
                            s.dropped += 1;
                            dropped_now += 1;
                        } else if s.is_suspended(dst) {
                            // an earlier outcome this tick tripped the breaker
                            s.park(msg);
                        } else if s.breaker_trip(dst) >= cfg.suspend_after {
                            s.suspend(dst, msg, t + cfg.probe_interval);
                        } else {
                            let delay = backoff_delay(
                                cfg.backoff_base,
                                cfg.backoff_cap,
                                cfg.jitter,
                                cfg.seed,
                                msg,
                            );
                            s.retry.push(t + delay, msg);
                        }
                    }
                }
            }
            if !s.is_idle() {
                held.push(i);
            }
            dropped_now
        });
        self.held_sources = held;
        stat.dropped = dropped.iter().sum();
        self.dropped_total += stat.dropped as u64;
        stat.backlog = self.backlog();
        self.series.push(stat);
        self.tick += 1;
    }

    /// Run to completion: through the toot horizon, then drain until all
    /// queues empty or the drain budget expires.
    pub fn run(mut self) -> SimRun {
        while !self.is_done() {
            self.step();
        }
        self.finish()
    }

    /// Capture the full resumable state: every counter, queue, breaker,
    /// suspension, digest accumulator, and the series so far. A simulator
    /// rebuilt via [`resume`](Self::resume) from this state steps
    /// bit-identically to one that never stopped.
    pub fn capture(&self) -> FedSimState {
        FedSimState {
            tick: self.tick,
            next_seq: self.next_seq,
            fanned_out: self.fanned_out,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            probes_total: self.probes_total,
            attempts_total: self.attempts_total,
            rejected_full_total: self.rejected_full_total,
            rejected_down_total: self.rejected_down_total,
            series: self.series.clone(),
            sources: self
                .sources
                .iter()
                .map(|s| SourceSnap {
                    retry: s.retry.entries(),
                    suspended: s
                        .suspended
                        .iter()
                        .map(|(&dst, susp)| {
                            (
                                dst,
                                SuspensionSnap {
                                    parked: susp.parked.clone(),
                                    probe_due: susp.probe_due,
                                },
                            )
                        })
                        .collect(),
                    breaker: s.breaker.iter().map(|(&d, &c)| (d, c)).collect(),
                    dropped: s.dropped,
                    redelivery_attempts: s.redelivery_attempts,
                    suspensions: s.suspensions,
                    recovered: s.recovered,
                    digest: s.digest.value(),
                })
                .collect(),
            dests: self
                .dests
                .iter()
                .map(|d| DestSnap {
                    inbox: d.inbox.clone(),
                    peak_depth: d.peak_depth,
                    first_saturated: d.first_saturated,
                    delivered_prompt: d.delivered_prompt,
                    delivered_delayed: d.delivered_delayed,
                    latency_sum: d.latency_sum,
                    digest: d.digest.value(),
                })
                .collect(),
        }
    }

    /// Rebuild a mid-run simulator from a captured [`FedSimState`] on a
    /// fresh process/executor. Takes the same immutable context `new`
    /// does (config, topology, toots, user counts, and the outage overlay
    /// — all deterministically reconstructible from the config) plus the
    /// snapshot; derived fields (inbox capacity/service rates, horizon,
    /// the active lists) are recomputed, so the snapshot carries only true
    /// state. A state that does not fit this world — another instance
    /// count, a tick past the budget, mail or a breaker count for an
    /// instance the world lacks — is an error, not a panic.
    pub fn resume(
        cfg: FedSimConfig,
        fanout: &'a FanoutArena,
        toots: &'a TootArena,
        dest_users: &[u32],
        outages: OutageArena,
        state: &FedSimState,
    ) -> Result<Self, serde::Error> {
        let mut sim = FedSim::new(cfg, fanout, toots, dest_users, outages);
        sim.restore(state)?;
        Ok(sim)
    }

    /// Load `state` into a fresh simulator. Checks that the state fits
    /// before changing anything, so on an error the simulator is still
    /// fresh.
    pub(super) fn restore(&mut self, state: &FedSimState) -> Result<(), serde::Error> {
        let n = self.fanout.n_instances();
        if state.sources.len() != n || state.dests.len() != n {
            return Err(serde::Error::custom(format!(
                "snapshot is for a different world: {} sources and {} inboxes, \
                 the world has {n} instances",
                state.sources.len(),
                state.dests.len()
            )));
        }
        if state.tick > self.total_ticks {
            return Err(serde::Error::custom(format!(
                "snapshot tick {} is past the tick budget {}",
                state.tick, self.total_ticks
            )));
        }
        let in_world = |dst: u32| (dst as usize) < n;
        let fits = state.sources.iter().all(|s| {
            s.retry.iter().all(|(_, m)| in_world(m.dst))
                && s.suspended
                    .iter()
                    .all(|(&dst, ss)| in_world(dst) && ss.parked.iter().all(|m| in_world(m.dst)))
                && s.breaker.keys().all(|&dst| in_world(dst))
        });
        if !fits {
            return Err(serde::Error::custom(
                "snapshot holds mail or a breaker for an instance outside the world",
            ));
        }

        self.tick = state.tick;
        self.next_seq = state.next_seq;
        self.fanned_out = state.fanned_out;
        self.delivered_total = state.delivered_total;
        self.dropped_total = state.dropped_total;
        self.probes_total = state.probes_total;
        self.attempts_total = state.attempts_total;
        self.rejected_full_total = state.rejected_full_total;
        self.rejected_down_total = state.rejected_down_total;
        self.series = state.series.clone();
        for (s, snap) in self.sources.iter_mut().zip(&state.sources) {
            s.retry = RetryQueue::from_entries(snap.retry.iter().copied());
            s.suspended = snap
                .suspended
                .iter()
                .map(|(&dst, ss)| {
                    (
                        dst,
                        Suspension {
                            parked: ss.parked.clone(),
                            probe_due: ss.probe_due,
                        },
                    )
                })
                .collect();
            s.breaker = snap.breaker.iter().map(|(&d, &c)| (d, c)).collect();
            s.dropped = snap.dropped;
            s.redelivery_attempts = snap.redelivery_attempts;
            s.suspensions = snap.suspensions;
            s.recovered = snap.recovered;
            s.digest = EventDigest::restore(snap.digest);
        }
        for (d, snap) in self.dests.iter_mut().zip(&state.dests) {
            d.inbox = snap.inbox.clone();
            d.peak_depth = snap.peak_depth;
            d.first_saturated = snap.first_saturated;
            d.delivered_prompt = snap.delivered_prompt;
            d.delivered_delayed = snap.delivered_delayed;
            d.latency_sum = snap.latency_sum;
            d.digest = EventDigest::restore(snap.digest);
        }
        self.rebuild_held();
        Ok(())
    }

    /// Recompute both active lists from the per-instance state.
    fn rebuild_held(&mut self) {
        self.held_sources = (0..self.sources.len() as u32)
            .filter(|&i| !self.sources[i as usize].is_idle())
            .collect();
        self.held_dests = (0..self.dests.len() as u32)
            .filter(|&j| self.dests[j as usize].backlog() > 0)
            .collect();
    }

    /// Finalize into the report + series (the tail of [`run`](Self::run);
    /// public so a checkpoint-driven run can finish the same way). Panics
    /// if the report breaks conservation: a bookkeeping slip must not
    /// return a report that loses mail.
    pub fn finish(self) -> SimRun {
        let drained = self.backlog() == 0;
        let time_to_drain = if drained {
            (self.tick.max(self.horizon) - self.horizon) as i64
        } else {
            -1
        };

        let mut undeliverable = 0u64;
        let mut suspended_undeliverable = 0u64;
        let mut dropped = 0u64;
        let mut redelivery_attempts = 0u64;
        let mut suspensions = 0u64;
        let mut recovered = 0u64;
        let mut hash = super::events::EventDigest::default();
        for s in &self.sources {
            undeliverable += s.backlog() as u64;
            suspended_undeliverable += s.parked_len() as u64;
            dropped += s.dropped;
            redelivery_attempts += s.redelivery_attempts;
            suspensions += s.suspensions;
            recovered += s.recovered;
            hash.fold(s.digest.value());
        }

        let mut delivered_prompt = 0u64;
        let mut delivered_delayed = 0u64;
        let mut latency_sum = 0u64;
        let mut peak_depth = 0u32;
        let mut peak_instance = 0u32;
        let mut saturated = 0u32;
        let mut first_sat: Option<(u32, u32)> = None;
        let mut depths: Vec<u32> = Vec::with_capacity(self.dests.len());
        let mut delivered_per_instance: Vec<u64> = Vec::with_capacity(self.dests.len());
        for (j, d) in self.dests.iter().enumerate() {
            undeliverable += d.backlog() as u64;
            delivered_prompt += d.delivered_prompt;
            delivered_delayed += d.delivered_delayed;
            latency_sum += d.latency_sum;
            delivered_per_instance.push(d.delivered_prompt + d.delivered_delayed);
            depths.push(d.peak_depth);
            if d.peak_depth > peak_depth {
                peak_depth = d.peak_depth;
                peak_instance = j as u32;
            }
            if let Some(t0) = d.first_saturated {
                saturated += 1;
                if first_sat.is_none_or(|(bt, _)| t0 < bt) {
                    first_sat = Some((t0, j as u32));
                }
            }
            hash.fold(d.digest.value());
        }
        depths.sort_unstable();
        let delivered = delivered_prompt + delivered_delayed;

        let report = DeliveryReport {
            overlay: self.cfg.overlay.clone(),
            fanned_out: self.fanned_out,
            delivered_prompt,
            delivered_delayed,
            dropped,
            undeliverable,
            suspended_undeliverable,
            attempts: self.attempts_total,
            redelivery_attempts,
            probes: self.probes_total,
            rejected_full: self.rejected_full_total,
            rejected_down: self.rejected_down_total,
            suspensions,
            recovered_suspensions: recovered,
            peak_inbox_depth: peak_depth,
            peak_inbox_instance: peak_instance,
            saturated_instances: saturated,
            first_saturation_tick: first_sat.map_or(-1, |(t, _)| t as i64),
            first_saturation_instance: first_sat.map_or(-1, |(_, j)| j as i64),
            depth_p50: percentile(&depths, 50.0),
            depth_p90: percentile(&depths, 90.0),
            depth_p99: percentile(&depths, 99.0),
            mean_latency: if delivered == 0 {
                0.0
            } else {
                latency_sum as f64 / delivered as f64
            },
            amplification: if self.fanned_out == 0 {
                0.0
            } else {
                self.attempts_total as f64 / self.fanned_out as f64
            },
            end_tick: self.tick,
            time_to_drain,
            drained,
            event_hash: hash.value(),
        };
        assert!(report.conserved(), "conservation violated: {report:?}");
        SimRun {
            report,
            series: self.series,
            delivered_per_instance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedsim::OverlaySpec;

    /// Tiny hand-built topology: 3 instances, user u on instance u, user 0
    /// followed by users 1 and 2.
    fn tiny() -> (FanoutArena, TootArena) {
        let fanout = FanoutArena::from_follows(3, vec![0, 1, 2], &[(1, 0), (2, 0)]);
        // user 0 toots at ticks 0 and 1
        let toots = TootArena::from_events(4, [(0, 0), (1, 0)]);
        (fanout, toots)
    }

    fn arena_all_up(n: usize, total: u32) -> OutageArena {
        OutageArena::from_unsorted(&vec![(Epoch(0), Epoch(total)); n], [])
    }

    #[test]
    fn clean_run_delivers_everything_promptly() {
        let cfg = FedSimConfig::new(1);
        let (fanout, toots) = tiny();
        let total = toots.horizon() + cfg.drain_epochs;
        let sim = FedSim::new(cfg, &fanout, &toots, &[10, 10, 10], arena_all_up(3, total));
        let SimRun {
            report,
            series,
            delivered_per_instance,
        } = sim.run();
        assert_eq!(report.fanned_out, 4); // 2 toots × 2 follower instances
        assert_eq!(report.delivered_prompt, 4);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.undeliverable, 0);
        assert!(report.conserved());
        assert!(report.drained);
        assert_eq!(report.amplification, 1.0);
        assert_eq!(series[0].fanned, 2);
        assert_eq!(delivered_per_instance, vec![0, 2, 2]);
    }

    #[test]
    fn outage_triggers_retries_then_recovery() {
        let mut cfg = FedSimConfig::new(2);
        cfg.jitter = 0;
        cfg.overlay = OverlaySpec::Baseline; // overlay arena built by hand below
        let fanout = FanoutArena::from_follows(2, vec![0, 1], &[(1, 0)]);
        let toots = TootArena::from_events(8, [(0, 0)]);
        let total = toots.horizon() + cfg.drain_epochs;
        // instance 1 down for ticks [0, 3)
        let arena = OutageArena::from_unsorted(
            &[(Epoch(0), Epoch(total)); 2],
            [(
                1u32,
                Epoch(0),
                Epoch(3),
                fediscope_model::OutageCause::AsFailure,
            )],
        );
        let sim = FedSim::new(cfg, &fanout, &toots, &[5, 5], arena);
        let report = sim.run().report;
        assert_eq!(report.fanned_out, 1);
        assert_eq!(report.delivered_prompt, 0);
        assert_eq!(report.delivered_delayed, 1, "recovered via redelivery");
        assert!(report.redelivery_attempts >= 1);
        assert!(report.rejected_down >= 1);
        assert!(report.conserved());
        assert!(report.drained);
    }

    #[test]
    fn permanent_outage_suspends_and_accounts_parked() {
        let mut cfg = FedSimConfig::new(3);
        cfg.suspend_after = 2;
        cfg.max_attempts = 100; // force the suspension path, not drops
        cfg.drain_epochs = 32;
        let fanout = FanoutArena::from_follows(2, vec![0, 1], &[(1, 0)]);
        let toots = TootArena::from_events(8, [(0, 0), (1, 0), (2, 0), (3, 0)]);
        let total = toots.horizon() + cfg.drain_epochs;
        let arena = OutageArena::from_unsorted(
            &[(Epoch(0), Epoch(total)); 2],
            [(
                1u32,
                Epoch(0),
                Epoch(total),
                fediscope_model::OutageCause::Organic,
            )],
        );
        let sim = FedSim::new(cfg, &fanout, &toots, &[5, 5], arena);
        let report = sim.run().report;
        assert_eq!(report.suspensions, 1);
        assert_eq!(report.recovered_suspensions, 0);
        assert!(
            report.suspended_undeliverable >= 1,
            "parked mail stays accounted"
        );
        assert_eq!(report.delivered_prompt + report.delivered_delayed, 0);
        assert!(report.conserved());
        assert!(!report.drained);
        assert!(report.probes > 0, "probes keep checking");
    }

    #[test]
    fn backpressure_delays_but_conserves() {
        let mut cfg = FedSimConfig::new(4);
        cfg.min_service = 1;
        cfg.backlog_ticks = 1; // capacity 1: the second same-tick message bounces
        cfg.jitter = 0;
        let fanout = FanoutArena::from_follows(3, vec![0, 1, 2], &[(2, 0), (2, 1)]);
        // both user 0 and user 1 toot at tick 0 → two msgs to instance 2
        let toots = TootArena::from_events(4, [(0, 0), (0, 1)]);
        let total = toots.horizon() + cfg.drain_epochs;
        let sim = FedSim::new(cfg, &fanout, &toots, &[1, 1, 1], arena_all_up(3, total));
        let report = sim.run().report;
        assert_eq!(report.fanned_out, 2);
        assert!(report.rejected_full >= 1, "bounded inbox pushed back");
        assert_eq!(report.delivered(), 2, "retry drains the spillover");
        assert!(report.conserved());
        assert!(report.amplification > 1.0);
    }

    #[test]
    fn shard_counts_are_bit_identical() {
        let (fanout, toots) = tiny();
        let base = {
            let cfg = FedSimConfig::new(7);
            let total = toots.horizon() + cfg.drain_epochs;
            FedSim::new(cfg, &fanout, &toots, &[10, 10, 10], arena_all_up(3, total)).run()
        };
        for shards in [2u32, 3, 8] {
            let mut cfg = FedSimConfig::new(7);
            cfg.shards = shards;
            let total = toots.horizon() + cfg.drain_epochs;
            let run =
                FedSim::new(cfg, &fanout, &toots, &[10, 10, 10], arena_all_up(3, total)).run();
            assert_eq!(run, base, "run differs at {shards} shards");
        }
    }

    #[test]
    fn csr_group_is_stable() {
        let items = [(2u32, 'a'), (0, 'b'), (2, 'c'), (1, 'd')];
        let (off, grouped) = dense::csr_group(3, &items, |&(k, _)| k);
        assert_eq!(off, vec![0, 1, 2, 4]);
        assert_eq!(grouped, vec![(0, 'b'), (1, 'd'), (2, 'a'), (2, 'c')]);
        let (off_e, grouped_e) = dense::csr_group::<(u32, char), _>(3, &[], |&(k, _)| k);
        assert_eq!(off_e, vec![0, 0, 0, 0]);
        assert!(grouped_e.is_empty());
    }

    proptest::proptest! {
        /// The radix sort is a stable sort by instance: it equals
        /// `sort_by_key` for worlds that need one, two or three byte
        /// passes (and none for a single instance).
        #[test]
        fn sort_by_instance_is_a_stable_sort(
            draws in proptest::collection::vec(0u32..u32::MAX, 0..300),
            bits in 0u32..19,
        ) {
            let bound = 1usize << bits;
            let mut items: Vec<(u32, usize)> =
                draws.iter().enumerate().map(|(at, &d)| (d % bound as u32, at)).collect();
            let mut want = items.clone();
            want.sort_by_key(|&(id, _)| id);
            sort_by_instance(&mut items, bound, |&(id, _)| id);
            proptest::prop_assert_eq!(items, want);
        }
    }

    #[test]
    fn activate_merges_held_ids_with_item_keys() {
        let items = [(1u32, 'a'), (1, 'b'), (4, 'c'), (6, 'd')];
        let (ids, ranges) = activate(&[0, 4, 5], &items, |&(k, _)| k);
        assert_eq!(ids, vec![0, 1, 4, 5, 6]);
        assert_eq!(ranges, vec![0..0, 0..2, 2..3, 3..3, 3..4]);
        let (ids, ranges) = activate::<(u32, char)>(&[], &[], |&(k, _)| k);
        assert!(ids.is_empty() && ranges.is_empty());
    }

    #[test]
    fn shard_map_runs_cover_the_ids_in_order() {
        let ids = [1u32, 2, 5, 6, 7, 9];
        // id `i` emits `i % 3` items; 6 and 9 emit none
        let emits = |id: u32| (0..id % 3).map(move |j| (id, j));
        for shards in 1..=8 {
            let mut states: Vec<u32> = (0..10).collect();
            let (results, emitted) = shard_map(shards, &ids, &mut states, |k, id, s, out| {
                *s += 100;
                out.extend(emits(id));
                (k, id, *s)
            });
            let want: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(k, &id)| (k, id, id + 100))
                .collect();
            assert_eq!(results, want, "{shards} shards");
            let want: Vec<_> = ids.iter().flat_map(|&id| emits(id)).collect();
            assert_eq!(emitted, want, "{shards} shards");
            let touched: Vec<u32> = (0..10).filter(|&i| states[i as usize] >= 100).collect();
            assert_eq!(touched, ids, "{shards} shards");
        }
        let (results, emitted) = shard_map(3, &[], &mut [0u32; 4], |_, _, _, out| out.push(()));
        assert!(results.is_empty() && emitted.is_empty());
    }
}
