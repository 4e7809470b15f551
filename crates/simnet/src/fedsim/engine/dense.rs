//! The dense reference tick: the engine's tick before active lists, kept
//! in the test build as the oracle of the sparse engine.
//!
//! Every phase walks every instance, and events regroup through
//! O(instances) stable counting sorts ([`csr_group`]). It runs serially;
//! the sparse engine is compared against it at 1–5 shards, after every
//! tick, on the tiny fixture worlds of `tests/fedsim.rs`.

use std::sync::OnceLock;

use fediscope_model::World;
use fediscope_worldgen::{toots, Generator, WorldConfig};
use proptest::prelude::*;

use super::*;
use crate::fedsim::{overlay, OverlaySpec};

/// Stable counting sort of `items` into a CSR grouped by `key` (< `n`):
/// returns `(offsets, grouped)` with `offsets.len() == n + 1`; within a
/// group, items keep their input order.
pub(super) fn csr_group<T: Copy, K: Fn(&T) -> u32>(
    n: usize,
    items: &[T],
    key: K,
) -> (Vec<u32>, Vec<T>) {
    let mut counts = vec![0u32; n];
    for it in items {
        counts[key(it) as usize] += 1;
    }
    let mut offsets = vec![0u32; n + 1];
    let mut acc = 0u32;
    for i in 0..n {
        offsets[i] = acc;
        acc += counts[i];
    }
    offsets[n] = acc;
    let Some(&first) = items.first() else {
        return (offsets, Vec::new());
    };
    // Scatter without uninitialised memory: fill with a copy of the first
    // item, then overwrite every slot via the cursor walk.
    let mut grouped = vec![first; items.len()];
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for &it in items {
        let at = &mut cursor[key(&it) as usize];
        grouped[*at as usize] = it;
        *at += 1;
    }
    (offsets, grouped)
}

impl FedSim<'_> {
    /// Advance one tick visiting every instance in every phase. Leaves
    /// the active lists untouched: a simulator stepped here must not be
    /// stepped by [`FedSim::step_tick`].
    fn step_dense(&mut self) {
        let t = self.tick;
        let n = self.fanout.n_instances();
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
        let (new_off, new_by_src) = csr_group(n, &fresh, |&(src, _)| src);

        // Phase S — every source: emit attempts in canonical order.
        let outages = &self.outages;
        let cfg = &self.cfg;
        let mut attempts: Vec<Attempt> = Vec::new();
        for (i, s) in self.sources.iter_mut().enumerate() {
            if !outages.view(i).is_up(Epoch(t)) {
                continue; // a down instance's delivery workers are paused
            }
            while let Some(due) = s.retry.take_due(t) {
                for msg in due {
                    if s.is_suspended(msg.dst) {
                        s.park(msg);
                    } else {
                        s.redelivery_attempts += 1;
                        attempts.push(Attempt {
                            src: i as u32,
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
                    attempts.push(Attempt {
                        src: i as u32,
                        msg,
                        probe: true,
                    });
                }
            }
            for &(_, msg) in &new_by_src[new_off[i] as usize..new_off[i + 1] as usize] {
                if s.is_suspended(msg.dst) {
                    s.park(msg);
                } else {
                    attempts.push(Attempt {
                        src: i as u32,
                        msg,
                        probe: false,
                    });
                }
            }
        }
        let probes = attempts.iter().filter(|a| a.probe).count() as u32;
        stat.probes = probes;
        stat.attempts = attempts.len() as u32 - probes;
        self.probes_total += probes as u64;
        self.attempts_total += stat.attempts as u64;

        // Phase D — every destination: admit + service.
        let (att_off, att_by_dst) = csr_group(n, &attempts, |a| a.msg.dst);
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(attempts.len());
        for (j, d) in self.dests.iter_mut().enumerate() {
            let down = !outages.view(j).is_up(Epoch(t));
            for &attempt in &att_by_dst[att_off[j] as usize..att_off[j + 1] as usize] {
                let verdict = d.admit(t, attempt.msg, attempt.probe, down);
                outcomes.push(Outcome { attempt, verdict });
            }
            if !down {
                stat.delivered += d.service(t).0;
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

        // Phase R — every source: verdicts drive retry/suspension.
        let (out_off, out_by_src) = csr_group(n, &outcomes, |o| o.attempt.src);
        for (i, s) in self.sources.iter_mut().enumerate() {
            for &Outcome { attempt, verdict } in
                &out_by_src[out_off[i] as usize..out_off[i + 1] as usize]
            {
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
                        s.unsuspend(dst, t + 1);
                    }
                    continue;
                }
                match verdict {
                    Verdict::Accepted => s.breaker_reset(dst),
                    Verdict::RejectedFull | Verdict::RejectedDown => {
                        let mut msg = attempt.msg;
                        msg.attempts += 1;
                        if msg.attempts >= cfg.max_attempts {
                            s.dropped += 1;
                            stat.dropped += 1;
                        } else if s.is_suspended(dst) {
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
        }
        self.dropped_total += stat.dropped as u64;
        stat.backlog = self.backlog();
        self.series.push(stat);
        self.tick += 1;
    }
}

const HORIZON: u32 = 32;

struct Fixture {
    world: World,
    fanout: FanoutArena,
    toots: TootArena,
    dest_users: Vec<u32>,
}

impl Fixture {
    fn sim(&self, cfg: &FedSimConfig) -> FedSim<'_> {
        let outages = overlay::build(
            &cfg.overlay,
            &self.world.instances,
            HORIZON + cfg.drain_epochs,
        );
        FedSim::new(
            cfg.clone(),
            &self.fanout,
            &self.toots,
            &self.dest_users,
            outages,
        )
    }
}

/// The three tiny worlds of `tests/fedsim.rs`, built once.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [101u64, 202, 303]
            .into_iter()
            .map(|seed| {
                let cfg = WorldConfig::tiny(seed);
                let world = Generator::generate_world(cfg.clone());
                let fanout = FanoutArena::from_world(&world);
                let toots = toots::generate(&cfg, &world.users, HORIZON, 8.0);
                let dest_users = world.instances.iter().map(|i| i.user_count).collect();
                Fixture {
                    world,
                    fanout,
                    toots,
                    dest_users,
                }
            })
            .collect()
    })
}

/// `tests/fedsim.rs`'s overlays and configs: loose or tight queues,
/// quick suspensions, short probes.
fn config(sim_seed: u64, overlay: usize, tight: bool) -> FedSimConfig {
    let mut cfg = FedSimConfig::new(sim_seed);
    cfg.drain_epochs = 96;
    cfg.suspend_after = 3;
    cfg.probe_interval = 5;
    cfg.overlay = match overlay {
        0 => OverlaySpec::Baseline,
        1 => OverlaySpec::TopAsOutage(2, 8, 24),
        _ => OverlaySpec::TopInstanceRemoval(4, 12),
    };
    if tight {
        cfg.service_per_kuser = 1;
        cfg.min_service = 1;
        cfg.backlog_ticks = 2;
        cfg.max_attempts = 4;
    }
    cfg
}

proptest! {
    /// The sparse tick at 1–5 shards replays the dense reference: after
    /// every tick the captured state (counters, queues, breakers,
    /// suspensions, digests, the series) is identical, the active lists
    /// name exactly the instances holding queued state, and the finished
    /// runs (report, per-instance loads, `event_hash`) are identical.
    #[test]
    fn sparse_ticks_match_dense_ticks(
        widx in 0usize..3,
        shards in 1u32..6,
        sim_seed in 0u64..1_000,
        overlay in 0usize..3,
        tight in any::<bool>(),
    ) {
        let fx = &fixtures()[widx];
        let mut cfg = config(sim_seed, overlay, tight);
        let mut dense = fx.sim(&cfg);
        cfg.shards = shards;
        let mut sparse = fx.sim(&cfg);
        while !dense.is_done() {
            prop_assert!(!sparse.is_done());
            dense.step_dense();
            sparse.step_tick();
            prop_assert_eq!(sparse.capture(), dense.capture(), "tick {}", dense.tick());
            let held = (sparse.held_sources.clone(), sparse.held_dests.clone());
            sparse.rebuild_held();
            prop_assert_eq!(held, (sparse.held_sources.clone(), sparse.held_dests.clone()));
        }
        prop_assert!(sparse.is_done());
        prop_assert_eq!(sparse.finish(), dense.finish());
    }
}
