//! The generic checkpointed run loop.
//!
//! Engines expose stepping ([`Steppable`]) and state capture
//! ([`Snapshot`]); [`run_checkpointed`] drives them on
//! their own virtual clock, writing a framed snapshot every `interval`
//! ticks, and dying on cue when given a [`CrashPlan`]. Checkpointing is
//! pure observation — it never touches engine state, so the computed
//! stream is unchanged whether checkpoints are on, off, or frequent.

use crate::crash::CrashPlan;
use crate::store::SnapshotStore;
use crate::{snapshot_frame, Snapshot};
use serde::{Deserialize, Serialize};
use std::io;

/// An engine advanced one virtual tick at a time.
pub trait Steppable {
    /// Virtual ticks completed so far.
    fn tick(&self) -> u64;
    /// True when the run has nothing left to do.
    fn is_done(&self) -> bool;
    /// Execute one tick. Must be deterministic given current state.
    fn step(&mut self);
}

/// How a checkpointed run ended.
///
/// Serde-derived (an externally tagged struct variant) so outcomes land
/// in bench records and transcripts as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// Ran to completion.
    Completed,
    /// The crash plan fired before the step at `at_tick`; when
    /// `torn_final` is set, the snapshot due at that tick was written
    /// as a torn prefix.
    Crashed {
        /// Tick whose step never executed.
        at_tick: u64,
        /// Whether the in-flight checkpoint tore.
        torn_final: bool,
    },
}

/// Step `engine` to completion, checkpointing every `interval` ticks
/// (tick 0 — the initial state — is *not* checkpointed; resumability
/// from nothing is just a fresh start). A fired [`CrashPlan`] stops the
/// loop dead, optionally leaving a torn half-written frame behind, and
/// returns [`RunOutcome::Crashed`].
pub fn run_checkpointed<E, S>(
    engine: &mut E,
    store: &mut S,
    interval: u64,
    crash: Option<CrashPlan>,
) -> io::Result<RunOutcome>
where
    E: Steppable + Snapshot,
    S: SnapshotStore,
{
    let interval = interval.max(1);
    while !engine.is_done() {
        let tick = engine.tick();
        if let Some(plan) = crash {
            if plan.fires_at(tick) {
                if plan.torn_final {
                    // the checkpoint that was mid-write when the process
                    // died: only a prefix reached the disk
                    let frame = snapshot_frame(engine);
                    let keep = frame.len() / 2;
                    store.put(tick, &frame[..keep])?;
                }
                return Ok(RunOutcome::Crashed {
                    at_tick: tick,
                    torn_final: plan.torn_final,
                });
            }
        }
        engine.step();
        if engine.tick().is_multiple_of(interval) {
            store.put(engine.tick(), &snapshot_frame(engine))?;
        }
    }
    Ok(RunOutcome::Completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{recover_latest, MemStore};
    use serde::Value;

    /// Toy engine: a counter plus an FNV-style accumulator over its own
    /// tick stream — enough to catch a resume that replays or skips.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Counter {
        tick: u64,
        limit: u64,
        digest: u64,
    }

    impl Counter {
        fn new(limit: u64) -> Self {
            Counter {
                tick: 0,
                limit,
                digest: 0xCBF2_9CE4_8422_2325,
            }
        }

        fn resume_from(state: &Value, limit: u64) -> Self {
            Counter {
                tick: state["tick"].as_u64().unwrap(),
                limit,
                digest: state["digest"].as_u64().unwrap(),
            }
        }
    }

    impl Steppable for Counter {
        fn tick(&self) -> u64 {
            self.tick
        }
        fn is_done(&self) -> bool {
            self.tick >= self.limit
        }
        fn step(&mut self) {
            self.digest ^= self.tick.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01B3);
            self.tick += 1;
        }
    }

    impl Snapshot for Counter {
        const KIND: &'static str = "counter";
        const STATE_VERSION: u32 = 1;
        fn virtual_tick(&self) -> u64 {
            self.tick
        }
        fn snapshot_state(&self) -> Value {
            let mut m = serde::Map::new();
            m.insert("tick".into(), Value::from(self.tick));
            m.insert("digest".into(), Value::from(self.digest));
            Value::Object(m)
        }
    }

    fn uninterrupted(limit: u64) -> Counter {
        let mut c = Counter::new(limit);
        while !c.is_done() {
            c.step();
        }
        c
    }

    #[test]
    fn checkpointing_does_not_change_the_stream() {
        let mut c = Counter::new(97);
        let mut store = MemStore::new();
        let out = run_checkpointed(&mut c, &mut store, 10, None).unwrap();
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(c, uninterrupted(97));
        assert_eq!(store.len(), 9); // ticks 10..=90
    }

    #[test]
    fn crash_then_resume_is_bit_identical() {
        // (30, 97): crash before the first checkpoint exists — resume
        // degrades to an honest restart from scratch
        for (crash_tick, interval) in [(1u64, 1u64), (5, 3), (50, 7), (96, 10), (30, 97)] {
            let mut c = Counter::new(97);
            let mut store = MemStore::new();
            let out = run_checkpointed(
                &mut c,
                &mut store,
                interval,
                Some(CrashPlan::at(crash_tick)),
            )
            .unwrap();
            assert!(
                matches!(out, RunOutcome::Crashed { .. }),
                "plan {crash_tick}"
            );

            let rec = recover_latest(&store, "counter", 1);
            let mut resumed = match &rec.good {
                Some((_, state)) => Counter::resume_from(state, 97),
                None => Counter::new(97), // crash before the first checkpoint
            };
            let out = run_checkpointed(&mut resumed, &mut store, interval, None).unwrap();
            assert_eq!(out, RunOutcome::Completed);
            assert_eq!(
                resumed,
                uninterrupted(97),
                "crash {crash_tick} interval {interval}"
            );
        }
    }

    #[test]
    fn torn_final_checkpoint_falls_back_to_previous_good() {
        let mut c = Counter::new(50);
        let mut store = MemStore::new();
        let plan = CrashPlan {
            crash_tick: 30,
            torn_final: true,
        };
        run_checkpointed(&mut c, &mut store, 10, Some(plan)).unwrap();

        let rec = recover_latest(&store, "counter", 1);
        // tick-30 frame is torn; recovery lands on tick 20
        assert_eq!(rec.torn_skipped, 1);
        let (meta, state) = rec.good.unwrap();
        assert_eq!(meta.tick, 20);
        let mut resumed = Counter::resume_from(&state, 50);
        run_checkpointed(&mut resumed, &mut store, 10, None).unwrap();
        assert_eq!(resumed, uninterrupted(50));
    }

    #[test]
    fn run_outcome_round_trips_struct_variant() {
        // satellite: the derive's externally tagged struct variants
        let out = RunOutcome::Crashed {
            at_tick: 42,
            torn_final: true,
        };
        let v = out.to_json_value();
        assert_eq!(RunOutcome::from_json_value(&v).unwrap(), out);
        let v = RunOutcome::Completed.to_json_value();
        assert_eq!(
            RunOutcome::from_json_value(&v).unwrap(),
            RunOutcome::Completed
        );
        // and through the wire format
        let s = serde_json::to_string(&out).unwrap();
        assert_eq!(serde_json::from_str::<RunOutcome>(&s).unwrap(), out);
    }
}
