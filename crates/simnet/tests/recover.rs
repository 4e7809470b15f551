//! Crash-then-resume ≡ uninterrupted, bit for bit — the ISSUE-9 contract.
//!
//! Random worlds × overlays × seeds × crash ticks × checkpoint intervals:
//! a fedsim run killed by a deterministic [`CrashPlan`] and resumed from
//! its newest good snapshot (on a fresh simulator — nothing shared with
//! the dead one) finishes with a report, per-tick series, per-instance
//! loads, and `event_hash` bit-identical to the run that never crashed.
//! Torn final checkpoints fall back to the previous good snapshot; a
//! fully torn store degrades to an honest restart — never a panic, never
//! silently different output.

use std::sync::OnceLock;

use fediscope_model::schedule::OutageArena;
use fediscope_model::{TootArena, World};
use fediscope_recover::{
    encode_frame, recover_latest, run_checkpointed, CrashPlan, MemStore, RunOutcome, SnapshotStore,
};
use fediscope_simnet::fedsim::snapshot::{FEDSIM_KIND, FEDSIM_STATE_VERSION};
use fediscope_simnet::fedsim::{
    overlay, resume_or_restart, FanoutArena, FedSim, FedSimConfig, OverlaySpec, RecoveryInfo,
    SimRun,
};
use fediscope_worldgen::{toots, Generator, WorldConfig};
use proptest::prelude::*;
use serde::{Deserialize as _, Serialize as _};

const HORIZON: u32 = 32;

struct Fixture {
    world: World,
    fanout: FanoutArena,
    toots: TootArena,
    dest_users: Vec<u32>,
}

fn fixture(cfg: WorldConfig) -> Fixture {
    let world = Generator::generate_world(cfg.clone());
    let fanout = FanoutArena::from_world(&world);
    let toot_arena = toots::generate(&cfg, &world.users, HORIZON, 8.0);
    let dest_users: Vec<u32> = world.instances.iter().map(|i| i.user_count).collect();
    Fixture {
        world,
        fanout,
        toots: toot_arena,
        dest_users,
    }
}

fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [404u64, 505]
            .into_iter()
            .map(|seed| fixture(WorldConfig::tiny(seed)))
            .collect()
    })
}

fn overlay_for(code: usize) -> OverlaySpec {
    match code {
        0 => OverlaySpec::Baseline,
        1 => OverlaySpec::TopAsOutage(2, 8, 24),
        _ => OverlaySpec::TopInstanceRemoval(4, 12),
    }
}

fn config(sim_seed: u64, spec: OverlaySpec, tight: bool) -> FedSimConfig {
    let mut cfg = FedSimConfig::new(sim_seed);
    cfg.drain_epochs = 96;
    cfg.suspend_after = 3;
    cfg.probe_interval = 5;
    cfg.overlay = spec;
    if tight {
        cfg.service_per_kuser = 1;
        cfg.min_service = 1;
        cfg.backlog_ticks = 2;
        cfg.max_attempts = 4;
    }
    cfg
}

fn build_arena(fx: &Fixture, cfg: &FedSimConfig) -> OutageArena {
    overlay::build(
        &cfg.overlay,
        &fx.world.instances,
        HORIZON + cfg.drain_epochs,
    )
}

fn fresh_sim<'a>(fx: &'a Fixture, cfg: &FedSimConfig) -> FedSim<'a> {
    FedSim::new(
        cfg.clone(),
        &fx.fanout,
        &fx.toots,
        &fx.dest_users,
        build_arena(fx, cfg),
    )
}

/// Kill a run per `plan` with checkpoints every `interval` ticks, then
/// resume whatever the store holds on a fresh simulator and finish it.
fn crash_then_resume(
    fx: &Fixture,
    cfg: &FedSimConfig,
    interval: u64,
    plan: CrashPlan,
) -> (SimRun, RunOutcome, RecoveryInfo) {
    let mut store = MemStore::new();
    let mut sim = fresh_sim(fx, cfg);
    let outcome = run_checkpointed(&mut sim, &mut store, interval, Some(plan)).unwrap();
    drop(sim); // the process died: nothing in-memory survives

    let (resumed, info) = resume_or_restart(
        &store,
        cfg.clone(),
        &fx.fanout,
        &fx.toots,
        &fx.dest_users,
        build_arena(fx, cfg),
    );
    let mut resumed = resumed;
    let out = run_checkpointed(&mut resumed, &mut store, interval, None).unwrap();
    assert_eq!(out, RunOutcome::Completed);
    (resumed.finish(), outcome, info)
}

proptest! {
    /// The headline guarantee: crash anywhere, checkpoint at any cadence,
    /// resume on a fresh simulator — and the finished run is bit-identical.
    #[test]
    fn crash_then_resume_is_bit_identical(
        widx in 0usize..2,
        sim_seed in 0u64..1_000,
        code in 0usize..3,
        tight in any::<bool>(),
        crash_counter in 0u64..1_000,
        interval in 1u64..24,
    ) {
        let fx = &fixtures()[widx];
        let cfg = config(sim_seed, overlay_for(code), tight);
        let baseline = fresh_sim(fx, &cfg).run();

        let horizon = baseline.report.end_tick.max(1) as u64;
        let plan = CrashPlan::drawn(sim_seed, crash_counter, horizon);
        // (a drawn crash tick at the natural end may complete without
        // firing — the "resume" is then a resume of a finished store)
        let (resumed, _outcome, info) = crash_then_resume(fx, &cfg, interval, plan);
        prop_assert_eq!(&resumed, &baseline,
            "diverged: plan {:?} interval {} info {:?}", plan, interval, info);
    }

    /// Checkpointing itself is pure observation: a run driven through the
    /// checkpointing loop (no crash) equals a plain `run()`.
    #[test]
    fn checkpointing_does_not_perturb_the_run(
        widx in 0usize..2,
        sim_seed in 0u64..1_000,
        code in 0usize..3,
        interval in 1u64..16,
    ) {
        let fx = &fixtures()[widx];
        let cfg = config(sim_seed, overlay_for(code), false);
        let baseline = fresh_sim(fx, &cfg).run();

        let mut store = MemStore::new();
        let mut sim = fresh_sim(fx, &cfg);
        let out = run_checkpointed(&mut sim, &mut store, interval, None).unwrap();
        prop_assert_eq!(out, RunOutcome::Completed);
        prop_assert_eq!(&sim.finish(), &baseline);
    }

    /// Torn-checkpoint corpus: truncate or bit-flip the newest snapshots.
    /// Recovery must skip them (counted, no panic), fall back to the
    /// newest surviving snapshot, and still finish bit-identical. When
    /// *everything* is torn it restarts from scratch — honestly reported
    /// via `resumed_from: None` — and still converges to the same run.
    #[test]
    fn torn_snapshots_fall_back_and_stay_identical(
        widx in 0usize..2,
        sim_seed in 0u64..500,
        crash_counter in 0u64..500,
        interval in 2u64..12,
        tear_all in any::<bool>(),
        flip_not_truncate in any::<bool>(),
        corruption in any::<u64>(),
    ) {
        let fx = &fixtures()[widx];
        let cfg = config(sim_seed, overlay_for(1), true);
        let baseline = fresh_sim(fx, &cfg).run();
        let horizon = baseline.report.end_tick.max(1) as u64;
        let plan = CrashPlan::drawn(sim_seed, crash_counter, horizon);

        let mut store = MemStore::new();
        let mut sim = fresh_sim(fx, &cfg);
        run_checkpointed(&mut sim, &mut store, interval, Some(plan)).unwrap();
        drop(sim);

        // corrupt the store: all snapshots, or just the newest
        let ticks = store.ticks();
        let victims: Vec<u64> = if tear_all {
            ticks.clone()
        } else {
            ticks.iter().rev().take(1).copied().collect()
        };
        for (i, &t) in victims.iter().enumerate() {
            let len = store.get(t).map(|b| b.len()).unwrap_or(0);
            if flip_not_truncate && len > 0 {
                store.tear_bitflip(t, (corruption as usize).wrapping_add(i * 7) % len,
                                   ((corruption >> 8) as u8).wrapping_add(i as u8));
            } else {
                store.tear_truncate(t, (corruption as usize) % len.max(1));
            }
        }

        let expected_torn = victims.len() as u32;
        let (resumed, info) = resume_or_restart(
            &store, cfg.clone(), &fx.fanout, &fx.toots, &fx.dest_users,
            build_arena(fx, &cfg),
        );
        prop_assert_eq!(info.torn_skipped, expected_torn);
        if tear_all {
            prop_assert!(info.resumed_from.is_none(), "all torn must restart");
        }
        let mut resumed = resumed;
        while !resumed.is_done() {
            resumed.step_tick();
        }
        prop_assert_eq!(&resumed.finish(), &baseline,
            "diverged after tearing {:?} (info {:?})", victims, info);
    }
}

/// A `CrashPlan` with `torn_final` leaves a half-written frame at the
/// crash tick; recovery must land on the previous good checkpoint.
#[test]
fn torn_final_checkpoint_falls_back_to_previous_good() {
    let fx = &fixtures()[0];
    let cfg = config(7, overlay_for(1), true);
    let baseline = fresh_sim(fx, &cfg).run();

    let plan = CrashPlan {
        crash_tick: 20,
        torn_final: true,
    };
    let (resumed, outcome, info) = crash_then_resume(fx, &cfg, 5, plan);
    assert_eq!(
        outcome,
        RunOutcome::Crashed {
            at_tick: 20,
            torn_final: true
        }
    );
    assert_eq!(info.torn_skipped, 1, "the in-flight frame is torn");
    assert_eq!(
        info.resumed_from,
        Some(15),
        "fell back to the previous good"
    );
    assert_eq!(resumed, baseline);
}

/// Satellite pin: sender-side timers must survive a snapshot→restore
/// round trip untouched — backoff deadlines in the retry queue, probe
/// schedules of suspensions, and breaker failure counts must not reset.
#[test]
fn timers_and_counters_do_not_reset_on_resume() {
    let fx = &fixtures()[0];
    // tight + outage: guarantees retries, breakers, and suspensions exist
    let cfg = config(11, overlay_for(1), true);
    let mut sim = fresh_sim(fx, &cfg);
    for _ in 0..16 {
        sim.step_tick();
    }
    let state = sim.capture();
    let n_retry: usize = state.sources.iter().map(|s| s.retry.len()).sum();
    let n_breaker: usize = state.sources.iter().map(|s| s.breaker.len()).sum();
    assert!(n_retry > 0, "fixture must exercise the retry queue");
    assert!(n_breaker > 0, "fixture must exercise the breaker");

    let resumed = FedSim::resume(
        cfg.clone(),
        &fx.fanout,
        &fx.toots,
        &fx.dest_users,
        build_arena(fx, &cfg),
        &state,
    )
    .expect("a state resumes in its own world");
    let state2 = resumed.capture();
    // capture(resume(capture(x))) == capture(x): every deadline, count,
    // parked message, and digest word identical — nothing reset
    assert_eq!(state2, state);
    for (a, b) in state.sources.iter().zip(&state2.sources) {
        assert_eq!(a.retry, b.retry, "backoff deadlines must not reset");
        assert_eq!(
            a.suspended
                .iter()
                .map(|(d, s)| (*d, s.probe_due))
                .collect::<Vec<_>>(),
            b.suspended
                .iter()
                .map(|(d, s)| (*d, s.probe_due))
                .collect::<Vec<_>>(),
            "probe schedules must not reset"
        );
        assert_eq!(a.breaker, b.breaker, "breaker counts must not reset");
    }
}

/// The snapshot round-trips byte-for-byte through the framed wire format
/// (encode → decode → encode is a fixpoint), and a recovery scan over a
/// real store honors kind/version tags.
#[test]
fn fedsim_state_round_trips_through_the_frame() {
    let fx = &fixtures()[1];
    let cfg = config(3, overlay_for(2), false);
    let mut sim = fresh_sim(fx, &cfg);
    for _ in 0..10 {
        sim.step_tick();
    }
    let state = sim.capture();
    let bytes = fediscope_recover::snapshot_frame(&sim);
    let mut store = MemStore::new();
    store.put(10, &bytes).unwrap();
    let rec = recover_latest(&store, FEDSIM_KIND, FEDSIM_STATE_VERSION);
    let (meta, value) = rec.good.expect("good frame");
    assert_eq!(meta.tick, 10);
    let back = fediscope_simnet::fedsim::FedSimState::from_json_value(&value).unwrap();
    assert_eq!(back, state);
    // wrong schema version is refused, not misread
    let rec = recover_latest(&store, FEDSIM_KIND, FEDSIM_STATE_VERSION + 1);
    assert!(rec.must_restart());
    assert_eq!(rec.torn_skipped, 1);
}

/// A checksummed frame whose state does not fit is skipped like a torn
/// one: a frame from a different tiny world (40 instances, not 60) and a
/// fedsim frame whose state is `null` each restart the run from scratch,
/// counted in `torn_skipped`, without a panic, and the restarted run
/// still finishes bit-identical.
#[test]
fn unfit_snapshot_restarts_from_scratch() {
    let fx = &fixtures()[0];
    let cfg = config(5, overlay_for(1), true);
    let baseline = fresh_sim(fx, &cfg).run();

    let other = fixture(WorldConfig {
        n_instances: 40,
        ..WorldConfig::tiny(606)
    });
    assert_ne!(other.dest_users.len(), fx.dest_users.len());
    let mut foreign = fresh_sim(&other, &cfg);
    for _ in 0..10 {
        foreign.step_tick();
    }
    let states = [foreign.capture().to_json_value(), serde::Value::Null];
    for state in &states {
        let mut store = MemStore::new();
        let frame = encode_frame(FEDSIM_KIND, FEDSIM_STATE_VERSION, 10, state);
        store.put(10, &frame).unwrap();
        let (mut sim, info) = resume_or_restart(
            &store,
            cfg.clone(),
            &fx.fanout,
            &fx.toots,
            &fx.dest_users,
            build_arena(fx, &cfg),
        );
        assert_eq!((info.resumed_from, info.torn_skipped), (None, 1));
        assert_eq!(sim.tick(), 0, "restarted from scratch");
        while !sim.is_done() {
            sim.step_tick();
        }
        assert_eq!(sim.finish(), baseline);
    }
}

/// `FedSim::resume` returns an error, never panics, for a state that does
/// not fit the world: another instance count, a tick past the budget, or
/// queued mail or a breaker count for an instance the world lacks.
#[test]
fn resume_rejects_a_state_that_does_not_fit() {
    let fx = &fixtures()[0];
    let cfg = config(11, overlay_for(1), true);
    let mut sim = fresh_sim(fx, &cfg);
    for _ in 0..16 {
        sim.step_tick();
    }
    let state = sim.capture();
    let resume = |state: &fediscope_simnet::fedsim::FedSimState| {
        FedSim::resume(
            cfg.clone(),
            &fx.fanout,
            &fx.toots,
            &fx.dest_users,
            build_arena(fx, &cfg),
            state,
        )
        .map(|sim| sim.tick())
    };
    let error = |state| resume(state).unwrap_err().to_string();
    assert_eq!(resume(&state).unwrap(), 16);

    let mut fewer = state.clone();
    fewer.dests.pop();
    assert!(error(&fewer).contains("different world"));

    let mut late = state.clone();
    late.tick = HORIZON + cfg.drain_epochs + 1;
    assert!(error(&late).contains("tick budget"));

    let mut stray = state.clone();
    let retry = &mut stray
        .sources
        .iter_mut()
        .find(|s| !s.retry.is_empty())
        .unwrap()
        .retry;
    retry[0].1.dst = fx.dest_users.len() as u32;
    assert!(error(&stray).contains("outside the world"));

    // a breaker entry would ride into every later snapshot
    let mut stray = state.clone();
    stray.sources[0]
        .breaker
        .insert(fx.dest_users.len() as u32, 1);
    assert!(error(&stray).contains("outside the world"));
}
