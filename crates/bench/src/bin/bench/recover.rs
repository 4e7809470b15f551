//! `bench recover` — §3's simulator under checkpoints: price the
//! checkpoint layer and gate the resume contract, recorded as `recover`
//! in `BENCH_recover.json`.
//!
//! Three gates, all over the federation simulator (the tier's knobs with
//! a top-3-AS outage overlay) driven through
//! [`fediscope_recover::run_checkpointed`] with on-disk [`DirStore`]
//! snapshots:
//!
//! 1. **`overhead_under_5pct`** — checkpointing at the deployment cadence
//!    (one frame per simulated day, written through temp-then-rename) must
//!    cost **< 5% wall** against the same run with checkpointing off.
//!    Both sides take the best of three repetitions so scheduler noise
//!    doesn't fail CI. Full mode only (`overhead_gated`).
//! 2. **`resume_identical`** — kill the run cleanly mid-flight
//!    ([`CrashPlan`]), resume from the newest snapshot on a fresh
//!    simulator, and the finished [`SimRun`] — report, series,
//!    per-instance loads, `event_hash` — is bit-identical to the run
//!    that never crashed.
//! 3. **`torn_fallback_identical`** — kill it again, this time tearing
//!    the final frame mid-write; recovery must detect the torn frame,
//!    fall back one checkpoint, and still finish bit-identical.

use crate::{generate, BenchArgs, Run};
use fediscope_recover::{run_checkpointed, CrashPlan, DirStore, RunOutcome, SnapshotStore};
use fediscope_simnet::fedsim::{
    overlay, resume_or_restart, FanoutArena, FedSim, FedSimConfig, SimRun,
};
use fediscope_simnet::OverlaySpec;
use fediscope_worldgen::toots;
use serde_json::json;
use std::time::Instant;

pub(crate) fn run(args: &BenchArgs) -> Run {
    let tier = args.tier;
    let horizon = tier.fedsim_horizon_epochs();
    let mut cfg = FedSimConfig::for_tier(tier, args.seed);
    cfg.overlay = OverlaySpec::TopAsOutage(3, horizon / 4, horizon / 2);

    let (world, _) = generate(args);
    let fanout = FanoutArena::from_world(&world);
    let rate = tier.fedsim_rate_scale();
    let toot_arena = toots::generate(&args.world(), &world.users, horizon, rate);
    let dest_users: Vec<u32> = world.instances.iter().map(|i| i.user_count).collect();
    let total = toot_arena.horizon() + cfg.drain_epochs;
    eprintln!(
        "world ready: {} instances, {} delivery pairs, {} toots, horizon {total}",
        world.instances.len(),
        fanout.n_pairs(),
        toot_arena.n_toots()
    );

    let fresh = || -> FedSim<'_> {
        let arena = overlay::build(&cfg.overlay, &world.instances, total);
        FedSim::new(cfg.clone(), &fanout, &toot_arena, &dest_users, arena)
    };
    let ckpt_dir = std::env::temp_dir().join(format!("bench-recover-{}", std::process::id()));
    let open_store = || DirStore::open(&ckpt_dir).expect("open checkpoint dir");
    let wipe_store = || {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    };

    // --- Gate 1: checkpoint overhead < 5% wall (best of 3 each side).
    let mut clean_s = f64::MAX;
    let mut clean: Option<SimRun> = None;
    for _ in 0..3 {
        let mut sim = fresh();
        let t0 = Instant::now();
        // interval u64::MAX: the loop runs identically but writes nothing.
        let mut store = open_store();
        let out = run_checkpointed(&mut sim, &mut store, u64::MAX, None).unwrap();
        assert_eq!(out, RunOutcome::Completed);
        eprintln!("  clean rep: {:.4}s", t0.elapsed().as_secs_f64());
        clean_s = clean_s.min(t0.elapsed().as_secs_f64());
        clean = Some(sim.finish());
        wipe_store();
    }
    let clean = clean.expect("clean run produced a result");

    // The simulator stops once everything drains, typically well before
    // the configured horizon — cadence and crash ticks come from the
    // *actual* run length so the crash always lands mid-flight.
    let ticks_run = clean.series.len() as u64;
    // The overhead gate prices the *deployment* cadence: a multi-day run
    // checkpoints once per simulated day. The crash-resume gates below
    // use a much denser interval — they test correctness, not cost.
    let day = u64::from(fediscope_model::time::EPOCHS_PER_DAY);
    let overhead_interval = if ticks_run > day {
        day
    } else {
        (ticks_run / 2).max(1)
    };
    let interval = (ticks_run / 8).max(1);

    let mut ckpt_s = f64::MAX;
    let mut n_frames = 0usize;
    let mut max_frame_bytes = 0usize;
    for _ in 0..3 {
        wipe_store();
        let mut sim = fresh();
        let t0 = Instant::now();
        let mut store = open_store();
        let out = run_checkpointed(&mut sim, &mut store, overhead_interval, None).unwrap();
        assert_eq!(out, RunOutcome::Completed);
        eprintln!("  ckpt rep: {:.4}s", t0.elapsed().as_secs_f64());
        ckpt_s = ckpt_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            sim.finish(),
            clean,
            "checkpointing altered the computed stream"
        );
        let ticks = store.ticks();
        n_frames = ticks.len();
        max_frame_bytes = ticks
            .iter()
            .filter_map(|&t| store.get(t).map(|b| b.len()))
            .max()
            .unwrap_or(0);
    }
    let overhead = (ckpt_s - clean_s).max(0.0) / clean_s;
    let overhead_ok = overhead < 0.05;
    // A quick run is too short for a wall-clock *fraction* to be more
    // than scheduler noise: record it, but only full mode enforces the
    // 5% budget.
    let overhead_gated = !args.quick;
    eprintln!(
        "overhead: clean {clean_s:.4}s, checkpointed {ckpt_s:.4}s \
         ({:+.2}% — {n_frames} frames, largest {max_frame_bytes} bytes{})",
        overhead * 100.0,
        if overhead_gated {
            ""
        } else {
            "; not gated under --quick"
        }
    );

    // --- Gates 2 & 3: crash → resume ≡ uninterrupted.
    let resume_case = |plan: CrashPlan| -> (bool, Option<u64>, u32) {
        wipe_store();
        let mut store = open_store();
        let mut sim = fresh();
        let out = run_checkpointed(&mut sim, &mut store, interval, Some(plan)).unwrap();
        assert!(
            matches!(out, RunOutcome::Crashed { .. }),
            "crash plan never fired"
        );
        drop(sim); // the process died: nothing in-memory survives

        let arena = overlay::build(&cfg.overlay, &world.instances, total);
        let (mut resumed, info) = resume_or_restart(
            &store,
            cfg.clone(),
            &fanout,
            &toot_arena,
            &dest_users,
            arena,
        );
        let fin = run_checkpointed(&mut resumed, &mut store, interval, None).unwrap();
        assert_eq!(fin, RunOutcome::Completed);
        (
            resumed.finish() == clean,
            info.resumed_from,
            info.torn_skipped,
        )
    };

    let crash_tick = (ticks_run * 3 / 5).max(1);
    let (resume_identical, resumed_from, _) = resume_case(CrashPlan::at(crash_tick));
    eprintln!(
        "clean kill at tick {crash_tick}: resumed from {resumed_from:?}, \
         identical: {resume_identical}"
    );

    // Tear the frame written at the crash tick itself: recovery must
    // fall back one interval and still converge.
    let torn_crash_tick = interval * (crash_tick / interval).max(2);
    let torn_plan = CrashPlan {
        crash_tick: torn_crash_tick,
        torn_final: true,
    };
    let (torn_fallback_identical, torn_resumed_from, torn_skipped) = resume_case(torn_plan);
    eprintln!(
        "torn kill at tick {torn_crash_tick}: skipped {torn_skipped} torn frame(s), \
         resumed from {torn_resumed_from:?}, identical: {torn_fallback_identical}"
    );
    assert!(torn_skipped >= 1, "the torn final frame went undetected");
    wipe_store();

    let record = json!({
        "bench": "recover",
        "mode": args.mode(),
        "seed": args.seed,
        "instances": world.instances.len(),
        "users": world.users.len(),
        "ticks": ticks_run,
        "overhead_interval": overhead_interval,
        "interval": interval,
        "frames": n_frames,
        "max_frame_bytes": max_frame_bytes,
        "clean_seconds": clean_s,
        "checkpointed_seconds": ckpt_s,
        "overhead_frac": overhead,
        "crash_tick": crash_tick,
        "torn_crash_tick": torn_crash_tick,
        "torn_skipped": torn_skipped,
        "event_hash": clean.report.event_hash,
        "overhead_gated": overhead_gated,
        "overhead_ok": overhead_ok,
        "torn_fallback_identical": torn_fallback_identical,
        "resume_identical": resume_identical && torn_fallback_identical,
    });
    let mut gates = vec![
        ("resume_identical", resume_identical),
        ("torn_fallback_identical", torn_fallback_identical),
    ];
    if overhead_gated {
        gates.push(("overhead_under_5pct", overhead_ok));
    }
    (record, gates)
}
