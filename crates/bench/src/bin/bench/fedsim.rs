//! `bench fedsim` — §3 federation delivery: the delivery simulator on the
//! tier world, recorded as `fedsim_delivery` in `BENCH_fedsim.json`.
//!
//! Two gates ride every run:
//!
//! 1. **`identical`** — the clean run at 1 shard, at the `par` budget's
//!    shard count, and a fresh replay at that count must produce
//!    bit-identical reports, per-tick series, per-instance loads, and
//!    `event_hash` (the simulator's determinism contract).
//! 2. **`degrades_gracefully`** — the tier's headline overlay (the top
//!    user-hosting ASes dark for the window) must *degrade* the
//!    federation, not melt it: deliveries are refused while dark, refused
//!    mail retries, redelivery recovers traffic after the outage ends, and
//!    the conservation identity holds — every fanned-out message is
//!    delivered, dropped, or still accounted for.
//!
//! The simulator runs with the tier's horizon, rate and outage knobs.

use crate::{cores, generate, BenchArgs, Run};
use fediscope_graph::par;
use fediscope_simnet::fedsim::{overlay, FanoutArena, FedSim, SimRun};
use fediscope_simnet::{FedSimConfig, OverlaySpec};
use fediscope_worldgen::toots;
use serde_json::json;
use std::time::Instant;

pub(crate) fn run(args: &BenchArgs) -> Run {
    let threads = par::thread_budget();
    let tier = args.tier;
    let horizon = tier.fedsim_horizon_epochs();
    let mut clean_cfg = FedSimConfig::for_tier(tier, args.seed);
    clean_cfg.shards = threads as u32;
    let outage_cfg = clean_cfg.clone().with_top_as_outage(tier);
    let OverlaySpec::TopAsOutage(outage_ases, outage_start, outage_end) = outage_cfg.overlay else {
        unreachable!("bench overlay is always a top-AS outage");
    };

    let (world, gen_s) = generate(args);
    let t0 = Instant::now();
    let fanout = FanoutArena::from_world(&world);
    let rate = tier.fedsim_rate_scale();
    let toot_arena = toots::generate(&args.world(), &world.users, horizon, rate);
    let build_s = t0.elapsed().as_secs_f64();
    let dest_users: Vec<u32> = world.instances.iter().map(|i| i.user_count).collect();
    eprintln!(
        "world ready in {gen_s:.1}s: {} instances, {} delivery pairs, \
         {} toots over {horizon} epochs (arenas built in {build_s:.3}s)",
        world.instances.len(),
        fanout.n_pairs(),
        toot_arena.n_toots()
    );

    let run = |cfg: &FedSimConfig| -> SimRun {
        let total = toot_arena.horizon() + cfg.drain_epochs;
        let arena = overlay::build(&cfg.overlay, &world.instances, total);
        FedSim::new(cfg.clone(), &fanout, &toot_arena, &dest_users, arena).run()
    };

    // Gate 1 — determinism: serial vs sharded vs sharded replay.
    let mut serial_cfg = clean_cfg.clone();
    serial_cfg.shards = 1;
    let t0 = Instant::now();
    let serial = run(&serial_cfg);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let clean = run(&clean_cfg);
    let sharded_s = t0.elapsed().as_secs_f64();
    let replay = run(&clean_cfg);
    let identical = serial == clean && clean == replay;
    if identical {
        eprintln!(
            "identity check passed (1 shard == {threads} shards == replay, \
             event_hash {:#018x})",
            clean.report.event_hash
        );
    } else {
        eprintln!("FAIL — shard counts or replays diverged");
    }

    // Gate 2 — the outage overlay degrades gracefully.
    let t0 = Instant::now();
    let hit = run(&outage_cfg);
    let outage_s = t0.elapsed().as_secs_f64();
    let post_outage_delivered: u64 = hit
        .series
        .iter()
        .skip(outage_end as usize)
        .map(|s| s.delivered as u64)
        .sum();
    let peak_backlog = hit.series.iter().map(|s| s.backlog).max().unwrap_or(0);
    // Note: total redeliveries are NOT compared against the clean run —
    // authors on dark instances post nothing, so the outage also
    // suppresses fan-out (and with it the clean run's backpressure
    // retries). Grace is the recovery signal itself: refused mail
    // exists, it retried, suspensions lifted, traffic flowed again.
    let r = &hit.report;
    let graceful = r.conserved()
        && r.rejected_down > 0
        && r.redelivery_attempts > 0
        && r.recovered_suspensions > 0
        && post_outage_delivered > 0;
    if graceful {
        eprintln!(
            "degradation check passed: {} refused while dark, {} redeliveries, \
             {} delivered after the outage lifted, peak backlog {}, \
             {} suspensions recovered",
            r.rejected_down,
            r.redelivery_attempts,
            post_outage_delivered,
            peak_backlog,
            r.recovered_suspensions
        );
    } else {
        eprintln!("FAIL — outage run lost mail or never recovered");
    }
    eprintln!(
        "timings: serial {serial_s:.3}s, {threads}-shard {sharded_s:.3}s \
         ({:.2}x), outage run {outage_s:.3}s",
        serial_s / sharded_s
    );

    let record = json!({
        "bench": "fedsim_delivery",
        "tier": tier.name(),
        "mode": args.mode(),
        "shards": threads,
        "cores": cores(),
        "seed": args.seed,
        "instances": world.instances.len(),
        "users": world.users.len(),
        "pairs": fanout.n_pairs(),
        "toots": toot_arena.n_toots(),
        "horizon": horizon,
        "outage_ases": outage_ases,
        "outage_start": outage_start,
        "outage_end": outage_end,
        "fanned_out": r.fanned_out,
        "delivered_prompt": r.delivered_prompt,
        "delivered_delayed": r.delivered_delayed,
        "dropped": r.dropped,
        "undeliverable": r.undeliverable,
        "suspended_undeliverable": r.suspended_undeliverable,
        "rejected_full": r.rejected_full,
        "rejected_down": r.rejected_down,
        "redelivery_attempts": r.redelivery_attempts,
        "suspensions": r.suspensions,
        "recovered_suspensions": r.recovered_suspensions,
        "amplification": r.amplification,
        "mean_latency": r.mean_latency,
        "peak_backlog": peak_backlog,
        "post_outage_delivered": post_outage_delivered,
        "time_to_drain": r.time_to_drain,
        "drained": r.drained,
        "event_hash": r.event_hash,
        "clean_event_hash": clean.report.event_hash,
        "gen_seconds": gen_s,
        "serial_seconds": serial_s,
        "sharded_seconds": sharded_s,
        "outage_seconds": outage_s,
        "conserved": r.conserved(),
        "identical_output": identical,
        "overload_degrades_gracefully": graceful,
    });
    let gates = vec![("identical", identical), ("degrades_gracefully", graceful)];
    (record, gates)
}
