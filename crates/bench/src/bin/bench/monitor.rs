//! `bench monitor` — §4 availability: the columnar telemetry engine
//! against the naive reference, recorded as `monitor_section4` in
//! `BENCH_monitor.json`.
//!
//! Two engines run the **combined §4 workload** — Fig. 7 (lifetime
//! downtime + exposure), Fig. 8 (full-resolution daily downtime +
//! correlation), Fig. 10 (outage durations + worst-day blackout), and
//! Table 1 (AS co-failures at the tier's threshold) — and must produce
//! bit-identical output:
//!
//! 1. **naive** — `fediscope_monitor::naive_section4`: the kept
//!    per-schedule reference, five separate walks over the
//!    `Vec<AvailabilitySchedule>` list, including the seed
//!    `O(days · instances · outages)` whole-day blackout rescan;
//! 2. **columnar** — `MonitorSweep::run_counted` over the `OutageArena`,
//!    the path the report runs: one sharded pass over flat interval
//!    columns, integer accumulators merged in shard order (the `par`
//!    budget sets the shard count; output is identical at any setting).
//!    Fig. 8 comes out as exact per-bin counts, so the identity check
//!    counts the naive reference's samples (`SweepOutput::into_counted`)
//!    and compares every field with `==`.
//!
//! The `modern` tier (30k instances × the 15-month 5-minute-poll window)
//! must also clear the **≥5x** acceptance floor over the naive path.

use crate::{best_of, cores, generate, BenchArgs, Run};
use fediscope_graph::par;
use fediscope_model::schedule::OutageArena;
use fediscope_monitor::{naive_section4, MonitorSweep, SweepConfig};
use fediscope_worldgen::ScaleTier;
use serde_json::json;
use std::time::Instant;

pub(crate) fn run(args: &BenchArgs) -> Run {
    let threads = par::thread_budget();
    let trials = if args.quick { 3 } else { 5 };
    let min_as_instances = args.tier.table1_min_instances();
    let (world, gen_s) = generate(args);

    let t0 = Instant::now();
    let arena = OutageArena::from_schedules(&world.schedules);
    let arena_build_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "world ready in {gen_s:.1}s: {} instances, {} outage intervals \
         (arena built in {arena_build_s:.3}s)",
        arena.len(),
        arena.n_outages()
    );

    let sweep_cfg = SweepConfig { min_as_instances };
    let naive_f = || {
        naive_section4(
            &world.instances,
            &world.schedules,
            &world.providers,
            &sweep_cfg,
        )
    };
    let columnar_f = || {
        MonitorSweep::new(&arena, &world.instances)
            .with_shards(threads)
            .run_counted(&world.providers, &sweep_cfg)
    };

    let identical = columnar_f() == naive_f().into_counted();
    if identical {
        eprintln!("identity check passed (naive == columnar at {threads} shards)");
    } else {
        eprintln!("FAIL — engines diverged");
    }
    let columnar_s = best_of(trials, || {
        std::hint::black_box(columnar_f());
    });
    let naive_s = best_of(trials, || {
        std::hint::black_box(naive_f());
    });
    let speedup = naive_s / columnar_s;
    eprintln!("section4 combined: columnar {columnar_s:.4}s, naive {naive_s:.4}s ({speedup:.1}x)");

    let record = json!({
        "bench": "monitor_section4",
        "tier": args.tier.name(),
        "mode": args.mode(),
        "threads": threads,
        "cores": cores(),
        "instances": arena.len(),
        "outages": arena.n_outages(),
        "window_days": 472,
        "min_as_instances": min_as_instances,
        "seed": args.seed,
        "gen_seconds": gen_s,
        "arena_build_seconds": arena_build_s,
        "naive_seconds": naive_s,
        "columnar_seconds": columnar_s,
        "speedup": speedup,
        "identical_output": identical,
    });
    let mut gates = vec![("identical", identical)];
    // The ≥5x acceptance floor rides the modern tier (the structural win —
    // the blackout rescan collapsing to O(outages + days) — needs enough
    // days × instances to dominate; smaller tiers only record).
    if args.tier == ScaleTier::Modern {
        gates.push(("speedup_5x", speedup >= 5.0));
    }
    (record, gates)
}
