//! `bench scenario` — §5.2 replication under correlated failures: the
//! scenario engine against the naive grid, recorded with the strategy
//! frontier as `scenario` in `BENCH_scenario.json`.
//!
//! Two engines evaluate the same scenario × strategy product grid and
//! must produce bit-identical frontiers:
//!
//! 1. **naive** — `fediscope_replication::scenario::naive_grid`: one full
//!    pass over the user table per grid cell, with its own step-table
//!    computation from the raw removal groups.
//! 2. **sweep** — `evaluate_grid`: one sharded pass over the resident
//!    arena; every author is placed once per strategy and scored against
//!    every scenario, with integer histograms merged in shard order.
//!
//! The workload is the tier's default scenario set (AS/hoster shared
//! fate, region wave, cert-lapse cascade, churn with rebirth) × the
//! default strategy frontier (No-Rep, S-Rep, Random(2), k-of-n(2/4),
//! pop-weighted(1..4), follower-local(3)); the record carries the full
//! frontier (availability + storage cost per cell) alongside the timings
//! and the `identical_output` verdict. The sweep must stay bit-identical
//! at any `par` budget.

use crate::{best_of, cores, generate, BenchArgs, Run};
use fediscope_core::scenarios::{frontier_strategies, tier_specs};
use fediscope_core::Observatory;
use fediscope_graph::par;
use fediscope_replication::scenario::{
    compile, evaluate_grid, naive_grid, CompiledScenario, ScenarioStrategy, ScenarioWorld,
};
use fediscope_worldgen::streams;
use serde_json::{json, Value};

pub(crate) fn run(args: &BenchArgs) -> Run {
    // The naive reference runs one full user-table pass per grid cell
    // (30 of them), so fewer trials than the microsecond-scale benches.
    let trials = if args.quick { 2 } else { 3 };
    let (world, gen_s) = generate(args);
    let obs = Observatory::new(world);
    let view = obs.content_view();
    eprintln!(
        "world ready in {gen_s:.1}s: {} users, {} instances, {} holder entries",
        view.n_users(),
        view.n_instances,
        view.holder_entries()
    );

    let rebirth = streams::rebirth_days(
        &obs.world.schedules,
        args.seed,
        streams::DEFAULT_REBIRTH_FRAC,
    );
    let sw = ScenarioWorld::from_world(&obs.world).with_rebirth(rebirth);
    let specs = tier_specs(args.tier);
    let strategies: Vec<ScenarioStrategy> = frontier_strategies();
    let compiled: Vec<CompiledScenario> = specs.iter().map(|s| compile(s, &sw)).collect();
    for c in &compiled {
        eprintln!(
            "scenario {}: {} steps, {} instances removed",
            c.label,
            c.plan.n_steps(),
            c.plan.removed_instances().len()
        );
    }

    let fast = evaluate_grid(view, &sw, &compiled, &strategies, args.seed);
    let identical = fast == naive_grid(view, &sw, &compiled, &strategies, args.seed);
    if identical {
        eprintln!("identity check passed (sweep == naive reference, bit-for-bit)");
    } else {
        eprintln!("FAIL — sweep diverged from the naive reference");
    }
    let sweep_s = best_of(trials, || {
        std::hint::black_box(evaluate_grid(view, &sw, &compiled, &strategies, args.seed));
    });
    let naive_s = best_of(trials, || {
        std::hint::black_box(naive_grid(view, &sw, &compiled, &strategies, args.seed));
    });
    let speedup = naive_s / sweep_s;
    eprintln!(
        "grid {}x{}: sweep {sweep_s:.4}s, naive {naive_s:.4}s ({speedup:.1}x)",
        compiled.len(),
        strategies.len()
    );

    // The frontier, row-major: one object per scenario × strategy cell.
    let mut frontier: Vec<Value> = Vec::with_capacity(fast.cells.len());
    for (r, scenario) in fast.rows.iter().enumerate() {
        for (c, strategy) in fast.cols.iter().enumerate() {
            let cell = fast.get(r, c);
            frontier.push(json!({
                "scenario": scenario,
                "strategy": strategy,
                "availability": cell.availability,
                "storage_cost": cell.storage_cost,
            }));
        }
    }
    let record = json!({
        "bench": "scenario",
        "tier": args.tier.name(),
        "mode": args.mode(),
        "threads": par::thread_budget(),
        "cores": cores(),
        "users": view.n_users(),
        "instances": view.n_instances,
        "holder_entries": view.holder_entries(),
        "seed": args.seed,
        "gen_seconds": gen_s,
        "scenarios": compiled.len(),
        "strategies": strategies.len(),
        "naive_seconds": naive_s,
        "sweep_seconds": sweep_s,
        "speedup": speedup,
        "identical_output": identical,
        "frontier": frontier,
    });
    // The fused pass places each author once per strategy instead of once
    // per cell; with 5 scenarios sharing each placement the collapse is
    // structural, so a conservative floor holds even at smoke scale.
    let gates = vec![("identical", identical), ("speedup_2x", speedup >= 2.0)];
    (record, gates)
}
