//! `bench graph` — §5.1 user removal: the incremental resilience engine
//! against the naive reference, recorded as `fig12_tier` in
//! `BENCH_graph.json`.
//!
//! The tier world's follower graph is streamed into CSR form and the
//! Fig. 12 attack (rounds of 1% top-degree removals: 100 in full mode, 25
//! under `--quick`) runs twice — unweighted and with integer node weights.
//! Output must match the naive reference in every mode; full mode also
//! requires each speedup to reach 5x.
//!
//! The `par` budget drives sweep-level fan-out — independent sweeps,
//! Monte-Carlo trials, per-boundary SCC passes — while each sweep's
//! reverse union-find pass runs serially. The attack sweeps timed here
//! count no SCCs, so they fan nothing out: the setting should not move
//! their wall clock, and their output must match the naive reference at
//! any value.

use crate::{best_of, cores, BenchArgs, Run};
use fediscope_bench::streamed_user_graph;
use fediscope_graph::par;
use fediscope_graph::removal::{RankBy, RemovalSweep};
use serde_json::json;
use std::time::Instant;

/// Deterministic integer-valued node weights (user-count-like): integer
/// weights make float summation order unobservable, so the engines must
/// agree bit-for-bit.
fn synthetic_weights(n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|v| (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as f64 + 1.0)
        .collect()
}

struct EngineComparison {
    naive_s: f64,
    incremental_s: f64,
    speedup: f64,
    identical: bool,
}

/// Run fast + naive engines, compare their output, time both. A
/// divergence is *recorded* rather than panicking, so the datapoint lands
/// in the trajectory either way and the harness fails the gate afterwards.
fn compare_engines(
    sweep: &RemovalSweep<'_>,
    steps: usize,
    trials: usize,
    label: &str,
) -> EngineComparison {
    let fast = sweep.iterative_fraction(0.01, steps, RankBy::DegreeIterative);
    let naive = sweep.iterative_fraction_naive(0.01, steps, RankBy::DegreeIterative);
    let identical = fast == naive;
    if identical {
        eprintln!(
            "{label}: identity check passed ({} points, final LCC {:.2}%)",
            fast.len(),
            fast.last().map(|p| p.lcc_node_frac * 100.0).unwrap_or(0.0)
        );
    } else {
        eprintln!("{label}: FAIL — incremental sweep diverged from the naive reference");
    }
    let incremental_s = best_of(trials, || {
        sweep.iterative_fraction(0.01, steps, RankBy::DegreeIterative);
    });
    let naive_s = best_of(trials, || {
        sweep.iterative_fraction_naive(0.01, steps, RankBy::DegreeIterative);
    });
    let speedup = naive_s / incremental_s;
    eprintln!("{label}: incremental {incremental_s:.3}s, naive {naive_s:.3}s ({speedup:.1}x)");
    EngineComparison {
        naive_s,
        incremental_s,
        speedup,
        identical,
    }
}

pub(crate) fn run(args: &BenchArgs) -> Run {
    let (steps, trials) = if args.quick { (25, 2) } else { (100, 3) };
    let cfg = args.world();
    eprintln!(
        "streaming the {} world's follower graph ({} users) …",
        args.tier, cfg.n_users
    );
    let t0 = Instant::now();
    let g = streamed_user_graph(&cfg);
    let gen_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "graph ready in {gen_s:.1}s: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );

    let plain = compare_engines(&RemovalSweep::new(&g), steps, trials, "unweighted");
    let weights = synthetic_weights(g.node_count());
    let weighted_sweep = RemovalSweep::new(&g).with_weights(&weights);
    let weighted = compare_engines(&weighted_sweep, steps, trials, "weighted");

    let record = json!({
        "bench": "fig12_tier",
        "tier": args.tier.name(),
        "mode": args.mode(),
        "threads": par::thread_budget(),
        "cores": cores(),
        "nodes": g.node_count(),
        "edges": g.edge_count(),
        "steps": steps,
        "frac_per_round": 0.01,
        "seed": args.seed,
        "gen_seconds": gen_s,
        "naive_seconds": plain.naive_s,
        "incremental_seconds": plain.incremental_s,
        "speedup": plain.speedup,
        "weighted_naive_seconds": weighted.naive_s,
        "weighted_incremental_seconds": weighted.incremental_s,
        "weighted_speedup": weighted.speedup,
        "identical_output": plain.identical && weighted.identical,
    });
    let mut gates = vec![
        ("identical", plain.identical),
        ("weighted_identical", weighted.identical),
    ];
    // Divergence fails in every mode; the speedup floor only in full mode.
    if !args.quick {
        gates.push(("speedup_5x", plain.speedup >= 5.0));
        gates.push(("weighted_speedup_5x", weighted.speedup >= 5.0));
    }
    (record, gates)
}
