//! `bench_graph` — pin the incremental resilience engine's speedups and
//! record trajectory points in `BENCH_graph.json` (one JSON object per
//! line, appended — the file is a history, not a snapshot).
//!
//! ```text
//! bench_graph [--quick] [--seed N] [--out PATH] [--tier paper2019|mid|modern]
//!             [--threads N]
//! ```
//!
//! `--threads N` pins the `par` worker budget (`par::set_thread_override`)
//! and is recorded in every JSON line (`"threads"`, plus `"cores"` = what
//! the machine actually offers). The budget drives sweep-level fan-out —
//! independent sweeps, Monte-Carlo trials, per-boundary SCC passes — while
//! each sweep's reverse union-find pass runs serially. The attack sweeps
//! timed here count no SCCs, so they fan nothing out: the setting should
//! not move their wall clock, and their output must match the naive
//! reference at any value.
//!
//! Without `--tier`, full mode builds a ~100k-node / ~1M-edge power-law
//! follower graph through the worldgen pipeline and runs the Fig. 12
//! attack (100 rounds of 1% top-degree removals) twice — unweighted and
//! with integer node weights — comparing the incremental engine against
//! the naive reference. Output must be identical and each speedup at
//! least 5x.
//!
//! With `--tier`, the named [`ScaleTier`] world's follower graph is
//! generated through the streaming pipeline (the `modern` tier stands up
//! ~30K instances and a 1M-account graph) and the same comparison is
//! recorded as that tier's datapoint.
//!
//! `--quick` shrinks the scale and round count for CI smoke runs (the
//! identity check still holds; the speedup floors are not enforced).

use fediscope_bench::{bench_user_graph, tier_user_graph};
use fediscope_graph::par;
use fediscope_graph::removal::{RankBy, RemovalSweep};
use fediscope_graph::DiGraph;
use fediscope_worldgen::ScaleTier;
use std::time::Instant;

struct Args {
    quick: bool,
    seed: u64,
    out: String,
    tier: Option<ScaleTier>,
    threads: Option<usize>,
}

fn parse_args() -> Args {
    let mut a = Args {
        quick: false,
        seed: 42,
        out: "BENCH_graph.json".to_string(),
        tier: None,
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => a.quick = true,
            "--seed" => {
                a.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number")
            }
            "--out" => a.out = it.next().expect("--out needs a path"),
            "--tier" => {
                let name = it.next().expect("--tier needs a name");
                a.tier = Some(
                    ScaleTier::parse(&name)
                        .unwrap_or_else(|| panic!("unknown tier {name:?} (paper2019|mid|modern)")),
                );
            }
            "--threads" => {
                let t: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
                assert!(t >= 1, "--threads must be at least 1");
                a.threads = Some(t);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_graph [--quick] [--seed N] [--out PATH] \
                     [--tier paper2019|mid|modern] [--threads N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    a
}

/// Deterministic integer-valued node weights (user-count-like): integer
/// weights make float summation order unobservable, so the engines must
/// agree bit-for-bit.
fn synthetic_weights(n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|v| (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as f64 + 1.0)
        .collect()
}

/// Best-of-`trials` wall time of `f`, in seconds.
fn time(trials: usize, f: &dyn Fn()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct EngineComparison {
    naive_s: f64,
    incremental_s: f64,
    speedup: f64,
    identical: bool,
}

/// Run fast + naive engines, compare their output, time both. A
/// divergence is *recorded* (`identical_output: false` in the JSON line —
/// which CI greps for) rather than panicking, so the datapoint lands in
/// the trajectory either way; main exits non-zero afterwards.
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
    let incremental_s = time(trials, &|| {
        sweep.iterative_fraction(0.01, steps, RankBy::DegreeIterative);
    });
    let naive_s = time(trials, &|| {
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

/// Append one JSON line to the trajectory file (and echo it to stdout).
/// Delegates to [`fediscope_bench::record_line`], which rewrites the file
/// via temp-then-rename so a mid-record kill can't tear the history.
fn record(out: &str, json: &str) {
    fediscope_bench::record_line(out, json);
}

fn main() {
    let args = parse_args();
    par::set_thread_override(args.threads);
    let threads = par::thread_budget();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "par budget: {threads} threads for sweep-level fan-out (machine offers {cores}); \
         each reverse pass is serial"
    );
    let mode = if args.quick { "quick" } else { "full" };
    let (steps, trials) = if args.quick { (25, 2) } else { (100, 3) };

    let (g, gen_s, tier_name): (DiGraph, f64, Option<&'static str>) = match args.tier {
        Some(tier) => {
            eprintln!(
                "generating {tier} tier world ({} instances, {} users) …",
                tier.n_instances(),
                tier.n_users()
            );
            let t0 = Instant::now();
            let g = tier_user_graph(tier, args.seed);
            (g, t0.elapsed().as_secs_f64(), Some(tier.name()))
        }
        None => {
            let n_users = if args.quick { 20_000 } else { 100_000 };
            eprintln!("generating power-law graph ({n_users} users) via worldgen …");
            let t0 = Instant::now();
            // The generator's realised mean degree lands well under the
            // configured value after parallel-edge dedup; 28 yields ~1M
            // edges at 100k users.
            let g = bench_user_graph(n_users, 28.0, args.seed);
            (g, t0.elapsed().as_secs_f64(), None)
        }
    };
    eprintln!(
        "graph ready in {gen_s:.1}s: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );

    let sweep = RemovalSweep::new(&g);
    let plain = compare_engines(&sweep, steps, trials, "unweighted");

    let weights = synthetic_weights(g.node_count());
    let weighted_sweep = RemovalSweep::new(&g).with_weights(&weights);
    let weighted = compare_engines(&weighted_sweep, steps, trials, "weighted");

    match tier_name {
        Some(tier) => record(
            &args.out,
            &format!(
                "{{\"bench\":\"fig12_tier\",\"tier\":\"{tier}\",\"mode\":\"{mode}\",\
                 \"threads\":{threads},\"cores\":{cores},\
                 \"nodes\":{nodes},\"edges\":{edges},\"steps\":{steps},\
                 \"frac_per_round\":0.01,\"seed\":{seed},\"gen_seconds\":{gen_s:.3},\
                 \"naive_seconds\":{pn:.6},\"incremental_seconds\":{pi:.6},\
                 \"speedup\":{ps:.2},\"weighted_naive_seconds\":{wn:.6},\
                 \"weighted_incremental_seconds\":{wi:.6},\"weighted_speedup\":{ws:.2},\
                 \"identical_output\":{ident}}}",
                nodes = g.node_count(),
                edges = g.edge_count(),
                seed = args.seed,
                pn = plain.naive_s,
                pi = plain.incremental_s,
                ps = plain.speedup,
                wn = weighted.naive_s,
                wi = weighted.incremental_s,
                ws = weighted.speedup,
                ident = plain.identical && weighted.identical,
            ),
        ),
        None => {
            for (name, cmp) in [
                ("removal_sweep_iterative", &plain),
                ("removal_sweep_iterative_weighted", &weighted),
            ] {
                record(
                    &args.out,
                    &format!(
                        "{{\"bench\":\"{name}\",\"mode\":\"{mode}\",\
                         \"threads\":{threads},\"cores\":{cores},\
                         \"nodes\":{nodes},\"edges\":{edges},\"steps\":{steps},\
                         \"frac_per_round\":0.01,\"seed\":{seed},\
                         \"naive_seconds\":{n:.6},\"incremental_seconds\":{i:.6},\
                         \"speedup\":{s:.2},\"identical_output\":{ident}}}",
                        nodes = g.node_count(),
                        edges = g.edge_count(),
                        seed = args.seed,
                        n = cmp.naive_s,
                        i = cmp.incremental_s,
                        s = cmp.speedup,
                        ident = cmp.identical,
                    ),
                );
            }
        }
    }

    let mut fail = false;
    // Divergence fails in every mode; the speedup floor only in full mode.
    for (label, cmp) in [("unweighted", &plain), ("weighted", &weighted)] {
        if !cmp.identical {
            eprintln!("FAIL: {label} output diverged from the naive reference");
            fail = true;
        }
        if !args.quick && cmp.speedup < 5.0 {
            eprintln!(
                "FAIL: {label} speedup {:.1}x below the 5x acceptance floor",
                cmp.speedup
            );
            fail = true;
        }
    }
    if fail {
        std::process::exit(1);
    }
}
