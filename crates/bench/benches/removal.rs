//! Criterion benches for the §5.1 removal-sweep engine: incremental vs.
//! naive iterative attack, the ranked reverse sweep, and the parallel
//! figure fan-out. `bench graph` runs the same comparison on tier worlds
//! and records the speedup trajectory in `BENCH_graph.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use fediscope_bench::{bench_observatory, bench_user_graph};
use fediscope_core::graphs;
use fediscope_graph::removal::{RankBy, RemovalSweep};
use fediscope_graph::DiGraph;
use std::sync::OnceLock;

/// 20k-node / ~200k-edge power-law graph: large enough that the asymptotic
/// win shows, small enough for a criterion loop.
fn graph() -> &'static DiGraph {
    static G: OnceLock<DiGraph> = OnceLock::new();
    G.get_or_init(|| bench_user_graph(20_000, 10.0, 42))
}

fn bench_iterative_incremental(c: &mut Criterion) {
    let g = graph();
    let mut grp = c.benchmark_group("removal_iterative");
    grp.sample_size(10);
    grp.bench_function("incremental_25_rounds", |b| {
        b.iter(|| RemovalSweep::new(g).iterative_fraction(0.01, 25, RankBy::DegreeIterative))
    });
    grp.bench_function("naive_25_rounds", |b| {
        b.iter(|| {
            RemovalSweep::new(g).iterative_fraction_naive(0.01, 25, RankBy::DegreeIterative)
        })
    });
    grp.finish();
}

fn bench_random_baseline(c: &mut Criterion) {
    let g = graph();
    let mut grp = c.benchmark_group("removal_random");
    grp.sample_size(10);
    grp.bench_function("incremental_25_rounds", |b| {
        b.iter(|| RemovalSweep::new(g).iterative_fraction(0.01, 25, RankBy::Random { seed: 7 }))
    });
    grp.finish();
}

fn bench_ranked_reverse(c: &mut Criterion) {
    let g = graph();
    let order: Vec<u32> = (0..g.node_count() as u32).collect();
    let checkpoints: Vec<usize> = (0..=100).map(|i| i * g.node_count() / 100).collect();
    let mut grp = c.benchmark_group("removal_ranked");
    grp.sample_size(10);
    grp.bench_function("reverse_sweep_100_checkpoints", |b| {
        b.iter(|| RemovalSweep::new(g).ranked(&order, &checkpoints))
    });
    grp.finish();
}

fn bench_parallel_figures(c: &mut Criterion) {
    let obs = bench_observatory(42);
    let mut grp = c.benchmark_group("parallel_fanout");
    grp.sample_size(10);
    grp.bench_function("fig12_join", |b| {
        b.iter(|| graphs::fig12_user_removal(&obs, 10))
    });
    grp.bench_function("fig13_four_way", |b| {
        b.iter(|| graphs::fig13_federation_removal(&obs, 80, 20))
    });
    grp.bench_function("fig12_random_baseline_8_trials", |b| {
        b.iter(|| graphs::fig12_random_baseline(&obs, 10, 8, 99))
    });
    grp.finish();
}

criterion_group!(
    removal,
    bench_iterative_incremental,
    bench_random_baseline,
    bench_ranked_reverse,
    bench_parallel_figures,
);
criterion_main!(removal);
