//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - **DHT index cost** (the paper assumes a global index exists; this
//!   measures what lookups would cost at various ring sizes),
//! - **replication strategies head-to-head** (No-Rep vs S-Rep vs Random(n)
//!   vs the capacity-weighted extension),
//! - **world generation** (the substitution substrate itself),
//! - **homophily ablation**: how the country-link structure (Fig. 6) shifts
//!   when the homophily knob is turned off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fediscope_bench::bench_observatory;
use fediscope_core::{population, Metric, Observatory};
use fediscope_replication::eval::{availability_curve, singleton_groups, Strategy};
use fediscope_replication::weighted::weighted_random_curve;
use fediscope_replication::HashRing;
use fediscope_worldgen::{Generator, WorldConfig};
use std::sync::OnceLock;

fn obs() -> &'static Observatory {
    static OBS: OnceLock<Observatory> = OnceLock::new();
    OBS.get_or_init(|| bench_observatory(42))
}

fn bench_ablation_dht(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dht_lookup");
    for ring_size in [100u32, 1_000, 4_328] {
        let ring = HashRing::new(0..ring_size, 32);
        g.bench_with_input(BenchmarkId::from_parameter(ring_size), &ring, |b, ring| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                ring.lookup(key, 3)
            })
        });
    }
    g.finish();
}

fn bench_ablation_strategies(c: &mut Criterion) {
    let o = obs();
    let view = o.content_view();
    let mut order = o.instance_order(Metric::Toots);
    order.truncate(25);
    let groups = singleton_groups(&order);
    let mut g = c.benchmark_group("ablation_strategies");
    g.sample_size(10);
    g.bench_function("no_replication", |b| {
        b.iter(|| availability_curve(view, Strategy::NoReplication, &groups))
    });
    g.bench_function("subscription", |b| {
        b.iter(|| availability_curve(view, Strategy::Subscription, &groups))
    });
    g.bench_function("random_n3_expectation", |b| {
        b.iter(|| availability_curve(view, Strategy::Random { n: 3 }, &groups))
    });
    let capacities: Vec<f64> = o
        .toots_per_instance
        .iter()
        .map(|&t| (t as f64).max(1.0))
        .collect();
    g.bench_function("weighted_random_n3_mc", |b| {
        b.iter(|| weighted_random_curve(view, &capacities, 3, &groups, 8, 7))
    });
    g.finish();
}

fn bench_ablation_worldgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_worldgen");
    g.sample_size(10);
    g.bench_function("tiny", |b| {
        b.iter(|| Generator::generate_world(WorldConfig::tiny(1)))
    });
    g.bench_function("small", |b| {
        b.iter(|| Generator::generate_world(WorldConfig::small(1)))
    });
    g.finish();
}

fn bench_ablation_homophily(c: &mut Criterion) {
    // Regenerate a small world with homophily off and compare the Fig. 6
    // same-country share; the bench times the full pipeline per variant.
    let mut g = c.benchmark_group("ablation_homophily");
    g.sample_size(10);
    for (label, p_country) in [("homophily_on", 0.40), ("homophily_off", 0.0)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = WorldConfig::tiny(7);
                cfg.p_follow_same_country = p_country;
                let obs = Observatory::new(Generator::generate_world(cfg));
                population::fig06_country_links(&obs).same_country_share
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_ablation_dht,
    bench_ablation_strategies,
    bench_ablation_worldgen,
    bench_ablation_homophily,
);
criterion_main!(ablations);
