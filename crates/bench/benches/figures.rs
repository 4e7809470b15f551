//! One Criterion bench per table and figure of the paper (§4's Figs. 7, 8,
//! 10 and Table 1 share one sweep, so one bench): each bench runs the full
//! analysis that regenerates the artefact, so this file doubles as the
//! performance regression net for every substrate the analyses touch.

use criterion::{criterion_group, criterion_main, Criterion};
use fediscope_bench::bench_observatory;
use fediscope_core::{availability, content, graphs, population, Observatory};
use std::sync::OnceLock;

fn obs() -> &'static Observatory {
    static OBS: OnceLock<Observatory> = OnceLock::new();
    OBS.get_or_init(|| bench_observatory(42))
}

fn bench_fig01(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig01_growth", |b| {
        b.iter(|| population::fig01_growth(o, 1))
    });
}

fn bench_fig02(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig02_open_closed", |b| {
        b.iter(|| population::fig02_open_closed(o))
    });
}

fn bench_fig03(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig03_categories", |b| {
        b.iter(|| population::fig03_categories(o))
    });
}

fn bench_fig04(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig04_policies", |b| {
        b.iter(|| population::fig04_policies(o))
    });
}

fn bench_fig05(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig05_hosting", |b| {
        b.iter(|| population::fig05_hosting(o))
    });
}

fn bench_fig06(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig06_country_links", |b| {
        b.iter(|| population::fig06_country_links(o))
    });
}

fn bench_section4(c: &mut Criterion) {
    let o = obs();
    c.bench_function("section4_sweep", |b| {
        b.iter(|| availability::section4_sweep(o, 3))
    });
}

fn bench_fig09(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig09_certificates", |b| {
        b.iter(|| availability::fig09_certificates(o))
    });
}

fn bench_fig11(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig11_degrees", |b| b.iter(|| graphs::fig11_degrees(o)));
}

fn bench_table2(c: &mut Criterion) {
    let o = obs();
    c.bench_function("table2_top_instances", |b| {
        b.iter(|| graphs::table2_top_instances(o))
    });
}

fn bench_fig12(c: &mut Criterion) {
    let o = obs();
    let mut g = c.benchmark_group("fig12_user_removal");
    g.sample_size(10);
    g.bench_function("10_rounds", |b| {
        b.iter(|| graphs::fig12_user_removal(o, 10))
    });
    g.finish();
}

fn bench_fig13(c: &mut Criterion) {
    let o = obs();
    let mut g = c.benchmark_group("fig13_federation_removal");
    g.sample_size(10);
    g.bench_function("sweep", |b| {
        b.iter(|| graphs::fig13_federation_removal(o, 80, 20))
    });
    g.finish();
}

fn bench_fig14(c: &mut Criterion) {
    let o = obs();
    c.bench_function("fig14_remote_ratio", |b| {
        b.iter(|| content::fig14_remote_ratio(o))
    });
}

fn bench_fig15(c: &mut Criterion) {
    let o = obs();
    let mut g = c.benchmark_group("fig15_replication");
    g.sample_size(10);
    g.bench_function("curves", |b| {
        b.iter(|| content::fig15_replication(o, 30, 20))
    });
    g.finish();
}

fn bench_fig16(c: &mut Criterion) {
    let o = obs();
    let mut g = c.benchmark_group("fig16_random_replication");
    g.sample_size(10);
    g.bench_function("curves", |b| {
        b.iter(|| content::fig16_random_replication(o, 25))
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig01,
    bench_fig02,
    bench_fig03,
    bench_fig04,
    bench_fig05,
    bench_fig06,
    bench_section4,
    bench_fig09,
    bench_fig11,
    bench_table2,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_fig15,
    bench_fig16,
);
criterion_main!(figures);
