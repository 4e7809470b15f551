//! Full-pipeline integration test: generate → serve on the executor's
//! in-memory transport → measure with the crawler → analyse — and verify
//! the measurement recovers the ground truth that the direct analyses see.

use fediscope::crawler::discovery::SeedList;
use fediscope::crawler::monitor::InstanceMonitor;
use fediscope::crawler::politeness::Politeness;
use fediscope::crawler::toots;
use fediscope::httpwire::Client;
use fediscope::model::datasets::InstancesDataset;
use fediscope::model::time::Epoch;
use fediscope::model::world::World;
use fediscope::monitor::observe::schedule_from_polls;
use fediscope::monitor::{arena_from_polls_with_coverage, MonitorSweep, SweepConfig};
use fediscope::prelude::*;
use fediscope::simnet::{launch, FaultPlan, TimelineIndex};
use std::sync::Arc;

fn pipeline_world(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::tiny(seed);
    cfg.n_instances = 15;
    cfg.n_users = 300;
    cfg.toots_per_user_open = 6.0;
    cfg.toots_per_user_closed = 10.0;
    cfg
}

#[tokio::test]
async fn crawled_dataset_matches_direct_analysis() {
    let world = Arc::new(Generator::generate_world(pipeline_world(1001)));
    let net = launch(world.clone(), FaultPlan::default(), 9)
        .await
        .unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());

    // crawl at an epoch where the world is maximally alive
    net.state.clock.set(Epoch(20_000));
    let dataset = toots::crawl_toots(&seeds, &Politeness::fast(), &Client::default()).await;

    // Every successfully crawled instance's count matches the ground-truth
    // public timeline *exactly*.
    let timelines = TimelineIndex::build_all(&world);
    for record in dataset.records.iter().filter(|r| r.crawled) {
        let tl = &timelines[record.instance.index()];
        assert_eq!(record.home_toots, tl.total_public);
    }
    // Coverage is partial but substantial (the paper's 62% phenomenon:
    // blocked instances + the downtime of the moment).
    let coverage = dataset.coverage(world.total_toots());
    assert!(coverage > 0.1, "coverage {coverage}");
    net.shutdown().await;
}

#[tokio::test]
async fn monitoring_reconstructs_outage_structure() {
    let world = Arc::new(Generator::generate_world(pipeline_world(1002)));
    let net = launch(world.clone(), FaultPlan::default(), 9)
        .await
        .unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());
    let mut monitor = InstanceMonitor::new(seeds, Politeness::fast());

    // Poll densely across a slice of the window (every ~6 hours of virtual
    // time for the first 60 days).
    let mut epoch = 0u32;
    while epoch < 60 * 288 {
        net.state.clock.set(Epoch(epoch));
        monitor.poll_all(Epoch(epoch)).await;
        epoch += 72;
    }
    let dataset = monitor.into_dataset();

    // Reconstruct schedules from the polls and compare the *observed*
    // downtime against ground truth over the polled slice.
    for series in &dataset.series {
        let truth = &world.schedules[series.instance.index()];
        let Some(observed) = schedule_from_polls(series) else {
            continue;
        };
        // At 6-hour sampling the reconstruction can miss sub-sample blips,
        // so compare coarse downtime fractions.
        let polled: Vec<_> = series.polls.iter().collect();
        let truth_down =
            polled.iter().filter(|(e, _)| !truth.is_up(*e)).count() as f64 / polled.len() as f64;
        let obs_down = series.downtime_fraction().unwrap_or(0.0);
        assert!(
            (truth_down - obs_down).abs() < 1e-9,
            "poll-level downtime must match exactly for {}",
            series.instance
        );
        // and the reconstructed schedule agrees with the polls it came from.
        // Polls after the last observed "up" are excluded: a trailing down
        // run is (by documented semantics) read as retirement, not an
        // outage, so the schedule reports no coverage there.
        let last_up = series
            .polls
            .iter()
            .rev()
            .find(|(_, r)| r.is_up())
            .map(|(e, _)| *e);
        for (e, r) in &series.polls {
            if *e < observed.death_epoch() && Some(*e) <= last_up {
                assert_eq!(
                    observed.is_up(*e),
                    r.is_up(),
                    "reconstruction disagrees at epoch {}",
                    e.0
                );
            }
        }
    }
    net.shutdown().await;
}

/// One full monitoring campaign over `world` behind a fault injector: a
/// sweep every 72 epochs (6 virtual hours) across the first 60 days.
async fn crawl_under(
    world: Arc<World>,
    plan: FaultPlan,
    injector_seed: u64,
    politeness: Politeness,
) -> InstancesDataset {
    let net = launch(world, plan, injector_seed).await.unwrap();
    let seeds = SeedList::for_simnet(&net.state.world, net.addr());
    let mut monitor = InstanceMonitor::new(seeds, politeness);
    let mut epoch = 0u32;
    while epoch < 60 * 288 {
        net.state.clock.set(Epoch(epoch));
        monitor.poll_all(Epoch(epoch)).await;
        epoch += 72;
    }
    let dataset = monitor.into_dataset();
    net.shutdown().await;
    dataset
}

/// The §4 knobs used by the fault-injection pipeline tests (threshold
/// lowered to suit a 15-instance world).
fn pipeline_sweep_cfg() -> SweepConfig {
    SweepConfig {
        min_as_instances: 3,
    }
}

/// The headline robustness claim: every fault [`FaultPlan::flaky`] draws is
/// recoverable, and the retry engine recovers all of them — the crawl
/// through the flaky injector produces a dataset *bit-identical* to the
/// fault-free crawl, so the reconstructed arena and the whole §4 figure
/// bundle come out identical too. (The fault-free crawl itself is pinned to
/// ground truth by `monitoring_reconstructs_outage_structure` above.)
#[tokio::test]
async fn flaky_crawl_recovers_section4_figures_bit_identical() {
    let world = Arc::new(Generator::generate_world(pipeline_world(2001)));
    let clean = crawl_under(
        world.clone(),
        FaultPlan::default(),
        21,
        Politeness::hostile(),
    )
    .await;
    let flaky = crawl_under(world.clone(), FaultPlan::flaky(), 21, Politeness::hostile()).await;

    assert_eq!(
        clean, flaky,
        "retries must erase every recoverable fault from the transcript"
    );

    let (arena_clean, cov_clean) = arena_from_polls_with_coverage(&clean.series);
    let (arena_flaky, cov_flaky) = arena_from_polls_with_coverage(&flaky.series);
    assert!(cov_flaky.complete(), "flaky crawl left gaps: {cov_flaky:?}");
    assert_eq!(cov_clean, cov_flaky);

    let cfg = pipeline_sweep_cfg();
    let out_clean = MonitorSweep::new(&arena_clean, &world.instances).run(&world.providers, &cfg);
    let out_flaky = MonitorSweep::new(&arena_flaky, &world.instances).run(&world.providers, &cfg);
    assert_eq!(out_clean, out_flaky, "§4 figures must be bit-identical");
}

/// Beyond-recovery faults ([`FaultPlan::harsh`] adds permanent mid-crawl
/// instance death and per-epoch budgets): the crawl degrades *gracefully* —
/// the polls it does land agree exactly with the fault-free crawl, the
/// coverage report owns up to every gap, and the §4 sweep still runs on
/// what was observed.
#[tokio::test]
async fn harsh_crawl_degrades_gracefully_with_honest_coverage() {
    let world = Arc::new(Generator::generate_world(pipeline_world(2002)));
    let clean = crawl_under(
        world.clone(),
        FaultPlan::default(),
        33,
        Politeness::hostile(),
    )
    .await;
    let harsh = crawl_under(world.clone(), FaultPlan::harsh(), 33, Politeness::hostile()).await;

    // Faults only ever punch gaps; they never fabricate observations.
    for (cs, hs) in clean.series.iter().zip(&harsh.series) {
        assert_eq!(cs.polls.len(), hs.polls.len());
        for ((ce, cr), (he, hr)) in cs.polls.iter().zip(&hs.polls) {
            assert_eq!(ce, he);
            if hr.is_known() {
                assert_eq!(cr, hr, "instance {} epoch {}", hs.instance, he.0);
            }
        }
    }

    let (arena, cov) = arena_from_polls_with_coverage(&harsh.series);
    assert!(!cov.complete(), "harsh plan should punch gaps");
    assert_eq!(cov.known + cov.unknown, cov.polls);
    assert_eq!(
        cov.per_instance_unknown.iter().sum::<usize>(),
        cov.unknown,
        "per-instance gap counts must add up"
    );
    // The documented coverage bound: even under the harsh plan the crawl
    // observes the overwhelming majority of polls.
    assert!(
        cov.known_fraction() > 0.8,
        "known fraction {}",
        cov.known_fraction()
    );
    // What was observed still analyses: the sweep runs on the gap-tolerant
    // reconstruction without panicking or degenerating.
    let cfg = pipeline_sweep_cfg();
    let out = MonitorSweep::new(&arena, &world.instances).run(&world.providers, &cfg);
    assert!(!out.downtime.fraction.is_empty());
}

/// Same seed ⇒ same crawl transcript, at any fault plan: two *fresh*
/// executors (separate `Runtime` instances, separate listeners, separate
/// injectors) replay byte-for-byte identical campaigns.
#[test]
fn same_seed_replays_identical_transcript_at_any_fault_plan() {
    let run = |plan: FaultPlan| {
        let rt = tokio::runtime::Runtime::new().unwrap();
        rt.block_on(async {
            let world = Arc::new(Generator::generate_world(pipeline_world(2003)));
            crawl_under(world, plan, 77, Politeness::hostile()).await
        })
    };
    for plan in [FaultPlan::default(), FaultPlan::flaky(), FaultPlan::harsh()] {
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b, "two fresh runtimes diverged");
    }
}

#[test]
fn direct_analyses_pass_verdicts() {
    let world = Generator::generate_world(WorldConfig::small(42));
    let report = fediscope::core::Report::compute(&fediscope::core::Observatory::new(world), true);
    let verdicts = fediscope::core::verdicts::evaluate(&report);
    let failures: Vec<&str> = verdicts.iter().filter(|v| !v.pass).map(|v| v.id).collect();
    assert!(failures.is_empty(), "failed: {failures:?}");
}
