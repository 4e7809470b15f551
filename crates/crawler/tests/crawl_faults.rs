//! Property tests for the crawl-under-faults differential: crawling through
//! the deterministic net stack is (a) a pure function of its seeds — two
//! fresh executors replay byte-identical transcripts at any fault plan —
//! and (b) lossless whenever every drawn fault is recoverable — the faulted
//! transcript equals the fault-free one, because the retry engine absorbs
//! transient 500s, resets, rate limits, and delays before they can reach
//! the dataset.

use fediscope_crawler::discovery::SeedList;
use fediscope_crawler::monitor::InstanceMonitor;
use fediscope_crawler::politeness::Politeness;
use fediscope_crawler::toots::crawl_toots;
use fediscope_httpwire::Client;
use fediscope_model::datasets::InstancesDataset;
use fediscope_model::time::Epoch;
use fediscope_model::world::World;
use fediscope_simnet::{launch, FaultPlan};
use fediscope_worldgen::{Generator, WorldConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A world small enough to crawl hundreds of times in one test run.
fn tiny_world(seed: u64) -> Arc<World> {
    sized_world(seed, 6, 80)
}

/// The tiny world's config at another size.
fn sized_world(seed: u64, n_instances: usize, n_users: usize) -> Arc<World> {
    let mut cfg = WorldConfig::tiny(seed);
    cfg.n_instances = n_instances;
    cfg.n_users = n_users;
    cfg.toots_per_user_open = 4.0;
    cfg.toots_per_user_closed = 6.0;
    Arc::new(Generator::generate_world(cfg))
}

/// One short monitoring campaign (18 sweeps over 6 virtual days) on a
/// fresh executor, so every call is a from-scratch replay.
fn crawl(world: Arc<World>, plan: FaultPlan, injector_seed: u64) -> InstancesDataset {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async move {
        let net = launch(world, plan, injector_seed).await.unwrap();
        let seeds = SeedList::for_simnet(&net.state.world, net.addr());
        let mut monitor = InstanceMonitor::new(seeds, Politeness::hostile());
        let mut epoch = 0u32;
        while epoch < 6 * 288 {
            net.state.clock.set(Epoch(epoch));
            monitor.poll_all(Epoch(epoch)).await;
            epoch += 96;
        }
        let dataset = monitor.into_dataset();
        net.shutdown().await;
        dataset
    })
}

proptest! {
    /// Random worlds × random recoverable fault plans × random seeds: the
    /// crawl replays identically on a second fresh executor, and equals
    /// the fault-free crawl of the same world (all drawn fault kinds are
    /// transient and within the hostile retry budget).
    #[test]
    fn crawl_is_deterministic_and_recoverable_faults_are_invisible(
        world_seed in 0u64..1_000,
        injector_seed in 0u64..1_000,
        error_prob in 0.0f64..0.12,
        delay_prob in 0.0f64..0.15,
        reset_prob in 0.0f64..0.02,
        rate_limit_prob in 0.0f64..0.02,
    ) {
        let plan = FaultPlan {
            error_prob,
            delay_prob,
            reset_prob,
            rate_limit_prob,
            ..FaultPlan::default()
        };
        let world = tiny_world(world_seed);
        let a = crawl(world.clone(), plan.clone(), injector_seed);
        let b = crawl(world.clone(), plan, injector_seed);
        prop_assert_eq!(&a, &b, "same seeds diverged across fresh executors");
        let clean = crawl(world, FaultPlan::default(), injector_seed);
        prop_assert_eq!(&a, &clean, "recoverable faults leaked into the dataset");
    }

    /// Unrecoverable plans (instance death, persistent exhaustion) still
    /// replay deterministically — robustness never costs reproducibility.
    #[test]
    fn harsh_crawls_replay_identically(
        world_seed in 0u64..1_000,
        injector_seed in 0u64..1_000,
    ) {
        let world = tiny_world(world_seed);
        let a = crawl(world.clone(), FaultPlan::harsh(), injector_seed);
        let b = crawl(world, FaultPlan::harsh(), injector_seed);
        prop_assert_eq!(&a, &b, "harsh crawl diverged across fresh executors");
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the executor's schedule, not just its self-consistency: one fixed
/// flaky campaign plus a timeline crawl must end at the recorded virtual
/// instant, after the recorded number of fault decisions, with the recorded
/// datasets. Every other determinism test compares a build with itself, so
/// a change that reorders wakes (and so which request draws which fault)
/// would pass them all. The world has 40 instances, more than the 16 polls
/// the hostile politeness admits at once: on the six-instance world every
/// poll is in flight together, and reversed wake, spawn or same-deadline
/// timer order left all three constants unchanged, while here each of
/// them moves the clock.
#[test]
fn flaky_campaign_schedule_is_pinned() {
    let world = sized_world(3, 40, 300);
    let rt = tokio::runtime::Runtime::new().unwrap();
    let (now, decisions, text) = rt.block_on(async move {
        let net = launch(world, FaultPlan::flaky(), 11).await.unwrap();
        let seeds = SeedList::for_simnet(&net.state.world, net.addr());
        let politeness = Politeness::hostile();
        let mut monitor = InstanceMonitor::new(seeds.clone(), politeness.clone());
        let mut epoch = 0u32;
        while epoch < 6 * 288 {
            net.state.clock.set(Epoch(epoch));
            monitor.poll_all(Epoch(epoch)).await;
            epoch += 96;
        }
        let toots = crawl_toots(&seeds, &politeness, &Client::default()).await;
        let now = tokio::time::now_nanos();
        let decisions = net.state.faults.export_state().counter;
        let text = format!("{:?}", (monitor.into_dataset(), toots));
        net.shutdown().await;
        (now, decisions, text)
    });
    assert_eq!(now, 7_171_000_547, "virtual clock at the end of the crawl");
    assert_eq!(decisions, 808, "fault decisions drawn");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x588f_39ed_be98_253b,
        "dataset digest"
    );
}
