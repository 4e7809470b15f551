//! End-to-end crawler tests against a live simulated fediverse: the crawler
//! must recover the ground truth over HTTP on the executor's in-memory
//! transport.

use fediscope_crawler::discovery::SeedList;
use fediscope_crawler::monitor::InstanceMonitor;
use fediscope_crawler::politeness::Politeness;
use fediscope_crawler::{followers, toots};
use fediscope_httpwire::Client;
use fediscope_model::datasets::PollResult;
use fediscope_model::schedule::AvailabilitySchedule;
use fediscope_model::time::Epoch;
use fediscope_model::world::World;
use fediscope_simnet::{launch, FaultPlan, TimelineIndex};
use fediscope_worldgen::{Generator, WorldConfig};
use std::sync::Arc;

fn tiny_world(seed: u64, always_up: bool) -> World {
    let mut cfg = WorldConfig::tiny(seed);
    cfg.n_instances = 10;
    cfg.n_users = 200;
    // keep toot volumes small so the crawl is quick
    cfg.toots_per_user_open = 8.0;
    cfg.toots_per_user_closed = 15.0;
    let mut world = Generator::generate_world(cfg);
    if always_up {
        for s in &mut world.schedules {
            *s = AvailabilitySchedule::always_up();
        }
    }
    world
}

#[tokio::test]
async fn monitor_matches_ground_truth_availability() {
    let world = Arc::new(tiny_world(101, false));
    let net = launch(world.clone(), FaultPlan::default(), 5)
        .await
        .unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());
    let mut monitor = InstanceMonitor::new(seeds, Politeness::fast());

    let sample_epochs = [0u32, 30_000, 60_000, 100_000, 135_000];
    for &e in &sample_epochs {
        net.state.clock.set(Epoch(e));
        monitor.poll_all(Epoch(e)).await;
    }
    let dataset = monitor.into_dataset();
    assert_eq!(dataset.series.len(), world.instances.len());
    for series in &dataset.series {
        let sched = &world.schedules[series.instance.index()];
        for (epoch, result) in &series.polls {
            assert_eq!(
                result.is_up(),
                sched.is_up(*epoch),
                "instance {} at epoch {}",
                series.instance,
                epoch.0
            );
        }
    }
    net.shutdown().await;
}

#[tokio::test]
async fn monitor_payload_reflects_instance_metadata() {
    let world = Arc::new(tiny_world(102, true));
    let net = launch(world.clone(), FaultPlan::default(), 5)
        .await
        .unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());
    let mut monitor = InstanceMonitor::new(seeds, Politeness::fast());
    monitor.poll_all(Epoch(0)).await;
    let dataset = monitor.into_dataset();
    for series in &dataset.series {
        let inst = &world.instances[series.instance.index()];
        match &series.polls[0].1 {
            PollResult::Up(info) => {
                assert_eq!(info.name, inst.domain);
                assert_eq!(info.users, inst.user_count);
                assert_eq!(info.toots, inst.toot_count);
                assert_eq!(info.registration_open, inst.is_open());
            }
            other => panic!("always-up world reported {other:?}"),
        }
    }
    net.shutdown().await;
}

#[tokio::test]
async fn toot_crawl_recovers_public_toot_counts_exactly() {
    let world = Arc::new(tiny_world(103, true));
    let net = launch(world.clone(), FaultPlan::default(), 5)
        .await
        .unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());
    let dataset = toots::crawl_toots(&seeds, &Politeness::fast(), &Client::default()).await;

    let timelines = TimelineIndex::build_all(&world);
    for record in &dataset.records {
        let inst = &world.instances[record.instance.index()];
        let tl = &timelines[record.instance.index()];
        if inst.crawl_allowed {
            assert!(record.crawled, "instance {} should crawl", inst.domain);
            assert_eq!(
                record.home_toots, tl.total_public,
                "home toots of {}",
                inst.domain
            );
            // per-user counts match the public ground truth
            for &(user, count) in &record.user_toots {
                let expect = fediscope_simnet::timelines::public_toots_of(&world, user.index());
                assert_eq!(count as u64, expect, "user {user}");
            }
        } else {
            assert!(!record.crawled, "blocked instance {} crawled", inst.domain);
            assert_eq!(record.home_toots, 0);
        }
    }
    // coverage is partial, like the paper's 62%
    let coverage = dataset.coverage(world.total_toots());
    assert!(
        coverage > 0.2 && coverage < 1.0,
        "coverage {coverage} out of band"
    );
    net.shutdown().await;
}

#[tokio::test]
async fn toot_crawl_survives_fault_injection() {
    let world = Arc::new(tiny_world(104, true));
    let plan = FaultPlan {
        error_prob: 0.05,
        ..FaultPlan::default()
    };
    let net = launch(world.clone(), plan, 77).await.unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());
    let politeness = Politeness {
        retries: 6,
        ..Politeness::fast()
    };
    let dataset = toots::crawl_toots(&seeds, &politeness, &Client::default()).await;
    // With retries, counts still exact despite injected 500s.
    let timelines = TimelineIndex::build_all(&world);
    for record in &dataset.records {
        let inst = &world.instances[record.instance.index()];
        if inst.crawl_allowed {
            let tl = &timelines[record.instance.index()];
            assert_eq!(
                record.home_toots, tl.total_public,
                "faults corrupted crawl of {}",
                inst.domain
            );
        }
    }
    net.shutdown().await;
}

#[tokio::test]
async fn follower_scrape_recovers_ego_networks() {
    let world = Arc::new(tiny_world(105, true));
    let net = launch(world.clone(), FaultPlan::default(), 5)
        .await
        .unwrap();
    let seeds = SeedList::for_simnet(&world, net.addr());

    // scrape the ego networks of all tooting users (the paper's targets)
    let targets: Vec<_> = world
        .users
        .iter()
        .filter(|u| u.has_tooted())
        .map(|u| (u.id, u.instance))
        .collect();
    let dataset =
        followers::scrape_followers(&seeds, &targets, &Politeness::fast(), &Client::default())
            .await;

    // ground truth: every follow edge whose followee tooted
    let tooting: std::collections::HashSet<_> = targets.iter().map(|(u, _)| *u).collect();
    let mut expect: Vec<(fediscope_model::ids::UserId, fediscope_model::ids::UserId)> = world
        .follows
        .iter()
        .copied()
        .filter(|(_, b)| tooting.contains(b))
        .collect();
    expect.sort_unstable();
    expect.dedup();
    assert_eq!(dataset.follows, expect);
    // the induced account set includes non-tooting followers
    assert!(dataset.accounts.len() >= tooting.len());
    net.shutdown().await;
}
