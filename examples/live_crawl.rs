//! Live crawl: boot the simulated fediverse on an in-memory port and run
//! the real measurement toolkit against it — instance monitoring, toot
//! crawling and follower scraping over actual HTTP.
//!
//! ```sh
//! cargo run --release --example live_crawl
//! ```

use fediscope::crawler::discovery::SeedList;
use fediscope::crawler::monitor::InstanceMonitor;
use fediscope::crawler::politeness::Politeness;
use fediscope::crawler::{followers, toots};
use fediscope::httpwire::Client;
use fediscope::model::time::Epoch;
use fediscope::prelude::*;
use fediscope::simnet::{launch, FaultPlan};
use std::sync::Arc;

#[tokio::main]
async fn main() {
    // A small world so the crawl finishes in seconds; flaky network to show
    // the retry machinery doing its job.
    let mut cfg = WorldConfig::tiny(7);
    cfg.n_instances = 20;
    cfg.n_users = 400;
    cfg.toots_per_user_open = 10.0;
    cfg.toots_per_user_closed = 18.0;
    let world = Arc::new(Generator::generate_world(cfg));
    let net = launch(world.clone(), FaultPlan::flaky(), 1)
        .await
        .expect("simnet boots");
    println!("simulated fediverse listening on {}", net.addr());

    let seeds = SeedList::for_simnet(&world, net.addr());
    let politeness = Politeness {
        retries: 5,
        ..Politeness::fast()
    };

    // --- 1. one monitoring sweep (the mnm.social 5-minute poll) ----------
    net.state.clock.set(Epoch(40_000));
    let mut monitor = InstanceMonitor::new(seeds.clone(), politeness.clone());
    monitor.poll_all(Epoch(40_000)).await;
    let up = monitor
        .dataset()
        .series
        .iter()
        .filter(|s| s.polls.last().is_some_and(|(_, r)| r.is_up()))
        .count();
    println!("monitor sweep: {up}/{} instances answered", seeds.len());

    // --- 2. the toot crawl -------------------------------------------------
    let dataset = toots::crawl_toots(&seeds, &politeness, &Client::default()).await;
    println!(
        "toot crawl: {} instances crawled, {} home toots collected ({}% coverage)",
        dataset.crawled_instances(),
        dataset.total_home_toots(),
        (dataset.coverage(world.total_toots()) * 100.0).round()
    );

    // --- 3. follower scrape ------------------------------------------------
    let targets: Vec<_> = world
        .users
        .iter()
        .filter(|u| u.has_tooted())
        .map(|u| (u.id, u.instance))
        .collect();
    let graphs =
        followers::scrape_followers(&seeds, &targets, &politeness, &Client::default()).await;
    println!(
        "follower scrape: {} accounts, {} follow edges \
         (ground truth {} — partial, as in the paper: only tooting users' \
         ego networks on instances reachable at the crawl epoch)",
        graphs.accounts.len(),
        graphs.follows.len(),
        world.follows.len()
    );

    net.shutdown().await;
    println!("done.");
}
