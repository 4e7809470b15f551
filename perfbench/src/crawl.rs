//! `crawl-flaky`: the ingest path through a fault-injected network.
//!
//! Set-up generates a small world (field-level config, about 1,000
//! instances and 1,500 users) and launches the simulated fediverse behind
//! `FaultPlan::flaky()` on the single-threaded deterministic executor,
//! several times over when untraced (see [`SETUPS`]); the run uses the last.
//! The run polls every instance once per sweep across the measurement
//! window with `Politeness::hostile()`, crawls every public timeline, then
//! rebuilds the outage arena from the polls and runs the §4 sweep on it.
//! Every fault in the flaky plan is recoverable, so each poll must match
//! the ground-truth schedule and each crawled timeline the ground-truth
//! public toot count.

use crate::digest;
use crate::{Ctx, Sample, WORLD_SEED};
use fediscope_crawler::{toots, BreakerBank, InstanceMonitor, Politeness, SeedList};
use fediscope_exec::runtime::Runtime;
use fediscope_httpwire::Client;
use fediscope_model::scale::ScaleTier;
use fediscope_model::time::{Epoch, WINDOW_EPOCHS};
use fediscope_monitor::{arena_from_polls_with_coverage, MonitorSweep, SweepConfig};
use fediscope_simnet::timelines::public_toots_of;
use fediscope_simnet::{launch, FaultPlan};
use fediscope_worldgen::{Generator, WorldConfig};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced repetition. One takes about 30 ms, and on the shared
/// build machine the median of eight still moved between 27 and 51 ms from
/// one repetition to the next, so a repetition's `setup_s` is its fastest.
const SETUPS: usize = 16;

pub fn iteration(ctx: &Ctx) -> Sample {
    let tr = &ctx.tracer;
    let (n_instances, n_users, sweeps) = if ctx.tiny {
        (30, 200, 20)
    } else {
        (1_000, 1_500, 150)
    };
    let mut cfg = WorldConfig::for_tier(ctx.tier, WORLD_SEED);
    cfg.n_instances = n_instances;
    cfg.n_users = n_users;
    cfg.n_providers = n_instances / 10;
    cfg.twitter_users = 1_000;
    let stride = WINDOW_EPOCHS / sweeps;
    let politeness = Politeness::hostile();

    let rt = Runtime::new().expect("executor starts");
    rt.block_on(async {
        // Traced runs set up once, so the set-up spans time one set-up.
        let setups = if tr.on() { 1 } else { SETUPS };
        let mut setup_times = Vec::with_capacity(setups);
        let (world, net) = loop {
            let t0 = Instant::now();
            let world = Arc::new(tr.time("worldgen.world_s", || {
                Generator::generate_world(cfg.clone())
            }));
            tr.enter();
            let net = launch(world.clone(), FaultPlan::flaky(), ctx.seed)
                .await
                .expect("simnet boots");
            tr.exit("simnet.launch_s");
            setup_times.push(t0.elapsed().as_secs_f64());
            if setup_times.len() == setups {
                break (world, net);
            }
            net.shutdown().await;
        };
        let setup_s = setup_times.into_iter().fold(f64::INFINITY, f64::min);

        let t1 = Instant::now();
        let seeds = SeedList::for_simnet(&world, net.addr());
        let mut monitor = InstanceMonitor::new(seeds.clone(), politeness.clone());
        let mut sweep_ms = Vec::with_capacity(sweeps as usize);
        tr.enter();
        for sweep in 0..sweeps {
            let epoch = Epoch(sweep * stride);
            net.state.clock.set(epoch);
            let ts = Instant::now();
            monitor.poll_all(epoch).await;
            sweep_ms.push(ts.elapsed().as_secs_f64() * 1e3);
        }
        tr.exit("crawler.monitor_s");
        let monitor_s = sweep_ms.iter().sum::<f64>() / 1e3;
        let breakers_open = tr.on().then(|| {
            BreakerBank::restore_state(&monitor.capture().breakers).open_count(&politeness)
        });
        let crawl_epoch = Epoch((sweeps - 1) * stride);
        net.state.clock.set(crawl_epoch);
        tr.enter();
        let tc = Instant::now();
        let crawled = toots::crawl_toots(&seeds, &politeness, &Client::default()).await;
        let crawl_s = tc.elapsed().as_secs_f64();
        tr.exit("crawler.toot_crawl_s");
        let dataset = monitor.into_dataset();
        let (arena, coverage) = tr.time("monitor.reconstruct_s", || {
            arena_from_polls_with_coverage(&dataset.series)
        });
        let section4 = tr.time("monitor.crawl_section4_s", || {
            MonitorSweep::new(&arena, &world.instances).run(
                &world.providers,
                &SweepConfig::for_tier(ScaleTier::Paper2019),
            )
        });
        let run_s = t1.elapsed().as_secs_f64();
        net.shutdown().await;

        // Ground truth: each known poll reads the instance's schedule, and
        // each crawlable instance that was up yields all its public toots.
        let mut failed = 0u64;
        for s in &dataset.series {
            let schedule = &world.schedules[s.instance.index()];
            for (epoch, result) in &s.polls {
                if !result.is_known() || result.is_up() != schedule.is_up(*epoch) {
                    failed += 1;
                }
            }
        }
        let mut public = vec![0u64; world.instances.len()];
        for (u, user) in world.users.iter().enumerate() {
            public[user.instance.index()] += public_toots_of(&world, u);
        }
        for r in &crawled.records {
            let i = r.instance.index();
            let reachable =
                world.instances[i].crawl_allowed && world.schedules[i].is_up(crawl_epoch);
            if r.crawled != reachable || (r.crawled && r.home_toots != public[i]) {
                failed += 1;
            }
        }
        if failed > 0 {
            eprintln!("perfbench: FAIL {failed} polls or timelines disagree with ground truth");
        }

        let polls = coverage.polls as f64;
        let toots_crawled = crawled.total_home_toots() as f64;
        if tr.on() {
            tr.set("crawler.polls", polls);
            tr.set("crawler.sweep_first_ms", sweep_ms[0]);
            tr.set("crawler.sweep_last_ms", sweep_ms[sweep_ms.len() - 1]);
            tr.set("crawler.unknown_polls", coverage.unknown as f64);
            tr.set("crawler.breakers_open", breakers_open.unwrap_or(0) as f64);
            tr.set("crawler.toots", toots_crawled);
            tr.set("crawler.polls_per_s", polls / monitor_s);
            tr.set("crawler.toots_per_s", toots_crawled / crawl_s);
            tr.set("monitor.known_frac", coverage.known_fraction());
        }
        Sample {
            setup_s,
            run_s,
            attempted: (coverage.polls + crawled.records.len()) as u64,
            failed,
            digests: vec![
                ("instances".into(), digest::of_debug(&dataset)),
                ("toots".into(), digest::of_debug(&crawled)),
                ("section4".into(), digest::of_debug(&section4)),
            ],
        }
    })
}
