//! `bench wire` — the crawler's net stack: polls per second through the
//! full wire path (deterministic executor → in-memory TCP → HTTP/1.1
//! codec → simnet handler → retry engine), recorded as `wire_polls` in
//! `BENCH_wire.json`.
//!
//! The world is a fixed fixture — 10 instances and 40 sweeps under
//! `--quick`, 40 instances and 200 sweeps otherwise — so `wire` takes no
//! `--tier`. Two campaigns run, each twice on a *fresh* executor:
//!
//! 1. **clean** — `FaultPlan::default()` with `Politeness::fast()`: the raw
//!    serve/encode/parse/join cost per poll;
//! 2. **flaky** — `FaultPlan::flaky()` with `Politeness::hostile()`: the
//!    same campaign with injected 500s/resets/429s/delays absorbed by the
//!    retry engine, showing what robustness costs on the wire.
//!
//! The second run of each campaign is the **determinism gate**
//! (`identical`): a fresh runtime, listener, and injector must replay a
//! byte-identical dataset. Flaky faults are all recoverable, so the
//! `flaky_recovers_clean` gate also requires the flaky transcript to match
//! the clean one poll for poll.

use crate::{BenchArgs, Run};
use fediscope_crawler::discovery::SeedList;
use fediscope_crawler::monitor::InstanceMonitor;
use fediscope_crawler::politeness::Politeness;
use fediscope_model::datasets::InstancesDataset;
use fediscope_model::time::Epoch;
use fediscope_model::world::World;
use fediscope_simnet::{launch, FaultPlan};
use fediscope_worldgen::{Generator, WorldConfig};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

/// One monitoring campaign on a fresh executor: `sweeps` full passes over
/// the seed list, the virtual clock stepping 72 epochs between passes.
/// Returns the dataset and the wall time of the crawl proper.
fn campaign(
    world: Arc<World>,
    plan: FaultPlan,
    injector_seed: u64,
    politeness: Politeness,
    sweeps: u32,
) -> (InstancesDataset, f64) {
    let rt = tokio::runtime::Runtime::new().expect("executor");
    rt.block_on(async move {
        let net = launch(world, plan, injector_seed).await.expect("launch");
        let seeds = SeedList::for_simnet(&net.state.world, net.addr());
        let mut monitor = InstanceMonitor::new(seeds, politeness);
        let t0 = Instant::now();
        for sweep in 0..sweeps {
            let epoch = Epoch(sweep * 72);
            net.state.clock.set(epoch);
            monitor.poll_all(epoch).await;
        }
        let wall = t0.elapsed().as_secs_f64();
        let dataset = monitor.into_dataset();
        net.shutdown().await;
        (dataset, wall)
    })
}

pub(crate) fn run(args: &BenchArgs) -> Run {
    let (n_instances, n_users, sweeps) = if args.quick {
        (10, 200, 40)
    } else {
        (40, 800, 200)
    };
    let mut cfg = WorldConfig::tiny(args.seed);
    cfg.n_instances = n_instances;
    cfg.n_users = n_users;
    cfg.toots_per_user_open = 4.0;
    cfg.toots_per_user_closed = 6.0;
    let world = Arc::new(Generator::generate_world(cfg));
    let polls = u64::from(sweeps) * world.instances.len() as u64;
    eprintln!(
        "world: {} instances, {} users; {sweeps} sweeps = {polls} polls per campaign",
        world.instances.len(),
        world.users.len()
    );

    // Each campaign runs twice on a fresh executor: best-of-2 for the
    // throughput number, and the pair feeds the determinism gate.
    let twice = |plan: fn() -> FaultPlan, politeness: fn() -> Politeness| {
        let (a, s1) = campaign(world.clone(), plan(), args.seed, politeness(), sweeps);
        let (b, s2) = campaign(world.clone(), plan(), args.seed, politeness(), sweeps);
        (a, b, s1.min(s2))
    };
    let (clean_a, clean_b, clean_s) = twice(FaultPlan::default, Politeness::fast);
    let (flaky_a, flaky_b, flaky_s) = twice(FaultPlan::flaky, Politeness::hostile);

    let identical = clean_a == clean_b && flaky_a == flaky_b;
    let recovered = clean_a == flaky_a;
    if identical {
        eprintln!("determinism gate passed (fresh executors replayed identical datasets)");
    } else {
        eprintln!("FAIL — fresh executors diverged");
    }
    if !recovered {
        eprintln!("FAIL — flaky campaign did not recover the clean transcript");
    }
    let clean_pps = polls as f64 / clean_s;
    let flaky_pps = polls as f64 / flaky_s;
    eprintln!(
        "clean: {clean_s:.3}s ({clean_pps:.0} polls/s); \
         flaky: {flaky_s:.3}s ({flaky_pps:.0} polls/s)"
    );

    let record = json!({
        "bench": "wire_polls",
        "mode": args.mode(),
        "seed": args.seed,
        "instances": world.instances.len(),
        "sweeps": sweeps,
        "polls": polls,
        "clean_seconds": clean_s,
        "clean_polls_per_sec": clean_pps,
        "flaky_seconds": flaky_s,
        "flaky_polls_per_sec": flaky_pps,
        "identical_output": identical,
        "flaky_recovers_clean": recovered,
    });
    let gates = vec![
        ("identical", identical),
        ("flaky_recovers_clean", recovered),
    ];
    (record, gates)
}
