//! Differential determinism + conservation proptests for `fedsim`.
//!
//! The ISSUE-7 contract: random worlds × outage overlays × seeds × shard
//! counts replay to bit-identical transcripts and metrics on fresh
//! simulators, and every fanned-out message ends in exactly one of
//! delivered / dropped / still-accounted (undeliverable) — no silent loss
//! under backpressure, retries, suspension, or mid-run outages.

use std::sync::OnceLock;

use fediscope_model::schedule::OutageArena;
use fediscope_model::{TootArena, World};
use fediscope_simnet::fedsim::{overlay, FanoutArena, FedSim, FedSimConfig, OverlaySpec};
use fediscope_worldgen::{toots, Generator, WorldConfig};
use proptest::prelude::*;

const HORIZON: u32 = 32;

struct Fixture {
    world: World,
    fanout: FanoutArena,
    toots: TootArena,
    dest_users: Vec<u32>,
}

/// Three tiny worlds, built once: proptest cases draw (world, overlay,
/// seed, shards) combinations against them.
fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [101u64, 202, 303]
            .into_iter()
            .map(|seed| {
                let cfg = WorldConfig::tiny(seed);
                let world = Generator::generate_world(cfg.clone());
                let fanout = FanoutArena::from_world(&world);
                let toot_arena = toots::generate(&cfg, &world.users, HORIZON, 8.0);
                let dest_users: Vec<u32> = world.instances.iter().map(|i| i.user_count).collect();
                Fixture {
                    world,
                    fanout,
                    toots: toot_arena,
                    dest_users,
                }
            })
            .collect()
    })
}

fn overlay_for(code: usize) -> OverlaySpec {
    match code {
        0 => OverlaySpec::Baseline,
        1 => OverlaySpec::TopAsOutage(2, 8, 24),
        _ => OverlaySpec::TopInstanceRemoval(4, 12),
    }
}

fn config(sim_seed: u64, spec: OverlaySpec, tight: bool) -> FedSimConfig {
    let mut cfg = FedSimConfig::new(sim_seed);
    cfg.drain_epochs = 96;
    cfg.suspend_after = 3;
    cfg.probe_interval = 5;
    cfg.overlay = spec;
    if tight {
        // Starve the queues so backpressure and drops actually fire.
        cfg.service_per_kuser = 1;
        cfg.min_service = 1;
        cfg.backlog_ticks = 2;
        cfg.max_attempts = 4;
    }
    cfg
}

fn build_arena(fx: &Fixture, cfg: &FedSimConfig) -> OutageArena {
    overlay::build(
        &cfg.overlay,
        &fx.world.instances,
        HORIZON + cfg.drain_epochs,
    )
}

proptest! {
    /// Same inputs on a fresh simulator at shard count 1 vs `k` (and a
    /// fresh replay at `k`): reports, per-tick series, and the event hash
    /// are bit-identical.
    #[test]
    fn shard_replay_is_bit_identical(
        widx in 0usize..3,
        shards in 2u32..6,
        sim_seed in 0u64..1_000,
        code in 0usize..3,
        tight in any::<bool>(),
    ) {
        let fx = &fixtures()[widx];
        let serial_cfg = config(sim_seed, overlay_for(code), tight);
        let serial = FedSim::new(
            serial_cfg.clone(), &fx.fanout, &fx.toots, &fx.dest_users,
            build_arena(fx, &serial_cfg),
        ).run();
        let mut sharded_cfg = serial_cfg.clone();
        sharded_cfg.shards = shards;
        for _ in 0..2 {
            let run = FedSim::new(
                sharded_cfg.clone(), &fx.fanout, &fx.toots, &fx.dest_users,
                build_arena(fx, &sharded_cfg),
            ).run();
            // Reports only differ in the recorded shard-independent fields
            // (overlay is part of the report; shards is not).
            prop_assert_eq!(&run, &serial, "run diverged at {} shards", shards);
        }
    }

    /// Conservation: fanned_out == delivered + dropped + undeliverable,
    /// with the parked (suspended) mail separately accounted — under every
    /// overlay, including mid-run outages and permanent removals.
    #[test]
    fn every_message_is_accounted(
        widx in 0usize..3,
        sim_seed in 0u64..1_000,
        code in 0usize..3,
        tight in any::<bool>(),
    ) {
        let fx = &fixtures()[widx];
        let cfg = config(sim_seed, overlay_for(code), tight);
        let run = FedSim::new(
            cfg.clone(), &fx.fanout, &fx.toots, &fx.dest_users,
            build_arena(fx, &cfg),
        ).run();
        let (report, series) = (&run.report, &run.series);
        prop_assert!(report.conserved(),
            "fanned {} != delivered {} + dropped {} + undeliverable {}",
            report.fanned_out, report.delivered(), report.dropped, report.undeliverable);
        prop_assert!(report.suspended_undeliverable <= report.undeliverable);
        prop_assert!(report.fanned_out > 0, "fixtures must generate traffic");
        // the series' running backlog ends where the report says it does
        let last = series.last().unwrap();
        prop_assert_eq!(last.backlog, report.undeliverable);
        // per-instance delivered loads sum back to the report's total
        prop_assert_eq!(
            run.delivered_per_instance.iter().sum::<u64>(),
            report.delivered()
        );
        // attempts never exceed the retry budget's ceiling
        prop_assert!(report.attempts <= report.fanned_out * cfg.max_attempts as u64);
        if report.drained {
            prop_assert_eq!(report.undeliverable, 0);
        }
    }
}

/// The §4 overlay on a live tiny federation: messages delayed during the
/// outage recover through redelivery after it ends — the headline
/// "degrades, then heals" behaviour, deterministic end to end.
#[test]
fn outage_overlay_degrades_then_recovers() {
    let fx = &fixtures()[0];
    let clean_cfg = config(7, OverlaySpec::Baseline, false);
    let clean = FedSim::new(
        clean_cfg.clone(),
        &fx.fanout,
        &fx.toots,
        &fx.dest_users,
        build_arena(fx, &clean_cfg),
    )
    .run()
    .report;
    let out_cfg = config(7, OverlaySpec::TopAsOutage(3, 4, 20), false);
    let hit_run = FedSim::new(
        out_cfg.clone(),
        &fx.fanout,
        &fx.toots,
        &fx.dest_users,
        build_arena(fx, &out_cfg),
    )
    .run();
    let (hit, series) = (hit_run.report, hit_run.series);
    assert!(clean.conserved() && hit.conserved());
    assert_eq!(clean.rejected_down, 0);
    assert!(hit.rejected_down > 0, "outage must refuse deliveries");
    assert!(hit.redelivery_attempts > 0, "refused mail must retry");
    assert!(
        hit.delivered_delayed > clean.delivered_delayed,
        "outage turns prompt deliveries into delayed ones"
    );
    assert!(hit.amplification > clean.amplification);
    // during the outage window some ticks see down-rejections; after the
    // window the backlog eventually returns to zero (it heals)
    assert!(series[4..20].iter().any(|s| s.rejected_down > 0));
    assert!(
        hit.drained,
        "a bounded outage must not wedge the federation"
    );
}
