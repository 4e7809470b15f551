//! `delivery-modern`: the §3 live runs on the tier's world.
//!
//! Set-up generates the world and the run's toot stream. The run builds the
//! fan-out arena, then drives the clean run and the top-AS outage run as
//! `FedSim::new` plus a `step_tick` loop at the default single shard. The
//! outage run captures a snapshot frame once per simulated day into an
//! in-memory store, as a checkpointing deployment would.

use crate::digest::Fnv;
use crate::report::world_config;
use crate::trace::Tracer;
use crate::{Ctx, Sample};
use fediscope_model::time::EPOCHS_PER_DAY;
use fediscope_model::world::World;
use fediscope_model::TootArena;
use fediscope_recover::{snapshot_frame, MemStore, SnapshotStore};
use fediscope_simnet::fedsim::overlay;
use fediscope_simnet::{FanoutArena, FedSim, FedSimConfig, SimRun};
use fediscope_worldgen::{toots, Generator, WorldConfig};
use std::time::Instant;

pub fn iteration(ctx: &Ctx) -> Sample {
    let tr = &ctx.tracer;
    let tier = ctx.tier;
    let cfg = world_config(ctx);

    let t0 = Instant::now();
    let world = tr.time("worldgen.world_s", || {
        Generator::generate_world(cfg.clone())
    });
    let toot_arena = tr.time("worldgen.toots_s", || {
        // The world is fixed; the toot stream is drawn from the run's seed.
        let stream = WorldConfig {
            seed: ctx.seed,
            ..cfg.clone()
        };
        toots::generate(
            &stream,
            &world.users,
            tier.fedsim_horizon_epochs(),
            tier.fedsim_rate_scale(),
        )
    });
    let setup_s = t0.elapsed().as_secs_f64();
    tr.set("worldgen.edges", world.follows.len() as f64);

    let t1 = Instant::now();
    let (fanout, dest_users) = tr.time("simnet.fanout_s", || {
        let users: Vec<u32> = world.instances.iter().map(|i| i.user_count).collect();
        (FanoutArena::from_world(&world), users)
    });
    let clean_cfg = FedSimConfig::for_tier(tier, ctx.seed);
    let outage_cfg = clean_cfg.clone().with_top_as_outage(tier);
    let sim = Sim {
        tr,
        world: &world,
        fanout: &fanout,
        toots: &toot_arena,
        dest_users: &dest_users,
    };
    let mut tick_ms = Vec::new();
    let mut store = MemStore::new();
    let ts = Instant::now();
    let clean = sim.run("simnet.clean_run_s", clean_cfg, None, &mut tick_ms);
    let outage = sim.run(
        "simnet.outage_run_s",
        outage_cfg,
        Some(&mut store),
        &mut tick_ms,
    );
    let sim_s = ts.elapsed().as_secs_f64();
    let run_s = t1.elapsed().as_secs_f64();

    let mut failed = 0;
    for (name, run) in [("clean", &clean), ("outage", &outage)] {
        if !run.report.conserved() {
            eprintln!("perfbench: FAIL {name} run broke message conservation");
            failed += 1;
        }
    }
    let mut clean_digest = Fnv::new();
    clean_digest.debug(&clean);
    let mut outage_digest = Fnv::new();
    outage_digest.debug(&outage);
    let mut frame_bytes = 0;
    for tick in store.ticks() {
        let frame = store.get(tick).expect("stored frame");
        frame_bytes += frame.len();
        outage_digest.bytes(&frame);
    }

    let fanned = (clean.report.fanned_out + outage.report.fanned_out) as f64;
    let msgs_per_s = fanned / sim_s;
    if tr.on() {
        tick_ms.sort_by(f64::total_cmp);
        let n = tick_ms.len();
        tr.set("simnet.tick_p50_ms", tick_ms[n / 2]);
        // The highest percentile with at least ten ticks beyond it.
        tr.set("simnet.tick_pmax_ms", tick_ms[n.saturating_sub(11)]);
        tr.set("simnet.fanned_out", fanned);
        let attempts = clean.report.attempts + outage.report.attempts;
        tr.set("simnet.attempts_per_msg", attempts as f64 / fanned);
        let delivered = clean.report.delivered() + outage.report.delivered();
        tr.set("simnet.delivered_frac", delivered as f64 / fanned);
        let peak = outage.series.iter().map(|s| s.backlog).max().unwrap_or(0);
        tr.set("simnet.peak_backlog", peak as f64);
        tr.set("simnet.msgs_per_s", msgs_per_s);
        tr.set("recover.frames", store.len() as f64);
        tr.set("recover.frame_bytes", frame_bytes as f64);
    }
    Sample {
        setup_s,
        run_s,
        attempted: 2,
        failed,
        digests: vec![
            ("clean".into(), clean_digest.value()),
            ("outage".into(), outage_digest.value()),
        ],
    }
}

/// What both simulator runs share.
struct Sim<'a> {
    tr: &'a Tracer,
    world: &'a World,
    fanout: &'a FanoutArena,
    toots: &'a TootArena,
    dest_users: &'a [u32],
}

impl Sim<'_> {
    /// One run as span `span`, checkpointing daily into `store` when given;
    /// traced runs append each tick's wall time to `tick_ms`.
    fn run(
        &self,
        span: &str,
        cfg: FedSimConfig,
        mut store: Option<&mut MemStore>,
        tick_ms: &mut Vec<f64>,
    ) -> SimRun {
        let tr = self.tr;
        let horizon = self.toots.horizon() + cfg.drain_epochs;
        let outages = tr.time("simnet.overlay_s", || {
            overlay::build(&cfg.overlay, &self.world.instances, horizon)
        });
        tr.time(span, || {
            let mut sim = FedSim::new(cfg, self.fanout, self.toots, self.dest_users, outages);
            while !sim.is_done() {
                let t = Instant::now();
                sim.step_tick();
                if tr.on() {
                    tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                if let Some(store) = store.as_deref_mut() {
                    if sim.tick() % EPOCHS_PER_DAY == 0 {
                        tr.time("recover.capture_s", || {
                            let frame = snapshot_frame(&sim);
                            store
                                .put(u64::from(sim.tick()), &frame)
                                .expect("in-memory store");
                        });
                    }
                }
            }
            sim.finish()
        })
    }
}
