//! `report-modern`: world in, full paper report out.
//!
//! Generates the tier's world, then drives one `Observatory` through every
//! figure and table the report renders: the user, federation and Twitter
//! CSR graphs, `ContentView`, `OutageArena`, Figs. 1–6, 9, 11, 14,
//! Table 2, the §4 sweep (Figs. 7, 8, 10, Table 1), Fig. 12 and its
//! random baseline, Fig. 13, Figs. 15/16 and the §5 scenario grid. Each
//! call is its own span, named after the crate it enters.
//!
//! Traced runs add, after the timed run: every parallel layer again at a
//! one-thread `par` budget (`<span>.t1`, output checked equal), the world
//! again at one thread, and each worldgen stage called on its own.

use crate::digest::{self, Digests};
use crate::trace::Tracer;
use crate::{Ctx, Sample, WORLD_SEED};
use fediscope_core::report as render;
use fediscope_core::{availability, content, graphs, population, scenarios, Observatory};
use fediscope_graph::par;
use fediscope_model::geo::ProviderCatalog;
use fediscope_model::scale::ScaleTier;
use fediscope_worldgen::{
    availability as avail, instances, shard, social, streams, sub_seed, toots, users, Generator,
    WorldConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::time::Instant;

/// The workload's world: the tier preset, or a few thousand users for the
/// self-test.
pub fn world_config(ctx: &Ctx) -> WorldConfig {
    let mut cfg = WorldConfig::for_tier(ctx.tier, WORLD_SEED);
    if ctx.tiny {
        cfg.n_instances = 60;
        cfg.n_users = 1_500;
        cfg.n_providers = 30;
        cfg.twitter_users = 1_000;
    }
    cfg
}

pub fn iteration(ctx: &Ctx) -> Sample {
    let tr = &ctx.tracer;
    let (tier, seed) = (ctx.tier, ctx.seed);
    let cfg = world_config(ctx);

    let t0 = Instant::now();
    let world = tr.time("worldgen.world_s", || {
        Generator::generate_world(cfg.clone())
    });
    let setup_s = t0.elapsed().as_secs_f64();
    tr.set("worldgen.edges", world.follows.len() as f64);
    let world_digest = tr.on().then(|| world_digest_of(&world));

    let t1 = Instant::now();
    let obs = tr.time("core.observatory_s", || Observatory::new(world));
    let user_edges = tr.time("graph.user_csr_s", || obs.user_graph().edge_count());
    tr.set("graph.user_edges", user_edges as f64);
    tr.time("graph.federation_csr_s", || obs.federation_graph());
    tr.time("graph.twitter_csr_s", || obs.twitter_graph());
    let holders = tr.time("replication.content_view_s", || {
        obs.content_view().holder_entries()
    });
    tr.set("replication.holder_entries", holders as f64);
    tr.time("replication.remote_toots_s", || {
        obs.remote_toots_per_instance()
    });
    let intervals = tr.time("monitor.arena_s", || obs.outage_arena().n_outages());
    tr.set("monitor.intervals", intervals as f64);

    let (f01, f02, f03, f04, f05, f06, f09, f14, t2) = tr.time("core.population_s", || {
        (
            population::fig01_growth(&obs, 30),
            population::fig02_open_closed(&obs),
            population::fig03_categories(&obs),
            population::fig04_policies(&obs),
            population::fig05_hosting(&obs),
            population::fig06_country_links(&obs),
            availability::fig09_certificates(&obs),
            content::fig14_remote_ratio(&obs),
            graphs::table2_top_instances(&obs),
        )
    });
    let s4 = tr.time("monitor.section4_s", || {
        availability::section4_tier(&obs, tier)
    });
    let f11 = tr.time("graph.fig11_s", || graphs::fig11_degrees(&obs));
    let f12 = tr.time("graph.fig12_s", || {
        graphs::fig12_user_removal_tier(&obs, tier)
    });
    let f12b = tr.time("graph.fig12_baseline_s", || {
        graphs::fig12_random_baseline_tier(&obs, tier, seed)
    });
    let f13 = tr.time("graph.fig13_s", || {
        graphs::fig13_federation_removal_tier(&obs, tier)
    });
    let f15 = tr.time("replication.fig15_s", || {
        content::fig15_replication_tier(&obs, tier)
    });
    let f16 = tr.time("replication.fig16_s", || {
        content::fig16_random_replication_tier(&obs, tier)
    });
    let rebirth = tr.time("worldgen.rebirth_s", || {
        streams::rebirth_days(&obs.world.schedules, seed, streams::DEFAULT_REBIRTH_FRAC)
    });
    let s5 = tr.time("replication.scenario_grid_s", || {
        scenarios::section5_scenarios_tier(&obs, tier, seed, Some(rebirth.clone()))
    });
    let sections: Vec<(&str, String)> = tr.time("core.render_s", || {
        vec![
            ("fig01", render::render_fig01(&f01)),
            ("fig02", render::render_fig02(&f02)),
            ("fig03", render::render_fig03(&f03)),
            ("fig04", render::render_fig04(&f04)),
            ("fig05", render::render_fig05(&f05)),
            ("fig06", render::render_fig06(&f06)),
            ("fig07", render::render_fig07(&s4.fig07)),
            ("fig08", render::render_fig08(&s4.fig08)),
            ("fig09", render::render_fig09(&f09)),
            ("table1", render::render_table1(&s4.table1)),
            ("fig10", render::render_fig10(&s4.fig10)),
            ("fig11", render::render_fig11(&f11)),
            ("table2", render::render_table2(&t2)),
            ("fig12", render::render_fig12(&f12)),
            ("fig13", render::render_fig13(&f13)),
            ("fig14", render::render_fig14(&f14)),
            ("fig15", render::render_fig15(&f15)),
            ("fig16", render::render_fig16(&f16)),
            ("section5", render::render_section5_scenarios(&s5)),
        ]
    });
    let run_s = t1.elapsed().as_secs_f64();

    tr.set(
        "core.report_bytes",
        sections.iter().map(|(_, text)| text.len()).sum::<usize>() as f64,
    );
    // The baseline has no renderer; its curves are digested directly.
    let mut digests: Digests = sections
        .iter()
        .map(|(name, text)| (name.to_string(), digest::of_text(text)))
        .collect();
    digests.push(("fig12_baseline".into(), digest::of_debug(&f12b)));
    let mut sample = Sample {
        setup_s,
        run_s,
        attempted: digests.len() as u64,
        failed: 0,
        digests,
    };
    if !tr.on() {
        return sample;
    }

    // Thread scaling: every parallel layer again at a one-thread budget.
    // Output must not depend on the budget, so each repeat is checked.
    par::set_thread_override(Some(1));
    let mut repeats = vec![
        again(
            tr,
            "monitor.section4_s.t1",
            &s4,
            || availability::section4_tier(&obs, tier),
            eq,
        ),
        again(
            tr,
            "graph.fig12_s.t1",
            &f12,
            || graphs::fig12_user_removal_tier(&obs, tier),
            debug_eq,
        ),
        again(
            tr,
            "graph.fig12_baseline_s.t1",
            &f12b,
            || graphs::fig12_random_baseline_tier(&obs, tier, seed),
            debug_eq,
        ),
        again(
            tr,
            "graph.fig13_s.t1",
            &f13,
            || graphs::fig13_federation_removal_tier(&obs, tier),
            debug_eq,
        ),
        again(
            tr,
            "replication.fig15_s.t1",
            &f15,
            || content::fig15_replication_tier(&obs, tier),
            debug_eq,
        ),
        again(
            tr,
            "replication.fig16_s.t1",
            &f16,
            || content::fig16_random_replication_tier(&obs, tier),
            debug_eq,
        ),
        again(
            tr,
            "worldgen.rebirth_s.t1",
            &rebirth,
            || streams::rebirth_days(&obs.world.schedules, seed, streams::DEFAULT_REBIRTH_FRAC),
            eq,
        ),
        again(
            tr,
            "replication.scenario_grid_s.t1",
            &s5,
            || scenarios::section5_scenarios_tier(&obs, tier, seed, Some(rebirth.clone())),
            debug_eq,
        ),
    ];
    drop(obs);
    let world_t1 = tr.time("worldgen.world_s.t1", || {
        Generator::generate_world(cfg.clone())
    });
    repeats.push(world_digest == Some(world_digest_of(&world_t1)));
    drop(world_t1);
    par::set_thread_override(Some(ctx.cores));
    for ok in repeats {
        sample.attempted += 1;
        sample.failed += u64::from(!ok);
    }
    stages(tr, &cfg, tier);
    sample
}

/// Repeat a layer call as span `name`; true when `same` finds it
/// reproduces `first`.
fn again<T>(
    tr: &Tracer,
    name: &str,
    first: &T,
    f: impl FnOnce() -> T,
    same: fn(&T, &T) -> bool,
) -> bool {
    let out = tr.time(name, f);
    let ok = same(first, &out);
    if !ok {
        eprintln!("perfbench: FAIL {name}: output differs from the default-budget run");
    }
    ok
}

fn eq<T: PartialEq>(a: &T, b: &T) -> bool {
    a == b
}

/// Equality through the `Debug` digest, for outputs without `PartialEq`.
fn debug_eq<T: Debug>(a: &T, b: &T) -> bool {
    digest::of_debug(a) == digest::of_debug(b)
}

fn world_digest_of(w: &fediscope_model::world::World) -> u64 {
    let edges = shard::digest_edges(w.follows.iter().map(|&(a, b)| (a.0, b.0)));
    shard::digest_users(&w.users) ^ edges.rotate_left(1)
}

/// Each worldgen stage called on its own, in pipeline order.
fn stages(tr: &Tracer, cfg: &WorldConfig, tier: ScaleTier) {
    let providers = ProviderCatalog::with_tail(cfg.n_providers);
    let stage = tr.time("worldgen.instances_s", || {
        instances::generate(
            cfg,
            &providers,
            &mut StdRng::seed_from_u64(sub_seed(cfg.seed, 1)),
        )
    });
    let mut inst = stage.instances;
    let people = tr.time("worldgen.users_s", || {
        users::generate(cfg, &mut inst, &stage.popularity)
    });
    tr.time("worldgen.social_s", || {
        social::generate(cfg, &inst, &people)
    });
    tr.time("worldgen.availability_s", || {
        avail::generate(cfg, &mut inst)
    });
    tr.time("worldgen.toots_s", || {
        toots::generate(
            cfg,
            &people,
            tier.fedsim_horizon_epochs(),
            tier.fedsim_rate_scale(),
        )
    });
}
