//! `bench worldgen` — the sharded worldgen pipeline behind every section:
//! serial-vs-sharded identity and per-stage generation times, recorded as
//! `worldgen_tier` in `BENCH_worldgen.json`.
//!
//! Every generator stage (users, social edges, availability arena, toot
//! streams) runs twice: once as a single serial block and once sharded at
//! the default block size under the `par` budget. The two outputs are
//! compared by FNV-1a world digest ([`shard::digest_users`] and friends);
//! each stage is one gate. Timings are best-of-N wall clock per stage.
//!
//! The social segments are then assembled into the CSR follower graph
//! (`DiGraph::from_sorted_blocks`, no global sort) and a Fig.-12-style
//! top-degree removal sweep runs on it, so a tier's line records the full
//! *generate → analyse* path — at `fediverse2026` that line is the 10M-user
//! acceptance datapoint.

use crate::{best_of, cores, BenchArgs, Run};
use fediscope_graph::par;
use fediscope_graph::removal::{RankBy, RemovalSweep};
use fediscope_graph::DiGraph;
use fediscope_model::geo::ProviderCatalog;
use fediscope_worldgen::{availability, instances, shard, social, toots, users};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::time::Instant;

/// One serial-vs-sharded stage comparison: wall times plus digest match.
struct StageCmp {
    serial_s: f64,
    sharded_s: f64,
    identical: bool,
}

/// Run a stage as one serial block (block 0) and sharded at `block`,
/// compare the two outputs' digests, and time each best-of-`trials`.
/// Returns the comparison and the sharded output.
fn compare<T>(
    label: &str,
    trials: usize,
    block: usize,
    run: impl Fn(usize) -> T,
    digest: impl Fn(&T) -> u64,
) -> (StageCmp, T) {
    let serial = run(0);
    let sharded = run(block);
    let cmp = StageCmp {
        serial_s: best_of(trials, || drop(run(0))),
        sharded_s: best_of(trials, || drop(run(block))),
        identical: digest(&serial) == digest(&sharded),
    };
    eprintln!(
        "{label}: serial {:.3}s, sharded {:.3}s, identical {}",
        cmp.serial_s, cmp.sharded_s, cmp.identical
    );
    (cmp, sharded)
}

pub(crate) fn run(args: &BenchArgs) -> Run {
    // Best-of-N: the shared-core machines this runs on jitter ±30%, so
    // the minimum over a few trials is the stable statistic.
    let trials = if args.quick { 1 } else { 2 };
    let cfg = args.world();
    eprintln!(
        "{} tier ({} instances, {} users, seed {})",
        args.tier, cfg.n_instances, cfg.n_users, args.seed
    );

    // Instance stage: a single sequential RNG stream (it is ~30x smaller
    // than the user population), shared by both pipeline variants.
    let providers = ProviderCatalog::with_tail(cfg.n_providers);
    let t0 = Instant::now();
    let stage = instances::generate(
        &cfg,
        &providers,
        &mut StdRng::seed_from_u64(fediscope_worldgen::sub_seed(cfg.seed, 1)),
    );
    let instances_s = t0.elapsed().as_secs_f64();

    // Users (they fill in the instances' user counts, so each run starts
    // from a fresh copy of the instance stage).
    let (users_cmp, (inst, users_v)) = compare(
        "users",
        trials,
        shard::DEFAULT_BLOCK,
        |block| {
            let mut inst = stage.instances.clone();
            let users = users::generate_with_block(&cfg, &mut inst, &stage.popularity, block);
            (inst, users)
        },
        |(_, users)| shard::digest_users(users),
    );

    // Social edges: one frozen cursor, emitted serially vs sharded.
    let cursor = social::SocialCursor::new(&cfg, &inst, &users_v);
    let digest_of = |segs: &Vec<social::SocialSegment>| {
        shard::digest_edges(segs.iter().flat_map(|s| {
            (0..s.offsets.len() - 1).flat_map(move |k| {
                s.targets[s.offsets[k] as usize..s.offsets[k + 1] as usize]
                    .iter()
                    .map(move |&t| (s.start + k as u32, t))
            })
        }))
    };
    let (social_cmp, sharded_segs) = compare(
        "social",
        trials,
        shard::DEFAULT_BLOCK,
        |block| cursor.segments(block),
        digest_of,
    );

    // Availability: straight into the columnar arena via the unsorted
    // interval ingest.
    let (avail_cmp, _) = compare(
        "availability",
        trials,
        shard::INSTANCE_BLOCK,
        |block| availability::generate_arena_with_block(&cfg, &mut inst.clone(), block),
        shard::digest_arena,
    );

    // Toot streams over the tier's fedsim horizon.
    let horizon = args.tier.fedsim_horizon_epochs();
    let rate = args.tier.fedsim_rate_scale();
    let (toots_cmp, sharded_toots) = compare(
        "toots",
        trials,
        shard::DEFAULT_BLOCK,
        |block| toots::generate_with_block(&cfg, &users_v, horizon, rate, block),
        shard::digest_toots,
    );

    // End-to-end: CSR graph from the sharded segments (no global sort),
    // then the Fig.-12 top-degree removal sweep on it.
    let t0 = Instant::now();
    let g = DiGraph::from_sorted_blocks(
        users_v.len() as u32,
        sharded_segs
            .iter()
            .map(|s| (s.start, s.offsets.as_slice(), s.targets.as_slice())),
    );
    let csr_s = t0.elapsed().as_secs_f64();
    let steps = if args.quick { 5 } else { 10 };
    let t0 = Instant::now();
    let sweep = RemovalSweep::new(&g).iterative_fraction(0.01, steps, RankBy::DegreeIterative);
    let sweep_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "graph {} nodes / {} edges in {csr_s:.3}s; {steps}-step removal sweep {sweep_s:.3}s \
         (final LCC {:.1}%)",
        g.node_count(),
        g.edge_count(),
        sweep.last().map(|p| p.lcc_node_frac * 100.0).unwrap_or(0.0)
    );

    let stages = [&users_cmp, &social_cmp, &avail_cmp, &toots_cmp];
    let serial_total = instances_s + stages.iter().map(|c| c.serial_s).sum::<f64>();
    let sharded_total = instances_s + stages.iter().map(|c| c.sharded_s).sum::<f64>();
    let end_to_end = sharded_total + csr_s + sweep_s;
    eprintln!(
        "gen total: serial {serial_total:.3}s, sharded {sharded_total:.3}s, \
         end-to-end (gen+graph+sweep) {end_to_end:.3}s"
    );

    let record = json!({
        "bench": "worldgen_tier",
        "tier": args.tier.name(),
        "mode": args.mode(),
        "threads": par::thread_budget(),
        "cores": cores(),
        "seed": args.seed,
        "instances": cfg.n_instances,
        "users": cfg.n_users,
        "edges": g.edge_count(),
        "toot_events": sharded_toots.n_toots(),
        "gen_seconds": serial_total,
        "gen_seconds_sharded": sharded_total,
        "instances_seconds": instances_s,
        "users_seconds": users_cmp.serial_s,
        "users_seconds_sharded": users_cmp.sharded_s,
        "social_seconds": social_cmp.serial_s,
        "social_seconds_sharded": social_cmp.sharded_s,
        "avail_seconds": avail_cmp.serial_s,
        "avail_seconds_sharded": avail_cmp.sharded_s,
        "toots_seconds": toots_cmp.serial_s,
        "toots_seconds_sharded": toots_cmp.sharded_s,
        "csr_seconds": csr_s,
        "sweep_steps": steps,
        "sweep_seconds": sweep_s,
        "end_to_end_seconds": end_to_end,
        "identical_output": stages.iter().all(|c| c.identical),
    });
    let gates = vec![
        ("users_identical", users_cmp.identical),
        ("social_identical", social_cmp.identical),
        ("avail_identical", avail_cmp.identical),
        ("toots_identical", toots_cmp.identical),
    ];
    (record, gates)
}
