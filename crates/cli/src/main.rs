//! `fediscope` — command-line interface to the toolkit.
//!
//! ```text
//! fediscope gen   [--seed N] [--scale tiny|small|paper] [--out world.json]
//! fediscope crawl [--seed N] [--scale tiny|small|paper] [--checkpoint-dir DIR] [--resume]
//! ```
//!
//! `gen` prints (or writes) the generated world as JSON; `crawl` boots the
//! simulated fediverse behind an in-memory listener of the deterministic
//! executor and runs the measurement pipeline against it. The paper's
//! analyses and verdicts are the `repro` binary's.
//!
//! With `--checkpoint-dir`, `crawl` writes a framed snapshot (see
//! `crates/recover`) after every monitor sweep — the accumulated dataset,
//! circuit-breaker cooldowns, fault-injector state, and the virtual clock.
//! `--resume` restarts a killed crawl from the newest good snapshot (torn
//! frames are skipped and reported); the resumed crawl's output is
//! bit-identical to one that never died. A snapshot taken at another
//! `--seed` or `--scale`, one that does not decode, or a directory whose
//! snapshots are all unusable stops the crawl with exit 1, as does a path
//! that cannot be written.

use fediscope_crawler::discovery::SeedList;
use fediscope_crawler::monitor::InstanceMonitor;
use fediscope_crawler::politeness::Politeness;
use fediscope_crawler::toots;
use fediscope_model::time::Epoch;
use fediscope_simnet::{launch, FaultPlan};
use fediscope_worldgen::{Generator, WorldConfig};
use std::sync::Arc;

const USAGE: &str = "usage: fediscope <gen|crawl> [--seed N] [--scale tiny|small|paper] \
     [--out PATH] [--checkpoint-dir DIR] [--resume]";

/// A `--scale` name and the world config it builds.
type Scale = (&'static str, fn(u64) -> WorldConfig);

/// Every `--scale` the commands take.
const SCALES: [Scale; 3] = [
    ("tiny", WorldConfig::tiny),
    ("small", WorldConfig::small),
    ("paper", WorldConfig::paper_scaled),
];

struct Opts {
    seed: u64,
    scale: Scale,
    out: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
}

/// Print a command-line error with the usage line and exit 2.
fn usage_error(why: &str) -> ! {
    eprintln!("fediscope: {why}\n{USAGE}");
    std::process::exit(2);
}

/// Print why a command could not run and exit 1.
fn fail(why: impl std::fmt::Display) -> ! {
    eprintln!("fediscope: {why}");
    std::process::exit(1);
}

/// A flag's numeric value.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got {v:?}"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 42,
        scale: SCALES[1],
        out: None,
        checkpoint_dir: None,
        resume: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => o.seed = number(a, value()?)?,
            "--scale" => {
                let name = value()?;
                o.scale = *SCALES
                    .iter()
                    .find(|(known, _)| known == name)
                    .ok_or_else(|| format!("unknown scale {name:?}"))?;
            }
            "--out" => o.out = Some(value()?.clone()),
            "--checkpoint-dir" => o.checkpoint_dir = Some(value()?.clone()),
            "--resume" => o.resume = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if o.resume && o.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    Ok(o)
}

fn config_for(o: &Opts) -> WorldConfig {
    (o.scale.1)(o.seed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage_error("missing command");
    };
    let opts = parse_opts(rest).unwrap_or_else(|why| usage_error(&why));
    match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "crawl" => cmd_crawl(&opts),
        other => usage_error(&format!("unknown command {other:?}")),
    }
}

fn cmd_gen(o: &Opts) {
    let world = Generator::generate_world(config_for(o));
    let json = serde_json::to_string(&world).expect("world serialises");
    match &o.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                fail(format!("cannot write {path}: {e}"));
            }
            eprintln!(
                "wrote {} instances / {} users to {path}",
                world.instances.len(),
                world.users.len()
            );
        }
        None => println!("{json}"),
    }
}

/// Frame kind tag for `crawl --checkpoint-dir` snapshots.
const CRAWL_KIND: &str = "cli-crawl";

/// Schema version of [`CrawlCheckpoint`]. Bump on any shape change.
const CRAWL_STATE_VERSION: u32 = 2;

/// What `crawl --checkpoint-dir` persists after each monitor sweep:
/// enough to continue the campaign bit-identically on a fresh process.
#[derive(serde::Serialize, serde::Deserialize)]
struct CrawlCheckpoint {
    /// `--seed` of the crawled world.
    seed: u64,
    /// `--scale` of the crawled world.
    scale: String,
    /// Monitor sweeps completed.
    sweeps_done: u32,
    /// Virtual clock at the checkpoint; the resumed runtime starts here.
    virtual_nanos: u64,
    /// Accumulated dataset + circuit-breaker rows.
    monitor: fediscope_crawler::monitor::MonitorState,
    /// Fault-injector counter / dead set / budget windows.
    injector: fediscope_simnet::InjectorState,
}

/// Epochs between monitor sweeps, and sweeps in the campaign.
const SWEEP_STRIDE: u32 = 96;
const SWEEPS: u32 = 18;
const BASE_EPOCH: u32 = 40_000;

fn cmd_crawl(o: &Opts) {
    use fediscope_recover::{encode_frame, recover_latest, DirStore, SnapshotStore};

    let mut store = o.checkpoint_dir.as_ref().map(|d| {
        DirStore::open(d).unwrap_or_else(|e| fail(format!("cannot open checkpoint dir {d}: {e}")))
    });
    let resumed: Option<CrawlCheckpoint> = if o.resume {
        let store = store.as_ref().expect("--resume needs --checkpoint-dir");
        let rec = recover_latest(store, CRAWL_KIND, CRAWL_STATE_VERSION);
        if rec.torn_skipped > 0 {
            eprintln!(
                "recovery: skipped {} torn/incompatible snapshot(s) at ticks {:?}",
                rec.torn_skipped, rec.skipped_ticks
            );
        }
        match &rec.good {
            Some((meta, value)) => {
                let c: CrawlCheckpoint =
                    serde::Deserialize::from_json_value(value).unwrap_or_else(|e| {
                        fail(format!(
                            "snapshot of sweep {} does not decode: {e}",
                            meta.tick
                        ))
                    });
                if (c.seed, c.scale.as_str()) != (o.seed, o.scale.0) {
                    fail(format!(
                        "snapshot of sweep {} is of --scale {} --seed {}, not --scale {} --seed {}",
                        meta.tick, c.scale, c.seed, o.scale.0, o.seed
                    ));
                }
                eprintln!("recovery: resuming from sweep {}", meta.tick);
                Some(c)
            }
            // Starting over would overwrite them, tick by tick.
            None if rec.torn_skipped > 0 => fail(
                "no usable snapshot among those in the checkpoint dir; \
                 remove them to start over",
            ),
            None => {
                eprintln!("recovery: no usable snapshot; starting from scratch");
                None
            }
        }
    } else {
        None
    };

    // A resumed process continues the snapshot's virtual timeline.
    let rt = match &resumed {
        Some(c) => tokio::runtime::Runtime::starting_at(c.virtual_nanos),
        None => tokio::runtime::Runtime::new(),
    }
    .expect("tokio runtime");
    rt.block_on(async {
        let world = Arc::new(Generator::generate_world(config_for(o)));
        let net = launch(world.clone(), FaultPlan::default(), o.seed)
            .await
            .expect("simnet boots");
        let seeds = SeedList::for_simnet(&world, net.addr());
        let politeness = Politeness::fast();

        let (mut monitor, start_sweep) = match &resumed {
            Some(c) => {
                net.state.faults.restore_state(&c.injector);
                let m = InstanceMonitor::resume(seeds.clone(), politeness.clone(), &c.monitor)
                    .unwrap_or_else(|why| fail(why));
                (m, c.sweeps_done)
            }
            None => (InstanceMonitor::new(seeds.clone(), politeness.clone()), 0),
        };
        for sweep in start_sweep..SWEEPS {
            let epoch = Epoch(BASE_EPOCH + sweep * SWEEP_STRIDE);
            net.state.clock.set(epoch);
            monitor.poll_all(epoch).await;
            if let Some(store) = store.as_mut() {
                let ckpt = CrawlCheckpoint {
                    seed: o.seed,
                    scale: o.scale.0.to_string(),
                    sweeps_done: sweep + 1,
                    virtual_nanos: tokio::time::now_nanos(),
                    monitor: monitor.capture(),
                    injector: net.state.faults.export_state(),
                };
                let frame = encode_frame(
                    CRAWL_KIND,
                    CRAWL_STATE_VERSION,
                    (sweep + 1) as u64,
                    &serde::Serialize::to_json_value(&ckpt),
                );
                if let Err(e) = store.put((sweep + 1) as u64, &frame) {
                    fail(format!("cannot write checkpoint: {e}"));
                }
            }
        }
        // The loop leaves the world clock at the final sweep's epoch — but
        // a resume that lands past the last sweep skips the loop entirely,
        // so pin it explicitly or the toot crawl below would run against
        // the boot epoch's availability instead.
        net.state
            .clock
            .set(Epoch(BASE_EPOCH + (SWEEPS - 1) * SWEEP_STRIDE));
        let up = monitor
            .dataset()
            .series
            .iter()
            .filter(|s| s.polls.last().is_some_and(|(_, r)| r.is_up()))
            .count();
        println!(
            "monitor: {up}/{} instances up after {SWEEPS} sweeps",
            seeds.len()
        );

        let dataset =
            toots::crawl_toots(&seeds, &politeness, &fediscope_httpwire::Client::default()).await;
        println!(
            "toot crawl: {} instances crawled, {} toots, {:.1}% coverage",
            dataset.crawled_instances(),
            dataset.total_home_toots(),
            dataset.coverage(world.total_toots()) * 100.0
        );
        net.shutdown().await;
    });
}
