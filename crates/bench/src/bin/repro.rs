//! `repro` — regenerate every table and figure of the paper on a seeded
//! synthetic world and print paper-vs-measured verdicts.
//!
//! ```text
//! repro [--seed N] [--scale tiny|small|paper|full] [--fast]
//! ```
//!
//! The report and the verdicts go to stdout; progress and the process's
//! peak resident set (`peak RSS <n> MB`) go to stderr.

use fediscope_bench::peak_rss_mb;
use fediscope_core::report::render_verdicts;
use fediscope_core::{verdicts, Observatory, Report};
use fediscope_worldgen::{Generator, WorldConfig};

const USAGE: &str = "usage: repro [--seed N] [--scale tiny|small|paper|full] [--fast]";

/// Print a command-line error with the usage line and exit 2.
fn usage_error(why: &str) -> ! {
    eprintln!("repro: {why}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut seed = 42u64;
    let mut scale = "small".to_string();
    let mut fast = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                let v = value();
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed needs a number, got {v:?}")));
            }
            "--scale" => scale = value(),
            "--fast" => fast = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let cfg = match scale.as_str() {
        "tiny" => WorldConfig::tiny(seed),
        "small" => WorldConfig::small(seed),
        "paper" => WorldConfig::paper_scaled(seed),
        "full" => WorldConfig::paper_full(seed),
        other => usage_error(&format!("unknown scale {other:?}")),
    };
    eprintln!("generating world (seed {seed}, scale {scale}) …");
    let t0 = std::time::Instant::now();
    let world = Generator::generate_world(cfg);
    eprintln!(
        "world ready in {:.1?}: {} instances, {} users, {} follows, {} toots",
        t0.elapsed(),
        world.instances.len(),
        world.users.len(),
        world.follows.len(),
        world.total_toots()
    );

    println!("==============================================================");
    println!("fediscope repro — Challenges in the Decentralised Web (IMC'19)");
    println!("seed {seed} | scale {scale}");
    println!("==============================================================\n");

    let report = Report::compute(&Observatory::new(world), fast);
    print!("{}", report.render());

    println!("==============================================================");
    println!("paper-vs-measured verdicts");
    println!("==============================================================");
    let vs = verdicts::evaluate(&report);
    println!("{}", render_verdicts(&vs));
    let failed = verdicts::failed(&vs);
    println!("{} checks, {} failed", vs.len(), failed);
    eprintln!("peak RSS {:.0} MB", peak_rss_mb());
    if failed > 0 {
        std::process::exit(1);
    }
}
