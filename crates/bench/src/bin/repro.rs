//! `repro` — regenerate every table and figure of the paper on a seeded
//! synthetic world and print paper-vs-measured verdicts.
//!
//! ```text
//! repro [--seed N] [--scale tiny|small|paper|full] [--fast]
//! ```

use fediscope_core::report;
use fediscope_core::{availability, content, graphs, population, verdicts, Observatory};
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
    let n_instances = cfg.n_instances;
    // thresholds scale with world size
    let table1_min = if n_instances >= 2000 { 8 } else { 3 };
    let fig13_instances = (n_instances / 5).max(10);
    let fig13_ases = 20;

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
    let obs = Observatory::new(world);

    println!("==============================================================");
    println!("fediscope repro — Challenges in the Decentralised Web (IMC'19)");
    println!("seed {seed} | scale {scale}");
    println!("==============================================================\n");

    println!("{}", report::render_fig01(&population::fig01_growth(&obs, 30)));
    println!("{}", report::render_fig02(&population::fig02_open_closed(&obs)));
    println!("{}", report::render_fig03(&population::fig03_categories(&obs)));
    println!("{}", report::render_fig04(&population::fig04_policies(&obs)));
    println!("{}", report::render_fig05(&population::fig05_hosting(&obs)));
    println!("{}", report::render_fig06(&population::fig06_country_links(&obs)));
    // Figs. 7, 8, 10 + Table 1 come out of ONE sharded pass over the
    // columnar outage arena (stride 1: the interval walk makes
    // full-resolution Fig. 8 cheap — no day subsampling needed).
    let s4 = availability::section4_sweep(&obs, table1_min, 1);
    println!("{}", report::render_fig07(&s4.fig07));
    println!("{}", report::render_fig08(&s4.fig08));
    println!("{}", report::render_fig09(&availability::fig09_certificates(&obs)));
    println!("{}", report::render_table1(&s4.table1));
    println!("{}", report::render_fig10(&s4.fig10));
    println!("{}", report::render_fig11(&graphs::fig11_degrees(&obs)));
    println!("{}", report::render_table2(&graphs::table2_top_instances(&obs)));
    if !fast {
        println!("{}", report::render_fig12(&graphs::fig12_user_removal(&obs, 15)));
        println!(
            "{}",
            report::render_fig13(&graphs::fig13_federation_removal(
                &obs,
                fig13_instances,
                fig13_ases
            ))
        );
    }
    println!("{}", report::render_fig14(&content::fig14_remote_ratio(&obs)));
    if !fast {
        println!(
            "{}",
            report::render_fig15(&content::fig15_replication(&obs, 30, 20))
        );
        println!(
            "{}",
            report::render_fig16(&content::fig16_random_replication(&obs, 25))
        );
    }

    println!("==============================================================");
    println!("paper-vs-measured verdicts");
    println!("==============================================================");
    let vs = verdicts::evaluate(&obs, fast);
    println!("{}", report::render_verdicts(&vs));
    let failed = verdicts::failed(&vs);
    println!("{} checks, {} failed", vs.len(), failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
