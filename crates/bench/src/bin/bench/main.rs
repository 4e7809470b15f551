//! `bench` — pin each fast engine against its naive reference and record
//! trajectory points in `BENCH_<name>.json` (one JSON object per line,
//! appended: the file is a history, not a snapshot).
//!
//! ```text
//! bench <graph|worldgen|avail|monitor|scenario|fedsim|recover|wire>
//!       [--quick] [--seed N] [--out PATH]
//!       [--tier paper2019|mid|modern|fediverse2026] [--threads N]
//! ```
//!
//! Each subcommand stands in for one section of the paper: `graph` (§5.1
//! user removal), `worldgen` (the generator behind every section),
//! `avail` and `scenario` (§5.2 replication), `monitor` (§4
//! availability), `fedsim` and `recover` (§3 federation delivery and its
//! checkpoints), `wire` (§3's crawler over HTTP).
//!
//! Every subcommand shares one flag set, one world and one gate check:
//!
//! - `--tier` names the [`ScaleTier`] world ([`WorldConfig::for_tier`],
//!   `paper2019` by default). `--quick` shrinks it for CI smoke runs
//!   ([`BenchArgs::world`]) and lowers repetition and step counts.
//! - `--threads N` pins the `par` worker budget
//!   ([`par::set_thread_override`]); every engine's output is
//!   bit-identical at any setting, and records carry the budget as
//!   `"threads"` next to the `"cores"` the machine offers.
//! - A subcommand returns its record and its named gates. The harness
//!   adds the process's peak resident set as `"peak_rss_mb"`, appends the
//!   record, then exits 1 naming every false gate. A bad command line
//!   exits 2 with the usage line.

mod avail;
mod fedsim;
mod graph;
mod monitor;
mod recover;
mod scenario;
mod wire;
mod worldgen;

use fediscope_bench::{peak_rss_mb, record_line};
use fediscope_graph::par;
use fediscope_model::world::World;
use fediscope_worldgen::{Generator, ScaleTier, WorldConfig};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

/// A named pass/fail condition of one run.
pub(crate) type Gate = (&'static str, bool);

/// What a subcommand hands back: its record and its gates.
pub(crate) type Run = (Value, Vec<Gate>);

/// A subcommand's entry point.
type Entry = fn(&BenchArgs) -> Run;

/// Every subcommand and its entry point, in CI order.
const COMMANDS: &[(&str, Entry)] = &[
    ("graph", graph::run),
    ("worldgen", worldgen::run),
    ("avail", avail::run),
    ("monitor", monitor::run),
    ("scenario", scenario::run),
    ("fedsim", fedsim::run),
    ("recover", recover::run),
    ("wire", wire::run),
];

/// The parsed command line.
#[derive(Debug, PartialEq)]
pub(crate) struct BenchArgs {
    /// Subcommand name (a key of [`COMMANDS`]).
    pub(crate) command: &'static str,
    /// CI smoke mode: a shrunk world and fewer repetitions.
    pub(crate) quick: bool,
    /// World seed.
    pub(crate) seed: u64,
    /// Trajectory file the record is appended to.
    pub(crate) out: String,
    /// World tier.
    pub(crate) tier: ScaleTier,
    /// Pinned `par` budget (`None` = the machine's parallelism).
    pub(crate) threads: Option<usize>,
}

impl BenchArgs {
    /// Parse `<name> [flags]`; `Err` says what was wrong.
    fn parse(argv: &[String]) -> Result<BenchArgs, String> {
        let (name, flags) = argv.split_first().ok_or("missing subcommand")?;
        let &(command, _) = COMMANDS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
        let mut args = BenchArgs {
            command,
            quick: false,
            seed: 42,
            out: format!("BENCH_{command}.json"),
            tier: ScaleTier::Paper2019,
            threads: None,
        };
        let mut tier_given = false;
        let mut it = flags.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--seed" => {
                    let v = value()?;
                    args.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs a number, got {v:?}"))?;
                }
                "--out" => args.out = value()?.clone(),
                "--tier" => {
                    let v = value()?;
                    args.tier = ScaleTier::parse(v).ok_or_else(|| format!("unknown tier {v:?}"))?;
                    tier_given = true;
                }
                "--threads" => {
                    let v = value()?;
                    let t = v.parse().ok().filter(|&t| t >= 1);
                    args.threads =
                        Some(t.ok_or_else(|| format!("--threads needs a count >= 1, got {v:?}"))?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if command == "wire" && tier_given {
            return Err("wire runs its own 10/40-instance fixture and takes no --tier".into());
        }
        Ok(args)
    }

    /// The run's world: the tier's preset. `--quick` keeps the tier's
    /// shape but shrinks its population — instances and users ÷16,
    /// providers ÷4 (floors of 60 / 1,500 / 30) and a 1,000-user Twitter
    /// baseline.
    pub(crate) fn world(&self) -> WorldConfig {
        let mut cfg = WorldConfig::for_tier(self.tier, self.seed);
        if self.quick {
            cfg.n_instances = (cfg.n_instances / 16).max(60);
            cfg.n_users = (cfg.n_users / 16).max(1_500);
            cfg.n_providers = (cfg.n_providers / 4).max(30);
            cfg.twitter_users = 1_000;
        }
        cfg
    }

    /// `"quick"` or `"full"`, as recorded.
    pub(crate) fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// The one-line usage, listing every subcommand and tier.
fn usage() -> String {
    let commands: Vec<&str> = COMMANDS.iter().map(|&(n, _)| n).collect();
    let tiers: Vec<&str> = ScaleTier::ALL.iter().map(|t| t.name()).collect();
    format!(
        "usage: bench <{}> [--quick] [--seed N] [--out PATH] [--tier {}] [--threads N]",
        commands.join("|"),
        tiers.join("|")
    )
}

/// Cores the machine offers, as recorded next to `"threads"`.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Best-of-`trials` wall time of `f`, in seconds: the minimum is the
/// statistic most robust to scheduler noise on shared machines.
pub(crate) fn best_of(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Generate the run's world, returning it with its generation time.
pub(crate) fn generate(args: &BenchArgs) -> (World, f64) {
    let cfg = args.world();
    eprintln!(
        "generating {} world ({} instances, {} users) …",
        args.tier, cfg.n_instances, cfg.n_users
    );
    let t0 = Instant::now();
    let world = Generator::generate_world(cfg);
    (world, t0.elapsed().as_secs_f64())
}

/// Why `bench` exits non-zero: the exit code and what to print.
#[derive(Debug, PartialEq)]
struct Fail {
    code: u8,
    message: String,
}

/// A bad command line: exit 2 with the usage line.
fn usage_error(why: String) -> Fail {
    let message = format!("bench: {why}\n{}", usage());
    Fail { code: 2, message }
}

/// `Ok` when every gate holds; otherwise exit 1 naming every false gate.
fn check(gates: &[Gate]) -> Result<(), Fail> {
    let failed: Vec<&str> = gates.iter().filter(|g| !g.1).map(|g| g.0).collect();
    if failed.is_empty() {
        return Ok(());
    }
    let message = format!("FAIL: false gate(s): {}", failed.join(", "));
    Err(Fail { code: 1, message })
}

fn run(argv: &[String]) -> Result<(), Fail> {
    let args = BenchArgs::parse(argv).map_err(usage_error)?;
    par::set_thread_override(args.threads);
    eprintln!(
        "bench {}: {} mode, {} tier, par budget {} threads (machine offers {})",
        args.command,
        args.mode(),
        args.tier,
        par::thread_budget(),
        cores()
    );
    let &(_, entry) = COMMANDS
        .iter()
        .find(|(n, _)| *n == args.command)
        .expect("parse only accepts listed commands");
    let (mut record, gates) = entry(&args);
    if let Some(fields) = record.as_object_mut() {
        fields.insert("peak_rss_mb".into(), peak_rss_mb().into());
    }
    // The record lands in the trajectory whether or not its gates hold.
    record_line(&args.out, &record.to_string());
    check(&gates)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(fail) => {
            eprintln!("{}", fail.message);
            ExitCode::from(fail.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<BenchArgs, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        BenchArgs::parse(&argv)
    }

    #[test]
    fn parse_table() {
        assert_eq!(
            parse("graph"),
            Ok(BenchArgs {
                command: "graph",
                quick: false,
                seed: 42,
                out: "BENCH_graph.json".into(),
                tier: ScaleTier::Paper2019,
                threads: None,
            })
        );
        assert_eq!(
            parse("avail --quick --seed 7 --out /x/a.json --tier mid --threads 4"),
            Ok(BenchArgs {
                command: "avail",
                quick: true,
                seed: 7,
                out: "/x/a.json".into(),
                tier: ScaleTier::Mid,
                threads: Some(4),
            })
        );
        assert_eq!(
            parse("worldgen --tier fediverse2026").map(|a| a.tier),
            Ok(ScaleTier::Fediverse2026)
        );
        for (line, why) in [
            ("", "missing subcommand"),
            ("nosuch", "unknown subcommand \"nosuch\""),
            (
                "graph --threads 0",
                "--threads needs a count >= 1, got \"0\"",
            ),
            (
                "graph --threads x",
                "--threads needs a count >= 1, got \"x\"",
            ),
            ("graph --tier huge", "unknown tier \"huge\""),
            ("graph --seed x", "--seed needs a number, got \"x\""),
            ("graph --seed", "--seed needs a value"),
            ("graph --out", "--out needs a value"),
            ("graph --tier", "--tier needs a value"),
            ("worldgen --trials 3", "unknown flag \"--trials\""),
            ("recover --scale tiny", "unknown flag \"--scale\""),
            (
                "wire --tier mid",
                "wire runs its own 10/40-instance fixture and takes no --tier",
            ),
            ("wire --sweeps 5", "unknown flag \"--sweeps\""),
        ] {
            assert_eq!(parse(line), Err(why.to_string()), "{line:?}");
        }
    }

    #[test]
    fn usage_lists_every_tier_and_command() {
        let line = usage();
        for tier in ScaleTier::ALL {
            assert!(line.contains(tier.name()), "{line}");
        }
        for (name, _) in COMMANDS {
            assert!(line.contains(name), "{line}");
        }
        assert_eq!(line.lines().count(), 1);
    }

    #[test]
    fn quick_world_shrinks_the_tier() {
        let cfg = parse("graph --quick --seed 3").unwrap().world();
        assert_eq!(
            (
                cfg.n_instances,
                cfg.n_users,
                cfg.n_providers,
                cfg.twitter_users
            ),
            (270, 53_312, 87, 1_000)
        );
        assert_eq!(cfg.seed, 3);
        let full = parse("graph --tier mid").unwrap().world();
        assert_eq!(full.n_users, ScaleTier::Mid.n_users());
    }

    #[test]
    fn false_gate_exits_1_and_is_named() {
        assert_eq!(check(&[("identical", true), ("speedup_5x", true)]), Ok(()));
        let gates = [
            ("identical", false),
            ("speedup_5x", true),
            ("weighted_identical", false),
        ];
        let message = "FAIL: false gate(s): identical, weighted_identical".to_string();
        assert_eq!(check(&gates), Err(Fail { code: 1, message }));
        let bad_line = usage_error("unknown tier \"huge\"".into());
        assert_eq!(bad_line.code, 2);
        assert!(bad_line.message.ends_with(&usage()));
    }
}
