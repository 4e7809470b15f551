//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload report-modern|delivery-modern|crawl-flaky
//!           --seed N --seconds S --trace 0|1
//!           [--tier paper2019|mid|modern|fediverse2026] [--scale tiny] [--record]
//! ```
//!
//! Each workload is one closed batch job in this process: set up (build
//! the world), then run it to its finished output, repeated while another
//! repetition should end within `--seconds` (at least three times
//! untraced, once traced).
//! A fixed reference job (calib.rs) runs between repetitions and tells how
//! much slower than nominal the shared host ran; end-to-end times are the
//! median repetition scaled to nominal speed, per-layer values the median.
//! The last line of standard output is one JSON object holding the
//! metrics `BENCHMARK.json` lists: its `end_to_end` metrics with
//! `--trace 0`, its `per_layer` metrics with `--trace 1`. Every output is
//! hashed (FNV-1a) and checked against `digests.txt` where that file holds
//! the seed, against the first iteration, and against the workload's own
//! invariants; any mismatch makes the exit code 1.
//!
//! `--tier` runs a workload at another tier (a one-off probe, not a
//! benchmark workload). `--scale tiny` shrinks every world to a few
//! thousand users for the self-test. `--record` runs one iteration and
//! prints its digests in the `digests.txt` format instead of metrics.

mod calib;
mod crawl;
mod delivery;
mod digest;
mod report;
mod trace;

use digest::Digests;
use fediscope_graph::par;
use fediscope_model::scale::ScaleTier;
use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;
use trace::{Tracer, Values};

/// The seed every workload's world is generated from. Which world is drawn
/// moves the work by up to a fifth (fan-out volume follows the
/// heavy-tailed follower graph: 3.6M to 5.2M messages across five seeds),
/// as much as a regression bound, so `--seed` varies what runs on one
/// fixed world instead: the toot stream, simulator jitter, injected
/// faults, Monte-Carlo trials and replica placements.
pub const WORLD_SEED: u64 = 42;

/// What a workload iteration needs to know.
pub struct Ctx {
    pub seed: u64,
    /// The `par` thread budget: the machine's cores.
    pub cores: usize,
    pub tier: ScaleTier,
    pub tiny: bool,
    pub tracer: Tracer,
}

/// What one iteration measured and produced.
pub struct Sample {
    /// World in: generation plus the workload's other set-up.
    pub setup_s: f64,
    /// Finished world to finished output.
    pub run_s: f64,
    /// Operations attempted and failed (digest, invariant or `Unknown`).
    pub attempted: u64,
    pub failed: u64,
    pub digests: Digests,
}

struct Workload {
    name: &'static str,
    tier: ScaleTier,
    iteration: fn(&Ctx) -> Sample,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "report-modern",
        tier: ScaleTier::Modern,
        iteration: report::iteration,
    },
    Workload {
        name: "delivery-modern",
        tier: ScaleTier::Modern,
        iteration: delivery::iteration,
    },
    Workload {
        name: "crawl-flaky",
        tier: ScaleTier::Paper2019,
        iteration: crawl::iteration,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tier: Option<ScaleTier>,
    tiny: bool,
    record: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload report-modern|delivery-modern|crawl-flaky \
         --seed N --seconds S --trace 0|1 [--tier T] [--scale tiny] [--record]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tier, mut tiny, mut record) = (None, false, false);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--tier" => {
                tier = Some(
                    ScaleTier::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown tier {value:?}"))),
                )
            }
            "--scale" if value == "tiny" => tiny = true,
            _ => usage(&format!("unknown argument {flag} {value}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        tier,
        tiny,
        record,
    }
}

/// The metric names and units `BENCHMARK.json` lists under `key`.
fn listed(spec: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    spec[key]
        .as_array()
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("metric name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Per-layer values over iterations: the median, except peak-memory
/// deltas, where the first iteration raises the peak and later ones
/// cannot, so the maximum is kept.
fn merge(iterations: &[Values]) -> Values {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for it in iterations {
        for (k, v) in it {
            by_name.entry(k).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .map(|(k, vs)| {
            let v = if k.ends_with(".hwm_delta_mb") {
                vs.into_iter().fold(0.0, f64::max)
            } else {
                median(vs)
            };
            (k.to_string(), v)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let spec: serde_json::Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    // Pin the `par` budget to the machine's cores, as the workloads specify.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    par::set_thread_override(Some(cores));

    let w = args.workload;
    let ctx = Ctx {
        seed: args.seed,
        cores,
        tier: args.tier.unwrap_or(w.tier),
        tiny: args.tiny,
        tracer: Tracer::new(args.trace && !args.record),
    };
    let mut key = w.name.to_string();
    if let Some(t) = args.tier {
        key = format!("{key}@{t}");
    }
    if args.tiny {
        key.push_str("@tiny");
    }
    let reference = digest::reference(&key, args.seed);
    eprintln!(
        "perfbench: {key} seed {} on {cores} cores, trace {}; reference digests: {}",
        args.seed,
        u8::from(args.trace),
        if reference.is_some() {
            "recorded"
        } else {
            "none for this seed"
        }
    );

    let min_iterations = if args.trace || args.record { 1 } else { 3 };
    let start = Instant::now();
    let mut slowdown = calib::slowdown();
    let mut samples: Vec<Sample> = Vec::new();
    // Per repetition: the host slowdown across it, and its times scaled by it.
    let mut scaled: Vec<(f64, f64, f64)> = Vec::new();
    let mut layer_values: Vec<Values> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last_s = 0.0;
    // Start another repetition only when it should end within `--seconds`.
    while samples.len() < min_iterations || start.elapsed().as_secs_f64() + last_s <= args.seconds {
        let t0 = Instant::now();
        let s = (w.iteration)(&ctx);
        last_s = t0.elapsed().as_secs_f64();
        let mut values = ctx.tracer.finish_iteration(last_s);
        if args.record {
            if s.failed > 0 {
                eprintln!("perfbench: not recording digests of a run that failed its checks");
                exit(1);
            }
            digest::print_lines(&key, args.seed, &s.digests);
            return;
        }
        let after = calib::slowdown();
        let slow = (slowdown + after) / 2.0;
        slowdown = after;
        scaled.push((slow, s.setup_s / slow, s.run_s / slow));
        values.insert("host.slowdown".into(), slow);
        values.insert("wall.setup_s".into(), s.setup_s);
        values.insert("wall.run_s".into(), s.run_s);
        layer_values.push(values);
        attempted += s.attempted;
        failed += s.failed;
        let first = samples.first().map(|f| &f.digests);
        for (name, got) in &s.digests {
            let want = reference
                .as_ref()
                .and_then(|r| r.get(name))
                .or_else(|| first.and_then(|f| f.iter().find(|(n, _)| n == name).map(|(_, v)| v)));
            if want.is_some_and(|want| want != got) {
                eprintln!(
                    "perfbench: FAIL {name}: digest {got:016x}, expected {:016x}",
                    want.unwrap()
                );
                failed += 1;
            }
        }
        eprintln!(
            "perfbench: iteration {}: setup {:.3}s, run {:.3}s, host slowdown {slow:.3}",
            samples.len() + 1,
            s.setup_s,
            s.run_s
        );
        samples.push(s);
    }
    if let Some(r) = &reference {
        for name in r.keys() {
            if !samples[0].digests.iter().any(|(n, _)| n == name) {
                eprintln!("perfbench: FAIL {name}: recorded but never produced");
                failed += 1;
            }
        }
    }

    // End-to-end times: the median repetition, each scaled to nominal host
    // speed (see calib.rs and README.md).
    let med = |f: fn(&(f64, f64, f64)) -> f64| median(scaled.iter().map(f).collect());
    let mut measured = Values::new();
    measured.insert("setup_s".into(), med(|t| t.1));
    measured.insert("run_s".into(), med(|t| t.2));
    measured.insert("total_s".into(), med(|t| t.1 + t.2));
    measured.insert(
        "peak_rss_mb".into(),
        trace::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
    eprintln!(
        "perfbench: {} iterations, median host slowdown {:.3}; medians at nominal speed:",
        samples.len(),
        med(|t| t.0)
    );
    for (name, v) in &measured {
        eprintln!("  {name:<14} {v:.6}");
    }

    let (metrics, values) = if args.trace {
        let values = merge(&layer_values);
        let list = listed(&spec, "per_layer");
        for name in values.keys() {
            if !list.iter().any(|(n, _)| n == name) {
                eprintln!("perfbench: unlisted metric {name}");
            }
        }
        eprintln!(
            "perfbench: measured {}",
            values.keys().cloned().collect::<Vec<_>>().join(",")
        );
        (list, values)
    } else {
        (listed(&spec, "end_to_end"), measured)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            // A layer this workload never enters reads 0.
            let v = values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "{name} is not finite");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        exit(1);
    }
}
