//! A bad command line exits 2 with a usage line, never a panic; the wire
//! stack's `crawl` and `serve` run in the default build; `analyze` prints
//! the verdicts of the computed report.

use fediscope_core::report::render_verdicts;
use fediscope_core::{verdicts, Observatory, Report};
use fediscope_worldgen::{Generator, WorldConfig};
use std::process::{Command, Output};

fn fediscope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fediscope"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn fediscope_rejects_bad_flags() {
    for args in [
        &["gen", "--seed", "x"][..],
        &["gen", "--scale"],
        &["gen", "--scale", "huge"],
        &["serve", "--ticks", "-1"],
        &["analyze", "--nosuch"],
        &["crawl", "--resume"],
        &["nosuch"],
        &[],
    ] {
        let out = fediscope(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn fediscope_crawls_and_serves() {
    for (args, expect) in [
        (
            &["crawl", "--scale", "tiny", "--seed", "7"][..],
            &["monitor:", "toot crawl:"][..],
        ),
        (
            &["serve", "--scale", "tiny", "--ticks", "5", "--tick-ms", "1"],
            &["virtual clock reached epoch 5"],
        ),
    ] {
        let out = fediscope(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        for line in expect {
            assert!(stdout.contains(line), "{args:?}: {stdout}");
        }
        // The listener is an in-memory port: no hint may suggest reaching
        // it from outside the process.
        assert!(!stdout.contains("curl"), "{args:?}: {stdout}");
    }
}

#[test]
fn fediscope_analyze_judges_the_computed_report() {
    let out = fediscope(&["analyze", "--scale", "tiny", "--fast"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let obs = Observatory::new(Generator::generate_world(WorldConfig::tiny(42)));
    let vs = verdicts::evaluate(&Report::compute(&obs, true));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{}\n19 checks, 0 failed\n", render_verdicts(&vs))
    );
}
