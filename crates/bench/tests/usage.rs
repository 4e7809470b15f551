//! A bad command line exits 2 with a usage line, never a panic; `bench
//! wire` runs in the default build; `repro` prints the computed report and
//! its verdicts.

use fediscope_core::{Observatory, Report};
use fediscope_worldgen::{Generator, WorldConfig};
use std::process::Command;

fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bench_rejects_bad_flags() {
    for args in [
        &["graph", "--threads", "0"][..],
        &["graph", "--tier", "huge"],
        &["graph", "--seed", "x"],
        &["graph", "--out"],
        &["worldgen", "--trials", "3"],
        &["wire", "--tier", "mid"],
        &["nosuch"],
        &[],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_bench"), args);
    }
}

#[test]
fn repro_rejects_bad_flags() {
    for args in [
        &["--seed"][..],
        &["--seed", "x"],
        &["--scale"],
        &["--scale", "huge"],
        &["--nosuch"],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_repro"), args);
    }
}

#[test]
fn bench_wire_runs() {
    let out_path = format!("{}/bench_wire_usage.json", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["wire", "--quick", "--out", &out_path])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let record = std::fs::read_to_string(&out_path).expect("record written");
    assert!(record.contains(r#""identical_output":true"#), "{record}");
}

#[test]
fn repro_prints_the_computed_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "tiny", "--fast"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    // title banner, figure block, verdict banner, verdicts: the figure
    // block sits between the second and third rules
    let rule = format!("{}\n", "=".repeat(62));
    let block = stdout.split(rule.as_str()).nth(2).expect("3 rules");
    let obs = Observatory::new(Generator::generate_world(WorldConfig::tiny(42)));
    assert_eq!(block, format!("\n{}", Report::compute(&obs, true).render()));
    assert!(stdout.ends_with("\n19 checks, 0 failed\n"), "{stdout}");
}
