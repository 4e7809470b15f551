//! A bad command line exits 2 with a usage line, never a panic.

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
