//! A bad command line exits 2 with a usage line, never a panic; `bench
//! wire` runs in the default build; `repro` prints the computed report and
//! its verdicts.

use fediscope_core::report::render_verdicts;
use fediscope_core::{verdicts, Observatory, Report};
use fediscope_worldgen::{Generator, WorldConfig};
use std::process::Command;
use std::sync::OnceLock;

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
    assert!(record.contains(r#""peak_rss_mb":"#), "{record}");
}

/// One run of `repro --scale tiny --fast`, with the figure block and the
/// verdict block of the report it should have computed; the two tests that
/// read it share the run.
struct ReproRun {
    code: Option<i32>,
    stdout: String,
    stderr: String,
    figures: String,
    verdicts: String,
}

impl ReproRun {
    fn get() -> &'static ReproRun {
        static RUN: OnceLock<ReproRun> = OnceLock::new();
        RUN.get_or_init(|| {
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(["--scale", "tiny", "--fast"])
                .output()
                .expect("binary runs");
            let obs = Observatory::new(Generator::generate_world(WorldConfig::tiny(42)));
            let report = Report::compute(&obs, true);
            ReproRun {
                code: out.status.code(),
                stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
                figures: report.render(),
                verdicts: render_verdicts(&verdicts::evaluate(&report)),
            }
        })
    }

    /// Title banner, figure block, verdict banner, verdicts: stdout cut at
    /// its four rules.
    fn blocks(&self) -> Vec<&str> {
        assert_eq!(self.code, Some(0), "{}", self.stderr);
        let rule = format!("{}\n", "=".repeat(62));
        let parts: Vec<&str> = self.stdout.split(rule.as_str()).collect();
        assert_eq!(parts.len(), 5, "{}", self.stdout);
        parts
    }
}

#[test]
fn repro_prints_the_computed_report() {
    let run = ReproRun::get();
    assert_eq!(run.blocks()[2], format!("\n{}", run.figures));
    let peak = run.stderr.lines().last().unwrap_or_default();
    assert!(
        peak.starts_with("peak RSS ") && peak.ends_with(" MB"),
        "{}",
        run.stderr
    );
}

/// `repro`, fediscope's analysis, judges the report it computed: after the
/// verdict banner comes that report's verdict block, then the count line.
#[test]
fn fediscope_analyze_judges_the_computed_report() {
    let run = ReproRun::get();
    assert_eq!(
        run.blocks()[4],
        format!("{}\n19 checks, 0 failed\n", run.verdicts)
    );
}
