//! A bad command line exits 2 with a usage line, never a panic; a path
//! that cannot be written or a snapshot that cannot be resumed exits 1 with
//! a one-line message, never a panic; the wire stack's `crawl` runs in the
//! default build.

use fediscope_recover::format::fnv1a;
use fediscope_recover::{encode_frame, DirStore, SnapshotStore};
use serde::Value;
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
        &["serve", "--scale", "tiny"],
        &["analyze", "--scale", "tiny"],
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

/// `crawl` serves the simulated fediverse on an in-memory port and crawls
/// it.
#[test]
fn fediscope_crawls_and_serves() {
    let args = ["crawl", "--scale", "tiny", "--seed", "7"];
    let out = fediscope(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for line in ["monitor:", "toot crawl:"] {
        assert!(stdout.contains(line), "{stdout}");
    }
    // The listener is an in-memory port: no hint may suggest reaching it
    // from outside the process.
    assert!(!stdout.contains("curl"), "{stdout}");
}

/// Exit 1, a last stderr line naming the problem, and no panic.
fn assert_fails_cleanly(args: &[&str]) {
    let out = fediscope(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("fediscope: "), "{args:?}: {stderr}");
}

/// An empty directory of this test process's own.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fediscope-usage-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unwritable_paths_exit_1() {
    assert_fails_cleanly(&["gen", "--scale", "tiny", "--out", "/dev/null/x.json"]);
    assert_fails_cleanly(&[
        "crawl",
        "--scale",
        "tiny",
        "--checkpoint-dir",
        "/dev/null/x",
    ]);
}

/// `crawl --resume` over `dir`'s snapshots.
fn resume<'a>(dir: &'a str, scale: &'a str, seed: &'a str) -> [&'a str; 8] {
    [
        "crawl",
        "--scale",
        scale,
        "--seed",
        seed,
        "--checkpoint-dir",
        dir,
        "--resume",
    ]
}

#[test]
fn resume_refuses_a_snapshot_it_cannot_use() {
    let dir = fresh_dir("resume");
    let d = dir.to_str().unwrap();
    let fresh = fediscope(&[
        "crawl",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--checkpoint-dir",
        d,
    ]);
    assert_eq!(fresh.status.code(), Some(0));
    // the same world resumes, with the same output
    let resumed = fediscope(&resume(d, "tiny", "7"));
    assert_eq!(resumed.status.code(), Some(0));
    assert_eq!(resumed.stdout, fresh.stdout);
    // another scale has another seed list; another seed, the same list
    // over another world
    assert_fails_cleanly(&resume(d, "small", "7"));
    assert_fails_cleanly(&resume(d, "tiny", "8"));
    std::fs::remove_dir_all(&dir).unwrap();

    // Checksummed frames of the crawl's kind and version that hold no
    // checkpoint: a null, then arrays nested 100,000 levels deep.
    let dir = fresh_dir("hostile");
    let d = dir.to_str().unwrap();
    let mut store = DirStore::open(&dir).unwrap();
    let null = encode_frame("cli-crawl", 2, 2, &Value::Null);
    store.put(2, &null).unwrap();
    assert_fails_cleanly(&resume(d, "tiny", "7"));
    std::fs::remove_file(store.path_for(2)).unwrap();
    let mut deep = null;
    deep.truncate(deep.len() - 9);
    let mut payload = [0x07, 1].repeat(100_000);
    payload.push(0x00);
    let len_at = deep.len() - 8;
    deep[len_at..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    deep.extend_from_slice(&payload);
    let sum = fnv1a(&deep);
    deep.extend_from_slice(&sum.to_le_bytes());
    store.put(3, &deep).unwrap();
    assert_fails_cleanly(&resume(d, "tiny", "7"));
    std::fs::remove_dir_all(&dir).unwrap();
}
