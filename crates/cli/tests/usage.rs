//! A bad command line exits 2 with a usage line, never a panic.

use std::process::Command;

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
        let out = Command::new(env!("CARGO_BIN_EXE_fediscope"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
