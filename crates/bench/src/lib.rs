//! # fediscope-bench
//!
//! The benchmark harness: the [`repro`](../repro/index.html) binary prints
//! every table and figure; the `bench` binary pins each fast engine
//! against its naive reference (`bench <graph|worldgen|avail|monitor|
//! scenario|fedsim|recover|wire>`, one record per run appended to
//! `BENCH_<name>.json`). The end-to-end timings of every figure come from
//! `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fediscope_graph::DiGraph;
use fediscope_recover::write_atomic;
use fediscope_worldgen::{Generator, WorldConfig};
use std::path::Path;

/// Append one JSON line to a `BENCH_*.json` trajectory file (and echo it
/// to stdout). The file is rewritten whole via temp-then-rename
/// ([`fediscope_recover::write_atomic`]) so a kill mid-record leaves the
/// previous history intact instead of a torn final line.
pub fn record_line(out: &str, json: &str) {
    let path = Path::new(out);
    let mut history = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("read {out}: {e}"),
    };
    history.extend_from_slice(json.as_bytes());
    history.push(b'\n');
    write_atomic(path, &history).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("{json}");
}

/// Peak resident set size of this process in MB (`VmHWM`, MiB as
/// perfbench's `peak_rss_mb` reads it), or 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Build a config's follower graph straight into CSR form: the social
/// cursor's sharded segments (no intermediate edge list, no
/// availability/growth/Twitter stages) feed
/// [`DiGraph::from_sorted_blocks`], which needs no edge list to count
/// and no row to check — the cheapest way to stand up a million-user
/// graph.
pub fn streamed_user_graph(cfg: &WorldConfig) -> DiGraph {
    let cursor = Generator::social_cursor(cfg);
    let n = cursor.n_users() as u32;
    debug_assert_eq!(n as usize, cfg.n_users);
    let segments = cursor.segments(fediscope_worldgen::shard::DEFAULT_BLOCK);
    DiGraph::from_sorted_blocks(
        n,
        segments
            .iter()
            .map(|s| (s.start, s.offsets.as_slice(), s.targets.as_slice())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_appends_atomically() {
        let dir = std::env::temp_dir().join(format!("bench-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let out = path.to_str().unwrap();
        record_line(out, "{\"a\":1}");
        record_line(out, "{\"b\":2}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        // No leftover temp file: the write is rename-into-place.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name() != "BENCH_test.json")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        let peak = peak_rss_mb();
        if Path::new("/proc/self/status").exists() {
            assert!(peak > 0.0, "{peak}");
        } else {
            assert_eq!(peak, 0.0);
        }
    }

    #[test]
    fn streamed_graph_matches_full_world_graph() {
        // The streaming path must produce exactly the graph a full world
        // build produces (same sub-seeded RNG streams, same CSR dedup).
        let cfg = WorldConfig::tiny(9);
        let world = Generator::generate_world(cfg.clone());
        let direct = DiGraph::from_edges(
            world.users.len() as u32,
            world.follows.iter().map(|&(a, b)| (a.0, b.0)),
        );
        let streamed = streamed_user_graph(&cfg);
        assert_eq!(streamed, direct);
    }
}
