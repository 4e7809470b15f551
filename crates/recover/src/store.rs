//! Checkpoint stores and torn-tolerant recovery.
//!
//! A store holds framed snapshots keyed by virtual tick. [`DirStore`]
//! persists them as files (written atomically: temp file + rename, so a
//! crash mid-write leaves at most one torn *new* file and never damages
//! an existing one); [`MemStore`] is an in-memory double with explicit
//! corruption helpers for the torn-checkpoint test corpus.
//!
//! [`recover_latest`] is the read side: walk snapshots newest-first,
//! skip anything torn or incompatible, return the first good state. If
//! everything is torn it reports that honestly — the caller restarts
//! from scratch and says so, rather than fabricating state.

use crate::format::{decode_frame, FrameError, FrameMeta};
use serde::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A keyed byte store for snapshot frames.
pub trait SnapshotStore {
    /// Persist `bytes` as the snapshot for virtual tick `tick`.
    fn put(&mut self, tick: u64, bytes: &[u8]) -> io::Result<()>;
    /// All stored ticks, ascending.
    fn ticks(&self) -> Vec<u64>;
    /// Snapshot bytes for `tick`.
    fn get(&self, tick: u64) -> Option<Vec<u8>>;
}

/// Write `bytes` to `path` atomically: write a sibling temp file, then
/// rename over the target. On any same-filesystem POSIX rename the
/// destination is only ever the old bytes or the new bytes — a crash
/// mid-write can tear the temp file but never an existing target.
///
/// This is also the bench-bin write path (`BENCH_*.json`): appends are
/// read-modify-write through this helper so a crash never truncates the
/// recorded trajectory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp = PathBuf::from(dir.unwrap_or_else(|| Path::new(".")));
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    tmp.push(tmp_name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Directory-backed store: one `ckpt-<tick>.fsnp` file per snapshot.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirStore { dir })
    }

    /// Path for the snapshot at `tick`.
    pub fn path_for(&self, tick: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{tick:020}.fsnp"))
    }
}

impl SnapshotStore for DirStore {
    fn put(&mut self, tick: u64, bytes: &[u8]) -> io::Result<()> {
        write_atomic(&self.path_for(tick), bytes)
    }

    fn ticks(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".fsnp"))
            {
                if let Ok(tick) = num.parse::<u64>() {
                    out.push(tick);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn get(&self, tick: u64) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(tick)).ok()
    }
}

/// In-memory store for tests: supports deliberate truncation and bit
/// flips to build torn-checkpoint corpora without touching disk.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    frames: BTreeMap<u64, Vec<u8>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Truncate the snapshot at `tick` to `keep` bytes (a torn write).
    pub fn tear_truncate(&mut self, tick: u64, keep: usize) {
        if let Some(bytes) = self.frames.get_mut(&tick) {
            bytes.truncate(keep);
        }
    }

    /// Flip one bit of the snapshot at `tick` (silent corruption).
    pub fn tear_bitflip(&mut self, tick: u64, byte: usize, bit: u8) {
        if let Some(bytes) = self.frames.get_mut(&tick) {
            let len = bytes.len().max(1);
            if let Some(b) = bytes.get_mut(byte % len) {
                *b ^= 1 << (bit % 8);
            }
        }
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

impl SnapshotStore for MemStore {
    fn put(&mut self, tick: u64, bytes: &[u8]) -> io::Result<()> {
        self.frames.insert(tick, bytes.to_vec());
        Ok(())
    }

    fn ticks(&self) -> Vec<u64> {
        self.frames.keys().copied().collect()
    }

    fn get(&self, tick: u64) -> Option<Vec<u8>> {
        self.frames.get(&tick).cloned()
    }
}

/// Outcome of a recovery scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Metadata and decoded state of the newest good snapshot, if any.
    pub good: Option<(FrameMeta, Value)>,
    /// How many snapshots were skipped as torn/corrupt, newest-first,
    /// before a good one was found (or the store ran out).
    pub torn_skipped: u32,
    /// Ticks of the skipped snapshots (for the honest partial report).
    pub skipped_ticks: Vec<u64>,
}

impl Recovery {
    /// True when no usable snapshot survived: the caller must restart
    /// from scratch and report the run as recovered-from-nothing.
    pub fn must_restart(&self) -> bool {
        self.good.is_none()
    }
}

/// Scan `store` newest-first for a good snapshot of the given engine
/// kind and schema version. Torn, corrupt, or incompatible frames are
/// skipped (counted, never panicking); the first clean decode wins.
pub fn recover_latest<S: SnapshotStore>(store: &S, kind: &str, state_version: u32) -> Recovery {
    let mut torn_skipped = 0;
    let mut skipped_ticks = Vec::new();
    for tick in store.ticks().into_iter().rev() {
        let Some(bytes) = store.get(tick) else {
            torn_skipped += 1;
            skipped_ticks.push(tick);
            continue;
        };
        match decode_frame(&bytes) {
            Ok((meta, state)) if meta.kind == kind && meta.state_version == state_version => {
                return Recovery {
                    good: Some((meta, state)),
                    torn_skipped,
                    skipped_ticks,
                };
            }
            Ok(_)
            | Err(FrameError::Torn(_))
            | Err(FrameError::Incompatible(_))
            | Err(FrameError::Malformed(_)) => {
                torn_skipped += 1;
                skipped_ticks.push(tick);
            }
        }
    }
    Recovery {
        good: None,
        torn_skipped,
        skipped_ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::encode_frame;
    use serde::Value;

    fn frame(tick: u64) -> Vec<u8> {
        encode_frame("t", 1, tick, &Value::from(tick))
    }

    #[test]
    fn recover_picks_newest_good() {
        let mut store = MemStore::new();
        for t in [10, 20, 30] {
            store.put(t, &frame(t)).unwrap();
        }
        let r = recover_latest(&store, "t", 1);
        assert_eq!(r.good.as_ref().unwrap().0.tick, 30);
        assert_eq!(r.torn_skipped, 0);
    }

    #[test]
    fn torn_newest_falls_back() {
        let mut store = MemStore::new();
        for t in [10, 20, 30] {
            store.put(t, &frame(t)).unwrap();
        }
        store.tear_truncate(30, 9);
        let r = recover_latest(&store, "t", 1);
        assert_eq!(r.good.as_ref().unwrap().0.tick, 20);
        assert_eq!(r.torn_skipped, 1);
        assert_eq!(r.skipped_ticks, vec![30]);
    }

    #[test]
    fn all_torn_is_honest_restart() {
        let mut store = MemStore::new();
        for t in [10, 20] {
            store.put(t, &frame(t)).unwrap();
        }
        store.tear_truncate(10, 3);
        store.tear_bitflip(20, 15, 2);
        let r = recover_latest(&store, "t", 1);
        assert!(r.must_restart());
        assert_eq!(r.torn_skipped, 2);
    }

    #[test]
    fn wrong_kind_or_version_is_skipped() {
        let mut store = MemStore::new();
        store
            .put(5, &encode_frame("other", 1, 5, &Value::Null))
            .unwrap();
        store
            .put(7, &encode_frame("t", 99, 7, &Value::Null))
            .unwrap();
        store.put(3, &frame(3)).unwrap();
        let r = recover_latest(&store, "t", 1);
        assert_eq!(r.good.as_ref().unwrap().0.tick, 3);
        assert_eq!(r.torn_skipped, 2);
    }

    #[test]
    fn dir_store_round_trip_and_atomic_overwrite() {
        let dir = std::env::temp_dir().join(format!("fsnp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DirStore::open(&dir).unwrap();
        store.put(12, &frame(12)).unwrap();
        store.put(7, &frame(7)).unwrap();
        assert_eq!(store.ticks(), vec![7, 12]);
        assert_eq!(store.get(12).unwrap(), frame(12));
        // overwrite goes through the same atomic path
        store.put(12, &frame(13)).unwrap();
        assert_eq!(store.get(12).unwrap(), frame(13));
        // no temp litter left behind
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(litter.is_empty());
        let r = recover_latest(&store, "t", 1);
        assert_eq!(r.good.unwrap().0.tick, 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
