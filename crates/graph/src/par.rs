//! Deterministic parallel fan-out helpers.
//!
//! The resilience analyses run several *independent* sweeps (Fig. 12's
//! Mastodon vs. Twitter attack, Fig. 13's four ranked/grouped orders,
//! random-baseline Monte-Carlo trials). These helpers run such independent
//! jobs on OS threads via `std::thread::scope`.
//!
//! The signatures intentionally mirror `rayon::join` / a slice `map`, so
//! swapping in rayon (unavailable in this offline build environment — see
//! the workspace manifest's vendor notes) is a mechanical change. Results
//! are returned **in input order** regardless of scheduling, so any
//! seed-derived output is reproducible run-over-run.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Explicit thread-count override (0 = follow the machine), set by
/// [`set_thread_override`]. The `bench` binary uses this to pin
/// `--threads N` runs; library code never writes it.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker-thread budget process-wide (`None` restores the
/// machine default). Intended for bench/CLI drivers that want to record
/// wall-clock at a pinned thread count; the engines' output is
/// bit-identical at any setting, so this only affects scheduling.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Run two closures, potentially in parallel, returning both results.
///
/// `b` runs on a spawned scoped thread while `a` runs on the caller's
/// thread, so the call adds at most one thread of overhead and never
/// deadlocks under nesting.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        // Re-raise the worker's own panic payload so assertion messages
        // from fanned-out jobs survive the thread boundary.
        let rb = hb.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (ra, rb)
    })
}

/// Number of worker threads used by [`parallel_map`]: the machine's
/// available parallelism, unless pinned via [`set_thread_override`].
pub fn thread_budget() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        t => t,
    }
}

/// Map `f` over `items` on up to [`thread_budget`] threads, returning
/// results in input order (deterministic regardless of scheduling).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_budget().min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Interleaved assignment balances heavy-tailed workloads better than
    // contiguous chunking; each worker writes into its own slot vector and
    // the slots are stitched back in input order afterwards.
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for slots in &mut per_worker {
        for (i, r) in slots.drain(..) {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn join_nests() {
        let ((a, b), c) = join(|| join(|| 1, || 2), || 3);
        assert_eq!((a, b, c), (1, 2, 3));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_runs_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = parallel_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_override_round_trips() {
        // No other test in this binary touches the override, and this test
        // restores the default before returning.
        set_thread_override(Some(3));
        assert_eq!(thread_budget(), 3);
        set_thread_override(None);
        assert!(thread_budget() >= 1);
    }
}
