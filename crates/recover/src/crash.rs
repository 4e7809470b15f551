//! Deterministic crash injection.
//!
//! A [`CrashPlan`] models a process death at a virtual tick. The tick is
//! drawn from `mix(seed, counter)` — the same SplitMix64 finalizer the
//! fault layer (`simnet::fault`) and fedsim's jitter use — so crash
//! scenarios replay exactly: same seed ⇒ same kill point, on any host.
//! A plan can additionally model the nastiest real-world failure: the
//! checkpoint that was being written *when* the process died survives
//! only as a torn prefix.

/// SplitMix64 finalizer: the workspace's standard counter→stream mixer.
pub fn mix(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic kill at a virtual tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Virtual tick at which the process dies: steps `>= crash_tick`
    /// never execute.
    pub crash_tick: u64,
    /// When true, a checkpoint due at the crash tick is written as a
    /// torn prefix (the write was in flight when the process died)
    /// instead of being skipped cleanly.
    pub torn_final: bool,
}

impl CrashPlan {
    /// Kill at exactly `tick`, clean (no torn checkpoint).
    pub fn at(tick: u64) -> Self {
        CrashPlan {
            crash_tick: tick,
            torn_final: false,
        }
    }

    /// Kill at a tick drawn deterministically from `mix(seed, counter)`
    /// in `[1, horizon]`; the same draw decides whether the in-flight
    /// checkpoint tears.
    pub fn drawn(seed: u64, counter: u64, horizon: u64) -> Self {
        let z = mix(seed, counter);
        let span = horizon.max(1);
        CrashPlan {
            crash_tick: 1 + (z % span),
            // an independent bit from the same draw
            torn_final: (z >> 63) == 1,
        }
    }

    /// Should the run die before executing the step at `tick`?
    pub fn fires_at(&self, tick: u64) -> bool {
        tick >= self.crash_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drawn_is_deterministic_and_in_range() {
        for counter in 0..200u64 {
            let a = CrashPlan::drawn(0xFEED, counter, 100);
            let b = CrashPlan::drawn(0xFEED, counter, 100);
            assert_eq!(a, b);
            assert!((1..=100).contains(&a.crash_tick));
        }
        // different seeds/counters actually move the kill point
        let distinct: std::collections::BTreeSet<u64> = (0..50)
            .map(|c| CrashPlan::drawn(7, c, 1000).crash_tick)
            .collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    fn some_plans_tear_and_some_do_not() {
        let torn = (0..64)
            .filter(|&c| CrashPlan::drawn(1, c, 10).torn_final)
            .count();
        assert!(torn > 0 && torn < 64);
    }
}
