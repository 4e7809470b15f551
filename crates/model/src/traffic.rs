//! Toot-traffic arenas: tick-major event columns for the delivery simulator.
//!
//! The federation simulator (`simnet::fedsim`) consumes toot events as a
//! time-sorted columnar arena, the same CSR discipline as
//! [`crate::schedule::OutageArena`]: one `offsets` column indexed by tick and
//! one flat `authors` column. Building it is a counting sort over the
//! (unsorted) event stream, so generators can emit user-major and the arena
//! still comes out tick-major and canonical — two streams with the same
//! multiset of events build bit-identical arenas regardless of arrival
//! order.

/// Tick-major CSR of toot events over a simulation horizon.
///
/// `authors_at(t)` is the ascending-sorted slice of author user ids that
/// toot at tick `t` (a user tooting twice in one tick appears twice). The
/// canonical within-tick order is what makes downstream fan-out
/// deterministic at any shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TootArena {
    horizon: u32,
    /// `horizon + 1` offsets into `authors`; tick `t` owns
    /// `authors[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<u32>,
    /// Author user ids, ascending within each tick.
    authors: Vec<u32>,
}

impl TootArena {
    /// Counting-sort build from an arbitrary `(tick, author)` stream.
    ///
    /// Events at `tick >= horizon` are rejected with a panic (the generator
    /// controls the horizon; silently dropping would break conservation
    /// accounting downstream).
    pub fn from_events(horizon: u32, events: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let events: Vec<(u32, u32)> = events.into_iter().collect();
        let mut counts = vec![0u32; horizon as usize + 1];
        for &(tick, _) in &events {
            assert!(
                tick < horizon,
                "toot event at tick {tick} >= horizon {horizon}"
            );
            counts[tick as usize] += 1;
        }
        // Exclusive prefix sums become the offsets column.
        let mut offsets = vec![0u32; horizon as usize + 1];
        let mut acc = 0u32;
        for t in 0..horizon as usize {
            offsets[t] = acc;
            acc += counts[t];
        }
        offsets[horizon as usize] = acc;
        // Scatter, then canonicalise each tick's slice by author id.
        let mut authors = vec![0u32; acc as usize];
        let mut cursor = offsets.clone();
        for &(tick, author) in &events {
            let at = &mut cursor[tick as usize];
            authors[*at as usize] = author;
            *at += 1;
        }
        for t in 0..horizon as usize {
            authors[offsets[t] as usize..offsets[t + 1] as usize].sort_unstable();
        }
        TootArena {
            horizon,
            offsets,
            authors,
        }
    }

    /// The simulation horizon this arena covers (ticks `0..horizon`).
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Total number of toot events.
    pub fn n_toots(&self) -> usize {
        self.authors.len()
    }

    /// Author ids tooting at `tick`, ascending (empty past the horizon).
    pub fn authors_at(&self, tick: u32) -> &[u32] {
        if tick >= self.horizon {
            return &[];
        }
        let lo = self.offsets[tick as usize] as usize;
        let hi = self.offsets[tick as usize + 1] as usize;
        &self.authors[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sort_is_canonical() {
        // user-major arrival, shuffled ticks
        let a = TootArena::from_events(4, [(3, 7), (0, 7), (2, 7), (0, 2), (2, 1), (0, 5)]);
        // tick-major arrival of the same multiset
        let b = TootArena::from_events(4, [(0, 5), (0, 2), (0, 7), (2, 1), (2, 7), (3, 7)]);
        assert_eq!(a, b);
        assert_eq!(a.authors_at(0), &[2, 5, 7]);
        assert_eq!(a.authors_at(1), &[] as &[u32]);
        assert_eq!(a.authors_at(2), &[1, 7]);
        assert_eq!(a.n_toots(), 6);
    }

    #[test]
    fn duplicates_and_bounds() {
        let a = TootArena::from_events(2, [(1, 4), (1, 4)]);
        assert_eq!(a.authors_at(1), &[4, 4]);
        assert_eq!(a.authors_at(99), &[] as &[u32]);
        assert_eq!(TootArena::from_events(3, []).n_toots(), 0);
    }

    #[test]
    #[should_panic(expected = ">= horizon")]
    fn rejects_past_horizon() {
        let _ = TootArena::from_events(2, [(2, 0)]);
    }
}
