//! The simulation clock.
//!
//! The study spans 15 months of 5-minute epochs; live crawling obviously
//! cannot wait that long, so the simulated fediverse runs on a virtual
//! [`Epoch`] counter that its callers set to the epoch they measure.

use fediscope_model::time::{Epoch, WINDOW_EPOCHS};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Shared, thread-safe virtual clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    epoch: Arc<AtomicU32>,
}

impl SimClock {
    /// A clock starting at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at a specific epoch.
    pub fn starting_at(e: Epoch) -> Self {
        let c = Self::new();
        c.set(e);
        c
    }

    /// Current virtual time.
    pub fn now(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::Acquire))
    }

    /// Jump to an absolute epoch.
    pub fn set(&self, e: Epoch) {
        self.epoch.store(e.0.min(WINDOW_EPOCHS), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), Epoch(0));
    }

    #[test]
    fn set_and_advance() {
        let c = SimClock::new();
        c.set(Epoch(100));
        assert_eq!(c.now(), Epoch(100));
        c.set(Epoch(105));
        assert_eq!(c.now(), Epoch(105));
    }

    #[test]
    fn clamps_to_window() {
        let c = SimClock::starting_at(Epoch(WINDOW_EPOCHS + 1000));
        assert_eq!(c.now(), Epoch(WINDOW_EPOCHS));
        c.set(Epoch(u32::MAX));
        assert_eq!(c.now(), Epoch(WINDOW_EPOCHS));
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.set(Epoch(3));
        assert_eq!(b.now(), Epoch(3));
    }
}
