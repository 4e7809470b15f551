//! The simulation clock.
//!
//! The study spans 15 months of 5-minute epochs; live crawling obviously
//! cannot wait that long, so the simulated fediverse runs on a virtual
//! [`Epoch`] counter that tests and drivers advance manually (or via an
//! optional real-time ticker that compresses epochs to milliseconds).

use fediscope_model::time::{Epoch, WINDOW_EPOCHS};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

    /// Advance by `n` epochs (clamped to the window end); returns the new time.
    pub fn advance(&self, n: u32) -> Epoch {
        let mut cur = self.epoch.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_add(n).min(WINDOW_EPOCHS);
            match self.epoch.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Epoch(next),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Spawn a background ticker advancing one epoch every `tick` until
    /// `until` (or the window end). Returns the task handle; abort it to
    /// stop early.
    pub fn run_ticker(&self, tick: Duration, until: Epoch) -> tokio::task::JoinHandle<()> {
        let clock = self.clone();
        tokio::spawn(async move {
            let mut interval = tokio::time::interval(tick);
            interval.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);
            loop {
                interval.tick().await;
                let now = clock.advance(1);
                if now >= until || now.0 >= WINDOW_EPOCHS {
                    break;
                }
            }
        })
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
        assert_eq!(c.advance(5), Epoch(105));
        assert_eq!(c.now(), Epoch(105));
    }

    #[test]
    fn clamps_to_window() {
        let c = SimClock::starting_at(Epoch(WINDOW_EPOCHS - 1));
        assert_eq!(c.advance(1000), Epoch(WINDOW_EPOCHS));
        c.set(Epoch(u32::MAX));
        assert_eq!(c.now(), Epoch(WINDOW_EPOCHS));
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(3);
        assert_eq!(b.now(), Epoch(3));
    }

    #[tokio::test]
    async fn ticker_advances_and_stops() {
        let c = SimClock::new();
        let handle = c.run_ticker(Duration::from_millis(1), Epoch(10));
        handle.await.unwrap();
        assert_eq!(c.now(), Epoch(10));
    }
}
