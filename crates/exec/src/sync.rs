//! Async synchronisation: a counting [`Semaphore`] (the crawler's
//! politeness concurrency gate) and a [`watch`] channel (the server's
//! graceful-shutdown signal).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

struct SemState {
    permits: usize,
    waiters: VecDeque<Waker>,
}

/// Counting semaphore; permits are acquired via `Arc<Semaphore>` so they
/// can outlive the caller's borrow (tokio's `acquire_owned` shape).
pub struct Semaphore {
    state: Mutex<SemState>,
}

/// Error for a closed semaphore. This implementation never closes, so it
/// is never produced — it exists so `acquire_owned().await?`-style call
/// sites type-check identically against real tokio.
#[derive(Debug)]
pub struct AcquireError(());

impl std::fmt::Display for AcquireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "semaphore closed")
    }
}

impl std::error::Error for AcquireError {}

impl Semaphore {
    /// A semaphore with `permits` slots.
    pub fn new(permits: usize) -> Self {
        Self {
            state: Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Acquire one permit, waiting FIFO if none are free.
    pub fn acquire_owned(self: Arc<Self>) -> AcquireOwned {
        AcquireOwned { sem: self }
    }
}

/// Future returned by [`Semaphore::acquire_owned`].
pub struct AcquireOwned {
    sem: Arc<Semaphore>,
}

impl Future for AcquireOwned {
    type Output = Result<OwnedSemaphorePermit, AcquireError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.sem.state.lock();
        if s.permits > 0 {
            s.permits -= 1;
            drop(s);
            Poll::Ready(Ok(OwnedSemaphorePermit {
                sem: self.sem.clone(),
            }))
        } else {
            s.waiters.push_back(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// RAII permit; dropping it releases the slot and wakes the next waiter.
pub struct OwnedSemaphorePermit {
    sem: Arc<Semaphore>,
}

impl Drop for OwnedSemaphorePermit {
    fn drop(&mut self) {
        let mut s = self.sem.state.lock();
        s.permits += 1;
        if let Some(w) = s.waiters.pop_front() {
            w.wake();
        }
    }
}

/// Single-value broadcast channel: receivers observe the latest value and
/// can await changes. Mirrors `tokio::sync::watch`.
pub mod watch {
    use super::*;

    struct Channel<T> {
        value: Mutex<T>,
        version: Mutex<u64>,
        sender_gone: Mutex<bool>,
        wakers: Mutex<Vec<Waker>>,
    }

    impl<T> Channel<T> {
        fn notify(&self) {
            for w in self.wakers.lock().drain(..) {
                w.wake();
            }
        }
    }

    /// Create a channel seeded with `init`.
    pub fn channel<T>(init: T) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Channel {
            value: Mutex::new(init),
            version: Mutex::new(0),
            sender_gone: Mutex::new(false),
            wakers: Mutex::new(Vec::new()),
        });
        (
            Sender { chan: chan.clone() },
            Receiver {
                chan,
                seen_version: 0,
            },
        )
    }

    /// Error returned by [`Sender::send`]; never produced here (values are
    /// accepted even with no receivers), kept for tokio signature parity.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::changed`] when the sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError(());

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "watch channel closed")
        }
    }

    impl std::error::Error for RecvError {}

    /// Writing half.
    pub struct Sender<T> {
        chan: Arc<Channel<T>>,
    }

    impl<T> Sender<T> {
        /// Publish a new value, waking all waiting receivers.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            *self.chan.value.lock() = value;
            *self.chan.version.lock() += 1;
            self.chan.notify();
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            *self.chan.sender_gone.lock() = true;
            self.chan.notify();
        }
    }

    /// Reading half; clones observe changes independently.
    pub struct Receiver<T> {
        chan: Arc<Channel<T>>,
        seen_version: u64,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Self {
                chan: self.chan.clone(),
                seen_version: self.seen_version,
            }
        }
    }

    impl<T: Clone> Receiver<T> {
        /// Latest value (cloned; this stand-in has no borrow guard).
        pub fn borrow(&self) -> T {
            self.chan.value.lock().clone()
        }
    }

    impl<T> Receiver<T> {
        /// Wait until a value newer than the last one seen is published.
        pub fn changed(&mut self) -> Changed<'_, T> {
            Changed { rx: self }
        }
    }

    /// Future returned by [`Receiver::changed`].
    pub struct Changed<'a, T> {
        rx: &'a mut Receiver<T>,
    }

    impl<T> Future for Changed<'_, T> {
        type Output = Result<(), RecvError>;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let chan = self.rx.chan.clone();
            let version = *chan.version.lock();
            if version != self.rx.seen_version {
                self.rx.seen_version = version;
                return Poll::Ready(Ok(()));
            }
            if *chan.sender_gone.lock() {
                return Poll::Ready(Err(RecvError(())));
            }
            chan.wakers.lock().push(cx.waker().clone());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{spawn, Runtime};
    use crate::time::sleep;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn semaphore_bounds_concurrency() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let sem = Arc::new(Semaphore::new(2));
            let peak = Arc::new(AtomicUsize::new(0));
            let live = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let sem = sem.clone();
                    let peak = peak.clone();
                    let live = live.clone();
                    spawn(async move {
                        let _permit = sem.acquire_owned().await.unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        sleep(Duration::from_millis(1)).await;
                        live.fetch_sub(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.await.unwrap();
            }
            assert!(peak.load(Ordering::SeqCst) <= 2);
        });
    }

    #[test]
    fn watch_signals_change_and_close() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let (tx, mut rx) = watch::channel(false);
            let waiter = spawn(async move {
                rx.changed().await.unwrap();
                let after_send = rx.borrow();
                let closed = rx.changed().await;
                (after_send, closed.is_err())
            });
            sleep(Duration::from_millis(1)).await;
            tx.send(true).unwrap();
            sleep(Duration::from_millis(1)).await;
            drop(tx);
            let (after_send, closed) = waiter.await.unwrap();
            assert!(after_send);
            assert!(closed);
        });
    }
}
