//! Virtual time: `sleep` and `timeout` over the runtime's deterministic
//! clock. No wall-clock syscalls are involved; deadlines are nanosecond
//! offsets that the executor jumps between when idle.

use crate::runtime::with_current;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

fn dur_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Current virtual time in nanoseconds since the runtime was created.
///
/// Panics outside a runtime.
pub fn now_nanos() -> u64 {
    with_current(|shared| shared.now())
}

/// Future returned by [`sleep`].
#[derive(Debug)]
pub struct Sleep {
    deadline: u64,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        with_current(|shared| {
            if shared.now() >= self.deadline {
                Poll::Ready(())
            } else {
                shared.register_timer(self.deadline, cx.waker().clone());
                Poll::Pending
            }
        })
    }
}

/// Sleep for `d` of virtual time.
///
/// Must be called (created) inside a runtime, like its tokio counterpart.
pub fn sleep(d: Duration) -> Sleep {
    let deadline = with_current(|shared| shared.now().saturating_add(dur_nanos(d)));
    Sleep { deadline }
}

/// Error returned by [`timeout`] when the deadline elapsed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed(());

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline has elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    sleep: Sleep,
    // Boxed so the wrapper stays `Unpin` without unsafe pin projection.
    fut: Pin<Box<F>>,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(out) = self.fut.as_mut().poll(cx) {
            return Poll::Ready(Ok(out));
        }
        match Pin::new(&mut self.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed(()))),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Run `fut` with a virtual-time deadline of `d`.
pub fn timeout<F: Future>(d: Duration, fut: F) -> Timeout<F> {
    Timeout {
        sleep: sleep(d),
        fut: Box::pin(fut),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{spawn, Runtime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn sleep_advances_virtual_clock() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let t0 = now_nanos();
            sleep(Duration::from_millis(250)).await;
            assert_eq!(now_nanos() - t0, 250_000_000);
        });
    }

    #[test]
    fn sleeps_fire_in_deadline_order() {
        let rt = Runtime::new().unwrap();
        let order = rt.block_on(async {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for (i, ms) in [30u64, 10, 20].into_iter().enumerate() {
                let log = log.clone();
                handles.push(spawn(async move {
                    sleep(Duration::from_millis(ms)).await;
                    log.lock().push(i);
                }));
            }
            for h in handles {
                h.await.unwrap();
            }
            let v = log.lock().clone();
            v
        });
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn timeout_wins_and_loses() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let fast = timeout(Duration::from_millis(10), async { 5u8 }).await;
            assert_eq!(fast, Ok(5));
            let slow = timeout(Duration::from_millis(10), async {
                sleep(Duration::from_millis(50)).await;
                5u8
            })
            .await;
            assert!(slow.is_err());
            // the loser's timer must not have dragged virtual time forward
            assert_eq!(now_nanos(), 10_000_000);
        });
    }
}
