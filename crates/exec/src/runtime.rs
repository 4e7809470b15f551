//! The deterministic single-threaded runtime: task queue, virtual-time
//! timer wheel, and the `block_on` drive loop.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

/// Task id 0 is reserved for the `block_on` root future.
const ROOT: u64 = 0;

type BoxedTask = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// A spawned task: its future and the waker every poll lends it. The waker
/// is built once at spawn, so a poll allocates nothing of its own.
struct Task {
    future: BoxedTask,
    waker: Waker,
}

/// One pending virtual-time deadline. Ordered by `(deadline, seq)` so that
/// timers registered earlier fire earlier on ties — total order, no races.
struct TimerEntry {
    deadline: u64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest deadline is on top.
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

/// State shared between the runtime, its tasks, and its wakers.
pub(crate) struct Shared {
    /// FIFO queue of woken task ids.
    queue: Mutex<VecDeque<u64>>,
    /// Live spawned tasks (the root future lives on `block_on`'s stack).
    tasks: Mutex<HashMap<u64, Task>>,
    /// Pending virtual-time deadlines.
    timers: Mutex<BinaryHeap<TimerEntry>>,
    timer_seq: AtomicU64,
    /// Virtual now, in nanoseconds since runtime creation.
    now: AtomicU64,
    next_task: AtomicU64,
    root_ready: AtomicBool,
    /// In-memory network namespace owned by this runtime.
    pub(crate) net: crate::net::Registry,
}

impl Shared {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            queue: Mutex::new(VecDeque::new()),
            tasks: Mutex::new(HashMap::new()),
            timers: Mutex::new(BinaryHeap::new()),
            timer_seq: AtomicU64::new(0),
            now: AtomicU64::new(0),
            next_task: AtomicU64::new(ROOT + 1),
            root_ready: AtomicBool::new(false),
            net: crate::net::Registry::new(),
        })
    }

    /// Current virtual time in nanoseconds.
    pub(crate) fn now(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    /// Register `waker` to fire at virtual `deadline`.
    pub(crate) fn register_timer(&self, deadline: u64, waker: Waker) {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        self.timers.lock().push(TimerEntry {
            deadline,
            seq,
            waker,
        });
    }

    fn waker_for(self: &Arc<Self>, id: u64) -> Waker {
        Arc::new(TaskWaker {
            id,
            shared: Arc::downgrade(self),
        })
        .into()
    }

    fn spawn_task<F>(self: &Arc<Self>, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let id = self.next_task.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(Mutex::new(JoinState::<F::Output> {
            result: None,
            waker: None,
        }));
        let completion = state.clone();
        let wrapped = async move {
            let out = fut.await;
            let mut s = completion.lock();
            s.result = Some(Ok(out));
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        };
        let task = Task {
            future: Box::pin(wrapped),
            waker: self.waker_for(id),
        };
        self.tasks.lock().insert(id, task);
        self.queue.lock().push_back(id);
        JoinHandle {
            id,
            shared: Arc::downgrade(self),
            state,
        }
    }

    /// Poll one spawned task. The task is taken out of the map for the
    /// duration of the poll so a re-entrant self-wake cannot alias it.
    fn poll_task(self: &Arc<Self>, id: u64) {
        let Some(mut task) = self.tasks.lock().remove(&id) else {
            return; // completed or aborted; stale queue entry
        };
        let mut cx = Context::from_waker(&task.waker);
        if task.future.as_mut().poll(&mut cx).is_pending() {
            self.tasks.lock().insert(id, task);
        }
    }

    /// Jump virtual time forward to the earliest pending deadline and wake
    /// everything due. Returns `false` when no timers are pending.
    fn advance_time(&self) -> bool {
        let mut timers = self.timers.lock();
        let Some(top) = timers.peek() else {
            return false;
        };
        let target = top.deadline.max(self.now.load(Ordering::Acquire));
        self.now.store(target, Ordering::Release);
        while let Some(top) = timers.peek() {
            if top.deadline > target {
                break;
            }
            let entry = timers.pop().expect("peeked entry exists");
            entry.waker.wake();
        }
        true
    }
}

struct TaskWaker {
    id: u64,
    shared: Weak<Shared>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let Some(shared) = self.shared.upgrade() else {
            return; // runtime already gone; wake is a no-op
        };
        if self.id == ROOT {
            shared.root_ready.store(true, Ordering::Release);
        } else {
            shared.queue.lock().push_back(self.id);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// Run `f` with the thread's active runtime, panicking with a usable
/// message when called outside `block_on`.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Shared>) -> R) -> R {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let shared = borrow.as_ref().unwrap_or_else(|| {
            panic!(
                "fediscope_exec: no runtime active on this thread \
                 (spawn/sleep/bind must run inside Runtime::block_on)"
            )
        });
        f(shared)
    })
}

struct EnterGuard;

impl EnterGuard {
    fn enter(shared: Arc<Shared>) -> Self {
        CURRENT.with(|c| {
            let mut slot = c.borrow_mut();
            assert!(
                slot.is_none(),
                "fediscope_exec: block_on called re-entrantly inside a runtime"
            );
            *slot = Some(shared);
        });
        EnterGuard
    }
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().take());
    }
}

/// The deterministic single-threaded runtime.
pub struct Runtime {
    shared: Arc<Shared>,
}

impl Runtime {
    /// Build a runtime. Infallible, but returns `io::Result` to mirror the
    /// tokio constructor the call sites were written against.
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            shared: Shared::new(),
        })
    }

    /// Build a runtime whose virtual clock starts at `nanos` instead of
    /// zero. A process resumed from a checkpoint continues the snapshot's
    /// virtual timeline: deadlines seeded from "now" (backoff timers,
    /// retry-after waits, probe schedules) land at the same virtual
    /// instants they would have in the uninterrupted run, instead of
    /// being re-anchored to a rewound clock.
    pub fn starting_at(nanos: u64) -> std::io::Result<Self> {
        let rt = Self::new()?;
        rt.shared.now.store(nanos, Ordering::Release);
        Ok(rt)
    }

    /// Drive `fut` (and every task it spawns) to completion, advancing
    /// virtual time whenever the ready queue drains.
    ///
    /// Panics with a deadlock report if the root future is pending while no
    /// task is runnable and no timer is registered.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let shared = &self.shared;
        let _guard = EnterGuard::enter(shared.clone());
        let mut root = std::pin::pin!(fut);
        let root_waker = shared.waker_for(ROOT);
        shared.root_ready.store(true, Ordering::Release);
        loop {
            if shared.root_ready.swap(false, Ordering::AcqRel) {
                let mut cx = Context::from_waker(&root_waker);
                if let Poll::Ready(out) = root.as_mut().poll(&mut cx) {
                    return out;
                }
                continue;
            }
            let next = shared.queue.lock().pop_front();
            if let Some(id) = next {
                shared.poll_task(id);
                continue;
            }
            if shared.advance_time() {
                continue;
            }
            panic!(
                "fediscope_exec: deadlock — root future pending, ready queue \
                 empty, no timers registered ({} spawned tasks stuck)",
                shared.tasks.lock().len()
            );
        }
    }
}

/// Builder mirroring `tokio::runtime::Builder` for the call sites that use
/// `new_current_thread().enable_time().build()`. Every configuration knob is
/// a no-op: the runtime is always current-thread with virtual time enabled.
#[derive(Debug, Default)]
pub struct Builder {}

impl Builder {
    /// A current-thread builder (the only flavour that exists here).
    pub fn new_current_thread() -> Self {
        Self {}
    }

    /// Accepted for compatibility; virtual time is always on.
    pub fn enable_time(&mut self) -> &mut Self {
        self
    }

    /// Build the runtime.
    pub fn build(&mut self) -> std::io::Result<Runtime> {
        Runtime::new()
    }
}

/// Spawn a task onto the thread's active runtime.
///
/// Panics when called outside [`Runtime::block_on`].
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    with_current(|shared| shared.spawn_task(fut))
}

struct JoinState<T> {
    result: Option<Result<T, JoinError>>,
    waker: Option<Waker>,
}

/// Error returned by [`JoinHandle`] when the task was aborted.
#[derive(Debug)]
pub struct JoinError {
    cancelled: bool,
}

impl JoinError {
    /// Did the task get cancelled via [`JoinHandle::abort`]?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task was cancelled")
    }
}

impl std::error::Error for JoinError {}

/// Owned handle to a spawned task; awaiting it yields the task's output.
pub struct JoinHandle<T> {
    id: u64,
    shared: Weak<Shared>,
    state: Arc<Mutex<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Abort the task: it is dropped without being polled again and the
    /// handle resolves to a cancelled [`JoinError`].
    pub fn abort(&self) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let task = shared.tasks.lock().remove(&self.id);
        let mut s = self.state.lock();
        if task.is_some() && s.result.is_none() {
            s.result = Some(Err(JoinError { cancelled: true }));
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        }
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut s = self.state.lock();
        if let Some(result) = s.result.take() {
            return Poll::Ready(result);
        }
        s.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn block_on_plain_value() {
        let rt = Runtime::new().unwrap();
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawn_and_join() {
        let rt = Runtime::new().unwrap();
        let out = rt.block_on(async {
            let h = spawn(async { 7u32 });
            h.await.unwrap()
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let order = |seed_tasks: usize| {
            let rt = Runtime::new().unwrap();
            rt.block_on(async move {
                let log = Arc::new(Mutex::new(Vec::new()));
                let handles: Vec<_> = (0..seed_tasks)
                    .map(|i| {
                        let log = log.clone();
                        spawn(async move {
                            crate::time::sleep(Duration::from_millis(i as u64 % 3)).await;
                            log.lock().push(i);
                        })
                    })
                    .collect();
                for h in handles {
                    h.await.unwrap();
                }
                let v = log.lock().clone();
                v
            })
        };
        assert_eq!(order(8), order(8), "same program, same schedule");
    }

    #[test]
    fn abort_cancels() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let h = spawn(async {
                crate::time::sleep(Duration::from_secs(3600)).await;
            });
            h.abort();
            let err = h.await.unwrap_err();
            assert!(err.is_cancelled());
        });
    }

    #[test]
    fn starting_at_offsets_the_virtual_clock() {
        let rt = Runtime::starting_at(5_000_000_000).unwrap();
        rt.block_on(async {
            assert_eq!(crate::time::now_nanos(), 5_000_000_000);
            crate::time::sleep(Duration::from_millis(3)).await;
            assert_eq!(crate::time::now_nanos(), 5_003_000_000);
        });
        // and the default constructor still starts at zero
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            assert_eq!(crate::time::now_nanos(), 0);
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics_instead_of_hanging() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            std::future::pending::<()>().await;
        });
    }

    #[test]
    fn virtual_time_skips_ahead() {
        let rt = Runtime::new().unwrap();
        let wall = std::time::Instant::now();
        rt.block_on(async {
            // 15 months of 5-minute epochs would be unbearable in wall time.
            crate::time::sleep(Duration::from_secs(39_000_000)).await;
        });
        assert!(wall.elapsed() < Duration::from_secs(5));
    }
}
