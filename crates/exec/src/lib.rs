//! # fediscope-exec
//!
//! A deterministic, single-threaded async executor with **virtual time** and
//! an **in-memory TCP transport** — the engine the wire stack (`httpwire`,
//! `simnet`, `crawler`) runs on.
//!
//! The study's measurement loop (crawler ↔ simulated fediverse) needs an
//! async runtime, but a real multi-threaded runtime would make every crawl
//! transcript a race: task wake order, timer coalescing, and socket
//! scheduling all vary run to run. This crate replaces all of that with a
//! machine that is *bit-reproducible*:
//!
//! - **Scheduling** is a FIFO ready queue polled by one thread. A task woken
//!   twice is polled twice; wake order is program order, never OS order.
//!   Each task's waker is built once at spawn and lent to every poll.
//! - **Time** is virtual. `sleep` and `timeout` register deadlines in a
//!   binary heap keyed by `(deadline, sequence)`. When the ready queue
//!   drains, the executor jumps the clock to the earliest deadline — a
//!   15-month crawl of 5-minute polls runs in milliseconds of wall time.
//! - **Networking** is a per-runtime port registry handing out duplex
//!   in-memory byte pipes. `TcpListener::bind("127.0.0.1:0")` allocates
//!   ports from a counter, so addresses are identical across runs. Streams
//!   support orderly shutdown *and* hard resets (`ECONNRESET`), which the
//!   fault injector uses to model instances dying mid-request. Reads copy
//!   straight out of the pipe: `read` fills a slice, and tokio's
//!   `AsyncReadExt::read_buf` appends everything buffered to a `BytesMut`,
//!   so a caller needs no scratch chunk.
//!
//! If nothing is ready and no timer is pending, the executor panics with a
//! deadlock report rather than hanging — a stuck crawl is a bug, not a wait.
//!
//! The public surface deliberately mirrors the subset of tokio the workspace
//! uses; `vendor/tokio` re-exports it under tokio's module layout so the
//! async code compiles unchanged against either engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod future;
pub mod io;
pub mod net;
pub mod runtime;
pub mod sync;
pub mod time;

pub use runtime::{spawn, JoinError, JoinHandle, Runtime};
