//! In-memory TCP: a per-runtime port registry handing out duplex byte
//! pipes. The API mirrors `tokio::net` closely enough that `httpwire`
//! compiles against it unchanged.
//!
//! Fidelity notes:
//! - `bind("127.0.0.1:0")` allocates ports from a deterministic counter, so
//!   addresses (and everything derived from them) are identical across runs.
//! - A connection is established at `connect` time by pushing the server
//!   half onto the listener's backlog (SYN queue), so connecting never
//!   blocks on `accept`.
//! - Dropping a stream closes both directions (peer reads EOF, peer writes
//!   get `BrokenPipe`); [`TcpStream::reset`] models an RST (peer reads *and*
//!   writes fail with `ConnectionReset`, buffered data is discarded) — the
//!   hook the fault injector uses for mid-request instance death.
//! - Writes never block (unbounded buffers): fine for request/response
//!   traffic, wrong for congestion experiments. Documented trade-off.

use crate::runtime::with_current;
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Waker};

/// First port handed out for `:0` binds.
const EPHEMERAL_BASE: u64 = 40_000;
/// First port handed out for client sockets.
const CLIENT_BASE: u64 = 51_000;

#[derive(Default)]
struct PipeInner {
    buf: VecDeque<u8>,
    /// Orderly close: reads drain the buffer then return EOF.
    closed: bool,
    /// Hard reset: reads and writes fail, buffered bytes are discarded.
    reset: bool,
    reader: Option<Waker>,
}

#[derive(Default)]
struct Pipe {
    inner: Mutex<PipeInner>,
}

impl Pipe {
    fn close(&self) {
        let mut p = self.inner.lock();
        p.closed = true;
        if let Some(w) = p.reader.take() {
            w.wake();
        }
    }

    fn reset(&self) {
        let mut p = self.inner.lock();
        p.reset = true;
        p.buf.clear();
        if let Some(w) = p.reader.take() {
            w.wake();
        }
    }
}

struct ListenerState {
    backlog: Mutex<VecDeque<(TcpStream, SocketAddr)>>,
    acceptor: Mutex<Option<Waker>>,
    open: AtomicBool,
}

/// The runtime-owned network namespace: bound listeners + port counters.
pub(crate) struct Registry {
    listeners: Mutex<HashMap<u16, Arc<ListenerState>>>,
    next_ephemeral: AtomicU64,
    next_client: AtomicU64,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            listeners: Mutex::new(HashMap::new()),
            next_ephemeral: AtomicU64::new(EPHEMERAL_BASE),
            next_client: AtomicU64::new(CLIENT_BASE),
        }
    }

    fn alloc_port(&self, counter: &AtomicU64) -> u16 {
        loop {
            let p = counter.fetch_add(1, Ordering::Relaxed);
            let p = (p % u64::from(u16::MAX)) as u16;
            if !self.listeners.lock().contains_key(&p) {
                return p;
            }
        }
    }
}

/// Listening socket in the runtime's in-memory namespace.
pub struct TcpListener {
    state: Arc<ListenerState>,
    shared: Weak<crate::runtime::Shared>,
    addr: SocketAddr,
}

impl TcpListener {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`); port 0 allocates from the
    /// deterministic ephemeral counter.
    pub async fn bind(addr: &str) -> io::Result<TcpListener> {
        let mut sock: SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e}")))?;
        with_current(|shared| {
            let reg = &shared.net;
            let port = if sock.port() == 0 {
                reg.alloc_port(&reg.next_ephemeral)
            } else {
                sock.port()
            };
            sock.set_port(port);
            let state = Arc::new(ListenerState {
                backlog: Mutex::new(VecDeque::new()),
                acceptor: Mutex::new(None),
                open: AtomicBool::new(true),
            });
            let mut listeners = reg.listeners.lock();
            if listeners.contains_key(&port) {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("port {port} already bound"),
                ));
            }
            listeners.insert(port, state.clone());
            Ok(TcpListener {
                state,
                shared: Arc::downgrade(shared),
                addr: sock,
            })
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// Wait for the next queued connection.
    pub fn accept(&self) -> Accept<'_> {
        Accept { listener: self }
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        self.state.open.store(false, Ordering::Release);
        if let Some(shared) = self.shared.upgrade() {
            shared.net.listeners.lock().remove(&self.addr.port());
        }
        // Connections sitting in the SYN queue were never served: reset them
        // so the connecting side observes a failure, not a silent hang.
        for (stream, _) in self.state.backlog.lock().drain(..) {
            stream.reset();
        }
        if let Some(w) = self.state.acceptor.lock().take() {
            w.wake();
        }
    }
}

/// Future returned by [`TcpListener::accept`].
pub struct Accept<'a> {
    listener: &'a TcpListener,
}

impl Future for Accept<'_> {
    type Output = io::Result<(TcpStream, SocketAddr)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let state = &self.listener.state;
        if let Some(conn) = state.backlog.lock().pop_front() {
            return Poll::Ready(Ok(conn));
        }
        if !state.open.load(Ordering::Acquire) {
            return Poll::Ready(Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener closed",
            )));
        }
        *state.acceptor.lock() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// One end of an in-memory duplex connection.
pub struct TcpStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
    local: SocketAddr,
    peer: SocketAddr,
}

impl std::fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStream")
            .field("local", &self.local)
            .field("peer", &self.peer)
            .finish()
    }
}

impl TcpStream {
    /// Connect to a listener bound in this runtime.
    pub async fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
        with_current(|shared| {
            let listener = shared.net.listeners.lock().get(&addr.port()).cloned();
            let Some(listener) = listener.filter(|l| l.open.load(Ordering::Acquire)) else {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("connection refused: {addr}"),
                ));
            };
            let client_port = shared.net.alloc_port(&shared.net.next_client);
            let client_addr = SocketAddr::from(([127, 0, 0, 1], client_port));
            let c2s = Arc::new(Pipe::default());
            let s2c = Arc::new(Pipe::default());
            let client = TcpStream {
                rx: s2c.clone(),
                tx: c2s.clone(),
                local: client_addr,
                peer: addr,
            };
            let server = TcpStream {
                rx: c2s,
                tx: s2c,
                local: addr,
                peer: client_addr,
            };
            listener.backlog.lock().push_back((server, client_addr));
            if let Some(w) = listener.acceptor.lock().take() {
                w.wake();
            }
            Ok(client)
        })
    }

    /// This end's address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.local)
    }

    /// Hard-reset the connection (RST): the peer's pending and future reads
    /// and writes fail with `ConnectionReset`; buffered data is discarded.
    pub fn reset(&self) {
        self.rx.reset();
        self.tx.reset();
    }
}

impl Drop for TcpStream {
    fn drop(&mut self) {
        // Orderly close in both directions: the peer drains what we sent
        // then sees EOF; the peer's writes fail once we are gone.
        self.tx.close();
        self.rx.close();
    }
}

impl TcpStream {
    /// The read side shared by `poll_read` and `poll_read_buf`: fail after a
    /// reset, hand `take` the buffered bytes (as the deque's two slices) and
    /// drop the `n` it consumed, report EOF once closed and drained, else
    /// park the reader.
    fn poll_pipe(
        &self,
        cx: &mut Context<'_>,
        take: impl FnOnce(&[u8], &[u8]) -> usize,
    ) -> Poll<io::Result<usize>> {
        let mut p = self.rx.inner.lock();
        if p.reset {
            return Poll::Ready(Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "connection reset by peer",
            )));
        }
        if !p.buf.is_empty() {
            let (front, back) = p.buf.as_slices();
            let n = take(front, back);
            p.buf.drain(..n);
            return Poll::Ready(Ok(n));
        }
        if p.closed {
            return Poll::Ready(Ok(0));
        }
        p.reader = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl crate::io::AsyncRead for TcpStream {
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut [u8],
    ) -> Poll<io::Result<usize>> {
        self.poll_pipe(cx, |front, back| {
            let n = buf.len().min(front.len() + back.len());
            let from_front = n.min(front.len());
            buf[..from_front].copy_from_slice(&front[..from_front]);
            buf[from_front..n].copy_from_slice(&back[..n - from_front]);
            n
        })
    }

    fn poll_read_buf(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut BytesMut,
    ) -> Poll<io::Result<usize>> {
        self.poll_pipe(cx, |front, back| {
            buf.reserve(front.len() + back.len());
            buf.extend_from_slice(front);
            buf.extend_from_slice(back);
            front.len() + back.len()
        })
    }
}

impl crate::io::AsyncWrite for TcpStream {
    fn poll_write(
        self: Pin<&mut Self>,
        _cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>> {
        let mut p = self.tx.inner.lock();
        if p.reset {
            return Poll::Ready(Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "connection reset by peer",
            )));
        }
        if p.closed {
            return Poll::Ready(Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the connection",
            )));
        }
        p.buf.extend(buf);
        if let Some(w) = p.reader.take() {
            w.wake();
        }
        Poll::Ready(Ok(buf.len()))
    }

    fn poll_flush(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }

    fn poll_shutdown(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        self.tx.close();
        Poll::Ready(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{AsyncReadExt, AsyncWriteExt};
    use crate::runtime::{spawn, Runtime};

    #[test]
    fn roundtrip_through_listener() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let server = spawn(async move {
                let (mut conn, _) = listener.accept().await.unwrap();
                let mut buf = [0u8; 5];
                let n = conn.read(&mut buf).await.unwrap();
                conn.write_all(&buf[..n]).await.unwrap();
            });
            let mut client = TcpStream::connect(addr).await.unwrap();
            client.write_all(b"hello").await.unwrap();
            let mut echo = [0u8; 5];
            let n = client.read(&mut echo).await.unwrap();
            assert_eq!(&echo[..n], b"hello");
            server.await.unwrap();
        });
    }

    #[test]
    fn ports_are_deterministic() {
        let alloc = || {
            let rt = Runtime::new().unwrap();
            rt.block_on(async {
                let a = TcpListener::bind("127.0.0.1:0").await.unwrap();
                let b = TcpListener::bind("127.0.0.1:0").await.unwrap();
                (
                    a.local_addr().unwrap().port(),
                    b.local_addr().unwrap().port(),
                )
            })
        };
        assert_eq!(alloc(), alloc());
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let err = TcpStream::connect(SocketAddr::from(([127, 0, 0, 1], 1)))
                .await
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        });
    }

    #[test]
    fn connect_after_listener_drop_is_refused() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            drop(listener);
            let err = TcpStream::connect(addr).await.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        });
    }

    #[test]
    fn drop_yields_eof_after_drain() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).await.unwrap();
            let (mut conn, _) = listener.accept().await.unwrap();
            conn.write_all(b"bye").await.unwrap();
            drop(conn);
            let mut out = Vec::new();
            client.read_to_end(&mut out).await.unwrap();
            assert_eq!(out, b"bye");
        });
    }

    /// Writes outpace reads so the pipe's ring buffer wraps, then `read`
    /// and `read_buf` take bytes from both of its slices: the stream must
    /// still come out whole and in order.
    #[test]
    fn reads_straddling_the_ring_wrap_keep_order() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap())
                .await
                .unwrap();
            let (mut conn, _) = listener.accept().await.unwrap();
            let stream: Vec<u8> = (0..=250u8).cycle().take(20_000).collect();
            let (mut sent, mut step) = (0usize, 0usize);
            let mut got = BytesMut::new();
            let (mut straddled_read, mut straddled_read_buf) = (false, false);
            while got.len() < stream.len() {
                let w = (40 + step * 37 % 90).min(stream.len() - sent);
                conn.write_all(&stream[sent..sent + w]).await.unwrap();
                sent += w;
                let (front, back) = {
                    let p = client.rx.inner.lock();
                    let (f, b) = p.buf.as_slices();
                    (f.len(), b.len())
                };
                if step % 5 == 4 {
                    let n = client.read_buf(&mut got).await.unwrap();
                    assert_eq!(n, front + back, "read_buf takes everything buffered");
                    straddled_read_buf |= back > 0;
                } else {
                    let mut chunk = [0u8; 256];
                    let want = 1 + step * 97 % chunk.len();
                    let n = client.read(&mut chunk[..want]).await.unwrap();
                    got.extend_from_slice(&chunk[..n]);
                    straddled_read |= back > 0 && n > front;
                }
                step += 1;
            }
            assert!(
                straddled_read && straddled_read_buf,
                "the ring never wrapped"
            );
            assert_eq!(&got[..], &stream[..]);
        });
    }

    #[test]
    fn read_buf_drains_before_eof() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap())
                .await
                .unwrap();
            let (mut conn, _) = listener.accept().await.unwrap();
            conn.write_all(b"bye").await.unwrap();
            drop(conn);
            let mut buf = BytesMut::from(&b">"[..]);
            assert_eq!(client.read_buf(&mut buf).await.unwrap(), 3);
            assert_eq!(client.read_buf(&mut buf).await.unwrap(), 0);
            assert_eq!(&buf[..], b">bye", "appends, never overwrites");
        });
    }

    #[test]
    fn read_buf_after_reset_errors() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap())
                .await
                .unwrap();
            let (mut conn, _) = listener.accept().await.unwrap();
            conn.write_all(b"doomed").await.unwrap();
            conn.reset();
            let mut buf = BytesMut::new();
            let err = client.read_buf(&mut buf).await.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            assert!(buf.is_empty(), "reset discards buffered bytes");
        });
    }

    #[test]
    fn reset_discards_and_errors() {
        let rt = Runtime::new().unwrap();
        rt.block_on(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).await.unwrap();
            let (mut conn, _) = listener.accept().await.unwrap();
            conn.write_all(b"doomed").await.unwrap();
            conn.reset();
            let mut buf = [0u8; 16];
            let err = client.read(&mut buf).await.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            let err = client.write_all(b"x").await.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        });
    }
}
