//! Async HTTP server.
//!
//! One tokio task per connection, keep-alive by default, graceful shutdown
//! via a watch channel (the accept loop stops; in-flight exchanges drain on
//! their own or hit the per-read idle timeout). Handlers are async and get
//! the parsed [`Request`]; the server takes care of framing.

use crate::codec::{encode_response, parse_request};
use crate::types::{Request, Response, StatusCode};
use bytes::BytesMut;
use std::future::Future;
use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::Arc;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::watch;

/// Boxed async handler.
pub type Handler =
    Arc<dyn Fn(Request) -> Pin<Box<dyn Future<Output = Response> + Send>> + Send + Sync>;

/// Server configuration + handler.
pub struct Server {
    handler: Handler,
    /// Idle-read timeout per connection.
    pub read_timeout: Duration,
}

impl Server {
    /// Build a server from an async closure.
    pub fn new<F, Fut>(f: F) -> Self
    where
        F: Fn(Request) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Response> + Send + 'static,
    {
        Self {
            handler: Arc::new(move |req| Box::pin(f(req))),
            read_timeout: Duration::from_secs(10),
        }
    }

    /// Set the per-connection idle-read timeout.
    pub fn with_read_timeout(mut self, t: Duration) -> Self {
        self.read_timeout = t;
        self
    }

    /// Bind and start serving; returns a handle owning the listener task.
    pub async fn bind(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr).await?;
        let local = listener.local_addr()?;
        let (shutdown_tx, shutdown_rx) = watch::channel(false);
        let handler = self.handler;
        let read_timeout = self.read_timeout;
        let task = tokio::spawn(async move {
            let mut shutdown = shutdown_rx.clone();
            loop {
                tokio::select! {
                    accepted = listener.accept() => {
                        match accepted {
                            Ok((stream, _peer)) => {
                                let h = handler.clone();
                                tokio::spawn(serve_connection(stream, h, read_timeout));
                            }
                            Err(_) => {
                                // transient accept errors (EMFILE etc.):
                                // brief pause, then continue accepting
                                tokio::time::sleep(Duration::from_millis(10)).await;
                            }
                        }
                    }
                    _ = shutdown.changed() => break,
                }
            }
        });
        Ok(ServerHandle {
            addr: local,
            shutdown: shutdown_tx,
            task,
        })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: watch::Sender<bool>,
    task: tokio::task::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and wait for the accept loop to exit.
    pub async fn shutdown(self) {
        let _ = self.shutdown.send(true);
        let _ = self.task.await;
    }
}

async fn serve_connection(mut stream: TcpStream, handler: Handler, read_timeout: Duration) {
    let mut buf = BytesMut::new();
    loop {
        // Parse as many pipelined requests as the buffer holds.
        let req = loop {
            match parse_request(&mut buf) {
                Ok(Some(req)) => break Some(req),
                Ok(None) => {
                    let read = tokio::time::timeout(read_timeout, stream.read_buf(&mut buf)).await;
                    match read {
                        Ok(Ok(0)) => break None,           // peer closed
                        Ok(Ok(_)) => {}                    // appended to buf
                        Ok(Err(_)) | Err(_) => break None, // io error / idle
                    }
                }
                Err(_) => {
                    // Malformed request: answer 400 and close.
                    let resp = Response::status(StatusCode::BAD_REQUEST);
                    let _ = stream.write_all(&encode_response(&resp)).await;
                    return;
                }
            }
        };
        let Some(req) = req else { return };
        let close = req.wants_close();
        let resp = handler(req).await;
        if resp.hangup {
            // Fault injection asked for an abrupt connection death: write
            // nothing and reset, so the client sees ECONNRESET mid-exchange
            // rather than a well-formed error response.
            stream.reset();
            return;
        }
        if stream.write_all(&encode_response(&resp)).await.is_err() {
            return;
        }
        if close {
            let _ = stream.shutdown().await;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::codec::encode_request;

    fn echo_server() -> Server {
        Server::new(|req: Request| async move {
            Response::json(format!(
                r#"{{"path":"{}","host":"{}"}}"#,
                req.path,
                req.host().unwrap_or("-")
            ))
        })
    }

    #[tokio::test]
    async fn basic_round_trip() {
        let handle = echo_server().bind("127.0.0.1:0").await.unwrap();
        let client = Client::default();
        let resp = client
            .get(handle.addr(), "a.example", "/api/v1/instance")
            .await
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert!(resp.text().contains("\"host\":\"a.example\""));
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn concurrent_clients() {
        let handle = echo_server().bind("127.0.0.1:0").await.unwrap();
        let addr = handle.addr();
        let mut joins = Vec::new();
        for i in 0..32 {
            joins.push(tokio::spawn(async move {
                let client = Client::default();
                let resp = client.get(addr, "h", &format!("/page/{i}")).await.unwrap();
                assert!(resp.text().contains(&format!("/page/{i}")));
            }));
        }
        for j in joins {
            j.await.unwrap();
        }
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn keep_alive_reuses_connection() {
        let handle = echo_server().bind("127.0.0.1:0").await.unwrap();
        let mut stream = TcpStream::connect(handle.addr()).await.unwrap();
        for path in ["/one", "/two", "/three"] {
            let req = Request::get("h", path);
            stream.write_all(&encode_request(&req)).await.unwrap();
            let mut buf = BytesMut::new();
            let resp = loop {
                let mut chunk = [0u8; 1024];
                let n = stream.read(&mut chunk).await.unwrap();
                assert!(n > 0, "server closed unexpectedly");
                buf.extend_from_slice(&chunk[..n]);
                if let Some(r) = crate::codec::parse_response(&mut buf).unwrap() {
                    break r;
                }
            };
            assert!(resp.text().contains(path));
        }
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn malformed_request_gets_400() {
        let handle = echo_server().bind("127.0.0.1:0").await.unwrap();
        let mut stream = TcpStream::connect(handle.addr()).await.unwrap();
        stream.write_all(b"GARBAGE REQUEST\r\n\r\n").await.unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).await.unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn connection_close_honoured() {
        let handle = echo_server().bind("127.0.0.1:0").await.unwrap();
        let mut stream = TcpStream::connect(handle.addr()).await.unwrap();
        let mut req = Request::get("h", "/bye");
        req.headers.push(("connection".into(), "close".into()));
        stream.write_all(&encode_request(&req)).await.unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).await.unwrap(); // EOF after response
        assert!(String::from_utf8_lossy(&buf).contains("/bye"));
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn hangup_resets_without_response() {
        let handle = Server::new(|_req| async { Response::hangup() })
            .bind("127.0.0.1:0")
            .await
            .unwrap();
        let client = Client::default();
        let err = client.get(handle.addr(), "h", "/doomed").await.unwrap_err();
        assert!(
            matches!(
                err,
                crate::client::ClientError::Io(_) | crate::client::ClientError::ConnectionClosed
            ),
            "expected a connection-level failure, got {err:?}"
        );
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn shutdown_stops_accepting() {
        let handle = echo_server().bind("127.0.0.1:0").await.unwrap();
        let addr = handle.addr();
        handle.shutdown().await;
        let client = Client::default();
        let err = client.get(addr, "h", "/").await;
        assert!(err.is_err(), "connect after shutdown should fail");
    }
}
