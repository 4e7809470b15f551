//! Async HTTP client.
//!
//! One connection per request (`connection: close`), bounded by a connect
//! timeout and an overall request deadline. Deliberately simple: offline,
//! politeness delays and backoff pass on the executor's virtual clock, and
//! a crawl's wall time is CPU per request. The crate README breaks down
//! `crawl-flaky`'s instance polls (release build, 2-vCPU VM): about 9 µs
//! and 58 heap allocations each, of which a round trip to a do-nothing
//! handler is 4 µs and 37 allocations, the simulator's handler 1 µs and
//! parsing the document 2.5–3 µs. Connection set-up is about 2 µs of the
//! round trip (the same requests kept alive on one connection take the
//! other 2 µs), so pooling could save at most about a fifth of a poll, at
//! the cost of cancellation-safety complexity.

use crate::codec::{encode_request, parse_response, ParseError};
use crate::types::{Request, Response};
use bytes::BytesMut;
use std::net::SocketAddr;
use std::time::Duration;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;

/// Client failure modes. The crawler maps all of these to "instance down".
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed (refused, unreachable, …).
    Connect(std::io::Error),
    /// Read/write failed mid-exchange.
    Io(std::io::Error),
    /// The deadline elapsed.
    Timeout,
    /// The server spoke something that is not HTTP.
    Malformed(ParseError),
    /// The server closed before a full response arrived.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Malformed(e) => write!(f, "malformed response: {e}"),
            ClientError::ConnectionClosed => write!(f, "connection closed early"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A reusable client configuration.
#[derive(Debug, Clone)]
pub struct Client {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Whole-request deadline (connect + write + read).
    pub request_timeout: Duration,
}

impl Default for Client {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(15),
        }
    }
}

impl Client {
    /// Issue `req` to `addr`. A `connection: close` header is added so the
    /// exchange is exactly one request/response.
    pub async fn request(
        &self,
        addr: SocketAddr,
        mut req: Request,
    ) -> Result<Response, ClientError> {
        if req.header("connection").is_none() {
            req.headers.push(("connection".into(), "close".into()));
        }
        let fut = async {
            let stream = tokio::time::timeout(self.connect_timeout, TcpStream::connect(addr))
                .await
                .map_err(|_| ClientError::Timeout)?
                .map_err(ClientError::Connect)?;
            self.exchange(stream, &req).await
        };
        tokio::time::timeout(self.request_timeout, fut)
            .await
            .map_err(|_| ClientError::Timeout)?
    }

    async fn exchange(
        &self,
        mut stream: TcpStream,
        req: &Request,
    ) -> Result<Response, ClientError> {
        stream
            .write_all(&encode_request(req))
            .await
            .map_err(ClientError::Io)?;
        let mut buf = BytesMut::new();
        loop {
            if let Some(resp) = parse_response(&mut buf).map_err(ClientError::Malformed)? {
                return Ok(resp);
            }
            let n = stream.read_buf(&mut buf).await.map_err(ClientError::Io)?;
            if n == 0 {
                return Err(ClientError::ConnectionClosed);
            }
        }
    }

    /// GET `path_and_query` from `addr` with a `Host` header (virtual-host
    /// addressing — the simulator serves thousands of instances behind one
    /// listener).
    pub async fn get(
        &self,
        addr: SocketAddr,
        host: &str,
        path_and_query: &str,
    ) -> Result<Response, ClientError> {
        self.request(addr, Request::get(host, path_and_query)).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::types::{Response, StatusCode};

    #[tokio::test]
    async fn timeout_on_slow_handler() {
        let server = Server::new(|_req| async {
            tokio::time::sleep(Duration::from_secs(5)).await;
            Response::status(StatusCode::OK)
        });
        let handle = server.bind("127.0.0.1:0").await.unwrap();
        let client = Client {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_millis(100),
        };
        let err = client.get(handle.addr(), "h", "/slow").await.unwrap_err();
        assert!(matches!(err, ClientError::Timeout), "got {err:?}");
        handle.shutdown().await;
    }

    #[tokio::test]
    async fn connect_refused_maps_to_connect_error() {
        let client = Client {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(1),
        };
        // bind-then-drop to find a (very likely) free port
        let l = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = l.local_addr().unwrap();
        drop(l);
        let err = client.get(addr, "h", "/").await.unwrap_err();
        assert!(
            matches!(err, ClientError::Connect(_) | ClientError::Timeout),
            "got {err:?}"
        );
    }

    #[tokio::test]
    async fn non_http_server_yields_malformed() {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (mut s, _) = listener.accept().await.unwrap();
            use tokio::io::AsyncWriteExt;
            let _ = s.write_all(b"SMTP 220 hello\r\n\r\n").await;
        });
        let client = Client {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
        };
        let err = client.get(addr, "h", "/").await.unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Malformed(_) | ClientError::ConnectionClosed
            ),
            "got {err:?}"
        );
    }

    #[tokio::test]
    async fn early_close_detected() {
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap();
        tokio::spawn(async move {
            let (s, _) = listener.accept().await.unwrap();
            drop(s); // close immediately
        });
        let client = Client {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
        };
        let err = client.get(addr, "h", "/").await.unwrap_err();
        assert!(
            matches!(err, ClientError::ConnectionClosed | ClientError::Io(_)),
            "got {err:?}"
        );
    }

    #[tokio::test]
    async fn display_impls() {
        let e = ClientError::Timeout;
        assert_eq!(e.to_string(), "request timed out");
    }
}
