//! # fediscope-httpwire
//!
//! A minimal HTTP/1.1 implementation built from scratch on tokio — the wire
//! substrate for the crawler and the simulated instances. Implementing it
//! here (rather than pulling in hyper) keeps the workspace within its
//! dependency policy and gives the simulator full control over failure
//! injection at the socket level.
//!
//! Implemented:
//! - request/response head parsing and serialisation (HTTP/1.0 and 1.1),
//! - `Content-Length` body framing,
//! - keep-alive connections with `Connection: close` handling,
//! - a path router with `:param` captures,
//! - an async server with graceful shutdown and per-connection timeouts,
//! - an async client with request timeouts and virtual-host support.
//!
//! Deliberately **not** implemented (out of scope for the study's traffic):
//! chunked transfer encoding, compression, TLS (the paper's HTTPS layer is
//! modelled at the certificate-metadata level instead), HTTP/2, trailers,
//! and multipart bodies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod router;
pub mod server;
pub mod types;

pub use client::{Client, ClientError};
pub use router::Router;
pub use server::{Server, ServerHandle};
pub use types::{Method, Request, Response, StatusCode};
