//! Wire-format encoding and incremental parsing.
//!
//! The parser is *incremental*: `parse_request` / `parse_response` return
//! `Ok(None)` when more bytes are needed, letting the server and client read
//! from sockets chunk by chunk without framing assumptions (the async-book's
//! cancellation-safety guidance: buffer ownership lives outside the future).

use crate::types::{split_target, Method, Request, Response, StatusCode};
use bytes::BytesMut;

/// Maximum accepted head (request/status line + headers) size.
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted body size (the toolkit's payloads are small JSON/HTML).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed message.
    Invalid(&'static str),
    /// Head or body exceeded the configured limits.
    TooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Invalid(what) => write!(f, "malformed HTTP message: {what}"),
            ParseError::TooLarge => write!(f, "HTTP message too large"),
        }
    }
}

impl std::error::Error for ParseError {}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_headers(lines: std::str::Lines<'_>) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Invalid("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(headers)
}

fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    match headers.iter().find(|(n, _)| n == "content-length") {
        None => Ok(0),
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Invalid("bad content-length")),
    }
}

/// Try to parse one complete request from the front of `buf`.
///
/// On success the parsed bytes are consumed from `buf`. `Ok(None)` means
/// "need more data".
pub fn parse_request(buf: &mut BytesMut) -> Result<Option<Request>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(ParseError::TooLarge);
        }
        return Ok(None);
    };
    if head_end > MAX_HEAD {
        return Err(ParseError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| ParseError::Invalid("non-utf8 head"))?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(ParseError::Invalid("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(ParseError::Invalid("bad method"))?;
    let target = parts.next().ok_or(ParseError::Invalid("missing target"))?;
    let version = parts.next().ok_or(ParseError::Invalid("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Invalid("unsupported version"));
    }
    let (path, query) = split_target(target);
    let mut headers = parse_headers(lines)?;
    let body_len = content_length(&headers)?;
    // content-length is framing metadata, not application data: dropping it
    // here makes encode → parse the identity.
    headers.retain(|(n, _)| n != "content-length");
    if body_len > MAX_BODY {
        return Err(ParseError::TooLarge);
    }
    if buf.len() < head_end + body_len {
        return Ok(None);
    }
    buf.advance(head_end);
    let body = buf.split_to(body_len).freeze();
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Try to parse one complete response from the front of `buf`.
pub fn parse_response(buf: &mut BytesMut) -> Result<Option<Response>, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(ParseError::TooLarge);
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| ParseError::Invalid("non-utf8 head"))?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or(ParseError::Invalid("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().ok_or(ParseError::Invalid("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Invalid("unsupported version"));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or(ParseError::Invalid("bad status code"))?;
    let mut headers = parse_headers(lines)?;
    let body_len = content_length(&headers)?;
    headers.retain(|(n, _)| n != "content-length");
    if body_len > MAX_BODY {
        return Err(ParseError::TooLarge);
    }
    if buf.len() < head_end + body_len {
        return Ok(None);
    }
    buf.advance(head_end);
    let body = buf.split_to(body_len).freeze();
    Ok(Some(Response {
        status: StatusCode(code),
        headers,
        body,
        hangup: false,
    }))
}

/// Append `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Size of a head whose start line takes `start_line` bytes: that line,
/// the header fields `encode_tail` writes and the longest possible
/// `content-length` field.
fn head_len(start_line: usize, headers: &[(String, String)]) -> usize {
    let fields: usize = headers
        .iter()
        .filter(|(n, _)| n != "content-length")
        .map(|(n, v)| n.len() + v.len() + 4)
        .sum();
    // "content-length: " + up to 20 digits + "\r\n\r\n"
    start_line + fields + 16 + 20 + 4
}

/// Write every header except a caller-supplied `content-length`, then the
/// real one, the blank line and the body.
fn encode_tail(out: &mut Vec<u8>, headers: &[(String, String)], body: &[u8]) {
    for (n, v) in headers {
        if n != "content-length" {
            out.extend_from_slice(n.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
    out.extend_from_slice(b"content-length: ");
    push_decimal(out, body.len());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Serialise a request (adds `content-length`; never duplicates it) into
/// one buffer sized up front.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let method = req.method.as_str();
    let query: usize = req.query.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
    let start_line = method.len() + 1 + req.path.len() + query + " HTTP/1.1\r\n".len();
    let mut out = Vec::with_capacity(head_len(start_line, &req.headers) + req.body.len());
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.path.as_bytes());
    for (i, (k, v)) in req.query.iter().enumerate() {
        out.push(if i == 0 { b'?' } else { b'&' });
        out.extend_from_slice(k.as_bytes());
        out.push(b'=');
        out.extend_from_slice(v.as_bytes());
    }
    out.extend_from_slice(b" HTTP/1.1\r\n");
    encode_tail(&mut out, &req.headers, &req.body);
    out
}

/// Serialise a response (adds `content-length`) into one buffer sized up
/// front.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let reason = resp.status.reason();
    // "HTTP/1.1 " + up to five digits + " " + reason + "\r\n"
    let start_line = 9 + 5 + 1 + reason.len() + 2;
    let mut out = Vec::with_capacity(head_len(start_line, &resp.headers) + resp.body.len());
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(&mut out, usize::from(resp.status.0));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\n");
    encode_tail(&mut out, &resp.headers, &resp.body);
    out
}

/// The `format!` encoders the ones above replaced, kept as the oracle of
/// the differential proptest in `prop_tests`.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::types::{Request, Response};
    use bytes::{Bytes, BytesMut};

    /// Serialise a request (adds `content-length`; never duplicates it).
    pub fn encode_request(req: &Request) -> Bytes {
        let mut target = req.path.clone();
        if !req.query.is_empty() {
            target.push('?');
            for (i, (k, v)) in req.query.iter().enumerate() {
                if i > 0 {
                    target.push('&');
                }
                target.push_str(k);
                target.push('=');
                target.push_str(v);
            }
        }
        let mut out = format!("{} {} HTTP/1.1\r\n", req.method.as_str(), target);
        for (n, v) in &req.headers {
            if n != "content-length" {
                out.push_str(&format!("{n}: {v}\r\n"));
            }
        }
        out.push_str(&format!("content-length: {}\r\n\r\n", req.body.len()));
        let mut bytes = BytesMut::from(out.as_bytes());
        bytes.extend_from_slice(&req.body);
        bytes.freeze()
    }

    /// Serialise a response (adds `content-length`).
    pub fn encode_response(resp: &Response) -> Bytes {
        let mut out = format!("HTTP/1.1 {} {}\r\n", resp.status.0, resp.status.reason());
        for (n, v) in &resp.headers {
            if n != "content-length" {
                out.push_str(&format!("{n}: {v}\r\n"));
            }
        }
        out.push_str(&format!("content-length: {}\r\n\r\n", resp.body.len()));
        let mut bytes = BytesMut::from(out.as_bytes());
        bytes.extend_from_slice(&resp.body);
        bytes.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn request_round_trip() {
        let req = Request {
            method: Method::Post,
            path: "/inbox".into(),
            query: vec![("page".into(), "2".into())],
            headers: vec![
                ("host".into(), "a.example".into()),
                ("content-type".into(), "application/json".into()),
            ],
            body: Bytes::from_static(b"{\"x\":1}"),
        };
        let mut buf = BytesMut::from(&encode_request(&req)[..]);
        let parsed = parse_request(&mut buf).unwrap().unwrap();
        assert_eq!(parsed, req);
        assert!(buf.is_empty());
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json(r#"{"users":5}"#);
        let mut buf = BytesMut::from(&encode_response(&resp)[..]);
        let parsed = parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.text(), r#"{"users":5}"#);
    }

    #[test]
    fn incremental_parse_needs_more_data() {
        let req = Request::get("h.example", "/api/v1/instance");
        let encoded = encode_request(&req);
        let mut buf = BytesMut::new();
        for chunk in encoded.chunks(7) {
            // every prefix except the last must yield Ok(None)
            let before = buf.len();
            buf.extend_from_slice(chunk);
            if before + chunk.len() < encoded.len() {
                assert_eq!(parse_request(&mut buf).unwrap(), None);
            }
        }
        let parsed = parse_request(&mut buf).unwrap().unwrap();
        assert_eq!(parsed.path, "/api/v1/instance");
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let a = encode_request(&Request::get("h", "/one"));
        let b = encode_request(&Request::get("h", "/two"));
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);
        assert_eq!(parse_request(&mut buf).unwrap().unwrap().path, "/one");
        assert_eq!(parse_request(&mut buf).unwrap().unwrap().path, "/two");
        assert_eq!(parse_request(&mut buf).unwrap(), None);
    }

    #[test]
    fn body_waits_for_content_length() {
        let mut buf =
            BytesMut::from(&b"POST /x HTTP/1.1\r\nhost: h\r\ncontent-length: 5\r\n\r\nab"[..]);
        assert_eq!(parse_request(&mut buf).unwrap(), None);
        buf.extend_from_slice(b"cde");
        let req = parse_request(&mut buf).unwrap().unwrap();
        assert_eq!(&req.body[..], b"abcde");
    }

    #[test]
    fn rejects_garbage() {
        let mut buf = BytesMut::from(&b"NONSENSE\r\n\r\n"[..]);
        assert!(parse_request(&mut buf).is_err());
        let mut buf = BytesMut::from(&b"GET /x HTTP/3.0\r\n\r\n"[..]);
        assert!(parse_request(&mut buf).is_err());
        let mut buf = BytesMut::from(&b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"[..]);
        assert!(parse_request(&mut buf).is_err());
        let mut buf = BytesMut::from(&b"GET /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n"[..]);
        assert!(parse_request(&mut buf).is_err());
    }

    #[test]
    fn oversized_head_rejected() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"GET / HTTP/1.1\r\n");
        let filler = format!("x-pad: {}\r\n", "a".repeat(MAX_HEAD));
        buf.extend_from_slice(filler.as_bytes());
        assert_eq!(parse_request(&mut buf), Err(ParseError::TooLarge));
    }

    #[test]
    fn oversized_body_rejected() {
        let head = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut buf = BytesMut::from(head.as_bytes());
        assert_eq!(parse_request(&mut buf), Err(ParseError::TooLarge));
    }

    #[test]
    fn status_line_with_reason_phrase_spaces() {
        let mut buf =
            BytesMut::from(&b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n"[..]);
        let resp = parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(resp.status, StatusCode::SERVICE_UNAVAILABLE);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bytes::Bytes;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn arb_token() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9-]{0,12}".prop_map(|s| s)
    }

    /// Any Unicode text, so multi-byte characters test the encoders'
    /// byte-length arithmetic.
    fn arb_text() -> impl Strategy<Value = String> {
        vec(any::<u32>(), 0..12).prop_map(|cs| {
            cs.into_iter()
                .filter_map(|c| char::from_u32(c % 0x11_0000))
                .collect()
        })
    }

    /// Header lists where about one field in four is a caller-supplied
    /// `content-length`, which both encoders must drop.
    fn arb_headers() -> impl Strategy<Value = Vec<(String, String)>> {
        vec((0u8..4, arb_token(), arb_text()), 0..6).prop_map(|fields| {
            fields
                .into_iter()
                .map(|(k, name, value)| match k {
                    0 => ("content-length".to_string(), value),
                    _ => (name, value),
                })
                .collect()
        })
    }

    proptest! {
        /// encode → parse is the identity for arbitrary well-formed requests.
        #[test]
        fn request_round_trips(
            path_segs in proptest::collection::vec(arb_token(), 1..4),
            query in proptest::collection::vec((arb_token(), arb_token()), 0..4),
            body in proptest::collection::vec(any::<u8>(), 0..512),
            host in arb_token()
        ) {
            let req = Request {
                method: Method::Post,
                path: format!("/{}", path_segs.join("/")),
                query,
                headers: vec![("host".into(), host)],
                body: Bytes::from(body),
            };
            let mut buf = BytesMut::from(&encode_request(&req)[..]);
            let parsed = parse_request(&mut buf).unwrap().unwrap();
            prop_assert_eq!(parsed, req);
            prop_assert!(buf.is_empty());
        }

        /// The pre-sized encoders write exactly the bytes of the `format!`
        /// encoders they replaced.
        #[test]
        fn encoders_match_format_oracle(
            method in (0usize..3).prop_map(|i| [Method::Get, Method::Post, Method::Head][i]),
            (path, query) in (arb_text(), vec((arb_text(), arb_text()), 0..4)),
            headers in arb_headers(),
            body in vec(any::<u8>(), 0..600),
            code in any::<u16>(),
        ) {
            let req = Request {
                method,
                path,
                query,
                headers: headers.clone(),
                body: Bytes::from(body.clone()),
            };
            prop_assert_eq!(&encode_request(&req)[..], &oracle::encode_request(&req)[..]);
            let resp = Response {
                status: StatusCode(code),
                headers,
                body: Bytes::from(body),
                hangup: false,
            };
            prop_assert_eq!(&encode_response(&resp)[..], &oracle::encode_response(&resp)[..]);
        }

        /// The parser never panics on arbitrary byte soup.
        #[test]
        fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut buf = BytesMut::from(&data[..]);
            let _ = parse_request(&mut buf);
            let mut buf = BytesMut::from(&data[..]);
            let _ = parse_response(&mut buf);
        }

        /// Responses round-trip with arbitrary bodies.
        #[test]
        fn response_round_trips(
            code in 100u16..600,
            body in proptest::collection::vec(any::<u8>(), 0..512)
        ) {
            let resp = Response {
                status: StatusCode(code),
                headers: vec![("content-type".into(), "application/octet-stream".into())],
                body: Bytes::from(body),
                hangup: false,
            };
            let mut buf = BytesMut::from(&encode_response(&resp)[..]);
            let parsed = parse_response(&mut buf).unwrap().unwrap();
            prop_assert_eq!(parsed.status, resp.status);
            prop_assert_eq!(parsed.body, resp.body);
        }
    }
}
