//! HTTP message types.

use bytes::Bytes;

/// Request methods used by the toolkit (a deliberate subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Method {
    Get,
    Post,
    Head,
}

impl Method {
    /// Canonical token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }

    /// Parse a token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

/// A status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden.
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 429 Too Many Requests.
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Is this a 2xx status?
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path component of the request target (no query string).
    pub path: String,
    /// Parsed query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs (names lower-cased at parse time).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Request {
    /// A GET request for `path_and_query` with a `Host` header.
    pub fn get(host: &str, path_and_query: &str) -> Request {
        let (path, query) = split_target(path_and_query);
        Request {
            method: Method::Get,
            path,
            query,
            headers: vec![("host".into(), host.into())],
            body: Bytes::new(),
        }
    }

    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The `Host` header (virtual-host routing key).
    pub fn host(&self) -> Option<&str> {
        self.header("host")
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Headers (lower-case names).
    pub headers: Vec<(String, String)>,
    /// Body.
    pub body: Bytes,
    /// When set, the server writes *nothing* and resets the connection —
    /// the wire-level fault a mid-crawl instance death produces. The status
    /// and body are ignored; clients never observe this field (they see a
    /// connection reset instead of a response).
    pub hangup: bool,
}

impl Response {
    /// Empty response with a status.
    pub fn status(status: StatusCode) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Bytes::new(),
            hangup: false,
        }
    }

    /// A sentinel instructing the server to reset the connection without
    /// answering (models an abrupt instance death / RST mid-exchange).
    pub fn hangup() -> Response {
        Response {
            hangup: true,
            ..Response::status(StatusCode::SERVICE_UNAVAILABLE)
        }
    }

    /// 200 response with a JSON body.
    pub fn json(body: impl Into<Bytes>) -> Response {
        Response {
            status: StatusCode::OK,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into(),
            hangup: false,
        }
    }

    /// 200 response with an HTML body.
    pub fn html(body: impl Into<Bytes>) -> Response {
        Response {
            status: StatusCode::OK,
            headers: vec![("content-type".into(), "text/html; charset=utf-8".into())],
            body: body.into(),
            hangup: false,
        }
    }

    /// Attach a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// First value of a (case-insensitive) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// First value of the header `name`, compared without regard to ASCII case
/// (and without allocating a lower-cased copy of `name`).
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Split a request target into path and parsed query parameters.
pub fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((p, q)) => (p.to_string(), parse_query(q)),
    }
}

/// Parse `a=1&b=two` into pairs (no percent-decoding beyond `%XX` for the
/// characters the toolkit emits; plus-as-space is honoured).
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Minimal percent-decoding.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() + 1 && i + 2 < bytes.len() + 1 => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_round_trip() {
        for m in [Method::Get, Method::Post, Method::Head] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }

    #[test]
    fn status_reasons() {
        assert_eq!(StatusCode::OK.reason(), "OK");
        assert_eq!(StatusCode(503).reason(), "Service Unavailable");
        assert_eq!(StatusCode(999).reason(), "Unknown");
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
    }

    #[test]
    fn request_get_builds_host_and_query() {
        let r = Request::get("mstdn.jp", "/api/v1/timelines/public?limit=40&max_id=99");
        assert_eq!(r.host(), Some("mstdn.jp"));
        assert_eq!(r.path, "/api/v1/timelines/public");
        assert_eq!(r.query_param("limit"), Some("40"));
        assert_eq!(r.query_param("max_id"), Some("99"));
        assert_eq!(r.query_param("missing"), None);
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let mut r = Request::get("h", "/");
        r.headers.push(("x-thing".into(), "1".into()));
        assert_eq!(r.header("X-Thing"), Some("1"));
    }

    #[test]
    fn wants_close_detection() {
        let mut r = Request::get("h", "/");
        assert!(!r.wants_close());
        r.headers.push(("connection".into(), "Close".into()));
        assert!(r.wants_close());
    }

    #[test]
    fn parse_query_forms() {
        assert_eq!(
            parse_query("a=1&b=&c"),
            vec![
                ("a".into(), "1".into()),
                ("b".into(), String::new()),
                ("c".into(), String::new())
            ]
        );
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn response_builders() {
        let r = Response::json(r#"{"ok":true}"#);
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert_eq!(r.text(), r#"{"ok":true}"#);
    }
}
