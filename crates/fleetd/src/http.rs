//! A hand-rolled, dependency-free HTTP/1.1 layer for the daemon.
//!
//! The workspace builds offline against vendored dependency stand-ins, so
//! there is no hyper/axum to lean on — and the daemon's needs are tiny: parse
//! one request per connection from a [`std::net::TcpStream`], route it, write
//! one response, close. This module implements exactly that subset:
//! `Connection: close` semantics, `Content-Length` bodies only (any
//! `Transfer-Encoding` is refused with 501), and hard limits on every
//! dimension an untrusted peer controls (request-line length, header count
//! and size, body size), each violation mapping to a typed [`HttpError`] and
//! a 4xx status — never a panic (locked in by the `http_malformed`
//! integration test).

use std::fmt;
use std::io::{BufRead, Write};

/// Maximum accepted request-line length, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted length of a single header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted number of headers.
pub const MAX_HEADERS: usize = 64;
/// Maximum accepted request-body size, in bytes. Job specs are a few hundred
/// bytes; anything near this limit is abuse, not a job.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, verbatim (e.g. `GET`); not validated against any
    /// allow-list — unknown methods parse fine and earn a 405 from the
    /// router.
    pub method: String,
    /// The request path, with any query string split off.
    pub path: String,
    /// The raw query string (the part after `?`), if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs in arrival order; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Typed parse failures, each mapping to a 4xx/5xx status via
/// [`HttpError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request was read.
    UnexpectedEof,
    /// A request or header line exceeded its byte limit.
    LineTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The request line was not `METHOD TARGET HTTP/x.y`.
    MalformedRequestLine(String),
    /// The HTTP version is not 1.0 or 1.1.
    UnsupportedVersion(String),
    /// More than [`MAX_HEADERS`] headers were sent.
    TooManyHeaders {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A header line had no `:` separator or an empty name.
    MalformedHeader(String),
    /// A `Content-Length` value was not all ASCII digits, or repeated
    /// `Content-Length` headers disagree (RFC 9112 §6.3: invalid framing).
    BadContentLength(String),
    /// The request carries a `Transfer-Encoding` header. Bodies are framed
    /// by `Content-Length` only, so a transfer-coded body cannot be read
    /// (RFC 9112 §6.1: respond 501).
    UnsupportedTransferCoding(String),
    /// The declared body length exceeds [`MAX_BODY`].
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// Reading from the socket failed (timeout, reset).
    Io(String),
}

impl HttpError {
    /// The response status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::LineTooLong { .. } | HttpError::TooManyHeaders { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedVersion(_) => 505,
            HttpError::UnsupportedTransferCoding(_) => 501,
            HttpError::UnexpectedEof
            | HttpError::MalformedRequestLine(_)
            | HttpError::MalformedHeader(_)
            | HttpError::BadContentLength(_)
            | HttpError::Io(_) => 400,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::LineTooLong { limit } => {
                write!(f, "line exceeds the {limit}-byte limit")
            }
            HttpError::MalformedRequestLine(line) => {
                write!(f, "malformed request line `{line}`")
            }
            HttpError::UnsupportedVersion(version) => {
                write!(f, "unsupported HTTP version `{version}`")
            }
            HttpError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} headers")
            }
            HttpError::MalformedHeader(line) => write!(f, "malformed header `{line}`"),
            HttpError::BadContentLength(value) => {
                write!(f, "invalid Content-Length `{value}`")
            }
            HttpError::UnsupportedTransferCoding(coding) => {
                write!(f, "unsupported Transfer-Encoding `{coding}`")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            HttpError::Io(detail) => write!(f, "i/o error: {detail}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one CRLF- (or LF-) terminated line of at most `limit` bytes,
/// without the terminator. `Ok(None)` means the stream ended cleanly before
/// any byte of this line.
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::UnexpectedEof)
                };
            }
            Ok(_) => {
                let [b] = byte;
                if b == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::MalformedHeader("non-UTF-8 bytes".to_string()));
                }
                if line.len() >= limit {
                    return Err(HttpError::LineTooLong { limit });
                }
                line.push(b);
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

/// Parses one request from `reader`. `Ok(None)` means the peer closed the
/// connection without sending anything (not an error — browsers do this with
/// speculative connections).
///
/// # Errors
///
/// Returns the typed [`HttpError`] describing the first protocol violation
/// encountered; the caller maps it to a response via [`HttpError::status`].
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(reader, MAX_REQUEST_LINE)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::MalformedRequestLine(truncate_for_display(&line)));
    };
    if method.is_empty() || target.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpError::MalformedRequestLine(truncate_for_display(&line)));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(truncate_for_display(version)));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEADER_LINE)?.ok_or(HttpError::UnexpectedEof)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders { limit: MAX_HEADERS });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::MalformedHeader(truncate_for_display(&line)));
        };
        if name.is_empty() {
            return Err(HttpError::MalformedHeader(truncate_for_display(&line)));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Checked before any body byte is read: a transfer-coded body is not
    // framed by Content-Length, whatever that header says.
    if let Some((_, coding)) = headers.iter().find(|(name, _)| name == "transfer-encoding") {
        return Err(HttpError::UnsupportedTransferCoding(truncate_for_display(
            coding,
        )));
    }
    let bad = |value: &str| HttpError::BadContentLength(truncate_for_display(value));
    let mut content_length: Option<usize> = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        // `usize::from_str` would also accept a leading `+`.
        if !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad(value));
        }
        let declared = value.parse().map_err(|_| bad(value))?;
        if let Some(first) = content_length.filter(|&first| first != declared) {
            return Err(bad(&format!("{first}, {value}")));
        }
        content_length = Some(declared);
    }
    let mut body = Vec::new();
    if let Some(declared) = content_length {
        if declared > MAX_BODY {
            return Err(HttpError::BodyTooLarge {
                declared,
                limit: MAX_BODY,
            });
        }
        body.resize(declared, 0);
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::UnexpectedEof
            } else {
                HttpError::Io(e.to_string())
            }
        })?;
    }

    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };
    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    }))
}

/// Caps attacker-controlled text echoed into error messages.
fn truncate_for_display(text: &str) -> String {
    const MAX: usize = 80;
    if text.len() <= MAX {
        text.to_string()
    } else {
        let cut = (0..=MAX)
            .rev()
            .find(|i| text.is_char_boundary(*i))
            .unwrap_or(0);
        // `cut` is a char boundary by construction, but this is a
        // request-serving path: fall back to the ellipsis alone rather than
        // carrying a slice-panic proof obligation.
        let head = text.get(..cut).unwrap_or("");
        format!("{head}…")
    }
}

/// One response, written with `Connection: close` (the daemon serves one
/// request per connection — scrapes and job submissions are infrequent
/// enough that keep-alive would only add parser state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// Body shape of every JSON error response: `{"error": "..."}`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ErrorBody {
    /// Human-readable description of what was wrong with the request.
    pub error: String,
}

impl Response {
    /// A JSON response with the given pre-serialized body.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A typed JSON error response: `{"error": message}`.
    ///
    /// The body is escaped by hand rather than through `serde_json` +
    /// `.expect`: this constructor runs on the connection-serving path where
    /// the module invariant (lint rule P1) is "never panic", and a flat
    /// one-field object needs only string escaping. The
    /// `error_bodies_are_json_with_escaping` test pins the output to what
    /// `serde_json` would produce.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        let message = message.into();
        let mut body = String::with_capacity(message.len() + 12);
        body.push_str("{\"error\":\"");
        for c in message.chars() {
            match c {
                '"' => body.push_str("\\\""),
                '\\' => body.push_str("\\\\"),
                '\n' => body.push_str("\\n"),
                '\r' => body.push_str("\\r"),
                '\t' => body.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    body.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => body.push(c),
            }
        }
        body.push_str("\"}");
        Self::json(status, body)
    }

    /// The response a parse failure maps to.
    pub fn from_http_error(error: &HttpError) -> Self {
        Self::error(error.status(), error.to_string())
    }

    /// A `text/plain` response (the Prometheus exposition format is
    /// text-based).
    pub fn text(status: u16, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body: body.into_bytes(),
        }
    }

    /// Serializes status line, headers and body to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error (the caller usually just drops
    /// the connection).
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        )?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// The canonical reason phrase of the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_get_request() {
        let request = parse(b"GET /jobs/7?verbose=1 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/jobs/7");
        assert_eq!(request.query.as_deref(), Some("verbose=1"));
        assert_eq!(request.header("host"), Some("x"));
        assert!(request.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let request = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(request.body, b"hello");
        // Bare-LF line endings are tolerated too.
        let request = parse(b"POST /jobs HTTP/1.1\nContent-Length: 2\n\nhi")
            .unwrap()
            .unwrap();
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn empty_connection_is_not_an_error() {
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn truncated_requests_are_typed_eof() {
        for raw in [
            b"GET /jobs".as_slice(),
            b"GET /jobs HTTP/1.1\r\nHost: x".as_slice(),
            b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err, HttpError::UnexpectedEof, "raw={raw:?}");
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        for raw in [
            b"GARBAGE\r\n\r\n".as_slice(),
            b"GET /jobs\r\n\r\n".as_slice(),
            b"GET /jobs HTTP/1.1 extra\r\n\r\n".as_slice(),
            b"G=T /jobs HTTP/1.1\r\n\r\n".as_slice(),
            b" / HTTP/1.1\r\n\r\n".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(
                matches!(err, HttpError::MalformedRequestLine(_)),
                "raw={raw:?} err={err:?}"
            );
            assert_eq!(err.status(), 400);
        }
        let err = parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::UnsupportedVersion(_)));
        assert_eq!(err.status(), 505);
    }

    #[test]
    fn oversized_inputs_hit_their_limits() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse(long_line.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::LineTooLong { .. }));
        assert_eq!(err.status(), 431);

        let mut many_headers = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many_headers.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        many_headers.extend_from_slice(b"\r\n");
        let err = parse(&many_headers).unwrap_err();
        assert!(matches!(err, HttpError::TooManyHeaders { .. }));
        assert_eq!(err.status(), 431);

        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(huge.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }));
        assert_eq!(err.status(), 413);

        let bad = b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n";
        let err = parse(bad).unwrap_err();
        assert!(matches!(err, HttpError::BadContentLength(_)));
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn ambiguous_content_lengths_are_invalid_framing() {
        for raw in [
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 7\r\n\r\nhiabcde".as_slice(),
            b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(
                matches!(err, HttpError::BadContentLength(_)),
                "raw={raw:?} err={err:?}"
            );
            assert_eq!(err.status(), 400);
        }
        // Repeats of one value frame the body unambiguously.
        let request = parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi")
            .unwrap()
            .unwrap();
        assert_eq!(request.body, b"hi");
    }

    #[test]
    fn transfer_codings_are_not_implemented() {
        for raw in [
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                .as_slice(),
            b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello"
                .as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(
                err,
                HttpError::UnsupportedTransferCoding("chunked".to_string()),
                "raw={raw:?}"
            );
            assert_eq!(err.status(), 501);
            assert_eq!(reason(err.status()), "Not Implemented");
        }
    }

    #[test]
    fn header_without_separator_is_rejected() {
        let err = parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::MalformedHeader(_)));
        let err = parse(b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::MalformedHeader(_)));
    }

    #[test]
    fn error_display_truncates_attacker_text() {
        let long = "x".repeat(500);
        let err = HttpError::MalformedRequestLine(truncate_for_display(&long));
        assert!(err.to_string().len() < 200);
    }

    #[test]
    fn responses_serialize_with_connection_close() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_bodies_are_json_with_escaping() {
        // The hand-escaped body must round-trip through the real JSON parser
        // and match what serde_json would have produced, for every escape
        // class the manual path handles.
        for message in [
            "bad \"quoted\" input",
            "back\\slash",
            "line\nbreak\r\ttab",
            "control\u{1}byte",
            "unicode … ✓ é",
            "",
        ] {
            let response = Response::error(400, message);
            let raw = std::str::from_utf8(&response.body).unwrap();
            let body: ErrorBody =
                serde_json::from_str(raw).expect("error bodies round-trip through the JSON parser");
            assert_eq!(body.error, message);
            let via_serde = serde_json::to_string(&ErrorBody {
                error: message.to_string(),
            })
            .unwrap();
            assert_eq!(raw, via_serde, "message={message:?}");
        }
    }
}
