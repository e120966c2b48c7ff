//! A deliberately small HTTP/1.1 implementation over `std::io` streams.
//!
//! The campaign service needs exactly one shape of HTTP: serial
//! request/response exchanges with `Content-Length` bodies between
//! processes that trust each other's framing (the CLI, the workers, a
//! `curl` for inspection). This module implements that shape and nothing
//! else — no chunked encoding, no pipelining, no TLS — so the whole wire
//! layer stays auditable and dependency-free.
//!
//! Connections are persistent (HTTP/1.1 keep-alive) by default: every
//! response is `Content-Length`-framed, so one socket carries many
//! exchanges and a record-streaming worker pays connection setup once per
//! shard rather than once per record. Either side opts out per exchange
//! with a `Connection: close` header ([`Request::wants_close`] /
//! [`Response::allows_reuse`]); the server also closes on its per-
//! connection request bound, on idle timeout, and on shutdown.

use std::io::{BufRead, Read, Write};

use crate::error::ServiceError;

/// Upper bound on a request line or header line, bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request/response body, bytes (a 10k-scenario shard of
/// records is ~2 MB; leave generous headroom).
const MAX_BODY: usize = 64 * 1024 * 1024;
/// The most a body read reserves before its bytes arrive; a longer body
/// grows the buffer as it is read.
const MAX_BODY_RESERVE: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string (without the `?`), when present.
    pub query: Option<String>,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: String,
}

impl Request {
    /// The value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    /// The value of a `key=value` query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=')?;
            (key == name).then_some(value)
        })
    }

    /// The path split into non-empty `/`-separated segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Returns `true` when the client asked for the connection to be closed
    /// after this exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("close"))
    }
}

/// Reads one line terminated by `\n`, rejecting oversized input; the
/// returned line has `\r\n`/`\n` stripped.
fn read_line(reader: &mut impl BufRead) -> Result<String, ServiceError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) => return Err(ServiceError::Io(e)),
        }
        if byte[0] == b'\n' {
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_LINE {
            return Err(ServiceError::Protocol("header line too long".to_string()));
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ServiceError::Protocol("non-UTF-8 header".to_string()))
}

/// Reads headers up to the blank line; names are lowercased.
fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, ServiceError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ServiceError::Protocol("too many headers".to_string()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServiceError::Protocol(format!("malformed header '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads a `Content-Length` body (empty when the header is absent).
fn read_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
) -> Result<String, ServiceError> {
    let length = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .map(|(_, value)| {
            value
                .parse::<usize>()
                .map_err(|_| ServiceError::Protocol(format!("bad content-length '{value}'")))
        })
        .transpose()?
        .unwrap_or(0);
    if length > MAX_BODY {
        return Err(ServiceError::Protocol(format!(
            "body of {length} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    // Reserve the declared length only up to a bound, so a peer that
    // declares 64 MiB and sends nothing costs 64 KiB; a body of the usual
    // few kilobytes still lands in one allocation.
    let mut body = Vec::with_capacity(length.min(MAX_BODY_RESERVE));
    reader.take(length as u64).read_to_end(&mut body)?;
    if body.len() < length {
        return Err(ServiceError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("body ended after {} of {length} bytes", body.len()),
        )));
    }
    String::from_utf8(body).map_err(|_| ServiceError::Protocol("non-UTF-8 body".to_string()))
}

/// Reads and parses one request from the stream.
///
/// # Errors
///
/// Returns [`ServiceError::Protocol`] for malformed requests and
/// [`ServiceError::Io`] for stream failures.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ServiceError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version), None) => (method, target, version),
        _ => {
            return Err(ServiceError::Protocol(format!(
                "malformed request line '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServiceError::Protocol(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
    })
}

/// The standard reason phrase of the status codes this service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Content-Length`-framed response. `keep_alive`
/// selects the `Connection:` header: `keep-alive` keeps the socket open
/// for the next exchange, `close` tells the peer this was the last one
/// (per-connection request bound reached, client asked, or the server is
/// shutting down).
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
    keep_alive: bool,
) -> Result<(), ServiceError> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    // One write per response: two small writes on a keep-alive socket make
    // Nagle hold the second until the first is ACKed — with the peer's
    // delayed ACK that is a ~40 ms stall per exchange.
    head.push_str(body);
    writer.write_all(head.as_bytes())?;
    writer.flush()?;
    Ok(())
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Header name/value pairs (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// The value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    /// Returns `true` when the connection that carried this response may be
    /// reused for another exchange: the server said `Connection: keep-alive`
    /// *and* the body was `Content-Length`-framed (a read-to-EOF body
    /// consumed the stream). Absent or different `Connection:` values mean
    /// close — the conservative HTTP/1.0-compatible reading.
    pub fn allows_reuse(&self) -> bool {
        self.header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("keep-alive"))
            && self.header("content-length").is_some()
    }
}

/// Reads and parses one response from the stream. Bodies are framed by
/// `Content-Length` when present, otherwise by connection close.
///
/// # Errors
///
/// Returns [`ServiceError::Protocol`] for malformed responses and
/// [`ServiceError::Io`] for stream failures.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, ServiceError> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| ServiceError::Protocol(format!("malformed status line '{status_line}'")))?;
    let headers = read_headers(reader)?;
    let body = if headers.iter().any(|(name, _)| name == "content-length") {
        read_body(reader, &headers)?
    } else {
        read_to_close(reader, MAX_BODY)?
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Reads a body framed by connection close, refusing more than `limit`
/// bytes. At most `limit + 1` bytes are read, so a peer that never stops
/// sending cannot grow the buffer without bound.
fn read_to_close(reader: &mut impl BufRead, limit: usize) -> Result<String, ServiceError> {
    let mut bytes = Vec::new();
    reader.take(limit as u64 + 1).read_to_end(&mut bytes)?;
    if bytes.len() > limit {
        return Err(ServiceError::Protocol(
            "response body too large".to_string(),
        ));
    }
    String::from_utf8(bytes).map_err(|_| ServiceError::Protocol("non-UTF-8 body".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = "POST /jobs/j1/records?from=3 HTTP/1.1\r\nHost: x\r\nX-Worker: w1\r\n\
                   Content-Length: 9\r\n\r\n{\"id\":42}";
        let request = read_request(&mut BufReader::new(raw.as_bytes())).expect("parse");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/jobs/j1/records");
        assert_eq!(request.query_param("from"), Some("3"));
        assert_eq!(request.query_param("missing"), None);
        assert_eq!(request.header("x-worker"), Some("w1"));
        assert_eq!(request.header("X-WORKER"), Some("w1"));
        assert_eq!(request.body, "{\"id\":42}");
        assert_eq!(request.segments(), vec!["jobs", "j1", "records"]);
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let request = read_request(&mut BufReader::new(raw.as_bytes())).expect("parse");
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert!(request.query.is_none());
        assert!(request.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nine\r\n\r\n",
        ] {
            let error = read_request(&mut BufReader::new(raw.as_bytes())).expect_err(raw);
            assert!(matches!(error, ServiceError::Protocol(_)), "{raw}: {error}");
        }
        // A truncated body is an I/O error (unexpected EOF), not a hang.
        let truncated = "POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        assert!(matches!(
            read_request(&mut BufReader::new(truncated.as_bytes())),
            Err(ServiceError::Io(_))
        ));
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            201,
            "application/json",
            &[("x-job", "j1".to_string())],
            "{\"job\":\"j1\"}",
            false,
        )
        .expect("write");
        let response = read_response(&mut BufReader::new(wire.as_slice())).expect("read");
        assert_eq!(response.status, 201);
        assert_eq!(response.header("X-Job"), Some("j1"));
        assert_eq!(response.body, "{\"job\":\"j1\"}");
        assert!(!response.allows_reuse());
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("connection: close"));
    }

    #[test]
    fn keep_alive_responses_frame_back_to_back_exchanges() {
        // Two keep-alive responses on one stream: each is consumed exactly
        // by its content-length, so the second parses cleanly after the
        // first — the framing persistent connections rely on.
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "text/plain", &[], "first", true).expect("write 1");
        write_response(&mut wire, 200, "text/plain", &[], "second", false).expect("write 2");
        let mut reader = BufReader::new(wire.as_slice());
        let first = read_response(&mut reader).expect("read 1");
        assert_eq!(first.body, "first");
        assert!(first.allows_reuse());
        let second = read_response(&mut reader).expect("read 2");
        assert_eq!(second.body, "second");
        assert!(!second.allows_reuse());
    }

    #[test]
    fn connection_close_requests_are_recognised() {
        let raw = "GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let request = read_request(&mut BufReader::new(raw.as_bytes())).expect("parse");
        assert!(request.wants_close());
        let raw = "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let request = read_request(&mut BufReader::new(raw.as_bytes())).expect("parse");
        assert!(!request.wants_close());
    }

    #[test]
    fn response_without_content_length_reads_to_eof() {
        let raw = "HTTP/1.1 200 OK\r\nconnection: keep-alive\r\n\r\nstreamed until close";
        let response = read_response(&mut BufReader::new(raw.as_bytes())).expect("read");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "streamed until close");
        // Without content-length framing the stream was consumed: no reuse,
        // whatever the connection header claims.
        assert!(!response.allows_reuse());
    }

    #[test]
    fn close_framed_bodies_stop_one_byte_past_the_limit() {
        /// A peer that never stops sending.
        struct Endless {
            served: usize,
        }
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'x');
                self.served += buf.len();
                Ok(buf.len())
            }
        }
        const LIMIT: usize = 4_096;
        let mut reader = BufReader::new(Endless { served: 0 });
        let error = read_to_close(&mut reader, LIMIT).expect_err("an endless body is refused");
        assert!(matches!(error, ServiceError::Protocol(_)), "{error}");
        // The read stopped at the limit (plus what one buffer fill held).
        assert!(reader.get_ref().served <= LIMIT + 1 + reader.capacity());
        // A body within the limit reads to EOF as before.
        let body = "x".repeat(LIMIT);
        let read = read_to_close(&mut BufReader::new(body.as_bytes()), LIMIT).expect("fits");
        assert_eq!(read, body);
    }

    #[test]
    fn oversized_lines_are_refused() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(matches!(
            read_request(&mut BufReader::new(raw.as_bytes())),
            Err(ServiceError::Protocol(_))
        ));
    }
}
