//! The tiny HTTP client the worker, the submitter and the tests share.
//!
//! Two flavours over the same wire format ([`crate::http`]):
//!
//! * [`request`]/[`get`]/[`post_json`] — one-shot helpers that dial, send
//!   `Connection: close`, read the response and hang up. Right for probes
//!   and one-off status queries, and the only safe way to send a
//!   non-idempotent request such as `POST /jobs` (no silent retry).
//! * [`Connection`] — a persistent keep-alive connection that pipelines
//!   many request/response exchanges over one TCP stream. This is what the
//!   worker posts its lease polls and record batches through, paying one
//!   TCP handshake per connection instead of one per request.
//!
//! A keep-alive stream can always go stale between exchanges (the server
//! restarts, closes an idle connection, or caps requests-per-connection),
//! so [`Connection::request`] transparently redials **once** when an
//! exchange on a *reused* stream fails with an I/O error. That retry is
//! safe for this protocol: a server that closed the connection before the
//! request arrived never processed it, and every request the worker repeats
//! through this path is idempotent on the server side (ingest dedups,
//! done is idempotent, a leaked lease expires with its TTL). Failures on a
//! *fresh* dial are never retried here — that is [`crate::retry`]'s job,
//! with backoff.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tats_trace::JsonValue;

use crate::error::ServiceError;
use crate::http::{read_response, Response};

/// Per-request socket timeout. Generous: a lease request against a server
/// busy ingesting a large record batch must not flap.
const TIMEOUT: Duration = Duration::from_secs(30);

fn write_request(
    mut writer: impl Write,
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: Option<&str>,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: {connection}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    let body = body.unwrap_or("");
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    // One write per request (see `http::write_response`): a head+body write
    // pair on a reused connection hits the Nagle/delayed-ACK stall.
    head.push_str(body);
    writer.write_all(head.as_bytes())?;
    writer.flush()
}

fn dial(addr: &str) -> Result<TcpStream, ServiceError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    // Request/response traffic is small and latency-bound; never trade a
    // round-trip of latency for segment coalescing.
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Performs one HTTP exchange against `addr` (a `host:port` string) on a
/// fresh connection (`Connection: close`). Returns the response whatever
/// its status; see [`expect_ok`] for the variant that turns error statuses
/// into [`ServiceError::Http`].
///
/// # Errors
///
/// Returns [`ServiceError::Io`] for connection failures and
/// [`ServiceError::Protocol`] for unparsable responses.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: Option<&str>,
) -> Result<Response, ServiceError> {
    let stream = dial(addr)?;
    write_request(&stream, addr, method, path, headers, body, false)?;
    read_response(&mut BufReader::new(&stream))
}

/// Maps an error-status response to [`ServiceError::Http`], passing 2xx
/// through. A 429 becomes [`ServiceError::RateLimited`] carrying the
/// server's `retry-after` hint, so admission-control refusals stay
/// distinguishable (and [`crate::retry`]-transient) on the client side.
///
/// # Errors
///
/// Returns [`ServiceError::RateLimited`] for 429 and [`ServiceError::Http`]
/// carrying the status and body for other non-2xx responses.
pub fn expect_ok(response: Response) -> Result<Response, ServiceError> {
    if (200..300).contains(&response.status) {
        Ok(response)
    } else if response.status == 429 {
        Err(ServiceError::RateLimited {
            retry_after_s: response
                .header("retry-after")
                .and_then(|value| value.trim().parse::<u64>().ok())
                .unwrap_or(1),
            message: response.body,
        })
    } else {
        Err(ServiceError::Http {
            status: response.status,
            message: response.body,
        })
    }
}

/// `GET path` on a fresh connection, requiring a 2xx response.
///
/// # Errors
///
/// Propagates transport errors and non-2xx statuses.
pub fn get(addr: &str, path: &str) -> Result<Response, ServiceError> {
    expect_ok(request(addr, "GET", path, &[], None)?)
}

/// `POST path` with a JSON body on a fresh connection, requiring a 2xx
/// response whose body parses as JSON.
///
/// # Errors
///
/// Propagates transport errors, non-2xx statuses and unparsable bodies.
pub fn post_json(addr: &str, path: &str, body: &JsonValue) -> Result<JsonValue, ServiceError> {
    let response = expect_ok(request(
        addr,
        "POST",
        path,
        &[("content-type", "application/json".to_string())],
        Some(&body.to_json()),
    )?)?;
    parse_json_body(path, response)
}

fn parse_json_body(path: &str, response: Response) -> Result<JsonValue, ServiceError> {
    JsonValue::parse(&response.body)
        .map_err(|e| ServiceError::Protocol(format!("unparsable response from {path}: {e}")))
}

/// A persistent keep-alive HTTP connection to one server address.
///
/// The stream is dialed lazily on first use and kept open across exchanges
/// for as long as both sides agree to reuse it (the server answers
/// `connection: keep-alive` with a `content-length`). When the server
/// declines reuse — or the stream dies between exchanges — the next request
/// redials transparently; see the module docs for why the single redial is
/// safe.
#[derive(Debug)]
pub struct Connection {
    addr: String,
    stream: Option<TcpStream>,
    /// Exchanges completed over the life of this value (across redials).
    exchanges: u64,
    /// Fresh TCP dials performed (1 for an uninterrupted keep-alive run;
    /// equals `exchanges` when the server forces `Connection: close`).
    dials: u64,
}

impl Connection {
    /// A lazy connection to `addr` (a `host:port` string). Does not dial.
    pub fn new(addr: &str) -> Self {
        Connection {
            addr: addr.to_string(),
            stream: None,
            exchanges: 0,
            dials: 0,
        }
    }

    /// The server address this connection dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Exchanges completed so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Fresh TCP dials performed so far — the keep-alive effectiveness
    /// metric (1 dial for many exchanges is the whole point).
    pub fn dials(&self) -> u64 {
        self.dials
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: Option<&str>,
    ) -> Result<Response, ServiceError> {
        if self.stream.is_none() {
            self.stream = Some(dial(&self.addr)?);
            self.dials += 1;
        }
        let stream = self.stream.as_ref().expect("dialed above");
        write_request(stream, &self.addr, method, path, headers, body, true)?;
        let response = read_response(&mut BufReader::new(stream))?;
        self.exchanges += 1;
        if !response.allows_reuse() {
            self.stream = None;
        }
        Ok(response)
    }

    /// Performs one exchange, reusing the open stream when possible and
    /// redialing once when a *reused* stream turns out to be stale.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] for connection failures (after the one
    /// stale-stream redial) and [`ServiceError::Protocol`] for unparsable
    /// responses. Statuses are returned as-is; combine with [`expect_ok`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: Option<&str>,
    ) -> Result<Response, ServiceError> {
        let reused = self.stream.is_some();
        match self.exchange(method, path, headers, body) {
            Err(ServiceError::Io(_)) if reused => {
                // The keep-alive stream died between exchanges (server
                // restart, idle close, request cap). Redial once.
                self.stream = None;
                self.exchange(method, path, headers, body)
            }
            other => other,
        }
    }

    /// `GET path`, requiring a 2xx response.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and non-2xx statuses.
    pub fn get(&mut self, path: &str) -> Result<Response, ServiceError> {
        expect_ok(self.request("GET", path, &[], None)?)
    }

    /// `POST path` with a JSON body, requiring a 2xx response whose body
    /// parses as JSON.
    ///
    /// # Errors
    ///
    /// Propagates transport errors, non-2xx statuses and unparsable bodies.
    pub fn post_json(&mut self, path: &str, body: &JsonValue) -> Result<JsonValue, ServiceError> {
        let response = expect_ok(self.request(
            "POST",
            path,
            &[("content-type", "application/json".to_string())],
            Some(&body.to_json()),
        )?)?;
        parse_json_body(path, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_ok_discriminates_statuses() {
        let ok = Response {
            status: 200,
            headers: Vec::new(),
            body: "{}".to_string(),
        };
        assert!(expect_ok(ok).is_ok());
        let error = expect_ok(Response {
            status: 409,
            headers: Vec::new(),
            body: "conflict: lease lost".to_string(),
        })
        .expect_err("409");
        assert!(
            matches!(error, ServiceError::Http { status: 409, .. }),
            "{error}"
        );
        // A quota refusal surfaces as RateLimited with the server's wait
        // hint parsed out of the retry-after header (default 1 s).
        let error = expect_ok(Response {
            status: 429,
            headers: vec![("retry-after".to_string(), "7".to_string())],
            body: "rate limited: client ci over quota".to_string(),
        })
        .expect_err("429");
        assert!(
            matches!(
                error,
                ServiceError::RateLimited {
                    retry_after_s: 7,
                    ..
                }
            ),
            "{error}"
        );
    }

    #[test]
    fn connecting_to_a_dead_port_is_an_io_error() {
        // Port 1 on localhost is essentially never listening.
        let error = request("127.0.0.1:1", "GET", "/healthz", &[], None).expect_err("dead");
        assert!(matches!(error, ServiceError::Io(_)), "{error}");
        // The persistent flavour fails the same way (a fresh dial is never
        // silently retried) and stays usable afterwards.
        let mut connection = Connection::new("127.0.0.1:1");
        let error = connection.get("/healthz").expect_err("dead");
        assert!(matches!(error, ServiceError::Io(_)), "{error}");
        assert_eq!(connection.exchanges(), 0);
    }
}
