//! Error type of the campaign service.

use std::error::Error;
use std::fmt;
use std::io;

use tats_engine::EngineError;

/// Errors produced by the campaign service (server, worker and client
/// sides).
#[derive(Debug)]
pub enum ServiceError {
    /// An I/O failure on a socket or stream.
    Io(io::Error),
    /// A campaign-engine failure while enumerating or running scenarios.
    Engine(EngineError),
    /// A malformed HTTP request or response, or a protocol-level invariant
    /// violation (bad JSON where JSON was required, missing fields, a
    /// fingerprint mismatch between server and worker).
    Protocol(String),
    /// The request referenced a job, shard or resource that does not exist.
    NotFound(String),
    /// The request was well-formed but not executable as given (bad spec,
    /// record for a foreign campaign, wrong shard).
    BadRequest(String),
    /// The request lost a race: the shard is validly leased to another
    /// worker, or the state transition is no longer allowed.
    Conflict(String),
    /// The remote side answered with an HTTP error status (client side).
    Http {
        /// The response status code.
        status: u16,
        /// The response body (the server's error message).
        message: String,
    },
    /// The worker deliberately aborted mid-shard (the injected-failure test
    /// hook simulating a crash).
    Aborted(String),
    /// The server exists but cannot serve the request any more: its journal
    /// was sealed by an abort. Clients treat this as transient and retry
    /// with backoff — a restarted server answers — see
    /// [`crate::retry::is_transient`].
    Unavailable(String),
    /// The request was refused by admission control (per-client pending
    /// shard quota). Transient by definition: the quota frees up as the
    /// client's shards drain, so clients back off and retry — the server
    /// hints how long with a `retry-after` header.
    RateLimited {
        /// Human-readable quota message.
        message: String,
        /// Suggested wait before retrying, in seconds.
        retry_after_s: u64,
    },
}

impl ServiceError {
    /// The HTTP status code a server handler answering this error should
    /// send.
    pub fn status_code(&self) -> u16 {
        match self {
            ServiceError::NotFound(_) => 404,
            ServiceError::Conflict(_) => 409,
            ServiceError::BadRequest(_) | ServiceError::Protocol(_) | ServiceError::Engine(_) => {
                400
            }
            ServiceError::Io(_) | ServiceError::Http { .. } | ServiceError::Aborted(_) => 500,
            ServiceError::Unavailable(_) => 503,
            ServiceError::RateLimited { .. } => 429,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Protocol(message) => write!(f, "protocol error: {message}"),
            ServiceError::NotFound(what) => write!(f, "not found: {what}"),
            ServiceError::BadRequest(message) => write!(f, "bad request: {message}"),
            ServiceError::Conflict(message) => write!(f, "conflict: {message}"),
            ServiceError::Http { status, message } => {
                write!(f, "http {status}: {message}")
            }
            ServiceError::Aborted(message) => write!(f, "worker aborted: {message}"),
            ServiceError::Unavailable(message) => write!(f, "unavailable: {message}"),
            ServiceError::RateLimited {
                message,
                retry_after_s,
            } => write!(f, "rate limited: {message} (retry after {retry_after_s}s)"),
        }
    }
}

impl Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_match_error_classes() {
        assert_eq!(ServiceError::NotFound("job j9".into()).status_code(), 404);
        assert_eq!(ServiceError::Conflict("lease".into()).status_code(), 409);
        assert_eq!(ServiceError::BadRequest("spec".into()).status_code(), 400);
        assert_eq!(ServiceError::Protocol("json".into()).status_code(), 400);
        assert_eq!(
            ServiceError::Io(io::Error::other("boom")).status_code(),
            500
        );
        assert_eq!(
            ServiceError::Unavailable("journal sealed".into()).status_code(),
            503
        );
        assert_eq!(
            ServiceError::RateLimited {
                message: "client ci over quota".into(),
                retry_after_s: 2,
            }
            .status_code(),
            429
        );
    }

    #[test]
    fn display_is_informative() {
        assert!(ServiceError::NotFound("job j9".into())
            .to_string()
            .contains("j9"));
        assert!(ServiceError::Http {
            status: 409,
            message: "lease lost".into()
        }
        .to_string()
        .contains("409"));
        let limited = ServiceError::RateLimited {
            message: "client ci has 8 pending shard(s), quota 4".into(),
            retry_after_s: 2,
        }
        .to_string();
        assert!(limited.contains("quota 4") && limited.contains("retry after 2s"));
    }
}
