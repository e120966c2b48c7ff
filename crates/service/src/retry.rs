//! The shared retry policy: capped exponential backoff with deterministic
//! jitter, plus the transient-vs-fatal classification every client-side
//! loop in the service agrees on.
//!
//! A campaign fleet has three loops that talk to the server — the worker's
//! lease poll, the worker's record streaming, and `tats submit --wait`'s
//! record paging — and all three must ride out the same events: a server
//! restart (connection refused while the process is down and while it
//! replays its journal), a dropped keep-alive connection, a transient
//! socket reset. They must equally all *stop* on the same events: a
//! campaign-fingerprint mismatch, a scenario-evaluation failure, a 4xx the
//! server will answer identically forever. [`is_transient`] draws that
//! line once; [`RetryPolicy::run`] applies it with capped exponential
//! backoff so a restarting server sees a trickle of probes, not a stampede.
//!
//! Jitter is deterministic (a splitmix64 hash of the policy seed and the
//! attempt number) for the same reason every clock in this workspace is
//! scripted: retry schedules reproduce exactly in tests.

use std::time::Duration;

use crate::error::ServiceError;

/// Classifies an error as transient (worth retrying: the operation may
/// succeed verbatim against a healthy server) or fatal (retrying cannot
/// help; the request itself, or this build of the code, is wrong).
///
/// Transient: any socket-level I/O failure (refused, reset, timed out —
/// the server is restarting or the keep-alive connection died), an HTTP
/// 502/503/504 (a proxy or the server is overloaded, e.g. the `503` of the
/// server's connection cap), an HTTP 429 / [`ServiceError::RateLimited`]
/// (the client is over its pending-shard quota, which frees up as its
/// shards drain), and the client-side [`ServiceError::Unavailable`].
///
/// Fatal: everything else — other 4xx statuses (including the 409
/// lease-lost signal, which callers handle specially), protocol violations
/// such as a campaign-fingerprint mismatch, engine failures, and the
/// injected-crash [`ServiceError::Aborted`] hook, which must look like a
/// real crash.
pub fn is_transient(error: &ServiceError) -> bool {
    match error {
        ServiceError::Io(_) | ServiceError::Unavailable(_) | ServiceError::RateLimited { .. } => {
            true
        }
        ServiceError::Http { status, .. } => matches!(status, 429 | 502..=504),
        _ => false,
    }
}

/// Capped exponential backoff with deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Delay before the first retry, ms; doubles per retry.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay, ms.
    pub max_delay_ms: u64,
    /// Seed of the deterministic jitter (vary per worker so a fleet killed
    /// by the same restart does not retry in lockstep).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 10 attempts, 50 ms base, 2 s cap: a worker rides out ~10 s of
    /// server downtime (a restart plus journal replay) before giving up.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
            jitter_seed: 0x7A75,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, fail fast). Used by tests
    /// and anywhere the caller owns its own recovery.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Returns this policy reseeded for a named holder (e.g. the worker
    /// name), so fleet members desynchronise their retry schedules.
    pub fn seeded_for(mut self, name: &str) -> Self {
        self.jitter_seed = name.bytes().fold(self.jitter_seed, |seed, byte| {
            splitmix64(seed ^ u64::from(byte))
        });
        self
    }

    /// The delay before retry number `attempt` (0-based: the delay after
    /// the first failure is `delay_ms(0)`): `base * 2^attempt` capped at
    /// `max_delay_ms`, minus a deterministic jitter of up to 25% so
    /// concurrent clients spread out.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exponential = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_delay_ms.max(1));
        let span = exponential / 4;
        if span == 0 {
            return exponential;
        }
        exponential - splitmix64(self.jitter_seed ^ u64::from(attempt)) % (span + 1)
    }

    /// Runs `op`, retrying transient failures (per [`is_transient`]) with
    /// this policy's backoff until one attempt succeeds, a fatal error
    /// occurs, or `max_attempts` attempts have failed.
    ///
    /// # Errors
    ///
    /// Returns the first fatal error, or the last transient error once the
    /// attempt budget is exhausted.
    pub fn run<T>(&self, op: impl FnMut() -> Result<T, ServiceError>) -> Result<T, ServiceError> {
        self.run_observed(|_, _| {}, op)
    }

    /// Like [`RetryPolicy::run`], but calls `observe` with every failed
    /// attempt's error and its [`is_transient`] classification before the
    /// retry/fail decision is made — the hook worker metrics use to count
    /// transient vs fatal failures without owning the loop.
    ///
    /// # Errors
    ///
    /// As [`RetryPolicy::run`].
    pub fn run_observed<T>(
        &self,
        mut observe: impl FnMut(&ServiceError, bool),
        mut op: impl FnMut() -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(error) => {
                    let transient = is_transient(&error);
                    observe(&error, transient);
                    if transient && attempt + 1 < attempts {
                        std::thread::sleep(Duration::from_millis(self.delay_ms(attempt)));
                        attempt += 1;
                    } else {
                        return Err(error);
                    }
                }
            }
        }
    }
}

/// The splitmix64 mixing function: a cheap, high-quality 64-bit hash used
/// for jitter (not for anything cryptographic).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn classification_separates_transport_from_logic() {
        assert!(is_transient(&ServiceError::Io(io::Error::other("reset"))));
        assert!(is_transient(&ServiceError::Unavailable("sealed".into())));
        for status in [429u16, 502, 503, 504] {
            assert!(is_transient(&ServiceError::Http {
                status,
                message: String::new()
            }));
        }
        assert!(is_transient(&ServiceError::RateLimited {
            message: "over quota".into(),
            retry_after_s: 1
        }));
        for status in [400u16, 404, 409, 500] {
            assert!(!is_transient(&ServiceError::Http {
                status,
                message: String::new()
            }));
        }
        assert!(!is_transient(&ServiceError::Protocol(
            "fingerprint mismatch".into()
        )));
        assert!(!is_transient(&ServiceError::Aborted("injected".into())));
        assert!(!is_transient(&ServiceError::BadRequest("spec".into())));
    }

    #[test]
    fn delays_grow_exponentially_and_cap() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 100,
            max_delay_ms: 1_000,
            jitter_seed: 7,
        };
        for attempt in 0..8 {
            let delay = policy.delay_ms(attempt);
            let nominal = (100u64 << attempt).min(1_000);
            assert!(delay <= nominal, "attempt {attempt}: {delay} > {nominal}");
            assert!(
                delay >= nominal - nominal / 4,
                "attempt {attempt}: {delay} under-runs the 25% jitter window of {nominal}"
            );
        }
        // Deterministic: the same policy produces the same schedule.
        assert_eq!(policy.delay_ms(3), policy.delay_ms(3));
        // Different seeds (different workers) produce different schedules.
        let other = RetryPolicy {
            jitter_seed: 8,
            ..policy
        };
        assert!((0..8).any(|a| policy.delay_ms(a) != other.delay_ms(a)));
        assert_ne!(
            policy.seeded_for("w1").jitter_seed,
            policy.seeded_for("w2").jitter_seed
        );
    }

    #[test]
    fn run_retries_transient_until_success() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 1,
            max_delay_ms: 2,
            jitter_seed: 0,
        };
        let mut calls = 0;
        let result: Result<u32, _> = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(ServiceError::Io(io::Error::other("refused")))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_stops_on_fatal_and_on_exhaustion() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 2,
            jitter_seed: 0,
        };
        // Fatal: exactly one attempt.
        let mut calls = 0;
        let result: Result<(), _> = policy.run(|| {
            calls += 1;
            Err(ServiceError::BadRequest("no".into()))
        });
        assert!(matches!(result, Err(ServiceError::BadRequest(_))));
        assert_eq!(calls, 1);
        // Transient forever: the budget bounds the attempts.
        let mut calls = 0;
        let result: Result<(), _> = policy.run(|| {
            calls += 1;
            Err(ServiceError::Io(io::Error::other("refused")))
        });
        assert!(matches!(result, Err(ServiceError::Io(_))));
        assert_eq!(calls, 3);
        // max_attempts 0 still makes one attempt.
        let mut calls = 0;
        let _: Result<(), _> = RetryPolicy {
            max_attempts: 0,
            ..policy
        }
        .run(|| {
            calls += 1;
            Err(ServiceError::Io(io::Error::other("refused")))
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn run_observed_reports_each_failure_with_its_class() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 2,
            jitter_seed: 0,
        };
        let mut transient = 0u32;
        let mut fatal = 0u32;
        let mut calls = 0;
        let result: Result<u32, _> = policy.run_observed(
            |_, is_transient| {
                if is_transient {
                    transient += 1;
                } else {
                    fatal += 1;
                }
            },
            || {
                calls += 1;
                match calls {
                    1 => Err(ServiceError::Io(io::Error::other("refused"))),
                    _ => Err(ServiceError::BadRequest("no".into())),
                }
            },
        );
        // One transient failure observed and retried, then a fatal one
        // observed and propagated.
        assert!(matches!(result, Err(ServiceError::BadRequest(_))));
        assert_eq!((transient, fatal), (1, 1));
        assert_eq!(calls, 2);
    }
}
