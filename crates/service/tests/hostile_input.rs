//! Hostile bytes never panic the decoders that read input from outside the
//! process.
//!
//! Every generated input goes through `http::read_request`,
//! `JsonValue::parse`, `SpanEvent::{parse_line, canonical_ids}` and
//! `LogEvent::parse_line`, each of which must return, `Ok` or `Err`,
//! without panicking. A JSON input that carries a `metrics` field is also
//! decoded by `MetricsSnapshot::from_json` and merged into the fleet's
//! snapshot, as `POST /lease` and the progress handler do. The inputs are
//! arbitrary strings of up to 512 bytes and 1–4 byte edits (replace,
//! insert, delete, truncate) of a valid HTTP request, a worker span line, a
//! log line and a lease body that carries a metrics snapshot, drawn from
//! the proptest seed through `StdRng`.
//!
//! Whenever `canonical_ids` admits a line, `parse_line` decodes it to the
//! same ids, so span ingest never admits a line the decoder refuses. A
//! fleet counter at its limit stays there whatever a worker's snapshot
//! adds.
//!
//! A request that declares the largest body `read_request` admits and then
//! sends at most 4 KiB of it never asks the stream to fill more than 64 KiB
//! at once, and ends in the transient unexpected-EOF error a dropped
//! connection gives.
//!
//! Run with a larger budget via `PROPTEST_CASES=<n>`.

use std::io::{self, BufReader, Cursor, Read};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tats_service::http::read_request;
use tats_service::retry::is_transient;
use tats_service::ServiceError;
use tats_trace::log::{LogEvent, LogLevel};
use tats_trace::metrics::{MetricsRegistry, MetricsSnapshot};
use tats_trace::spans::{SpanEvent, SpanIdGen, SpanKind};
use tats_trace::JsonValue;

/// Bytes that steer inputs toward the decoders' edge cases: JSON
/// structure, escapes, number characters, line ends, control bytes and
/// UTF-8 lead and continuation bytes.
const HOSTILE: &[u8] = b"{}[]:,\"\\0123456789-+.eE \t\r\n\x00\x7f\x80\xbf\xc3\xe2\xf0\xff";

fn hostile_byte(rng: &mut StdRng) -> u8 {
    if rng.gen_bool(0.5) {
        HOSTILE[rng.gen_range(0..HOSTILE.len())]
    } else {
        rng.gen_range(0..=u8::MAX)
    }
}

/// A span line as a worker builds it for its record posts.
fn span_line() -> String {
    let trace = 0x5eed_0000_0000_0b0b;
    SpanEvent::new(
        trace,
        SpanIdGen::derive(trace ^ 17, "scenario"),
        Some(SpanIdGen::derive(trace, "shard")),
        "scenario",
        SpanKind::Worker,
        1_700_000_000_000_000,
        1_700_000_000_004_321,
    )
    .attr("benchmark", "Bm1")
    .attr("policy", "thermal")
    .attr("worker", "w1")
    .to_line()
}

fn log_line() -> String {
    LogEvent::new(LogLevel::Info, "registry", "records ingested")
        .at(1_700_000_000_000_000)
        .trace(0x5eed_0000_0000_0b0b)
        .attr("job", "j000001")
        .attr("shard", "0")
        .to_line()
}

const RECORDS_POSTED: &str = "worker_records_posted_total";

/// A worker's metrics after one scenario: its engine phases and a counter.
fn worker_metrics() -> MetricsSnapshot {
    let registry = MetricsRegistry::new();
    for (phase, us) in [("scheduling", 41), ("thermal", 3), ("grid", 12)] {
        registry
            .histogram("engine_phase_seconds", &[("phase", phase)])
            .record(us);
    }
    registry.counter(RECORDS_POSTED, &[]).add(5);
    registry.snapshot()
}

/// A lease poll that carries the worker's metrics snapshot.
fn lease_body() -> String {
    JsonValue::object(vec![
        ("worker".to_string(), JsonValue::from("w1")),
        ("metrics".to_string(), worker_metrics().to_json()),
    ])
    .to_json()
}

/// Decodes a lease body's `metrics` as `POST /lease` does and merges it
/// into a fleet snapshot that already holds a grid phase and whose counter
/// is at its limit, so the merge adds to both kinds of series.
fn merge_metrics(body: &JsonValue) -> Result<(), TestCaseError> {
    let Some(Ok(worker)) = body.get("metrics").map(MetricsSnapshot::from_json) else {
        return Ok(());
    };
    let fleet = MetricsRegistry::new();
    fleet
        .histogram("engine_phase_seconds", &[("phase", "grid")])
        .record(9);
    fleet.counter(RECORDS_POSTED, &[]).add(u64::MAX);
    let mut fleet = fleet.snapshot();
    fleet.merge(&worker);
    if let Some(records) = fleet.counter_value(RECORDS_POSTED, &[]) {
        prop_assert_eq!(records, u64::MAX);
    }
    if let Some(grid) = fleet.histogram_value("engine_phase_seconds", &[("phase", "grid")]) {
        let _ = grid.quantile(0.99);
    }
    let _ = fleet.render_prometheus();
    Ok(())
}

/// A record post carrying `body`.
fn request(body: &str) -> String {
    format!(
        "POST /jobs/j000001/shards/0/records HTTP/1.1\r\nhost: 127.0.0.1\r\n\
         x-worker: w1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A stream that serves `bytes` and records the largest buffer a read asks
/// it to fill.
struct MeteredStream {
    bytes: Cursor<Vec<u8>>,
    largest_read: usize,
}

impl Read for MeteredStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest_read = self.largest_read.max(buf.len());
        self.bytes.read(buf)
    }
}

/// `base` after 1–4 random byte edits.
fn edited(base: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        match rng.gen_range(0..4u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = hostile_byte(rng);
            }
            1 => {
                let at = rng.gen_range(0..=bytes.len());
                bytes.insert(at, hostile_byte(rng));
            }
            2 if !bytes.is_empty() => {
                bytes.remove(rng.gen_range(0..bytes.len()));
            }
            3 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            _ => {}
        }
    }
    bytes
}

/// Runs every decoder over `bytes` (the text decoders over its lossy UTF-8
/// reading); a panic fails the calling test.
fn decode_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    let _ = read_request(&mut &bytes[..]);
    let text = String::from_utf8_lossy(bytes);
    if let Ok(body) = JsonValue::parse(&text) {
        merge_metrics(&body)?;
    }
    let _ = LogEvent::parse_line(&text);
    let decoded = SpanEvent::parse_line(&text);
    if let Some(ids) = SpanEvent::canonical_ids(&text) {
        let span = decoded.map_err(|error| {
            TestCaseError::fail(format!(
                "canonical_ids admits a line parse_line refuses ({error}): {text}"
            ))
        })?;
        prop_assert_eq!((span.trace_id, span.span_id), ids, "{}", text);
    }
    Ok(())
}

#[test]
fn the_edited_inputs_start_valid() {
    let span = span_line();
    let decoded = SpanEvent::parse_line(&span).expect("span line");
    assert_eq!(
        SpanEvent::canonical_ids(&span),
        Some((decoded.trace_id, decoded.span_id))
    );
    LogEvent::parse_line(&log_line()).expect("log line");
    let posted = read_request(&mut request(&span).as_bytes()).expect("request");
    assert_eq!(posted.body, span);
    let lease = JsonValue::parse(&lease_body()).expect("lease body");
    let metrics = lease.field("metrics").expect("metrics");
    assert_eq!(MetricsSnapshot::from_json(metrics), Ok(worker_metrics()));
}

proptest! {
    #[test]
    fn arbitrary_strings_never_panic_a_decoder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let length = rng.gen_range(0..=512usize);
        let bytes: Vec<u8> = (0..length).map(|_| hostile_byte(&mut rng)).collect();
        decode_all(&bytes)?;
    }

    #[test]
    fn edited_inputs_never_panic_a_decoder(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = span_line();
        for base in [request(&span), span, log_line(), lease_body()] {
            decode_all(&edited(base.as_bytes(), &mut rng))?;
        }
    }

    #[test]
    fn a_declared_body_is_not_allocated_before_it_arrives(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire =
            b"POST /jobs/j000001/shards/0/records HTTP/1.1\r\ncontent-length: 67108864\r\n\r\n"
                .to_vec();
        let sent = rng.gen_range(0..=4096usize);
        wire.extend((0..sent).map(|_| hostile_byte(&mut rng)));
        let mut reader = BufReader::new(MeteredStream {
            bytes: Cursor::new(wire),
            largest_read: 0,
        });
        let error = read_request(&mut reader).expect_err("the body is 64 MiB short");
        prop_assert!(
            matches!(&error, ServiceError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{}",
            error
        );
        prop_assert!(is_transient(&error));
        let largest = reader.get_ref().largest_read;
        prop_assert!(largest <= 64 * 1024, "a read asked for {} bytes", largest);
    }
}
