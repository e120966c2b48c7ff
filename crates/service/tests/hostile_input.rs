//! Hostile bytes never panic the decoders that read input from outside the
//! process.
//!
//! Every generated input goes through `http::read_request`,
//! `JsonValue::parse`, `SpanEvent::{parse_line, canonical_ids}` and
//! `LogEvent::parse_line`, each of which must return, `Ok` or `Err`,
//! without panicking. The inputs are arbitrary strings of up to 512 bytes
//! and 1–4 byte edits (replace, insert, delete, truncate) of a valid HTTP
//! request, a worker span line and a log line, drawn from the proptest seed
//! through `StdRng`.
//!
//! Whenever `canonical_ids` admits a line, `parse_line` decodes it to the
//! same ids, so span ingest never admits a line the decoder refuses.
//!
//! Run with a larger budget via `PROPTEST_CASES=<n>`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tats_service::http::read_request;
use tats_trace::log::{LogEvent, LogLevel};
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

/// A record post carrying `body`.
fn request(body: &str) -> String {
    format!(
        "POST /jobs/j000001/shards/0/records HTTP/1.1\r\nhost: 127.0.0.1\r\n\
         x-worker: w1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
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
    let _ = JsonValue::parse(&text);
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
        for base in [request(&span), span, log_line()] {
            decode_all(&edited(base.as_bytes(), &mut rng))?;
        }
    }
}
