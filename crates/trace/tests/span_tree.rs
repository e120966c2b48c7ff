//! Span-tree properties, pinned over randomised trees.
//!
//! For arbitrary generated span trees (every child's interval nested
//! within its parent, ids unique by construction):
//!
//! * JSONL serialisation round-trips every span exactly (through
//!   `SpanEvent::parse_line` and through a real crash-repaired log file);
//! * `SpanForest::build` reattaches every child to its parent and finds
//!   exactly the generated roots;
//! * the critical path is a root-to-leaf chain of parent links that
//!   descends into the longest child at every hop;
//! * the Chrome trace-event export parses back through `JsonValue::parse`
//!   with one `"X"` event per span.
//!
//! Run with a larger budget via `PROPTEST_CASES=<n>`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tats_trace::spans::{chrome_trace, SpanEvent, SpanForest, SpanIdGen, SpanKind};
use tats_trace::JsonValue;

/// Generates a random span tree: span 0 is the root; every later span
/// picks an earlier parent and an interval nested inside it. Ids come
/// from a seeded [`SpanIdGen`], so the whole tree is a function of the
/// seed.
fn random_tree(seed: u64, count: usize) -> Vec<SpanEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = SpanIdGen::seeded(seed);
    let trace = ids.next_id();
    let kinds = [
        SpanKind::Client,
        SpanKind::Server,
        SpanKind::Worker,
        SpanKind::Internal,
    ];
    let root_start = rng.gen_range(0u64..1_000_000);
    let root_end = root_start + rng.gen_range(1_000u64..1_000_000);
    let mut spans = vec![SpanEvent::new(
        trace,
        ids.next_id(),
        None,
        "root",
        SpanKind::Server,
        root_start,
        root_end,
    )];
    for index in 1..count {
        let parent = rng.gen_range(0..index);
        let (lo, hi) = (spans[parent].start_us, spans[parent].end_us);
        let start = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        let end = if hi > start {
            rng.gen_range(start..hi + 1)
        } else {
            start
        };
        let name = ["scenario", "thermal", "scheduling", "lease"][rng.gen_range(0..4usize)];
        let mut span = SpanEvent::new(
            trace,
            ids.next_id(),
            Some(spans[parent].span_id),
            name,
            kinds[rng.gen_range(0..kinds.len())],
            start,
            end,
        );
        if rng.gen_range(0..2u32) == 0 {
            span = span
                .attr("worker", format!("w{}", rng.gen_range(0..3u32)))
                .attr("benchmark", "Bm1");
        }
        spans.push(span);
    }
    spans
}

proptest! {
    #[test]
    fn generated_trees_hold_every_span_invariant(seed in 0u64..1_000, count in 1usize..40) {
        let spans = random_tree(seed, count);

        // Ids are unique and nonzero.
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
        prop_assert_eq!(ids.len(), spans.len());
        prop_assert!(!ids.contains(&0));

        // Every child's interval is nested within its parent's.
        let find = |id: u64| spans.iter().find(|s| s.span_id == id).unwrap();
        for span in &spans {
            if let Some(parent) = span.parent_id {
                let parent = find(parent);
                prop_assert!(parent.start_us <= span.start_us);
                prop_assert!(span.end_us <= parent.end_us);
            }
        }

        // JSONL round-trip is exact for every span.
        for span in &spans {
            let parsed = SpanEvent::parse_line(&span.to_line()).expect("round trip");
            prop_assert_eq!(&parsed, span);
        }

        // The forest reattaches every child and finds exactly one root.
        let forest = SpanForest::build(spans.clone());
        prop_assert_eq!(forest.len(), spans.len());
        prop_assert_eq!(forest.roots().count(), 1);
        for span in &spans {
            if let Some(parent) = span.parent_id {
                prop_assert!(forest.children_of(parent).any(|c| c.span_id == span.span_id));
            }
        }

        // The critical path is a parent-linked chain from the root to a
        // leaf; with nested intervals the root itself carries the forest's
        // latest end, and every hop descends into the longest child.
        let path = forest.critical_path();
        prop_assert!(!path.is_empty());
        prop_assert_eq!(path[0].parent_id, None);
        for pair in path.windows(2) {
            prop_assert_eq!(pair[1].parent_id, Some(pair[0].span_id));
            let longest_child = forest
                .children_of(pair[0].span_id)
                .map(SpanEvent::duration_us)
                .max()
                .unwrap();
            prop_assert_eq!(pair[1].duration_us(), longest_child);
        }
        let last = path.last().unwrap();
        prop_assert_eq!(forest.children_of(last.span_id).count(), 0);
        let forest_end = spans.iter().map(|s| s.end_us).max().unwrap();
        prop_assert_eq!(path[0].end_us, forest_end);

        // Chrome export parses back with one complete event per span.
        let chrome = chrome_trace(&spans).to_json();
        let parsed = JsonValue::parse(&chrome).expect("chrome JSON");
        let complete = parsed
            .field_array("traceEvents")
            .expect("events")
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .count();
        prop_assert_eq!(complete, spans.len());
    }

    #[test]
    fn span_streams_survive_a_torn_log_tail(seed in 0u64..500) {
        let spans = random_tree(seed, 12);
        let path = std::env::temp_dir().join(format!("tats_span_tree_prop_{seed}.jsonl"));
        let _ = std::fs::remove_file(&path);
        // Write the stream, then simulate a kill -9 mid-write of one more.
        let (mut writer, _) = tats_trace::jsonl::append_repaired(&path).expect("open");
        let lines: Vec<String> = spans.iter().map(SpanEvent::to_line).collect();
        writer.write_lines(&lines).expect("write");
        drop(writer);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"trace_id\":\"00000000");
        std::fs::write(&path, &bytes).expect("tear");
        // Reopening repairs the tail; the surviving lines parse exactly.
        let (_, repaired) = tats_trace::jsonl::append_repaired(&path).expect("reopen");
        prop_assert!(repaired > 0);
        let text = std::fs::read_to_string(&path).expect("reread");
        let recovered: Vec<SpanEvent> = text
            .lines()
            .map(|line| SpanEvent::parse_line(line).expect(line))
            .collect();
        prop_assert_eq!(recovered, spans);
        let _ = std::fs::remove_file(&path);
    }
}
