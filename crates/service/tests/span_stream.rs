//! Distributed-tracing determinism, pinned end-to-end over real sockets.
//!
//! The span-stream contract: the merged per-job span stream served by
//! `GET /jobs/{id}/spans` is **a pure function of the journal**. Server
//! transition spans are stamped on a synthetic clock derived from the
//! journaled submit time, worker span batches are journaled verbatim with
//! their records, and shard span ids are derived deterministically — so
//! killing the server at an arbitrary point and restarting on the same
//! journal reproduces the stream byte-for-byte, including across shard
//! re-leases after a worker crash.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tats_core::Policy;
use tats_engine::{CampaignSpec, Effort, Executor, FlowKind};
use tats_service::{client, run_worker, Service, ServiceConfig, ServiceError, WorkerConfig};
use tats_taskgraph::Benchmark;
use tats_trace::spans::{id_hex, SpanEvent, SpanForest};
use tats_trace::{jsonl, JsonValue};

/// 1 benchmark x platform x 5 policies x 2 seeds = 10 scenarios.
fn spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec![Benchmark::Bm1],
        flows: vec![FlowKind::Platform],
        policies: Policy::ALL.to_vec(),
        solvers: vec![None],
        seeds: vec![0, 1],
        grid_resolution: (16, 16),
        effort: Effort::Fast,
    }
}

fn journal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tats_span_stream_{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn journaled_config(path: &Path) -> ServiceConfig {
    ServiceConfig {
        lease_ttl_ms: 200,
        journal: Some(path.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// Submits a traced job: the `x-trace-id` header is what `tats submit`
/// sends, and it seeds every downstream span id.
fn submit_traced(addr: &str, spec: &CampaignSpec, shards: usize, trace_id: u64) -> String {
    let body = JsonValue::object(vec![
        ("spec".to_string(), spec.to_json()),
        ("shards".to_string(), JsonValue::from(shards)),
    ])
    .to_json();
    let response = client::request(
        addr,
        "POST",
        "/jobs",
        &[("x-trace-id", id_hex(trace_id))],
        Some(&body),
    )
    .and_then(client::expect_ok)
    .expect("submit");
    JsonValue::parse(&response.body)
        .expect("submit response")
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string()
}

fn fetch_span_stream(addr: &str, job: &str) -> String {
    client::get(addr, &format!("/jobs/{job}/spans"))
        .expect("spans")
        .body
}

#[test]
fn merged_span_stream_is_byte_deterministic_across_kill_and_restart() {
    const TRACE_ID: u64 = 0x1234_5678_9abc_def0;
    let path = journal_path("kill_restart");
    let config = journaled_config(&path);
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    let job = submit_traced(&addr, &spec(), 2, TRACE_ID);

    // One worker crashes 2 records into its shard, leaving a half-ingested
    // shard plus an untouched one; the server is then killed mid-campaign.
    let crash = run_worker(
        &addr,
        &WorkerConfig {
            name: "span-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            fail_after_records: Some(2),
            ..WorkerConfig::default()
        },
    )
    .expect_err("injected crash");
    assert!(matches!(crash, ServiceError::Aborted(_)), "{crash}");
    server.abort();

    // Restart on the same journal + port and drain with a 2-worker fleet:
    // the crashed shard is re-leased (its deterministic span id dedups
    // against the first lease's batch), the other runs fresh.
    let server = Service::bind(&addr, config.clone()).expect("rebind");
    let fleet: Vec<_> = ["span-w2", "span-w3"]
        .into_iter()
        .map(|name| {
            let addr = addr.clone();
            let name = name.to_string();
            std::thread::spawn(move || {
                run_worker(
                    &addr,
                    &WorkerConfig {
                        name,
                        poll_ms: 10,
                        exit_when_drained: true,
                        ..WorkerConfig::default()
                    },
                )
            })
        })
        .collect();
    for worker in fleet {
        worker.join().expect("join").expect("drain after restart");
    }
    let status = client::get(&addr, &format!("/jobs/{job}")).expect("status");
    assert!(
        status.body.contains("\"state\":\"done\""),
        "{}",
        status.body
    );
    let first = fetch_span_stream(&addr, &job);
    // Tracing leaves the records alone: the drained set is the in-process
    // executor's.
    let campaign = spec().to_campaign();
    let reference: Vec<String> = Executor::new(1)
        .run(&campaign, &campaign.scenarios(), &BTreeSet::new(), |_| {
            Ok(())
        })
        .expect("in-process run")
        .records
        .iter()
        .map(|record| record.to_json().to_json())
        .collect();
    let mut records: Vec<String> = client::get(&addr, &format!("/jobs/{job}/records"))
        .expect("records")
        .body
        .lines()
        .map(str::to_string)
        .collect();
    records.sort_by_key(|line| jsonl::line_id(line));
    assert_eq!(records, reference);

    // Restart once more on the finished journal: the replayed stream must
    // be byte-identical — transition spans regenerate from journaled
    // events, worker batches replay verbatim, dedup keeps first occurrences.
    server.abort();
    let server = Service::bind(&addr, config).expect("second rebind");
    let replayed = fetch_span_stream(&addr, &job);
    assert_eq!(
        first, replayed,
        "span stream must be a pure function of the journal"
    );
    server.stop();

    // Structural checks on the stream itself.
    let spans: Vec<SpanEvent> = first
        .lines()
        .map(|line| SpanEvent::parse_line(line).expect("span line"))
        .collect();
    assert!(spans.iter().all(|span| span.trace_id == TRACE_ID));
    let mut ids = BTreeSet::new();
    assert!(
        spans.iter().all(|span| ids.insert(span.span_id)),
        "span ids must be unique after re-lease dedup"
    );
    let count = |name: &str| spans.iter().filter(|span| span.name == name).count();
    assert_eq!(count("campaign"), 1, "one synthesized root span");
    assert_eq!(count("submit"), 1);
    assert_eq!(count("scenario"), 10, "one span per scenario");
    assert_eq!(count("thermal"), 10, "one thermal phase per scenario");
    assert_eq!(count("done"), 2, "one done transition per shard");
    assert!(count("lease") >= 2, "each shard leased at least once");

    // The forest is rooted at the campaign span and every scenario hangs
    // under a shard span.
    let forest = SpanForest::build(spans);
    let roots: Vec<_> = forest.roots().collect();
    assert_eq!(roots.len(), 1, "single root: the campaign span");
    assert_eq!(roots[0].name, "campaign");
    assert!(forest.wall_us() > 0);
    let _ = std::fs::remove_file(&path);
}
