//! The service's determinism contract, pinned end-to-end over real
//! sockets:
//!
//! * 1 server + k workers produce the record set of a single in-process
//!   `Executor` run of the same `CampaignSpec`;
//! * a worker killed mid-shard loses nothing: after its lease expires the
//!   shard is re-leased with the completed ids, the replacement worker
//!   resumes (skipping what was streamed), and the final record set is
//!   still identical — no duplicates, no drops;
//! * the server-side summary equals the summary an in-process run
//!   aggregates;
//! * a scenario that fails stops its worker with the scenario's error,
//!   after the records of the lower ids and before any other.

use std::collections::BTreeSet;

use tats_core::{Policy, PowerHeuristic};
use tats_engine::{Campaign, CampaignSpec, Effort, Executor, FlowKind, Summary};
use tats_service::{client, run_worker, Service, ServiceConfig, ServiceError, WorkerConfig};
use tats_taskgraph::Benchmark;
use tats_trace::{jsonl, JsonValue};

/// A small but multi-policy campaign: 1 benchmark x platform x 5 policies x
/// 2 seeds = 10 scenarios.
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

/// The in-process ground truth: JSONL lines of a single `Executor` run, in
/// scenario-id order, plus the aggregated summary.
fn in_process_reference(spec: &CampaignSpec) -> (Vec<String>, Summary) {
    let campaign: Campaign = spec.to_campaign();
    let scenarios = campaign.scenarios();
    let mut summary = Summary::new();
    let run = Executor::new(1)
        .run(&campaign, &scenarios, &BTreeSet::new(), |record| {
            summary.record(record);
            Ok(())
        })
        .expect("in-process run");
    let lines = run
        .records
        .iter()
        .map(|record| record.to_json().to_json())
        .collect();
    (lines, summary)
}

fn submit(addr: &str, spec: &CampaignSpec, shards: usize) -> String {
    let response = client::post_json(
        addr,
        "/jobs",
        &JsonValue::object(vec![
            ("spec".to_string(), spec.to_json()),
            ("shards".to_string(), JsonValue::from(shards)),
        ]),
    )
    .expect("submit");
    response
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string()
}

/// Fetches the job's full record stream and returns the lines sorted by
/// scenario id.
fn fetch_sorted_records(addr: &str, job: &str) -> Vec<String> {
    let response = client::get(addr, &format!("/jobs/{job}/records")).expect("records");
    let mut lines: Vec<String> = response.body.lines().map(str::to_string).collect();
    lines.sort_by_key(|line| jsonl::line_id(line));
    lines
}

#[test]
fn one_server_k_workers_match_in_process_batch() {
    let (reference, reference_summary) = in_process_reference(&spec());
    let server = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 4);

    // Two workers race for the four shards.
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|index| {
                let addr = addr.clone();
                scope.spawn(move || {
                    run_worker(
                        &addr,
                        &WorkerConfig {
                            name: format!("equivalence-w{index}"),
                            poll_ms: 10,
                            exit_when_drained: true,
                            ..WorkerConfig::default()
                        },
                    )
                    .expect("worker")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    // Every shard was completed by someone, and the union of the workers'
    // streams is the full campaign.
    assert_eq!(reports.iter().map(|r| r.shards_completed).sum::<usize>(), 4);
    assert_eq!(
        reports.iter().map(|r| r.records_posted).sum::<usize>(),
        reference.len()
    );

    let status = client::get(&addr, &format!("/jobs/{job}")).expect("status");
    let status = JsonValue::parse(&status.body).expect("status json");
    assert_eq!(
        status.get("state").and_then(JsonValue::as_str),
        Some("done")
    );

    // The distributed record set is byte-identical to the in-process run.
    assert_eq!(fetch_sorted_records(&addr, &job), reference);

    // The server-side aggregate equals the in-process summary. The *record
    // set* is byte-identical (asserted above); the aggregate's means are
    // folded in arrival order, which races between workers, so the sums may
    // differ in the last ulp — compare numerically, not textually.
    let summary = client::get(&addr, &format!("/jobs/{job}/summary")).expect("summary");
    let summary = JsonValue::parse(&summary.body).expect("summary json");
    assert_json_close(
        summary.get("summary").expect("summary field"),
        &reference_summary.to_json(),
    );

    server.stop();
}

/// Structural equality with a relative tolerance on numbers: the summary's
/// float sums depend on record arrival order, which is racy across workers.
fn assert_json_close(got: &JsonValue, want: &JsonValue) {
    match (got, want) {
        (JsonValue::Number(a), JsonValue::Number(b)) => {
            let scale = a.abs().max(b.abs()).max(1.0);
            assert!((a - b).abs() <= 1e-9 * scale, "{a} vs {b}");
        }
        (JsonValue::Array(a), JsonValue::Array(b)) => {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_json_close(x, y);
            }
        }
        (JsonValue::Object(a), JsonValue::Object(b)) => {
            assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
            for (key, x) in a {
                assert_json_close(x, &b[key]);
            }
        }
        (a, b) => assert_eq!(a, b),
    }
}

#[test]
fn killed_worker_is_re_leased_and_resumed_without_duplicates() {
    let (reference, _) = in_process_reference(&spec());
    // Short TTL so the dead worker's shard becomes leasable quickly.
    let server = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            lease_ttl_ms: 200,
            ..ServiceConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 1); // one shard: the kill is mid-shard

    // A worker that dies after streaming 3 of the 10 records.
    let error = run_worker(
        &addr,
        &WorkerConfig {
            name: "doomed".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            fail_after_records: Some(3),
            ..WorkerConfig::default()
        },
    )
    .expect_err("injected crash");
    assert!(error.to_string().contains("injected"), "{error}");

    // Its partial progress is on the server; the job is not done and the
    // shard is still leased (the lease has not expired yet).
    let status = client::get(&addr, &format!("/jobs/{job}")).expect("status");
    let status = JsonValue::parse(&status.body).expect("json");
    assert_eq!(
        status.get("records").and_then(JsonValue::as_u64),
        Some(3),
        "{status}"
    );
    assert_eq!(
        status.get("state").and_then(JsonValue::as_str),
        Some("running")
    );

    // A replacement worker polls until the lease expires, re-leases the
    // shard with the 3 completed ids, and finishes the remaining 7.
    let report = run_worker(
        &addr,
        &WorkerConfig {
            name: "recovery".to_string(),
            poll_ms: 25,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("recovery worker");
    assert_eq!(report.shards_completed, 1);
    assert_eq!(
        report.records_posted,
        reference.len() - 3,
        "the resumed shard must skip the already-streamed records"
    );

    // No duplicates, no drops: the record set is exactly the in-process
    // run's.
    assert_eq!(fetch_sorted_records(&addr, &job), reference);
    let status = client::get(&addr, &format!("/jobs/{job}")).expect("status");
    assert!(
        status.body.contains("\"state\":\"done\""),
        "{}",
        status.body
    );

    server.stop();
}

#[test]
fn a_failing_scenario_stops_the_worker_with_its_error() {
    // Bm1 at seed 322 has no co-synthesis architecture that meets the
    // deadline. With one policy its id is 1, after seed 1's id 0, so the
    // worker posts record 0 and then fails with the scenario's error.
    let spec = CampaignSpec {
        benchmarks: vec![Benchmark::Bm1],
        flows: vec![FlowKind::CoSynthesis],
        policies: vec![Policy::Baseline],
        solvers: vec![None],
        seeds: vec![1, 322],
        grid_resolution: (16, 16),
        effort: Effort::Fast,
    };
    let server = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec, 1);
    let error = run_worker(
        &addr,
        &WorkerConfig {
            name: "fatal".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect_err("seed 322 has no feasible co-synthesis");
    assert!(matches!(error, ServiceError::Engine(_)), "{error:?}");
    assert!(
        error.to_string().contains("Bm1/cosynthesis/baseline/s322"),
        "{error}"
    );
    let records = fetch_sorted_records(&addr, &job);
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(jsonl::line_id(&records[0]), Some(0));

    server.stop();
}

/// A worker posts a shard's records in batches of up to 32: a one-shard job
/// of 40 cheap scenarios reaches the ingest endpoint in two requests, and
/// its records are the in-process run's.
#[test]
fn a_shard_of_forty_records_arrives_in_two_posts() {
    let spec = CampaignSpec {
        benchmarks: vec![
            Benchmark::Bm1,
            Benchmark::Bm2,
            Benchmark::Bm3,
            Benchmark::Bm4,
        ],
        policies: vec![
            Policy::Baseline,
            Policy::PowerAware(PowerHeuristic::MinTaskPower),
        ],
        seeds: vec![0, 1, 2, 3, 4],
        ..spec()
    };
    let (reference, _) = in_process_reference(&spec);
    assert_eq!(reference.len(), 40);
    let server = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec, 1);
    let report = run_worker(
        &addr,
        &WorkerConfig {
            name: "batched".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("worker");
    assert_eq!(report.records_posted, 40);
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.body.contains(
            "http_request_seconds_count{endpoint=\"POST /jobs/{id}/shards/{i}/records\"} 2\n"
        ),
        "{}",
        metrics.body
    );
    assert_eq!(fetch_sorted_records(&addr, &job), reference);
    server.stop();
}

#[test]
fn fleet_metrics_surface_on_the_server_scrape_and_progress_endpoint() {
    let server = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 2);
    let report = run_worker(
        &addr,
        &WorkerConfig {
            name: "observed".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("worker");
    assert_eq!(report.records_posted, 10);

    // The drained poll that exited the worker carried its final snapshot,
    // so the server-side scrape reports the whole fleet: server-side
    // request/lease series unlabelled, worker series labelled by name.
    let metrics = client::get(&addr, "/metrics").expect("metrics");
    let body = &metrics.body;
    assert!(
        body.contains("# TYPE http_request_seconds histogram"),
        "{body}"
    );
    assert!(
        body.contains(
            "http_request_seconds_count{endpoint=\"POST /jobs/{id}/shards/{i}/records\"} 2"
        ),
        "{body}"
    );
    assert!(body.contains("leases_granted_total 2"), "{body}");
    assert!(
        body.contains("worker_records_posted_total{worker=\"observed\"} 10"),
        "{body}"
    );
    assert!(
        body.contains("worker_shards_completed_total{worker=\"observed\"} 2"),
        "{body}"
    );
    // The engine's own instrumentation (phase spans, thermal cache) rides
    // the same snapshot: 10 scenarios ran, and the geometry-keyed cache
    // saw exactly one miss per executor run (one shared platform geometry).
    assert!(
        body.contains("engine_scenarios_completed_total{worker=\"observed\"} 10"),
        "{body}"
    );
    assert!(
        body.contains("engine_scenario_seconds_count{worker=\"observed\"} 10"),
        "{body}"
    );
    assert!(
        body.contains("engine_cache_misses_total{worker=\"observed\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("engine_cache_hits_total{worker=\"observed\"} 8"),
        "{body}"
    );
    assert!(
        body.contains("engine_phase_seconds_count{phase=\"scheduling\",worker=\"observed\"} 10"),
        "{body}"
    );

    // The progress endpoint agrees with the finished job.
    let progress = client::get(&addr, &format!("/jobs/{job}/progress")).expect("progress");
    let progress = JsonValue::parse(&progress.body).expect("progress json");
    assert_eq!(
        progress.get("state").and_then(JsonValue::as_str),
        Some("done")
    );
    assert_eq!(progress.get("done").and_then(JsonValue::as_u64), Some(10));
    assert_eq!(progress.get("total").and_then(JsonValue::as_u64), Some(10));
    assert_eq!(progress.get("eta_s").and_then(JsonValue::as_f64), Some(0.0));
    // Its phases are the engine phases the worker's snapshot reported: the
    // platform flow schedules and evaluates each of the 10 scenarios once.
    let phases = progress.field_array("phases").expect("phases");
    let names: Vec<&str> = phases
        .iter()
        .map(|phase| phase.field_str("phase").expect("phase name"))
        .collect();
    assert_eq!(names, ["scheduling", "thermal"], "{}", progress.to_json());
    for phase in phases {
        assert_eq!(phase.field_u64("count"), Ok(10), "{}", phase.to_json());
        assert!(
            phase.field_u64("p50_us").expect("p50") <= phase.field_u64("p99_us").expect("p99"),
            "{}",
            phase.to_json()
        );
    }

    // The enriched workers view names the worker with a lifetime rate.
    let workers = client::get(&addr, "/workers").expect("workers");
    assert!(
        workers.body.contains("\"last_seen_age_ms\""),
        "{}",
        workers.body
    );
    assert!(
        workers.body.contains("\"records_per_sec\""),
        "{}",
        workers.body
    );

    server.stop();
}

#[test]
fn incremental_record_polling_sees_the_stream_grow() {
    let server = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 2);
    run_worker(
        &addr,
        &WorkerConfig {
            name: "streamer".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("worker");

    // Page through the stream with ?from=: two fetches cover it exactly.
    let first = client::get(&addr, &format!("/jobs/{job}/records?from=0")).expect("page 1");
    let next: usize = first
        .header("x-next-from")
        .and_then(|value| value.parse().ok())
        .expect("next-from header");
    assert_eq!(next, first.body.lines().count());
    assert_eq!(next, 10);
    let second = client::get(&addr, &format!("/jobs/{job}/records?from={next}")).expect("page 2");
    assert!(second.body.is_empty());
    assert_eq!(
        second.header("x-next-from"),
        Some(next.to_string().as_str())
    );

    // Workers list reflects the streamer.
    let workers = client::get(&addr, "/workers").expect("workers");
    assert!(
        workers.body.contains("\"name\":\"streamer\""),
        "{}",
        workers.body
    );
    assert!(workers.body.contains("\"records\":10"), "{}", workers.body);

    server.stop();
}
