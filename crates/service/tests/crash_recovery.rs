//! Crash-safe campaign service, pinned end-to-end over real sockets.
//!
//! The restart-equivalence contract: for a journaled server, **killing the
//! server (and any workers) at an arbitrary point and restarting on the
//! same journal and port yields the exact record set of an uninterrupted
//! in-process `Executor` run** — no duplicates, no drops, byte-identical
//! lines. Three interleavings are pinned:
//!
//! * killed worker *and* killed server mid-shard, fresh worker after the
//!   restart drains the replayed job;
//! * a surviving worker rides out the server restart through its retry
//!   policy alone (connection refused while down, then back to work);
//! * record paging (`tats submit --wait`'s loop) resumes from
//!   `x-next-from` across a restart without re-reading or skipping lines.
//!
//! Kills use [`ServiceHandle::abort`] — the in-process `kill -9`: the
//! journal is sealed mid-flight, connections drop without responses, and
//! the restarted server replays whatever made it to disk. The CI smoke
//! test does the same dance with real processes and a real `kill -9`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tats_core::Policy;
use tats_engine::{Campaign, CampaignSpec, Effort, Executor, FlowKind};
use tats_service::{
    client, journal, run_worker, RetryPolicy, Service, ServiceConfig, ServiceError, WorkerConfig,
};
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

/// JSONL lines of the uninterrupted in-process run, in scenario-id order —
/// the byte-identical ground truth every restart scenario must reproduce.
fn in_process_reference(spec: &CampaignSpec) -> Vec<String> {
    let campaign: Campaign = spec.to_campaign();
    let scenarios = campaign.scenarios();
    Executor::new(1)
        .run(&campaign, &scenarios, &BTreeSet::new(), |_| Ok(()))
        .expect("in-process run")
        .records
        .iter()
        .map(|record| record.to_json().to_json())
        .collect()
}

fn journal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tats_crash_recovery_{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn journaled_config(path: &Path, lease_ttl_ms: u64) -> ServiceConfig {
    ServiceConfig {
        lease_ttl_ms,
        journal: Some(path.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// A fast retry policy for tests: rides out a couple of seconds of
/// downtime without stretching the suite.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 40,
        base_delay_ms: 5,
        max_delay_ms: 100,
        jitter_seed: 0xC0FFEE,
    }
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

fn fetch_sorted_records(addr: &str, job: &str) -> Vec<String> {
    let response = client::get(addr, &format!("/jobs/{job}/records")).expect("records");
    let mut lines: Vec<String> = response.body.lines().map(str::to_string).collect();
    lines.sort_by_key(|line| jsonl::line_id(line));
    lines
}

#[test]
fn killed_worker_and_killed_server_restart_to_byte_identical_records() {
    let reference = in_process_reference(&spec());
    let path = journal_path("kill_both");
    let config = journaled_config(&path, 200);
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 1); // one shard: both kills land mid-shard

    // The worker crashes after streaming 3 of the 10 records...
    let error = run_worker(
        &addr,
        &WorkerConfig {
            name: "crash-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            fail_after_records: Some(3),
            ..WorkerConfig::default()
        },
    )
    .expect_err("injected crash");
    assert!(matches!(error, ServiceError::Aborted(_)), "{error}");
    // ...and the server is killed right after.
    server.abort();

    // Restart on the same journal and the same port.
    let server = Service::bind(&addr, config).expect("rebind");
    let ready = client::get(&addr, "/readyz").expect("readyz");
    assert!(ready.body.contains("\"ready\":true"), "{}", ready.body);
    assert!(ready.body.contains("\"replayed_jobs\":1"), "{}", ready.body);
    assert!(
        ready.body.contains("\"replayed_records\":3"),
        "{}",
        ready.body
    );
    assert!(ready.body.contains("\"leases_reset\":1"), "{}", ready.body);

    // A fresh worker resumes the replayed shard from its completed ids and
    // drains the job.
    let report = run_worker(
        &addr,
        &WorkerConfig {
            name: "crash-w2".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("recovery worker");
    assert_eq!(
        report.records_posted, 7,
        "only the 7 missing records re-run"
    );
    assert_eq!(
        fetch_sorted_records(&addr, &job),
        reference,
        "restart equivalence: records must be byte-identical to the \
         uninterrupted in-process run"
    );
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn surviving_worker_rides_out_a_server_restart() {
    let reference = in_process_reference(&spec());
    let path = journal_path("survivor");
    let config = journaled_config(&path, 5_000);
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 2);

    // A worker that must outlive the server: its retry policy absorbs the
    // dropped keep-alive stream and the connection-refused window while the
    // server is down and while the replacement replays its journal before
    // it listens.
    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        run_worker(
            &worker_addr,
            &WorkerConfig {
                name: "survivor".to_string(),
                poll_ms: 10,
                exit_when_drained: true,
                retry: fast_retry(),
                ..WorkerConfig::default()
            },
        )
    });

    // Let the worker make some progress, then kill the server under it.
    loop {
        let response = client::get(&addr, &format!("/jobs/{job}/records")).expect("poll");
        if !response.body.is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.abort();
    let server = Service::bind(&addr, config).expect("rebind");

    let report = worker
        .join()
        .expect("join")
        .expect("the worker must survive the restart through retries");
    assert!(report.records_posted >= 7, "report: {report:?}");
    assert_eq!(
        fetch_sorted_records(&addr, &job),
        reference,
        "no record duplicated or dropped across the restart"
    );
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn record_paging_resumes_from_x_next_from_across_a_restart() {
    // The `tats submit --wait` loop: page records with `?from=k`, carry the
    // `x-next-from` header forward, retry transient failures — and a server
    // restart in the middle must neither re-deliver nor skip a line.
    let reference = in_process_reference(&spec());
    let path = journal_path("paging");
    let config = journaled_config(&path, 200);
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 1);

    // First leg: a worker streams 3 records, then dies.
    run_worker(
        &addr,
        &WorkerConfig {
            name: "pager-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            fail_after_records: Some(3),
            ..WorkerConfig::default()
        },
    )
    .expect_err("injected crash");
    let mut connection = client::Connection::new(&addr);
    let mut collected: Vec<String> = Vec::new();
    let mut from = 0usize;
    let page = connection
        .get(&format!("/jobs/{job}/records?from={from}"))
        .expect("first page");
    collected.extend(page.body.lines().map(str::to_string));
    from = page
        .header("x-next-from")
        .and_then(|v| v.parse().ok())
        .expect("next-from");
    assert_eq!(from, 3);

    // The server dies and comes back on the same journal; the poll loop
    // (same keep-alive connection, now stale) resumes from `from=3`.
    server.abort();
    let server = Service::bind(&addr, config).expect("rebind");
    let report = run_worker(
        &addr,
        &WorkerConfig {
            name: "pager-w2".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("drain");
    assert_eq!(report.records_posted, 7);

    let retry = fast_retry();
    loop {
        let page = retry
            .run(|| connection.get(&format!("/jobs/{job}/records?from={from}")))
            .expect("page");
        collected.extend(page.body.lines().map(str::to_string));
        from = page
            .header("x-next-from")
            .and_then(|v| v.parse().ok())
            .expect("next-from");
        let status = retry
            .run(|| connection.get(&format!("/jobs/{job}")))
            .expect("status");
        if status.body.contains("\"state\":\"done\"") && page.body.is_empty() {
            break;
        }
    }
    assert_eq!(collected.len(), reference.len(), "no dup, no drop");
    collected.sort_by_key(|line| jsonl::line_id(line));
    assert_eq!(collected, reference);
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn double_crash_during_compaction_keeps_the_old_journal_authoritative() {
    // Crash #1 lands *inside* a compaction: the staging snapshot is on
    // disk (fsynced, even) but the rename never happened. The restart must
    // replay the old journal and ignore the orphaned staging file; a
    // re-triggered compaction must converge; and crash #2 right after it
    // must restart from the snapshot — with the final record set still
    // byte-identical to the uninterrupted in-process run.
    let reference = in_process_reference(&spec());
    let path = journal_path("compaction_kill");
    let config = journaled_config(&path, 200);
    let server = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
    let addr = server.addr_string();
    let job = submit(&addr, &spec(), 1);
    run_worker(
        &addr,
        &WorkerConfig {
            name: "compact-w1".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            fail_after_records: Some(3),
            ..WorkerConfig::default()
        },
    )
    .expect_err("injected crash");
    server.abort();

    // The dead incarnation got as far as writing a complete staging
    // snapshot — of *empty* state, so if replay ever trusted it the job
    // would vanish and every assertion below would fail loudly.
    let staging = journal::compaction_path(&path);
    std::fs::write(
        &staging,
        "{\"event\":\"snapshot\",\"state\":{\"next_job\":1,\"lease_cursor\":{},\"jobs\":[]}}\n",
    )
    .expect("staging");

    let server = Service::bind(&addr, config.clone()).expect("rebind");
    let ready = client::get(&addr, "/readyz").expect("readyz");
    assert!(
        ready.body.contains("\"replayed_snapshots\":0"),
        "the staging file must not be replayed: {}",
        ready.body
    );
    assert!(ready.body.contains("\"replayed_jobs\":1"), "{}", ready.body);
    assert!(
        ready.body.contains("\"replayed_records\":3"),
        "{}",
        ready.body
    );

    // Re-trigger the compaction: it overwrites the orphan and converges.
    client::post_json(&addr, "/compact", &JsonValue::object(vec![])).expect("compact");
    assert!(!staging.exists(), "staging renamed over the journal");
    let text = std::fs::read_to_string(&path).expect("journal");
    assert_eq!(text.lines().count(), 1, "{text}");

    // Crash #2, right after the compaction.
    server.abort();
    let server = Service::bind(&addr, config).expect("second rebind");
    let ready = client::get(&addr, "/readyz").expect("readyz");
    assert!(
        ready.body.contains("\"replayed_snapshots\":1"),
        "{}",
        ready.body
    );
    assert!(
        ready.body.contains("\"replayed_records\":3"),
        "{}",
        ready.body
    );
    let report = run_worker(
        &addr,
        &WorkerConfig {
            name: "compact-w2".to_string(),
            poll_ms: 10,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .expect("drain");
    assert_eq!(report.records_posted, 7, "only the missing records re-run");
    assert_eq!(
        fetch_sorted_records(&addr, &job),
        reference,
        "restart equivalence holds across a killed compaction"
    );
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_corrupt_journal_fails_the_boot() {
    let path = journal_path("corrupt_boot");
    // A structurally complete but semantically impossible event: ingest
    // into a job that was never submitted.
    std::fs::write(
        &path,
        "{\"event\":\"ingest\",\"now_ms\":1,\"job\":\"j000009\",\"shard\":0,\
         \"worker\":\"w\",\"body\":\"x\"}\n",
    )
    .expect("write");
    let error = Service::bind("127.0.0.1:0", journaled_config(&path, 200)).expect_err("boot");
    assert!(
        matches!(&error, ServiceError::Protocol(message) if message.contains("journal")),
        "{error}"
    );
    let _ = std::fs::remove_file(&path);
}
