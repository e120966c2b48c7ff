//! Journal format compatibility, pinned by a committed journal.
//!
//! `fixtures/journal.jsonl` was written by an earlier build of the service
//! through the public `JournaledRegistry` API, in this order:
//!
//! * a traced submit of a 4-scenario campaign in 2 shards, from client
//!   `alpha` at priority 3;
//! * a lease of shard 0, an ingest carrying its two record lines plus
//!   worker span lines, and its done;
//! * a lease of shard 1 and the `reset_leases` a restart journals;
//! * the `snapshot` line that compacting those events produced;
//! * more events after it: shard 1 leased, ingested and done (which closes
//!   the traced campaign), then an untraced submit from the default client
//!   and its lease.
//!
//! The other fixtures are what that build made of the journal: the
//! `/records` and `/spans` bodies a server bound on it serves, the
//! `Registry::dump` text of its replay, and the journal it compacts to. Any
//! change to a journal, wire or file format breaks this suite.

use std::path::{Path, PathBuf};

use tats_service::journal::{self, JournaledRegistry};
use tats_service::{client, Service, ServiceConfig};
use tats_trace::log::LogFilter;

const TTL: u64 = 100;
const JOB: &str = "j000001";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A temporary journal holding `text` (opening a journal appends to it, so
/// the committed fixture is never opened for writing).
fn temp_journal(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tats_fixture_journal_{name}.jsonl"));
    std::fs::write(&path, text).expect("write temporary journal");
    path
}

#[test]
fn fixture_journal_replays_to_the_committed_outputs() {
    let (replayed, report) = journal::replay(&fixture("journal.jsonl"), TTL).expect("replay");
    assert_eq!(report.events, 12);
    assert_eq!(report.snapshots, 1);
    assert_eq!(
        replayed.dump().to_json() + "\n",
        read(&fixture("dump.json")),
        "dump() of the replayed fixture"
    );

    // The bodies a server bound on the journal serves.
    let path = temp_journal("serve", &read(&fixture("journal.jsonl")));
    let server = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            lease_ttl_ms: TTL,
            journal: Some(path.clone()),
            log_filter: Some(LogFilter::off()),
            ..ServiceConfig::default()
        },
    )
    .expect("bind on the fixture journal");
    let addr = server.addr_string();
    let records = client::get(&addr, &format!("/jobs/{JOB}/records")).expect("records");
    assert_eq!(
        records.body,
        read(&fixture("records.jsonl")),
        "/records body"
    );
    assert_eq!(records.header("x-next-from"), Some("4"));
    let spans = client::get(&addr, &format!("/jobs/{JOB}/spans")).expect("spans");
    assert_eq!(spans.body, read(&fixture("spans.jsonl")), "/spans body");
    assert_eq!(spans.header("x-next-from"), Some("15"));
    server.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compacting_the_fixture_reproduces_its_snapshot_lines() {
    let text = read(&fixture("journal.jsonl"));

    // The whole journal compacts to the committed snapshot line.
    let path = temp_journal("compact_all", &text);
    let (mut registry, _) = JournaledRegistry::open(&path, TTL).expect("open");
    registry.compact().expect("compact");
    drop(registry);
    assert_eq!(read(&path), read(&fixture("compacted.jsonl")));
    let _ = std::fs::remove_file(&path);

    // The events before the fixture's own snapshot compact to that very
    // line: the snapshot format is what `dump` writes today.
    let lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|line| line.contains("\"event\":\"snapshot\""))
        .expect("the fixture holds a snapshot");
    let prefix: String = lines[..at].iter().flat_map(|line| [*line, "\n"]).collect();
    let path = temp_journal("compact_prefix", &prefix);
    let (mut registry, _) = JournaledRegistry::open(&path, TTL).expect("open");
    registry.compact().expect("compact");
    drop(registry);
    assert_eq!(read(&path), format!("{}\n", lines[at]));
    let _ = std::fs::remove_file(&path);
}
