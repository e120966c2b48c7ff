//! Replay ≡ live, pinned.
//!
//! The journal records the *inputs* of every successful registry mutation
//! (with the live server's `now_ms`), and replay re-applies them through
//! the same public `Registry` methods — so for any interleaving of
//! submit/lease/ingest/done/reset events, replaying the journal must
//! reconstruct the live registry's replayable state exactly. This suite
//! pins that equivalence:
//!
//! * unit cases for the full lifecycle, the crash-truncated final line,
//!   the journaled lease reset (the double-crash scenario), the sealed
//!   (aborted) registry and journals that must refuse to replay (a
//!   tampered lease grant, a removed grid solver);
//! * a property test driving randomised interleavings — including invalid
//!   requests, expired leases and zombie writers — and checking
//!   `snapshot(replay(journal)) == snapshot(live)` after every run, with
//!   and without a partial trailing line.
//!
//! Run with a larger budget via `PROPTEST_CASES=<n>`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tats_core::Policy;
use tats_engine::{CampaignSpec, Effort, Executor, FlowKind};
use tats_service::journal::{self, compaction_path, JournaledRegistry};
use tats_service::{ServiceError, Submission};
use tats_taskgraph::Benchmark;
use tats_trace::JsonValue;

const TTL: u64 = 100;

/// 1 benchmark x platform x 2 policies x 2 seeds = 4 scenarios.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        benchmarks: vec![Benchmark::Bm1],
        flows: vec![FlowKind::Platform],
        policies: vec![Policy::Baseline, Policy::ThermalAware],
        solvers: vec![None],
        seeds: vec![0, 1],
        grid_resolution: (16, 16),
        effort: Effort::Fast,
    }
}

/// The deterministic JSONL lines workers would stream for [`tiny_spec`],
/// in scenario-id order (computed once — every job uses the same spec).
fn reference_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let campaign = tiny_spec().to_campaign();
        let scenarios = campaign.scenarios();
        Executor::new(1)
            .run(&campaign, &scenarios, &BTreeSet::new(), |_| Ok(()))
            .expect("reference run")
            .records
            .iter()
            .map(|r| r.to_json().to_json())
            .collect()
    })
}

/// A fresh journal path in the temp dir (removing any leftover file, since
/// `JournaledRegistry::open` appends).
fn journal_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tats_journal_replay_{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn snapshot(live: &JournaledRegistry) -> String {
    live.registry().snapshot().to_json()
}

/// Replays `path` and asserts the reconstruction matches `live` exactly.
fn assert_replay_matches(path: &std::path::Path, live: &JournaledRegistry) {
    let (replayed, _) = journal::replay(path, TTL).expect("replay");
    assert_eq!(
        replayed.snapshot().to_json(),
        snapshot(live),
        "replayed registry diverged from the live one"
    );
}

#[test]
fn full_lifecycle_replays_identically() {
    let path = journal_path("lifecycle");
    let (mut live, report) = JournaledRegistry::open(&path, TTL).expect("open");
    assert_eq!(report.events, 0);
    let lines = reference_lines();

    let status = live
        .submit(Submission::new(tiny_spec(), 2), 5)
        .expect("submit");
    let job = status
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string();
    let lease = live.lease("w1", 10).expect("lease");
    assert!(lease.get("lease").is_some());
    // Shard 0/2 owns ids 0 and 2.
    let body = format!("{}\n{}\n", lines[0], lines[2]);
    live.ingest(&job, 0, "w1", &body, 20).expect("ingest");
    live.shard_done(&job, 0, "w1", 30).expect("done");
    live.lease("w2", 40).expect("lease 2");
    let body = format!("{}\n{}\n", lines[1], lines[3]);
    live.ingest(&job, 1, "w2", &body, 50).expect("ingest 2");
    live.shard_done(&job, 1, "w2", 60).expect("done 2");
    // An idle poll on the drained registry is *not* journaled and must not
    // disturb equivalence.
    assert!(live.lease("w3", 70).expect("idle").get("lease").is_none());

    assert_replay_matches(&path, &live);
    let (_, report) = journal::replay(&path, TTL).expect("replay");
    assert_eq!(report.events, 7, "submit + 2x(lease, ingest, done)");
    assert_eq!(report.jobs, 1);
    assert_eq!(report.records, 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_final_line_is_ignored_and_repaired() {
    let path = journal_path("truncated");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    let lines = reference_lines();
    let job = live
        .submit(Submission::new(tiny_spec(), 1), 0)
        .expect("submit")
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string();
    live.lease("w1", 1).expect("lease");
    live.ingest(&job, 0, "w1", &lines[0], 2).expect("ingest");
    drop(live);

    // Simulate a kill mid-append: a partial ingest event on the tail. The
    // live server died before applying it (apply and journal happen
    // atomically under the state lock), so replay must ignore it.
    let clean = std::fs::read(&path).expect("read journal");
    let mut bytes = clean.clone();
    bytes.extend_from_slice(b"{\"event\":\"ingest\",\"job\":\"j0000");
    std::fs::write(&path, &bytes).expect("corrupt");
    let (replayed, report) = journal::replay(&path, TTL).expect("replay skips partial");
    assert_eq!(report.events, 3);
    assert_eq!(report.records, 1);

    // Reopening repairs the tail (so appends start on a fresh line) and
    // reconstructs the same state.
    let (reopened, report) = JournaledRegistry::open(&path, TTL).expect("reopen");
    assert_eq!(report.repaired_bytes, 30);
    assert_eq!(snapshot(&reopened), replayed.snapshot().to_json());
    assert_eq!(std::fs::read(&path).expect("repaired"), clean);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journaled_lease_reset_keeps_double_replay_consistent() {
    // The restart sequence: replay, reset stale leases, serve. The reset
    // changes which shard the *next* lease grants, so it must itself be
    // journaled — otherwise a second crash would replay the post-restart
    // grants against un-reset state and refuse the journal.
    let path = journal_path("reset");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    live.submit(Submission::new(tiny_spec(), 2), 0)
        .expect("submit");
    live.lease("w1", 1).expect("lease shard 0");
    drop(live); // first crash: w1's lease is live in the journal

    let (mut restarted, report) = JournaledRegistry::open(&path, TTL).expect("restart");
    assert_eq!(report.events, 2);
    assert_eq!(restarted.reset_leases().expect("reset"), 1);
    // Post-restart, a different worker leases — and because the reset made
    // shard 0 pending again, it gets shard 0, not shard 1.
    let lease = restarted.lease("w2", 2).expect("lease");
    let shard = lease
        .get("lease")
        .and_then(|l| l.get("shard"))
        .and_then(JsonValue::as_str)
        .expect("granted");
    assert_eq!(shard, "0/2");

    // Second crash: the full journal (reset event included) must replay.
    assert_replay_matches(&path, &restarted);
    // A reset that resets nothing appends no event.
    let before = std::fs::read(&path).expect("read").len();
    drop(restarted);
    let (mut again, _) = JournaledRegistry::open(&path, TTL).expect("reopen");
    again.reset_leases().expect("reset");
    drop(again);
    let with_reset = std::fs::read(&path).expect("read").len();
    assert!(
        with_reset > before,
        "the second restart journaled its reset"
    );
    let (mut third, _) = JournaledRegistry::open(&path, TTL).expect("third");
    assert_eq!(third.reset_leases().expect("no-op reset"), 0);
    drop(third);
    assert_eq!(
        std::fs::read(&path).expect("read").len(),
        with_reset,
        "a reset that reset nothing must not append an event"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sealed_registry_refuses_every_mutation_and_writes_nothing() {
    let path = journal_path("sealed");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    live.submit(Submission::new(tiny_spec(), 1), 0)
        .expect("submit");
    let bytes = std::fs::read(&path).expect("read").len();
    live.seal();
    assert!(live.sealed());
    for error in [
        live.submit(Submission::new(tiny_spec(), 1), 1)
            .expect_err("submit"),
        live.lease("w1", 1).expect_err("lease"),
        live.ingest("j000001", 0, "w1", &reference_lines()[0], 1)
            .expect_err("ingest"),
        live.shard_done("j000001", 0, "w1", 1).expect_err("done"),
        live.reset_leases().expect_err("reset"),
    ] {
        assert!(
            matches!(error, ServiceError::Unavailable(_)),
            "sealed mutation must be Unavailable, got {error}"
        );
    }
    // Reads still work (the crash tests inspect sealed state), and not a
    // byte hit the journal after the seal.
    assert!(snapshot(&live).contains("j000001"));
    assert_eq!(std::fs::read(&path).expect("read").len(), bytes);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compaction_preserves_replay_and_accepts_new_events() {
    let path = journal_path("compact");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    let lines = reference_lines();
    let job = live
        .submit(Submission::new(tiny_spec(), 2).for_client("ci", 1), 0)
        .expect("submit")
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string();
    live.lease("w1", 1).expect("lease");
    live.ingest(&job, 0, "w1", &format!("{}\n{}\n", lines[0], lines[2]), 2)
        .expect("ingest");
    live.shard_done(&job, 0, "w1", 3).expect("done");

    let before = snapshot(&live);
    let report = live.compact().expect("compact");
    assert!(report.bytes_before > 0 && report.bytes_after > 0);
    let text = std::fs::read_to_string(&path).expect("journal");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("\"event\":\"snapshot\""), "{text}");
    assert_eq!(snapshot(&live), before, "compaction must not change state");
    let (replayed, replay_report) = journal::replay(&path, TTL).expect("replay");
    assert_eq!(replay_report.snapshots, 1);
    assert_eq!(replay_report.jobs, 1);
    assert_eq!(replay_report.records, 2);
    assert_eq!(replayed.snapshot().to_json(), before);

    // The snapshot is a fast-forward prefix: events appended after the
    // compaction replay on top of it — lease grants verified included
    // (the cursor and the live lease travel in the snapshot).
    live.lease("w2", 4).expect("lease shard 1");
    live.ingest(&job, 1, "w2", &format!("{}\n{}\n", lines[1], lines[3]), 5)
        .expect("ingest 2");
    live.shard_done(&job, 1, "w2", 6).expect("done 2");
    assert_replay_matches(&path, &live);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_mid_compaction_the_old_journal_stays_authoritative() {
    // kill -9 lands after the staging snapshot is written but before the
    // rename: the journal is untouched, the staging file is garbage from a
    // dead incarnation. Replay must never read it, a restart must replay
    // the old journal, and a re-triggered compaction must converge.
    let path = journal_path("mid_compaction_kill");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    live.submit(Submission::new(tiny_spec(), 2).for_client("alpha", 0), 0)
        .expect("submit");
    live.lease("w1", 1).expect("lease");
    let expected = snapshot(&live);
    drop(live);

    // A complete-but-stale staging snapshot (the dead incarnation got as
    // far as fsync) and a torn partial one must both be ignored.
    let staging = compaction_path(&path);
    for garbage in [
        "{\"event\":\"snapshot\",\"state\":{\"next_job\":9,\"lease_cursor\":{},\"jobs\":[]}}\n"
            .to_string(),
        "{\"event\":\"snapshot\",\"state\":{\"next_jo".to_string(),
    ] {
        std::fs::write(&staging, &garbage).expect("staging");
        let (replayed, report) = journal::replay(&path, TTL).expect("replay");
        assert_eq!(report.snapshots, 0, "staging file must never be replayed");
        assert_eq!(replayed.snapshot().to_json(), expected);

        let (mut restarted, _) = JournaledRegistry::open(&path, TTL).expect("restart");
        assert_eq!(snapshot(&restarted), expected);
        // Re-triggered compaction overwrites the leftover staging file and
        // converges: one snapshot line, same state, staging gone.
        restarted.compact().expect("compact");
        let text = std::fs::read_to_string(&path).expect("journal");
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(!staging.exists(), "the staging file was renamed away");
        let (replayed, report) = journal::replay(&path, TTL).expect("replay compacted");
        assert_eq!(report.snapshots, 1);
        assert_eq!(replayed.snapshot().to_json(), expected);
        // Restore the pre-compaction journal for the second garbage case.
        drop(restarted);
        let _ = std::fs::remove_file(&path);
        let (mut rebuilt, _) = JournaledRegistry::open(&path, TTL).expect("rebuild");
        rebuilt
            .submit(Submission::new(tiny_spec(), 2).for_client("alpha", 0), 0)
            .expect("submit");
        rebuilt.lease("w1", 1).expect("lease");
        assert_eq!(snapshot(&rebuilt), expected);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&staging);
}

#[test]
fn auto_compaction_triggers_on_the_event_threshold() {
    let path = journal_path("auto_compact");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    live.set_compact_every(Some(4));
    let lines = reference_lines();
    let job = live
        .submit(Submission::new(tiny_spec(), 2), 0)
        .expect("submit")
        .get("job")
        .and_then(JsonValue::as_str)
        .expect("job id")
        .to_string();
    live.lease("w1", 1).expect("lease");
    live.ingest(&job, 0, "w1", &format!("{}\n{}\n", lines[0], lines[2]), 2)
        .expect("ingest");
    // Three events journaled so far; the fourth crosses the threshold and
    // folds all four into one snapshot, transparently to the caller.
    live.shard_done(&job, 0, "w1", 3).expect("done");
    let text = std::fs::read_to_string(&path).expect("journal");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("\"event\":\"snapshot\""), "{text}");
    assert_replay_matches(&path, &live);
    drop(live);

    // Replayed events count toward the threshold: a reopened journal that
    // is already over it compacts on the very next append.
    let (mut reopened, report) = JournaledRegistry::open(&path, TTL).expect("reopen");
    assert_eq!(report.snapshots, 1);
    reopened.set_compact_every(Some(2));
    reopened.lease("w2", 10).expect("lease shard 1");
    let text = std::fs::read_to_string(&path).expect("journal");
    assert_eq!(text.lines().count(), 1, "{text}");
    assert_replay_matches(&path, &reopened);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_lease_grants_refuse_to_replay() {
    let path = journal_path("corrupt");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    live.submit(Submission::new(tiny_spec(), 2), 0)
        .expect("submit");
    live.lease("w1", 1).expect("lease");
    drop(live);
    // Hand-edit the granted shard: replay re-runs the lease scan, grants
    // shard 0, sees the journal claim shard 1, and refuses the file.
    let text = std::fs::read_to_string(&path).expect("read");
    assert!(text.contains("\"shard\":0"), "{text}");
    std::fs::write(&path, text.replace("\"shard\":0", "\"shard\":1")).expect("tamper");
    let error = journal::replay(&path, TTL).expect_err("tampered journal");
    assert!(
        matches!(&error, ServiceError::Protocol(message) if message.contains("lease")),
        "{error}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journals_naming_a_removed_grid_solver_refuse_to_replay() {
    let path = journal_path("removed_solver");
    let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
    live.submit(Submission::new(tiny_spec(), 1), 0)
        .expect("submit");
    drop(live);
    // A journal written while `pcg` was a grid solver: replay refuses it
    // rather than recompute the job with a solver its spec does not name.
    let text = std::fs::read_to_string(&path).expect("read");
    assert!(text.contains("\"solvers\":[null]"), "{text}");
    std::fs::write(
        &path,
        text.replace("\"solvers\":[null]", "\"solvers\":[\"pcg\"]"),
    )
    .expect("rewrite");
    let error = journal::replay(&path, TTL).expect_err("removed solver");
    assert!(
        matches!(&error, ServiceError::Protocol(message)
            if message.contains("'pcg'") && message.contains("cholesky is the only grid solver")),
        "{error}"
    );
    let _ = std::fs::remove_file(&path);
}

prop_compose! {
    /// A randomised schedule: an op stream seed plus its length.
    fn schedule()(seed in any::<u64>(), ops in 10usize..60) -> (u64, usize) {
        (seed, ops)
    }
}

proptest! {
    /// For arbitrary interleavings of valid and invalid operations —
    /// multiple jobs, racing workers, expired leases, zombie writers,
    /// partial batches, resets — the journal replays to the live state,
    /// with and without a crash-truncated final line.
    #[test]
    fn random_interleavings_replay_identically((seed, ops) in schedule()) {
        let path = journal_path(&format!("prop_{seed:x}"));
        let (mut live, _) = JournaledRegistry::open(&path, TTL).expect("open");
        let lines = reference_lines();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0u64;
        let mut jobs = 0usize;
        for _ in 0..ops {
            // Sometimes jump past the lease TTL so expiries interleave.
            now += [0, 1, 7, TTL + 1][rng.gen_range(0..4usize)];
            let worker = format!("w{}", rng.gen_range(0..3));
            match rng.gen_range(0..10) {
                0..2 => {
                    if jobs < 3 {
                        // Random admission metadata: the fair-lease cursor
                        // only moves on journaled grants, so mixed clients
                        // and priorities must replay exactly too.
                        let client = ["default", "alpha", "beta"][rng.gen_range(0..3usize)];
                        let priority = rng.gen_range(0..3u64);
                        let submission = Submission::new(tiny_spec(), rng.gen_range(1..3))
                            .for_client(client, priority);
                        live.submit(submission, now).expect("submit");
                        jobs += 1;
                    }
                }
                2..4 => {
                    live.lease(&worker, now).expect("lease");
                }
                4..8 => {
                    // An ingest into a random job/shard: may succeed, renew,
                    // dedup, conflict or be refused — all must replay.
                    let job = format!("j{:06}", rng.gen_range(1..4));
                    let shard = rng.gen_range(0..2);
                    let mut body = String::new();
                    for line in lines.iter().filter(|_| rng.gen_range(0..2) == 0) {
                        body.push_str(line);
                        body.push('\n');
                    }
                    let _ = live.ingest(&job, shard, &worker, &body, now);
                }
                8 => {
                    let job = format!("j{:06}", rng.gen_range(1..4));
                    let _ = live.shard_done(&job, rng.gen_range(0..2), &worker, now);
                }
                _ => {
                    live.reset_leases().expect("reset");
                }
            }
        }
        let (replayed, _) = journal::replay(&path, TTL).expect("replay");
        prop_assert_eq!(replayed.snapshot().to_json(), snapshot(&live));

        // A crash mid-append leaves a partial final line; the event was
        // never applied live, so replay must still match.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"event\":\"lease\",\"now_ms\":99,\"wor");
        std::fs::write(&path, &bytes).expect("append partial");
        let (replayed, _) = journal::replay(&path, TTL).expect("replay truncated");
        prop_assert_eq!(replayed.snapshot().to_json(), snapshot(&live));

        // A leftover staging file from a compaction the process died in —
        // torn or complete — must never influence replay of the journal.
        let staging = compaction_path(&path);
        std::fs::write(&staging, b"{\"event\":\"snapshot\",\"state\":{\"next_jo")
            .expect("staging");
        let (replayed, _) = journal::replay(&path, TTL).expect("replay ignores staging");
        prop_assert_eq!(replayed.snapshot().to_json(), snapshot(&live));

        // replay(compact(j)) ≡ replay(j), for every schedule. Compaction
        // also discards the torn tail and the stale staging file above.
        let first = live.compact().expect("compact");
        let (replayed, report) = journal::replay(&path, TTL).expect("replay compacted");
        prop_assert_eq!(report.snapshots, 1);
        prop_assert_eq!(replayed.snapshot().to_json(), snapshot(&live));

        // Compaction converges: compacting a compacted journal is the
        // identity on both state and bytes.
        let second = live.compact().expect("second compact");
        prop_assert_eq!(second.bytes_before, first.bytes_after);
        prop_assert_eq!(second.bytes_after, first.bytes_after);
        let (replayed, _) = journal::replay(&path, TTL).expect("replay twice-compacted");
        prop_assert_eq!(replayed.snapshot().to_json(), snapshot(&live));

        // And a torn tail *after* a compaction is repaired the same way.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"{\"event\":\"lease\",\"now_ms\":99,\"wor");
        std::fs::write(&path, &bytes).expect("append partial");
        let (replayed, _) = journal::replay(&path, TTL).expect("replay truncated snapshot");
        prop_assert_eq!(replayed.snapshot().to_json(), snapshot(&live));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&staging);
    }
}
