//! The `service-drain` workload: one journaled `Service` in production
//! defaults, one job of cheap platform scenarios (baseline and power1–3,
//! no thermal policy) over 8 shards, drained by one `run_worker` on one
//! thread while an open-loop reader on a second keep-alive connection
//! alternates `GET /jobs/{id}/records?from=k` with `GET
//! /jobs/{id}/progress`. Scenarios are cheap, so HTTP, registry and
//! journal work per record dominates.
//!
//! Each round binds a fresh server on a fresh journal (set-up), submits,
//! drains while reading, checks the record set against the in-process
//! executor byte for byte, stops the server and rebinds it on the drained
//! journal (restart). The traced variant wraps the benchmark's own client
//! calls and the `run_worker` call in spans and takes the server-side
//! split from one `GET /metrics` scrape per round, since handlers run on
//! server threads the benchmark cannot wrap.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tats_core::experiment::ExperimentConfig;
use tats_core::{Policy, PowerHeuristic};
use tats_engine::{Campaign, CampaignSpec, Executor, FlowKind};
use tats_service::{client, journal, run_worker, Service, ServiceConfig, WorkerConfig};
use tats_trace::spans::SpanKind;
use tats_trace::{jsonl, JsonValue};

use crate::inprocess::{seed_axis, SEED_POOL};
use crate::spanlog::Spans;
use crate::stats::{
    cpu_seconds, faster_half_mean, kernel_median, median, ms, peak_rss_mb, quantile, spread_line,
    Ledger, KERNEL_REF_S,
};
use crate::{bench_dir, golden, Args, Error, Outcome};

const WORKLOAD: &str = "service-drain";
/// Seed-axis values per benchmark and policy: 4 × 4 × 50 = 800 scenarios.
const SEEDS: usize = 50;
const SHARDS: usize = 8;
/// The reader's schedule: one request every period, records and progress
/// alternating, whatever the server's latency (an open loop).
const READ_PERIOD: Duration = Duration::from_millis(1);
/// A round that has not drained by then is counted failed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);
const MIN_ROUNDS: usize = 3;
/// Calibration-kernel timings after every round (their median is kept).
const KERNEL_RUNS: usize = 11;
/// Server endpoints whose handler time the traced run reports: short
/// name, the label `/metrics` gives them, and their p50, p99 and count
/// metrics.
type Endpoint = (&'static str, &'static str, [&'static str; 3]);
const ENDPOINTS: [Endpoint; 5] = [
    (
        "ingest",
        "POST /jobs/{id}/shards/{i}/records",
        [
            "service.server.ingest_us.p50",
            "service.server.ingest_us.p99",
            "service.server.ingest.count",
        ],
    ),
    (
        "lease",
        "POST /lease",
        [
            "service.server.lease_us.p50",
            "service.server.lease_us.p99",
            "service.server.lease.count",
        ],
    ),
    (
        "done",
        "POST /jobs/{id}/shards/{i}/done",
        [
            "service.server.done_us.p50",
            "service.server.done_us.p99",
            "service.server.done.count",
        ],
    ),
    (
        "records",
        "GET /jobs/{id}/records",
        [
            "service.server.records_us.p50",
            "service.server.records_us.p99",
            "service.server.records.count",
        ],
    ),
    (
        "progress",
        "GET /jobs/{id}/progress",
        [
            "service.server.progress_us.p50",
            "service.server.progress_us.p99",
            "service.server.progress.count",
        ],
    ),
];

fn campaign(seed: u64) -> Campaign {
    let mut policies = vec![Policy::Baseline];
    policies.extend(PowerHeuristic::ALL.map(Policy::PowerAware));
    Campaign::new(ExperimentConfig::fast())
        .with_flows(vec![FlowKind::Platform])
        .with_policies(policies)
        .with_seeds(seed_axis(seed, SEEDS, SEED_POOL))
}

fn config(journal: &Path) -> ServiceConfig {
    ServiceConfig {
        journal: Some(journal.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// Polls `GET /readyz` until it answers 200.
fn wait_ready(addr: &str, ledger: &mut Ledger) -> Result<(), Error> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(response) = client::request(addr, "GET", "/readyz", &[], None) {
            if response.status == 200 {
                ledger.ok(1);
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            ledger.check(1, 1, || format!("{addr} never became ready"));
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Record lines sorted by scenario id, compared with the reference.
fn mismatched(mut lines: Vec<String>, reference: &[String]) -> u64 {
    lines.sort_by_key(|line| jsonl::line_id(line));
    let differ = lines.iter().zip(reference).filter(|(a, b)| a != b).count();
    (differ + lines.len().abs_diff(reference.len())) as u64
}

/// One histogram of a Prometheus text page: cumulative counts per `le`
/// bound (µs), sum and count, summed over every series that matches.
#[derive(Debug, Default, Clone)]
struct PromHistogram {
    buckets: BTreeMap<u64, f64>,
    sum_us: f64,
    count: f64,
}

impl PromHistogram {
    fn add(&mut self, other: &PromHistogram) {
        for (le, count) in &other.buckets {
            *self.buckets.entry(*le).or_default() += count;
        }
        self.sum_us += other.sum_us;
        self.count += other.count;
    }

    /// The `q`-quantile in µs, interpolated linearly inside the bucket
    /// that holds it (the page's bounds are powers of four).
    fn quantile(&self, q: f64) -> f64 {
        let target = q * self.count;
        let (mut low, mut below) = (0.0, 0.0);
        for (&le, &count) in &self.buckets {
            let le = le as f64;
            if count >= target && count > below {
                return low + (le - low) * (target - below) / (count - below);
            }
            (low, below) = (le, count);
        }
        low
    }
}

/// One sample line of a Prometheus text page: name, labels and value.
type Series<'a> = (&'a str, Vec<(String, String)>, f64);

/// Splits `name{labels} value` into its parts. Label values are quoted
/// and may hold spaces and braces (`GET /jobs/{id}/records`).
fn parse_series(line: &str) -> Option<Series<'_>> {
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let Some((name, rest)) = series.split_once('{') else {
        return Some((series, Vec::new(), value));
    };
    let mut labels = Vec::new();
    let mut chars = rest.strip_suffix('}')?.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|c| *c != '=').collect();
        if chars.next() != Some('"') {
            return None;
        }
        let mut text = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => text.push(match chars.next()? {
                    'n' => '\n',
                    other => other,
                }),
                '"' => break,
                other => text.push(other),
            }
        }
        labels.push((key, text));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    Some((name, labels, value))
}

/// The histogram `name` of a scrape, over every series whose labels
/// include `filter`.
fn histogram(page: &str, name: &str, filter: &[(&str, &str)]) -> PromHistogram {
    let mut out = PromHistogram::default();
    for (series, labels, value) in page.lines().filter_map(parse_series) {
        let Some(suffix) = series.strip_prefix(name) else {
            continue;
        };
        let matches = filter
            .iter()
            .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v));
        if !matches {
            continue;
        }
        match suffix {
            "_bucket" => {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str());
                if let Some(Ok(seconds)) = le.filter(|v| *v != "+Inf").map(str::parse::<f64>) {
                    *out.buckets
                        .entry((seconds * 1e6).round() as u64)
                        .or_default() += value;
                }
            }
            "_sum" => out.sum_us += value * 1e6,
            "_count" => out.count += value,
            _ => {}
        }
    }
    out
}

/// The server-side split of one traced round, from its scrape.
#[derive(Debug, Default)]
struct Scrape {
    endpoints: Vec<PromHistogram>,
    append: PromHistogram,
    handler_ms: f64,
    compute_ms: f64,
}

fn read_scrape(page: &str) -> Scrape {
    let handler_us: f64 = page
        .lines()
        .filter_map(parse_series)
        .filter(|(series, labels, _)| {
            *series == "http_request_seconds_sum"
                && !labels
                    .iter()
                    .any(|(k, v)| k == "endpoint" && (v == "GET /metrics" || v == "GET /readyz"))
        })
        .map(|(_, _, seconds)| seconds * 1e6)
        .sum();
    Scrape {
        endpoints: ENDPOINTS
            .iter()
            .map(|(_, label, _)| histogram(page, "http_request_seconds", &[("endpoint", label)]))
            .collect(),
        append: histogram(page, "journal_append_seconds", &[]),
        handler_ms: handler_us / 1e3,
        compute_ms: histogram(page, "engine_scenario_seconds", &[]).sum_us / 1e3,
    }
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    drain_s: f64,
    restart_s: f64,
    /// Calibration-kernel median timed after the round.
    kernel_s: f64,
    /// Read latencies, from when the reader was ready to send (see
    /// `round`).
    reads_ms: Vec<f64>,
    late_max_ms: f64,
    idle_polls: u64,
    journal_bytes: u64,
    replay_ms: f64,
    scrape: Option<Scrape>,
}

fn round(
    spec: &JsonValue,
    reference: &[String],
    journal_path: &Path,
    ledger: &mut Ledger,
    mut spans: Option<&mut Spans>,
) -> Result<Round, Error> {
    let mut out = Round::default();
    let n = reference.len();
    let _ = std::fs::remove_file(journal_path);
    let bind_clock = Instant::now();
    let server = Service::bind("127.0.0.1:0", config(journal_path))?;
    let addr = server.addr_string();
    wait_ready(&addr, ledger)?;
    out.setup_s = bind_clock.elapsed().as_secs_f64();

    let submit_at = Instant::now();
    let job = match client::post_json(&addr, "/jobs", spec) {
        Ok(reply) => {
            ledger.ok(1);
            reply
                .get("job")
                .and_then(JsonValue::as_str)
                .ok_or("submit reply names no job")?
                .to_string()
        }
        Err(error) => {
            ledger.check(1, 1, || format!("submit: {error}"));
            return Err(error.into());
        }
    };
    let submitted = Instant::now();
    let root = spans.as_deref_mut().map(|s| {
        let root = s.push(
            None,
            "bench.round",
            SpanKind::Client,
            (s.at(submit_at), 0),
            &[],
        );
        s.push(
            Some(root),
            "client.submit",
            SpanKind::Client,
            (s.at(submit_at), s.at(submitted)),
            &[("job", job.clone())],
        );
        root
    });

    let mut lines: Vec<String> = Vec::with_capacity(n);
    let (worker, drained) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let start = Instant::now();
            let report = run_worker(
                &addr,
                &WorkerConfig {
                    name: "tatsbench-w0".to_string(),
                    threads: 1,
                    exit_when_drained: true,
                    ..WorkerConfig::default()
                },
            );
            (report, start, Instant::now())
        });
        let mut reader = client::Connection::new(&addr);
        let mut from = 0usize;
        for k in 0u32.. {
            let due = submitted + READ_PERIOD * k;
            let slept = due.checked_duration_since(Instant::now());
            if let Some(early) = slept {
                std::thread::sleep(early);
            }
            let sent = Instant::now();
            out.late_max_ms = out.late_max_ms.max(ms(sent - due));
            let records_turn = k % 2 == 0;
            let path = if records_turn {
                format!("/jobs/{job}/records?from={from}")
            } else {
                format!("/jobs/{job}/progress")
            };
            let reply = reader.request("GET", &path, &[], None);
            let answered = Instant::now();
            // A read that waited for its slot is timed from when the
            // reader woke, so the reader's own oversleep (timer slack, about
            // half a fast read) is left out; one sent late because the
            // previous reply came late is timed from its slot.
            let ready = if slept.is_some() { sent } else { due };
            out.reads_ms.push(ms(answered - ready));
            match reply {
                Ok(response) if response.status == 200 => {
                    ledger.ok(1);
                    if records_turn {
                        lines.extend(response.body.lines().map(str::to_string));
                        from = response
                            .header("x-next-from")
                            .and_then(|v| v.trim().parse().ok())
                            .unwrap_or(lines.len());
                    }
                }
                Ok(response) => ledger.check(1, 1, || format!("GET {path}: {}", response.status)),
                Err(error) => ledger.check(1, 1, || format!("GET {path}: {error}")),
            }
            if let Some(s) = spans.as_deref_mut() {
                let name = if records_turn {
                    "client.read.records"
                } else {
                    "client.read.progress"
                };
                s.push(
                    root,
                    name,
                    SpanKind::Client,
                    (s.at(sent), s.at(answered)),
                    &[(
                        "late_us",
                        format!("{:.0}", (sent - due).as_secs_f64() * 1e6),
                    )],
                );
            }
            if lines.len() >= n || submit_at.elapsed() > ROUND_TIMEOUT {
                break;
            }
        }
        let drained = Instant::now();
        (worker.join(), drained)
    });
    out.drain_s = (drained - submit_at).as_secs_f64();
    if lines.len() < n {
        ledger.check(1, 1, || {
            format!("round timed out with {} of {n} records", lines.len())
        });
    }

    match worker {
        Ok((Ok(report), start, end)) => {
            out.idle_polls = report.idle_polls;
            let wrong = u64::from(report.records_posted != n || report.shards_completed != SHARDS);
            ledger.check(1, wrong, || {
                format!(
                    "worker posted {} records in {} shards",
                    report.records_posted, report.shards_completed
                )
            });
            if let Some(s) = spans.as_deref_mut() {
                s.push(
                    root,
                    "worker.run_worker",
                    SpanKind::Worker,
                    (s.at(start), s.at(end)),
                    &[("shards", report.shards_completed.to_string())],
                );
            }
        }
        Ok((Err(error), _, _)) => ledger.check(1, 1, || format!("worker: {error}")),
        Err(_) => ledger.check(1, 1, || "worker panicked".to_string()),
    }
    let bad = mismatched(lines, reference);
    ledger.check(n as u64, bad, || {
        format!("{bad} records read during the drain differ from the in-process executor's")
    });

    if let Some(s) = spans.as_deref_mut() {
        let page = client::get(&addr, "/metrics")?.body;
        ledger.ok(1);
        out.scrape = Some(read_scrape(&page));
        if let Some(root) = root {
            s.close(root, s.at(drained));
        }
    }
    server.stop();
    out.journal_bytes = std::fs::metadata(journal_path)?.len();
    if spans.is_some() {
        let clock = Instant::now();
        let (_, report) = journal::replay(journal_path, ServiceConfig::default().lease_ttl_ms)?;
        out.replay_ms = ms(clock.elapsed());
        ledger.check(1, u64::from(report.records != n), || {
            format!("journal replay recovered {} of {n} records", report.records)
        });
    }

    let restart_clock = Instant::now();
    let restarted = Service::bind("127.0.0.1:0", config(journal_path))?;
    let restarted_addr = restarted.addr_string();
    wait_ready(&restarted_addr, ledger)?;
    out.restart_s = restart_clock.elapsed().as_secs_f64();
    let body = client::get(&restarted_addr, &format!("/jobs/{job}/records"))?.body;
    let bad = mismatched(body.lines().map(str::to_string).collect(), reference);
    ledger.check(n as u64, bad, || {
        format!("{bad} records differ after the restart on the drained journal")
    });
    restarted.stop();
    std::fs::remove_file(journal_path)?;
    out.kernel_s = kernel_median(KERNEL_RUNS);
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome, Error> {
    let mut outcome = Outcome::default();
    let campaign = campaign(args.seed);
    let spec = CampaignSpec::from_campaign(&campaign)?;
    let body = JsonValue::object(vec![
        ("spec".to_string(), spec.to_json()),
        ("shards".to_string(), JsonValue::from(SHARDS)),
    ]);

    // The reference record set: the same spec through the in-process
    // executor, as a worker would run it. At the default seed it must also
    // reproduce the golden set.
    let reference_run = Executor::new(1).run(
        &spec.to_campaign(),
        &spec.to_campaign().scenarios(),
        &Default::default(),
        |_| Ok(()),
    )?;
    let n = reference_run.records.len();
    if args.bless {
        let path = golden::bless(WORKLOAD, &reference_run.records)?;
        println!("blessed {}", path.display());
    } else if args.seed == golden::DEFAULT_SEED {
        let bad = golden::mismatches(WORKLOAD, &reference_run.records)?;
        outcome.ledger.check(n as u64, bad, || {
            format!("{bad} records differ from the golden set")
        });
    }
    let reference: Vec<String> = reference_run
        .records
        .iter()
        .map(|record| record.to_json().to_json())
        .collect();
    println!(
        "{WORKLOAD}: {n} scenarios per job over {SHARDS} shards (seed axis {:?})",
        campaign.seeds()
    );

    let journal_path = bench_dir("work")?.join("service-drain.journal.jsonl");
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut span_log: Option<Spans> = None;
    let mut peak_rss = f64::NAN;
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    while untraced.len() < MIN_ROUNDS || start.elapsed() < args.seconds {
        // Traced runs alternate untraced and traced rounds.
        if args.trace && untraced.len() > traced.len() {
            let mut spans = Spans::new(args.seed);
            let result = round(
                &body,
                &reference,
                &journal_path,
                &mut outcome.ledger,
                Some(&mut spans),
            )?;
            traced.push(result);
            span_log.get_or_insert(spans);
        } else {
            untraced.push(round(
                &body,
                &reference,
                &journal_path,
                &mut outcome.ledger,
                None,
            )?);
        }
        if peak_rss.is_nan() {
            // The peak of a process that served and drained the job once.
            peak_rss = peak_rss_mb();
        }
    }
    let window = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_start;

    let all = || untraced.iter().chain(&traced);
    let late_max = all().map(|r| r.late_max_ms).fold(0.0, f64::max);
    let drain_ms: Vec<f64> = untraced.iter().map(|r| r.drain_s * 1e3).collect();
    let reads = all().map(|r| r.reads_ms.len()).sum::<usize>();
    println!(
        "{} untraced rounds, {} traced; {reads} reads, generator late by at most {late_max:.3} ms; \
         cpu {cpu:.3} s over {window:.3} s",
        untraced.len(),
        traced.len(),
    );
    println!("{}", spread_line("drain wall", &drain_ms, 1.0, "ms"));
    if !args.trace {
        // The faster half of the rounds: a co-tenant slows the shared core
        // for seconds at a time, and a slowdown only ever adds.
        let mut by_drain: Vec<&Round> = untraced.iter().collect();
        by_drain.sort_by(|a, b| a.drain_s.total_cmp(&b.drain_s));
        let reads_of = |rounds: &[&Round]| -> Vec<f64> {
            rounds
                .iter()
                .flat_map(|r| r.reads_ms.iter().copied())
                .collect()
        };
        let faster_reads = reads_of(&by_drain[..by_drain.len().div_ceil(2)]);
        // The tail takes the faster quarter: a co-tenant that holds a vCPU
        // for tens of seconds multiplies the reads that wait for a time
        // slice several times over, and can cover half a run.
        let quarter_reads = reads_of(&by_drain[..by_drain.len().div_ceil(4)]);
        println!(
            "faster half: {} rounds, {} reads; tail = p99 of the faster quarter's {} reads",
            by_drain.len().div_ceil(2),
            faster_reads.len(),
            quarter_reads.len()
        );
        let setup: Vec<f64> = all().map(|r| r.setup_s).collect();
        let restart: Vec<f64> = all().map(|r| r.restart_s).collect();
        // End-to-end times are scaled to the reference core by the faster
        // half of the kernel medians, summarised like the rounds.
        let kernel: Vec<f64> = all().map(|r| r.kernel_s).collect();
        let scale = KERNEL_REF_S / faster_half_mean(&kernel);
        println!(
            "{}; core speed {scale:.4} of the reference",
            spread_line("kernel", &kernel, 1e6, "µs")
        );
        outcome.set("setup_s", faster_half_mean(&setup) * scale);
        outcome.set(
            "scenarios_per_s",
            n as f64 / (faster_half_mean(&drain_ms) / 1e3 * scale),
        );
        outcome.set("latency_p50_ms", quantile(&faster_reads, 0.5) * scale);
        // The tail is the wait for a time slice while the worker's and the
        // server's threads hold both vCPUs, not work that a faster core
        // shortens, so it is not scaled.
        outcome.set("latency_tail_ms", quantile(&quarter_reads, 0.99));
        outcome.set("restart_s", faster_half_mean(&restart) * scale);
        outcome.set("peak_rss_mb", peak_rss);
        return Ok(outcome);
    }

    let scrapes: Vec<&Scrape> = traced.iter().filter_map(|r| r.scrape.as_ref()).collect();
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let per_scrape =
        |f: &dyn Fn(&Scrape) -> f64| median(&scrapes.iter().map(|s| f(s)).collect::<Vec<_>>());
    let traced_drain_ms = per_round(&|r| r.drain_s * 1e3);
    let handler_ms = per_scrape(&|s| s.handler_ms);
    let append_ms = per_scrape(&|s| s.append.sum_us / 1e3);
    let compute_ms = per_scrape(&|s| s.compute_ms);
    let unattributed = per_round(&|r| {
        r.scrape.as_ref().map_or(f64::NAN, |s| {
            100.0 * (r.drain_s * 1e3 - s.compute_ms - s.handler_ms) / (r.drain_s * 1e3)
        })
    });

    println!("\nper-layer budget, {WORKLOAD} (ms per drained job of {n} scenarios):");
    println!(
        "  {:<32} {traced_drain_ms:>10.3}",
        "drain wall (traced rounds)"
    );
    for (index, (short, label, _)) in ENDPOINTS.iter().enumerate() {
        let handler = per_scrape(&|s| s.endpoints[index].sum_us / 1e3);
        println!("  server {short:<25} {handler:>10.3}  ({label})");
    }
    println!(
        "  {:<32} {handler_ms:>10.3}",
        "server handlers, all endpoints"
    );
    println!(
        "  {:<32} {append_ms:>10.3}  (inside the handlers)",
        "journal appends"
    );
    println!("  {:<32} {compute_ms:>10.3}", "worker scenario compute");
    println!("  {:<32} {unattributed:>10.1} %", "unattributed");
    println!(
        "  handler time (journal included) {} worker compute",
        if handler_ms > compute_ms {
            "exceeds"
        } else {
            "does NOT exceed"
        }
    );
    if let Some(spans) = &span_log {
        let path = spans.write(WORKLOAD)?;
        println!(
            "  spans: {} ({} events)",
            path.display(),
            spans.events.len()
        );
    }

    outcome.set("service.drain_ms", traced_drain_ms);
    outcome.set("service.server.handler_ms", handler_ms);
    let mut pooled = vec![PromHistogram::default(); ENDPOINTS.len()];
    let mut append = PromHistogram::default();
    for scrape in &scrapes {
        for (sum, one) in pooled.iter_mut().zip(&scrape.endpoints) {
            sum.add(one);
        }
        append.add(&scrape.append);
    }
    let rounds = scrapes.len().max(1) as f64;
    for ((_, _, [p50, p99, count]), histogram) in ENDPOINTS.iter().zip(&pooled) {
        outcome.set(p50, histogram.quantile(0.5));
        outcome.set(p99, histogram.quantile(0.99));
        outcome.set(count, histogram.count / rounds);
    }
    outcome.set("service.journal.append_us.p50", append.quantile(0.5));
    outcome.set("service.journal.append_us.p99", append.quantile(0.99));
    outcome.set("service.journal.append_ms", append_ms);
    outcome.set(
        "service.journal.bytes",
        per_round(&|r| r.journal_bytes as f64),
    );
    outcome.set("service.journal.replay_ms", per_round(&|r| r.replay_ms));
    outcome.set("service.worker.compute_ms", compute_ms);
    outcome.set(
        "service.worker.idle_polls",
        per_round(&|r| r.idle_polls as f64),
    );
    outcome.set("service.unattributed_pct", unattributed);
    outcome.set("service.reader.late_ms.max", late_max);
    outcome.set("bench.cpu_util", cpu / window);
    let kernel: Vec<f64> = all().map(|r| r.kernel_s).collect();
    outcome.set("bench.kernel_us", faster_half_mean(&kernel) * 1e6);
    outcome.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_drain_ms / median(&drain_ms) - 1.0),
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_with_braces_in_labels_parse() {
        let (name, labels, value) = parse_series(
            "http_request_seconds_bucket{endpoint=\"GET /jobs/{id}/records\",le=\"0.000016\"} 12",
        )
        .expect("parses");
        assert_eq!(name, "http_request_seconds_bucket");
        assert_eq!(
            labels[0],
            ("endpoint".to_string(), "GET /jobs/{id}/records".to_string())
        );
        assert_eq!(labels[1], ("le".to_string(), "0.000016".to_string()));
        assert_eq!(value, 12.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        let page = "x_bucket{le=\"0.000004\"} 0\nx_bucket{le=\"0.000016\"} 10\n\
                    x_bucket{le=\"+Inf\"} 10\nx_sum 0.0001\nx_count 10\n";
        let h = histogram(page, "x", &[]);
        assert_eq!(h.count, 10.0);
        assert!((h.quantile(0.5) - 10.0).abs() < 1e-9);
        assert!((h.sum_us - 100.0).abs() < 1e-9);
    }
}
