//! `tatsbench` — the end-to-end and per-layer benchmark of the tats
//! campaign stack.
//!
//! ```text
//! cargo run --release --manifest-path tatsbench/Cargo.toml -- \
//!     --workload platform-sweep --seed 0 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced variant and reports per-layer metrics instead, writes
//! its spans to `.tatsbench/trace/<workload>.spans.jsonl` (the
//! `tats_trace::spans` format `tats trace` reads) and prints a per-layer
//! budget table. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--bless` rewrites the
//! workload's golden record set from a run at the given seed. Workloads,
//! metrics and predictions are described in `DESIGN.md`.

mod golden;
mod inprocess;
mod service;
mod spanlog;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for a layer
/// that does no work in it, or that runs behind the service's process
/// boundary where the benchmark cannot time it (see `DESIGN.md`).
const PER_LAYER: [(&str, &str); 45] = [
    ("engine.wall_us", "us"),
    ("taskgraph.graph_us", "us"),
    ("core.asp.schedule_us.baseline", "us"),
    ("core.asp.schedule_us.power1", "us"),
    ("core.asp.schedule_us.power2", "us"),
    ("core.asp.schedule_us.power3", "us"),
    ("core.asp.schedule_us.thermal", "us"),
    ("thermal.inquiry_ns", "ns"),
    ("core.thermal_us", "us"),
    ("thermal.model_builds", "count"),
    ("thermal.cache_hit_ratio", "ratio"),
    ("floorplan.ga_us", "us"),
    ("sparse.grid_us", "us"),
    ("sparse.factorizations", "count"),
    ("trace.encode_us", "us"),
    ("engine.unattributed_pct", "%"),
    ("service.drain_ms", "ms"),
    ("service.server.handler_ms", "ms"),
    ("service.server.ingest_us.p50", "us"),
    ("service.server.ingest_us.p99", "us"),
    ("service.server.ingest.count", "count"),
    ("service.server.lease_us.p50", "us"),
    ("service.server.lease_us.p99", "us"),
    ("service.server.lease.count", "count"),
    ("service.server.done_us.p50", "us"),
    ("service.server.done_us.p99", "us"),
    ("service.server.done.count", "count"),
    ("service.server.records_us.p50", "us"),
    ("service.server.records_us.p99", "us"),
    ("service.server.records.count", "count"),
    ("service.server.progress_us.p50", "us"),
    ("service.server.progress_us.p99", "us"),
    ("service.server.progress.count", "count"),
    ("service.journal.append_us.p50", "us"),
    ("service.journal.append_us.p99", "us"),
    ("service.journal.append_ms", "ms"),
    ("service.journal.bytes", "bytes"),
    ("service.journal.replay_ms", "ms"),
    ("service.worker.compute_ms", "ms"),
    ("service.worker.idle_polls", "count"),
    ("service.unattributed_pct", "%"),
    ("service.reader.late_ms.max", "ms"),
    ("bench.cpu_util", "ratio"),
    ("bench.kernel_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

pub type Error = Box<dyn std::error::Error>;

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ledger: stats::Ledger,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub bless: bool,
}

const WORKLOADS: [&str; 3] = ["platform-sweep", "cosynthesis-grid", "service-drain"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: golden::DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
        bless: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("in (0, 120]"));
                }
                args.seconds = Duration::from_secs_f64(seconds);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Scratch and output directories, inside the checkout the benchmark was
/// built in.
pub fn bench_dir(sub: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".tatsbench")
        .join(sub);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Formats the final result line. Every catalogue metric of the selected
/// kind appears exactly once, in catalogue order.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut entries = Vec::new();
    for (name, unit) in catalogue {
        let value = match outcome.metrics.iter().find(|(n, _)| n == name) {
            Some((_, value)) => *value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !catalogue.iter().any(|(known, _)| known == name))
    {
        return Err(format!("metric {name} is not in the catalogue"));
    }
    let ledger = &outcome.ledger;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0 && ledger.attempted > 0,
        ledger.attempted,
        ledger.failed,
        entries.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tatsbench: {message}");
            eprintln!(
                "usage: tatsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--bless]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "service-drain" => service::run(&args),
        name => inprocess::run(&args, inprocess::Workload::parse(name)),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("tatsbench: {}: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.ledger.problems {
        println!("FAILED: {problem}");
    }
    println!(
        "ops: {} attempted, {} failed (failed_frac {})",
        outcome.ledger.attempted,
        outcome.ledger.failed,
        outcome.ledger.failed as f64 / outcome.ledger.attempted.max(1) as f64
    );
    let kind = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, value) in &outcome.metrics {
        let unit = kind
            .iter()
            .find(|(known, _)| known == name)
            .map_or("?", |(_, unit)| unit);
        println!("{name:<34} {value:>14.6} {unit}");
    }
    match result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("tatsbench: {message}");
            ExitCode::FAILURE
        }
    }
}
