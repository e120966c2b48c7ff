//! The in-process workloads: a campaign through the batch engine's
//! `Executor` on one thread, the way `tats batch --threads 1 --out` runs
//! it (each record is encoded to a JSONL line in the sink).
//!
//! * `platform-sweep` — platform flow, all five policies, no grid axis.
//!   Every scenario hits the one cached platform geometry, so the run is
//!   ASP scheduling, dominated by the thermal policy's per-candidate
//!   `ThermalModel::steady_state` inquiries.
//! * `cosynthesis-grid` — co-synthesis flow, all five policies, Cholesky
//!   grid validation at 32×32: GA floorplanning, allocation-loop ASP runs
//!   and grid factorisations, with thermal inquiries a small share.
//!
//! After every executor pass the benchmark replays the campaign through the
//! same public calls the executor's `run_scenario` makes, timing each
//! scenario and each call from outside; every replay must reproduce the
//! executor's records exactly. The replay's per-scenario times give the
//! latency metrics and, in the traced run, its call times give the
//! per-layer metrics and its first pass's spans are written out.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tats_core::experiment::ExperimentConfig;
use tats_core::{
    geometry_config_bits, CoSynthesis, FifoCache, FlowPhases, PlatformFlow, Policy,
    ScheduleEvaluation, ThermalModelCache,
};
use tats_engine::{policy_slug, Campaign, Executor, FlowKind, Scenario, ScenarioRecord};
use tats_thermal::{Floorplan, GridModel, GridSolver, ThermalModel};
use tats_trace::spans::SpanKind;

use crate::spanlog::Spans;
use crate::stats::KERNEL_REF_S;
use crate::stats::{
    burst_median, cpu_seconds, fold_min, kernel_median, min, peak_rss_mb, quantile, spread_line,
    tail_quantile,
};
use crate::{bench_dir, golden, Args, Error, Outcome};

/// Seed-axis values per benchmark and policy in one campaign: 1020
/// platform scenarios (enough for a p99 with ten samples beyond it), 240
/// co-synthesis scenarios. Co-synthesis cost varies more from graph to
/// graph, so its values come from a pool of 24: two seeds share half their
/// graphs on average, which halves the seed-to-seed spread of the mean.
const PLATFORM_SEEDS: usize = 51;
const COSYNTHESIS_SEEDS: usize = 12;
const COSYNTHESIS_POOL: u64 = 24;
/// Grid-validation resolution of `cosynthesis-grid`.
const GRID: usize = 32;
/// Mirrors the executor's per-worker grid-model cache bound, so the
/// replay factorises exactly as often as the executor does.
const GRID_CACHE_CAPACITY: usize = 16;
/// Set-ups and restarts timed in a burst after every pass; the fastest
/// burst median is reported.
const SETUP_BURST: usize = 15;
const RESTART_BURST: usize = 3;
/// Calibration-kernel timings after every pass (their median is kept).
const KERNEL_RUNS: usize = 11;
/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlatformSweep,
    CosynthesisGrid,
}

impl Workload {
    pub fn parse(name: &str) -> Workload {
        match name {
            "cosynthesis-grid" => Workload::CosynthesisGrid,
            _ => Workload::PlatformSweep,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PlatformSweep => "platform-sweep",
            Workload::CosynthesisGrid => "cosynthesis-grid",
        }
    }

    /// The campaign of this workload at a workload seed: the seed picks the
    /// seed-axis values, so each seed schedules other task graphs of the
    /// same four benchmark shapes.
    fn campaign(self, seed: u64) -> Campaign {
        let base = Campaign::new(ExperimentConfig::fast()).with_policies(Policy::ALL.to_vec());
        match self {
            Workload::PlatformSweep => base
                .with_flows(vec![FlowKind::Platform])
                .with_seeds(seed_axis(seed, PLATFORM_SEEDS, SEED_POOL)),
            Workload::CosynthesisGrid => base
                .with_flows(vec![FlowKind::CoSynthesis])
                .with_solvers(vec![Some(GridSolver::BandedCholesky)])
                .with_grid_resolution(GRID, GRID)
                .with_seeds(seed_axis(seed, COSYNTHESIS_SEEDS, COSYNTHESIS_POOL)),
        }
    }
}

/// Seed-axis values are drawn from `1..=pool`, `pool` at most `SEED_POOL`.
/// Every value there co-synthesises under each benchmark and policy; about
/// 1 % of larger values find no architecture that meets the deadline (322,
/// 350 and 530 are the first), which would fail the run.
pub const SEED_POOL: u64 = 300;

/// `count` distinct seed-axis values picked from `1..=pool` by a generator
/// seeded with the workload seed, in ascending order.
pub fn seed_axis(seed: u64, count: usize, pool: u64) -> Vec<u64> {
    let mut state = seed;
    let mut values = BTreeSet::new();
    while values.len() < count.min(pool as usize) {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        values.insert((z ^ (z >> 31)) % pool + 1);
    }
    values.into_iter().collect()
}

/// One untraced executor pass: the records, the JSONL output and the
/// executor wall.
struct Pass {
    records: Vec<ScenarioRecord>,
    jsonl: String,
    wall_s: f64,
}

fn untraced_pass(campaign: &Campaign, scenarios: &[Scenario]) -> Result<Pass, Error> {
    let mut jsonl = String::new();
    let run = Executor::new(1).run(campaign, scenarios, &BTreeSet::new(), |record| {
        jsonl.push_str(&record.to_json().to_json());
        jsonl.push('\n');
        Ok(())
    })?;
    Ok(Pass {
        records: run.records,
        jsonl,
        wall_s: run.report.wall_s,
    })
}

/// Layers a traced replay times per scenario, in seconds.
const GRAPH: usize = 0;
const SCHEDULE: usize = 1;
const THERMAL: usize = 2;
const FLOORPLAN: usize = 3;
const SPARSE: usize = 4;
const ENCODE: usize = 5;
const TOTAL: usize = 6;
const SLOTS: usize = 7;

/// One traced replay: per-scenario layer times (`SLOTS` per scenario,
/// flattened), the replay's wall and the cache counters.
struct Traced {
    times: Vec<f64>,
    wall: f64,
    model_builds: u64,
    model_lookups: u64,
    factorizations: u64,
}

/// The per-layer metrics a replay yields: name, slot and the policy whose
/// scenarios count (all when `None`).
const LAYERS: [(&str, usize, Option<Policy>); 10] = [
    ("taskgraph.graph_us", GRAPH, None),
    (
        "core.asp.schedule_us.baseline",
        SCHEDULE,
        Some(Policy::ALL[0]),
    ),
    (
        "core.asp.schedule_us.power1",
        SCHEDULE,
        Some(Policy::ALL[1]),
    ),
    (
        "core.asp.schedule_us.power2",
        SCHEDULE,
        Some(Policy::ALL[2]),
    ),
    (
        "core.asp.schedule_us.power3",
        SCHEDULE,
        Some(Policy::ALL[3]),
    ),
    (
        "core.asp.schedule_us.thermal",
        SCHEDULE,
        Some(Policy::ALL[4]),
    ),
    ("core.thermal_us", THERMAL, None),
    ("floorplan.ga_us", FLOORPLAN, None),
    ("sparse.grid_us", SPARSE, None),
    ("trace.encode_us", ENCODE, None),
];

/// One layer's time in a replay, µs per scenario of the campaign.
fn layer_us(
    scenarios: &[Scenario],
    times: &[f64],
    &(_, slot, policy): &(&str, usize, Option<Policy>),
) -> f64 {
    let total: f64 = scenarios
        .iter()
        .zip(times.chunks(SLOTS))
        .filter(|(scenario, _)| policy.is_none_or(|p| scenario.policy == p))
        .map(|(_, t)| t[slot])
        .sum();
    total * 1e6 / scenarios.len() as f64
}

/// Replayed calls run in the benchmark's own process, on no wire side.
const KIND: SpanKind = SpanKind::Internal;

type GridKey = (Vec<u64>, usize, usize, &'static str);

/// A thermal-policy schedule's inquiry input: its floorplan and per-PE
/// power vector.
type Inquiry = (Floorplan, Vec<f64>);

/// Replays the campaign through the public calls `run_scenario` makes,
/// timing each from outside. Returns the records, the layer times and the
/// thermal schedules' inquiry inputs.
fn traced_pass(
    campaign: &Campaign,
    scenarios: &[Scenario],
    mut spans: Option<&mut Spans>,
) -> Result<(Vec<ScenarioRecord>, Traced, Vec<Inquiry>), Error> {
    let start = Instant::now();
    let experiment = campaign.experiment();
    let library = experiment.library()?;
    let mut thermal_cache = ThermalModelCache::new();
    let mut grid_cache: FifoCache<GridKey, GridModel> =
        FifoCache::with_capacity(GRID_CACHE_CAPACITY);
    let (nx, ny) = campaign.grid_resolution();
    let mut times = Vec::with_capacity(scenarios.len() * SLOTS);
    let mut records = Vec::with_capacity(scenarios.len());
    let mut inquiries = Vec::new();
    let mut jsonl = String::new();
    let root = spans
        .as_deref_mut()
        .map(|s| s.push(None, "bench.pass", KIND, (s.at(start), s.at(start)), &[]));

    for scenario in scenarios {
        let t0 = Instant::now();
        let graph = scenario.task_graph()?;
        let t1 = Instant::now();
        let (schedule, evaluation, floorplan, phases): (
            _,
            ScheduleEvaluation,
            Floorplan,
            FlowPhases,
        ) = match scenario.flow {
            FlowKind::Platform => {
                let flow =
                    PlatformFlow::new(&library)?.with_thermal_config(experiment.thermal_config);
                let (result, phases) =
                    flow.run_with_cache_timed(&graph, scenario.policy, &mut thermal_cache)?;
                (result.schedule, result.evaluation, result.floorplan, phases)
            }
            FlowKind::CoSynthesis => {
                let flow = CoSynthesis::new(&library)
                    .with_max_pes(experiment.max_pes)
                    .with_thermal_config(experiment.thermal_config)
                    .with_floorplan_ga(experiment.floorplan_ga);
                let (result, phases) =
                    flow.run_with_cache_timed(&graph, scenario.policy, &mut thermal_cache)?;
                (result.schedule, result.evaluation, result.floorplan, phases)
            }
        };
        let t2 = Instant::now();
        let grid_max_temp_c = match scenario.solver {
            None => None,
            Some(solver) => {
                let config = experiment.thermal_config;
                let key = (
                    geometry_config_bits(&floorplan, &config),
                    nx,
                    ny,
                    solver.name(),
                );
                let model = grid_cache.get_or_try_insert_with(key, || {
                    GridModel::new(&floorplan, config, nx, ny)?.with_solver(solver)
                })?;
                let mut workspace = model.workspace();
                Some(
                    model
                        .steady_state_with(&evaluation.per_pe_power, &mut workspace)?
                        .max_c(),
                )
            }
        };
        let t3 = Instant::now();
        let energy: f64 = schedule.assignments().iter().map(|a| a.energy()).sum();
        let record = ScenarioRecord {
            id: scenario.id,
            key: scenario.key(),
            benchmark: scenario.benchmark.name().to_string(),
            flow: scenario.flow.name().to_string(),
            policy: policy_slug(scenario.policy).to_string(),
            seed: scenario.seed,
            solver: scenario.solver.map(|s| s.name().to_string()),
            total_power: evaluation.total_average_power,
            max_temp_c: evaluation.max_temperature_c,
            avg_temp_c: evaluation.avg_temperature_c,
            makespan: evaluation.makespan,
            meets_deadline: evaluation.meets_deadline,
            energy,
            grid_max_temp_c,
        };
        let t4 = Instant::now();
        jsonl.push_str(&record.to_json().to_json());
        jsonl.push('\n');
        let t5 = Instant::now();

        let mut slot = [0.0; SLOTS];
        slot[GRAPH] = (t1 - t0).as_secs_f64();
        slot[SCHEDULE] = phases.scheduling.as_secs_f64();
        slot[THERMAL] = phases.thermal.as_secs_f64();
        slot[FLOORPLAN] = phases.floorplan.as_secs_f64();
        slot[SPARSE] = (t3 - t2).as_secs_f64();
        slot[ENCODE] = (t5 - t4).as_secs_f64();
        slot[TOTAL] = (t5 - t0).as_secs_f64();
        times.extend_from_slice(&slot);
        if scenario.policy == Policy::ThermalAware {
            inquiries.push((floorplan.clone(), evaluation.per_pe_power.clone()));
        }
        if let Some(spans) = spans.as_deref_mut() {
            // The executor's span names (`scheduling`, `thermal`,
            // `floorplan`, `grid` under a `scenario` carrying the axis
            // attributes), so `tats trace` totals them as it does a
            // worker's; `layer` names the benchmark's metric.
            let scenario_span = spans.push(
                root,
                "scenario",
                KIND,
                (spans.at(t0), spans.at(t5)),
                &[
                    ("key", record.key.clone()),
                    ("benchmark", record.benchmark.clone()),
                    ("flow", record.flow.clone()),
                    ("policy", record.policy.clone()),
                    ("seed", record.seed.to_string()),
                ],
            );
            let (t0_us, t1_us, t2_us) = (spans.at(t0), spans.at(t1), spans.at(t2));
            let (t3_us, t4_us, t5_us) = (spans.at(t3), spans.at(t4), spans.at(t5));
            let mut child = |name: &str, layer: &str, from: u64, to: u64| {
                let attrs = [("layer", layer.to_string())];
                spans.push(Some(scenario_span), name, KIND, (from, to), &attrs);
            };
            child("task_graph", "taskgraph.graph_us", t0_us, t1_us);
            // Phase durations carry no timestamps: lay them out in
            // execution order from the flow start, as the executor does.
            let mut cursor = t1_us;
            for (name, layer, duration) in [
                ("floorplan", "floorplan.ga_us", phases.floorplan),
                ("scheduling", "core.asp.schedule_us", phases.scheduling),
                ("thermal", "core.thermal_us", phases.thermal),
            ] {
                if duration > Duration::ZERO {
                    let end = cursor + duration.as_micros() as u64;
                    child(name, layer, cursor, end);
                    cursor = end;
                }
            }
            if scenario.solver.is_some() {
                child("grid", "sparse.grid_us", t2_us, t3_us);
            }
            child("encode", "trace.encode_us", t4_us, t5_us);
        }
        records.push(record);
    }
    black_box(jsonl);
    if let (Some(spans), Some(root)) = (spans, root) {
        spans.close(root, spans.at(Instant::now()));
    }
    let thermal = thermal_cache.stats();
    let traced = Traced {
        times,
        wall: start.elapsed().as_secs_f64(),
        model_builds: thermal.misses,
        model_lookups: thermal.hits + thermal.misses,
        factorizations: grid_cache.stats().misses,
    };
    Ok((records, traced, inquiries))
}

/// Nanoseconds per `ThermalModel::steady_state` inquiry over the thermal
/// schedules' power vectors, on models from a geometry-keyed cache: the
/// fastest of several timed sweeps.
fn inquiry_ns(campaign: &Campaign, inquiries: &[Inquiry]) -> Result<f64, Error> {
    if inquiries.is_empty() {
        return Ok(0.0);
    }
    let config = campaign.experiment().thermal_config;
    let mut cache = ThermalModelCache::new();
    let models: Vec<(Arc<ThermalModel>, &[f64])> = inquiries
        .iter()
        .map(|(floorplan, power)| Ok((cache.get_or_build(floorplan, config)?, power.as_slice())))
        .collect::<Result<_, Error>>()?;
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let start = Instant::now();
        for (model, power) in &models {
            black_box(model.steady_state(black_box(power))?);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / models.len() as f64);
    }
    Ok(best)
}

pub fn run(args: &Args, workload: Workload) -> Result<Outcome, Error> {
    let mut outcome = Outcome::default();

    let campaign = workload.campaign(args.seed);
    let scenarios = campaign.scenarios();
    let n = scenarios.len();
    println!(
        "{}: {n} scenarios per pass (seed axis {:?})",
        workload.name(),
        campaign.seeds()
    );

    // The reference run: the whole campaign through one `Executor::run`,
    // as `tats batch --threads 1 --out` runs it. Its records are what every
    // later pass and replay must reproduce, its output is what the restarts
    // resume, and the process peak after it is the peak of a process that
    // ran the campaign once.
    let reference = untraced_pass(&campaign, &scenarios)?;
    let peak_rss = peak_rss_mb();
    let out_path = bench_dir("work")?.join(format!("{}.jsonl", workload.name()));
    std::fs::write(&out_path, &reference.jsonl)?;

    // Measurement: executor passes alternating with replays that time each
    // scenario and layer from outside. The shared core runs identical
    // passes up to 1.7x apart, and a slowdown only ever adds: pass walls,
    // layer totals and every replayed scenario keep their fastest time over
    // the run.
    let mut setup = Vec::new();
    let mut restart = Vec::new();
    let mut walls = Vec::new();
    let mut kernel = Vec::new();
    let mut replay_walls = Vec::new();
    let mut layer_passes: Vec<Vec<f64>> = Vec::new();
    let mut fastest = Vec::new();
    let mut counters = (0, 0, 0);
    let mut span_log: Option<Spans> = None;
    let mut inquiries = Vec::new();
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed() < args.seconds {
        let pass = untraced_pass(&campaign, &scenarios)?;
        walls.push(pass.wall_s);
        let differ = differing(&reference.records, &pass.records);
        outcome.ledger.check(n as u64, differ, || {
            format!("{differ} records differ between executor passes")
        });
        let mut spans = (args.trace && span_log.is_none()).then(|| Spans::new(args.seed));
        let (records, traced, pass_inquiries) = traced_pass(&campaign, &scenarios, spans.as_mut())?;
        let differ = differing(&reference.records, &records);
        outcome.ledger.check(n as u64, differ, || {
            format!("{differ} traced-replay records differ from the executor's")
        });
        if spans.is_some() {
            span_log = spans;
            inquiries = pass_inquiries;
        }
        let totals: Vec<f64> = traced.times.chunks(SLOTS).map(|t| t[TOTAL]).collect();
        fold_min(&mut fastest, &totals);
        layer_passes.push(
            LAYERS
                .iter()
                .map(|layer| layer_us(&scenarios, &traced.times, layer))
                .collect(),
        );
        replay_walls.push(traced.wall);
        counters = (
            traced.model_builds,
            traced.model_lookups,
            traced.factorizations,
        );

        kernel.push(kernel_median(KERNEL_RUNS));
        // Set-up: library and campaign build.
        setup.push(burst_median(SETUP_BURST, || {
            let start = Instant::now();
            let campaign = workload.campaign(args.seed);
            black_box(campaign.scenarios());
            black_box(campaign.experiment().library()?);
            Ok(start.elapsed().as_secs_f64())
        })?);
        // Restart: resume the finished campaign from its JSONL output, as
        // `tats batch --resume` does.
        restart.push(burst_median(RESTART_BURST, || {
            let start = Instant::now();
            let file = std::fs::File::open(&out_path)?;
            let done = tats_trace::jsonl::completed_ids(BufReader::new(file))?;
            let run = Executor::new(1).run(&campaign, &scenarios, &done, |_| Ok(()))?;
            let elapsed = start.elapsed().as_secs_f64();
            let wrong = u64::from(run.report.skipped != n || run.report.completed != 0);
            outcome.ledger.check(1, wrong, || {
                format!(
                    "resume skipped {} and re-ran {} of {n} scenarios",
                    run.report.skipped, run.report.completed
                )
            });
            Ok(elapsed)
        })?);
    }
    std::fs::remove_file(&out_path)?;
    let window = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_start;

    // Correctness: every replay above reproduced the executor's records;
    // the default seed must also reproduce the golden set.
    if args.bless {
        let path = golden::bless(workload.name(), &reference.records)?;
        println!("blessed {}", path.display());
    } else if args.seed == golden::DEFAULT_SEED {
        let bad = golden::mismatches(workload.name(), &reference.records)?;
        outcome.ledger.check(n as u64, bad, || {
            format!("{bad} records differ from the golden set")
        });
    }

    let best_wall = min(&walls);
    let scenario_ms: Vec<f64> = fastest.iter().map(|t| t * 1e3).collect();
    let tail = tail_quantile(n);
    // End-to-end times are scaled to the reference core by the fastest
    // kernel median, the kernel's counterpart of the fastest pass.
    let scale = KERNEL_REF_S / min(&kernel);
    println!("{} passes; cpu {cpu:.3} s over {window:.3} s", walls.len());
    println!(
        "{}; core speed {scale:.4} of the reference",
        spread_line("kernel", &kernel, 1e6, "µs")
    );
    println!("{}", spread_line("pass wall", &walls, 1e3, "ms"));
    println!(
        "fastest pass wall {:.3} ms (fastest replayed scenarios sum to {:.3} ms); scenario latency: {n} \
         scenarios, tail = p{}",
        best_wall * 1e3,
        scenario_ms.iter().sum::<f64>(),
        tail * 100.0
    );
    if !args.trace {
        outcome.set("setup_s", min(&setup) * scale);
        outcome.set("scenarios_per_s", n as f64 / (best_wall * scale));
        outcome.set("latency_p50_ms", quantile(&scenario_ms, 0.5) * scale);
        outcome.set("latency_tail_ms", quantile(&scenario_ms, tail) * scale);
        outcome.set("restart_s", min(&restart) * scale);
        outcome.set("peak_rss_mb", peak_rss);
        return Ok(outcome);
    }

    let rows: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .enumerate()
        .map(|(index, layer)| {
            let values: Vec<f64> = layer_passes.iter().map(|pass| pass[index]).collect();
            (layer.0, min(&values))
        })
        .collect();
    let wall_us = best_wall * 1e6 / n as f64;
    let traced_wall_us = min(&replay_walls) * 1e6 / n as f64;
    let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
    let unattributed_pct = 100.0 * (wall_us - attributed) / wall_us;

    println!(
        "\nper-layer budget, {} (µs per scenario, executor wall {wall_us:.2} µs):",
        workload.name()
    );
    for (name, value) in &rows {
        println!(
            "  {name:<32} {value:>10.2}  {:>6.1} %",
            100.0 * value / wall_us
        );
    }
    println!(
        "  {:<32} {:>10.2}  {unattributed_pct:>6.1} %",
        "unattributed",
        wall_us - attributed
    );
    let largest = rows
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |(name, _)| name);
    println!("  largest layer: {largest}");
    if let Some(spans) = &span_log {
        let path = spans.write(workload.name())?;
        println!(
            "  spans: {} ({} events)",
            path.display(),
            spans.events.len()
        );
    }

    outcome.set("engine.wall_us", wall_us);
    for (name, value) in rows {
        outcome.set(name, value);
    }
    outcome.set("thermal.inquiry_ns", inquiry_ns(&campaign, &inquiries)?);
    let (model_builds, model_lookups, factorizations) = counters;
    outcome.set("thermal.model_builds", model_builds as f64);
    outcome.set(
        "thermal.cache_hit_ratio",
        (model_lookups - model_builds) as f64 / model_lookups.max(1) as f64,
    );
    outcome.set("sparse.factorizations", factorizations as f64);
    outcome.set("engine.unattributed_pct", unattributed_pct);
    outcome.set("bench.cpu_util", cpu / window);
    outcome.set("bench.kernel_us", min(&kernel) * 1e6);
    outcome.set(
        "bench.trace_overhead_pct",
        100.0 * (traced_wall_us / wall_us - 1.0),
    );
    Ok(outcome)
}

fn differing(want: &[ScenarioRecord], got: &[ScenarioRecord]) -> u64 {
    let differ = want.iter().zip(got).filter(|(a, b)| a != b).count();
    (differ + want.len().abs_diff(got.len())) as u64
}
