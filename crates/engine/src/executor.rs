//! The campaign executor: a worker pool with per-worker thermal caches and
//! streamed results.
//!
//! The unit of work is a *group*: the pending scenarios that share
//! (benchmark, flow, solver, seed) and differ only in policy. A group
//! generates its task graph once; on co-synthesis it also allocates,
//! prunes and computes the area-only floorplan once for all its policies
//! ([`CoSynthesis::run_policies_with_cache_timed`]). A run cuts the
//! (shard's) pending scenarios into groups once, builds the technology
//! library once and lends it to every worker. Groups are independent, so
//! workers claim whole groups from a shared atomic cursor: idle workers
//! take the next group, and heavy groups never block light ones behind a
//! static partition. Every worker owns its caches — a [`ThermalModelCache`]
//! for block-model factorisations and a grid-model cache for fine-grid
//! validation — keyed by floorplan geometry, so thermal sessions and grid
//! models with their per-block responses are *reused across scenarios*
//! instead of rebuilt per run. The channel to the caller's thread carries
//! outcomes only; the caller hands them to the sink in scenario-id order
//! (streaming JSONL): a record waits there only until every lower pending
//! id is handed on. Each worker returns its cache counters when the caller
//! joins it, and they are merged into the final report.
//!
//! Every scenario evaluation is deterministic and isolated, so the sink
//! sees the same records in the same order at any thread count, and any
//! sharding or resume schedule produces the same record set (pinned by the
//! shard-invariance tests).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tats_core::{
    CacheStats, CoSynthesis, CoreError, FifoCache, FlowPhases, FlowResult, PlatformFlow, Policy,
    ThermalModelCache,
};
use tats_taskgraph::TaskGraph;
use tats_techlib::TechLibrary;
use tats_thermal::{Floorplan, GridModel, GridSolver};
use tats_trace::metrics::{Counter, Histogram};
use tats_trace::spans::{self, SpanEvent, SpanIdGen, SpanKind};
use tats_trace::{JsonValue, MetricsRegistry};

use crate::error::EngineError;
use crate::scenario::{policy_slug, Campaign, FlowKind, Scenario};

/// The streamed result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Scenario id (index in the campaign's stable enumeration).
    pub id: u64,
    /// Stable scenario key (`Bm1/platform/thermal/s0`).
    pub key: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Design flow name.
    pub flow: String,
    /// Policy slug.
    pub policy: String,
    /// Seed axis value.
    pub seed: u64,
    /// Grid-validation solver name, when that axis is set.
    pub solver: Option<String>,
    /// "Total Pow." — sum of per-PE sustained powers, watts.
    pub total_power: f64,
    /// "Max Temp." — peak steady-state block temperature, °C.
    pub max_temp_c: f64,
    /// "Avg Temp." — mean steady-state block temperature, °C.
    pub avg_temp_c: f64,
    /// Schedule makespan, schedule time units.
    pub makespan: f64,
    /// Whether the schedule met the benchmark deadline.
    pub meets_deadline: bool,
    /// Total energy of the schedule (sum of per-assignment energies).
    pub energy: f64,
    /// Hottest fine-grid cell, °C — only for grid-validation scenarios.
    pub grid_max_temp_c: Option<f64>,
}

impl ScenarioRecord {
    /// Serialises the record as one JSONL object. Keys come out sorted (the
    /// writer's object model is a `BTreeMap`), so the literal `"id":` the
    /// resume scanner looks for appears exactly once, at the top level.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("id".to_string(), JsonValue::from(self.id as usize)),
            ("key".to_string(), JsonValue::from(self.key.as_str())),
            (
                "benchmark".to_string(),
                JsonValue::from(self.benchmark.as_str()),
            ),
            ("flow".to_string(), JsonValue::from(self.flow.as_str())),
            ("policy".to_string(), JsonValue::from(self.policy.as_str())),
            ("seed".to_string(), JsonValue::from(self.seed as usize)),
            ("total_power".to_string(), JsonValue::from(self.total_power)),
            ("max_temp_c".to_string(), JsonValue::from(self.max_temp_c)),
            ("avg_temp_c".to_string(), JsonValue::from(self.avg_temp_c)),
            ("makespan".to_string(), JsonValue::from(self.makespan)),
            (
                "meets_deadline".to_string(),
                JsonValue::from(self.meets_deadline),
            ),
            ("energy".to_string(), JsonValue::from(self.energy)),
        ];
        if let Some(solver) = &self.solver {
            pairs.push(("solver".to_string(), JsonValue::from(solver.as_str())));
        }
        if let Some(grid_max) = self.grid_max_temp_c {
            pairs.push(("grid_max_temp_c".to_string(), JsonValue::from(grid_max)));
        }
        JsonValue::object(pairs)
    }

    /// Deserialises a record from the object form [`Self::to_json`] emits —
    /// the inverse the campaign service needs to aggregate worker-streamed
    /// JSONL lines into a [`Summary`](crate::Summary) server-side.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] naming the missing or
    /// mistyped field.
    pub fn from_json(value: &JsonValue) -> Result<ScenarioRecord, EngineError> {
        let invalid =
            |message: String| EngineError::InvalidParameter(format!("scenario record: {message}"));
        Ok(ScenarioRecord {
            id: value.field_u64("id").map_err(invalid)?,
            key: value.field_str("key").map_err(invalid)?.to_string(),
            benchmark: value.field_str("benchmark").map_err(invalid)?.to_string(),
            flow: value.field_str("flow").map_err(invalid)?.to_string(),
            policy: value.field_str("policy").map_err(invalid)?.to_string(),
            seed: value.field_u64("seed").map_err(invalid)?,
            solver: value
                .get("solver")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            total_power: value.field_f64("total_power").map_err(invalid)?,
            max_temp_c: value.field_f64("max_temp_c").map_err(invalid)?,
            avg_temp_c: value.field_f64("avg_temp_c").map_err(invalid)?,
            makespan: value.field_f64("makespan").map_err(invalid)?,
            meets_deadline: value.field_bool("meets_deadline").map_err(invalid)?,
            energy: value.field_f64("energy").map_err(invalid)?,
            grid_max_temp_c: value.get("grid_max_temp_c").and_then(JsonValue::as_f64),
        })
    }
}

/// Executor-level statistics of one campaign run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// Scenarios evaluated in this run (excluding skipped ones).
    pub completed: usize,
    /// Scenarios skipped because their id was in the resume set.
    pub skipped: usize,
    /// Worker threads started: at most one per pending group (the pending
    /// scenarios that share benchmark, flow, solver and seed), so 0 when
    /// every scenario was skipped. `--benchmarks Bm1 --policies
    /// baseline,thermal --threads 2` starts one.
    pub threads: usize,
    /// Wall time of the executor, seconds.
    pub wall_s: f64,
    /// Merged per-worker cache counters (block models and grid models).
    pub cache: CacheStats,
}

impl BatchReport {
    /// Campaign throughput of this run.
    pub fn scenarios_per_sec(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-12)
    }
}

/// A completed campaign run: the records (sorted by scenario id) plus the
/// executor report.
#[derive(Debug)]
pub struct BatchRun {
    /// All records of this run, in scenario-id order: the order the sink
    /// saw them in.
    pub records: Vec<ScenarioRecord>,
    /// Executor statistics.
    pub report: BatchReport,
}

/// Per-worker cache bundle: block-model factorisations plus grid models,
/// both keyed by the exact-bits `(floorplan, config)` material from
/// [`tats_core::geometry_config_bits`]. Building a grid model (its per-block
/// responses) costs about 30 of its queries at 32×32, so a geometry that
/// recurs is worth keeping. The grid side is a FIFO-bounded [`FifoCache`]
/// like the thermal side, because co-synthesis campaigns can produce a
/// distinct floorplan per scenario and a 128×128 model is megabytes.
struct WorkerCaches {
    thermal: ThermalModelCache,
    grid: FifoCache<GridKey, GridModel>,
}

/// Distinct grid models per worker kept alive at once.
const GRID_CACHE_CAPACITY: usize = 16;

/// A grid model's cache key: the floorplan geometry and thermal
/// configuration bits, then the resolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GridKey {
    geometry: Vec<u64>,
    nx: usize,
    ny: usize,
}

impl WorkerCaches {
    fn new() -> Self {
        WorkerCaches {
            thermal: ThermalModelCache::new(),
            grid: FifoCache::with_capacity(GRID_CACHE_CAPACITY),
        }
    }

    /// The grid model for this geometry and resolution, built on miss
    /// (evicting the oldest entry when the bound is hit).
    fn grid_model(
        &mut self,
        floorplan: &Floorplan,
        campaign: &Campaign,
    ) -> Result<&GridModel, EngineError> {
        let (nx, ny) = campaign.grid_resolution();
        let config = campaign.experiment().thermal_config;
        let key = GridKey {
            geometry: tats_core::geometry_config_bits(floorplan, &config),
            nx,
            ny,
        };
        self.grid
            .get_or_try_insert_with(key, || GridModel::new(floorplan, config, nx, ny))
            .map_err(EngineError::from)
    }

    fn stats(&self) -> CacheStats {
        let mut merged = self.thermal.stats();
        merged.merge(self.grid.stats());
        merged
    }
}

/// The engine's phases, in the order a scenario's phase spans and the
/// `engine_phase_seconds` histograms list them: the flow's scheduling and
/// thermal evaluation, floorplanning (co-synthesis only), then grid
/// validation (only with a grid solver).
pub const PHASES: [&str; 4] = ["scheduling", "thermal", "floorplan", "grid"];

/// Pre-registered metric handles for the executor's hot path: looked up once
/// per run, recorded with pure atomics from every worker thread. Phase
/// histograms come from the flows' `*_timed` entry points, so `/metrics`
/// reports the same phase split a profiler would see.
struct EngineMetrics {
    scenario_seconds: Arc<Histogram>,
    /// One `engine_phase_seconds` histogram per entry of [`PHASES`].
    phase_seconds: [Arc<Histogram>; PHASES.len()],
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Grid-model builds: one per grid-model cache miss — the expensive
    /// rebuild a diverging cache hit-rate turns into.
    grid_model_builds: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            scenario_seconds: registry.histogram("engine_scenario_seconds", &[]),
            phase_seconds: PHASES
                .map(|phase| registry.histogram("engine_phase_seconds", &[("phase", phase)])),
            completed: registry.counter("engine_scenarios_completed_total", &[]),
            failed: registry.counter("engine_scenarios_failed_total", &[]),
            cache_hits: registry.counter("engine_cache_hits_total", &[]),
            cache_misses: registry.counter("engine_cache_misses_total", &[]),
            grid_model_builds: registry.counter("engine_grid_model_builds_total", &[]),
        }
    }
}

/// The distributed-tracing context a service worker threads through the
/// executor: when set (see [`Executor::with_trace`]), every scenario emits
/// a span tree — a `scenario` span under `parent_span`, with one child per
/// entry of [`PHASES`] that the scenario ran, in that order — delivered
/// alongside its record through [`Executor::run_traced`]'s sink.
///
/// Span ids are derived statelessly from `(trace_id, scenario id, phase)`
/// via [`SpanIdGen::derive`], so the tree's ids do not depend on thread
/// interleaving and a scenario re-run after a crash reproduces them
/// exactly (the server's span stream dedups on span id).
///
/// The work a group shares gets no span kind of its own; its members carry
/// it. The group's first pending scenario carries the task graph's
/// generation in its `scenario` span and, on co-synthesis, allocation and
/// pruning in its `scheduling` phase. The first policy without a thermal
/// model carries the shared area-only floorplan in its `floorplan` phase.
/// A scenario span lasts as long as its measured parts, and a group's
/// scenario spans are laid end to end from the group's start, so they nest
/// in the shard span. `engine_scenario_seconds` records the same
/// durations, one sample per record.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// Campaign-wide trace id stamped on every span.
    pub trace_id: u64,
    /// Parent of the per-scenario spans (the worker's shard span).
    pub parent_span: u64,
    /// Worker name, stamped as the `worker` attribute (one Chrome-trace
    /// track per worker).
    pub worker: String,
}

impl TraceContext {
    /// The deterministic span-id seed of one scenario of this trace.
    fn scenario_seed(&self, scenario_id: u64) -> u64 {
        self.trace_id ^ scenario_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Whether two scenarios belong to one group: they differ at most in
/// policy, so they share the task graph and, on co-synthesis, the
/// architecture.
fn same_group(a: &Scenario, b: &Scenario) -> bool {
    a.benchmark == b.benchmark && a.flow == b.flow && a.solver == b.solver && a.seed == b.seed
}

/// One pending scenario's outcome: its record and span tree, or the error
/// that stops the run.
type Outcome = Result<(ScenarioRecord, Vec<SpanEvent>), EngineError>;

/// One worker's state: the campaign, the library the run lends it, its
/// caches, and the run's metrics and trace context.
struct Worker<'a> {
    campaign: &'a Campaign,
    library: &'a TechLibrary,
    caches: WorkerCaches,
    metrics: Option<&'a EngineMetrics>,
    trace: Option<&'a TraceContext>,
}

impl Worker<'_> {
    /// Claims whole groups from the shared `cursor` until none is left or
    /// the caller stops listening, and sends each member's outcome with its
    /// position in `todo`. Returns the worker's cache counters.
    fn serve(
        mut self,
        todo: &[&Scenario],
        groups: &[&[usize]],
        cursor: &AtomicUsize,
        outcomes: mpsc::Sender<(usize, Box<Outcome>)>,
    ) -> CacheStats {
        while let Some(positions) = groups.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let group: Vec<&Scenario> = positions.iter().map(|&i| todo[i]).collect();
            let sent = positions
                .iter()
                .zip(self.run_group(&group))
                .all(|(&i, outcome)| outcomes.send((i, Box::new(outcome))).is_ok());
            if !sent {
                break;
            }
        }
        self.caches.stats()
    }

    /// Evaluates one group: its task graph once, then every member's flow,
    /// grid validation, record and span tree. Returns the members'
    /// outcomes in member order; an error of the shared graph or
    /// allocation is every member's.
    fn run_group(&mut self, group: &[&Scenario]) -> Vec<Outcome> {
        let mut cursor_us = self.trace.map_or(0, |_| spans::now_us());
        let clock = Instant::now();
        let graph = match group[0].task_graph() {
            Ok(graph) => graph,
            Err(error) => {
                let message = error.to_string();
                return group
                    .iter()
                    .map(|scenario| {
                        self.count(false);
                        Err(EngineError::Scenario {
                            key: scenario.key(),
                            message: message.clone(),
                        })
                    })
                    .collect();
            }
        };
        let mut graph_time = clock.elapsed();
        let flows = self.run_flows(group, &graph);
        group
            .iter()
            .zip(flows)
            .map(|(scenario, flow)| {
                let graph_time = std::mem::take(&mut graph_time);
                let outcome = flow.map_err(EngineError::from).and_then(|flow| {
                    self.finish_scenario(scenario, flow, graph_time, &mut cursor_us)
                });
                self.count(outcome.is_ok());
                outcome.map_err(|error| error.in_scenario(&scenario.key()))
            })
            .collect()
    }

    /// Runs the group's flow for every member's policy: the platform flow
    /// once per policy, co-synthesis once for all of them.
    fn run_flows(
        &mut self,
        group: &[&Scenario],
        graph: &TaskGraph,
    ) -> Vec<Result<(FlowResult, FlowPhases), CoreError>> {
        let experiment = self.campaign.experiment();
        let cache = &mut self.caches.thermal;
        match group[0].flow {
            FlowKind::Platform => match PlatformFlow::new(self.library) {
                Ok(flow) => {
                    let flow = flow.with_thermal_config(experiment.thermal_config);
                    group
                        .iter()
                        .map(|scenario| flow.run_with_cache_timed(graph, scenario.policy, cache))
                        .collect()
                }
                Err(error) => vec![Err(error); group.len()],
            },
            FlowKind::CoSynthesis => {
                let policies: Vec<Policy> = group.iter().map(|scenario| scenario.policy).collect();
                CoSynthesis::new(self.library)
                    .with_max_pes(experiment.max_pes)
                    .with_thermal_config(experiment.thermal_config)
                    .with_floorplan_ga(experiment.floorplan_ga)
                    .run_policies_with_cache_timed(graph, &policies, cache)
            }
        }
    }

    /// Grid-validates one member's flow result, records its metrics and
    /// builds its record and span tree. Its spans start at `cursor_us`,
    /// which then moves past them; `graph_time` is the share of the group's
    /// task graph this member carries.
    fn finish_scenario(
        &mut self,
        scenario: &Scenario,
        (flow, phases): (FlowResult, FlowPhases),
        graph_time: Duration,
        cursor_us: &mut u64,
    ) -> Result<(ScenarioRecord, Vec<SpanEvent>), EngineError> {
        let FlowResult {
            floorplan,
            schedule,
            evaluation,
            ..
        } = flow;
        let grid_clock = Instant::now();
        let grid_max_temp_c = match scenario.solver {
            None => None,
            Some(_) => {
                let misses_before = self.caches.grid.stats().misses;
                let max_c = {
                    let model = self.caches.grid_model(&floorplan, self.campaign)?;
                    let mut workspace = model.workspace();
                    model
                        .steady_state_with(&evaluation.per_pe_power, &mut workspace)?
                        .max_c()
                };
                if self.caches.grid.stats().misses > misses_before {
                    if let Some(metrics) = self.metrics {
                        metrics.grid_model_builds.inc();
                    }
                }
                Some(max_c)
            }
        };
        let grid_time = grid_clock.elapsed();

        // The phases this scenario ran, as `(phase, time)` in `PHASES`
        // order: floorplanning only on co-synthesis, grid validation only
        // with a grid solver. The histograms and the phase spans both read
        // this one list.
        let measured = PHASES.into_iter().zip([
            Some(phases.scheduling),
            Some(phases.thermal),
            (scenario.flow == FlowKind::CoSynthesis).then_some(phases.floorplan),
            scenario.solver.map(|_| grid_time),
        ]);
        let ran = measured
            .clone()
            .filter_map(|(phase, time)| Some((phase, time?)));
        if let Some(metrics) = self.metrics {
            for ((_, time), histogram) in measured.zip(&metrics.phase_seconds) {
                if let Some(time) = time {
                    histogram.record_duration(time);
                }
            }
            metrics
                .scenario_seconds
                .record_duration(graph_time + ran.clone().map(|(_, time)| time).sum::<Duration>());
        }

        let mut span_events = Vec::new();
        if let Some(trace) = self.trace {
            let micros = |duration: Duration| duration.as_micros() as u64;
            // Phase children laid out one after another past the task
            // graph: exact measured durations, whose sum with the graph's is
            // the scenario span's length, so nesting holds.
            let start_us = *cursor_us;
            let mut cursor = start_us + micros(graph_time);
            let end_us = cursor + ran.clone().map(|(_, time)| micros(time)).sum::<u64>();
            *cursor_us = end_us;
            let seed = trace.scenario_seed(scenario.id);
            let scenario_span = SpanIdGen::derive(seed, "scenario");
            let stamp = |span: SpanEvent| span.attr("worker", trace.worker.as_str());
            span_events.push(stamp(
                SpanEvent::new(
                    trace.trace_id,
                    scenario_span,
                    Some(trace.parent_span),
                    "scenario",
                    SpanKind::Worker,
                    start_us,
                    end_us,
                )
                .attr("key", scenario.key())
                .attr("benchmark", scenario.benchmark.name())
                .attr("flow", scenario.flow.name())
                .attr("policy", policy_slug(scenario.policy))
                .attr("seed", scenario.seed.to_string()),
            ));
            let [.., grid] = PHASES;
            for (name, time) in ran {
                let duration_us = micros(time);
                let mut span = SpanEvent::new(
                    trace.trace_id,
                    SpanIdGen::derive(seed, name),
                    Some(scenario_span),
                    name,
                    SpanKind::Worker,
                    cursor,
                    cursor + duration_us,
                );
                if let Some(solver) = scenario.solver.filter(|_| name == grid) {
                    span = span.attr("solver", solver.name());
                }
                span_events.push(stamp(span));
                cursor += duration_us;
            }
        }

        let energy: f64 = schedule.assignments().iter().map(|a| a.energy()).sum();
        Ok((
            ScenarioRecord {
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
            },
            span_events,
        ))
    }

    /// Counts one evaluated scenario as completed or failed.
    fn count(&self, completed: bool) {
        if let Some(metrics) = self.metrics {
            if completed {
                metrics.completed.inc();
            } else {
                metrics.failed.inc();
            }
        }
    }
}

/// Hands the workers' outcomes to `sink` in position order, each as soon
/// as every lower position has been handed on, and returns the records.
/// The first error in that order, a scenario's or the sink's, stops the
/// release: records already handed on stay valid resume input, and
/// returning drops the receiver, so every worker's next send fails and it
/// exits.
fn release<E: From<EngineError>>(
    outcomes: mpsc::Receiver<(usize, Box<Outcome>)>,
    pending: usize,
    mut sink: impl FnMut(&ScenarioRecord, &[SpanEvent]) -> Result<(), E>,
) -> Result<Vec<ScenarioRecord>, E> {
    let mut slots: Vec<Option<Box<Outcome>>> = Vec::new();
    slots.resize_with(pending, || None);
    let mut records = Vec::with_capacity(pending);
    for (position, outcome) in outcomes {
        slots[position] = Some(outcome);
        while let Some(outcome) = slots.get_mut(records.len()).and_then(Option::take) {
            let (record, span_events) = (*outcome)?;
            sink(&record, &span_events)?;
            records.push(record);
        }
    }
    Ok(records)
}

/// The campaign worker pool.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<TraceContext>,
}

impl Executor {
    /// Creates an executor with the given worker count; `0` selects the
    /// machine's available parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        Executor {
            threads,
            metrics: None,
            trace: None,
        }
    }

    /// Streams per-scenario phase spans, throughput counters and the merged
    /// cache counters into `registry` (series prefixed `engine_`). The cache
    /// counters added there are the same values [`BatchReport::cache`]
    /// reports, so `/metrics` and the batch report agree by construction.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Emits a deterministic span tree per scenario (see [`TraceContext`]),
    /// delivered with each record through [`Executor::run_traced`]'s sink.
    /// Without this, `run_traced` hands every sink call an empty span
    /// slice and tracing costs nothing on the scenario hot path.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Runs the given scenarios of a campaign, skipping ids in `skip` (the
    /// resume set) and handing each completed record to `sink` in
    /// scenario-id order, each as soon as every lower pending id has been
    /// handed on. Returns all records sorted by scenario id plus the
    /// executor report.
    ///
    /// # Errors
    ///
    /// Returns the first [`EngineError`] in that order — the technology
    /// library's, a scenario's when its turn comes, or the sink's — and
    /// stops the remaining work (in-flight groups finish, their sends fail,
    /// the workers exit). Records already handed to the sink stay on disk
    /// and remain valid `--resume` input.
    pub fn run<F>(
        &self,
        campaign: &Campaign,
        scenarios: &[Scenario],
        skip: &BTreeSet<u64>,
        mut sink: F,
    ) -> Result<BatchRun, EngineError>
    where
        F: FnMut(&ScenarioRecord) -> Result<(), EngineError>,
    {
        self.run_traced(campaign, scenarios, skip, |record, _spans| sink(record))
    }

    /// Like [`Executor::run`], but the sink also receives each scenario's
    /// completed span tree (empty unless [`Executor::with_trace`] is set) —
    /// how a service worker piggybacks span batches on record posts — and
    /// may fail with its caller's own error type `E`.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`]: the first failure in id order, as an `E`. The
    /// sink's error is returned as it is; the library's and a scenario's
    /// [`EngineError`] are converted with `E::from`.
    pub fn run_traced<F, E>(
        &self,
        campaign: &Campaign,
        scenarios: &[Scenario],
        skip: &BTreeSet<u64>,
        mut sink: F,
    ) -> Result<BatchRun, E>
    where
        F: FnMut(&ScenarioRecord, &[SpanEvent]) -> Result<(), E>,
        E: From<EngineError>,
    {
        let mut todo: Vec<&Scenario> = scenarios.iter().filter(|s| !skip.contains(&s.id)).collect();
        todo.sort_by_key(|s| s.id);
        let skipped = scenarios.len() - todo.len();
        // The groups of `todo`'s positions: each group's members in id
        // order, groups ordered by their first member, so the lowest
        // pending ids are computed first.
        let mut order: Vec<usize> = (0..todo.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let s = todo[i];
            let solver = s.solver.as_ref().map(GridSolver::name);
            (s.benchmark.name(), s.flow.name(), solver, s.seed, i)
        });
        let mut groups: Vec<&[usize]> = order
            .chunk_by(|&a, &b| same_group(todo[a], todo[b]))
            .collect();
        groups.sort_unstable_by_key(|group| group[0]);

        let start = Instant::now();
        // Nothing pending (a resume of a finished file, a re-leased shard
        // whose records all arrived) builds no library and starts no worker.
        let library = if groups.is_empty() {
            None
        } else {
            Some(campaign.experiment().library().map_err(EngineError::from)?)
        };
        let workers = self.threads.min(groups.len());
        let cursor = AtomicUsize::new(0);
        let metrics = self.metrics.as_deref().map(EngineMetrics::new);
        let (tx, rx) = mpsc::channel();

        let (released, cache) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            if let Some(library) = &library {
                for _ in 0..workers {
                    let worker = Worker {
                        campaign,
                        library,
                        caches: WorkerCaches::new(),
                        metrics: metrics.as_ref(),
                        trace: self.trace.as_ref(),
                    };
                    let (todo, groups, cursor, tx) = (&todo, &groups, &cursor, tx.clone());
                    handles.push(scope.spawn(move || worker.serve(todo, groups, cursor, tx)));
                }
            }
            drop(tx);
            // The release runs on the caller's thread, so the sink (a JSONL
            // file, a summary accumulator) needs no synchronisation.
            let released = release(rx, todo.len(), &mut sink);
            let mut cache = CacheStats::default();
            for handle in handles {
                cache.merge(handle.join().expect("an executor worker panicked"));
            }
            (released, cache)
        });

        let records = released?;
        if let Some(metrics) = &metrics {
            metrics.cache_hits.add(cache.hits);
            metrics.cache_misses.add(cache.misses);
        }
        Ok(BatchRun {
            records,
            report: BatchReport {
                completed: todo.len(),
                skipped,
                threads: workers,
                wall_s: start.elapsed().as_secs_f64(),
                cache,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Shard;
    use tats_core::Policy;
    use tats_taskgraph::Benchmark;
    use tats_thermal::GridSolver;

    fn tiny_campaign() -> Campaign {
        Campaign::default()
            .with_benchmarks(vec![Benchmark::Bm1])
            .with_policies(vec![Policy::Baseline, Policy::ThermalAware])
    }

    #[test]
    fn thread_count_does_not_change_the_result_set() {
        // One group per seed, so three threads run three groups at once.
        let campaign = tiny_campaign().with_seeds(vec![0, 1, 2]);
        let scenarios = campaign.scenarios();
        let skip = BTreeSet::new();
        let run = |threads: usize| {
            let mut calls = Vec::new();
            let run = Executor::new(threads)
                .run(&campaign, &scenarios, &skip, |record| {
                    calls.push(record.clone());
                    Ok(())
                })
                .unwrap();
            (run, calls)
        };
        let (serial, serial_calls) = run(1);
        let (threaded, threaded_calls) = run(3);
        assert_eq!(threaded.report.threads, 3);
        assert_eq!(serial.records, threaded.records);
        // The sink sees the same records in the same order: id order.
        assert_eq!(serial_calls, threaded_calls);
        assert_eq!(serial_calls, serial.records);
        assert_eq!(serial.report.completed, 6);
        assert!(serial.report.scenarios_per_sec() > 0.0);
    }

    #[test]
    fn a_failing_scenario_stops_the_run_when_its_turn_comes() {
        // Bm1 at seed 322 has no co-synthesis architecture that meets the
        // deadline. Its group's ids interleave with seed 1's, so the sink
        // gets id 0 (baseline at seed 1) and the run stops at id 1, at any
        // thread count.
        let campaign = Campaign::default()
            .with_benchmarks(vec![Benchmark::Bm1])
            .with_flows(vec![FlowKind::CoSynthesis])
            .with_seeds(vec![1, 322]);
        let scenarios = campaign.scenarios();
        for threads in [1, 2] {
            let mut streamed = Vec::new();
            let error = Executor::new(threads)
                .run(&campaign, &scenarios, &BTreeSet::new(), |record| {
                    streamed.push(record.id);
                    Ok(())
                })
                .expect_err("seed 322 has no feasible co-synthesis");
            assert_eq!(streamed, vec![0], "{threads} thread(s)");
            assert_eq!(
                error.to_string(),
                "scenario 'Bm1/cosynthesis/baseline/s322' failed: core error: \
                 no architecture met the deadline 790 (best makespan 814.9)"
            );
        }
    }

    #[test]
    fn caches_hit_across_scenarios_of_one_geometry() {
        let campaign = tiny_campaign();
        let scenarios = campaign.scenarios();
        let run = Executor::new(1)
            .run(&campaign, &scenarios, &BTreeSet::new(), |_| Ok(()))
            .unwrap();
        // Two platform scenarios share the 2x2 grid: one miss, one-plus hit.
        assert_eq!(run.report.cache.misses, 1);
        assert!(run.report.cache.hits >= 1);
    }

    #[test]
    fn skip_set_suppresses_completed_scenarios() {
        let campaign = tiny_campaign();
        let scenarios = campaign.scenarios();
        let skip: BTreeSet<u64> = [scenarios[0].id].into_iter().collect();
        let mut streamed = Vec::new();
        let run = Executor::new(2)
            .run(&campaign, &scenarios, &skip, |r| {
                streamed.push(r.id);
                Ok(())
            })
            .unwrap();
        assert_eq!(run.report.skipped, 1);
        assert_eq!(run.report.completed, 1);
        assert_eq!(run.records.len(), 1);
        assert_eq!(streamed, vec![scenarios[1].id]);

        // Skipping every id runs nothing: no worker starts and the sink is
        // never called.
        let all: BTreeSet<u64> = scenarios.iter().map(|s| s.id).collect();
        let run = Executor::new(2)
            .run(&campaign, &scenarios, &all, |_| {
                panic!("nothing is pending, so the sink must not be called")
            })
            .unwrap();
        assert_eq!(run.report.skipped, scenarios.len());
        assert_eq!(run.report.completed, 0);
        assert_eq!(run.report.threads, 0);
        assert!(run.records.is_empty());
    }

    #[test]
    fn metrics_registry_mirrors_the_report() {
        let campaign = tiny_campaign();
        let scenarios = campaign.scenarios();
        let registry = Arc::new(MetricsRegistry::new());
        let run = Executor::new(2)
            .with_metrics(Arc::clone(&registry))
            .run(&campaign, &scenarios, &BTreeSet::new(), |_| Ok(()))
            .unwrap();
        let snapshot = registry.snapshot();
        // The registry's cache counters are the very numbers the report
        // carries.
        assert_eq!(
            snapshot.counter_value("engine_cache_hits_total", &[]),
            Some(run.report.cache.hits)
        );
        assert_eq!(
            snapshot.counter_value("engine_cache_misses_total", &[]),
            Some(run.report.cache.misses)
        );
        let completed = run.report.completed as u64;
        assert_eq!(
            snapshot.counter_value("engine_scenarios_completed_total", &[]),
            Some(completed)
        );
        let scenario = snapshot
            .histogram_value("engine_scenario_seconds", &[])
            .unwrap();
        assert_eq!(scenario.count(), completed);
        let scheduling = snapshot
            .histogram_value("engine_phase_seconds", &[("phase", "scheduling")])
            .unwrap();
        assert_eq!(scheduling.count(), completed);
    }

    #[test]
    fn traced_runs_emit_deterministic_span_trees() {
        let campaign = tiny_campaign();
        let scenarios = campaign.scenarios();
        let trace = TraceContext {
            trace_id: 0xABCD,
            parent_span: 0x11,
            worker: "w0".to_string(),
        };
        let mut collected: Vec<SpanEvent> = Vec::new();
        Executor::new(2)
            .with_trace(trace.clone())
            .run_traced(&campaign, &scenarios, &BTreeSet::new(), |record, spans| {
                // Every record arrives with its scenario span plus the
                // scheduling and thermal phase children.
                assert_eq!(spans.len(), 3, "record {}", record.id);
                collected.extend(spans.iter().cloned());
                Ok::<_, EngineError>(())
            })
            .unwrap();
        assert_eq!(collected.len(), 6);
        for span in &collected {
            assert_eq!(span.trace_id, 0xABCD);
            assert_eq!(span.kind, SpanKind::Worker);
            assert_eq!(span.attrs.get("worker").map(String::as_str), Some("w0"));
        }
        let scenario_spans: Vec<&SpanEvent> =
            collected.iter().filter(|s| s.name == "scenario").collect();
        assert_eq!(scenario_spans.len(), 2);
        for scenario in &scenario_spans {
            assert_eq!(scenario.parent_id, Some(0x11));
            // Phase children nest inside their scenario and carry
            // interleaving-independent derived ids.
            for phase in collected
                .iter()
                .filter(|s| s.parent_id == Some(scenario.span_id))
            {
                assert!(phase.start_us >= scenario.start_us);
                assert!(phase.end_us <= scenario.end_us);
            }
        }
        // Re-running reproduces the exact same span ids (timestamps move,
        // ids do not): derivation is stateless per (trace, scenario).
        let mut second: Vec<u64> = Vec::new();
        Executor::new(1)
            .with_trace(trace)
            .run_traced(&campaign, &scenarios, &BTreeSet::new(), |_, spans| {
                second.extend(spans.iter().map(|s| s.span_id));
                Ok::<_, EngineError>(())
            })
            .unwrap();
        let mut first_ids: Vec<u64> = collected.iter().map(|s| s.span_id).collect();
        first_ids.sort_unstable();
        second.sort_unstable();
        assert_eq!(first_ids, second);
        // An untraced run hands the sink empty span slices.
        Executor::new(1)
            .run_traced(&campaign, &scenarios, &BTreeSet::new(), |_, spans| {
                assert!(spans.is_empty());
                Ok::<_, EngineError>(())
            })
            .unwrap();
    }

    #[test]
    fn grid_scenarios_record_solver_telemetry() {
        let campaign = tiny_campaign().with_solvers(vec![None, Some(GridSolver::BandedCholesky)]);
        let scenarios = campaign.scenarios();
        let registry = Arc::new(MetricsRegistry::new());
        let trace = TraceContext {
            trace_id: 0x1,
            parent_span: 0x2,
            worker: "w0".to_string(),
        };
        let mut grid_spans: Vec<SpanEvent> = Vec::new();
        Executor::new(1)
            .with_metrics(Arc::clone(&registry))
            .with_trace(trace)
            .run_traced(&campaign, &scenarios, &BTreeSet::new(), |_, spans| {
                grid_spans.extend(spans.iter().filter(|s| s.name == "grid").cloned());
                Ok::<_, EngineError>(())
            })
            .unwrap();
        let snapshot = registry.snapshot();
        // One grid-model build per worker for the shared geometry.
        assert_eq!(
            snapshot.counter_value("engine_grid_model_builds_total", &[]),
            Some(1)
        );
        // Only the grid-validated half of the scenarios has a grid phase,
        // and each such span names its solver and nothing else.
        assert_eq!(grid_spans.len(), scenarios.len() / 2);
        for span in &grid_spans {
            assert_eq!(
                span.attrs.get("solver").map(String::as_str),
                Some("cholesky")
            );
            assert_eq!(span.attrs.keys().collect::<Vec<_>>(), ["solver", "worker"]);
        }
    }

    #[test]
    fn phase_histograms_and_spans_read_one_phase_list() {
        // Both flows, with and without grid validation: each optional phase
        // runs in some scenarios and not in others.
        let campaign = tiny_campaign()
            .with_flows(vec![FlowKind::Platform, FlowKind::CoSynthesis])
            .with_policies(vec![Policy::Baseline])
            .with_solvers(vec![None, Some(GridSolver::BandedCholesky)]);
        let scenarios = campaign.scenarios();
        let registry = Arc::new(MetricsRegistry::new());
        let trace = TraceContext {
            trace_id: 0x3,
            parent_span: 0x4,
            worker: "w0".to_string(),
        };
        let mut spans_per_phase = [0u64; PHASES.len()];
        Executor::new(1)
            .with_metrics(Arc::clone(&registry))
            .with_trace(trace)
            .run_traced(&campaign, &scenarios, &BTreeSet::new(), |record, spans| {
                let ran: Vec<&str> = spans[1..].iter().map(|s| s.name.as_str()).collect();
                let expected: Vec<&str> = PHASES
                    .into_iter()
                    .filter(|&phase| match phase {
                        "floorplan" => record.flow == "cosynthesis",
                        "grid" => record.solver.is_some(),
                        _ => true,
                    })
                    .collect();
                assert_eq!(ran, expected, "{}", record.key);
                for (count, phase) in spans_per_phase.iter_mut().zip(PHASES) {
                    *count += u64::from(ran.contains(&phase));
                }
                Ok::<_, EngineError>(())
            })
            .unwrap();
        assert_eq!(spans_per_phase, [4, 4, 2, 2]);
        let snapshot = registry.snapshot();
        for (phase, spans) in PHASES.into_iter().zip(spans_per_phase) {
            let samples = snapshot
                .histogram_value("engine_phase_seconds", &[("phase", phase)])
                .map_or(0, |histogram| histogram.count());
            assert_eq!(samples, spans, "{phase}");
        }
    }

    #[test]
    fn sink_errors_abort_the_run() {
        let campaign = tiny_campaign();
        let scenarios = campaign.scenarios();
        let result = Executor::new(1).run(&campaign, &scenarios, &BTreeSet::new(), |_| {
            Err(EngineError::InvalidParameter("sink is full".to_string()))
        });
        assert!(matches!(result, Err(EngineError::InvalidParameter(_))));
    }

    #[test]
    fn records_serialise_with_leading_id() {
        let campaign = tiny_campaign();
        let scenarios = campaign.shard_scenarios(Shard::default());
        let run = Executor::new(1)
            .run(&campaign, &scenarios, &BTreeSet::new(), |_| Ok(()))
            .unwrap();
        let line = run.records[0].to_json().to_json();
        assert!(line.contains("\"id\":0"));
        assert!(line.contains("\"max_temp_c\":"));
        assert!(line.contains("\"policy\":\"baseline\""));
        assert_eq!(tats_trace::jsonl::line_id(&line), Some(0));
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = ScenarioRecord {
            id: 17,
            key: "Bm2/cosynthesis/thermal/cholesky/s3".to_string(),
            benchmark: "Bm2".to_string(),
            flow: "cosynthesis".to_string(),
            policy: "thermal".to_string(),
            seed: 3,
            solver: Some("cholesky".to_string()),
            total_power: 12.5,
            max_temp_c: 83.25,
            avg_temp_c: 74.5,
            makespan: 1401.0,
            meets_deadline: true,
            energy: 9001.5,
            grid_max_temp_c: Some(85.125),
        };
        let parsed = JsonValue::parse(&record.to_json().to_json()).expect("valid json");
        assert_eq!(ScenarioRecord::from_json(&parsed).expect("inverse"), record);
        // Optional fields stay optional.
        let plain = ScenarioRecord {
            solver: None,
            grid_max_temp_c: None,
            ..record.clone()
        };
        let parsed = JsonValue::parse(&plain.to_json().to_json()).expect("valid json");
        assert_eq!(ScenarioRecord::from_json(&parsed).expect("inverse"), plain);
        // Missing fields are named in the error.
        let error =
            ScenarioRecord::from_json(&JsonValue::parse("{\"id\": 1}").unwrap()).expect_err("bad");
        assert!(error.to_string().contains("key"), "{error}");
    }
}
