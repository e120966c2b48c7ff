//! The campaign executor: a work-stealing worker pool with per-worker
//! thermal caches and streamed results.
//!
//! Scenarios are independent, so the pool is a shared atomic cursor over the
//! (shard's) scenario list: idle workers grab the next index, heavy
//! scenarios never block light ones behind a static partition. Every worker
//! owns its caches — a [`ThermalModelCache`] for block-model factorisations
//! and a grid-model cache for fine-grid validation — keyed by
//! floorplan geometry, so thermal sessions and Cholesky factors are *reused
//! across scenarios* instead of rebuilt per run. Completed records flow
//! through a channel to the caller's sink as they finish (streaming JSONL),
//! and per-worker cache counters are merged into the final report.
//!
//! Execution order is non-deterministic under threads; the *result set* is
//! not: every scenario evaluation is deterministic and isolated, so any
//! thread count, sharding or resume schedule produces the same records
//! (pinned by the shard-invariance tests).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use tats_core::{
    CacheStats, CoSynthesis, FifoCache, FlowPhases, PlatformFlow, ScheduleEvaluation,
    ThermalModelCache,
};
use tats_thermal::{Floorplan, GridModel};
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
    /// Worker threads used.
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
    /// All records of this run, in scenario-id order. (The sink already saw
    /// them in completion order.)
    pub records: Vec<ScenarioRecord>,
    /// Executor statistics.
    pub report: BatchReport,
}

/// Per-worker cache bundle: block-model factorisations plus grid models
/// (whose cached Cholesky factors are the expensive part), both keyed by
/// the exact-bits `(floorplan, config)` material from
/// [`tats_core::geometry_config_bits`]. The grid side is a FIFO-bounded
/// [`FifoCache`] like the thermal side, because co-synthesis campaigns can
/// produce a distinct floorplan per scenario and a 128×128 factor is
/// megabytes.
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

    /// The factorised grid model for this geometry and resolution, built on
    /// miss (evicting the oldest entry when the bound is hit).
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

/// Pre-registered metric handles for the executor's hot path: looked up once
/// per run, recorded with pure atomics from every worker thread. Phase
/// histograms come from the flows' `*_timed` entry points, so `/metrics`
/// reports the same phase split a profiler would see.
struct EngineMetrics {
    scenario_seconds: Arc<Histogram>,
    scheduling_seconds: Arc<Histogram>,
    thermal_seconds: Arc<Histogram>,
    floorplan_seconds: Arc<Histogram>,
    grid_seconds: Arc<Histogram>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Banded-Cholesky factorisations: one per grid-model cache miss — the
    /// expensive rebuild a diverging cache hit-rate turns into.
    cholesky_refactors: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        let phase = |name: &str| registry.histogram("engine_phase_seconds", &[("phase", name)]);
        EngineMetrics {
            scenario_seconds: registry.histogram("engine_scenario_seconds", &[]),
            scheduling_seconds: phase("scheduling"),
            thermal_seconds: phase("thermal"),
            floorplan_seconds: phase("floorplan"),
            grid_seconds: phase("grid"),
            completed: registry.counter("engine_scenarios_completed_total", &[]),
            failed: registry.counter("engine_scenarios_failed_total", &[]),
            cache_hits: registry.counter("engine_cache_hits_total", &[]),
            cache_misses: registry.counter("engine_cache_misses_total", &[]),
            cholesky_refactors: registry.counter("engine_cholesky_refactors_total", &[]),
        }
    }
}

/// The distributed-tracing context a service worker threads through the
/// executor: when set (see [`Executor::with_trace`]), every scenario emits
/// a span tree — a `scenario` span under `parent_span`, with `scheduling` /
/// `thermal` / `floorplan` / `grid` phase children — delivered alongside
/// its record through [`Executor::run_traced`]'s sink.
///
/// Span ids are derived statelessly from `(trace_id, scenario id, phase)`
/// via [`SpanIdGen::derive`], so the tree's ids do not depend on thread
/// interleaving and a scenario re-run after a crash reproduces them
/// exactly (the server's span stream dedups on span id).
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

/// Evaluates one scenario with this worker's caches, emitting its span
/// tree when a trace context is set.
fn run_scenario(
    scenario: &Scenario,
    campaign: &Campaign,
    library: &tats_techlib::TechLibrary,
    caches: &mut WorkerCaches,
    metrics: Option<&EngineMetrics>,
    trace: Option<&TraceContext>,
) -> Result<(ScenarioRecord, Vec<SpanEvent>), EngineError> {
    let experiment = campaign.experiment();
    let scenario_clock = Instant::now();
    let scenario_start_us = trace.map(|_| spans::now_us());
    let graph = scenario.task_graph()?;
    let (schedule, evaluation, floorplan, phases): (_, ScheduleEvaluation, Floorplan, FlowPhases) =
        match scenario.flow {
            FlowKind::Platform => {
                let flow =
                    PlatformFlow::new(library)?.with_thermal_config(experiment.thermal_config);
                let (result, phases) =
                    flow.run_with_cache_timed(&graph, scenario.policy, &mut caches.thermal)?;
                (result.schedule, result.evaluation, result.floorplan, phases)
            }
            FlowKind::CoSynthesis => {
                let flow = CoSynthesis::new(library)
                    .with_max_pes(experiment.max_pes)
                    .with_thermal_config(experiment.thermal_config)
                    .with_floorplan_ga(experiment.floorplan_ga);
                let (result, phases) =
                    flow.run_with_cache_timed(&graph, scenario.policy, &mut caches.thermal)?;
                (result.schedule, result.evaluation, result.floorplan, phases)
            }
        };

    let grid_clock = Instant::now();
    let grid_max_temp_c = match scenario.solver {
        None => None,
        Some(_) => {
            let misses_before = caches.grid.stats().misses;
            let max_c = {
                let model = caches.grid_model(&floorplan, campaign)?;
                let mut workspace = model.workspace();
                model
                    .steady_state_with(&evaluation.per_pe_power, &mut workspace)?
                    .max_c()
            };
            if caches.grid.stats().misses > misses_before {
                if let Some(metrics) = metrics {
                    metrics.cholesky_refactors.inc();
                }
            }
            Some(max_c)
        }
    };

    if let Some(metrics) = metrics {
        metrics
            .scheduling_seconds
            .record_duration(phases.scheduling);
        metrics.thermal_seconds.record_duration(phases.thermal);
        if scenario.flow == FlowKind::CoSynthesis {
            metrics.floorplan_seconds.record_duration(phases.floorplan);
        }
        if scenario.solver.is_some() {
            metrics.grid_seconds.record_duration(grid_clock.elapsed());
        }
        metrics
            .scenario_seconds
            .record_duration(scenario_clock.elapsed());
    }

    let mut span_events = Vec::new();
    if let (Some(trace), Some(start_us)) = (trace, scenario_start_us) {
        let seed = trace.scenario_seed(scenario.id);
        let scenario_span = SpanIdGen::derive(seed, "scenario");
        let end_us = start_us + scenario_clock.elapsed().as_micros() as u64;
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
        // Phase children laid out sequentially from the scenario start:
        // exact measured durations, in execution order (their sum is at
        // most the scenario's wall time, so nesting holds).
        type NamedPhase = (&'static str, u64, Vec<(&'static str, String)>);
        let mut cursor = start_us;
        let mut named_phases: Vec<NamedPhase> = vec![
            ("scheduling", phases.scheduling.as_micros() as u64, vec![]),
            ("thermal", phases.thermal.as_micros() as u64, vec![]),
        ];
        if scenario.flow == FlowKind::CoSynthesis {
            named_phases.push(("floorplan", phases.floorplan.as_micros() as u64, vec![]));
        }
        if let Some(solver) = scenario.solver {
            named_phases.push((
                "grid",
                grid_clock.elapsed().as_micros() as u64,
                vec![("solver", solver.name().to_string())],
            ));
        }
        for (name, duration_us, attrs) in named_phases {
            let mut span = SpanEvent::new(
                trace.trace_id,
                SpanIdGen::derive(seed, name),
                Some(scenario_span),
                name,
                SpanKind::Worker,
                cursor,
                cursor + duration_us,
            );
            for (key, value) in attrs {
                span = span.attr(key, value);
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

enum Message {
    Record(Box<(ScenarioRecord, Vec<SpanEvent>)>),
    Failed(Box<EngineError>),
    WorkerDone(CacheStats),
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
    /// reports, so `/metrics` and `BENCH_*.json` agree by construction.
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

    /// The worker count this executor will spawn.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the given scenarios of a campaign, skipping ids in `skip` (the
    /// resume set) and handing each completed record to `sink` as it
    /// finishes. Returns all records sorted by scenario id plus the
    /// executor report.
    ///
    /// # Errors
    ///
    /// Returns the first scenario or sink failure; either aborts the
    /// remaining work (in-flight scenarios finish, their sends fail, the
    /// workers exit). Records already handed to the sink stay on disk and
    /// remain valid `--resume` input.
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
    /// how a service worker piggybacks span batches on record posts.
    ///
    /// # Errors
    ///
    /// As [`Executor::run`].
    pub fn run_traced<F>(
        &self,
        campaign: &Campaign,
        scenarios: &[Scenario],
        skip: &BTreeSet<u64>,
        mut sink: F,
    ) -> Result<BatchRun, EngineError>
    where
        F: FnMut(&ScenarioRecord, &[SpanEvent]) -> Result<(), EngineError>,
    {
        let todo: Vec<&Scenario> = scenarios.iter().filter(|s| !skip.contains(&s.id)).collect();
        let skipped = scenarios.len() - todo.len();
        let workers = self.threads.min(todo.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let metrics = self.metrics.as_deref().map(EngineMetrics::new);
        let (tx, rx) = mpsc::channel::<Message>();

        let start = Instant::now();
        let mut records: Vec<ScenarioRecord> = Vec::with_capacity(todo.len());
        let mut cache = CacheStats::default();
        let mut failure: Option<EngineError> = None;

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let todo = &todo;
                let metrics = metrics.as_ref();
                let trace = self.trace.as_ref();
                scope.spawn(move || {
                    let library = match campaign.experiment().library() {
                        Ok(library) => library,
                        Err(error) => {
                            let _ = tx.send(Message::Failed(Box::new(EngineError::from(error))));
                            let _ = tx.send(Message::WorkerDone(CacheStats::default()));
                            return;
                        }
                    };
                    let mut caches = WorkerCaches::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = todo.get(index) else {
                            break;
                        };
                        let message = match run_scenario(
                            scenario,
                            campaign,
                            &library,
                            &mut caches,
                            metrics,
                            trace,
                        ) {
                            Ok(outcome) => {
                                if let Some(metrics) = metrics {
                                    metrics.completed.inc();
                                }
                                Message::Record(Box::new(outcome))
                            }
                            Err(error) => {
                                if let Some(metrics) = metrics {
                                    metrics.failed.inc();
                                }
                                Message::Failed(Box::new(error.in_scenario(&scenario.key())))
                            }
                        };
                        if tx.send(message).is_err() {
                            break;
                        }
                    }
                    let _ = tx.send(Message::WorkerDone(caches.stats()));
                });
            }
            // The receiving end runs on the caller's thread so the sink (a
            // JSONL file, a summary accumulator) needs no synchronisation.
            drop(tx);
            for message in rx {
                match message {
                    Message::Record(outcome) => {
                        let (record, span_events) = *outcome;
                        if let Err(error) = sink(&record, &span_events) {
                            // A dead sink (disk full, closed pipe) aborts:
                            // dropping the receiver makes every worker's
                            // next send fail and exit its loop.
                            failure = Some(error);
                            break;
                        }
                        records.push(record);
                    }
                    Message::Failed(error) => {
                        // A failed scenario likewise aborts the campaign —
                        // results already streamed to the sink remain valid
                        // resume input, so nothing is lost by stopping
                        // instead of grinding through the rest of the grid.
                        failure = Some(*error);
                        break;
                    }
                    Message::WorkerDone(stats) => cache.merge(stats),
                }
            }
        });

        if let Some(error) = failure {
            return Err(error);
        }
        if let Some(metrics) = &metrics {
            metrics.cache_hits.add(cache.hits);
            metrics.cache_misses.add(cache.misses);
        }
        records.sort_by_key(|r| r.id);
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
        let campaign = tiny_campaign();
        let scenarios = campaign.scenarios();
        let skip = BTreeSet::new();
        let serial = Executor::new(1)
            .run(&campaign, &scenarios, &skip, |_| Ok(()))
            .unwrap();
        let threaded = Executor::new(3)
            .run(&campaign, &scenarios, &skip, |_| Ok(()))
            .unwrap();
        assert_eq!(serial.records, threaded.records);
        assert_eq!(serial.report.completed, 2);
        assert!(serial.report.scenarios_per_sec() > 0.0);
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
        // carries into BENCH_*.json.
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
                Ok(())
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
                Ok(())
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
                Ok(())
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
                Ok(())
            })
            .unwrap();
        let snapshot = registry.snapshot();
        // One Cholesky refactor per worker for the shared geometry.
        assert_eq!(
            snapshot.counter_value("engine_cholesky_refactors_total", &[]),
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
