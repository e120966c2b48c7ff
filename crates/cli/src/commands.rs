//! Implementations of the CLI subcommands.
//!
//! Every command returns its output as a `String` so the binary stays a thin
//! printing wrapper and the commands are unit-testable.

use tats_core::experiment::ExperimentConfig;
use tats_core::{CoSynthesis, PlatformFlow, Policy, ScheduleEvaluation};
use tats_engine::{table1, table2, table3, Campaign, Executor, FlowKind, Shard, Summary};
use tats_power::{simulate_schedule, DvfsTable, SlackReclaimer};
use tats_reliability::ReliabilityAnalyzer;
use tats_taskgraph::{dot, extended, tgff};
use tats_techlib::profiles;
use tats_thermal::{GridModel, GridSolver, ThermalConfig, ThermalModel, MAX_GRID_SIDE};
use tats_trace::json::MAX_EXACT_INTEGER;
use tats_trace::{csv, json, markdown, GanttChart};

use crate::options::{
    parse_benchmark, parse_benchmark_list, parse_grid_solver, parse_policy, parse_policy_list,
    CliError, Options,
};

/// Number of task types used by the CLI's technology library (matches the
/// experiment driver in `tats-core`).
const TASK_TYPES: usize = 12;

/// Largest `tats floorplan --modules`: far above any module count the flows
/// or tests use, and small enough that a stray value cannot exhaust memory.
const MAX_FLOORPLAN_MODULES: usize = 1024;

/// Largest task count of one `tats sweep --sizes` entry: ten times the
/// default family's largest graph, about 4 s of scheduling. Unbounded,
/// 10^8 tasks aborted on a multi-gigabyte allocation.
const MAX_SWEEP_TASKS: usize = 4000;

fn execution_error(error: impl std::fmt::Display) -> CliError {
    CliError::Execution(error.to_string())
}

/// `tats help` — usage text.
pub fn help() -> String {
    "\
tats — thermal-aware task allocation and scheduling (DATE 2005 reproduction)

USAGE:
    tats <command> [options]

COMMANDS:
    tables       Reproduce the paper's Tables 1-3 (markdown output)
                   --which table1|table2|table3|all   (default: all)
                   --full                             slower, higher-quality co-synthesis
    schedule     Schedule one benchmark and report the paper's metrics
                   --benchmark Bm1..Bm4               (default: Bm1)
                   --policy baseline|power1..3|thermal (default: thermal)
                   --arch platform|cosynthesis        (default: platform)
                   --gantt --csv --json               extra artefacts
    sweep        Scalability sweep over the extended benchmark family
                   --sizes 25,50,100                  task counts, 2 to 4000 each
                                                      (default: 25,50,100)
                   --policy ...                       (default: thermal)
    reliability  Lifetime comparison of power-aware vs thermal-aware mapping
                   --benchmark Bm1..Bm4               (default: Bm1)
    dvs          DVS slack reclamation on top of a schedule
                   --benchmark Bm1..Bm4 --policy ...  (default: Bm1, thermal)
    floorplan    Run the thermal-aware floorplanner standalone
                   --modules 8 --seed 7               deterministic module/net set
                                                      (1 to 1024 modules)
                   --engine sa|ga|initial             (default: sa)
                   --weights area|thermal             objective (default: area)
    grid         Fine-grained grid thermal validation of a schedule
                   --benchmark Bm1..Bm4 --policy ...  (default: Bm1, thermal)
                   --nx 32 --ny 32                    grid resolution (1 to 128 per side;
                                                      solved by a cached banded Cholesky factor)
    batch        Run a scenario campaign through the sharded batch engine
                   --benchmarks Bm1,Bm3|all           (default: all)
                   --flows platform,cosynthesis|all   (default: platform)
                   --policies baseline,power1..3,thermal|all (default: all)
                   --seeds 0,1,2                      seed grid (0 = canonical graphs,
                                                      at most 2^53 - 1)
                   --grid-solver cholesky             add fine-grid validation axis
                                                      (cholesky is the only grid solver)
                   --nx 16 --ny 16                    grid resolution for that axis (1 to 128)
                   --shard 0/4                        run only this shard of the campaign
                   --threads 4                        worker threads (0 = all cores)
                   --out results.jsonl                stream results to a JSONL file
                   --resume                           skip scenario ids already in --out
                   --full                             full-effort co-synthesis config
                   --dry-run                          print the scenario list and shard
                                                      assignment without running anything
    serve        Run the campaign service HTTP server (blocks until killed)
                   --host 127.0.0.1 --port 7070       bind address (0 = ephemeral port)
                   --lease-ttl-ms 15000               shard lease TTL for dead-worker retry
                   --journal state.jsonl              append-only journal; a restart on the
                                                      same path replays jobs, records and
                                                      shard states (kill -9 safe)
                   --no-keep-alive                    close the connection after every
                                                      request (diagnostic / benchmarking)
                   --access-log events.jsonl          append one JSONL line per served
                                                      request (GET /metrics for counters)
                   --trace-log spans.jsonl            append every span the service sees
                                                      (request spans + merged job streams;
                                                      feed the file to tats trace)
                   --log-file server.jsonl            append the structured log stream
                                                      (also in memory via GET /logs;
                                                      filter with TATS_LOG=info,lease=debug)
                   --compact-every-events 10000       fold the journal into one snapshot
                                                      event whenever it reaches n events
                                                      (POST /compact does it on demand)
                   --client-quota 64                  per-client pending-shard cap; a
                                                      submit over quota gets 429 +
                                                      retry-after (0 = unlimited)
                   --max-connections 256              concurrent connection cap; excess
                                                      connects are shed with 503
                                                      (0 = unlimited)
    worker       Lease and run campaign shards from a tats serve instance
                   --connect HOST:PORT                server address (required)
                   --threads 0 --poll-ms 200          executor threads, idle poll interval
                   --name w1                          lease-ownership name (default: worker-PID)
                   --exit-when-drained                exit once the server has no work left
    submit       Submit a campaign to a tats serve instance
                   --connect HOST:PORT                server address (required)
                   (campaign axes as for batch: --benchmarks --flows --policies
                    --seeds --grid-solver --nx --ny --full)
                   --shards 4                         split the job into n shards
                   --wait                             stream records + summary until done
                                                      (rides out server restarts, resuming
                                                      from the last x-next-from; prints a
                                                      progress/ETA line to stderr each second)
                   --out results.jsonl --poll-ms 200  write fetched records to a file
                   --trace-seed 42                    pin the campaign trace id (default:
                                                      derived from clock + pid; the id is
                                                      echoed so spans can be correlated)
                   --client ci --priority 2           admission identity and tier: leases
                                                      round-robin fairly across clients
                                                      within a priority (higher first)
    compact      Fold a journaled server's log into one snapshot event
                   --connect HOST:PORT                server address (required)
    top          Live operator console for a tats serve fleet
                   --connect HOST:PORT                server address (required)
                   --interval-ms 1000                 refresh interval of the live view
                   --once                             print one plain-text snapshot and
                                                      exit (no ANSI; for scripts and CI)
    trace        Explore a span stream (from serve --trace-log or GET /jobs/{id}/spans)
                   tats trace spans.jsonl             span forest, critical path, per-phase
                                                      and benchmark x policy breakdowns,
                                                      lease-to-first-record latency
                   --chrome out.json                  write a Chrome trace-event timeline
                                                      (chrome://tracing, ui.perfetto.dev)
    export       Export a benchmark task graph
                   --benchmark Bm1..Bm4 --format tgff|dot
    help         Show this message
"
    .to_string()
}

fn evaluation_summary(label: &str, evaluation: &ScheduleEvaluation) -> String {
    format!(
        "{label}: total power {:.2} W, max temp {:.2} C, avg temp {:.2} C, makespan {:.1}, deadline {}\n",
        evaluation.total_average_power,
        evaluation.max_temperature_c,
        evaluation.avg_temperature_c,
        evaluation.makespan,
        if evaluation.meets_deadline { "met" } else { "MISSED" }
    )
}

/// `tats tables` — reproduce the paper's tables.
pub fn tables(options: &Options) -> Result<String, CliError> {
    let config = if options.switch("full") {
        ExperimentConfig::default()
    } else {
        ExperimentConfig::fast()
    };
    let which = options.value_or("which", "all");
    let mut out = String::new();
    if which == "table1" || which == "all" {
        let table = table1(&config).map_err(execution_error)?;
        out.push_str("## Table 1 — power-heuristic comparison\n\n");
        out.push_str(&markdown::table1_to_markdown(&table));
        out.push('\n');
    }
    if which == "table2" || which == "all" {
        let table = table2(&config).map_err(execution_error)?;
        out.push_str("## Table 2 — co-synthesis architecture\n\n");
        out.push_str(&markdown::comparison_to_markdown(&table));
        out.push('\n');
    }
    if which == "table3" || which == "all" {
        let table = table3(&config).map_err(execution_error)?;
        out.push_str("## Table 3 — platform architecture\n\n");
        out.push_str(&markdown::comparison_to_markdown(&table));
        out.push('\n');
    }
    if out.is_empty() {
        return Err(CliError::InvalidValue {
            option: "which".to_string(),
            value: which.to_string(),
            expected: "table1, table2, table3 or all".to_string(),
        });
    }
    Ok(out)
}

/// `tats schedule` — schedule one benchmark and report metrics.
pub fn schedule(options: &Options) -> Result<String, CliError> {
    let benchmark = parse_benchmark(options.value_or("benchmark", "Bm1"))?;
    let policy = parse_policy(options.value_or("policy", "thermal"))?;
    let arch = options.value_or("arch", "platform");
    let library = profiles::standard_library(TASK_TYPES).map_err(execution_error)?;
    let graph = benchmark.task_graph().map_err(execution_error)?;

    let (schedule, evaluation, label) = match arch {
        "platform" => {
            let result = PlatformFlow::new(&library)
                .map_err(execution_error)?
                .run(&graph, policy)
                .map_err(execution_error)?;
            (
                result.schedule,
                result.evaluation,
                format!("{benchmark} on platform with {policy}"),
            )
        }
        "cosynthesis" => {
            let result = CoSynthesis::new(&library)
                .run(&graph, policy)
                .map_err(execution_error)?;
            (
                result.schedule,
                result.evaluation,
                format!("{benchmark} via co-synthesis with {policy}"),
            )
        }
        other => {
            return Err(CliError::InvalidValue {
                option: "arch".to_string(),
                value: other.to_string(),
                expected: "platform or cosynthesis".to_string(),
            })
        }
    };

    let mut out = evaluation_summary(&label, &evaluation);
    if options.switch("gantt") {
        out.push('\n');
        out.push_str(
            &GanttChart::new()
                .render(&schedule, Some(&graph))
                .map_err(execution_error)?,
        );
    }
    if options.switch("csv") {
        out.push('\n');
        out.push_str(&csv::schedule_to_csv(&schedule, Some(&graph)).map_err(execution_error)?);
    }
    if options.switch("json") {
        out.push('\n');
        out.push_str(&json::schedule_to_json(&schedule, Some(&graph)).to_json());
        out.push('\n');
    }
    Ok(out)
}

/// `tats sweep` — scalability sweep over the extended benchmark family.
pub fn sweep(options: &Options) -> Result<String, CliError> {
    let sizes = options.integer_list("sizes", &[25, 50, 100], 2..=MAX_SWEEP_TASKS)?;
    let policy = parse_policy(options.value_or("policy", "thermal"))?;
    let library = profiles::standard_library(TASK_TYPES).map_err(execution_error)?;
    let graphs = extended::suite_with_sizes(&sizes, 11).map_err(execution_error)?;

    let mut rows = Vec::new();
    for graph in &graphs {
        let result = PlatformFlow::new(&library)
            .map_err(execution_error)?
            .run(graph, policy)
            .map_err(execution_error)?;
        rows.push(vec![
            graph.task_count().to_string(),
            graph.edge_count().to_string(),
            format!("{:.1}", result.schedule.makespan()),
            format!("{:.2}", result.evaluation.max_temperature_c),
            format!("{:.2}", result.evaluation.avg_temperature_c),
            if result.evaluation.meets_deadline {
                "yes".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    let mut out = format!("Scalability sweep with {policy} on the 4-PE platform\n\n");
    out.push_str(&markdown::markdown_table(
        &[
            "tasks",
            "edges",
            "makespan",
            "max temp",
            "avg temp",
            "deadline met",
        ],
        &rows,
    ));
    Ok(out)
}

/// `tats reliability` — lifetime comparison of power- vs thermal-aware
/// mappings on the platform architecture.
pub fn reliability(options: &Options) -> Result<String, CliError> {
    let benchmark = parse_benchmark(options.value_or("benchmark", "Bm1"))?;
    let library = profiles::standard_library(TASK_TYPES).map_err(execution_error)?;
    let graph = benchmark.task_graph().map_err(execution_error)?;
    let analyzer = ReliabilityAnalyzer::new();

    let mut rows = Vec::new();
    for policy in [
        Policy::PowerAware(tats_core::PowerHeuristic::MinTaskEnergy),
        Policy::ThermalAware,
    ] {
        let result = PlatformFlow::new(&library)
            .map_err(execution_error)?
            .run(&graph, policy)
            .map_err(execution_error)?;
        let model = ThermalModel::new(&result.floorplan, ThermalConfig::default())
            .map_err(execution_error)?;
        let trace = simulate_schedule(&result.schedule, &result.architecture, &library, &model)
            .map_err(execution_error)?;
        let system = analyzer.from_trace(&trace).map_err(execution_error)?;
        rows.push(vec![
            policy.label(),
            format!("{:.2}", result.evaluation.max_temperature_c),
            format!("{:.2}", trace.peak_c()),
            format!("{:.0}", system.worst_mttf_hours()),
            format!("{:.0}", system.system_mttf_hours()),
        ]);
    }
    let mut out = format!("Reliability comparison for {benchmark} on the 4-PE platform\n\n");
    out.push_str(&markdown::markdown_table(
        &[
            "policy",
            "steady max temp",
            "transient peak",
            "worst-PE MTTF (h)",
            "system MTTF (h)",
        ],
        &rows,
    ));
    Ok(out)
}

/// `tats dvs` — DVS slack reclamation on top of a schedule.
pub fn dvs(options: &Options) -> Result<String, CliError> {
    let benchmark = parse_benchmark(options.value_or("benchmark", "Bm1"))?;
    let policy = parse_policy(options.value_or("policy", "thermal"))?;
    let library = profiles::standard_library(TASK_TYPES).map_err(execution_error)?;
    let graph = benchmark.task_graph().map_err(execution_error)?;
    let result = PlatformFlow::new(&library)
        .map_err(execution_error)?
        .run(&graph, policy)
        .map_err(execution_error)?;

    let scaled = SlackReclaimer::new(DvfsTable::standard())
        .reclaim(&result.schedule)
        .map_err(execution_error)?;

    // Steady-state peak before and after, from the same thermal model.
    let model =
        ThermalModel::new(&result.floorplan, ThermalConfig::default()).map_err(execution_error)?;
    let before = model
        .steady_state(&result.schedule.sustained_power_per_pe())
        .map_err(execution_error)?;
    let after_power = scaled.sustained_power_per_pe(result.schedule.pe_count());
    let after = model.steady_state(&after_power).map_err(execution_error)?;

    let mut out = format!("DVS slack reclamation for {benchmark} with {policy}\n\n");
    out.push_str(&format!(
        "selected operating point: {}\n",
        scaled.operating_point()
    ));
    out.push_str(&format!(
        "makespan: {:.1} -> {:.1} (deadline {})\n",
        scaled.nominal_makespan(),
        scaled.makespan(),
        scaled.deadline()
    ));
    out.push_str(&format!(
        "task energy saving: {:.1}%\n",
        100.0 * scaled.energy_saving_fraction()
    ));
    out.push_str(&format!(
        "steady peak before: {:.2} C, after: {:.2} C\n",
        before.max_c(),
        after.max_c()
    ));
    Ok(out)
}

/// `tats grid` — validate a schedule's steady state on the fine grid model
/// (see `tats_thermal::GridModel`).
pub fn grid(options: &Options) -> Result<String, CliError> {
    let benchmark = parse_benchmark(options.value_or("benchmark", "Bm1"))?;
    let policy = parse_policy(options.value_or("policy", "thermal"))?;
    let solver = GridSolver::BandedCholesky;
    let nx = options.integer("nx", 32, 1..=MAX_GRID_SIDE)?;
    let ny = options.integer("ny", 32, 1..=MAX_GRID_SIDE)?;

    let library = profiles::standard_library(TASK_TYPES).map_err(execution_error)?;
    let graph = benchmark.task_graph().map_err(execution_error)?;
    let result = PlatformFlow::new(&library)
        .map_err(execution_error)?
        .run(&graph, policy)
        .map_err(execution_error)?;

    let build_start = std::time::Instant::now();
    let model = GridModel::new(&result.floorplan, ThermalConfig::default(), nx, ny)
        .map_err(execution_error)?;
    let build_s = build_start.elapsed().as_secs_f64();
    let solve_start = std::time::Instant::now();
    let temps = model
        .steady_state(&result.evaluation.per_pe_power)
        .map_err(execution_error)?;
    let solve_s = solve_start.elapsed().as_secs_f64();

    let mut out = format!(
        "Grid thermal validation of {benchmark} with {policy} ({nx}x{ny} cells, {solver} solver)\n\n"
    );
    let rows: Vec<Vec<String>> = result
        .evaluation
        .per_pe_power
        .iter()
        .enumerate()
        .map(|(pe, &power)| {
            vec![
                format!("PE{pe}"),
                format!("{power:.3}"),
                format!("{:.2}", temps.block_average_c()[pe]),
                format!("{:.2}", temps.block_max_c()[pe]),
            ]
        })
        .collect();
    out.push_str(&markdown::markdown_table(
        &["PE", "power (W)", "grid avg (C)", "grid max (C)"],
        &rows,
    ));
    out.push_str(&format!(
        "\nblock-model max temp: {:.2} C, hottest grid cell: {:.2} C\n",
        result.evaluation.max_temperature_c,
        temps.max_c()
    ));
    out.push_str(&format!(
        "solver setup {:.1} ms, steady-state solve {:.3} ms\n",
        build_s * 1e3,
        solve_s * 1e3
    ));
    Ok(out)
}

/// `tats floorplan` — run the thermal-aware floorplanner standalone over a
/// deterministic module set, with selectable engine and objective.
pub fn floorplan(options: &Options) -> Result<String, CliError> {
    use tats_floorplan::{testutil, CostWeights, Engine, Floorplanner, GaConfig, SaConfig};

    let count = options.integer("modules", 8, 1..=MAX_FLOORPLAN_MODULES)?;
    let seed = options.integer("seed", 7, 0..=u64::MAX)?;
    let weights = match options.value_or("weights", "area") {
        "area" => CostWeights::area_only(),
        "thermal" => CostWeights::thermal_aware(),
        other => {
            return Err(CliError::InvalidValue {
                option: "weights".to_string(),
                value: other.to_string(),
                expected: "area or thermal".to_string(),
            })
        }
    };
    let (engine_name, engine) = match options.value_or("engine", "sa") {
        "sa" | "annealing" => (
            "simulated annealing",
            Engine::Annealing(SaConfig {
                seed,
                ..SaConfig::default()
            }),
        ),
        "ga" | "genetic" => (
            "genetic algorithm",
            Engine::Genetic(GaConfig {
                seed,
                ..GaConfig::default()
            }),
        ),
        "initial" => ("initial layout only", Engine::InitialOnly),
        other => {
            return Err(CliError::InvalidValue {
                option: "engine".to_string(),
                value: other.to_string(),
                expected: "sa, ga or initial".to_string(),
            })
        }
    };

    let modules = testutil::module_set(count, seed);
    let nets = testutil::net_set(count / 2, count, seed);
    let start = std::time::Instant::now();
    let solution = Floorplanner::new(modules)
        .with_nets(nets)
        .with_weights(weights)
        .with_engine(engine)
        .run()
        .map_err(execution_error)?;
    let wall_s = start.elapsed().as_secs_f64();

    let mut out = format!("Floorplanned {count} modules with {engine_name}\n\n");
    out.push_str(&format!(
        "chip area: {:.2} mm2, wirelength: {:.2} mm, peak temperature: {:.2} C\n",
        solution.cost.area_m2 * 1e6,
        solution.cost.wirelength_m * 1e3,
        solution.cost.peak_temperature_c,
    ));
    out.push_str(&format!(
        "weighted cost: {:.9}\n{} candidate evaluation(s) in {:.3} s ({:.0} evals/sec)\n",
        solution.cost.weighted,
        solution.evaluations,
        wall_s,
        solution.evaluations as f64 / wall_s.max(1e-12),
    ));
    Ok(out)
}

fn parse_flows(text: &str) -> Result<Vec<FlowKind>, CliError> {
    if text.eq_ignore_ascii_case("all") {
        return Ok(FlowKind::ALL.to_vec());
    }
    text.split(',')
        .map(|item| match item.trim().to_ascii_lowercase().as_str() {
            "platform" => Ok(FlowKind::Platform),
            "cosynthesis" | "co-synthesis" => Ok(FlowKind::CoSynthesis),
            other => Err(CliError::InvalidValue {
                option: "flows".to_string(),
                value: other.to_string(),
                expected: "platform, cosynthesis or all".to_string(),
            }),
        })
        .collect()
}

/// Builds the campaign the batch-style axis options describe (shared by
/// `tats batch` and `tats submit`, so a submitted job means exactly what the
/// same flags mean locally).
fn campaign_from_options(options: &Options) -> Result<Campaign, CliError> {
    let config = if options.switch("full") {
        ExperimentConfig::default()
    } else {
        ExperimentConfig::fast()
    };
    let benchmarks = parse_benchmark_list(options.value_or("benchmarks", "all"))?;
    let flows = parse_flows(options.value_or("flows", "platform"))?;
    let policies = parse_policy_list(options.value_or("policies", "all"))?;
    let seeds = options.integer_list("seeds", &[0], 0..=MAX_EXACT_INTEGER)?;
    let solvers = match options.value("grid-solver") {
        None => vec![None],
        Some(name) => vec![Some(parse_grid_solver(name)?)],
    };
    let nx = options.integer("nx", 16, 1..=MAX_GRID_SIDE)?;
    let ny = options.integer("ny", 16, 1..=MAX_GRID_SIDE)?;
    let campaign = Campaign::new(config)
        .with_benchmarks(benchmarks)
        .with_flows(flows)
        .with_policies(policies)
        .with_seeds(seeds)
        .with_solvers(solvers)
        .with_grid_resolution(nx, ny);
    if campaign.is_empty() {
        return Err(CliError::Execution(
            "the campaign has no scenarios (an axis is empty)".to_string(),
        ));
    }
    Ok(campaign)
}

/// `tats batch --dry-run` — the enumerated scenario list and shard
/// assignment, without running anything. Operators planning a distributed
/// campaign read this to see what each `--shard i/n` slice (or each of `n`
/// service shards) will contain.
fn batch_dry_run(campaign: &Campaign, shard: Shard) -> String {
    let scenarios = campaign.scenarios();
    let selected = campaign.shard_scenarios(shard).len();
    let mut out = format!(
        "batch campaign dry run: {} scenario(s) total; shard {shard} would run {selected}\n\n",
        scenarios.len(),
    );
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|scenario| {
            vec![
                scenario.id.to_string(),
                scenario.benchmark.name().to_string(),
                scenario.flow.name().to_string(),
                tats_engine::policy_slug(scenario.policy).to_string(),
                scenario
                    .solver
                    .map_or("-".to_string(), |solver| solver.name().to_string()),
                scenario.seed.to_string(),
                format!("{}/{}", scenario.id % shard.count as u64, shard.count),
                if shard.owns(scenario.id) { "*" } else { "" }.to_string(),
            ]
        })
        .collect();
    out.push_str(&markdown::markdown_table(
        &[
            "id",
            "benchmark",
            "flow",
            "policy",
            "solver",
            "seed",
            "shard",
            "selected",
        ],
        &rows,
    ));
    out
}

/// `tats batch` — run a scenario campaign through the sharded batch engine.
///
/// Results stream to `--out` as JSON Lines the moment each scenario
/// completes (or into the returned output without `--out`); the command then
/// prints the campaign summary, throughput and cache statistics. `--shard
/// i/n` runs the deterministic `i`-of-`n` slice of the scenario list, and
/// `--resume` skips scenario ids already present in `--out`, so campaigns
/// are splittable across machines and restartable after an interrupt.
/// `--dry-run` prints the scenario list and shard assignment instead of
/// running.
pub fn batch(options: &Options) -> Result<String, CliError> {
    let shard = Shard::parse(options.value_or("shard", "0/1")).map_err(execution_error)?;
    let threads = options.integer("threads", 0, 0..=usize::MAX)?;
    let campaign = campaign_from_options(options)?;
    if options.switch("dry-run") {
        return Ok(batch_dry_run(&campaign, shard));
    }
    let scenarios = campaign.shard_scenarios(shard);

    // Resume: collect the scenario ids already present in the output file.
    // Ids are enumeration indices of the *current* campaign definition, so
    // every line must also carry the key that campaign assigns to its id —
    // otherwise the file belongs to a different campaign and trusting its
    // ids would silently drop scenarios and mix mislabeled records.
    let out_path = options.value("out");
    let mut skip = std::collections::BTreeSet::new();
    let mut resumed_note = String::new();
    if options.switch("resume") {
        let Some(path) = out_path else {
            return Err(CliError::Execution(
                "--resume needs --out to know which results already exist".to_string(),
            ));
        };
        match std::fs::read_to_string(path) {
            Ok(existing) => {
                let expected: std::collections::HashMap<u64, String> = campaign
                    .scenarios()
                    .iter()
                    .map(|s| (s.id, s.key()))
                    .collect();
                for line in existing.lines().filter(|l| !l.trim().is_empty()) {
                    if !tats_trace::jsonl::is_complete_record(line) {
                        continue; // truncated record: scenario simply re-runs
                    }
                    let Some(id) = tats_trace::jsonl::line_id(line) else {
                        continue; // no id survived: likewise re-runs
                    };
                    let key = tats_trace::jsonl::line_str_field(line, "key");
                    match (expected.get(&id), key) {
                        (Some(want), Some(got)) if want == got => {
                            skip.insert(id);
                        }
                        _ => {
                            return Err(CliError::Execution(format!(
                                "'{path}' was not produced by this campaign (scenario id {id} \
                                 is {} there but {} here); point --out at a fresh file",
                                key.unwrap_or("unlabeled"),
                                expected
                                    .get(&id)
                                    .map(String::as_str)
                                    .unwrap_or("out of range"),
                            )))
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(execution_error(e)),
        }
        // Only after the file is validated as *this campaign's* output:
        // a worker killed mid-write leaves a partial trailing line — drop
        // it (the scenario re-runs) so the append below starts on a fresh
        // line instead of concatenating onto the partial record. Mutating
        // before validating would shrink a mismatched file and then error.
        let dropped = tats_trace::jsonl::truncate_partial_tail(std::path::Path::new(path))
            .map_err(execution_error)?;
        if dropped > 0 {
            resumed_note = format!(
                "dropped a partial trailing record ({dropped} byte(s)) from {path}; \
                 its scenario will re-run\n"
            );
        }
    } else if let Some(path) = out_path {
        // Without --resume an existing non-empty output would be appended
        // to, duplicating every id — refuse instead of corrupting it.
        if std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            return Err(CliError::Execution(format!(
                "output file '{path}' already exists and is not empty; \
                 pass --resume to continue it or remove it first"
            )));
        }
    }

    let executor = Executor::new(threads);
    let mut summary = Summary::new();
    let mut inline_lines = String::new();
    let run = match out_path {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(execution_error)?;
            let mut writer = tats_trace::jsonl::JsonlWriter::new(file);
            executor
                .run(&campaign, &scenarios, &skip, |record| {
                    writer.write(&record.to_json())?;
                    summary.record(record);
                    Ok(())
                })
                .map_err(execution_error)?
        }
        None => executor
            .run(&campaign, &scenarios, &skip, |record| {
                inline_lines.push_str(&record.to_json().to_json());
                inline_lines.push('\n');
                summary.record(record);
                Ok(())
            })
            .map_err(execution_error)?,
    };

    // The report's thread count is what actually ran (the executor clamps
    // to the number of pending scenarios), so the header can't contradict
    // the summary.
    let mut out = format!(
        "batch campaign: {} scenarios in shard {shard} (of {} total), {} worker thread(s)\n",
        scenarios.len(),
        campaign.len(),
        run.report.threads,
    );
    out.push_str(&resumed_note);
    if run.report.skipped > 0 {
        out.push_str(&format!(
            "resumed: {} scenario(s) already in {}, skipped\n",
            run.report.skipped,
            out_path.unwrap_or("the output"),
        ));
    }
    out.push_str(&inline_lines);
    out.push('\n');
    out.push_str(&summary.to_string());
    out.push_str(&format!(
        "throughput: {:.2} scenarios/sec ({} scenarios in {:.2} s), cache hit rate {:.1}% ({} hits / {} misses)\n",
        run.report.scenarios_per_sec(),
        run.report.completed,
        run.report.wall_s,
        100.0 * run.report.cache.hit_rate(),
        run.report.cache.hits,
        run.report.cache.misses,
    ));
    if let Some(path) = out_path {
        out.push_str(&format!(
            "wrote {} record(s) to {path}\n",
            run.report.completed
        ));
    }
    Ok(out)
}

/// `tats serve` — run the campaign service HTTP server.
///
/// Prints the bound address (pass `--port 0` for an ephemeral port) and
/// blocks until the process is killed. Workers connect with `tats worker
/// --connect`, campaigns arrive via `tats submit` (or plain `curl`; see the
/// endpoint table in the `tats_service` docs). With `--journal` every
/// registry transition is persisted before it is acknowledged, and a
/// restart on the same path replays it — `kill -9` loses nothing the
/// server said yes to. `GET /metrics` serves fleet-wide Prometheus
/// counters; `--access-log` additionally appends one JSONL line per
/// served request. The structured log stream (`GET /logs`, filtered by
/// `TATS_LOG`) tees to disk with `--log-file`.
pub fn serve(options: &Options) -> Result<String, CliError> {
    let host = options.value_or("host", "127.0.0.1");
    let port = options.integer("port", 7070, 0..=u16::MAX)?;
    let lease_ttl_ms = options.integer("lease-ttl-ms", 15_000, 0..=u64::MAX)?;
    let journal = options.value("journal").map(std::path::PathBuf::from);
    let journaled = journal.is_some();
    let compact_every_events = match options.value("compact-every-events") {
        Some(_) => Some(options.integer("compact-every-events", 0, 0..=u64::MAX)?),
        None => None,
    };
    let mut config = tats_service::ServiceConfig {
        lease_ttl_ms,
        journal,
        access_log: options.value("access-log").map(std::path::PathBuf::from),
        trace_log: options.value("trace-log").map(std::path::PathBuf::from),
        log_file: options.value("log-file").map(std::path::PathBuf::from),
        compact_every_events,
        client_quota: options.integer("client-quota", 0, 0..=usize::MAX)?,
        max_connections: options.integer(
            "max-connections",
            tats_service::ServiceConfig::default().max_connections,
            0..=usize::MAX,
        )?,
        ..tats_service::ServiceConfig::default()
    };
    if options.switch("no-keep-alive") {
        config.keep_alive_max_requests = 0;
    }
    let handle =
        tats_service::Service::bind(&format!("{host}:{port}"), config).map_err(execution_error)?;
    // The binary prints the command's return value only when it *returns*;
    // serve never does, so announce the address (CI and operators parse it)
    // directly and keep serving until the process dies.
    println!("tats_service listening on {}", handle.addr());
    if journaled {
        let replay = handle.replay_report();
        println!(
            "journal replayed: {} event(s), {} snapshot(s), {} job(s), {} record(s), \
             {} repaired byte(s)",
            replay.events, replay.snapshots, replay.jobs, replay.records, replay.repaired_bytes,
        );
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// `tats worker` — lease and run campaign shards from a `tats serve`
/// instance until killed (or, with `--exit-when-drained`, until the server
/// has no unfinished jobs). Structured log events (lease churn, retries,
/// the exit reason; `TATS_LOG`-filtered) stream to stderr as JSONL, so
/// stdout stays the one-line report.
pub fn worker(options: &Options) -> Result<String, CliError> {
    use tats_trace::log::{log_channel, LogFilter};

    let addr = options
        .value("connect")
        .ok_or_else(|| CliError::Execution("worker requires --connect host:port".to_string()))?;
    let (sink, mut drain) = log_channel(LogFilter::from_env());
    let config = tats_service::WorkerConfig {
        name: options
            .value_or("name", &tats_service::WorkerConfig::default().name)
            .to_string(),
        threads: options.integer("threads", 0, 0..=usize::MAX)?,
        poll_ms: options.integer("poll-ms", 200, 0..=u64::MAX)?,
        exit_when_drained: options.switch("exit-when-drained"),
        log: Some(sink),
        ..tats_service::WorkerConfig::default()
    };
    // The worker loop blocks this thread, so a helper pumps the log drain
    // to stderr until the loop returns; the final pass after the done flag
    // is observed cannot miss lines because the loop has stopped emitting
    // by the time the flag is set.
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pump = {
        let done = std::sync::Arc::clone(&done);
        std::thread::spawn(move || loop {
            for line in drain.drain_lines() {
                eprintln!("{line}");
            }
            if done.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
    };
    let result = tats_service::run_worker(addr, &config);
    done.store(true, std::sync::atomic::Ordering::Release);
    let _ = pump.join();
    let report = result.map_err(execution_error)?;
    Ok(format!(
        "worker {}: completed {} shard(s), streamed {} record(s), {} idle poll(s)\n",
        config.name, report.shards_completed, report.records_posted, report.idle_polls,
    ))
}

/// `tats submit` — submit a campaign (same axis options as `tats batch`) to
/// a `tats serve` instance as a job of `--shards` deterministic shards.
/// With `--wait`, polls the job over one keep-alive connection, streams its
/// records (to `--out` or into the output) as they arrive, and prints the
/// same campaign summary `tats batch` prints — distributed and in-process
/// runs are interchangeable at the command line. The poll loop retries
/// transient failures with capped backoff and resumes from the last
/// `x-next-from`, so a journaled server restart mid-wait neither
/// duplicates nor drops a record.
pub fn submit(options: &Options) -> Result<String, CliError> {
    use tats_service::client;
    use tats_trace::JsonValue;

    let addr = options
        .value("connect")
        .ok_or_else(|| CliError::Execution("submit requires --connect host:port".to_string()))?;
    let shards = options.integer("shards", 4, 0..=usize::MAX)?;
    let poll_ms = options.integer("poll-ms", 200, 0..=u64::MAX)?;
    let campaign = campaign_from_options(options)?;
    let spec = tats_engine::CampaignSpec::from_campaign(&campaign).map_err(execution_error)?;

    let out_path = options.value("out");
    if let Some(path) = out_path {
        if std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            return Err(CliError::Execution(format!(
                "output file '{path}' already exists and is not empty; remove it first"
            )));
        }
    }

    // Every submission is traced end-to-end: the trace id sent with the job
    // seeds the whole campaign's span stream (`GET /jobs/{id}/spans`,
    // `tats trace`). `--trace-seed` pins it for reproducible streams; the
    // default mixes the clock and pid so concurrent submitters differ.
    let trace_seed = match options.value("trace-seed") {
        Some(text) => text.parse::<u64>().map_err(|_| CliError::InvalidValue {
            option: "trace-seed".to_string(),
            value: text.to_string(),
            expected: "an unsigned integer".to_string(),
        })?,
        None => tats_trace::spans::now_us() ^ u64::from(std::process::id()).rotate_left(40),
    };
    let trace_id = tats_trace::spans::SpanIdGen::seeded(trace_seed).next_id();
    let trace_hex = tats_trace::spans::id_hex(trace_id);
    // Admission identity: the server leases fairly across clients within a
    // priority tier, and a per-client quota (429 + retry-after, retried by
    // the policy below) may apply.
    let priority = options.integer("priority", 0, 0..=u64::MAX)?;
    let submission = tats_service::Submission::new(spec, shards)
        .for_client(options.value("client").unwrap_or("default"), priority);
    let submit_body = JsonValue::object(submission.to_fields()).to_json();
    let submit_headers = [("x-trace-id", trace_hex.clone())];
    let response = client::request(addr, "POST", "/jobs", &submit_headers, Some(&submit_body))
        .and_then(client::expect_ok)
        .map_err(execution_error)?;
    let response = JsonValue::parse(&response.body)
        .map_err(|e| CliError::Execution(format!("submit response from server: {e}")))?;
    let job = response
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CliError::Execution("server response carries no job id".to_string()))?
        .to_string();
    let shard_count = response
        .get("shards")
        .and_then(|s| s.get("count"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(shards as u64);
    // Cross-check the fingerprint: server and submitter must agree on what
    // every scenario id means before anyone trusts the record stream.
    let fingerprint = response
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    if fingerprint != submission.spec.fingerprint() {
        return Err(CliError::Execution(format!(
            "campaign fingerprint mismatch: server derived {fingerprint}, \
             this build derives {} — refusing to trust the job",
            submission.spec.fingerprint()
        )));
    }

    let mut out = format!(
        "submitted job {job}: {} scenario(s) in {} shard(s) on {addr} \
         (fingerprint {fingerprint}, trace {trace_hex})\n",
        campaign.len(),
        shard_count,
    );
    if !options.switch("wait") {
        out.push_str(&format!(
            "poll with: curl http://{addr}/jobs/{job}  (records: /jobs/{job}/records, \
             spans: /jobs/{job}/spans)\n"
        ));
        return Ok(out);
    }

    // Wait: page records as they arrive, aggregate the same summary `tats
    // batch` prints, and stop once the job reports done and the stream is
    // fully fetched.
    let mut writer: Option<tats_trace::jsonl::JsonlWriter<std::fs::File>> = match out_path {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(execution_error)?;
            Some(tats_trace::jsonl::JsonlWriter::new(file))
        }
        None => None,
    };
    let mut summary = Summary::new();
    let mut inline_lines = String::new();
    let mut from = 0usize;
    let mut fetched = 0usize;
    // One keep-alive connection for the whole wait; the retry policy rides
    // out a server restart (the journal preserves the job, `from` preserves
    // our place in its record stream).
    let retry = tats_service::RetryPolicy::default();
    let mut connection = client::Connection::new(addr);
    let mut last_progress: Option<std::time::Instant> = None;
    // On an interactive terminal the progress line repaints in place
    // (carriage return + erase-line); redirected to a file or pipe it
    // degrades to one plain line per update, so logs stay grep-able.
    let progress_tty = std::io::IsTerminal::is_terminal(&std::io::stderr());
    let mut progress_inline = false;
    loop {
        let status_path = format!("/jobs/{job}");
        let status = retry
            .run(|| connection.get(&status_path))
            .map_err(execution_error)?;
        let done = JsonValue::parse(&status.body)
            .map_err(|e| CliError::Execution(format!("job status from server: {e}")))?
            .field_str("state")
            .map_err(|m| CliError::Execution(format!("job status from server: {m}")))?
            == "done";
        let page_path = format!("/jobs/{job}/records?from={from}");
        let page = retry
            .run(|| connection.get(&page_path))
            .map_err(execution_error)?;
        for line in page.body.lines() {
            let value = JsonValue::parse(line)
                .map_err(|e| CliError::Execution(format!("record from server: {e}")))?;
            let record = tats_engine::ScenarioRecord::from_json(&value).map_err(execution_error)?;
            summary.record(&record);
            match &mut writer {
                Some(writer) => writer.write(&value).map_err(execution_error)?,
                None => {
                    inline_lines.push_str(line);
                    inline_lines.push('\n');
                }
            }
            fetched += 1;
        }
        from = page
            .header("x-next-from")
            .and_then(|value| value.parse().ok())
            .unwrap_or(from + page.body.lines().count());
        if done {
            break;
        }
        // At most one progress line per second, on stderr so a redirected
        // stdout still carries only records and the summary. Best-effort:
        // a failed progress poll never fails the wait.
        if last_progress
            .is_none_or(|at: std::time::Instant| at.elapsed() >= std::time::Duration::from_secs(1))
        {
            last_progress = Some(std::time::Instant::now());
            let progress_path = format!("/jobs/{job}/progress");
            if let Ok(progress) = retry.run(|| connection.get(&progress_path)) {
                if let Ok(progress) = JsonValue::parse(&progress.body) {
                    let done = progress
                        .get("done")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0);
                    let total = progress
                        .get("total")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0);
                    let mut line = format!("job {job}: {done}/{total} record(s)");
                    if let Some(rate) = progress.get("records_per_sec").and_then(JsonValue::as_f64)
                    {
                        line.push_str(&format!(", {rate:.1}/s"));
                    }
                    line.push_str(&format!(
                        ", eta {}",
                        format_eta(progress.get("eta_s").and_then(JsonValue::as_f64))
                    ));
                    // Name the engine phase with the worst tail latency so
                    // an operator sees *where* a slow campaign is slow.
                    if let Some((phase, p99_us)) = progress
                        .get("phases")
                        .and_then(JsonValue::as_array)
                        .into_iter()
                        .flatten()
                        .filter_map(|entry| {
                            Some((
                                entry.get("phase")?.as_str()?,
                                entry.get("p99_us")?.as_u64()?,
                            ))
                        })
                        .max_by_key(|&(_, p99_us)| p99_us)
                    {
                        line.push_str(&format!(
                            ", slow phase: {phase} p99 {}ms",
                            p99_us.div_ceil(1_000)
                        ));
                    }
                    if progress_tty {
                        use std::io::Write;
                        eprint!("\r\x1b[2K{line}");
                        let _ = std::io::stderr().flush();
                        progress_inline = true;
                    } else {
                        eprintln!("{line}");
                    }
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
    }
    if progress_inline {
        // Terminate the repainted progress line so the summary that follows
        // starts on its own row.
        eprintln!();
    }

    out.push_str(&inline_lines);
    out.push('\n');
    out.push_str(&summary.to_string());
    match out_path {
        Some(path) => out.push_str(&format!("fetched {fetched} record(s) to {path}\n")),
        None => out.push_str(&format!("fetched {fetched} record(s)\n")),
    }
    Ok(out)
}

/// `tats compact` — ask a journaled `tats serve` instance to fold its
/// journal into one snapshot event (`POST /compact`). Replay after a
/// restart fast-forwards from the snapshot instead of re-applying the
/// full history; the report prints how many bytes the fold reclaimed.
/// A server running without `--journal` refuses with 400.
pub fn compact(options: &Options) -> Result<String, CliError> {
    use tats_service::client;
    use tats_trace::JsonValue;

    let addr = options
        .value("connect")
        .ok_or_else(|| CliError::Execution("compact requires --connect host:port".to_string()))?;
    let report = client::post_json(addr, "/compact", &JsonValue::object(Vec::new()))
        .map_err(execution_error)?;
    let bytes_before = report
        .get("bytes_before")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| CliError::Execution("compact response carries no bytes_before".into()))?;
    let bytes_after = report
        .get("bytes_after")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| CliError::Execution("compact response carries no bytes_after".into()))?;
    Ok(format!(
        "journal compacted on {addr}: {bytes_before} -> {bytes_after} byte(s)\n"
    ))
}

/// ETAs beyond this horizon (30 days, in seconds) are noise, not a
/// forecast: a throughput that rounds to zero divides into an absurd
/// number that would still be printed as if it meant something.
const ETA_CLAMP_S: f64 = 30.0 * 24.0 * 3_600.0;

/// Renders a progress `eta_s` field for the `submit --wait` progress line
/// and the `tats top` job table. Missing, non-finite, negative and
/// over-horizon values all collapse to `--` instead of a nonsense number.
fn format_eta(eta_s: Option<f64>) -> String {
    match eta_s {
        Some(eta) if eta.is_finite() && (0.0..=ETA_CLAMP_S).contains(&eta) => format!("{eta:.0}s"),
        _ => "--".to_string(),
    }
}

/// Lines of server log tail shown per `tats top` frame.
const TOP_LOG_TAIL: usize = 12;

/// One rendered `tats top` frame: fleet header, per-job progress rows
/// (bar, rate, ETA, slowest engine phase), per-worker rows and the log
/// tail. Plain text with no ANSI — the live view adds only the repaint
/// prefix, so `--once` output is byte-for-byte a frame.
fn top_frame(
    connection: &mut tats_service::client::Connection,
    retry: &tats_service::RetryPolicy,
    addr: &str,
) -> Result<String, CliError> {
    use tats_trace::JsonValue;

    let fetch = |connection: &mut tats_service::client::Connection,
                 path: &str|
     -> Result<JsonValue, CliError> {
        let response = retry
            .run(|| connection.get(path))
            .map_err(execution_error)?;
        JsonValue::parse(&response.body)
            .map_err(|e| CliError::Execution(format!("{path} from server: {e}")))
    };
    let jobs_value = fetch(connection, "/jobs")?;
    let workers_value = fetch(connection, "/workers")?;
    let empty: &[JsonValue] = &[];
    let jobs = jobs_value
        .get("jobs")
        .and_then(JsonValue::as_array)
        .unwrap_or(empty);
    let workers = workers_value
        .get("workers")
        .and_then(JsonValue::as_array)
        .unwrap_or(empty);

    let total_records: u64 = jobs
        .iter()
        .filter_map(|job| job.get("records").and_then(JsonValue::as_u64))
        .sum();
    // Fleet throughput: lifetime rates of the workers still inside their
    // lease TTL (a stale worker's historical rate is not throughput).
    let fleet_rate: f64 = workers
        .iter()
        .filter(|row| row.get("status").and_then(JsonValue::as_str) != Some("stale"))
        .filter_map(|row| row.get("records_per_sec").and_then(JsonValue::as_f64))
        .sum();
    let mut frame = format!(
        "tats top — {addr}\nfleet: {} job(s), {} worker(s), {} record(s), {:.1} records/s\n",
        jobs.len(),
        workers.len(),
        total_records,
        fleet_rate,
    );

    frame.push_str("\nJOB       STATE     PROGRESS                     RECORDS         RATE      ETA  SLOW PHASE\n");
    if jobs.is_empty() {
        frame.push_str("  (no jobs submitted)\n");
    }
    for job in jobs {
        let id = job.get("job").and_then(JsonValue::as_str).unwrap_or("?");
        let state = job.get("state").and_then(JsonValue::as_str).unwrap_or("?");
        let progress = fetch(connection, &format!("/jobs/{id}/progress"))?;
        let done = progress
            .get("done")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let total = progress
            .get("total")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let width = 20usize;
        let filled = ((done.min(total) as usize * width) / total.max(1) as usize).min(width);
        let bar = format!(
            "[{}{}] {:>3}%",
            "#".repeat(filled),
            "-".repeat(width - filled),
            done * 100 / total.max(1),
        );
        let rate = progress
            .get("records_per_sec")
            .and_then(JsonValue::as_f64)
            .map_or_else(|| "-".to_string(), |rate| format!("{rate:.1}/s"));
        let eta = format_eta(progress.get("eta_s").and_then(JsonValue::as_f64));
        // The engine phase with the worst tail latency, same signal the
        // submit --wait progress line names.
        let slow = progress
            .get("phases")
            .and_then(JsonValue::as_array)
            .into_iter()
            .flatten()
            .filter_map(|entry| {
                Some((
                    entry.get("phase")?.as_str()?.to_string(),
                    entry.get("p50_us")?.as_u64()?,
                    entry.get("p99_us")?.as_u64()?,
                ))
            })
            .max_by_key(|&(_, _, p99_us)| p99_us)
            .map_or_else(
                || "-".to_string(),
                |(phase, p50_us, p99_us)| {
                    format!(
                        "{phase} p50 {}ms p99 {}ms",
                        p50_us.div_ceil(1_000),
                        p99_us.div_ceil(1_000)
                    )
                },
            );
        frame.push_str(&format!(
            "{id:<9} {state:<9} {bar:<26} {done:>6}/{total:<6} {rate:>8} {eta:>8}  {slow}\n"
        ));
    }

    frame.push_str("\nWORKER                STATUS   RECORDS      RATE  LAST SEEN\n");
    if workers.is_empty() {
        frame.push_str("  (no workers seen)\n");
    }
    for row in workers {
        let name = row.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let status = row.get("status").and_then(JsonValue::as_str).unwrap_or("?");
        let records = row.get("records").and_then(JsonValue::as_u64).unwrap_or(0);
        let rate = row
            .get("records_per_sec")
            .and_then(JsonValue::as_f64)
            .map_or_else(|| "-".to_string(), |rate| format!("{rate:.1}/s"));
        let age = row
            .get("last_seen_age_ms")
            .and_then(JsonValue::as_u64)
            .map_or_else(
                || "-".to_string(),
                |ms| format!("{:.1}s ago", ms as f64 / 1_000.0),
            );
        frame.push_str(&format!(
            "{name:<21} {status:<8} {records:>7} {rate:>9}  {age}\n"
        ));
    }

    // Log tail: one empty probe learns the ring's next index from
    // x-next-from, the second request pages just the last few lines.
    let probe = retry
        .run(|| connection.get(&format!("/logs?from={}", usize::MAX)))
        .map_err(execution_error)?;
    let next: usize = probe
        .header("x-next-from")
        .and_then(|value| value.parse().ok())
        .unwrap_or(0);
    let tail = retry
        .run(|| connection.get(&format!("/logs?from={}", next.saturating_sub(TOP_LOG_TAIL))))
        .map_err(execution_error)?;
    let count = tail.body.lines().count();
    frame.push_str(&format!("\nLOG  last {count} of {next} line(s)\n"));
    if count == 0 {
        frame.push_str("  (log ring is empty)\n");
    }
    for line in tail.body.lines() {
        frame.push_str("  ");
        frame.push_str(line);
        frame.push('\n');
    }
    Ok(frame)
}

/// `tats top` — live operator console for a `tats serve` fleet: fleet
/// throughput, per-job progress bars with rate/ETA and the slowest engine
/// phase (p50/p99 from `GET /jobs/{id}/progress`), per-worker
/// status/rate/last-seen rows, and a scrolling tail of the server's
/// structured log (`GET /logs`). The live view repaints in place every
/// `--interval-ms` until killed; `--once` returns a single plain-text
/// snapshot (no ANSI) for scripts and CI.
pub fn top(options: &Options) -> Result<String, CliError> {
    let addr = options
        .value("connect")
        .ok_or_else(|| CliError::Execution("top requires --connect host:port".to_string()))?;
    let interval_ms = options.integer("interval-ms", 1_000, 0..=u64::MAX)?;
    let retry = tats_service::RetryPolicy::default();
    let mut connection = tats_service::client::Connection::new(addr);
    if options.switch("once") {
        return top_frame(&mut connection, &retry, addr);
    }
    loop {
        let frame = top_frame(&mut connection, &retry, addr)?;
        // Cursor home + clear: a steady repainted frame instead of
        // scrollback spam. Only the live view emits ANSI.
        print!("\x1b[H\x1b[2J{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// `tats trace` — explore a span stream: reconstruct the span forest of a
/// campaign (from `tats serve --trace-log` output or a drained
/// `GET /jobs/{id}/spans` stream), print the critical path, per-phase and
/// per-axis breakdowns and per-shard lease-to-first-record latency, and
/// optionally export a Chrome trace-event timeline (`--chrome out.json`)
/// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn trace(input: Option<&str>, options: &Options) -> Result<String, CliError> {
    use std::collections::BTreeMap;
    use tats_trace::spans::{chrome_trace, SpanEvent, SpanForest};
    use tats_trace::JsonValue;

    let path = input.ok_or_else(|| {
        CliError::Execution("trace needs a span file: tats trace <spans.jsonl>".to_string())
    })?;
    let text = std::fs::read_to_string(path).map_err(execution_error)?;
    let mut spans = Vec::new();
    let mut ignored = 0usize;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        // Mixed streams are fine: non-span lines (an access log sharing the
        // file, a partial tail) are counted and skipped, not fatal.
        if !SpanEvent::is_span_line(line) {
            ignored += 1;
            continue;
        }
        match SpanEvent::parse_line(line) {
            Ok(span) => spans.push(span),
            Err(_) => ignored += 1,
        }
    }
    if spans.is_empty() {
        return Err(CliError::Execution(format!(
            "'{path}' holds no span events"
        )));
    }
    // Keep the first occurrence of every span id: a re-leased shard re-posts
    // deterministic ids, and a crash-window trace log may repeat a batch.
    let mut seen = std::collections::BTreeSet::new();
    spans.retain(|span| seen.insert(span.span_id));
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    let forest = SpanForest::build(spans);

    let mut out = format!(
        "span trace from {path}: {} span(s), {} trace(s), wall-clock {:.3} s\n",
        forest.len(),
        traces.len(),
        forest.wall_us() as f64 / 1e6,
    );
    if ignored > 0 {
        out.push_str(&format!("({ignored} non-span line(s) ignored)\n"));
    }

    // Critical path: the chain of spans that had to finish for the campaign
    // to finish, each hop with its own duration and salient attributes.
    let critical = forest.critical_path();
    let names: Vec<&str> = critical.iter().map(|span| span.name.as_str()).collect();
    out.push_str(&format!(
        "\ncritical path ({} hop(s), {:.3} s): {}\n",
        critical.len(),
        critical
            .first()
            .map_or(0, |root| critical.last().expect("nonempty").end_us
                - root.start_us) as f64
            / 1e6,
        names.join(" -> "),
    ));
    for span in &critical {
        let mut attrs: Vec<String> = span
            .attrs
            .iter()
            .filter(|(key, _)| {
                ["benchmark", "policy", "shard", "worker", "job"].contains(&key.as_str())
            })
            .map(|(key, value)| format!("{key}={value}"))
            .collect();
        attrs.sort();
        out.push_str(&format!(
            "  {:<12} {:>12.3} ms  {}\n",
            span.name,
            span.duration_us() as f64 / 1e3,
            attrs.join(" "),
        ));
    }

    // Per-phase totals across every scenario.
    out.push_str("\nper-phase totals:\n");
    for phase in ["scheduling", "thermal", "floorplan", "grid"] {
        let total = forest.total_us_where(|span| span.name == phase);
        if total > 0 {
            out.push_str(&format!("  {phase:<12} {:>12.3} ms\n", total as f64 / 1e3));
        }
    }

    // Thermal-solve time by benchmark x policy: phase spans are children of
    // their scenario span, which carries the axis attributes.
    let mut thermal: BTreeMap<(String, String), u64> = BTreeMap::new();
    for scenario in forest.spans().iter().filter(|span| span.name == "scenario") {
        let benchmark = scenario.attrs.get("benchmark").cloned().unwrap_or_default();
        let policy = scenario.attrs.get("policy").cloned().unwrap_or_default();
        let solve: u64 = forest
            .children_of(scenario.span_id)
            .filter(|child| child.name == "thermal")
            .map(SpanEvent::duration_us)
            .sum();
        *thermal.entry((benchmark, policy)).or_insert(0) += solve;
    }
    if !thermal.is_empty() {
        let rows: Vec<Vec<String>> = thermal
            .iter()
            .map(|((benchmark, policy), total)| {
                vec![
                    benchmark.clone(),
                    policy.clone(),
                    format!("{:.3}", *total as f64 / 1e3),
                ]
            })
            .collect();
        out.push_str("\nthermal solve by benchmark x policy:\n\n");
        out.push_str(&markdown::markdown_table(
            &["benchmark", "policy", "thermal ms"],
            &rows,
        ));
    }

    // Lease-to-first-record latency per shard, from the server's transition
    // spans (both are zero-width stamps on the job's synthetic clock).
    let mut lease_at: BTreeMap<String, u64> = BTreeMap::new();
    let mut first_record_at: BTreeMap<String, u64> = BTreeMap::new();
    for span in forest.spans() {
        let Some(shard) = span.attrs.get("shard") else {
            continue;
        };
        match span.name.as_str() {
            "lease" => {
                lease_at
                    .entry(shard.clone())
                    .and_modify(|at| *at = (*at).min(span.start_us))
                    .or_insert(span.start_us);
            }
            "ingest" => {
                first_record_at
                    .entry(shard.clone())
                    .and_modify(|at| *at = (*at).min(span.start_us))
                    .or_insert(span.start_us);
            }
            _ => {}
        }
    }
    if !lease_at.is_empty() {
        out.push_str("\nlease-to-first-record latency per shard:\n");
        for (shard, leased) in &lease_at {
            match first_record_at.get(shard) {
                Some(first) => out.push_str(&format!(
                    "  shard {shard:<6} {:>12.3} ms\n",
                    first.saturating_sub(*leased) as f64 / 1e3
                )),
                None => out.push_str(&format!("  shard {shard:<6}         (no records)\n")),
            }
        }
    }

    // Chrome trace-event export, validated by re-parsing so a file Perfetto
    // rejects never leaves this command silently.
    if let Some(chrome_path) = options.value("chrome") {
        let exported = chrome_trace(forest.spans());
        let serialized = exported.to_json();
        JsonValue::parse(&serialized)
            .map_err(|e| CliError::Execution(format!("chrome export does not round-trip: {e}")))?;
        std::fs::write(chrome_path, &serialized).map_err(execution_error)?;
        let events = exported
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .map_or(0, <[JsonValue]>::len);
        out.push_str(&format!(
            "\nwrote {events} trace event(s) to {chrome_path} \
             (load in chrome://tracing or https://ui.perfetto.dev)\n"
        ));
    }
    Ok(out)
}

/// `tats export` — export a benchmark task graph as TGFF text or Graphviz.
pub fn export(options: &Options) -> Result<String, CliError> {
    let benchmark = parse_benchmark(options.value_or("benchmark", "Bm1"))?;
    let graph = benchmark.task_graph().map_err(execution_error)?;
    match options.value_or("format", "tgff") {
        "tgff" => Ok(tgff::to_tgff(&graph)),
        "dot" => Ok(dot::to_dot(&graph)),
        other => Err(CliError::InvalidValue {
            option: "format".to_string(),
            value: other.to_string(),
            expected: "tgff or dot".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str], values: &[&str], switches: &[&str]) -> Options {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Options::parse(&args, values, switches).expect("parse")
    }

    #[test]
    fn help_mentions_every_command() {
        let text = help();
        for command in [
            "tables",
            "schedule",
            "sweep",
            "reliability",
            "dvs",
            "grid",
            "batch",
            "serve",
            "worker",
            "submit",
            "compact",
            "top",
            "trace",
            "export",
        ] {
            assert!(text.contains(command), "help must mention {command}");
        }
        for option in [
            "--shard",
            "--resume",
            "--threads",
            "--out",
            "--dry-run",
            "--connect",
            "--shards",
            "--wait",
            "--lease-ttl-ms",
            "--exit-when-drained",
            "--trace-log",
            "--trace-seed",
            "--chrome",
            "--log-file",
            "--interval-ms",
            "--once",
            "--compact-every-events",
            "--client-quota",
            "--max-connections",
            "--client",
            "--priority",
        ] {
            assert!(text.contains(option), "help must document {option}");
        }
    }

    #[test]
    fn eta_formatting_clamps_nonsense_to_dashes() {
        assert_eq!(format_eta(Some(42.4)), "42s");
        assert_eq!(format_eta(Some(0.0)), "0s");
        // A rate that rounds to zero yields a missing, infinite or absurd
        // eta_s — every shape of that must print as `--`, not a number.
        assert_eq!(format_eta(None), "--");
        assert_eq!(format_eta(Some(f64::NAN)), "--");
        assert_eq!(format_eta(Some(f64::INFINITY)), "--");
        assert_eq!(format_eta(Some(-3.0)), "--");
        assert_eq!(format_eta(Some(ETA_CLAMP_S + 1.0)), "--");
        assert_eq!(format_eta(Some(ETA_CLAMP_S)), "2592000s");
    }

    #[test]
    fn schedule_platform_reports_metrics_and_artefacts() {
        let options = opts(
            &[
                "--benchmark",
                "Bm1",
                "--policy",
                "thermal",
                "--gantt",
                "--csv",
                "--json",
            ],
            &["benchmark", "policy", "arch"],
            &["gantt", "csv", "json"],
        );
        let out = schedule(&options).expect("schedule");
        assert!(out.contains("max temp"));
        assert!(out.contains("PE0"));
        assert!(out.contains("task,name,pe"));
        assert!(out.contains("\"assignments\""));
    }

    #[test]
    fn schedule_rejects_unknown_architecture() {
        let options = opts(&["--arch", "fpga"], &["arch"], &[]);
        assert!(matches!(
            schedule(&options),
            Err(CliError::InvalidValue { .. })
        ));
    }

    #[test]
    fn export_produces_tgff_and_dot() {
        let tgff_out = export(&opts(
            &["--benchmark", "Bm2"],
            &["benchmark", "format"],
            &[],
        ))
        .expect("tgff export");
        assert!(tgff_out.starts_with("@GRAPH Bm2"));
        let dot_out = export(&opts(
            &["--benchmark", "Bm2", "--format", "dot"],
            &["benchmark", "format"],
            &[],
        ))
        .expect("dot export");
        assert!(dot_out.contains("digraph"));
        assert!(export(&opts(&["--format", "png"], &["format"], &[])).is_err());
    }

    #[test]
    fn sweep_produces_one_row_per_size() {
        let options = opts(
            &["--sizes", "2,10,20", "--policy", "baseline"],
            &["sizes", "policy"],
            &[],
        );
        let out = sweep(&options).expect("sweep");
        let data_rows = out
            .lines()
            .filter(|line| line.starts_with("| 1") || line.starts_with("| 2"))
            .count();
        assert_eq!(data_rows, 3);
        // The smallest size holds the one edge a 2-task DAG can carry.
        assert!(out.contains("\n| 2 | 1 | "), "{out}");
    }

    #[test]
    fn dvs_reports_an_operating_point() {
        // The steady peak before and after scaling, under the default thermal
        // policy.
        let peaks = |benchmark: &str| -> (f64, f64) {
            let options = opts(&["--benchmark", benchmark], &["benchmark", "policy"], &[]);
            let out = dvs(&options).expect("dvs");
            assert!(out.contains("selected operating point"));
            assert!(out.contains("energy saving"));
            let line = out
                .lines()
                .find(|line| line.starts_with("steady peak before: "))
                .expect("peak line");
            let values: Vec<f64> = line
                .split(|c: char| !(c.is_ascii_digit() || c == '.'))
                .filter_map(|token| token.parse().ok())
                .collect();
            assert_eq!(values.len(), 2, "{line}");
            (values[0], values[1])
        };
        // Bm1 keeps the nominal point, so nothing changes.
        let (before, after) = peaks("Bm1");
        assert_eq!(before, after);
        // Bm3 scales down to a slower point and runs cooler.
        let (before, after) = peaks("Bm3");
        assert!(after < before, "{before} -> {after}");
    }

    const GRID_VALUES: &[&str] = &["benchmark", "policy", "nx", "ny"];

    #[test]
    fn grid_reports_per_pe_temperatures_for_every_solver() {
        let options = opts(
            &["--benchmark", "Bm1", "--nx", "16", "--ny", "16"],
            GRID_VALUES,
            &[],
        );
        let out = grid(&options).expect("grid");
        assert!(out.contains("PE0"), "{out}");
        assert!(out.contains("hottest grid cell"), "{out}");
        assert!(out.contains("(16x16 cells, cholesky solver)"), "{out}");
        // The largest resolution still runs.
        let options = opts(&["--nx", "128", "--ny", "1"], GRID_VALUES, &[]);
        assert!(grid(&options).expect("128 cells").contains("128x1 cells"));
    }

    #[test]
    fn grid_rejects_unknown_solver() {
        // `--solver` is gone: cholesky is the only grid solver.
        let error = crate::run(&["grid", "--solver", "pcg"].map(String::from))
            .expect_err("--solver is no longer an option");
        assert!(
            matches!(&error, CliError::UnknownOption { accepted, .. }
                if accepted == &["--benchmark", "--nx", "--ny", "--policy"]),
            "{error:?}"
        );
        // Each side lies in 1..=MAX_GRID_SIDE; 2^32 used to wrap the cell
        // count to zero and panic, 10^5 to abort on an 80 GB allocation.
        for (option, value) in [
            ("--nx", "0"),
            ("--nx", "129"),
            ("--ny", "129"),
            ("--nx", "100000"),
            ("--nx", "4294967296"),
        ] {
            let error = grid(&opts(&[option, value], GRID_VALUES, &[])).expect_err(value);
            assert!(
                matches!(&error, CliError::InvalidValue { expected, .. }
                    if expected == "an integer from 1 to 128"),
                "{option} {value}: {error:?}"
            );
        }
    }

    #[test]
    fn reliability_compares_two_policies() {
        let options = opts(&["--benchmark", "Bm1"], &["benchmark"], &[]);
        let out = reliability(&options).expect("reliability");
        assert!(out.contains("system MTTF"));
        // Exact rows: the transient peak and both MTTFs come from the
        // backward-Euler replay of each schedule.
        let rows: Vec<&str> = out.lines().filter(|line| line.starts_with("| ")).collect();
        assert_eq!(
            rows[1..],
            [
                "| Heuristic 3 | 100.44 | 77.67 | 5266 | 1502 |",
                "| Thermal-aware | 99.49 | 77.80 | 4603 | 1621 |",
            ]
        );
    }

    const BATCH_VALUES: &[&str] = &[
        "benchmarks",
        "flows",
        "policies",
        "seeds",
        "grid-solver",
        "nx",
        "ny",
        "shard",
        "threads",
        "out",
    ];

    #[test]
    fn batch_streams_records_and_summarises() {
        let options = opts(
            &[
                "--benchmarks",
                "Bm1",
                "--policies",
                "baseline,thermal",
                "--threads",
                "1",
            ],
            BATCH_VALUES,
            &["resume", "full"],
        );
        let out = batch(&options).expect("batch");
        assert!(out.contains("batch campaign: 2 scenarios"), "{out}");
        assert_eq!(out.matches("\"id\":").count(), 2, "{out}");
        assert!(out.contains("\"policy\":\"baseline\""), "{out}");
        assert!(out.contains("campaign summary: 2 scenarios"), "{out}");
        assert!(out.contains("vs baseline"), "{out}");
        assert!(out.contains("cache hit rate"), "{out}");
    }

    #[test]
    fn batch_shards_partition_the_inline_output() {
        let run_shard = |spec: &str| {
            let options = opts(
                &[
                    "--benchmarks",
                    "Bm1",
                    "--policies",
                    "baseline,power3,thermal",
                    "--shard",
                    spec,
                    "--threads",
                    "1",
                ],
                BATCH_VALUES,
                &["resume", "full"],
            );
            batch(&options).expect("batch shard")
        };
        let full: Vec<String> = run_shard("0/1")
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(str::to_string)
            .collect();
        let mut merged: Vec<String> = ["0/2", "1/2"]
            .iter()
            .flat_map(|spec| {
                run_shard(spec)
                    .lines()
                    .filter(|l| l.starts_with('{'))
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        merged.sort_by_key(|line| tats_trace::jsonl::line_id(line));
        assert_eq!(full, merged);
    }

    #[test]
    fn batch_out_file_supports_resume() {
        let path = std::env::temp_dir().join("tats_cli_batch_resume_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let path_s = path.to_str().expect("utf8 temp path");
        let run = |extra: &[&str]| {
            let mut args = vec![
                "--benchmarks",
                "Bm1",
                "--policies",
                "baseline,thermal",
                "--threads",
                "1",
                "--out",
                path_s,
            ];
            args.extend_from_slice(extra);
            batch(&opts(&args, BATCH_VALUES, &["resume", "full"])).expect("batch with --out")
        };
        // First: only shard 0/2 (scenario id 0) lands in the file.
        run(&["--shard", "0/2"]);
        // Then: the full campaign with --resume skips it and appends id 1.
        let out = run(&["--resume"]);
        assert!(out.contains("resumed: 1 scenario(s)"), "{out}");
        let file = std::fs::File::open(&path).expect("output exists");
        let ids = tats_trace::jsonl::completed_ids(std::io::BufReader::new(file)).expect("scan");
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_protects_existing_output_files() {
        let path = std::env::temp_dir().join("tats_cli_batch_guard_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let path_s = path.to_str().expect("utf8 temp path");
        let run = |extra: &[&str]| {
            let mut args = vec![
                "--benchmarks",
                "Bm1",
                "--policies",
                "baseline",
                "--threads",
                "1",
                "--out",
                path_s,
            ];
            args.extend_from_slice(extra);
            batch(&opts(&args, BATCH_VALUES, &["resume", "full"]))
        };
        run(&[]).expect("fresh file");
        // Re-running without --resume would duplicate every id: refused.
        let error = run(&[]).expect_err("must refuse to append blindly");
        assert!(error.to_string().contains("--resume"), "{error}");
        // Resuming under a *different* campaign definition: the file's id 0
        // is Bm1/baseline, the new campaign's id 0 is Bm2/thermal — refused.
        let other = batch(&opts(
            &[
                "--benchmarks",
                "Bm2",
                "--policies",
                "thermal",
                "--threads",
                "1",
                "--out",
                path_s,
                "--resume",
            ],
            BATCH_VALUES,
            &["resume", "full"],
        ))
        .expect_err("campaign mismatch must be detected");
        assert!(
            other.to_string().contains("not produced by this campaign"),
            "{other}"
        );
        let _ = std::fs::remove_file(&path);
    }

    const BATCH_SWITCHES: &[&str] = &["resume", "full", "dry-run"];

    #[test]
    fn batch_dry_run_lists_scenarios_and_shard_assignment() {
        let options = opts(
            &[
                "--benchmarks",
                "Bm1,Bm2",
                "--policies",
                "baseline,thermal",
                "--seeds",
                "0,1",
                "--shard",
                "1/2",
                "--dry-run",
            ],
            BATCH_VALUES,
            BATCH_SWITCHES,
        );
        let start = std::time::Instant::now();
        let out = batch(&options).expect("dry run");
        // 2 benchmarks x 2 policies x 2 seeds = 8 scenarios enumerated...
        assert!(out.contains("8 scenario(s) total"), "{out}");
        // ...of which shard 1/2 owns the odd ids.
        assert!(out.contains("shard 1/2 would run 4"), "{out}");
        let selected = out
            .lines()
            .filter(|line| line.starts_with('|') && line.trim_end().ends_with("| * |"))
            .count();
        assert_eq!(selected, 4, "{out}");
        // Every scenario row is printed with its owning shard.
        assert_eq!(
            out.matches("| Bm1").count() + out.matches("| Bm2").count(),
            8,
            "{out}"
        );
        assert!(out.contains("| baseline"), "{out}");
        assert!(out.contains("| 1/2"), "{out}");
        assert!(out.contains("| 0/2"), "{out}");
        // Nothing ran: a dry run of 8 scheduling scenarios would take
        // ~seconds; enumeration is instant.
        assert!(
            start.elapsed().as_secs_f64() < 1.0,
            "dry run must not execute"
        );
        // No solver axis: the column shows '-'.
        assert!(out.contains("| - "), "{out}");
    }

    #[test]
    fn batch_resume_tolerates_a_truncated_final_record() {
        let path = std::env::temp_dir().join("tats_cli_batch_truncated_tail_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let path_s = path.to_str().expect("utf8 temp path");
        let run = |extra: &[&str]| {
            let mut args = vec![
                "--benchmarks",
                "Bm1",
                "--policies",
                "baseline,thermal",
                "--threads",
                "1",
                "--out",
                path_s,
            ];
            args.extend_from_slice(extra);
            batch(&opts(&args, BATCH_VALUES, BATCH_SWITCHES))
        };
        // Shard 0/2 writes scenario id 0 completely.
        run(&["--shard", "0/2"]).expect("first run");
        // Simulate a worker killed mid-write of scenario id 1: append a
        // partial record with no trailing newline.
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("append");
            write!(file, "{{\"id\":1,\"key\":\"Bm1/platform/therm").expect("partial write");
        }
        // Resume must NOT error (the old scanner did), must drop the partial
        // tail, and must re-run exactly the truncated scenario.
        let out = run(&["--resume"]).expect("resume over truncated tail");
        assert!(out.contains("dropped a partial trailing record"), "{out}");
        assert!(out.contains("resumed: 1 scenario(s)"), "{out}");
        // The repaired file is clean JSONL with both scenarios exactly once.
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(
            text.lines().all(tats_trace::jsonl::is_complete_record),
            "{text}"
        );
        let ids = tats_trace::jsonl::completed_ids(text.as_bytes()).expect("scan");
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    /// End-to-end through the *commands*: serve (library bind), a detached
    /// worker loop, `submit --wait` — and the fetched record set equals the
    /// in-process `batch` run of the same axes.
    #[test]
    fn submit_round_trips_against_a_live_service() {
        let server =
            tats_service::Service::bind("127.0.0.1:0", tats_service::ServiceConfig::default())
                .expect("bind");
        let addr = server.addr_string();
        // A worker without exit_when_drained polls until the server stops —
        // no startup race with the submission. Detached on purpose; it ends
        // when the server does.
        {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let _ = tats_service::run_worker(
                    &addr,
                    &tats_service::WorkerConfig {
                        name: "cli-test-worker".to_string(),
                        poll_ms: 10,
                        ..tats_service::WorkerConfig::default()
                    },
                );
            });
        }
        let axes: &[&str] = &["--benchmarks", "Bm1", "--policies", "baseline,thermal"];

        let mut submit_args = vec![
            "--connect",
            &addr,
            "--shards",
            "2",
            "--wait",
            "--poll-ms",
            "20",
        ];
        submit_args.extend_from_slice(axes);
        let submit_out = submit(&opts(
            &submit_args,
            &[
                "connect",
                "benchmarks",
                "flows",
                "policies",
                "seeds",
                "grid-solver",
                "nx",
                "ny",
                "shards",
                "poll-ms",
                "out",
            ],
            &["full", "wait"],
        ))
        .expect("submit --wait");
        assert!(submit_out.contains("submitted job j"), "{submit_out}");
        assert!(
            submit_out.contains("campaign summary: 2 scenarios"),
            "{submit_out}"
        );
        assert!(submit_out.contains("fetched 2 record(s)"), "{submit_out}");

        let mut batch_args = vec!["--threads", "1"];
        batch_args.extend_from_slice(axes);
        let batch_out = batch(&opts(&batch_args, BATCH_VALUES, BATCH_SWITCHES)).expect("batch");

        // The JSONL lines are byte-identical between the distributed and
        // in-process runs.
        let pick = |text: &str| -> Vec<String> {
            let mut lines: Vec<String> = text
                .lines()
                .filter(|line| line.starts_with('{'))
                .map(str::to_string)
                .collect();
            lines.sort_by_key(|line| tats_trace::jsonl::line_id(line));
            lines
        };
        assert_eq!(pick(&submit_out), pick(&batch_out));
        server.stop();
    }

    /// Operator-console end-to-end: drive a tiny campaign to done against a
    /// live service, then render `tats top --once` and assert the frame
    /// carries a job row with its progress bar, the worker row, and the
    /// structured log tail — with no ANSI escapes (snapshot mode is for
    /// scripts and CI).
    #[test]
    fn top_once_renders_jobs_workers_and_log_tail() {
        let server = tats_service::Service::bind(
            "127.0.0.1:0",
            tats_service::ServiceConfig {
                log_filter: Some(tats_trace::log::LogFilter::at(
                    tats_trace::log::LogLevel::Debug,
                )),
                ..tats_service::ServiceConfig::default()
            },
        )
        .expect("bind");
        let addr = server.addr_string();
        {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let _ = tats_service::run_worker(
                    &addr,
                    &tats_service::WorkerConfig {
                        name: "cli-top-worker".to_string(),
                        poll_ms: 10,
                        ..tats_service::WorkerConfig::default()
                    },
                );
            });
        }
        let submit_out = submit(&opts(
            &[
                "--connect",
                &addr,
                "--benchmarks",
                "Bm1",
                "--policies",
                "baseline,thermal",
                "--shards",
                "2",
                "--wait",
                "--poll-ms",
                "20",
            ],
            &["connect", "benchmarks", "policies", "shards", "poll-ms"],
            &["wait"],
        ))
        .expect("submit --wait");
        assert!(submit_out.contains("fetched 2 record(s)"), "{submit_out}");

        let frame = top(&opts(
            &["--connect", &addr, "--once"],
            &["connect", "interval-ms"],
            &["once"],
        ))
        .expect("top --once");
        server.stop();

        assert!(frame.contains("tats top"), "{frame}");
        assert!(frame.contains("j000001"), "{frame}");
        assert!(frame.contains("done"), "{frame}");
        assert!(frame.contains("100%"), "{frame}");
        assert!(frame.contains("2/2"), "{frame}");
        assert!(frame.contains("cli-top-worker"), "{frame}");
        assert!(frame.contains("\"message\":\"job submitted\""), "{frame}");
        assert!(frame.contains("LOG"), "{frame}");
        assert!(
            !frame.contains('\x1b'),
            "--once must not emit ANSI escapes: {frame}"
        );
    }

    /// Satellite of the crash-safety PR: `submit --wait` keeps its place in
    /// the record stream across a journaled server restart — the supervisor
    /// thread kills the server after the first record lands and rebinds it
    /// on the same journal and port while the wait loop is still polling.
    #[test]
    fn submit_wait_survives_a_journaled_server_restart() {
        let path = std::env::temp_dir().join("tats_cli_submit_restart.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = tats_service::ServiceConfig {
            lease_ttl_ms: 5_000,
            journal: Some(path.clone()),
            ..tats_service::ServiceConfig::default()
        };
        let server = tats_service::Service::bind("127.0.0.1:0", config.clone()).expect("bind");
        let addr = server.addr_string();
        {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let _ = tats_service::run_worker(
                    &addr,
                    &tats_service::WorkerConfig {
                        name: "cli-restart-worker".to_string(),
                        poll_ms: 10,
                        ..tats_service::WorkerConfig::default()
                    },
                );
            });
        }
        // Supervisor: wait for the first record of the first job, then
        // abort the server and bring it back on the same journal and port.
        let supervisor = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                loop {
                    match tats_service::client::get(&addr, "/jobs/j000001/records") {
                        Ok(response) if !response.body.is_empty() => break,
                        _ => std::thread::sleep(std::time::Duration::from_millis(5)),
                    }
                }
                server.abort();
                tats_service::Service::bind(&addr, config).expect("rebind")
            })
        };

        // 10 scenarios, so the restart lands mid-stream.
        let axes: &[&str] = &["--benchmarks", "Bm1", "--policies", "all", "--seeds", "0,1"];
        let mut submit_args = vec!["--connect", &addr, "--shards", "2", "--wait"];
        submit_args.extend_from_slice(axes);
        let submit_out = submit(&opts(
            &submit_args,
            &["connect", "benchmarks", "policies", "seeds", "shards"],
            &["wait"],
        ))
        .expect("submit --wait must ride out the restart");
        assert!(submit_out.contains("fetched 10 record(s)"), "{submit_out}");

        let mut batch_args = vec!["--threads", "1"];
        batch_args.extend_from_slice(axes);
        let batch_out = batch(&opts(&batch_args, BATCH_VALUES, BATCH_SWITCHES)).expect("batch");
        let pick = |text: &str| -> Vec<String> {
            let mut lines: Vec<String> = text
                .lines()
                .filter(|line| line.starts_with('{'))
                .map(str::to_string)
                .collect();
            lines.sort_by_key(|line| tats_trace::jsonl::line_id(line));
            lines
        };
        assert_eq!(
            pick(&submit_out),
            pick(&batch_out),
            "no record duplicated or dropped across the restart"
        );
        supervisor.join().expect("supervisor").stop();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn worker_and_submit_require_connect() {
        let error = worker(&opts(&[], &["connect"], &[])).expect_err("no connect");
        assert!(error.to_string().contains("--connect"), "{error}");
        let error = submit(&opts(&[], &["connect"], &[])).expect_err("no connect");
        assert!(error.to_string().contains("--connect"), "{error}");
    }

    #[test]
    fn trace_requires_a_file_with_spans() {
        let error = trace(None, &opts(&[], &["chrome"], &[])).expect_err("no input");
        assert!(error.to_string().contains("tats trace"), "{error}");

        let path = std::env::temp_dir().join("tats_cli_trace_empty_test.jsonl");
        std::fs::write(&path, "{\"id\":\"not-a-span\"}\n").expect("write");
        let error = trace(
            Some(path.to_str().expect("utf8")),
            &opts(&[], &["chrome"], &[]),
        )
        .expect_err("no spans");
        assert!(error.to_string().contains("no span events"), "{error}");
        let _ = std::fs::remove_file(&path);
    }

    /// Tentpole end-to-end: submit a traced campaign against a live service,
    /// drain the merged span stream from `GET /jobs/{id}/spans`, and explore
    /// it with `tats trace --chrome`. The report must name the critical path
    /// and per-phase breakdowns, the reported wall-clock must match the span
    /// forest, and the Chrome export must survive a JSON round-trip.
    #[test]
    fn trace_explores_a_live_campaign_span_stream() {
        let server =
            tats_service::Service::bind("127.0.0.1:0", tats_service::ServiceConfig::default())
                .expect("bind");
        let addr = server.addr_string();
        {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let _ = tats_service::run_worker(
                    &addr,
                    &tats_service::WorkerConfig {
                        name: "cli-trace-worker".to_string(),
                        poll_ms: 10,
                        ..tats_service::WorkerConfig::default()
                    },
                );
            });
        }
        let submit_out = submit(&opts(
            &[
                "--connect",
                &addr,
                "--benchmarks",
                "Bm1",
                "--policies",
                "baseline,thermal",
                "--shards",
                "2",
                "--trace-seed",
                "42",
                "--wait",
                "--poll-ms",
                "20",
            ],
            &[
                "connect",
                "benchmarks",
                "policies",
                "shards",
                "trace-seed",
                "poll-ms",
            ],
            &["wait"],
        ))
        .expect("submit --wait");
        assert!(submit_out.contains("trace "), "{submit_out}");

        let spans_body = tats_service::client::get(&addr, "/jobs/j000001/spans")
            .expect("GET spans")
            .body;
        server.stop();
        assert!(!spans_body.is_empty(), "span stream must not be empty");

        let spans_path = std::env::temp_dir().join("tats_cli_trace_e2e_spans.jsonl");
        let chrome_path = std::env::temp_dir().join("tats_cli_trace_e2e_chrome.json");
        std::fs::write(&spans_path, &spans_body).expect("write spans");
        let report = trace(
            Some(spans_path.to_str().expect("utf8")),
            &opts(
                &["--chrome", chrome_path.to_str().expect("utf8")],
                &["chrome"],
                &[],
            ),
        )
        .expect("trace report");

        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("campaign"), "{report}");
        assert!(report.contains("per-phase totals"), "{report}");
        assert!(
            report.contains("thermal solve by benchmark x policy"),
            "{report}"
        );
        assert!(report.contains("lease-to-first-record latency"), "{report}");
        assert!(report.contains("| Bm1"), "{report}");

        // The reported wall-clock is the span forest's own extent: the
        // report reproduces the campaign wall-clock exactly (within the 1%
        // acceptance bound by construction).
        let forest = tats_trace::spans::SpanForest::build(
            spans_body
                .lines()
                .filter(|line| tats_trace::spans::SpanEvent::is_span_line(line))
                .map(|line| tats_trace::spans::SpanEvent::parse_line(line).expect("span"))
                .collect(),
        );
        let expected = format!("wall-clock {:.3} s", forest.wall_us() as f64 / 1e6);
        assert!(report.contains(&expected), "{report} vs {expected}");

        // Chrome export: on disk, valid JSON, and shaped for chrome://tracing.
        let exported = std::fs::read_to_string(&chrome_path).expect("chrome file");
        let parsed = tats_trace::JsonValue::parse(&exported).expect("chrome JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(tats_trace::JsonValue::as_array)
            .expect("traceEvents");
        assert!(!events.is_empty(), "chrome export must carry events");
        let _ = std::fs::remove_file(&spans_path);
        let _ = std::fs::remove_file(&chrome_path);
    }

    #[test]
    fn batch_rejects_bad_shard_and_resume_without_out() {
        let bad_shard = opts(&["--shard", "9/3"], BATCH_VALUES, &["resume", "full"]);
        assert!(matches!(batch(&bad_shard), Err(CliError::Execution(_))));
        let resume = opts(&["--resume"], BATCH_VALUES, &["resume", "full"]);
        let error = batch(&resume).expect_err("resume without out");
        assert!(error.to_string().contains("--out"));
        // Removed grid solvers, out-of-range grid sides and seeds a JSON
        // number cannot carry are refused by batch and submit alike, before
        // submit ever connects.
        for (option, value) in [
            ("--grid-solver", "pcg"),
            ("--grid-solver", "gauss-seidel"),
            ("--nx", "129"),
            ("--ny", "4294967296"),
            ("--seeds", "9007199254740992"),
            ("--seeds", "9007199254740993"),
        ] {
            let local = batch(&opts(&[option, value], BATCH_VALUES, BATCH_SWITCHES));
            let remote = submit(&opts(
                &["--connect", "127.0.0.1:9", option, value],
                &["connect", "grid-solver", "nx", "ny", "seeds"],
                &[],
            ));
            for result in [local, remote] {
                let error = result.expect_err(value);
                assert!(
                    matches!(&error, CliError::InvalidValue { value: got, .. } if got == value),
                    "{option} {value}: {error:?}"
                );
            }
        }
    }

    const FLOORPLAN_VALUES: &[&str] = &["modules", "seed", "engine", "weights"];

    #[test]
    fn floorplan_output_is_pinned() {
        // Everything but the wall clock is a pure function of the options.
        for (args, expected, evaluations) in [
            (
                &["--modules", "6", "--engine", "sa"][..],
                [
                    "Floorplanned 6 modules with simulated annealing",
                    "",
                    "chip area: 207.97 mm2, wirelength: 43.25 mm, peak temperature: 45.00 C",
                    "weighted cost: 0.686085943",
                ],
                "2641 candidate evaluation(s) in ",
            ),
            (
                &["--modules", "6", "--engine", "ga", "--weights", "thermal"][..],
                [
                    "Floorplanned 6 modules with genetic algorithm",
                    "",
                    "chip area: 244.86 mm2, wirelength: 45.46 mm, peak temperature: 115.56 C",
                    "weighted cost: 1.990865993",
                ],
                "904 candidate evaluation(s) in ",
            ),
        ] {
            let out = floorplan(&opts(args, FLOORPLAN_VALUES, &[])).expect("floorplan");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines[..4], expected, "{out}");
            assert!(lines[4].starts_with(evaluations), "{out}");
        }
    }

    #[test]
    fn floorplan_rejects_bad_options() {
        for (option, value) in [
            ("--modules", "0"),
            ("--modules", "inf"),
            ("--modules", "1e10"),
            ("--modules", "2.9"),
            ("--engine", "warp"),
            ("--weights", "vibes"),
        ] {
            let error =
                floorplan(&opts(&[option, value], FLOORPLAN_VALUES, &[])).expect_err("must reject");
            assert!(
                matches!(error, CliError::InvalidValue { .. }),
                "{option} {value}"
            );
        }
    }

    #[test]
    fn tables_rejects_unknown_selection() {
        let options = opts(&["--which", "table9"], &["which"], &[]);
        assert!(matches!(
            tables(&options),
            Err(CliError::InvalidValue { .. })
        ));
    }

    /// `tats tables --full` is the repository's reproduction of the paper's
    /// Tables 1–3; its bytes change only together with this fixture.
    #[test]
    fn tables_full_output_is_pinned() {
        let options = opts(&["--full"], &[], &["full"]);
        let out = tables(&options).expect("tables --full");
        assert_eq!(out, include_str!("../tests/fixtures/tables_full.md"));
    }

    #[test]
    fn tables_renders_the_platform_comparison() {
        let options = opts(&["--which", "table3"], &["which"], &[]);
        let out = tables(&options).expect("table3");
        assert!(out.contains("Table 3"));
        assert!(out.contains("Bm1"));
        assert!(out.contains("Mean reduction"));
    }
}
