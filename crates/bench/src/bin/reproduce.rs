//! Regenerates the paper's Tables 1–3, prints them in a paper-like layout,
//! and records the floorplanner hot-loop perf baseline.
//!
//! ```bash
//! cargo run --release -p tats_bench --bin reproduce              # everything
//! cargo run --release -p tats_bench --bin reproduce -- table3    # one table
//! cargo run --release -p tats_bench --bin reproduce -- floorplan # perf only
//! ```
//!
//! The table output is the reproduction's measured counterpart of the
//! paper's Tables 1–3. The `floorplan` section writes
//! `BENCH_floorplan.json`: evaluations/sec of the naive, cached and
//! memoised cost paths, their speedups vs the naive per-candidate
//! `ThermalModel` rebuild, and wall times of end-to-end SA and GA runs, so
//! future PRs have a machine-readable perf trajectory. The `grid` section
//! writes `BENCH_grid.json`: setup (factorisation) and per-solve times of
//! the grid model's one solver, the cached banded Cholesky factor, at
//! 32x32, 64x64 and 128x128 (the largest resolution a grid model
//! accepts). The
//! `batch` section writes `BENCH_batch.json`: campaign throughput
//! (scenarios/sec) of the `tats_engine` executor at 1/2/4/8 worker threads
//! over a 120-scenario two-flow campaign, with per-worker cache hit rates
//! and a determinism cross-check between thread counts. The `service`
//! section writes `BENCH_service.json`: the same campaign as an end-to-end
//! `tats_service` job (1 server + 1/2/4 local pull workers over loopback
//! HTTP) vs the in-process executor, with a byte-identical record-set
//! cross-check.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use tats_core::experiment::ExperimentConfig;
use tats_engine::{table1, table2, table3, Campaign, Executor, FlowKind};
use tats_floorplan::{
    anneal, evolve, CostEvaluator, CostWeights, GaConfig, Module, Net, Placement, PolishExpression,
    SaConfig,
};
use tats_thermal::{Block, Floorplan, GridModel, ThermalConfig};

/// Evaluations/sec plus the raw numbers behind it.
struct Throughput {
    evaluations: usize,
    wall_s: f64,
}

impl Throughput {
    fn evals_per_sec(&self) -> f64 {
        self.evaluations as f64 / self.wall_s.max(1e-12)
    }
}

/// Times `f` over cycles of the placement set until ~0.3 s of wall time has
/// accumulated, so fast paths get enough iterations to be measurable.
fn measure(placements: &[Placement], mut f: impl FnMut(&Placement)) -> Throughput {
    let mut evaluations = 0usize;
    let start = Instant::now();
    loop {
        for placement in placements {
            f(placement);
        }
        evaluations += placements.len();
        if start.elapsed().as_secs_f64() >= 0.3 {
            break;
        }
    }
    Throughput {
        evaluations,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn floorplan_modules() -> Vec<Module> {
    vec![
        Module::from_mm("cpu0", 7.0, 7.0, 6.5),
        Module::from_mm("cpu1", 7.0, 7.0, 5.5),
        Module::from_mm("dsp0", 5.0, 6.0, 2.5),
        Module::from_mm("dsp1", 5.0, 6.0, 2.0),
        Module::from_mm("accel", 4.0, 4.0, 1.2),
        Module::from_mm("mem0", 6.0, 4.0, 0.8),
        Module::from_mm("mem1", 6.0, 4.0, 0.7),
        Module::from_mm("io", 3.0, 3.0, 0.4),
    ]
}

/// Runs the floorplanner hot-loop baseline and returns the JSON report.
fn bench_floorplan() -> Result<String, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let modules = floorplan_modules();
    let reference = PolishExpression::initial(modules.len())?.evaluate(&modules)?;
    let evaluator = CostEvaluator::new(
        modules.clone(),
        vec![
            Net::new(vec![0, 1, 5]),
            Net::new(vec![2, 3, 6]),
            Net::new(vec![4, 7]),
        ],
        CostWeights::thermal_aware(),
        ThermalConfig::default(),
        &reference,
    )?;

    // A deterministic set of distinct candidate placements.
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let mut expr = PolishExpression::initial(modules.len())?;
    let mut placements = Vec::with_capacity(256);
    for _ in 0..256 {
        expr = expr.perturb(&mut rng);
        placements.push(expr.evaluate(&modules)?);
    }

    // Naive baseline: rebuild Floorplan + ThermalModel (RC assembly + dense
    // LU factorisation) per candidate.
    let naive = measure(&placements, |p| {
        evaluator.cost(p).expect("naive cost");
    });

    // Cached kernel, memo defeated: assemble + refactor + solve through the
    // session's reused storage for every call.
    let mut scratch = evaluator.scratch()?;
    let cached = measure(&placements, |p| {
        scratch.clear_memo();
        evaluator.cost_with(p, &mut scratch).expect("cached cost");
    });

    // Cached kernel with the memo warm (the steady state of a converging SA
    // run revisiting placements).
    let mut scratch = evaluator.scratch()?;
    let memoised = measure(&placements, |p| {
        evaluator.cost_with(p, &mut scratch).expect("memoised cost");
    });

    // End-to-end engine wall times through the cached kernel.
    let sa_start = Instant::now();
    let sa = anneal(&evaluator, SaConfig::default())?;
    let sa_wall = sa_start.elapsed().as_secs_f64();
    let ga_start = Instant::now();
    let ga = evolve(
        &evaluator,
        GaConfig {
            population: 24,
            generations: 30,
            ..GaConfig::default()
        },
    )?;
    let ga_wall = ga_start.elapsed().as_secs_f64();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"floorplan_hot_loop\",\n",
            "  \"modules\": {},\n",
            "  \"distinct_placements\": {},\n",
            "  \"naive_rebuild\": {{ \"evaluations\": {}, \"wall_s\": {:.6}, \"evals_per_sec\": {:.1} }},\n",
            "  \"cached_kernel\": {{ \"evaluations\": {}, \"wall_s\": {:.6}, \"evals_per_sec\": {:.1} }},\n",
            "  \"cached_kernel_memoised\": {{ \"evaluations\": {}, \"wall_s\": {:.6}, \"evals_per_sec\": {:.1} }},\n",
            "  \"speedup_cached_vs_naive\": {:.2},\n",
            "  \"speedup_memoised_vs_naive\": {:.2},\n",
            "  \"sa\": {{ \"wall_s\": {:.6}, \"evaluations\": {}, \"evals_per_sec\": {:.1}, \"best_weighted_cost\": {:.9} }},\n",
            "  \"ga\": {{ \"wall_s\": {:.6}, \"evaluations\": {}, \"evals_per_sec\": {:.1}, \"best_weighted_cost\": {:.9} }}\n",
            "}}\n"
        ),
        modules.len(),
        placements.len(),
        naive.evaluations,
        naive.wall_s,
        naive.evals_per_sec(),
        cached.evaluations,
        cached.wall_s,
        cached.evals_per_sec(),
        memoised.evaluations,
        memoised.wall_s,
        memoised.evals_per_sec(),
        cached.evals_per_sec() / naive.evals_per_sec(),
        memoised.evals_per_sec() / naive.evals_per_sec(),
        sa_wall,
        sa.evaluations,
        sa.evaluations as f64 / sa_wall.max(1e-12),
        sa.cost.weighted,
        ga_wall,
        ga.evaluations,
        ga.evaluations as f64 / ga_wall.max(1e-12),
        ga.cost.weighted,
    );
    Ok(json)
}

/// A deterministic cycle of power assignments sweeping the hot spot across
/// the four PEs at varying intensity (the shape of a validation sweep).
fn sweep_powers() -> Vec<Vec<f64>> {
    let mut powers = Vec::new();
    for hot in 0..4 {
        for scale in [1.0, 0.6] {
            let mut p = vec![1.0 * scale; 4];
            p[hot] = 9.0 * scale;
            p[(hot + 1) % 4] = 3.5 * scale;
            powers.push(p);
        }
    }
    powers
}

/// Runs the grid benchmark (factorisation and per-solve cost of the cached
/// banded Cholesky factor) and returns the JSON report.
fn bench_grid() -> Result<String, Box<dyn std::error::Error>> {
    // The platform architecture's four 7x7 mm PEs in a 2x2 arrangement,
    // with a representative thermal-aware power split.
    let plan = Floorplan::new(vec![
        Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
        Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
        Block::from_mm("pe2", 0.0, 7.0, 7.0, 7.0),
        Block::from_mm("pe3", 7.0, 7.0, 7.0, 7.0),
    ])?;
    let powers = sweep_powers();
    let config = ThermalConfig::default();

    let mut sections: Vec<String> = Vec::new();
    for resolution in [32usize, 64, 128] {
        let setup_start = Instant::now();
        let model = GridModel::new(&plan, config, resolution, resolution)?;
        let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;
        // Cycle the powers through one workspace for ~0.3 s, the way
        // sweeps and ablations reuse it.
        let mut workspace = model.workspace();
        let mut solves = 0usize;
        let start = Instant::now();
        'timing: loop {
            for power in &powers {
                model.steady_state_with(power, &mut workspace)?;
                solves += 1;
                if start.elapsed().as_secs_f64() >= 0.3 {
                    break 'timing;
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        sections.push(format!(
            "  \"grid_{resolution}x{resolution}\": {{\n    \"cholesky\": {{ \"solves\": {solves}, \
             \"wall_s\": {wall_s:.6}, \"ms_per_solve\": {:.4}, \"setup_ms\": {setup_ms:.3} }}\n  }}",
            wall_s * 1e3 / solves as f64,
        ));
    }

    Ok(format!(
        "{{\n  \"bench\": \"grid_steady_state\",\n  \"blocks\": 4,\n{}\n}}\n",
        sections.join(",\n"),
    ))
}

/// Runs the batch-engine campaign throughput baseline and returns the JSON
/// report: one fixed campaign (all four benchmarks, both design flows, all
/// five policies, three seeds = 120 scenarios) executed at 1/2/4/8 worker
/// threads, with per-run wall time, scenarios/sec, speedups vs
/// single-threaded and the merged per-worker cache hit rate.
///
/// Thread scaling is bounded by the machine: on a single-core container
/// every thread count measures ~1.0x (the report records
/// `available_parallelism` so readers can tell). The cache hit rate is
/// hardware-independent: every worker shares one platform geometry, so all
/// scenarios after each worker's first are cache hits.
fn bench_batch() -> Result<String, Box<dyn std::error::Error>> {
    // Both flows so the workload is realistic: platform scenarios are
    // sub-millisecond (the cache turns them into pure scheduling), while
    // co-synthesis scenarios carry the GA floorplanner and dominate the
    // wall time — exactly the mix a real campaign fans out.
    let campaign = Campaign::new(ExperimentConfig::fast())
        .with_flows(vec![FlowKind::Platform, FlowKind::CoSynthesis])
        .with_seeds(vec![0, 1, 2]);
    let scenarios = campaign.scenarios();

    // The timed 1-thread run doubles as the determinism reference: every
    // later thread count must reproduce its record set exactly.
    let mut reference: Vec<tats_engine::ScenarioRecord> = Vec::new();

    let mut sections = Vec::new();
    let mut single_rate = f64::NAN;
    let mut speedup_4 = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        let run =
            Executor::new(threads).run(&campaign, &scenarios, &Default::default(), |_| Ok(()))?;
        if threads == 1 {
            reference = run.records.clone();
        } else if run.records != reference {
            return Err(format!("{threads}-thread run diverged from the 1-thread run").into());
        }
        let rate = run.report.scenarios_per_sec();
        if threads == 1 {
            single_rate = rate;
        }
        let speedup = rate / single_rate;
        if threads == 4 {
            speedup_4 = speedup;
        }
        sections.push(format!(
            "    \"threads_{threads}\": {{ \"scenarios\": {}, \"wall_s\": {:.6}, \
             \"scenarios_per_sec\": {:.2}, \"speedup_vs_1\": {:.2}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4} }}",
            run.report.completed,
            run.report.wall_s,
            rate,
            speedup,
            run.report.cache.hits,
            run.report.cache.misses,
            run.report.cache.hit_rate(),
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"batch_campaign_throughput\",\n",
            "  \"scenarios\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"deterministic_across_thread_counts\": true,\n",
            "  \"runs\": {{\n{}\n  }},\n",
            "  \"speedup_4_threads_vs_1\": {:.2}\n",
            "}}\n"
        ),
        scenarios.len(),
        cores,
        sections.join(",\n"),
        speedup_4,
    );
    Ok(json)
}

/// Runs the campaign-service end-to-end baseline and returns the JSON
/// report: the 120-scenario campaign of `bench_batch`, executed as a
/// service job (1 server + 1/2/4 local pull workers over loopback HTTP,
/// each an embedded single-threaded `Executor`) against the in-process
/// executor as the reference. Every distributed run's record set is
/// verified byte-identical to the in-process run — the merged-shards ≡
/// single-run invariant extended across process boundaries — and
/// `available_parallelism` is recorded, since on a single-core container
/// worker scaling (like thread scaling) is necessarily flat.
///
/// Three follow-up comparisons ride along: a transport microbenchmark
/// (the same probes over one keep-alive connection vs one-shot
/// `Connection: close` requests — the per-request dial cost the persistent
/// client removed), a journaled 1-worker run (append-and-flush on every
/// mutation) against the plain 1-worker wall, reported as
/// `overhead_vs_no_journal_pct`, an observability A/B (the worker's
/// metrics registry on — the default — vs `metrics: None`), reported as
/// `observability.overhead_pct` with the scraped `/metrics` series count,
/// and a logging A/B (server `LogFilter` at `info` plus a channel-sinked
/// worker vs `LogFilter::off()` and an unlogged worker), reported as
/// `logging.overhead_pct` with the total appended log-line count.
fn bench_service() -> Result<String, Box<dyn std::error::Error>> {
    use tats_engine::CampaignSpec;
    use tats_service::{client, journal, run_worker, Service, ServiceConfig, WorkerConfig};
    use tats_trace::log::{log_channel, LogFilter, LogLevel};
    use tats_trace::{jsonl, spans, JsonValue};

    let campaign = Campaign::new(ExperimentConfig::fast())
        .with_flows(vec![FlowKind::Platform, FlowKind::CoSynthesis])
        .with_seeds(vec![0, 1, 2]);
    let spec = CampaignSpec::from_campaign(&campaign)?;
    let scenarios = campaign.scenarios();
    const SHARDS: usize = 8;

    // In-process reference: the same campaign through one executor (one
    // thread per worker-count being compared is the honest baseline; use 1
    // so "1 worker vs in-process" isolates pure service overhead).
    let start = Instant::now();
    let reference = Executor::new(1).run(&campaign, &scenarios, &Default::default(), |_| Ok(()))?;
    let in_process_wall = start.elapsed().as_secs_f64();
    let in_process_rate = scenarios.len() as f64 / in_process_wall.max(1e-12);
    let mut reference_lines: Vec<String> = reference
        .records
        .iter()
        .map(|record| record.to_json().to_json())
        .collect();
    reference_lines.sort_by_key(|line| jsonl::line_id(line));

    let server =
        Service::bind("127.0.0.1:0", ServiceConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr_string();

    let mut sections = Vec::new();
    let mut speedup_4 = f64::NAN;
    let mut single_rate = f64::NAN;
    let mut single_wall = f64::NAN;
    for workers in [1usize, 2, 4] {
        // Submit first, then start the workers: no lease/drain race.
        let response = client::post_json(
            &addr,
            "/jobs",
            &JsonValue::object(vec![
                ("spec".to_string(), spec.to_json()),
                ("shards".to_string(), JsonValue::from(SHARDS)),
            ]),
        )
        .map_err(|e| format!("submit: {e}"))?;
        let job = response
            .get("job")
            .and_then(JsonValue::as_str)
            .ok_or("no job id")?
            .to_string();

        let start = Instant::now();
        std::thread::scope(|scope| -> Result<(), String> {
            let handles: Vec<_> = (0..workers)
                .map(|index| {
                    let addr = addr.clone();
                    let name = format!("bench-{workers}w-{index}");
                    scope.spawn(move || {
                        run_worker(
                            &addr,
                            &WorkerConfig {
                                name,
                                threads: 1,
                                poll_ms: 5,
                                exit_when_drained: true,
                                ..WorkerConfig::default()
                            },
                        )
                    })
                })
                .collect();
            for handle in handles {
                handle
                    .join()
                    .map_err(|_| "worker panicked".to_string())?
                    .map_err(|e| format!("worker: {e}"))?;
            }
            Ok(())
        })?;
        let wall = start.elapsed().as_secs_f64();
        let rate = scenarios.len() as f64 / wall.max(1e-12);
        if workers == 1 {
            single_rate = rate;
            single_wall = wall;
        }
        if workers == 4 {
            speedup_4 = rate / single_rate;
        }

        // Distributed-equivalence check: the fetched record set must be
        // byte-identical to the in-process run.
        let records = client::get(&addr, &format!("/jobs/{job}/records"))
            .map_err(|e| format!("records: {e}"))?;
        let mut lines: Vec<String> = records.body.lines().map(str::to_string).collect();
        lines.sort_by_key(|line| jsonl::line_id(line));
        if lines != reference_lines {
            return Err(
                format!("{workers}-worker service run diverged from the in-process run").into(),
            );
        }

        sections.push(format!(
            "    \"workers_{workers}\": {{ \"scenarios\": {}, \"wall_s\": {:.6}, \
             \"scenarios_per_sec\": {:.2}, \"speedup_vs_in_process\": {:.2}, \
             \"speedup_vs_1_worker\": {:.2} }}",
            scenarios.len(),
            wall,
            rate,
            rate / in_process_rate,
            rate / single_rate,
        ));
    }

    // Transport microbenchmark: the same status probes over one persistent
    // keep-alive connection vs one-shot `Connection: close` requests. This
    // isolates the per-request dial+teardown cost the keep-alive client
    // removed from record distribution.
    const PROBES: usize = 200;
    let start = Instant::now();
    let mut connection = client::Connection::new(&addr);
    for _ in 0..PROBES {
        connection
            .get("/healthz")
            .map_err(|e| format!("probe: {e}"))?;
    }
    let keep_alive_wall = start.elapsed().as_secs_f64();
    let keep_alive_dials = connection.dials();
    drop(connection);
    let start = Instant::now();
    for _ in 0..PROBES {
        client::get(&addr, "/healthz").map_err(|e| format!("probe: {e}"))?;
    }
    let close_wall = start.elapsed().as_secs_f64();
    server.stop();

    // Journal overhead: the 1-worker distributed run again, but against a
    // journaled server (every submit/lease/ingest/done fsync-flushed to the
    // JSONL journal before the 2xx), compared to the plain 1-worker wall.
    let journal_path = std::env::temp_dir().join("tats_bench_service_journal.jsonl");
    let _ = std::fs::remove_file(&journal_path);
    let server = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            journal: Some(journal_path.clone()),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("bind journaled: {e}"))?;
    let addr = server.addr_string();
    let response = client::post_json(
        &addr,
        "/jobs",
        &JsonValue::object(vec![
            ("spec".to_string(), spec.to_json()),
            ("shards".to_string(), JsonValue::from(SHARDS)),
        ]),
    )
    .map_err(|e| format!("submit journaled: {e}"))?;
    let job = response
        .get("job")
        .and_then(JsonValue::as_str)
        .ok_or("no job id")?
        .to_string();
    let start = Instant::now();
    run_worker(
        &addr,
        &WorkerConfig {
            name: "bench-journal-w0".to_string(),
            threads: 1,
            poll_ms: 5,
            exit_when_drained: true,
            ..WorkerConfig::default()
        },
    )
    .map_err(|e| format!("journaled worker: {e}"))?;
    let journal_wall = start.elapsed().as_secs_f64();
    let records =
        client::get(&addr, &format!("/jobs/{job}/records")).map_err(|e| format!("records: {e}"))?;
    let mut lines: Vec<String> = records.body.lines().map(str::to_string).collect();
    lines.sort_by_key(|line| jsonl::line_id(line));
    if lines != reference_lines {
        return Err("journaled service run diverged from the in-process run".into());
    }
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
    server.stop();

    // Compaction: replay the full drained history (the restart cost an
    // operator actually pays), fold it into one snapshot event, then
    // replay the compacted journal — the snapshot fast-forward must
    // rebuild the identical registry while shrinking file and replay.
    let start = Instant::now();
    let (full_registry, _) =
        journal::replay(&journal_path, 15_000).map_err(|e| format!("replay full: {e}"))?;
    let replay_full_s = start.elapsed().as_secs_f64();
    let reference_state = full_registry.snapshot().to_json();
    let (mut journaled, _) = journal::JournaledRegistry::open(&journal_path, 15_000)
        .map_err(|e| format!("reopen for compaction: {e}"))?;
    let start = Instant::now();
    let compact_report = journaled.compact().map_err(|e| format!("compact: {e}"))?;
    let compact_s = start.elapsed().as_secs_f64();
    drop(journaled);
    let start = Instant::now();
    let (compact_registry, compact_replay) =
        journal::replay(&journal_path, 15_000).map_err(|e| format!("replay compacted: {e}"))?;
    let replay_snapshot_s = start.elapsed().as_secs_f64();
    if compact_replay.snapshots != 1 || compact_registry.snapshot().to_json() != reference_state {
        return Err("compacted journal did not replay to the identical registry".into());
    }
    let _ = std::fs::remove_file(&journal_path);

    // Observability overhead: the same 1-worker run with the worker's
    // metrics registry enabled (the default — every scenario timed, every
    // retry classified, a snapshot piggybacked on each lease poll) vs
    // disabled (`metrics: None`: the instrumentation points still execute
    // but hit no registry). The on/off runs are interleaved in alternating
    // order and the headline overhead is a *trimmed mean of per-round
    // paired differences* — each round's arms run back-to-back, so drift
    // (the dominant error on a sub-100ms wall sharing one core with the OS)
    // cancels within the pair instead of landing on whichever arm the
    // scheduler hiccuped under. Each measurement drains three copies of
    // the campaign (360 scenarios, ~200ms) so per-wall scheduler noise is
    // small relative to the wall. Min walls are reported alongside. The
    // metrics-on scrape is also counted, proving the worker's series
    // actually reached the server's `/metrics` page.
    let server =
        Service::bind("127.0.0.1:0", ServiceConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr_string();
    const OBSERVABILITY_ROUNDS: usize = 9;
    let mut observability_walls = [f64::INFINITY; 2];
    let mut round_walls = [[f64::NAN; 2]; OBSERVABILITY_ROUNDS];
    for (round, walls) in round_walls.iter_mut().enumerate() {
        let mut pair = [(0usize, true), (1usize, false)];
        if round % 2 == 1 {
            pair.reverse();
        }
        for (slot, metrics_on) in pair {
            let mut jobs = Vec::new();
            for _ in 0..3 {
                let response = client::post_json(
                    &addr,
                    "/jobs",
                    &JsonValue::object(vec![
                        ("spec".to_string(), spec.to_json()),
                        ("shards".to_string(), JsonValue::from(SHARDS)),
                    ]),
                )
                .map_err(|e| format!("submit observability: {e}"))?;
                jobs.push(
                    response
                        .get("job")
                        .and_then(JsonValue::as_str)
                        .ok_or("no job id")?
                        .to_string(),
                );
            }
            let config = WorkerConfig {
                name: if metrics_on {
                    "bench-obs-on".to_string()
                } else {
                    "bench-obs-off".to_string()
                },
                threads: 1,
                poll_ms: 5,
                exit_when_drained: true,
                metrics: if metrics_on {
                    WorkerConfig::default().metrics
                } else {
                    None
                },
                ..WorkerConfig::default()
            };
            let start = Instant::now();
            run_worker(&addr, &config).map_err(|e| format!("observability worker: {e}"))?;
            let wall = start.elapsed().as_secs_f64();
            walls[slot] = wall;
            observability_walls[slot] = observability_walls[slot].min(wall);
            for job in &jobs {
                let records = client::get(&addr, &format!("/jobs/{job}/records"))
                    .map_err(|e| format!("records: {e}"))?;
                let mut lines: Vec<String> = records.body.lines().map(str::to_string).collect();
                lines.sort_by_key(|line| jsonl::line_id(line));
                if lines != reference_lines {
                    return Err("observability service run diverged from the in-process run".into());
                }
            }
        }
    }
    let scrape = client::get(&addr, "/metrics").map_err(|e| format!("scrape: {e}"))?;
    if !scrape.body.contains("worker=\"bench-obs-on\"") {
        return Err("worker metrics never reached the server scrape".into());
    }
    let scrape_series = scrape
        .body
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .count();
    server.stop();
    let [metrics_on_wall, metrics_off_wall] = observability_walls;
    let mut paired_pct: Vec<f64> = round_walls
        .iter()
        .map(|[on, off]| 100.0 * (on - off) / off.max(1e-12))
        .collect();
    paired_pct.sort_by(|a, b| a.total_cmp(b));
    // Trimmed mean of the paired differences: drop the two most extreme
    // rounds on each side (scheduler hiccups land as double-digit swings
    // in either direction on this shared core) and average the middle.
    let kept = &paired_pct[2..paired_pct.len() - 2];
    let observability_overhead_pct = kept.iter().sum::<f64>() / kept.len() as f64;

    // Logging overhead: the same paired 1-worker design, with the arm
    // under test running against a server that keeps structured logs at
    // `info` (registry transitions and server lines through the lock-free
    // sink into the ring) while the worker ships its own lines through a
    // channel sink, vs a `LogFilter::off()` server and an unlogged
    // worker. The off arm still executes every call site — the cheap
    // level/target check is the cost being amortised — so the paired
    // difference is the end-to-end price of leaving logging on in
    // production. Two servers (one per arm) stay up across all rounds so
    // neither arm pays a bind.
    let log_on_server = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            log_filter: Some(LogFilter::at(LogLevel::Info)),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("bind log-on: {e}"))?;
    let log_off_server = Service::bind(
        "127.0.0.1:0",
        ServiceConfig {
            log_filter: Some(LogFilter::off()),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("bind log-off: {e}"))?;
    let arm_addrs = [log_on_server.addr_string(), log_off_server.addr_string()];
    const LOGGING_ROUNDS: usize = 9;
    let mut logging_walls = [f64::INFINITY; 2];
    let mut logging_round_walls = [[f64::NAN; 2]; LOGGING_ROUNDS];
    let (log_sink, mut log_drain) = log_channel(LogFilter::at(LogLevel::Info));
    for (round, walls) in logging_round_walls.iter_mut().enumerate() {
        let mut pair = [(0usize, true), (1usize, false)];
        if round % 2 == 1 {
            pair.reverse();
        }
        for (slot, log_on) in pair {
            let arm_addr = &arm_addrs[if log_on { 0 } else { 1 }];
            let mut jobs = Vec::new();
            for _ in 0..3 {
                let response = client::post_json(
                    arm_addr,
                    "/jobs",
                    &JsonValue::object(vec![
                        ("spec".to_string(), spec.to_json()),
                        ("shards".to_string(), JsonValue::from(SHARDS)),
                    ]),
                )
                .map_err(|e| format!("submit logging: {e}"))?;
                jobs.push(
                    response
                        .get("job")
                        .and_then(JsonValue::as_str)
                        .ok_or("no job id")?
                        .to_string(),
                );
            }
            let config = WorkerConfig {
                name: if log_on {
                    "bench-log-on".to_string()
                } else {
                    "bench-log-off".to_string()
                },
                threads: 1,
                poll_ms: 5,
                exit_when_drained: true,
                log: if log_on { Some(log_sink.clone()) } else { None },
                ..WorkerConfig::default()
            };
            let start = Instant::now();
            run_worker(arm_addr, &config).map_err(|e| format!("logging worker: {e}"))?;
            let wall = start.elapsed().as_secs_f64();
            walls[slot] = wall;
            logging_walls[slot] = logging_walls[slot].min(wall);
            // Drain the worker's channel outside the timed window so the
            // on arm never measures an ever-growing buffer.
            let _ = log_drain.drain_lines();
            for job in &jobs {
                let records = client::get(arm_addr, &format!("/jobs/{job}/records"))
                    .map_err(|e| format!("records: {e}"))?;
                let mut lines: Vec<String> = records.body.lines().map(str::to_string).collect();
                lines.sort_by_key(|line| jsonl::line_id(line));
                if lines != reference_lines {
                    return Err("logging service run diverged from the in-process run".into());
                }
            }
        }
    }
    // Prove the on arm actually logged (total appended count via the
    // paging header) and the off arm stayed silent end to end.
    let on_probe = client::get(&arm_addrs[0], &format!("/logs?from={}", usize::MAX))
        .map_err(|e| format!("log probe: {e}"))?;
    let log_lines: usize = on_probe
        .header("x-next-from")
        .and_then(|value| value.parse().ok())
        .ok_or("no x-next-from on /logs")?;
    if log_lines == 0 {
        return Err("log-on server never appended a log line".into());
    }
    let off_probe = client::get(&arm_addrs[1], &format!("/logs?from={}", usize::MAX))
        .map_err(|e| format!("log probe: {e}"))?;
    if off_probe.header("x-next-from") != Some("0") {
        return Err("log-off server logged despite LogFilter::off()".into());
    }
    log_on_server.stop();
    log_off_server.stop();
    let [log_on_wall, log_off_wall] = logging_walls;
    let mut logging_paired_pct: Vec<f64> = logging_round_walls
        .iter()
        .map(|[on, off]| 100.0 * (on - off) / off.max(1e-12))
        .collect();
    logging_paired_pct.sort_by(|a, b| a.total_cmp(b));
    let kept = &logging_paired_pct[2..logging_paired_pct.len() - 2];
    let logging_overhead_pct = kept.iter().sum::<f64>() / kept.len() as f64;

    // Tracing overhead: the same paired A/B design, but the arm under test
    // is a *traced* campaign — the submit carries an `x-trace-id` (what
    // `tats submit` sends), the server stamps transition spans on the job's
    // synthetic clock, and the worker wraps every scenario in shard →
    // scenario → phase spans piggybacked on its record posts. The off arm
    // is an untraced submit through the same server, so the difference is
    // the whole span pipeline end to end.
    let server =
        Service::bind("127.0.0.1:0", ServiceConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr_string();
    // Single-job arms paired per round: the finest interleaving the service
    // drain allows, so slow drift on a shared box cancels within each pair
    // and the trimmed mean over many pairs resolves a small overhead that
    // coarser 3-job arms could not.
    const TRACING_ROUNDS: usize = 45;
    let mut tracing_walls = [f64::INFINITY; 2];
    let mut tracing_round_walls = [[f64::NAN; 2]; TRACING_ROUNDS];
    let submit_body = JsonValue::object(vec![
        ("spec".to_string(), spec.to_json()),
        ("shards".to_string(), JsonValue::from(SHARDS)),
    ])
    .to_json();
    let mut next_trace = 0xB0A7_1E55_0000_0001u64;
    let parse_job = |body: &str| -> Result<String, String> {
        JsonValue::parse(body)
            .map_err(|e| format!("submit response: {e}"))?
            .get("job")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| "no job id".to_string())
    };
    for (round, walls) in tracing_round_walls.iter_mut().enumerate() {
        let mut pair = [(0usize, true), (1usize, false)];
        if round % 2 == 1 {
            pair.reverse();
        }
        for (slot, traced) in pair {
            let headers: Vec<(&str, String)> = if traced {
                next_trace += 1;
                vec![("x-trace-id", spans::id_hex(next_trace))]
            } else {
                Vec::new()
            };
            let response = client::request(&addr, "POST", "/jobs", &headers, Some(&submit_body))
                .and_then(client::expect_ok)
                .map_err(|e| format!("submit tracing: {e}"))?;
            let job = parse_job(&response.body)?;
            let config = WorkerConfig {
                name: if traced {
                    "bench-trace-on".to_string()
                } else {
                    "bench-trace-off".to_string()
                },
                threads: 1,
                poll_ms: 5,
                exit_when_drained: true,
                ..WorkerConfig::default()
            };
            let start = Instant::now();
            run_worker(&addr, &config).map_err(|e| format!("tracing worker: {e}"))?;
            let wall = start.elapsed().as_secs_f64();
            walls[slot] = wall;
            tracing_walls[slot] = tracing_walls[slot].min(wall);
            let records = client::get(&addr, &format!("/jobs/{job}/records"))
                .map_err(|e| format!("records: {e}"))?;
            let mut lines: Vec<String> = records.body.lines().map(str::to_string).collect();
            lines.sort_by_key(|line| jsonl::line_id(line));
            if lines != reference_lines {
                return Err("traced service run diverged from the in-process run".into());
            }
        }
    }
    let [traced_wall, untraced_wall] = tracing_walls;
    let mut tracing_paired_pct: Vec<f64> = tracing_round_walls
        .iter()
        .map(|[on, off]| 100.0 * (on - off) / off.max(1e-12))
        .collect();
    tracing_paired_pct.sort_by(|a, b| a.total_cmp(b));
    let trim = TRACING_ROUNDS / 4;
    let kept = &tracing_paired_pct[trim..tracing_paired_pct.len() - trim];
    let tracing_overhead_pct = kept.iter().sum::<f64>() / kept.len() as f64;

    // Span-stream verification + wall-clock cross-check on one more traced
    // job, untimed: drain it while polling its status every millisecond,
    // then rebuild the span forest the way `tats trace` does and compare
    // its extent against the externally measured submit→done wall. The
    // forest is the job's own clock (synthetic-stamp transition spans), so
    // the two must agree up to poll granularity.
    next_trace += 1;
    let headers: Vec<(&str, String)> = vec![("x-trace-id", spans::id_hex(next_trace))];
    let response = client::request(&addr, "POST", "/jobs", &headers, Some(&submit_body))
        .and_then(client::expect_ok)
        .map_err(|e| format!("submit trace verify: {e}"))?;
    let job = parse_job(&response.body)?;
    let start = Instant::now();
    let verify_worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_worker(
                &addr,
                &WorkerConfig {
                    name: "bench-trace-verify".to_string(),
                    threads: 1,
                    poll_ms: 5,
                    exit_when_drained: true,
                    ..WorkerConfig::default()
                },
            )
        })
    };
    let measured_wall = loop {
        let status =
            client::get(&addr, &format!("/jobs/{job}")).map_err(|e| format!("status: {e}"))?;
        if status.body.contains("\"state\":\"done\"") {
            break start.elapsed().as_secs_f64();
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    verify_worker
        .join()
        .map_err(|_| "verify worker panicked".to_string())?
        .map_err(|e| format!("verify worker: {e}"))?;
    let stream = client::get(&addr, &format!("/jobs/{job}/spans"))
        .map_err(|e| format!("spans: {e}"))?
        .body;
    server.stop();
    let parsed: Vec<spans::SpanEvent> = stream
        .lines()
        .map(spans::SpanEvent::parse_line)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("span line: {e}"))?;
    let span_count = parsed.len();
    let scenario_spans = parsed.iter().filter(|s| s.name == "scenario").count();
    if scenario_spans != scenarios.len() {
        return Err(format!(
            "traced job produced {scenario_spans} scenario spans for {} scenarios",
            scenarios.len()
        )
        .into());
    }
    let forest = spans::SpanForest::build(parsed);
    let trace_wall = forest.wall_us() as f64 / 1e6;
    let wall_match_pct = 100.0 * (trace_wall - measured_wall).abs() / measured_wall.max(1e-12);
    if wall_match_pct > 5.0 {
        return Err(format!(
            "span-forest wall {trace_wall:.6}s diverged from the measured job wall \
             {measured_wall:.6}s by {wall_match_pct:.2}%"
        )
        .into());
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"campaign_service_end_to_end\",\n",
            "  \"scenarios\": {},\n",
            "  \"shards\": {},\n",
            "  \"available_parallelism\": {},\n",
            "  \"deterministic_vs_in_process\": true,\n",
            "  \"in_process\": {{ \"wall_s\": {:.6}, \"scenarios_per_sec\": {:.2} }},\n",
            "  \"runs\": {{\n{}\n  }},\n",
            "  \"speedup_4_workers_vs_1\": {:.2},\n",
            "  \"transport\": {{\n",
            "    \"probes\": {},\n",
            "    \"keep_alive\": {{ \"wall_s\": {:.6}, \"requests_per_sec\": {:.0}, \"dials\": {} }},\n",
            "    \"connection_close\": {{ \"wall_s\": {:.6}, \"requests_per_sec\": {:.0}, \"dials\": {} }},\n",
            "    \"keep_alive_speedup\": {:.2}\n",
            "  }},\n",
            "  \"journal\": {{ \"workers\": 1, \"wall_s\": {:.6}, \"scenarios_per_sec\": {:.2}, ",
            "\"journal_bytes\": {}, \"overhead_vs_no_journal_pct\": {:.1} }},\n",
            "  \"compaction\": {{ \"journal_bytes_before\": {}, \"journal_bytes_after\": {}, ",
            "\"compact_s\": {:.6}, \"replay_full_s\": {:.6}, \"replay_snapshot_s\": {:.6}, ",
            "\"replay_speedup_after_compact\": {:.2} }},\n",
            "  \"observability\": {{ \"workers\": 1, \"runs_each\": {}, ",
            "\"scenarios_per_run\": {}, ",
            "\"metrics_on_wall_s\": {:.6}, \"metrics_off_wall_s\": {:.6}, ",
            "\"overhead_pct\": {:.2}, \"scrape_series\": {} }},\n",
            "  \"logging\": {{ \"workers\": 1, \"runs_each\": {}, ",
            "\"scenarios_per_run\": {}, ",
            "\"log_on_wall_s\": {:.6}, \"log_off_wall_s\": {:.6}, ",
            "\"overhead_pct\": {:.2}, \"log_lines\": {} }},\n",
            "  \"tracing\": {{ \"workers\": 1, \"runs_each\": {}, ",
            "\"scenarios_per_run\": {}, ",
            "\"traced_wall_s\": {:.6}, \"untraced_wall_s\": {:.6}, ",
            "\"overhead_pct\": {:.2}, ",
            "\"verify\": {{ \"spans\": {}, \"scenario_spans\": {}, ",
            "\"trace_wall_s\": {:.6}, \"measured_wall_s\": {:.6}, ",
            "\"wall_match_pct\": {:.2} }} }}\n",
            "}}\n"
        ),
        scenarios.len(),
        SHARDS,
        cores,
        in_process_wall,
        in_process_rate,
        sections.join(",\n"),
        speedup_4,
        PROBES,
        keep_alive_wall,
        PROBES as f64 / keep_alive_wall.max(1e-12),
        keep_alive_dials,
        close_wall,
        PROBES as f64 / close_wall.max(1e-12),
        PROBES,
        close_wall / keep_alive_wall.max(1e-12),
        journal_wall,
        scenarios.len() as f64 / journal_wall.max(1e-12),
        journal_bytes,
        100.0 * (journal_wall - single_wall) / single_wall.max(1e-12),
        compact_report.bytes_before,
        compact_report.bytes_after,
        compact_s,
        replay_full_s,
        replay_snapshot_s,
        replay_full_s / replay_snapshot_s.max(1e-12),
        OBSERVABILITY_ROUNDS,
        3 * scenarios.len(),
        metrics_on_wall,
        metrics_off_wall,
        observability_overhead_pct,
        scrape_series,
        LOGGING_ROUNDS,
        3 * scenarios.len(),
        log_on_wall,
        log_off_wall,
        logging_overhead_pct,
        log_lines,
        TRACING_ROUNDS,
        scenarios.len(),
        traced_wall,
        untraced_wall,
        tracing_overhead_pct,
        span_count,
        scenario_spans,
        trace_wall,
        measured_wall,
        wall_match_pct,
    );
    Ok(json)
}

/// The sections this binary can reproduce, in run order.
const SECTIONS: [&str; 7] = [
    "table1",
    "table2",
    "table3",
    "floorplan",
    "grid",
    "batch",
    "service",
];

fn main() -> ExitCode {
    let selection: Vec<String> = env::args().skip(1).collect();
    if let Some(unknown) = selection.iter().find(|s| !SECTIONS.contains(&s.as_str())) {
        eprintln!(
            "unknown section '{unknown}'; available: {}",
            SECTIONS.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let wants = |name: &str| selection.is_empty() || selection.iter().any(|s| s == name);
    let config = ExperimentConfig::default();

    let start = Instant::now();
    if wants("table1") {
        match table1(&config) {
            Ok(table) => println!("{table}"),
            Err(e) => {
                eprintln!("table 1 failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("table2") {
        match table2(&config) {
            Ok(table) => println!("{table}"),
            Err(e) => {
                eprintln!("table 2 failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("table3") {
        match table3(&config) {
            Ok(table) => println!("{table}"),
            Err(e) => {
                eprintln!("table 3 failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("floorplan") {
        match bench_floorplan() {
            Ok(json) => {
                print!("{json}");
                if let Err(e) = std::fs::write("BENCH_floorplan.json", &json) {
                    eprintln!("could not write BENCH_floorplan.json: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("(wrote BENCH_floorplan.json)");
            }
            Err(e) => {
                eprintln!("floorplan bench failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("grid") {
        match bench_grid() {
            Ok(json) => {
                print!("{json}");
                if let Err(e) = std::fs::write("BENCH_grid.json", &json) {
                    eprintln!("could not write BENCH_grid.json: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("(wrote BENCH_grid.json)");
            }
            Err(e) => {
                eprintln!("grid bench failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("batch") {
        match bench_batch() {
            Ok(json) => {
                print!("{json}");
                if let Err(e) = std::fs::write("BENCH_batch.json", &json) {
                    eprintln!("could not write BENCH_batch.json: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("(wrote BENCH_batch.json)");
            }
            Err(e) => {
                eprintln!("batch bench failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wants("service") {
        match bench_service() {
            Ok(json) => {
                print!("{json}");
                if let Err(e) = std::fs::write("BENCH_service.json", &json) {
                    eprintln!("could not write BENCH_service.json: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("(wrote BENCH_service.json)");
            }
            Err(e) => {
                eprintln!("service bench failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("(reproduced in {:.1} s)", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
