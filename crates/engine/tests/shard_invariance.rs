//! The engine's determinism contract, pinned:
//!
//! * running a campaign as one shard or as `k` merged shards yields the
//!   identical scenario record set;
//! * interrupting a run and resuming from its partial JSONL output
//!   completes exactly the missing scenarios, nothing else;
//! * `table1` through the engine is byte-for-byte the table the
//!   pre-engine in-process loop produced.

use std::collections::BTreeSet;

use tats_core::experiment::{ExperimentConfig, Table1, Table1Row};
use tats_core::{CoSynthesis, PlatformFlow, Policy};
use tats_engine::{table1, Campaign, Executor, FlowKind, ScenarioRecord, Shard};
use tats_taskgraph::Benchmark;
use tats_thermal::GridSolver;
use tats_trace::jsonl::{completed_ids, JsonlWriter};

/// A small but multi-axis campaign: 2 benchmarks x 2 policies x block-only
/// and grid-validated backends x 2 seeds = 16 platform scenarios.
fn campaign() -> Campaign {
    Campaign::new(ExperimentConfig::fast())
        .with_benchmarks(vec![Benchmark::Bm1, Benchmark::Bm2])
        .with_policies(vec![Policy::Baseline, Policy::ThermalAware])
        .with_solvers(vec![None, Some(GridSolver::BandedCholesky)])
        .with_seeds(vec![0, 1])
        .with_grid_resolution(12, 12)
}

fn run_scenario_set(
    campaign: &Campaign,
    scenarios: &[tats_engine::Scenario],
    skip: &BTreeSet<u64>,
) -> Vec<ScenarioRecord> {
    Executor::new(2)
        .run(campaign, scenarios, skip, |_| Ok(()))
        .expect("campaign run")
        .records
}

#[test]
fn one_shard_equals_merged_k_shards() {
    let campaign = campaign();
    let full = run_scenario_set(&campaign, &campaign.scenarios(), &BTreeSet::new());
    assert_eq!(full.len(), 16);

    let mut merged: Vec<ScenarioRecord> = (0..3)
        .flat_map(|index| {
            let shard = Shard { index, count: 3 };
            run_scenario_set(
                &campaign,
                &campaign.shard_scenarios(shard),
                &BTreeSet::new(),
            )
        })
        .collect();
    merged.sort_by_key(|r| r.id);

    assert_eq!(full, merged);
    // ... and the serialised JSONL lines are byte-identical too.
    let render = |records: &[ScenarioRecord]| -> Vec<String> {
        records.iter().map(|r| r.to_json().to_json()).collect()
    };
    assert_eq!(render(&full), render(&merged));
}

#[test]
fn resume_after_interrupt_completes_the_set() {
    let campaign = campaign();
    let scenarios = campaign.scenarios();

    // Reference: the uninterrupted run.
    let full = run_scenario_set(&campaign, &scenarios, &BTreeSet::new());

    // Simulated interrupt: stream to a JSONL "file", keep only what had
    // been flushed before the crash (the first five completed lines).
    let mut writer = JsonlWriter::new(Vec::new());
    Executor::new(2)
        .run(&campaign, &scenarios, &BTreeSet::new(), |record| {
            writer.write(&record.to_json())?;
            Ok(())
        })
        .expect("initial run");
    let bytes = writer.into_inner();
    let interrupted: String = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .take(5)
        .map(|l| format!("{l}\n"))
        .collect();

    // Resume: skip what the file already holds, run the rest.
    let done = completed_ids(interrupted.as_bytes()).expect("scan ids");
    assert_eq!(done.len(), 5);
    let resumed = run_scenario_set(&campaign, &scenarios, &done);
    assert_eq!(resumed.len(), scenarios.len() - 5);
    assert!(resumed.iter().all(|r| !done.contains(&r.id)));

    // Surviving lines + resumed records = exactly the full record set.
    let mut lines: Vec<String> = interrupted.lines().map(str::to_string).collect();
    lines.extend(resumed.iter().map(|r| r.to_json().to_json()));
    lines.sort_by_key(|line| tats_trace::jsonl::line_id(line).expect("id"));
    let reference: Vec<String> = full.iter().map(|r| r.to_json().to_json()).collect();
    assert_eq!(lines, reference);
}

#[test]
fn split_cosynthesis_groups_give_the_same_records() {
    // All five policies and two seeds: groups (Bm1, s0) = ids 0, 2, 4, 6, 8
    // and (Bm1, s1) = ids 1, 3, 5, 7, 9. Three shards split both groups,
    // and the resume below skips two of the second group's policies,
    // including the member that carries the shared work.
    let campaign = Campaign::new(ExperimentConfig::fast())
        .with_benchmarks(vec![Benchmark::Bm1])
        .with_flows(vec![FlowKind::CoSynthesis])
        .with_policies(Policy::ALL.to_vec())
        .with_seeds(vec![0, 1]);
    let scenarios = campaign.scenarios();
    let full = run_scenario_set(&campaign, &scenarios, &BTreeSet::new());
    assert_eq!(full.len(), 10);

    let mut merged: Vec<ScenarioRecord> = (0..3)
        .flat_map(|index| {
            let shard = Shard { index, count: 3 };
            run_scenario_set(
                &campaign,
                &campaign.shard_scenarios(shard),
                &BTreeSet::new(),
            )
        })
        .collect();
    merged.sort_by_key(|r| r.id);
    assert_eq!(full, merged);

    let done: BTreeSet<u64> = [1, 7].into_iter().collect();
    let resumed = run_scenario_set(&campaign, &scenarios, &done);
    let rest: Vec<ScenarioRecord> = full
        .iter()
        .filter(|r| !done.contains(&r.id))
        .cloned()
        .collect();
    assert_eq!(resumed, rest);
}

#[test]
fn grid_validated_scenarios_report_the_fine_grid_peak() {
    let campaign = campaign();
    let records = run_scenario_set(&campaign, &campaign.scenarios(), &BTreeSet::new());
    for record in &records {
        match &record.solver {
            Some(name) => {
                assert_eq!(name, "cholesky");
                let grid_max = record.grid_max_temp_c.expect("grid peak");
                // The fine grid resolves intra-block gradients; its peak is
                // physical (above ambient) and in the block model's vicinity.
                assert!(grid_max > 45.0, "{}: {grid_max}", record.key);
                assert!(
                    (grid_max - record.max_temp_c).abs() < 25.0,
                    "{}: grid {grid_max} vs block {}",
                    record.key,
                    record.max_temp_c
                );
            }
            None => assert!(record.grid_max_temp_c.is_none()),
        }
    }
}

/// The pre-engine Table 1 loop, replicated verbatim from
/// `tats_core::experiment` as it stood before this refactor.
fn table1_pre_refactor(config: &ExperimentConfig) -> Table1 {
    let library = config.library().expect("library");
    let platform = PlatformFlow::new(&library)
        .expect("platform")
        .with_thermal_config(config.thermal_config);
    let cosynthesis = CoSynthesis::new(&library)
        .with_max_pes(config.max_pes)
        .with_thermal_config(config.thermal_config)
        .with_floorplan_ga(config.floorplan_ga);

    let mut rows = Vec::new();
    for bm in Benchmark::ALL {
        let graph = bm.task_graph().expect("graph");
        for policy in Table1::POLICIES {
            let co = cosynthesis.run(&graph, policy).expect("co-synthesis");
            let pl = platform.run(&graph, policy).expect("platform");
            rows.push(Table1Row {
                benchmark: bm,
                policy,
                cosynthesis: (&co.evaluation).into(),
                platform: (&pl.evaluation).into(),
            });
        }
    }
    Table1 { rows }
}

#[test]
fn table1_via_engine_matches_the_pre_refactor_loop_byte_for_byte() {
    let config = ExperimentConfig::fast();
    let via_engine = table1(&config).expect("engine table1");
    let reference = table1_pre_refactor(&config);
    // Bit-equal f64 cells render to identical bytes.
    assert_eq!(via_engine, reference);
}

#[test]
fn engine_flows_cover_cosynthesis_too() {
    let campaign = Campaign::new(ExperimentConfig::fast())
        .with_benchmarks(vec![Benchmark::Bm1])
        .with_flows(vec![FlowKind::Platform, FlowKind::CoSynthesis])
        .with_policies(vec![Policy::ThermalAware]);
    let records = run_scenario_set(&campaign, &campaign.scenarios(), &BTreeSet::new());
    assert_eq!(records.len(), 2);
    let flows: Vec<&str> = records.iter().map(|r| r.flow.as_str()).collect();
    assert!(flows.contains(&"platform"));
    assert!(flows.contains(&"cosynthesis"));
    for record in &records {
        assert!(record.meets_deadline, "{}", record.key);
        assert!(record.energy > 0.0);
    }
}
