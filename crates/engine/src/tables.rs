//! The paper's table drivers, re-expressed as batch campaigns.
//!
//! Each driver enumerates its scenario grid through [`Campaign`], runs it on
//! the [`Executor`] (so independent cells evaluate concurrently and share
//! per-worker thermal-model caches), and assembles the rows from the sorted
//! record set. Outputs are **pinned identical** to the original in-process
//! loops of `tats_core::experiment`: scenario evaluation goes through the
//! flows' one cache-sourced path, which their one-shot `run` also takes,
//! and row order is reconstructed from the stable scenario ordering rather
//! than completion order. The engine's test suite compares `table1` against
//! a from-scratch replica of the pre-engine loop byte-for-byte.

use std::collections::BTreeSet;

use tats_core::experiment::{
    ComparisonRow, ComparisonTable, ExperimentConfig, MetricsRow, Table1, Table1Row,
};
use tats_core::{Policy, PowerHeuristic};
use tats_taskgraph::Benchmark;

use crate::error::EngineError;
use crate::executor::{Executor, ScenarioRecord};
use crate::scenario::{policy_slug, Campaign, FlowKind};

fn metrics(record: &ScenarioRecord) -> MetricsRow {
    MetricsRow {
        total_power: record.total_power,
        max_temp_c: record.max_temp_c,
        avg_temp_c: record.avg_temp_c,
    }
}

/// Runs a campaign to completion on an auto-sized executor and returns the
/// records in scenario order.
fn run_campaign(campaign: &Campaign) -> Result<Vec<ScenarioRecord>, EngineError> {
    let scenarios = campaign.scenarios();
    let run = Executor::new(0).run(campaign, &scenarios, &BTreeSet::new(), |_| Ok(()))?;
    Ok(run.records)
}

fn find(
    records: &[ScenarioRecord],
    benchmark: Benchmark,
    flow: FlowKind,
    policy: Policy,
) -> Result<&ScenarioRecord, EngineError> {
    records
        .iter()
        .find(|r| {
            r.benchmark == benchmark.name()
                && r.flow == flow.name()
                && r.policy == policy_slug(policy)
        })
        .ok_or_else(|| {
            EngineError::InvalidParameter(format!(
                "campaign produced no record for {}/{}/{}",
                benchmark.name(),
                flow.name(),
                policy_slug(policy)
            ))
        })
}

/// Regenerates Table 1 (baseline and the three power heuristics on both
/// architectures) through the batch engine.
///
/// # Errors
///
/// Propagates scheduling, co-synthesis and thermal-model errors.
pub fn table1(config: &ExperimentConfig) -> Result<Table1, EngineError> {
    let campaign = Campaign::new(config.clone())
        .with_flows(vec![FlowKind::CoSynthesis, FlowKind::Platform])
        .with_policies(Table1::POLICIES.to_vec());
    let records = run_campaign(&campaign)?;

    let mut rows = Vec::new();
    for bm in Benchmark::ALL {
        for policy in Table1::POLICIES {
            let co = find(&records, bm, FlowKind::CoSynthesis, policy)?;
            let pl = find(&records, bm, FlowKind::Platform, policy)?;
            rows.push(Table1Row {
                benchmark: bm,
                policy,
                cosynthesis: metrics(co),
                platform: metrics(pl),
            });
        }
    }
    Ok(Table1 { rows })
}

fn comparison(
    config: &ExperimentConfig,
    flow: FlowKind,
    caption: &str,
) -> Result<ComparisonTable, EngineError> {
    let power = Policy::PowerAware(PowerHeuristic::MinTaskEnergy);
    let campaign = Campaign::new(config.clone())
        .with_flows(vec![flow])
        .with_policies(vec![power, Policy::ThermalAware]);
    let records = run_campaign(&campaign)?;

    let mut rows = Vec::new();
    for bm in Benchmark::ALL {
        rows.push(ComparisonRow {
            benchmark: bm,
            power_aware: metrics(find(&records, bm, flow, power)?),
            thermal_aware: metrics(find(&records, bm, flow, Policy::ThermalAware)?),
        });
    }
    Ok(ComparisonTable {
        caption: caption.to_string(),
        rows,
    })
}

/// Regenerates Table 2 (power-aware heuristic 3 vs thermal-aware
/// co-synthesis) through the batch engine.
///
/// # Errors
///
/// Propagates scheduling, co-synthesis and thermal-model errors.
pub fn table2(config: &ExperimentConfig) -> Result<ComparisonTable, EngineError> {
    comparison(
        config,
        FlowKind::CoSynthesis,
        "Table 2. Power-aware vs thermal-aware co-synthesis architecture",
    )
}

/// Regenerates Table 3 (power-aware heuristic 3 vs thermal-aware scheduling
/// on the platform architecture) through the batch engine.
///
/// # Errors
///
/// Propagates scheduling and thermal-model errors.
pub fn table3(config: &ExperimentConfig) -> Result<ComparisonTable, EngineError> {
    comparison(
        config,
        FlowKind::Platform,
        "Table 3. Power-aware vs thermal-aware platform-based architecture",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_thermal_aware_never_hotter_at_the_peak() {
        // The headline platform result of the paper, checked as a weak
        // inequality per benchmark.
        let table = table3(&ExperimentConfig::fast()).unwrap();
        assert_eq!(table.rows.len(), 4);
        for row in &table.rows {
            assert!(
                row.thermal_aware.max_temp_c <= row.power_aware.max_temp_c + 1.0,
                "{}: thermal {:.2} vs power {:.2}",
                row.benchmark.name(),
                row.thermal_aware.max_temp_c,
                row.power_aware.max_temp_c
            );
        }
        assert!(table.mean_max_temp_reduction() >= -0.5);
        assert!(table.caption.starts_with("Table 3."));
    }

    #[test]
    fn table1_platform_columns_are_complete_and_plausible() {
        let table = table1(&ExperimentConfig::fast()).unwrap();
        assert_eq!(table.rows.len(), 16);
        for bm in Benchmark::ALL {
            assert_eq!(table.benchmark_rows(bm).len(), 4);
        }
        for row in &table.rows {
            for metrics in [&row.cosynthesis, &row.platform] {
                assert!(metrics.total_power > 0.0);
                assert!(metrics.max_temp_c >= metrics.avg_temp_c);
                assert!(metrics.avg_temp_c > 45.0);
                assert!(metrics.max_temp_c < 200.0);
            }
        }
        for (rows, bm) in table.rows.chunks(4).zip(Benchmark::ALL) {
            for (row, policy) in rows.iter().zip(Table1::POLICIES) {
                assert_eq!((row.benchmark, row.policy), (bm, policy));
            }
        }
        let _ = table.best_heuristic_by_max_temp();
    }

    #[test]
    fn table2_rows_cover_all_benchmarks() {
        let table = table2(&ExperimentConfig::fast()).unwrap();
        assert_eq!(table.rows.len(), 4);
        for (row, bm) in table.rows.iter().zip(Benchmark::ALL) {
            assert_eq!(row.benchmark, bm);
            assert!(row.thermal_aware.total_power > 0.0);
            assert!(row.power_aware.total_power > 0.0);
        }
        assert!(table.caption.starts_with("Table 2."));
    }
}
