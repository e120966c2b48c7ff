//! The correctness gate: committed golden record sets at the default seed.
//!
//! Discrete fields must match exactly and floats within [`REL_TOL`]
//! relative, so an optimisation that reorders floating-point work (an
//! `R·P` superposition in place of an LU solve, say) passes when its
//! results are right and fails when an assignment or a tie flips.

use std::path::PathBuf;

use tats_engine::ScenarioRecord;
use tats_trace::JsonValue;

/// Relative tolerance on every float field of a record.
pub const REL_TOL: f64 = 1e-9;

/// The seed whose record sets are committed under `golden/`.
pub const DEFAULT_SEED: u64 = 0;

fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.jsonl"))
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Whether `got` matches `want` under the gate's rules.
pub fn matches(got: &ScenarioRecord, want: &ScenarioRecord) -> bool {
    let grid = match (got.grid_max_temp_c, want.grid_max_temp_c) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    };
    got.id == want.id
        && got.key == want.key
        && got.benchmark == want.benchmark
        && got.flow == want.flow
        && got.policy == want.policy
        && got.seed == want.seed
        && got.solver == want.solver
        && got.meets_deadline == want.meets_deadline
        && close(got.total_power, want.total_power)
        && close(got.max_temp_c, want.max_temp_c)
        && close(got.avg_temp_c, want.avg_temp_c)
        && close(got.makespan, want.makespan)
        && close(got.energy, want.energy)
        && grid
}

/// Compares `records` (sorted by id) against the workload's golden set.
/// Returns the number of records that do not match; a missing or extra
/// record counts as a mismatch.
///
/// # Errors
///
/// Returns a message when the golden file cannot be read or parsed.
pub fn mismatches(workload: &str, records: &[ScenarioRecord]) -> Result<u64, String> {
    let path = path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("golden set {}: {e}", path.display()))?;
    let golden = text
        .lines()
        .map(|line| {
            JsonValue::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|value| ScenarioRecord::from_json(&value).map_err(|e| e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("golden set {}: {e}", path.display()))?;
    let paired = golden
        .iter()
        .zip(records)
        .filter(|(want, got)| !matches(got, want))
        .count();
    Ok((paired + golden.len().abs_diff(records.len())) as u64)
}

/// Writes `records` as the workload's golden set (the `--bless` path).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn bless(workload: &str, records: &[ScenarioRecord]) -> std::io::Result<PathBuf> {
    let path = path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for record in records {
        text.push_str(&record.to_json().to_json());
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(path)
}
