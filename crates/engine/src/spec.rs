//! `CampaignSpec`: the serializable boundary between a campaign definition
//! and the processes that run it.
//!
//! A [`Campaign`](crate::Campaign) is an in-memory object; distributing it
//! (submit a job over HTTP, lease a shard to a worker on another machine)
//! needs a wire form whose meaning is *exactly* the campaign it describes.
//! [`CampaignSpec`] is that form: every axis is spelled with the same stable
//! names the CLI accepts (`Bm1`, `platform`, `thermal`, `cholesky`), the
//! evaluation effort is one of the two named configurations
//! ([`Effort::Fast`] / [`Effort::Full`]), and [`CampaignSpec::fingerprint`]
//! hashes the canonical JSON encoding so two processes can cheaply verify
//! they are talking about the same scenario enumeration before trusting each
//! other's scenario ids — the same id ≙ key discipline the CLI's `--resume`
//! fingerprinting enforces on files, extended across process boundaries.

use std::fmt;

use tats_core::experiment::ExperimentConfig;
use tats_core::Policy;
use tats_taskgraph::Benchmark;
use tats_thermal::{GridSolver, MAX_GRID_SIDE};
use tats_trace::json::MAX_EXACT_INTEGER;
use tats_trace::JsonValue;

use crate::error::EngineError;
use crate::scenario::{policy_slug, Campaign, FlowKind};

/// The two named evaluation efforts a spec may request (the CLI's default
/// vs `--full`). Keeping effort an enum — instead of shipping raw GA
/// parameters — means a spec can only describe configurations whose results
/// are reproducible by any build of this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Reduced-effort configuration (`ExperimentConfig::fast`): smaller
    /// floorplanner population, same architectures and policies.
    #[default]
    Fast,
    /// Full-effort configuration (`ExperimentConfig::default`).
    Full,
}

impl Effort {
    /// Stable lowercase name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Effort::Fast => "fast",
            Effort::Full => "full",
        }
    }

    /// Parses the stable name.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, EngineError> {
        match name {
            "fast" => Ok(Effort::Fast),
            "full" => Ok(Effort::Full),
            other => Err(EngineError::InvalidParameter(format!(
                "unknown effort '{other}' (expected fast or full)"
            ))),
        }
    }

    /// The experiment configuration this effort names.
    pub fn experiment_config(self) -> ExperimentConfig {
        match self {
            Effort::Fast => ExperimentConfig::fast(),
            Effort::Full => ExperimentConfig::default(),
        }
    }
}

impl fmt::Display for Effort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A serializable campaign definition: the grid axes by their stable names
/// plus the named evaluation effort. Converts losslessly to and from
/// [`Campaign`] (`spec.to_campaign()` / `CampaignSpec::from_campaign`), and
/// to and from JSON (`to_json` / `from_json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Benchmark axis.
    pub benchmarks: Vec<Benchmark>,
    /// Design-flow axis.
    pub flows: Vec<FlowKind>,
    /// Scheduling-policy axis.
    pub policies: Vec<Policy>,
    /// Grid-validation axis (`None` = block model only).
    pub solvers: Vec<Option<GridSolver>>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Grid-model resolution used by grid-validation scenarios.
    pub grid_resolution: (usize, usize),
    /// Named evaluation effort.
    pub effort: Effort,
}

impl Default for CampaignSpec {
    /// Mirrors `Campaign::default()`: all benchmarks, platform flow, every
    /// policy, block model only, canonical seed, fast effort.
    fn default() -> Self {
        CampaignSpec::from_campaign(&Campaign::default()).expect("default campaign is standard")
    }
}

fn parse_benchmark(name: &str) -> Result<Benchmark, EngineError> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| EngineError::InvalidParameter(format!("unknown benchmark '{name}'")))
}

fn parse_flow(name: &str) -> Result<FlowKind, EngineError> {
    FlowKind::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| EngineError::InvalidParameter(format!("unknown flow '{name}'")))
}

fn parse_policy(slug: &str) -> Result<Policy, EngineError> {
    Policy::ALL
        .into_iter()
        .find(|p| policy_slug(*p) == slug)
        .ok_or_else(|| EngineError::InvalidParameter(format!("unknown policy '{slug}'")))
}

/// Wraps a field-accessor message (`JsonValue::field_*`) as a spec error.
fn spec_error(message: String) -> EngineError {
    EngineError::InvalidParameter(format!("campaign spec: {message}"))
}

/// Checks one side of the grid resolution against `1..=MAX_GRID_SIDE`.
fn grid_side(name: &str, side: u64) -> Result<usize, EngineError> {
    usize::try_from(side)
        .ok()
        .filter(|side| (1..=MAX_GRID_SIDE).contains(side))
        .ok_or_else(|| {
            spec_error(format!(
                "field '{name}' must be an integer from 1 to {MAX_GRID_SIDE}, got {side}"
            ))
        })
}

/// Interprets a field as an array of strings mapped through `parse`.
fn string_list<T>(
    value: &JsonValue,
    name: &str,
    parse: impl Fn(&str) -> Result<T, EngineError>,
) -> Result<Vec<T>, EngineError> {
    value
        .field_array(name)
        .map_err(spec_error)?
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| spec_error(format!("field '{name}' must contain strings")))
                .and_then(&parse)
        })
        .collect()
}

impl CampaignSpec {
    /// Instantiates the campaign this spec describes.
    pub fn to_campaign(&self) -> Campaign {
        Campaign::new(self.effort.experiment_config())
            .with_benchmarks(self.benchmarks.clone())
            .with_flows(self.flows.clone())
            .with_policies(self.policies.clone())
            .with_solvers(self.solvers.clone())
            .with_seeds(self.seeds.clone())
            .with_grid_resolution(self.grid_resolution.0, self.grid_resolution.1)
    }

    /// The spec describing a campaign.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] when the campaign's
    /// experiment configuration is neither of the two named efforts, when a
    /// seed exceeds [`MAX_EXACT_INTEGER`] (2^53 − 1) or when a grid side lies
    /// outside `1..=`[`MAX_GRID_SIDE`]. Such a campaign has no faithful wire
    /// form, and shipping an *approximate* spec would silently change what
    /// remote workers compute.
    pub fn from_campaign(campaign: &Campaign) -> Result<Self, EngineError> {
        let effort = if *campaign.experiment() == ExperimentConfig::fast() {
            Effort::Fast
        } else if *campaign.experiment() == ExperimentConfig::default() {
            Effort::Full
        } else {
            return Err(EngineError::InvalidParameter(
                "campaign uses a custom experiment configuration; only the named \
                 'fast' and 'full' efforts are serializable"
                    .to_string(),
            ));
        };
        if let Some(seed) = campaign.seeds().iter().find(|&&s| s > MAX_EXACT_INTEGER) {
            return Err(EngineError::InvalidParameter(format!(
                "seed {seed} is above 2^53 - 1, the largest integer a JSON number carries \
                 exactly"
            )));
        }
        let (nx, ny) = campaign.grid_resolution();
        grid_side("nx", nx as u64)?;
        grid_side("ny", ny as u64)?;
        Ok(CampaignSpec {
            benchmarks: campaign.benchmarks().to_vec(),
            flows: campaign.flows().to_vec(),
            policies: campaign.policies().to_vec(),
            solvers: campaign.solvers().to_vec(),
            seeds: campaign.seeds().to_vec(),
            grid_resolution: campaign.grid_resolution(),
            effort,
        })
    }

    /// Serialises the spec as a JSON object (axis values by stable name; the
    /// block-model-only solver entry is `null`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "benchmarks".to_string(),
                JsonValue::Array(
                    self.benchmarks
                        .iter()
                        .map(|b| JsonValue::from(b.name()))
                        .collect(),
                ),
            ),
            (
                "flows".to_string(),
                JsonValue::Array(
                    self.flows
                        .iter()
                        .map(|f| JsonValue::from(f.name()))
                        .collect(),
                ),
            ),
            (
                "policies".to_string(),
                JsonValue::Array(
                    self.policies
                        .iter()
                        .map(|p| JsonValue::from(policy_slug(*p)))
                        .collect(),
                ),
            ),
            (
                "solvers".to_string(),
                JsonValue::Array(
                    self.solvers
                        .iter()
                        .map(|s| match s {
                            None => JsonValue::Null,
                            Some(solver) => JsonValue::from(solver.name()),
                        })
                        .collect(),
                ),
            ),
            (
                "seeds".to_string(),
                JsonValue::Array(
                    self.seeds
                        .iter()
                        .map(|&s| JsonValue::from(s as usize))
                        .collect(),
                ),
            ),
            ("nx".to_string(), JsonValue::from(self.grid_resolution.0)),
            ("ny".to_string(), JsonValue::from(self.grid_resolution.1)),
            ("effort".to_string(), JsonValue::from(self.effort.name())),
        ])
    }

    /// Deserialises a spec from a JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] naming the offending field
    /// for missing fields, wrong shapes, unknown axis names and a grid side
    /// outside `1..=`[`MAX_GRID_SIDE`], and [`EngineError::Thermal`] naming
    /// any grid solver but `cholesky`.
    pub fn from_json(value: &JsonValue) -> Result<Self, EngineError> {
        let solvers = value
            .field_array("solvers")
            .map_err(spec_error)?
            .iter()
            .map(|item| {
                if item.is_null() {
                    Ok(None)
                } else {
                    item.as_str()
                        .ok_or_else(|| {
                            spec_error("field 'solvers' must contain strings or null".to_string())
                        })
                        .and_then(|name| {
                            GridSolver::parse(name).map(Some).map_err(EngineError::from)
                        })
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = value
            .field_array("seeds")
            .map_err(spec_error)?
            .iter()
            .map(|item| {
                item.as_u64().ok_or_else(|| {
                    spec_error("field 'seeds' must contain integers from 0 to 2^53 - 1".to_string())
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let effort = Effort::parse(value.field_str("effort").map_err(spec_error)?)?;
        Ok(CampaignSpec {
            benchmarks: string_list(value, "benchmarks", parse_benchmark)?,
            flows: string_list(value, "flows", parse_flow)?,
            policies: string_list(value, "policies", parse_policy)?,
            solvers,
            seeds,
            grid_resolution: (
                grid_side("nx", value.field_u64("nx").map_err(spec_error)?)?,
                grid_side("ny", value.field_u64("ny").map_err(spec_error)?)?,
            ),
            effort,
        })
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for malformed JSON or an
    /// invalid spec object.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let value = JsonValue::parse(text)
            .map_err(|e| EngineError::InvalidParameter(format!("campaign spec: {e}")))?;
        CampaignSpec::from_json(&value)
    }

    /// FNV-1a hash of the canonical JSON encoding, as 16 hex digits. Two
    /// processes with equal fingerprints enumerate the identical scenario
    /// list (same ids, same keys, same evaluation configuration), which is
    /// the precondition for exchanging records by scenario id.
    pub fn fingerprint(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json().to_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_core::experiment::ExperimentConfig;

    fn multi_axis_spec() -> CampaignSpec {
        CampaignSpec {
            benchmarks: vec![Benchmark::Bm1, Benchmark::Bm3],
            flows: FlowKind::ALL.to_vec(),
            policies: Policy::ALL.to_vec(),
            solvers: vec![None, Some(GridSolver::BandedCholesky)],
            seeds: vec![0, 1, 7],
            grid_resolution: (12, 12),
            effort: Effort::Fast,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = multi_axis_spec();
        let text = spec.to_json().to_json();
        let back = CampaignSpec::parse(&text).expect("parse");
        assert_eq!(back, spec);
        assert_eq!(back.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn spec_round_trips_through_campaign() {
        let spec = multi_axis_spec();
        let campaign = spec.to_campaign();
        let back = CampaignSpec::from_campaign(&campaign).expect("standard config");
        assert_eq!(back, spec);
        // The derived campaign enumerates the product of the axes.
        assert_eq!(campaign.len(), 2 * 2 * 5 * 2 * 3);
        // Seeds up to 2^53 - 1 survive the JSON number; from 2^53 on, a
        // literal may round onto a neighbour, so it has no spec.
        let largest = campaign.clone().with_seeds(vec![MAX_EXACT_INTEGER]);
        let spec = CampaignSpec::from_campaign(&largest).expect("2^53 - 1 is exact");
        assert_eq!(
            CampaignSpec::parse(&spec.to_json().to_json()).unwrap(),
            spec
        );
        let error = CampaignSpec::from_campaign(&campaign.with_seeds(vec![MAX_EXACT_INTEGER + 1]))
            .expect_err("2^53 is refused");
        assert!(error.to_string().contains("9007199254740992"), "{error}");
    }

    #[test]
    fn fingerprint_distinguishes_campaign_definitions() {
        let spec = multi_axis_spec();
        let mut other = spec.clone();
        other.seeds = vec![0, 1, 8];
        assert_ne!(spec.fingerprint(), other.fingerprint());
        let mut full = spec.clone();
        full.effort = Effort::Full;
        assert_ne!(spec.fingerprint(), full.fingerprint());
        // Deterministic across constructions (and, because it hashes the
        // canonical JSON, across processes): mixed server/worker fleets
        // compare fingerprints before trusting each other's scenario ids.
        assert_eq!(spec.fingerprint().len(), 16);
        assert_eq!(spec.fingerprint(), multi_axis_spec().fingerprint());
    }

    #[test]
    fn custom_experiment_configs_are_not_serializable() {
        let campaign = Campaign::new(ExperimentConfig {
            max_pes: 9,
            ..ExperimentConfig::fast()
        });
        let error = CampaignSpec::from_campaign(&campaign).expect_err("custom config");
        assert!(error.to_string().contains("fast"), "{error}");
    }

    #[test]
    fn from_json_names_the_offending_field() {
        let missing = JsonValue::parse("{\"benchmarks\": [\"Bm1\"]}").unwrap();
        let error = CampaignSpec::from_json(&missing).expect_err("missing fields");
        assert!(error.to_string().contains("missing"), "{error}");
        let bad = JsonValue::parse(
            "{\"benchmarks\":[\"Bm9\"],\"flows\":[],\"policies\":[],\"solvers\":[],\
             \"seeds\":[],\"nx\":16,\"ny\":16,\"effort\":\"fast\"}",
        )
        .unwrap();
        let error = CampaignSpec::from_json(&bad).expect_err("unknown benchmark");
        assert!(error.to_string().contains("Bm9"), "{error}");
        // Each grid side lies in 1..=MAX_GRID_SIDE; 2^32 used to pass
        // unchecked and wrap `nx * ny` to zero in the grid model.
        let good = bad.to_json().replace("Bm9", "Bm1");
        assert!(CampaignSpec::parse(&good).is_ok());
        for (field, side) in [
            ("nx", "0"),
            ("nx", "129"),
            ("nx", "4294967296"),
            ("ny", "0"),
            ("ny", "129"),
            ("ny", "4294967296"),
        ] {
            let text = good.replace(&format!("\"{field}\":16"), &format!("\"{field}\":{side}"));
            let error = CampaignSpec::parse(&text).expect_err(&text).to_string();
            assert!(error.contains(&format!("'{field}'")), "{error}");
            assert!(error.contains("from 1 to 128"), "{error}");
        }
        assert!(CampaignSpec::parse("not json").is_err());
        assert!(Effort::parse("medium").is_err());
        assert_eq!(Effort::parse("full").unwrap(), Effort::Full);
        assert_eq!(Effort::Full.to_string(), "full");
    }

    #[test]
    fn seeds_past_the_exact_range_are_refused() {
        // 9007199254740993 parses as 2^53; refusing 2^53 itself keeps that
        // literal from running a neighbouring seed.
        let text = CampaignSpec::default().to_json().to_json();
        assert!(text.contains("\"seeds\":[0]"), "{text}");
        let with_seed = |seed: &str| text.replace("\"seeds\":[0]", &format!("\"seeds\":[{seed}]"));
        let largest = CampaignSpec::parse(&with_seed("9007199254740991")).expect("2^53 - 1");
        assert_eq!(largest.seeds, vec![MAX_EXACT_INTEGER]);
        for seed in ["9007199254740992", "9007199254740993"] {
            let error = CampaignSpec::parse(&with_seed(seed))
                .expect_err(seed)
                .to_string();
            assert!(error.contains("'seeds'"), "{error}");
        }
    }

    #[test]
    fn solver_names_round_trip() {
        let text = multi_axis_spec().to_json().to_json();
        assert!(text.contains("\"solvers\":[null,\"cholesky\"]"), "{text}");
        assert_eq!(
            GridSolver::parse(GridSolver::BandedCholesky.name()).unwrap(),
            GridSolver::BandedCholesky
        );
        // Removed solvers are refused, never mapped onto Cholesky.
        for removed in ["gauss-seidel", "gs", "pcg", "pcg-jacobi", "multigrid"] {
            let renamed = text.replace("\"cholesky\"", &format!("\"{removed}\""));
            let error = CampaignSpec::parse(&renamed)
                .expect_err(removed)
                .to_string();
            assert!(error.contains(&format!("'{removed}'")), "{error}");
            assert!(
                error.contains("cholesky is the only grid solver"),
                "{error}"
            );
        }
    }
}
