//! The Allocation and Scheduling Procedure (ASP).
//!
//! This is the paper's core contribution: a list scheduler that repeatedly
//! picks the `(ready task, PE)` pair with the highest *dynamic criticality*
//!
//! ```text
//! DC(task_i, PE_j) = SC(task_i)
//!                  - WCET(task_i, PE_j)
//!                  - max(avail(PE_j), ready(task_i))
//!                  - cost(policy, task_i, PE_j)
//! ```
//!
//! where `SC` is the static criticality (the longest weighted path from the
//! task to the end of the graph), and the fourth term is selected by the
//! [`Policy`]: nothing for the baseline, one of the three power heuristics,
//! or, for the thermal-aware ASP, the rise above ambient of the
//! [`ThermalObjective`] score (by default [`ThermalObjective::Blended`], the
//! mean of the average and peak block temperatures the compact thermal
//! model predicts) times the temperature weight.

use std::sync::Arc;

use tats_taskgraph::{analysis, TaskGraph, TaskId};
use tats_techlib::{Architecture, PeId, TechLibrary};
use tats_thermal::{ThermalConfig, ThermalError, ThermalModel};

use crate::error::CoreError;
use crate::layout;
use crate::policy::{Policy, PowerHeuristic, ThermalObjective};
use crate::schedule::{Assignment, Schedule};

/// The allocation and scheduling procedure, configured via a builder-style
/// API.
///
/// # Examples
///
/// ```
/// use tats_core::{Asp, Policy};
/// use tats_taskgraph::Benchmark;
/// use tats_techlib::profiles;
///
/// # fn main() -> Result<(), tats_core::CoreError> {
/// let graph = Benchmark::Bm1.task_graph()?;
/// let library = profiles::standard_library(10)?;
/// let platform = profiles::platform_architecture(&library)?;
/// let schedule = Asp::new(&graph, &library, &platform)?
///     .with_policy(Policy::ThermalAware)
///     .schedule()?;
/// assert!(schedule.meets_deadline());
/// schedule.validate(&graph, &platform, &library)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Asp<'a> {
    graph: &'a TaskGraph,
    library: &'a TechLibrary,
    architecture: &'a Architecture,
    policy: Policy,
    thermal_model: Option<Arc<ThermalModel>>,
    thermal_objective: ThermalObjective,
    temperature_weight: f64,
    cost_scale: f64,
}

impl<'a> Asp<'a> {
    /// Creates an ASP instance for a graph, library and target architecture.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArchitecture`] when the architecture has no
    /// PEs, and library errors when the architecture references unknown PE
    /// types or the graph uses task types outside the library.
    pub fn new(
        graph: &'a TaskGraph,
        library: &'a TechLibrary,
        architecture: &'a Architecture,
    ) -> Result<Self, CoreError> {
        if architecture.is_empty() {
            return Err(CoreError::EmptyArchitecture);
        }
        architecture.validate(library)?;
        for task in graph.tasks() {
            if task.type_id() >= library.task_type_count() {
                return Err(CoreError::Library(
                    tats_techlib::LibraryError::UnknownTaskType(task.type_id()),
                ));
            }
        }
        Ok(Asp {
            graph,
            library,
            architecture,
            policy: Policy::Baseline,
            thermal_model: None,
            thermal_objective: ThermalObjective::default(),
            temperature_weight: 25.0,
            cost_scale: 1.0,
        })
    }

    /// Selects the scheduling policy (default: [`Policy::Baseline`]).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Supplies the thermal model the thermal-aware policy queries: one block
    /// per PE, in PE-id order (`schedule()` checks the count). Temperature
    /// rises are measured against the ambient of the model's configuration.
    ///
    /// Without a model, a thermal-aware `schedule()` builds one on the grid
    /// floorplan of the architecture under [`ThermalConfig::default`].
    pub fn with_thermal_model(mut self, model: Arc<ThermalModel>) -> Self {
        self.thermal_model = Some(model);
        self
    }

    /// Selects which temperature statistic the thermal-aware policy minimises
    /// (see [`ThermalObjective`]).
    pub fn with_thermal_objective(mut self, objective: ThermalObjective) -> Self {
        self.thermal_objective = objective;
        self
    }

    /// Sets how many schedule time units one degree Celsius of predicted
    /// temperature rise is worth in the dynamic criticality (default 25).
    ///
    /// The paper subtracts the temperature directly, but does not specify the
    /// relative units of time and temperature; this weight makes the
    /// trade-off explicit.
    pub fn with_temperature_weight(mut self, weight: f64) -> Self {
        self.temperature_weight = weight;
        self
    }

    /// Scales the fourth (power/temperature) term of the dynamic criticality.
    ///
    /// The paper subtracts the raw term; a scale of `1.0` reproduces that.
    pub fn with_cost_scale(mut self, cost_scale: f64) -> Self {
        self.cost_scale = cost_scale;
        self
    }

    /// The policy currently configured.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Runs the list scheduler and returns the completed schedule.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (library lookups, thermal inquiries,
    /// floorplan validation). Scheduling itself cannot fail for a valid
    /// input: every task graph admits a schedule on at least one PE.
    pub fn schedule(&self) -> Result<Schedule, CoreError> {
        if !self.cost_scale.is_finite() || self.cost_scale < 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "cost scale must be non-negative and finite, got {}",
                self.cost_scale
            )));
        }
        if !self.temperature_weight.is_finite() || self.temperature_weight < 0.0 {
            return Err(CoreError::InvalidParameter(format!(
                "temperature weight must be non-negative and finite, got {}",
                self.temperature_weight
            )));
        }

        // Static criticality weights: mean WCET of each task over PE types.
        let weights: Vec<f64> = self
            .graph
            .tasks()
            .map(|t| self.library.average_wcet(t.type_id()))
            .collect::<Result<_, _>>()?;
        let static_criticality = analysis::static_criticalities(self.graph, &weights)?;

        // Thermal model (thermal-aware policy only): the supplied one, or one
        // built on the architecture's grid floorplan.
        let mut thermal = if self.policy.needs_thermal_model() {
            let model = match &self.thermal_model {
                Some(model) => Arc::clone(model),
                None => Arc::new(ThermalModel::new(
                    &layout::grid_floorplan(self.architecture, self.library)?,
                    ThermalConfig::default(),
                )?),
            };
            if model.block_count() != self.architecture.pe_count() {
                return Err(CoreError::FloorplanMismatch {
                    pes: self.architecture.pe_count(),
                    blocks: model.block_count(),
                });
            }
            Some(ThermalInquiry::new(model))
        } else {
            None
        };

        // Latest start times that keep the downstream critical path within
        // the deadline (computed with average WCETs). Candidates that would
        // start later are demoted so the power/thermal terms can never trade
        // away the real-time constraint when a safe candidate exists.
        let latest_start: Vec<f64> = static_criticality
            .iter()
            .map(|sc| self.graph.deadline() - sc)
            .collect();
        const LATE_PENALTY: f64 = 1e7;

        let pe_count = self.architecture.pe_count();
        let task_count = self.graph.task_count();
        // (WCET, WCPC) of every task on every PE: row `task`, column `pe`.
        let mut execution = Vec::with_capacity(task_count * pe_count);
        for task in self.graph.tasks() {
            for pe in self.architecture.pe_ids() {
                let pe_type = self.architecture.pe_type_of(pe)?;
                execution.push((
                    self.library.wcet(task.type_id(), pe_type)?,
                    self.library.wcpc(task.type_id(), pe_type)?,
                ));
            }
        }
        let mut pe_available = vec![0.0_f64; pe_count];
        // Energy and busy time of the tasks committed to each PE so far.
        let mut busy_energy = vec![0.0_f64; pe_count];
        let mut busy_time = vec![0.0_f64; pe_count];
        // The latest finish of each task's committed predecessors: its ready
        // time once the last one commits.
        let mut ready_time = vec![0.0_f64; task_count];
        let mut unscheduled_preds: Vec<usize> = self
            .graph
            .task_ids()
            .map(|t| self.graph.predecessors(t).len())
            .collect();
        let mut ready: Vec<TaskId> = self
            .graph
            .task_ids()
            .filter(|&t| unscheduled_preds[t.index()] == 0)
            .collect();
        let mut assignments: Vec<Option<Assignment>> = vec![None; task_count];
        let mut scheduled = 0usize;

        while scheduled < task_count {
            debug_assert!(!ready.is_empty(), "a DAG always has a ready task");
            if let Some(thermal) = &mut thermal {
                thermal.begin_step(&busy_energy, &busy_time);
            }

            // Evaluate the dynamic criticality of every (ready task, PE) pair
            // and keep the maximum.
            let mut best: Option<(f64, TaskId, PeId, f64, f64, f64)> = None;
            for &task_id in &ready {
                let row = &execution[task_id.index() * pe_count..][..pe_count];
                for (pe_index, &(wcet, wcpc)) in row.iter().enumerate() {
                    let pe = PeId(pe_index);
                    let est = pe_available[pe_index].max(ready_time[task_id.index()]);
                    let finish = est + wcet;

                    let cost = match self.policy {
                        Policy::Baseline => 0.0,
                        Policy::PowerAware(PowerHeuristic::MinTaskPower) => wcpc,
                        Policy::PowerAware(PowerHeuristic::MinCumulativeAveragePower) => {
                            (busy_energy[pe_index] + wcet * wcpc) / finish.max(1e-9)
                        }
                        Policy::PowerAware(PowerHeuristic::MinTaskEnergy) => wcet * wcpc,
                        Policy::ThermalAware => {
                            let thermal = thermal.as_mut().expect("built for the thermal policy");
                            // Sustained power (energy over busy time) of the
                            // candidate PE with the candidate task folded in;
                            // every other PE keeps its committed power — i.e.
                            // "the cumulating power consumptions of each PE
                            // along with the consuming power incurred by the
                            // current scheduled task".
                            let power = sustained_power(
                                busy_energy[pe_index] + wcet * wcpc,
                                busy_time[pe_index] + wcet,
                            );
                            let score = self
                                .thermal_objective
                                .score(thermal.temperatures_with(pe_index, power)?);
                            // Express the predicted temperature rise above
                            // ambient in schedule time units so that it can
                            // compete with the WCET and start-time terms.
                            (score - thermal.model.config().ambient_c).max(0.0)
                                * self.temperature_weight
                        }
                    };

                    let mut dc =
                        static_criticality[task_id.index()] - wcet - est - self.cost_scale * cost;
                    if est > latest_start[task_id.index()] + 1e-9 {
                        dc -= LATE_PENALTY;
                    }
                    let candidate = (dc, task_id, pe, est, wcet, wcpc);
                    let better = match &best {
                        None => true,
                        Some((best_dc, best_task, best_pe, ..)) => {
                            dc > *best_dc + 1e-12
                                || ((dc - *best_dc).abs() <= 1e-12
                                    && (task_id, pe) < (*best_task, *best_pe))
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }

            let (_, task_id, pe, start, wcet, wcpc) =
                best.expect("at least one ready task and one PE exist");
            let end = start + wcet;
            assignments[task_id.index()] = Some(Assignment {
                task: task_id,
                pe,
                start,
                end,
                power: wcpc,
            });
            pe_available[pe.index()] = end;
            let duration = end - start;
            busy_energy[pe.index()] += wcpc * duration;
            busy_time[pe.index()] += duration;
            scheduled += 1;

            // Update the ready set.
            ready.retain(|&t| t != task_id);
            for &succ in self.graph.successors(task_id) {
                ready_time[succ.index()] = ready_time[succ.index()].max(end);
                unscheduled_preds[succ.index()] -= 1;
                if unscheduled_preds[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
            ready.sort_unstable();
        }

        let assignments: Vec<Assignment> = assignments
            .into_iter()
            .map(|a| a.expect("every task was scheduled"))
            .collect();
        Ok(Schedule::new(assignments, pe_count, self.graph.deadline()))
    }
}

/// Energy over busy time: the power a PE draws while it runs, or zero for a
/// PE with no busy time.
fn sustained_power(energy: f64, busy: f64) -> f64 {
    if busy > 0.0 {
        energy / busy
    } else {
        0.0
    }
}

/// Whether the thermal model takes `power` as a block power: finite and
/// non-negative. Its solve refuses anything else with
/// [`ThermalError::InvalidPower`].
fn is_valid_power(power: f64) -> bool {
    power.is_finite() && power >= 0.0
}

/// The thermal-aware policy's temperature inquiry, answered by
/// superposition over the model's influence matrix `R`: the committed
/// powers' rise `R·P` once per scheduling step, then one column update per
/// candidate into a buffer reused for the whole schedule.
struct ThermalInquiry {
    model: Arc<ThermalModel>,
    /// Sustained power of the tasks committed to each PE, W.
    power: Vec<f64>,
    /// Whether every committed power is finite and non-negative.
    power_valid: bool,
    /// Rise above ambient of each block under the valid committed powers, K.
    base_rise: Vec<f64>,
    /// The candidate's block temperatures, °C.
    temperatures: Vec<f64>,
}

impl ThermalInquiry {
    fn new(model: Arc<ThermalModel>) -> Self {
        let n = model.block_count();
        ThermalInquiry {
            model,
            power: vec![0.0; n],
            power_valid: true,
            base_rise: vec![0.0; n],
            temperatures: vec![0.0; n],
        }
    }

    /// Recomputes the committed powers and their rise from scratch, so that
    /// rounding cannot drift across steps.
    fn begin_step(&mut self, busy_energy: &[f64], busy_time: &[f64]) {
        self.power_valid = true;
        self.base_rise.fill(0.0);
        for (pe, (&energy, &busy)) in busy_energy.iter().zip(busy_time).enumerate() {
            let power = sustained_power(energy, busy);
            self.power[pe] = power;
            if !is_valid_power(power) {
                self.power_valid = false;
                continue;
            }
            let column = self.model.influence_column(pe);
            for (rise, r) in self.base_rise.iter_mut().zip(column) {
                *rise += r * power;
            }
        }
    }

    /// Block temperatures with `power` on `pe` and the committed powers
    /// elsewhere.
    ///
    /// # Errors
    ///
    /// Refuses that power vector as the thermal model's solve does:
    /// [`ThermalError::InvalidPower`] for its first non-finite or negative
    /// entry.
    fn temperatures_with(&mut self, pe: usize, power: f64) -> Result<&[f64], ThermalError> {
        let mut committed = self.power[pe];
        if !(self.power_valid && is_valid_power(power)) {
            let refused = self
                .power
                .iter()
                .enumerate()
                .map(|(j, &p)| (j, if j == pe { power } else { p }))
                .find(|&(_, p)| !is_valid_power(p));
            if let Some((j, p)) = refused {
                return Err(ThermalError::InvalidPower(j, p));
            }
            // Only `pe`'s committed power was invalid; `base_rise` left it out.
            committed = 0.0;
        }
        let ambient_c = self.model.config().ambient_c;
        let delta = power - committed;
        let column = self.model.influence_column(pe);
        let rises = self.base_rise.iter().zip(column);
        for (t, (&rise, &r)) in self.temperatures.iter_mut().zip(rises) {
            *t = ambient_c + (rise + r * delta);
        }
        Ok(&self.temperatures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_taskgraph::{Benchmark, TaskGraphBuilder, TaskKind};
    use tats_techlib::profiles;

    fn library() -> TechLibrary {
        profiles::standard_library(10).unwrap()
    }

    fn platform(library: &TechLibrary) -> Architecture {
        profiles::platform_architecture(library).unwrap()
    }

    #[test]
    fn every_policy_produces_a_valid_schedule_on_every_benchmark() {
        let library = library();
        let platform = platform(&library);
        for bm in Benchmark::ALL {
            let graph = bm.task_graph().unwrap();
            for policy in Policy::ALL {
                let schedule = Asp::new(&graph, &library, &platform)
                    .unwrap()
                    .with_policy(policy)
                    .schedule()
                    .unwrap();
                schedule
                    .validate(&graph, &platform, &library)
                    .unwrap_or_else(|e| panic!("{bm} / {policy}: {e}"));
                assert!(
                    schedule.meets_deadline(),
                    "{bm} / {policy}: makespan {} exceeds deadline {}",
                    schedule.makespan(),
                    graph.deadline()
                );
            }
        }
    }

    #[test]
    fn baseline_has_the_smallest_or_equal_makespan_on_the_platform() {
        // On identical PEs the baseline optimises finish times only, so no
        // other policy can beat it by more than numerical noise... but they
        // may tie. We only require the baseline to stay within 25% of the
        // best policy, guarding against pathological regressions.
        let library = library();
        let platform = platform(&library);
        let graph = Benchmark::Bm2.task_graph().unwrap();
        let makespans: Vec<f64> = Policy::ALL
            .iter()
            .map(|&p| {
                Asp::new(&graph, &library, &platform)
                    .unwrap()
                    .with_policy(p)
                    .schedule()
                    .unwrap()
                    .makespan()
            })
            .collect();
        let baseline = makespans[0];
        let best = makespans.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(baseline <= best * 1.25);
    }

    #[test]
    fn min_energy_heuristic_reduces_total_power_versus_baseline() {
        // Heuristic 3 (minimise task energy) must not increase the total
        // average power compared to the baseline on the co-synthesis-style
        // heterogeneous architecture.
        let library = library();
        let mut arch = Architecture::new("hetero");
        for t in library.pe_types() {
            arch.add_instance(t.id());
        }
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let baseline = Asp::new(&graph, &library, &arch)
            .unwrap()
            .with_policy(Policy::Baseline)
            .schedule()
            .unwrap();
        let h3 = Asp::new(&graph, &library, &arch)
            .unwrap()
            .with_policy(Policy::PowerAware(PowerHeuristic::MinTaskEnergy))
            .schedule()
            .unwrap();
        assert!(h3.total_average_power() <= baseline.total_average_power() * 1.05);
    }

    #[test]
    fn thermal_policy_balances_load_on_identical_pes() {
        // On the platform the thermal-aware policy should spread work more
        // evenly than concentrating it: the busiest-PE share of total busy
        // time must not exceed the baseline's by more than a small margin.
        let library = library();
        let platform = platform(&library);
        let graph = Benchmark::Bm3.task_graph().unwrap();
        let share = |policy: Policy| {
            let s = Asp::new(&graph, &library, &platform)
                .unwrap()
                .with_policy(policy)
                .schedule()
                .unwrap();
            let busy: Vec<f64> = (0..4).map(|i| s.busy_time(PeId(i))).collect();
            let total: f64 = busy.iter().sum();
            busy.iter().cloned().fold(0.0_f64, f64::max) / total
        };
        let thermal_share = share(Policy::ThermalAware);
        assert!(
            thermal_share <= 0.5,
            "thermal-aware policy left the platform unbalanced: {thermal_share}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let library = library();
        let platform = platform(&library);
        let graph = Benchmark::Bm1.task_graph().unwrap();
        for policy in Policy::ALL {
            let a = Asp::new(&graph, &library, &platform)
                .unwrap()
                .with_policy(policy)
                .schedule()
                .unwrap();
            let b = Asp::new(&graph, &library, &platform)
                .unwrap()
                .with_policy(policy)
                .schedule()
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_architecture_is_rejected() {
        let library = library();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let empty = Architecture::new("none");
        assert!(matches!(
            Asp::new(&graph, &library, &empty),
            Err(CoreError::EmptyArchitecture)
        ));
    }

    #[test]
    fn unknown_task_types_are_rejected() {
        let library = profiles::standard_library(2).unwrap();
        let mut b = TaskGraphBuilder::new("bad", 100.0);
        b.add_task("t", TaskKind::Compute, 7);
        let graph = b.build().unwrap();
        let platform = profiles::platform_architecture(&library).unwrap();
        assert!(matches!(
            Asp::new(&graph, &library, &platform),
            Err(CoreError::Library(_))
        ));
    }

    #[test]
    fn mismatched_floorplan_is_rejected() {
        let library = library();
        let platform = platform(&library);
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let plan = tats_thermal::Floorplan::new(vec![tats_thermal::Block::from_mm(
            "only", 0.0, 0.0, 7.0, 7.0,
        )])
        .unwrap();
        let model = ThermalModel::new(&plan, ThermalConfig::default()).unwrap();
        let result = Asp::new(&graph, &library, &platform)
            .unwrap()
            .with_policy(Policy::ThermalAware)
            .with_thermal_model(Arc::new(model))
            .schedule();
        assert!(matches!(
            result,
            Err(CoreError::FloorplanMismatch { pes: 4, blocks: 1 })
        ));
    }

    #[test]
    fn negative_cost_scale_is_rejected() {
        let library = library();
        let platform = platform(&library);
        let graph = Benchmark::Bm1.task_graph().unwrap();
        assert!(Asp::new(&graph, &library, &platform)
            .unwrap()
            .with_cost_scale(-1.0)
            .schedule()
            .is_err());
    }

    #[test]
    fn overflowed_candidate_power_is_refused_by_the_thermal_policy() {
        // WCET × WCPC overflows to infinity, so the candidate's sustained
        // power is infinite: the thermal inquiry refuses it, and the
        // baseline, which makes no inquiry, schedules the task.
        let mut b = tats_techlib::TechLibraryBuilder::new(1);
        let pe_type = b
            .add_pe_type(
                "hot",
                tats_techlib::PeClass::GppFast,
                7.0,
                7.0,
                1.0,
                0.0,
                vec![2.0],
                vec![f64::MAX],
            )
            .unwrap();
        let library = b.build().unwrap();
        let architecture = Architecture::platform("pair", pe_type, 2);
        let mut g = TaskGraphBuilder::new("one", 100.0);
        g.add_task("only", TaskKind::Compute, 0);
        let graph = g.build().unwrap();
        let asp = Asp::new(&graph, &library, &architecture).unwrap();
        assert!(matches!(
            asp.clone().with_policy(Policy::ThermalAware).schedule(),
            Err(CoreError::Thermal(tats_thermal::ThermalError::InvalidPower(0, p)))
                if p == f64::INFINITY
        ));
        let schedule = asp.with_policy(Policy::Baseline).schedule().unwrap();
        assert_eq!(schedule.task_count(), 1);
    }

    #[test]
    fn thermal_inquiry_superposes_the_candidate_and_refuses_invalid_powers() {
        let library = library();
        let platform = platform(&library);
        let plan = layout::grid_floorplan(&platform, &library).unwrap();
        let model = Arc::new(ThermalModel::new(&plan, ThermalConfig::default()).unwrap());
        let ambient = model.config().ambient_c;
        let expected = |power: [f64; 4]| -> Vec<f64> {
            (0..4)
                .map(|i| {
                    let rise: f64 = (0..4)
                        .map(|j| power[j] * model.influence_column(j)[i])
                        .sum();
                    ambient + rise
                })
                .collect()
        };
        let assert_close = |got: &[f64], want: Vec<f64>| {
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
            }
        };
        let mut inquiry = ThermalInquiry::new(Arc::clone(&model));
        // Committed sustained powers 3, 3, 0 (idle) and 2 W.
        inquiry.begin_step(&[12.0, 30.0, 0.0, 4.0], &[4.0, 10.0, 0.0, 2.0]);
        assert_close(
            inquiry.temperatures_with(2, 5.0).unwrap(),
            expected([3.0, 3.0, 5.0, 2.0]),
        );
        assert!(matches!(
            inquiry.temperatures_with(1, -1.0),
            Err(ThermalError::InvalidPower(1, p)) if p == -1.0
        ));
        // PE 3's committed energy overflowed: a candidate on PE 3 replaces
        // that power, and every other candidate's vector keeps it.
        inquiry.begin_step(&[12.0, 30.0, 0.0, f64::INFINITY], &[4.0, 10.0, 0.0, 2.0]);
        assert_close(
            inquiry.temperatures_with(3, 2.5).unwrap(),
            expected([3.0, 3.0, 0.0, 2.5]),
        );
        assert!(matches!(
            inquiry.temperatures_with(0, 1.0),
            Err(ThermalError::InvalidPower(3, p)) if p == f64::INFINITY
        ));
        // The first invalid entry is reported, as the model's solve does.
        assert!(matches!(
            inquiry.temperatures_with(1, f64::NAN),
            Err(ThermalError::InvalidPower(1, p)) if p.is_nan()
        ));
    }

    #[test]
    fn single_task_graph_schedules_on_one_pe() {
        let library = library();
        let platform = platform(&library);
        let mut b = TaskGraphBuilder::new("one", 500.0);
        b.add_task("only", TaskKind::Compute, 0);
        let graph = b.build().unwrap();
        let schedule = Asp::new(&graph, &library, &platform)
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(schedule.task_count(), 1);
        assert_eq!(schedule.used_pes().count(), 1);
        schedule.validate(&graph, &platform, &library).unwrap();
    }
}
