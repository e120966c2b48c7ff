//! Hardware/software co-synthesis with thermal-aware floorplanning
//! (Figure 1.a of the paper).
//!
//! The co-synthesis flow selects the processing elements of a customised
//! architecture from the technology library, guided by the allocation and
//! scheduling procedure:
//!
//! 1. **Allocation** — PE instances are added greedily: at each step the PE
//!    type whose addition yields the best makespan (under the baseline,
//!    performance-driven ASP — the "traditional" scheduler the paper builds
//!    on) is instantiated, until the deadline is met or the PE budget is
//!    exhausted. Driving allocation with the baseline keeps the selected
//!    architecture comparable across policies, so the tables isolate the
//!    effect of the scheduling policy itself.
//! 2. **Pruning** — instances whose removal keeps the deadline are dropped,
//!    most expensive first, mirroring the cost-driven refinement of
//!    co-synthesis frameworks.
//! 3. **Floorplanning** — the selected PEs are placed by the thermal-aware
//!    floorplanner (genetic engine) using the per-PE average powers of the
//!    current schedule.
//! 4. **Final scheduling** — the ASP runs once more against the optimised
//!    floorplan (the thermal-aware policy re-queries the thermal model), and
//!    the resulting schedule is evaluated for the table metrics.

use std::sync::Arc;
use std::time::Instant;

use tats_floorplan::{CostWeights, Engine, Floorplanner, GaConfig};
use tats_taskgraph::TaskGraph;
use tats_techlib::{Architecture, PeTypeId, TechLibrary};
use tats_thermal::{Floorplan, ThermalConfig, ThermalModel};

use crate::asp::Asp;
use crate::cache::ThermalModelCache;
use crate::error::CoreError;
use crate::layout;
use crate::metrics::{evaluate_schedule, ScheduleEvaluation};
use crate::phases::FlowPhases;
use crate::policy::Policy;
use crate::schedule::Schedule;

/// Result of one co-synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSynthesisResult {
    /// The customised architecture selected by the allocation loop.
    pub architecture: Architecture,
    /// The floorplan produced by the thermal-aware floorplanner.
    pub floorplan: Floorplan,
    /// The final schedule on that architecture and floorplan.
    pub schedule: Schedule,
    /// The table metrics of the final schedule.
    pub evaluation: ScheduleEvaluation,
}

/// The co-synthesis flow.
///
/// # Examples
///
/// ```
/// use tats_core::{CoSynthesis, Policy};
/// use tats_taskgraph::Benchmark;
/// use tats_techlib::profiles;
///
/// # fn main() -> Result<(), tats_core::CoreError> {
/// let library = profiles::standard_library(10)?;
/// let result = CoSynthesis::new(&library)
///     .run(&Benchmark::Bm1.task_graph()?, Policy::PowerAware(tats_core::PowerHeuristic::MinTaskEnergy))?;
/// assert!(result.evaluation.meets_deadline);
/// assert!(!result.architecture.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CoSynthesis<'a> {
    library: &'a TechLibrary,
    max_pes: usize,
    thermal_config: ThermalConfig,
    floorplan_ga: GaConfig,
}

impl<'a> CoSynthesis<'a> {
    /// Creates a co-synthesis flow over the given technology library.
    pub fn new(library: &'a TechLibrary) -> Self {
        CoSynthesis {
            library,
            max_pes: 6,
            thermal_config: ThermalConfig::default(),
            floorplan_ga: GaConfig {
                population: 16,
                generations: 20,
                ..GaConfig::default()
            },
        }
    }

    /// Limits the number of PE instances the allocation loop may create.
    pub fn with_max_pes(mut self, max_pes: usize) -> Self {
        self.max_pes = max_pes;
        self
    }

    /// Overrides the thermal configuration.
    pub fn with_thermal_config(mut self, config: ThermalConfig) -> Self {
        self.thermal_config = config;
        self
    }

    /// Overrides the genetic-floorplanner configuration.
    pub fn with_floorplan_ga(mut self, config: GaConfig) -> Self {
        self.floorplan_ga = config;
        self
    }

    /// A baseline schedule: the makespan estimate of the allocation and
    /// pruning loops, which never query a thermal model.
    fn baseline_schedule(
        &self,
        graph: &TaskGraph,
        architecture: &Architecture,
    ) -> Result<Schedule, CoreError> {
        Asp::new(graph, self.library, architecture)?.schedule()
    }

    /// Schedules under `policy`, progressively backing off the power/thermal
    /// bias (the cost-scale of the fourth DC term) until the real-time
    /// deadline is met. At a scale of zero every policy degenerates to the
    /// baseline, which is known to meet the deadline on the architecture the
    /// allocation loop selected, so the back-off always terminates with a
    /// feasible schedule.
    fn schedule_with_backoff(
        &self,
        graph: &TaskGraph,
        architecture: &Architecture,
        policy: Policy,
        model: Option<Arc<ThermalModel>>,
    ) -> Result<Schedule, CoreError> {
        let mut asp = Asp::new(graph, self.library, architecture)?.with_policy(policy);
        if let Some(model) = model {
            asp = asp.with_thermal_model(model);
        }
        let scales = [1.0, 0.5, 0.25, 0.1, 0.0];
        let mut last = None;
        for &factor in &scales {
            let schedule = asp.clone().with_cost_scale(factor).schedule()?;
            if schedule.meets_deadline() {
                return Ok(schedule);
            }
            last = Some(schedule);
        }
        Ok(last.expect("the back-off loop runs at least once"))
    }

    /// Runs co-synthesis for `graph` under `policy`, building each thermal
    /// model the run needs once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DeadlineUnreachable`] when no architecture within
    /// the PE budget meets the deadline, [`CoreError::InvalidParameter`] for
    /// a zero PE budget, and propagates substrate errors.
    pub fn run(&self, graph: &TaskGraph, policy: Policy) -> Result<CoSynthesisResult, CoreError> {
        self.run_with_cache_timed(graph, policy, &mut ThermalModelCache::new())
            .map(|(result, _)| result)
    }

    /// Runs co-synthesis like [`CoSynthesis::run`], sourcing thermal models
    /// from a geometry-keyed cache: the thermal-aware scheduling passes and
    /// the final evaluation reuse cached factorisations whenever the flow
    /// revisits a floorplan geometry (common across the policies and seeds of
    /// a batch campaign, which share the baseline-driven architecture and
    /// often the GA's floorplan). Also reports where the wall clock went
    /// (allocation/pruning/back-off scheduling vs floorplanning vs final
    /// thermal evaluation); timing is observational only.
    ///
    /// # Errors
    ///
    /// Same as [`CoSynthesis::run`].
    pub fn run_with_cache_timed(
        &self,
        graph: &TaskGraph,
        policy: Policy,
        cache: &mut ThermalModelCache,
    ) -> Result<(CoSynthesisResult, FlowPhases), CoreError> {
        let mut phases = FlowPhases::default();
        if self.max_pes == 0 {
            return Err(CoreError::InvalidParameter(
                "co-synthesis needs a PE budget of at least 1".to_string(),
            ));
        }

        // --- Allocation: grow the architecture until the deadline is met,
        //     using the baseline (performance-driven) scheduler as the
        //     makespan estimator so all policies see the same architecture. ---
        let clock = Instant::now();
        let mut architecture = Architecture::new("co-synthesis");
        let mut best_makespan = f64::INFINITY;

        while architecture.pe_count() < self.max_pes {
            // Try adding each PE type and keep the one with the best makespan.
            let mut best_addition: Option<(PeTypeId, f64)> = None;
            for pe_type in self.library.pe_types() {
                let mut candidate = architecture.clone();
                candidate.add_instance(pe_type.id());
                let schedule = self.baseline_schedule(graph, &candidate)?;
                let makespan = schedule.makespan();
                let better = match &best_addition {
                    None => true,
                    Some((best_type, best_mk)) => {
                        makespan + 1e-9 < *best_mk
                            || ((makespan - *best_mk).abs() <= 1e-9
                                && self.library.pe_type(pe_type.id())?.cost()
                                    < self.library.pe_type(*best_type)?.cost())
                    }
                };
                if better {
                    best_addition = Some((pe_type.id(), makespan));
                }
            }
            let (chosen, makespan) = best_addition.expect("the library has at least one PE type");
            architecture.add_instance(chosen);
            best_makespan = makespan;
            if makespan <= graph.deadline() {
                break;
            }
        }

        if best_makespan > graph.deadline() {
            return Err(CoreError::DeadlineUnreachable {
                deadline: graph.deadline(),
                best_makespan,
            });
        }

        // --- Pruning: drop instances whose removal keeps the deadline. ---
        loop {
            let mut removed_any = false;
            // Candidate removals, most expensive type first.
            let mut order: Vec<usize> = (0..architecture.pe_count()).collect();
            order.sort_by(|&a, &b| {
                let cost = |i: usize| {
                    let ty = architecture.instances()[i].type_id();
                    self.library.pe_type(ty).map(|t| t.cost()).unwrap_or(0.0)
                };
                cost(b).total_cmp(&cost(a))
            });
            for &index in &order {
                if architecture.pe_count() <= 1 {
                    break;
                }
                let mut candidate = Architecture::new("co-synthesis");
                for (i, instance) in architecture.instances().iter().enumerate() {
                    if i != index {
                        candidate.add_instance(instance.type_id());
                    }
                }
                let trial = self.baseline_schedule(graph, &candidate)?;
                if trial.meets_deadline() {
                    architecture = candidate;
                    removed_any = true;
                    break;
                }
            }
            if !removed_any {
                break;
            }
        }

        // --- Feasibility under the target policy: if the (power/thermal
        //     aware) ASP misses the deadline on the baseline-sized
        //     architecture, back off its power/thermal bias until it fits. ---
        // Only the thermal-aware policy queries a model; the other passes
        // pay for no floorplan and no lookup.
        let grid_model = if policy.needs_thermal_model() {
            let plan = layout::grid_floorplan(&architecture, self.library)?;
            Some(cache.get_or_build(&plan, self.thermal_config)?)
        } else {
            None
        };
        let schedule = self.schedule_with_backoff(graph, &architecture, policy, grid_model)?;
        phases.scheduling += clock.elapsed();
        if !schedule.meets_deadline() {
            return Err(CoreError::DeadlineUnreachable {
                deadline: graph.deadline(),
                best_makespan: schedule.makespan(),
            });
        }

        // --- Thermal-aware floorplanning of the selected architecture. ---
        let clock = Instant::now();
        let per_pe_power = schedule.average_power_per_pe();
        let modules = layout::pe_modules(&architecture, self.library, &per_pe_power)?;
        let weights = if policy.needs_thermal_model() {
            CostWeights::thermal_aware()
        } else {
            CostWeights::area_only()
        };
        let floorplan = if modules.len() == 1 {
            // A single module needs no optimisation.
            layout::grid_floorplan(&architecture, self.library)?
        } else {
            Floorplanner::new(modules)
                .with_weights(weights)
                .with_thermal_config(self.thermal_config)
                .with_engine(Engine::Genetic(self.floorplan_ga))
                .run()?
                .floorplan
        };
        phases.floorplan += clock.elapsed();

        // --- Final scheduling pass against the optimised floorplan, whose
        //     model also serves the evaluation. ---
        let clock = Instant::now();
        let model = cache.get_or_build(&floorplan, self.thermal_config)?;
        phases.thermal += clock.elapsed();
        let clock = Instant::now();
        let final_model = policy.needs_thermal_model().then(|| Arc::clone(&model));
        let final_schedule =
            self.schedule_with_backoff(graph, &architecture, policy, final_model)?;
        let schedule = if final_schedule.meets_deadline() {
            final_schedule
        } else {
            schedule
        };
        phases.scheduling += clock.elapsed();
        let clock = Instant::now();
        let evaluation = evaluate_schedule(&schedule, &model)?;
        phases.thermal += clock.elapsed();

        Ok((
            CoSynthesisResult {
                architecture,
                floorplan,
                schedule,
                evaluation,
            },
            phases,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PowerHeuristic;
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;

    fn quick_cosynthesis(library: &TechLibrary) -> CoSynthesis<'_> {
        CoSynthesis::new(library).with_floorplan_ga(GaConfig {
            population: 8,
            generations: 6,
            ..GaConfig::default()
        })
    }

    #[test]
    fn cosynthesis_meets_the_deadline_for_every_policy_on_bm1() {
        let library = profiles::standard_library(10).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        for policy in [
            Policy::Baseline,
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
            Policy::ThermalAware,
        ] {
            let result = quick_cosynthesis(&library).run(&graph, policy).unwrap();
            assert!(result.evaluation.meets_deadline, "{policy}");
            assert!(!result.architecture.is_empty());
            assert_eq!(
                result.floorplan.block_count(),
                result.architecture.pe_count()
            );
            result
                .schedule
                .validate(&graph, &result.architecture, &library)
                .unwrap();
        }
    }

    #[test]
    fn architectures_never_exceed_the_pe_budget() {
        let library = profiles::standard_library(10).unwrap();
        let graph = Benchmark::Bm2.task_graph().unwrap();
        let result = quick_cosynthesis(&library)
            .with_max_pes(3)
            .run(&graph, Policy::Baseline)
            .unwrap();
        assert!(result.architecture.pe_count() <= 3);
    }

    #[test]
    fn impossible_deadline_is_reported() {
        let library = profiles::standard_library(10).unwrap();
        // Regenerate Bm1 with an absurdly tight deadline.
        let graph = tats_taskgraph::GeneratorConfig::new("tight", 19, 19, 1.0)
            .with_seed(0x2005_0001)
            .with_type_count(10)
            .generate()
            .unwrap();
        let result = quick_cosynthesis(&library)
            .with_max_pes(2)
            .run(&graph, Policy::Baseline);
        assert!(matches!(result, Err(CoreError::DeadlineUnreachable { .. })));
    }

    #[test]
    fn zero_pe_budget_is_rejected() {
        let library = profiles::standard_library(10).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        assert!(matches!(
            quick_cosynthesis(&library)
                .with_max_pes(0)
                .run(&graph, Policy::Baseline),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn cached_cosynthesis_matches_uncached_exactly() {
        // The reference schedules the returned architecture with a bare ASP
        // on a freshly built model of the returned floorplan. Each final pass
        // here meets the deadline at back-off scale 1 (asserted), so the
        // reference needs no back-off.
        let library = profiles::standard_library(10).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        for policy in [
            Policy::Baseline,
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
            Policy::ThermalAware,
        ] {
            let result = quick_cosynthesis(&library).run(&graph, policy).unwrap();
            let model =
                Arc::new(ThermalModel::new(&result.floorplan, ThermalConfig::default()).unwrap());
            let reference = Asp::new(&graph, &library, &result.architecture)
                .unwrap()
                .with_policy(policy)
                .with_thermal_model(Arc::clone(&model))
                .schedule()
                .unwrap();
            assert!(reference.meets_deadline(), "{policy}");
            assert_eq!(result.schedule, reference, "{policy}");
            assert_eq!(
                result.evaluation,
                evaluate_schedule(&reference, &model).unwrap(),
                "{policy}"
            );
        }
    }

    #[test]
    fn thermal_cosynthesis_builds_each_geometry_once() {
        // A thermal run schedules against two geometries (the grid plan of
        // the back-off pass and the GA's plan of the final pass); the final
        // evaluation reuses the final pass's model and adds no miss.
        let library = profiles::standard_library(10).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let mut cache = ThermalModelCache::new();
        let (result, _) = quick_cosynthesis(&library)
            .run_with_cache_timed(&graph, Policy::ThermalAware, &mut cache)
            .unwrap();
        let config = ThermalConfig::default();
        let grid = layout::grid_floorplan(&result.architecture, &library).unwrap();
        let geometries = if crate::geometry_config_bits(&grid, &config)
            == crate::geometry_config_bits(&result.floorplan, &config)
        {
            1
        } else {
            2
        };
        // One lookup per scheduled geometry, none for the evaluation.
        assert_eq!(cache.stats().misses, geometries);
        assert_eq!(cache.stats().hits + cache.stats().misses, 2);
        cache.get_or_build(&result.floorplan, config).unwrap();
        assert_eq!(cache.stats().misses, geometries);
    }

    #[test]
    fn cosynthesis_is_deterministic() {
        let library = profiles::standard_library(10).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let a = quick_cosynthesis(&library)
            .run(&graph, Policy::ThermalAware)
            .unwrap();
        let b = quick_cosynthesis(&library)
            .run(&graph, Policy::ThermalAware)
            .unwrap();
        assert_eq!(a.evaluation, b.evaluation);
        assert_eq!(a.architecture, b.architecture);
    }
}
