//! Platform-based thermal-aware system design (Figure 1.b of the paper).
//!
//! For platform-based design the target architecture and the task graph are
//! given: the architecture is a fixed set of identical PEs on a fixed
//! (grid) floorplan, and the modified ASP issues thermal inquiries against
//! that floorplan directly — no co-synthesis or floorplanning is involved.

use std::sync::Arc;
use std::time::Instant;

use tats_taskgraph::TaskGraph;
use tats_techlib::{Architecture, TechLibrary};
use tats_thermal::{Floorplan, ThermalConfig};

use crate::asp::Asp;
use crate::cache::ThermalModelCache;
use crate::error::CoreError;
use crate::layout;
use crate::metrics::evaluate_schedule;
use crate::phases::{FlowPhases, FlowResult};
use crate::policy::Policy;

/// The platform-based design flow: a pre-defined architecture of identical
/// PEs scheduled by the (power- or thermal-aware) ASP.
///
/// # Examples
///
/// ```
/// use tats_core::{PlatformFlow, Policy};
/// use tats_taskgraph::Benchmark;
/// use tats_techlib::profiles;
///
/// # fn main() -> Result<(), tats_core::CoreError> {
/// let library = profiles::standard_library(10)?;
/// let flow = PlatformFlow::new(&library)?;
/// let result = flow.run(&Benchmark::Bm1.task_graph()?, Policy::ThermalAware)?;
/// assert!(result.evaluation.meets_deadline);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlatformFlow<'a> {
    library: &'a TechLibrary,
    architecture: Architecture,
    floorplan: Floorplan,
    thermal_config: ThermalConfig,
}

impl<'a> PlatformFlow<'a> {
    /// Creates the paper's default platform: four identical fast GPPs on a
    /// 2×2 grid floorplan.
    ///
    /// # Errors
    ///
    /// Propagates library and floorplan construction errors.
    pub fn new(library: &'a TechLibrary) -> Result<Self, CoreError> {
        let architecture = tats_techlib::profiles::platform_architecture(library)?;
        Self::with_architecture(library, architecture)
    }

    /// Creates a platform flow around an arbitrary pre-defined architecture,
    /// placing its PEs on a grid floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyArchitecture`] for an empty architecture and
    /// propagates floorplan construction errors.
    pub fn with_architecture(
        library: &'a TechLibrary,
        architecture: Architecture,
    ) -> Result<Self, CoreError> {
        let floorplan = layout::grid_floorplan(&architecture, library)?;
        Ok(PlatformFlow {
            library,
            architecture,
            floorplan,
            thermal_config: ThermalConfig::default(),
        })
    }

    /// Overrides the thermal configuration used for scheduling and
    /// evaluation.
    pub fn with_thermal_config(mut self, config: ThermalConfig) -> Self {
        self.thermal_config = config;
        self
    }

    /// The platform architecture.
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// The platform floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Schedules `graph` on the platform under `policy` and evaluates the
    /// result, building the platform's thermal model once for both.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and evaluation errors.
    pub fn run(&self, graph: &TaskGraph, policy: Policy) -> Result<FlowResult, CoreError> {
        self.run_with_cache_timed(graph, policy, &mut ThermalModelCache::new())
            .map(|(result, _)| result)
    }

    /// Schedules and evaluates like [`PlatformFlow::run`], sourcing the
    /// thermal model from a geometry-keyed cache, so repeated runs against
    /// the same platform floorplan (a batch campaign, a policy sweep) skip
    /// the RC assembly and factorisation entirely. Also reports where the
    /// wall clock went (thermal model sourcing + evaluation vs ASP
    /// scheduling); timing is observational only.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and evaluation errors.
    pub fn run_with_cache_timed(
        &self,
        graph: &TaskGraph,
        policy: Policy,
        cache: &mut ThermalModelCache,
    ) -> Result<(FlowResult, FlowPhases), CoreError> {
        let mut phases = FlowPhases::default();
        let clock = Instant::now();
        let model = cache.get_or_build(&self.floorplan, self.thermal_config)?;
        phases.thermal += clock.elapsed();
        let clock = Instant::now();
        let schedule = Asp::new(graph, self.library, &self.architecture)?
            .with_policy(policy)
            .with_thermal_model(Arc::clone(&model))
            .schedule()?;
        phases.scheduling += clock.elapsed();
        let clock = Instant::now();
        let evaluation = evaluate_schedule(&schedule, &model)?;
        phases.thermal += clock.elapsed();
        Ok((
            FlowResult {
                architecture: self.architecture.clone(),
                floorplan: self.floorplan.clone(),
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
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;
    use tats_thermal::ThermalModel;

    #[test]
    fn default_platform_has_four_pes_on_a_grid() {
        let library = profiles::standard_library(10).unwrap();
        let flow = PlatformFlow::new(&library).unwrap();
        assert_eq!(flow.architecture().pe_count(), 4);
        assert_eq!(flow.floorplan().block_count(), 4);
    }

    #[test]
    fn all_policies_meet_the_deadline_on_every_benchmark() {
        let library = profiles::standard_library(10).unwrap();
        let flow = PlatformFlow::new(&library).unwrap();
        for bm in Benchmark::ALL {
            let graph = bm.task_graph().unwrap();
            for policy in Policy::ALL {
                let result = flow.run(&graph, policy).unwrap();
                assert!(result.evaluation.meets_deadline, "{bm} / {policy}");
                result
                    .schedule
                    .validate(&graph, &result.architecture, &library)
                    .unwrap();
            }
        }
    }

    #[test]
    fn thermal_aware_platform_is_not_hotter_than_the_baseline() {
        // The headline claim of Table 3, checked as a weak inequality for the
        // peak temperature on each benchmark.
        let library = profiles::standard_library(10).unwrap();
        let flow = PlatformFlow::new(&library).unwrap();
        for bm in Benchmark::ALL {
            let graph = bm.task_graph().unwrap();
            let baseline = flow.run(&graph, Policy::Baseline).unwrap();
            let thermal = flow.run(&graph, Policy::ThermalAware).unwrap();
            assert!(
                thermal.evaluation.max_temperature_c <= baseline.evaluation.max_temperature_c + 1.0,
                "{bm}: thermal {:.2} C vs baseline {:.2} C",
                thermal.evaluation.max_temperature_c,
                baseline.evaluation.max_temperature_c
            );
        }
    }

    #[test]
    fn custom_architecture_platform() {
        let library = profiles::standard_library(10).unwrap();
        let pe_type = profiles::platform_pe_type(&library).unwrap();
        let arch = Architecture::platform("dual", pe_type, 2);
        let flow = PlatformFlow::with_architecture(&library, arch).unwrap();
        let result = flow
            .run(&Benchmark::Bm1.task_graph().unwrap(), Policy::Baseline)
            .unwrap();
        assert_eq!(result.architecture.pe_count(), 2);
        assert_eq!(result.evaluation.per_pe_power.len(), 2);
    }

    #[test]
    fn cached_run_matches_uncached_run_exactly() {
        // The reference builds its own model and hands it to a bare ASP and
        // the evaluation: the flow's cache must change no bit of either.
        let library = profiles::standard_library(10).unwrap();
        let flow = PlatformFlow::new(&library).unwrap();
        let graph = Benchmark::Bm1.task_graph().unwrap();
        let model =
            Arc::new(ThermalModel::new(flow.floorplan(), ThermalConfig::default()).unwrap());
        let mut cache = ThermalModelCache::new();
        for policy in Policy::ALL {
            let reference = Asp::new(&graph, &library, flow.architecture())
                .unwrap()
                .with_policy(policy)
                .with_thermal_model(Arc::clone(&model))
                .schedule()
                .unwrap();
            let evaluation = evaluate_schedule(&reference, &model).unwrap();
            for result in [
                flow.run(&graph, policy).unwrap(),
                flow.run_with_cache_timed(&graph, policy, &mut cache)
                    .unwrap()
                    .0,
            ] {
                assert_eq!(result.schedule, reference, "{policy}");
                assert_eq!(result.evaluation, evaluation, "{policy}");
            }
        }
        // All five policies share one geometry: the first lookup builds, the
        // other four hit, and the evaluations add no lookup of their own.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, Policy::ALL.len() as u64 - 1);
    }

    #[test]
    fn empty_architecture_is_rejected() {
        let library = profiles::standard_library(10).unwrap();
        assert!(matches!(
            PlatformFlow::with_architecture(&library, Architecture::new("none")),
            Err(CoreError::EmptyArchitecture)
        ));
    }
}
