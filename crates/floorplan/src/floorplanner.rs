//! High-level floorplanning façade used by the co-synthesis flow.

use tats_thermal::{Floorplan, ThermalConfig};

use crate::annealing::{anneal, OptimisedFloorplan, SaConfig};
use crate::cost::{CostBreakdown, CostEvaluator, CostWeights, Net};
use crate::error::FloorplanError;
use crate::ga::{evolve, GaConfig};
use crate::module::{validate_modules, Module};
use crate::polish::PolishExpression;

/// Optimisation engine used by the [`Floorplanner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// Genetic algorithm (the paper's thermal-aware floorplanner, ref \[3\]).
    Genetic(GaConfig),
    /// Simulated annealing (classical Wong–Liu baseline).
    Annealing(SaConfig),
    /// No optimisation: evaluate the canonical initial expression only.
    /// Useful for platform-based architectures with a fixed layout and as a
    /// lower bound on floorplanner effort.
    InitialOnly,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::Genetic(GaConfig::default())
    }
}

/// A completed floorplanning run.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanSolution {
    /// The physical floorplan handed to the thermal model.
    pub floorplan: Floorplan,
    /// Cost breakdown of the winning placement.
    pub cost: CostBreakdown,
    /// Number of candidate placements the engine evaluated.
    pub evaluations: usize,
}

/// Thermal-aware floorplanner: places a set of modules minimising a weighted
/// combination of area, wirelength and peak temperature.
///
/// # Examples
///
/// ```
/// use tats_floorplan::{Engine, Floorplanner, Module};
///
/// # fn main() -> Result<(), tats_floorplan::FloorplanError> {
/// let modules = vec![
///     Module::from_mm("cpu", 7.0, 7.0, 6.0),
///     Module::from_mm("dsp", 5.0, 6.0, 2.5),
///     Module::from_mm("mem", 6.0, 4.0, 1.0),
/// ];
/// let solution = Floorplanner::new(modules)
///     .with_engine(Engine::InitialOnly)
///     .run()?;
/// assert_eq!(solution.floorplan.block_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Floorplanner {
    modules: Vec<Module>,
    nets: Vec<Net>,
    weights: CostWeights,
    thermal_config: ThermalConfig,
    engine: Engine,
}

impl Floorplanner {
    /// Creates a floorplanner for the given modules with default settings
    /// (thermal-aware weights, genetic engine, HotSpot-like thermal
    /// configuration).
    pub fn new(modules: Vec<Module>) -> Self {
        Floorplanner {
            modules,
            nets: Vec::new(),
            weights: CostWeights::thermal_aware(),
            thermal_config: ThermalConfig::default(),
            engine: Engine::default(),
        }
    }

    /// Adds interconnect nets contributing to the wirelength term.
    pub fn with_nets(mut self, nets: Vec<Net>) -> Self {
        self.nets = nets;
        self
    }

    /// Overrides the cost weights.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Overrides the thermal configuration used by the temperature term.
    pub fn with_thermal_config(mut self, config: ThermalConfig) -> Self {
        self.thermal_config = config;
        self
    }

    /// Selects the optimisation engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Runs the floorplanner and returns the best solution found.
    ///
    /// # Errors
    ///
    /// Propagates module validation, engine configuration and thermal-model
    /// errors.
    pub fn run(&self) -> Result<FloorplanSolution, FloorplanError> {
        validate_modules(&self.modules)?;
        let reference = PolishExpression::initial(self.modules.len())?.evaluate(&self.modules)?;
        let evaluator = CostEvaluator::new(
            self.modules.clone(),
            self.nets.clone(),
            self.weights,
            self.thermal_config,
            &reference,
        )?;

        let optimised: OptimisedFloorplan = match self.engine {
            Engine::Genetic(config) => evolve(&evaluator, config)?,
            Engine::Annealing(config) => anneal(&evaluator, config)?,
            Engine::InitialOnly => {
                let expression = PolishExpression::initial(self.modules.len())?;
                let placement = expression.evaluate(&self.modules)?;
                let cost = evaluator.cost_with(&placement, &mut evaluator.scratch()?)?;
                OptimisedFloorplan {
                    expression,
                    placement,
                    cost,
                    evaluations: 1,
                }
            }
        };

        let floorplan = evaluator.to_thermal_floorplan(&optimised.placement)?;
        Ok(FloorplanSolution {
            floorplan,
            cost: optimised.cost,
            evaluations: optimised.evaluations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modules() -> Vec<Module> {
        vec![
            Module::from_mm("cpu0", 7.0, 7.0, 6.5),
            Module::from_mm("cpu1", 7.0, 7.0, 5.0),
            Module::from_mm("dsp", 5.0, 6.0, 2.5),
            Module::from_mm("accel", 4.0, 4.0, 1.0),
        ]
    }

    #[test]
    fn initial_only_engine_places_all_modules() {
        let solution = Floorplanner::new(modules())
            .with_engine(Engine::InitialOnly)
            .run()
            .unwrap();
        assert_eq!(solution.floorplan.block_count(), 4);
        assert_eq!(solution.evaluations, 1);
        assert!(solution.cost.peak_temperature_c > 45.0);
    }

    #[test]
    fn genetic_engine_beats_or_matches_the_initial_layout() {
        let initial = Floorplanner::new(modules())
            .with_engine(Engine::InitialOnly)
            .run()
            .unwrap();
        let ga = Floorplanner::new(modules())
            .with_engine(Engine::Genetic(GaConfig {
                population: 12,
                generations: 15,
                ..GaConfig::default()
            }))
            .run()
            .unwrap();
        assert!(ga.cost.weighted <= initial.cost.weighted + 1e-9);
        assert!(ga.evaluations > initial.evaluations);
    }

    #[test]
    fn annealing_engine_beats_or_matches_the_initial_layout() {
        let initial = Floorplanner::new(modules())
            .with_engine(Engine::InitialOnly)
            .run()
            .unwrap();
        let sa = Floorplanner::new(modules())
            .with_engine(Engine::Annealing(SaConfig {
                moves_per_temperature: 30,
                ..SaConfig::default()
            }))
            .run()
            .unwrap();
        assert!(sa.cost.weighted <= initial.cost.weighted + 1e-9);
    }

    #[test]
    fn empty_module_list_is_rejected() {
        assert!(matches!(
            Floorplanner::new(vec![]).run(),
            Err(FloorplanError::NoModules)
        ));
    }

    #[test]
    fn builder_setters_are_respected() {
        let custom_weights = CostWeights::area_only();
        let planner = Floorplanner::new(modules())
            .with_weights(custom_weights)
            .with_nets(vec![Net::new(vec![0, 1])])
            .with_engine(Engine::InitialOnly);
        let solution = planner.run().unwrap();
        // Area-only weights skip the thermal model, so the reported peak
        // temperature equals the ambient.
        assert_eq!(solution.cost.peak_temperature_c, 45.0);
    }
}
