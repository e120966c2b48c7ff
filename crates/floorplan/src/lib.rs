//! Thermal-aware floorplanning for hardware/software co-synthesis.
//!
//! The co-synthesis flow of *Hung et al., DATE 2005* (Figure 1.a) invokes a
//! thermal-aware floorplanner — the genetic floorplanner of their reference
//! \[3\] — whenever the allocation and scheduling procedure considers assigning
//! a task to a specific PE of a customised architecture. This crate
//! implements that floorplanner from scratch:
//!
//! * [`Module`] — rectangular blocks with estimated average power,
//! * [`PolishExpression`] — slicing floorplans in postfix notation with the
//!   classical perturbation moves; both engines place every candidate with
//!   [`PolishExpression::evaluate`], two flat `O(n)` passes,
//! * [`CostEvaluator`] / [`CostWeights`] — weighted area + wirelength +
//!   peak-temperature objective (the temperature term runs the compact
//!   thermal model of [`tats_thermal`]),
//! * [`ga`]/[`annealing`] — a genetic engine and a simulated-annealing
//!   baseline,
//! * [`Floorplanner`] — the façade used by the co-synthesis flow.
//!
//! # Examples
//!
//! ```
//! use tats_floorplan::{CostWeights, Engine, Floorplanner, GaConfig, Module};
//!
//! # fn main() -> Result<(), tats_floorplan::FloorplanError> {
//! let modules = vec![
//!     Module::from_mm("cpu", 7.0, 7.0, 6.0),
//!     Module::from_mm("dsp", 5.0, 6.0, 2.5),
//!     Module::from_mm("mem", 6.0, 4.0, 1.0),
//!     Module::from_mm("io", 3.0, 3.0, 0.5),
//! ];
//! let solution = Floorplanner::new(modules)
//!     .with_weights(CostWeights::thermal_aware())
//!     .with_engine(Engine::Genetic(GaConfig { population: 10, generations: 8, ..GaConfig::default() }))
//!     .run()?;
//! assert_eq!(solution.floorplan.block_count(), 4);
//! assert!(solution.cost.peak_temperature_c > 45.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
mod cost;
mod error;
mod floorplanner;
pub mod ga;
mod module;
mod polish;
pub mod testutil;

pub use annealing::{anneal, OptimisedFloorplan, SaConfig};
pub use cost::{CostBreakdown, CostEvaluator, CostScratch, CostWeights, Net};
pub use error::FloorplanError;
pub use floorplanner::{Engine, FloorplanSolution, Floorplanner};
pub use ga::{evolve, GaConfig};
pub use module::Module;
pub use polish::{Element, Placement, PolishExpression};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    prop_compose! {
        fn module_set()(count in 2usize..8, seed in any::<u64>()) -> (Vec<Module>, u64) {
            (testutil::module_set(count, seed), seed)
        }
    }

    proptest! {
        /// Any sequence of perturbations keeps the expression valid and the
        /// resulting placement free of overlaps, with a bounding box at least
        /// as large as the total module area.
        #[test]
        fn perturbed_placements_stay_legal((modules, seed) in module_set()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut expr = PolishExpression::initial(modules.len()).unwrap();
            for _ in 0..30 {
                expr = expr.perturb(&mut rng);
            }
            let placement = expr.evaluate(&modules).unwrap();
            let total_area: f64 = modules.iter().map(|m| m.area()).sum();
            prop_assert!(placement.area() + 1e-15 >= total_area);
            for i in 0..modules.len() {
                for j in (i + 1)..modules.len() {
                    let (xi, yi) = placement.positions()[i];
                    let (xj, yj) = placement.positions()[j];
                    let ox = (xi + modules[i].width()).min(xj + modules[j].width()) - xi.max(xj);
                    let oy = (yi + modules[i].height()).min(yj + modules[j].height()) - yi.max(yj);
                    prop_assert!(ox <= 1e-12 || oy <= 1e-12, "modules {} and {} overlap", i, j);
                }
            }
        }
    }
}
