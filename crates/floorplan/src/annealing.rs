//! Simulated-annealing floorplanner.
//!
//! The classical Wong–Liu slicing floorplanner: perturb the Polish
//! expression, accept improving moves always and worsening moves with
//! probability `exp(-delta / T)`, and geometrically cool the temperature.
//! It serves as the baseline engine against which the genetic floorplanner
//! (the paper's reference \[3\]) is compared in the ablation benches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::{CostBreakdown, CostEvaluator};
use crate::error::FloorplanError;
use crate::polish::{Placement, PolishExpression};

/// Parameters of the simulated-annealing engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Initial annealing temperature (in units of normalised cost).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied after every temperature step.
    pub cooling_rate: f64,
    /// Moves attempted at each temperature.
    pub moves_per_temperature: usize,
    /// Temperature below which the annealer stops.
    pub final_temperature: f64,
    /// Seed of the pseudo-random generator.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            initial_temperature: 1.0,
            cooling_rate: 0.9,
            moves_per_temperature: 40,
            final_temperature: 1e-3,
            seed: 0x5A5A,
        }
    }
}

impl SaConfig {
    fn validate(&self) -> Result<(), FloorplanError> {
        if !(self.initial_temperature > 0.0 && self.initial_temperature.is_finite()) {
            return Err(FloorplanError::InvalidParameter(
                "initial temperature must be positive".to_string(),
            ));
        }
        if !(self.cooling_rate > 0.0 && self.cooling_rate < 1.0) {
            return Err(FloorplanError::InvalidParameter(
                "cooling rate must be in (0, 1)".to_string(),
            ));
        }
        if self.moves_per_temperature == 0 {
            return Err(FloorplanError::InvalidParameter(
                "moves per temperature must be at least 1".to_string(),
            ));
        }
        if !(self.final_temperature > 0.0 && self.final_temperature < self.initial_temperature) {
            return Err(FloorplanError::InvalidParameter(
                "final temperature must be positive and below the initial temperature".to_string(),
            ));
        }
        Ok(())
    }
}

/// Best solution found by an optimisation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimisedFloorplan {
    /// The winning Polish expression.
    pub expression: PolishExpression,
    /// Its evaluated placement.
    pub placement: Placement,
    /// Its cost breakdown.
    pub cost: CostBreakdown,
    /// Number of candidate placements evaluated.
    pub evaluations: usize,
}

/// Runs simulated annealing over Polish expressions.
///
/// Every move evaluates the perturbed expression
/// ([`PolishExpression::evaluate`], `O(n)` in the module count) and scores
/// the placement through one cached cost kernel.
///
/// # Errors
///
/// Propagates configuration validation and cost-evaluation errors.
pub fn anneal(
    evaluator: &CostEvaluator,
    config: SaConfig,
) -> Result<OptimisedFloorplan, FloorplanError> {
    config.validate()?;
    let module_count = evaluator.modules().len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // One scratch for the whole run: the thermal kernel's storage is reused
    // by every move, and the memo short-circuits revisited placements (SA
    // revisits constantly near convergence). Costs are identical to the
    // naive `CostEvaluator::cost`, so acceptance decisions — and therefore
    // the whole trajectory — are unchanged.
    let mut scratch = evaluator.scratch()?;

    let mut current = PolishExpression::initial(module_count)?;
    let mut best_placement = current.evaluate(evaluator.modules())?;
    let mut current_cost = evaluator.cost_with(&best_placement, &mut scratch)?;
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut evaluations = 1usize;

    let mut temperature = config.initial_temperature;
    while temperature > config.final_temperature {
        for _ in 0..config.moves_per_temperature {
            let candidate = current.perturb(&mut rng);
            let placement = candidate.evaluate(evaluator.modules())?;
            let cost = evaluator.cost_with(&placement, &mut scratch)?;
            evaluations += 1;
            let delta = cost.weighted - current_cost.weighted;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                if cost.weighted < best_cost.weighted {
                    best = candidate.clone();
                    best_placement = placement;
                    best_cost = cost;
                }
                current = candidate;
                current_cost = cost;
            }
        }
        temperature *= config.cooling_rate;
    }

    Ok(OptimisedFloorplan {
        expression: best,
        placement: best_placement,
        cost: best_cost,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use crate::testutil;

    /// The shared deterministic five-module fixture (see [`testutil`]).
    fn evaluator() -> CostEvaluator {
        testutil::evaluator(5, 0x5A, CostWeights::thermal_aware()).unwrap()
    }

    #[test]
    fn annealing_never_returns_worse_than_the_initial_solution() {
        let eval = evaluator();
        let initial = PolishExpression::initial(5)
            .unwrap()
            .evaluate(eval.modules())
            .unwrap();
        let initial_cost = eval.cost(&initial).unwrap();
        let result = anneal(&eval, SaConfig::default()).unwrap();
        assert!(result.cost.weighted <= initial_cost.weighted + 1e-9);
        assert!(result.evaluations > 1);
    }

    #[test]
    fn annealing_is_deterministic_for_a_fixed_seed() {
        let eval = evaluator();
        let a = anneal(&eval, SaConfig::default()).unwrap();
        let b = anneal(&eval, SaConfig::default()).unwrap();
        // Bit-level determinism, not merely approximate equality: the cached
        // kernel (memo included) must not perturb a single ulp of the
        // trajectory between runs.
        assert_eq!(a.cost.weighted.to_bits(), b.cost.weighted.to_bits());
        assert_eq!(
            a.cost.peak_temperature_c.to_bits(),
            b.cost.peak_temperature_c.to_bits()
        );
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.expression, b.expression);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn annealing_cost_matches_the_naive_path_on_its_result() {
        // The winning placement's cached cost must agree with the
        // rebuild-everything reference evaluation to 1e-9.
        let eval = evaluator();
        let result = anneal(&eval, SaConfig::default()).unwrap();
        let naive = eval.cost(&result.placement).unwrap();
        assert!((naive.weighted - result.cost.weighted).abs() < 1e-9);
        assert!((naive.peak_temperature_c - result.cost.peak_temperature_c).abs() < 1e-9);
    }

    #[test]
    fn annealing_improves_area_over_the_strip_layout() {
        // The initial alternating expression is already decent; a pure-area
        // anneal should at least not regress and usually squeeze the box.
        let eval = testutil::evaluator(6, 0xA0EA, CostWeights::area_only()).unwrap();
        let reference = PolishExpression::initial(6)
            .unwrap()
            .evaluate(eval.modules())
            .unwrap();
        let result = anneal(
            &eval,
            SaConfig {
                moves_per_temperature: 60,
                ..SaConfig::default()
            },
        )
        .unwrap();
        assert!(result.cost.area_m2 <= reference.area() + 1e-12);
    }

    #[test]
    fn trajectories_are_pinned() {
        // Bit-exact results of default-config runs over the shared fixture:
        // expression, cost bits, placement bits and evaluation count. Under
        // area-only weights every acceptance rests on the bounding box
        // alone, so the 32-module area-only case is the most sensitive to
        // how placements are computed.
        for (count, weights, expected) in [
            (
                6,
                CostWeights::area_only(),
                "1 4 0 H V 2 V 3 5 V V | cost 3f306b391136dfa9 3fb0e9c274f39fa9 4046800000000000 3fe2e64e379656d6 | placement 6f132971883b441a | 2641 evaluations",
            ),
            (
                6,
                CostWeights::thermal_aware(),
                "5 1 V 2 0 H 4 H 3 V H | cost 3f30ea5ba7a5f436 3fa510cfbba96d92 4057883a77344b35 3ff7111091b1cf15 | placement 9d86b12d73bd33ff | 2641 evaluations",
            ),
            (
                32,
                CostWeights::area_only(),
                "4 3 H 7 6 V 10 2 V H 9 15 V 0 H 1 V 23 5 V H V 11 12 H V V 18 16 28 H H 13 8 17 H H 27 20 22 H H V V 21 24 V 31 29 V 26 H V 25 30 V 14 V 19 V H V V | cost 3f527c7cfbc105e3 3fe3c8570df0ac13 4046800000000000 3fc714d43702373f | placement 5abcd1138f56b36d | 2641 evaluations",
            ),
            (
                32,
                CostWeights::thermal_aware(),
                "9 1 H 2 7 V 4 H V 8 14 H 3 0 H V H 17 13 10 V 12 V H 6 11 5 H 20 H V V H 18 H 23 16 15 H V 21 V H 28 26 V 19 H 24 V 25 H 30 31 V 22 29 V 27 V H H H | cost 3f550b4f6b001a9f 3fe3c430c9f087ac 406de6d2a69b1a46 3ff464b87df763cb | placement 7a26dcf52b1587f5 | 2641 evaluations",
            ),
        ] {
            let eval = testutil::evaluator(count, 0xB17, weights).unwrap();
            let result = anneal(&eval, SaConfig::default()).unwrap();
            assert_eq!(
                testutil::digest(&result),
                expected,
                "{count} modules, {weights:?}"
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let eval = evaluator();
        for config in [
            SaConfig {
                initial_temperature: 0.0,
                ..SaConfig::default()
            },
            SaConfig {
                cooling_rate: 1.5,
                ..SaConfig::default()
            },
            SaConfig {
                moves_per_temperature: 0,
                ..SaConfig::default()
            },
            SaConfig {
                final_temperature: 10.0,
                ..SaConfig::default()
            },
        ] {
            assert!(anneal(&eval, config).is_err());
        }
    }
}
