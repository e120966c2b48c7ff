//! Genetic-algorithm floorplanner (the engine of the paper's reference \[3\]).
//!
//! Chromosomes are Polish expressions. Crossover builds a child from the
//! operator *skeleton* of one parent (the positions and kinds of H/V cuts)
//! and the operand *order* of the other parent, which always yields a valid
//! expression. Mutation applies one of the classical perturbation moves.
//! Selection is by tournament with elitism.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::annealing::OptimisedFloorplan;
use crate::cost::CostEvaluator;
use crate::error::FloorplanError;
use crate::polish::{Element, Placement, PolishExpression};

/// One evaluated chromosome.
type Scored = (PolishExpression, crate::cost::CostBreakdown, Placement);

/// Evaluates a batch of chromosomes in parallel, one cached thermal kernel
/// per worker chunk. Evaluation is pure, so the result is independent of the
/// thread count and identical to a serial evaluation.
fn score_population(
    evaluator: &CostEvaluator,
    population: Vec<PolishExpression>,
) -> Result<Vec<Scored>, FloorplanError> {
    let workers = rayon::current_num_threads().max(1);
    let chunk_size = population.len().div_ceil(workers).max(1);
    let chunks: Result<Vec<Vec<Scored>>, FloorplanError> = population
        .par_chunks(chunk_size)
        .map(|chunk| {
            let mut scratch = evaluator.scratch()?;
            chunk
                .iter()
                .map(|expr| {
                    let placement = expr.evaluate(evaluator.modules())?;
                    let cost = evaluator.cost_with(&placement, &mut scratch)?;
                    Ok((expr.clone(), cost, placement))
                })
                .collect()
        })
        .collect();
    Ok(chunks?.into_iter().flatten().collect())
}

/// Parameters of the genetic floorplanning engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Number of chromosomes in the population.
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Probability of recombining two parents (otherwise the fitter parent is
    /// cloned).
    pub crossover_rate: f64,
    /// Probability of mutating a child.
    pub mutation_rate: f64,
    /// Number of chromosomes competing in each tournament.
    pub tournament_size: usize,
    /// Number of best chromosomes copied unchanged into the next generation.
    pub elitism: usize,
    /// Seed of the pseudo-random generator.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 24,
            generations: 40,
            crossover_rate: 0.9,
            mutation_rate: 0.4,
            tournament_size: 3,
            elitism: 2,
            seed: 0x6E6E,
        }
    }
}

impl GaConfig {
    fn validate(&self) -> Result<(), FloorplanError> {
        if self.population < 2 {
            return Err(FloorplanError::InvalidParameter(
                "population must be at least 2".to_string(),
            ));
        }
        if self.generations == 0 {
            return Err(FloorplanError::InvalidParameter(
                "generations must be at least 1".to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) || !(0.0..=1.0).contains(&self.mutation_rate)
        {
            return Err(FloorplanError::InvalidParameter(
                "crossover and mutation rates must be in [0, 1]".to_string(),
            ));
        }
        if self.tournament_size == 0 || self.tournament_size > self.population {
            return Err(FloorplanError::InvalidParameter(
                "tournament size must be in 1..=population".to_string(),
            ));
        }
        if self.elitism >= self.population {
            return Err(FloorplanError::InvalidParameter(
                "elitism must be smaller than the population".to_string(),
            ));
        }
        Ok(())
    }
}

/// Skeleton-preserving crossover: operator layout of `skeleton_parent`,
/// operand order of `order_parent`.
fn crossover(
    skeleton_parent: &PolishExpression,
    order_parent: &PolishExpression,
) -> PolishExpression {
    let operand_order: Vec<usize> = order_parent
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Operand(m) => Some(*m),
            _ => None,
        })
        .collect();
    let mut next = operand_order.into_iter();
    let elements: Vec<Element> = skeleton_parent
        .elements()
        .iter()
        .map(|e| match e {
            Element::Operand(_) => {
                Element::Operand(next.next().expect("parents cover the same modules"))
            }
            other => *other,
        })
        .collect();
    PolishExpression::new(elements, skeleton_parent.module_count())
        .expect("skeleton crossover preserves validity")
}

/// Runs the genetic floorplanner.
///
/// # Errors
///
/// Propagates configuration validation and cost-evaluation errors.
pub fn evolve(
    evaluator: &CostEvaluator,
    config: GaConfig,
) -> Result<OptimisedFloorplan, FloorplanError> {
    config.validate()?;
    let module_count = evaluator.modules().len();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Initial population: the canonical expression plus random perturbations.
    let seed_expr = PolishExpression::initial(module_count)?;
    let mut population: Vec<PolishExpression> = Vec::with_capacity(config.population);
    population.push(seed_expr.clone());
    while population.len() < config.population {
        let mut individual = seed_expr.clone();
        for _ in 0..(2 * module_count) {
            individual = individual.perturb(&mut rng);
        }
        population.push(individual);
    }

    // Parallel population evaluation: children are generated serially (the
    // RNG stream is untouched relative to a serial GA because scoring draws
    // no randomness), then scored concurrently across worker threads, each
    // with its own cached thermal kernel.
    let mut evaluations = population.len();
    let mut scored: Vec<Scored> = score_population(evaluator, population)?;

    for _generation in 0..config.generations {
        scored.sort_by(|a, b| a.1.weighted.total_cmp(&b.1.weighted));
        let mut next: Vec<Scored> = scored.iter().take(config.elitism).cloned().collect();

        let mut children: Vec<PolishExpression> =
            Vec::with_capacity(config.population - next.len());
        while next.len() + children.len() < config.population {
            let pick = |rng: &mut StdRng| -> usize {
                (0..config.tournament_size)
                    .map(|_| rng.gen_range(0..scored.len()))
                    .min_by(|&a, &b| scored[a].1.weighted.total_cmp(&scored[b].1.weighted))
                    .expect("tournament size is at least 1")
            };
            let a = pick(&mut rng);
            let b = pick(&mut rng);
            let mut child = if rng.gen::<f64>() < config.crossover_rate {
                crossover(&scored[a].0, &scored[b].0)
            } else {
                let fitter = if scored[a].1.weighted <= scored[b].1.weighted {
                    a
                } else {
                    b
                };
                scored[fitter].0.clone()
            };
            if rng.gen::<f64>() < config.mutation_rate {
                child = child.perturb(&mut rng);
            }
            children.push(child);
        }
        evaluations += children.len();
        next.extend(score_population(evaluator, children)?);
        // Shuffle to avoid positional bias from elitism ordering.
        next.shuffle(&mut rng);
        scored = next;
    }

    scored.sort_by(|a, b| a.1.weighted.total_cmp(&b.1.weighted));
    let (expression, cost, placement) = scored.remove(0);
    Ok(OptimisedFloorplan {
        expression,
        placement,
        cost,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use crate::testutil;

    /// The shared deterministic six-module fixture (see [`testutil`]).
    fn evaluator(weights: CostWeights) -> CostEvaluator {
        testutil::evaluator(6, 0x6A, weights).unwrap()
    }

    fn quick_config() -> GaConfig {
        GaConfig {
            population: 12,
            generations: 12,
            ..GaConfig::default()
        }
    }

    #[test]
    fn ga_never_returns_worse_than_the_initial_solution() {
        let eval = evaluator(CostWeights::thermal_aware());
        let initial = PolishExpression::initial(6)
            .unwrap()
            .evaluate(eval.modules())
            .unwrap();
        let initial_cost = eval.cost(&initial).unwrap();
        let result = evolve(&eval, quick_config()).unwrap();
        assert!(result.cost.weighted <= initial_cost.weighted + 1e-9);
        assert!(result.evaluations >= quick_config().population);
    }

    #[test]
    fn ga_is_deterministic_for_a_fixed_seed() {
        // Parallel population evaluation must not leak thread-count
        // nondeterminism into the result: scoring is pure and the RNG stream
        // is consumed serially, so repeated runs agree to the bit.
        let eval = evaluator(CostWeights::thermal_aware());
        let a = evolve(&eval, quick_config()).unwrap();
        let b = evolve(&eval, quick_config()).unwrap();
        assert_eq!(a.cost.weighted.to_bits(), b.cost.weighted.to_bits());
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.expression, b.expression);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn ga_cost_matches_the_naive_path_on_its_result() {
        let eval = evaluator(CostWeights::thermal_aware());
        let result = evolve(&eval, quick_config()).unwrap();
        let naive = eval.cost(&result.placement).unwrap();
        assert!((naive.weighted - result.cost.weighted).abs() < 1e-9);
    }

    #[test]
    fn trajectories_are_pinned() {
        // Bit-exact results of default-config runs over the shared fixture:
        // expression, cost bits, placement bits and evaluation count.
        for (count, weights, expected) in [
            (
                6,
                CostWeights::area_only(),
                "2 0 1 H V 4 3 H V 5 H | cost 3f2a952d491ccfec 3fa5013bac3a1c38 4046800000000000 3fdbd94e9a7420c4 | placement 1b7dd0f51a3ba3c4 | 904 evaluations",
            ),
            (
                6,
                CostWeights::thermal_aware(),
                "0 1 V 3 V 2 V 5 4 H V | cost 3f2bb89ec1cc2701 3fa06b5ef450c6bb 405dfaee238a33d8 3ff7aa9311def94c | placement a148dd837a5f823e | 904 evaluations",
            ),
            (
                32,
                CostWeights::area_only(),
                "1 0 H 2 3 V H 6 7 H V 4 H 5 H 8 9 V H 11 10 V 13 V 12 H H 15 H 14 16 V H 17 19 V H 18 H 21 H 20 H 22 H 23 28 V H 25 H 24 H 26 H 27 H 31 29 H 30 V H | cost 3f578af6f3d2d672 3fed3fe5876d7015 4046800000000000 3fc9996698b2c3be | placement 4de5431939548210 | 904 evaluations",
            ),
            (
                32,
                CostWeights::thermal_aware(),
                "0 1 H 3 2 H 4 6 V V H 5 H 8 7 H V 10 V 9 H 11 V 15 H 12 13 V H 14 17 V H 16 H 18 19 H 21 H 23 V H 22 20 V H 25 H 24 26 H 27 V 29 H 28 V 30 V H 31 V | cost 3f61321de3dd48fa 3fec0ade5d3b2b3e 40726023b0c5b5d6 3ff6766fe615d5b3 | placement 48b608d35e9ab79f | 904 evaluations",
            ),
        ] {
            let eval = testutil::evaluator(count, 0x6A, weights).unwrap();
            let result = evolve(&eval, GaConfig::default()).unwrap();
            assert_eq!(
                testutil::digest(&result),
                expected,
                "{count} modules, {weights:?}"
            );
        }
    }

    #[test]
    fn crossover_preserves_operand_sets() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = PolishExpression::initial(7).unwrap();
        let mut b = PolishExpression::initial(7).unwrap();
        for _ in 0..20 {
            a = a.perturb(&mut rng);
            b = b.perturb(&mut rng);
        }
        let child = crossover(&a, &b);
        let mut operands: Vec<usize> = child
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Operand(m) => Some(*m),
                _ => None,
            })
            .collect();
        operands.sort_unstable();
        assert_eq!(operands, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn temperature_only_weights_never_increase_the_peak_temperature() {
        // With a temperature-only objective the weighted cost is a monotonic
        // function of the peak temperature, and elitism guarantees the GA
        // never returns anything hotter than the initial layout.
        let weights = CostWeights {
            area: 0.0,
            wirelength: 0.0,
            temperature: 1.0,
        };
        let eval = evaluator(weights);
        let initial = PolishExpression::initial(eval.modules().len())
            .unwrap()
            .evaluate(eval.modules())
            .unwrap();
        let initial_peak = eval.cost(&initial).unwrap().peak_temperature_c;
        let best = evolve(&eval, quick_config()).unwrap();
        assert!(best.cost.peak_temperature_c <= initial_peak + 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let eval = evaluator(CostWeights::area_only());
        for config in [
            GaConfig {
                population: 1,
                ..GaConfig::default()
            },
            GaConfig {
                generations: 0,
                ..GaConfig::default()
            },
            GaConfig {
                crossover_rate: 1.5,
                ..GaConfig::default()
            },
            GaConfig {
                tournament_size: 0,
                ..GaConfig::default()
            },
            GaConfig {
                elitism: 99,
                ..GaConfig::default()
            },
        ] {
            assert!(evolve(&eval, config).is_err());
        }
    }
}
