//! Deterministic floorplanning fixtures shared by this crate's unit and
//! property tests and the `tats floorplan` CLI demo.
//!
//! Everything here is a pure function of its `(count, seed)` arguments, so
//! fixtures are reproducible across test runs and processes without
//! copy-pasted module tables.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tats_thermal::ThermalConfig;

use crate::cost::{CostEvaluator, CostWeights, Net};
use crate::error::FloorplanError;
use crate::module::Module;
#[cfg(test)]
use crate::polish::Element;
use crate::polish::PolishExpression;

/// A deterministic set of `count` modules with varied dimensions (2–8 mm a
/// side) and strictly positive powers (0.4–7.4 W), fully determined by
/// `(count, seed)`.
pub fn module_set(count: usize, seed: u64) -> Vec<Module> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EE_D0D5);
    (0..count)
        .map(|i| {
            let width = 2.0 + rng.gen::<f64>() * 6.0;
            let height = 2.0 + rng.gen::<f64>() * 6.0;
            let power = 0.4 + rng.gen::<f64>() * 7.0;
            Module::from_mm(format!("m{i}"), width, height, power)
        })
        .collect()
}

/// A deterministic set of `count` nets over `modules` modules, each
/// connecting two to four distinct modules. Fewer than two modules cannot
/// form a net, so the set is empty then.
pub fn net_set(count: usize, modules: usize, seed: u64) -> Vec<Net> {
    if modules < 2 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x17E75);
    (0..count)
        .map(|_| {
            let arity = rng.gen_range(2..=4usize.min(modules));
            let mut pins: Vec<usize> = (0..modules).collect();
            pins.shuffle(&mut rng);
            pins.truncate(arity);
            Net::new(pins)
        })
        .collect()
}

/// A ready-made [`CostEvaluator`] over [`module_set`]`(count, seed)` with a
/// couple of [`net_set`] nets, normalised against the canonical initial
/// placement — the fixture the annealing/GA tests share.
///
/// # Errors
///
/// Propagates evaluator construction errors (none for valid `count > 0`).
pub fn evaluator(
    count: usize,
    seed: u64,
    weights: CostWeights,
) -> Result<CostEvaluator, FloorplanError> {
    let modules = module_set(count, seed);
    let nets = net_set(count / 2, count, seed);
    let reference = PolishExpression::initial(count)?.evaluate(&modules)?;
    CostEvaluator::new(modules, nets, weights, ThermalConfig::default(), &reference)
}

/// The expression in postfix notation: operand indices and `H`/`V` cuts,
/// space-separated.
#[cfg(test)]
pub(crate) fn postfix(expression: &PolishExpression) -> String {
    let tokens: Vec<String> = expression
        .elements()
        .iter()
        .map(|element| match element {
            Element::Operand(m) => m.to_string(),
            Element::H => "H".to_string(),
            Element::V => "V".to_string(),
        })
        .collect();
    tokens.join(" ")
}

/// A bit-exact fingerprint of an optimiser result, for pinning trajectories:
/// the postfix expression, the four cost terms as raw `f64` bits, an FNV-1a
/// hash over the placement's coordinate bits, and the evaluation count. One
/// ulp of drift anywhere in a run changes it.
#[cfg(test)]
pub(crate) fn digest(result: &crate::OptimisedFloorplan) -> String {
    let placement = &result.placement;
    let coordinates = placement.positions().iter().flat_map(|&(x, y)| [x, y]);
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for value in coordinates.chain([placement.width(), placement.height()]) {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    let cost = &result.cost;
    format!(
        "{} | cost {:016x} {:016x} {:016x} {:016x} | placement {hash:016x} | {} evaluations",
        postfix(&result.expression),
        cost.area_m2.to_bits(),
        cost.wirelength_m.to_bits(),
        cost.peak_temperature_c.to_bits(),
        cost.weighted.to_bits(),
        result.evaluations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(module_set(6, 3), module_set(6, 3));
        assert_ne!(module_set(6, 3), module_set(6, 4));
        assert_eq!(net_set(4, 9, 1), net_set(4, 9, 1));
    }

    #[test]
    fn generated_modules_are_valid() {
        let modules = module_set(12, 0xF00);
        crate::module::validate_modules(&modules).unwrap();
        for m in &modules {
            assert!(m.power() > 0.0);
        }
    }

    #[test]
    fn net_set_is_empty_below_two_modules() {
        assert!(net_set(3, 0, 1).is_empty());
        assert!(net_set(3, 1, 1).is_empty());
    }

    #[test]
    fn generated_nets_reference_existing_distinct_modules() {
        for seed in 0..5 {
            for net in net_set(6, 7, seed) {
                assert!(net.modules().len() >= 2);
                let mut pins = net.modules().to_vec();
                pins.sort_unstable();
                pins.dedup();
                assert_eq!(pins.len(), net.modules().len());
                assert!(pins.iter().all(|&m| m < 7));
            }
        }
    }

    #[test]
    fn evaluator_fixture_builds() {
        let eval = evaluator(5, 9, CostWeights::area_only()).unwrap();
        assert_eq!(eval.modules().len(), 5);
    }
}
