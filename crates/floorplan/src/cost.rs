//! Cost functions for thermal-aware floorplanning.
//!
//! The floorplanner of the paper's reference [3] optimises a weighted sum of
//! chip area, interconnect wirelength and peak temperature. The temperature
//! term is evaluated by running the compact thermal model on the candidate
//! placement with the modules' estimated average powers.

use std::collections::HashMap;

use tats_thermal::{Block, Floorplan, Rect, ThermalConfig, ThermalModel, ThermalSession};

use crate::error::FloorplanError;
use crate::module::{validate_modules, Module};
use crate::polish::Placement;

/// A multi-terminal net connecting the listed modules; wirelength is measured
/// as the half-perimeter of the bounding box of the connected module centres.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    modules: Vec<usize>,
}

impl Net {
    /// Creates a net over the given module indices.
    pub fn new(modules: Vec<usize>) -> Self {
        Net { modules }
    }

    /// The module indices connected by this net.
    pub fn modules(&self) -> &[usize] {
        &self.modules
    }
}

/// Relative weights of the three cost terms.
///
/// Each term is normalised against the initial (reference) solution before
/// weighting, so the weights express relative importance independent of
/// units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the bounding-box area term.
    pub area: f64,
    /// Weight of the half-perimeter wirelength term.
    pub wirelength: f64,
    /// Weight of the peak-temperature term.
    pub temperature: f64,
}

impl CostWeights {
    /// Area-only floorplanning (the classical objective).
    pub fn area_only() -> Self {
        CostWeights {
            area: 1.0,
            wirelength: 0.0,
            temperature: 0.0,
        }
    }

    /// The thermal-aware objective used by the co-synthesis flow: area and
    /// peak temperature matter, wirelength is a tie-breaker.
    pub fn thermal_aware() -> Self {
        CostWeights {
            area: 1.0,
            wirelength: 0.2,
            temperature: 1.0,
        }
    }

    fn validate(&self) -> Result<(), FloorplanError> {
        for (name, v) in [
            ("area", self.area),
            ("wirelength", self.wirelength),
            ("temperature", self.temperature),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(FloorplanError::InvalidParameter(format!(
                    "{name} weight must be non-negative and finite, got {v}"
                )));
            }
        }
        if self.area + self.wirelength + self.temperature <= 0.0 {
            return Err(FloorplanError::InvalidParameter(
                "at least one cost weight must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights::thermal_aware()
    }
}

/// Breakdown of the cost of one candidate placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Bounding-box area, m².
    pub area_m2: f64,
    /// Total half-perimeter wirelength, metres.
    pub wirelength_m: f64,
    /// Peak steady-state temperature, °C.
    pub peak_temperature_c: f64,
    /// Weighted, normalised scalar cost minimised by the optimisers.
    pub weighted: f64,
}

/// One memoised thermal solve: the exact module positions it was computed
/// for (as raw bits, verified on every hit so a hash collision can never
/// return another placement's temperature) and the resulting peak.
#[derive(Debug, Clone)]
struct MemoEntry {
    position_bits: Vec<(u64, u64)>,
    peak_temperature_c: f64,
}

impl MemoEntry {
    fn matches(&self, placement: &Placement) -> bool {
        self.position_bits.len() == placement.positions().len()
            && self
                .position_bits
                .iter()
                .zip(placement.positions())
                .all(|(&(bx, by), &(x, y))| bx == x.to_bits() && by == y.to_bits())
    }
}

/// Bounded memo plus reusable thermal kernel for the hot cost path.
///
/// One `CostScratch` per optimisation run: the scratch owns the
/// [`ThermalSession`] (matrix/LU/solution storage reused across candidates),
/// the candidate geometry buffer, and a geometry-hash → peak-temperature
/// memo. Simulated annealing revisits placements constantly, so the memo
/// turns most thermal solves into a hash lookup; memoised answers are the
/// exact previously computed values, never approximations (hits verify the
/// full stored geometry, not just the hash).
#[derive(Debug, Clone)]
pub struct CostScratch {
    session: ThermalSession,
    rects: Vec<Rect>,
    memo: HashMap<u64, MemoEntry>,
    hits: u64,
    misses: u64,
}

/// The memo is cleared once it reaches this many entries, bounding memory
/// for arbitrarily long optimisation runs.
const MEMO_CAPACITY: usize = 1 << 16;

impl CostScratch {
    /// Thermal-solve memo hits so far.
    pub fn memo_hits(&self) -> u64 {
        self.hits
    }

    /// Thermal solves actually performed so far.
    pub fn memo_misses(&self) -> u64 {
        self.misses
    }
}

/// Evaluates placements against the weighted cost function.
#[derive(Debug, Clone)]
pub struct CostEvaluator {
    modules: Vec<Module>,
    nets: Vec<Net>,
    weights: CostWeights,
    thermal_config: ThermalConfig,
    reference_area: f64,
    reference_wirelength: f64,
    reference_temperature_rise: f64,
    /// Precomputed module half-extents: centre of module `m` in a placement
    /// is `position + (half_width[m], half_height[m])`.
    half_width: Vec<f64>,
    half_height: Vec<f64>,
    /// Precomputed per-module average powers, in module order.
    powers: Vec<f64>,
}

impl CostEvaluator {
    /// Creates an evaluator, normalising each term against the supplied
    /// reference placement (typically the initial solution).
    ///
    /// # Errors
    ///
    /// Propagates module/weight validation errors, net index errors and
    /// thermal-model failures on the reference placement.
    pub fn new(
        modules: Vec<Module>,
        nets: Vec<Net>,
        weights: CostWeights,
        thermal_config: ThermalConfig,
        reference: &Placement,
    ) -> Result<Self, FloorplanError> {
        validate_modules(&modules)?;
        weights.validate()?;
        for net in &nets {
            for &m in net.modules() {
                if m >= modules.len() {
                    return Err(FloorplanError::UnknownModule(m));
                }
            }
        }
        let half_width: Vec<f64> = modules.iter().map(|m| m.width() / 2.0).collect();
        let half_height: Vec<f64> = modules.iter().map(|m| m.height() / 2.0).collect();
        let powers: Vec<f64> = modules.iter().map(Module::power).collect();
        let mut evaluator = CostEvaluator {
            modules,
            nets,
            weights,
            thermal_config,
            reference_area: 1.0,
            reference_wirelength: 1.0,
            reference_temperature_rise: 1.0,
            half_width,
            half_height,
            powers,
        };
        let reference_cost = evaluator.raw_terms(reference)?;
        evaluator.reference_area = reference_cost.0.max(1e-12);
        evaluator.reference_wirelength = reference_cost.1.max(1e-12);
        evaluator.reference_temperature_rise =
            (reference_cost.2 - thermal_config.ambient_c).max(1e-9);
        Ok(evaluator)
    }

    /// The modules being placed.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Converts a placement into a thermal-model floorplan.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors from the thermal crate.
    pub fn to_thermal_floorplan(&self, placement: &Placement) -> Result<Floorplan, FloorplanError> {
        let blocks: Vec<Block> = self
            .modules
            .iter()
            .zip(placement.positions())
            .map(|(m, &(x, y))| Block::new(m.name(), x, y, m.width(), m.height()))
            .collect();
        Ok(Floorplan::new(blocks)?)
    }

    fn raw_terms(&self, placement: &Placement) -> Result<(f64, f64, f64), FloorplanError> {
        let area = placement.area();
        let wirelength = self.wirelength(placement);
        let peak = if self.weights.temperature > 0.0 {
            let plan = self.to_thermal_floorplan(placement)?;
            let model = ThermalModel::new(&plan, self.thermal_config)?;
            model.steady_state(&self.powers)?.max_c()
        } else {
            self.thermal_config.ambient_c
        };
        Ok((area, wirelength, peak))
    }

    /// Half-perimeter wirelength over all nets: a single pass per net
    /// tracking the bounding box of module centres — no per-net allocation.
    fn wirelength(&self, placement: &Placement) -> f64 {
        let positions = placement.positions();
        self.nets
            .iter()
            .map(|net| {
                if net.modules().len() < 2 {
                    return 0.0;
                }
                let mut min_x = f64::INFINITY;
                let mut max_x = f64::NEG_INFINITY;
                let mut min_y = f64::INFINITY;
                let mut max_y = f64::NEG_INFINITY;
                for &m in net.modules() {
                    let (x, y) = positions[m];
                    let cx = x + self.half_width[m];
                    let cy = y + self.half_height[m];
                    min_x = min_x.min(cx);
                    max_x = max_x.max(cx);
                    min_y = min_y.min(cy);
                    max_y = max_y.max(cy);
                }
                (max_x - min_x) + (max_y - min_y)
            })
            .sum()
    }

    /// Hashes the candidate geometry (module positions; dimensions are fixed
    /// per evaluator) for the peak-temperature memo: a word-at-a-time
    /// multiply-xor mix over the raw float bits. Identical placements — the
    /// only thing SA revisits — hash identically.
    fn geometry_hash(&self, placement: &Placement) -> u64 {
        let mut hash: u64 = 0x9E37_79B9_7F4A_7C15;
        for &(x, y) in placement.positions() {
            for bits in [x.to_bits(), y.to_bits()] {
                hash = (hash ^ bits).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                hash ^= hash >> 29;
            }
        }
        hash
    }

    /// Creates the scratch state one optimisation run passes to every
    /// [`CostEvaluator::cost_with`] call.
    ///
    /// # Errors
    ///
    /// Propagates thermal-session construction errors.
    pub fn scratch(&self) -> Result<CostScratch, FloorplanError> {
        Ok(CostScratch {
            session: ThermalSession::new(self.modules.len(), self.thermal_config)?,
            rects: vec![Rect::default(); self.modules.len()],
            memo: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    }

    fn weighted_breakdown(&self, area: f64, wirelength: f64, peak: f64) -> CostBreakdown {
        let temperature_rise = (peak - self.thermal_config.ambient_c).max(0.0);
        let weighted = self.weights.area * area / self.reference_area
            + self.weights.wirelength * wirelength / self.reference_wirelength
            + self.weights.temperature * temperature_rise / self.reference_temperature_rise;
        CostBreakdown {
            area_m2: area,
            wirelength_m: wirelength,
            peak_temperature_c: peak,
            weighted,
        }
    }

    /// Evaluates the weighted cost of a placement by rebuilding the full
    /// thermal model from scratch.
    ///
    /// This is the *reference* implementation: correct for any placement
    /// (including overlapping ones, which it rejects) but O(n³) in
    /// allocations and factorisation per call. The optimisers use
    /// [`CostEvaluator::cost_with`], which returns identical values through
    /// the cached kernel; this path remains as the equivalence oracle.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model failures (e.g. a degenerate placement).
    pub fn cost(&self, placement: &Placement) -> Result<CostBreakdown, FloorplanError> {
        let (area, wirelength, peak) = self.raw_terms(placement)?;
        Ok(self.weighted_breakdown(area, wirelength, peak))
    }

    /// Evaluates the weighted cost of a placement through the cached thermal
    /// kernel in `scratch`: the cheap area/wirelength terms are computed
    /// directly, and the exact thermal solve reuses the session's matrix, LU
    /// workspace and solution storage, short-circuiting entirely when the
    /// geometry was evaluated before (bounded memo).
    ///
    /// Returns values identical to [`CostEvaluator::cost`] for every
    /// non-overlapping placement (slicing-tree placements always are); the
    /// geometry is not re-validated here.
    ///
    /// # Errors
    ///
    /// Propagates thermal-kernel failures (e.g. a degenerate placement).
    pub fn cost_with(
        &self,
        placement: &Placement,
        scratch: &mut CostScratch,
    ) -> Result<CostBreakdown, FloorplanError> {
        let area = placement.area();
        let wirelength = self.wirelength(placement);
        let peak = if self.weights.temperature > 0.0 {
            let key = self.geometry_hash(placement);
            // A same-hash entry for different geometry (astronomically rare)
            // fails the `matches` check and is recomputed and replaced.
            let memoised = scratch
                .memo
                .get(&key)
                .filter(|entry| entry.matches(placement))
                .map(|entry| entry.peak_temperature_c);
            match memoised {
                Some(peak) => {
                    scratch.hits += 1;
                    peak
                }
                None => {
                    scratch.misses += 1;
                    for ((rect, module), &(x, y)) in scratch
                        .rects
                        .iter_mut()
                        .zip(&self.modules)
                        .zip(placement.positions())
                    {
                        *rect = Rect::new(x, y, module.width(), module.height());
                    }
                    let peak = scratch
                        .session
                        .peak_temperature(&scratch.rects, &self.powers)?;
                    if scratch.memo.len() >= MEMO_CAPACITY {
                        scratch.memo.clear();
                    }
                    scratch.memo.insert(
                        key,
                        MemoEntry {
                            position_bits: placement
                                .positions()
                                .iter()
                                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                                .collect(),
                            peak_temperature_c: peak,
                        },
                    );
                    peak
                }
            }
        } else {
            self.thermal_config.ambient_c
        };
        Ok(self.weighted_breakdown(area, wirelength, peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polish::PolishExpression;

    fn modules() -> Vec<Module> {
        vec![
            Module::from_mm("hot", 7.0, 7.0, 8.0),
            Module::from_mm("warm", 7.0, 7.0, 4.0),
            Module::from_mm("cool", 5.0, 5.0, 1.0),
            Module::from_mm("cold", 5.0, 5.0, 0.5),
        ]
    }

    fn evaluator(weights: CostWeights) -> (CostEvaluator, Placement) {
        let mods = modules();
        let expr = PolishExpression::initial(mods.len()).unwrap();
        let placement = expr.evaluate(&mods).unwrap();
        let nets = vec![Net::new(vec![0, 1]), Net::new(vec![1, 2, 3])];
        let eval =
            CostEvaluator::new(mods, nets, weights, ThermalConfig::default(), &placement).unwrap();
        (eval, placement)
    }

    #[test]
    fn reference_placement_has_cost_equal_to_weight_sum() {
        let weights = CostWeights::thermal_aware();
        let (eval, placement) = evaluator(weights);
        let cost = eval.cost(&placement).unwrap();
        let expected = weights.area + weights.wirelength + weights.temperature;
        assert!((cost.weighted - expected).abs() < 1e-9);
        assert!(cost.peak_temperature_c > 45.0);
        assert!(cost.area_m2 > 0.0);
        assert!(cost.wirelength_m > 0.0);
    }

    #[test]
    fn area_only_weights_skip_the_thermal_model() {
        let (eval, placement) = evaluator(CostWeights::area_only());
        let cost = eval.cost(&placement).unwrap();
        assert_eq!(cost.peak_temperature_c, 45.0);
        assert!((cost.weighted - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spreading_hot_modules_reduces_peak_temperature() {
        use crate::polish::Element;
        let mods = modules();
        // Reference: hot and warm adjacent. Alternative: hot and warm
        // separated by the cool modules.
        let adjacent = PolishExpression::new(
            vec![
                Element::Operand(0),
                Element::Operand(1),
                Element::V,
                Element::Operand(2),
                Element::Operand(3),
                Element::V,
                Element::H,
            ],
            4,
        )
        .unwrap();
        let separated = PolishExpression::new(
            vec![
                Element::Operand(0),
                Element::Operand(2),
                Element::V,
                Element::Operand(3),
                Element::Operand(1),
                Element::V,
                Element::H,
            ],
            4,
        )
        .unwrap();
        let p_adj = adjacent.evaluate(&mods).unwrap();
        let p_sep = separated.evaluate(&mods).unwrap();
        let eval = CostEvaluator::new(
            mods,
            vec![],
            CostWeights::thermal_aware(),
            ThermalConfig::default(),
            &p_adj,
        )
        .unwrap();
        let hot_adjacent = eval.cost(&p_adj).unwrap().peak_temperature_c;
        let hot_separated = eval.cost(&p_sep).unwrap().peak_temperature_c;
        assert!(
            hot_separated < hot_adjacent,
            "separated {hot_separated} should run cooler than adjacent {hot_adjacent}"
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mods = modules();
        let expr = PolishExpression::initial(mods.len()).unwrap();
        let placement = expr.evaluate(&mods).unwrap();
        // Net referencing an unknown module.
        assert!(matches!(
            CostEvaluator::new(
                mods.clone(),
                vec![Net::new(vec![0, 9])],
                CostWeights::default(),
                ThermalConfig::default(),
                &placement
            ),
            Err(FloorplanError::UnknownModule(9))
        ));
        // Negative weight.
        assert!(CostEvaluator::new(
            mods.clone(),
            vec![],
            CostWeights {
                area: -1.0,
                wirelength: 0.0,
                temperature: 0.0
            },
            ThermalConfig::default(),
            &placement
        )
        .is_err());
        // All-zero weights.
        assert!(CostEvaluator::new(
            mods,
            vec![],
            CostWeights {
                area: 0.0,
                wirelength: 0.0,
                temperature: 0.0
            },
            ThermalConfig::default(),
            &placement
        )
        .is_err());
    }

    #[test]
    fn cached_path_matches_naive_rebuild_on_randomized_placements() {
        use crate::polish::PolishExpression;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mods = modules();
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut expr = PolishExpression::initial(mods.len()).unwrap();
        let reference = expr.evaluate(&mods).unwrap();
        let nets = vec![Net::new(vec![0, 1]), Net::new(vec![1, 2, 3])];
        let eval = CostEvaluator::new(
            mods.clone(),
            nets,
            CostWeights::thermal_aware(),
            ThermalConfig::default(),
            &reference,
        )
        .unwrap();
        let mut scratch = eval.scratch().unwrap();
        for step in 0..60 {
            expr = expr.perturb(&mut rng);
            let placement = expr.evaluate(&mods).unwrap();
            let naive = eval.cost(&placement).unwrap();
            let cached = eval.cost_with(&placement, &mut scratch).unwrap();
            assert!(
                (naive.weighted - cached.weighted).abs() < 1e-9,
                "step {step}: weighted {} vs {}",
                naive.weighted,
                cached.weighted
            );
            assert!((naive.peak_temperature_c - cached.peak_temperature_c).abs() < 1e-9);
            assert_eq!(naive.area_m2, cached.area_m2);
            assert_eq!(naive.wirelength_m, cached.wirelength_m);
        }
    }

    #[test]
    fn memo_short_circuits_revisited_geometry_with_exact_values() {
        let (eval, placement) = evaluator(CostWeights::thermal_aware());
        let mut scratch = eval.scratch().unwrap();
        let first = eval.cost_with(&placement, &mut scratch).unwrap();
        assert_eq!(scratch.memo_misses(), 1);
        assert_eq!(scratch.memo_hits(), 0);
        let second = eval.cost_with(&placement, &mut scratch).unwrap();
        assert_eq!(scratch.memo_misses(), 1);
        assert_eq!(scratch.memo_hits(), 1);
        // Memoised answers are bit-identical, not approximate.
        assert_eq!(first, second);
    }

    #[test]
    fn area_only_cached_path_skips_the_thermal_model() {
        let (eval, placement) = evaluator(CostWeights::area_only());
        let mut scratch = eval.scratch().unwrap();
        let cost = eval.cost_with(&placement, &mut scratch).unwrap();
        assert_eq!(cost.peak_temperature_c, 45.0);
        assert_eq!(scratch.memo_misses(), 0);
    }

    #[test]
    fn single_module_nets_contribute_no_wirelength() {
        let mods = modules();
        let expr = PolishExpression::initial(mods.len()).unwrap();
        let placement = expr.evaluate(&mods).unwrap();
        let eval = CostEvaluator::new(
            mods,
            vec![Net::new(vec![2])],
            CostWeights::area_only(),
            ThermalConfig::default(),
            &placement,
        )
        .unwrap();
        assert_eq!(eval.cost(&placement).unwrap().wirelength_m, 0.0);
    }

    #[test]
    fn to_thermal_floorplan_matches_module_count() {
        let (eval, placement) = evaluator(CostWeights::default());
        let plan = eval.to_thermal_floorplan(&placement).unwrap();
        assert_eq!(plan.block_count(), eval.modules().len());
    }
}
