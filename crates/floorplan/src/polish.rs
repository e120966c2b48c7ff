//! Slicing floorplans encoded as Polish expressions.
//!
//! A slicing floorplan is obtained by recursively cutting a rectangle with
//! horizontal and vertical lines. It is compactly represented by a postfix
//! (Polish) expression over module operands and the two cut operators:
//! `V` places the right subtree beside the left one, `H` stacks the second
//! subtree on top of the first. This is the classical representation used by
//! Wong–Liu style floorplanners and by the genetic floorplanner of the
//! paper's reference [3].

use rand::Rng;

use crate::error::FloorplanError;
use crate::module::Module;

/// One element of a Polish expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Element {
    /// A module, identified by its index in the module list.
    Operand(usize),
    /// Horizontal cut: the second operand is stacked on top of the first.
    H,
    /// Vertical cut: the second operand is placed to the right of the first.
    V,
}

/// A validated Polish expression over `n` modules.
///
/// # Examples
///
/// ```
/// use tats_floorplan::{Module, PolishExpression};
///
/// # fn main() -> Result<(), tats_floorplan::FloorplanError> {
/// let modules = vec![
///     Module::from_mm("a", 4.0, 4.0, 1.0),
///     Module::from_mm("b", 4.0, 4.0, 1.0),
/// ];
/// let expr = PolishExpression::initial(2)?;
/// let placement = expr.evaluate(&modules)?;
/// assert_eq!(placement.positions().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolishExpression {
    elements: Vec<Element>,
    module_count: usize,
}

/// Result of evaluating a Polish expression: module positions plus the
/// bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    positions: Vec<(f64, f64)>,
    width: f64,
    height: f64,
}

impl Placement {
    /// Lower-left corner of every module, metres, indexed by module.
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Width of the floorplan bounding box, metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height of the floorplan bounding box, metres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Area of the bounding box, square metres.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }
}

impl PolishExpression {
    /// Builds and validates an expression from raw elements.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::InvalidExpression`] when the expression is
    /// not a valid postfix encoding of a slicing tree over exactly
    /// `module_count` distinct operands.
    pub fn new(elements: Vec<Element>, module_count: usize) -> Result<Self, FloorplanError> {
        Self::validate(&elements, module_count)?;
        Ok(PolishExpression {
            elements,
            module_count,
        })
    }

    /// The canonical initial expression: modules combined pairwise with
    /// alternating cuts, which yields a roughly square arrangement.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::NoModules`] when `module_count` is zero.
    pub fn initial(module_count: usize) -> Result<Self, FloorplanError> {
        if module_count == 0 {
            return Err(FloorplanError::NoModules);
        }
        let mut elements = vec![Element::Operand(0)];
        for i in 1..module_count {
            elements.push(Element::Operand(i));
            elements.push(if i % 2 == 1 { Element::V } else { Element::H });
        }
        Ok(PolishExpression {
            elements,
            module_count,
        })
    }

    /// The elements of the expression in postfix order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Number of modules the expression covers.
    pub fn module_count(&self) -> usize {
        self.module_count
    }

    fn validate(elements: &[Element], module_count: usize) -> Result<(), FloorplanError> {
        if module_count == 0 {
            return Err(FloorplanError::InvalidExpression(
                "expression must cover at least one module".to_string(),
            ));
        }
        // A valid expression has exactly `2 * module_count - 1` elements
        // (checked overflow-free as: odd length whose operand half matches).
        // Checking the length first keeps an absurd `module_count` (for
        // example `usize::MAX`) from allocating the `seen` table below.
        if elements.len().is_multiple_of(2) || elements.len() / 2 + 1 != module_count {
            return Err(FloorplanError::InvalidExpression(format!(
                "{} elements cannot encode a slicing tree over {module_count} modules",
                elements.len()
            )));
        }
        let mut seen = vec![false; module_count];
        let mut operands = 0usize;
        let mut operators = 0usize;
        for (i, e) in elements.iter().enumerate() {
            match e {
                Element::Operand(m) => {
                    if *m >= module_count {
                        return Err(FloorplanError::InvalidExpression(format!(
                            "operand {m} out of range at position {i}"
                        )));
                    }
                    if seen[*m] {
                        return Err(FloorplanError::InvalidExpression(format!(
                            "operand {m} appears twice"
                        )));
                    }
                    seen[*m] = true;
                    operands += 1;
                }
                Element::H | Element::V => {
                    operators += 1;
                    // Balloting property: every prefix must contain more
                    // operands than operators.
                    if operators >= operands {
                        return Err(FloorplanError::InvalidExpression(format!(
                            "operator at position {i} has fewer than two subtrees"
                        )));
                    }
                }
            }
        }
        if operands != module_count {
            return Err(FloorplanError::InvalidExpression(format!(
                "expression covers {operands} of {module_count} modules"
            )));
        }
        if operators + 1 != operands {
            return Err(FloorplanError::InvalidExpression(format!(
                "{operators} operators cannot combine {operands} operands"
            )));
        }
        Ok(())
    }

    /// Evaluates the expression into concrete module positions.
    ///
    /// Runs in two flat passes over the postfix elements — a forward pass
    /// computing subtree dimensions/spans and a backward pass assigning
    /// positions — with no recursion and no per-node boxed tree, which keeps
    /// the optimisers' perturb→evaluate→cost loop cheap.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::InvalidParameter`] when the module list
    /// length differs from the expression's module count.
    pub fn evaluate(&self, modules: &[Module]) -> Result<Placement, FloorplanError> {
        if modules.len() != self.module_count {
            return Err(FloorplanError::InvalidParameter(format!(
                "expression covers {} modules but {} were supplied",
                self.module_count,
                modules.len()
            )));
        }

        let element_count = self.elements.len();
        // Forward pass: for the subtree rooted at element `i`, its bounding
        // box and the number of elements it spans.
        let mut dims: Vec<(f64, f64)> = vec![(0.0, 0.0); element_count];
        let mut spans: Vec<usize> = vec![0; element_count];
        let mut stack: Vec<usize> = Vec::with_capacity(self.module_count);
        for (i, e) in self.elements.iter().enumerate() {
            match e {
                Element::Operand(m) => {
                    dims[i] = (modules[*m].width(), modules[*m].height());
                    spans[i] = 1;
                    stack.push(i);
                }
                op @ (Element::H | Element::V) => {
                    let right = stack.pop().expect("validated expression");
                    let left = stack.pop().expect("validated expression");
                    let (lw, lh) = dims[left];
                    let (rw, rh) = dims[right];
                    dims[i] = match op {
                        Element::V => (lw + rw, lh.max(rh)),
                        Element::H => (lw.max(rw), lh + rh),
                        Element::Operand(_) => unreachable!(),
                    };
                    spans[i] = spans[left] + spans[right] + 1;
                    stack.push(i);
                }
            }
        }
        let root = stack.pop().expect("validated expression");
        debug_assert!(stack.is_empty());
        debug_assert_eq!(root, element_count - 1);
        let (width, height) = dims[root];

        // Backward pass: walk the postfix string from the root down, handing
        // each subtree its lower-left corner via an explicit stack. For a cut
        // at `i` the right subtree roots at `i - 1` and the left subtree at
        // `i - 1 - spans[i - 1]` (postfix subtrees are contiguous), so pushing
        // left-then-right pairs exactly matches the reverse scan order.
        let mut positions = vec![(0.0, 0.0); modules.len()];
        let mut corners: Vec<(f64, f64)> = Vec::with_capacity(self.module_count);
        corners.push((0.0, 0.0));
        for i in (0..element_count).rev() {
            let (x, y) = corners.pop().expect("one corner per subtree");
            match self.elements[i] {
                Element::Operand(m) => positions[m] = (x, y),
                op @ (Element::H | Element::V) => {
                    let left = i - 1 - spans[i - 1];
                    let (lw, lh) = dims[left];
                    corners.push((x, y));
                    match op {
                        Element::V => corners.push((x + lw, y)),
                        Element::H => corners.push((x, y + lh)),
                        Element::Operand(_) => unreachable!(),
                    }
                }
            }
        }
        debug_assert!(corners.is_empty());

        Ok(Placement {
            positions,
            width,
            height,
        })
    }

    /// Applies one random perturbation (the classical moves M1–M3) and
    /// returns the perturbed expression; the original is left untouched.
    ///
    /// M1 swaps two adjacent operands, M2 complements a chain of operators,
    /// M3 swaps an adjacent operand/operator pair when the result remains a
    /// valid expression. A move with no candidate position leaves the
    /// expression unchanged.
    pub fn perturb<R: Rng>(&self, rng: &mut R) -> PolishExpression {
        let mut elements = self.elements.clone();
        match rng.gen_range(0..3) {
            0 => {
                // M1: swap two adjacent operands (in operand order).
                let operand_positions: Vec<usize> = elements
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e, Element::Operand(_)))
                    .map(|(i, _)| i)
                    .collect();
                if operand_positions.len() >= 2 {
                    let k = rng.gen_range(0..operand_positions.len() - 1);
                    elements.swap(operand_positions[k], operand_positions[k + 1]);
                }
            }
            1 => {
                // M2: complement every operator in a random maximal chain.
                let chain_starts: Vec<usize> = elements
                    .iter()
                    .enumerate()
                    .filter(|(i, e)| {
                        matches!(e, Element::H | Element::V)
                            && (*i == 0 || matches!(elements[*i - 1], Element::Operand(_)))
                    })
                    .map(|(i, _)| i)
                    .collect();
                if !chain_starts.is_empty() {
                    let start = chain_starts[rng.gen_range(0..chain_starts.len())];
                    for element in &mut elements[start..] {
                        match element {
                            Element::H => *element = Element::V,
                            Element::V => *element = Element::H,
                            Element::Operand(_) => break,
                        }
                    }
                }
            }
            _ => {
                // M3: swap an adjacent operand/operator pair if still valid.
                let candidates: Vec<usize> = (0..elements.len().saturating_sub(1))
                    .filter(|&i| {
                        matches!(
                            (elements[i], elements[i + 1]),
                            (Element::Operand(_), Element::H | Element::V)
                                | (Element::H | Element::V, Element::Operand(_))
                        )
                    })
                    .collect();
                if !candidates.is_empty() {
                    let i = candidates[rng.gen_range(0..candidates.len())];
                    elements.swap(i, i + 1);
                    if Self::validate(&elements, self.module_count).is_err() {
                        elements.swap(i, i + 1);
                    }
                }
            }
        }
        PolishExpression {
            elements,
            module_count: self.module_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn squares(n: usize) -> Vec<Module> {
        (0..n)
            .map(|i| Module::from_mm(format!("m{i}"), 4.0, 4.0, 1.0))
            .collect()
    }

    #[test]
    fn initial_expression_is_valid_and_evaluates() {
        for n in 1..8 {
            let expr = PolishExpression::initial(n).unwrap();
            assert_eq!(expr.module_count(), n);
            let placement = expr.evaluate(&squares(n)).unwrap();
            assert_eq!(placement.positions().len(), n);
            assert!(placement.area() >= n as f64 * 16e-6 - 1e-12);
        }
    }

    #[test]
    fn two_modules_vertical_cut_places_side_by_side() {
        let modules = squares(2);
        let expr = PolishExpression::new(
            vec![Element::Operand(0), Element::Operand(1), Element::V],
            2,
        )
        .unwrap();
        let p = expr.evaluate(&modules).unwrap();
        assert_eq!(p.positions()[0], (0.0, 0.0));
        assert!((p.positions()[1].0 - 4e-3).abs() < 1e-12);
        assert!((p.width() - 8e-3).abs() < 1e-12);
        assert!((p.height() - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn two_modules_horizontal_cut_stacks() {
        let modules = squares(2);
        let expr = PolishExpression::new(
            vec![Element::Operand(0), Element::Operand(1), Element::H],
            2,
        )
        .unwrap();
        let p = expr.evaluate(&modules).unwrap();
        assert!((p.positions()[1].1 - 4e-3).abs() < 1e-12);
        assert!((p.height() - 8e-3).abs() < 1e-12);
    }

    #[test]
    fn placements_never_overlap() {
        let modules: Vec<Module> = (0..6)
            .map(|i| Module::from_mm(format!("m{i}"), 3.0 + i as f64, 2.0 + (i % 3) as f64, 1.0))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let mut expr = PolishExpression::initial(6).unwrap();
        for _ in 0..50 {
            expr = expr.perturb(&mut rng);
            let p = expr.evaluate(&modules).unwrap();
            for i in 0..6 {
                for j in (i + 1)..6 {
                    let (xi, yi) = p.positions()[i];
                    let (xj, yj) = p.positions()[j];
                    let overlap_x =
                        (xi + modules[i].width()).min(xj + modules[j].width()) - xi.max(xj);
                    let overlap_y =
                        (yi + modules[i].height()).min(yj + modules[j].height()) - yi.max(yj);
                    assert!(
                        overlap_x <= 1e-12 || overlap_y <= 1e-12,
                        "modules {i} and {j} overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_expressions_are_rejected() {
        // Too few operators.
        assert!(PolishExpression::new(vec![Element::Operand(0), Element::Operand(1)], 2).is_err());
        // Operator before two operands.
        assert!(PolishExpression::new(
            vec![Element::Operand(0), Element::H, Element::Operand(1)],
            2
        )
        .is_err());
        // Duplicate operand.
        assert!(PolishExpression::new(
            vec![Element::Operand(0), Element::Operand(0), Element::V],
            2
        )
        .is_err());
        // Out-of-range operand.
        assert!(PolishExpression::new(
            vec![Element::Operand(0), Element::Operand(5), Element::V],
            2
        )
        .is_err());
        // Zero modules.
        assert!(PolishExpression::new(vec![], 0).is_err());
        assert!(PolishExpression::initial(0).is_err());
    }

    #[test]
    fn malformed_expressions_error_instead_of_panicking() {
        use Element::{Operand, H, V};
        // Operator first.
        assert!(PolishExpression::new(vec![H, Operand(0), Operand(1)], 2).is_err());
        // Operator as the entire expression.
        assert!(PolishExpression::new(vec![V], 1).is_err());
        // Only operators.
        assert!(PolishExpression::new(vec![H, V, H], 2).is_err());
        // Right count of elements but an operand repeated in place of
        // another (duplicate id with correct module_count).
        assert!(PolishExpression::new(vec![Operand(0), Operand(0), V], 2).is_err());
        // module_count larger than the operand set can cover.
        assert!(PolishExpression::new(vec![Operand(0)], 2).is_err());
        // module_count smaller than the operands present.
        assert!(PolishExpression::new(vec![Operand(0), Operand(1), V, Operand(2), H], 2).is_err());
        // Even-length element lists can never balance.
        assert!(PolishExpression::new(vec![Operand(0), Operand(1), V, H], 2).is_err());
        // An absurd module_count must error quickly instead of trying to
        // allocate a bookkeeping table for usize::MAX modules.
        assert!(PolishExpression::new(vec![Operand(0)], usize::MAX).is_err());
        assert!(PolishExpression::new(vec![], usize::MAX).is_err());
    }

    #[test]
    fn perturb_stream_is_pinned() {
        // The optimisers' trajectories hang on the exact order of
        // `perturb`'s random draws: pin the expression after 200 moves and
        // the generator's next output, which fixes how many draws they used.
        let mut rng = StdRng::seed_from_u64(42);
        let mut expr = PolishExpression::initial(7).unwrap();
        for _ in 0..200 {
            expr = expr.perturb(&mut rng);
        }
        assert_eq!(crate::testutil::postfix(&expr), "3 4 H 6 5 V H 2 0 V 1 V H");
        assert_eq!(rng.gen::<u64>(), 0x8D5A_CE6F_D508_B09D);
    }

    #[test]
    fn evaluate_rejects_wrong_module_count() {
        let expr = PolishExpression::initial(3).unwrap();
        assert!(expr.evaluate(&squares(2)).is_err());
    }

    #[test]
    fn perturbations_preserve_validity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut expr = PolishExpression::initial(7).unwrap();
        for _ in 0..200 {
            expr = expr.perturb(&mut rng);
            // Re-validating must succeed; `new` re-runs the validator.
            assert!(
                PolishExpression::new(expr.elements().to_vec(), 7).is_ok(),
                "perturbation produced an invalid expression"
            );
        }
    }

    #[test]
    fn single_module_expression_is_just_the_operand() {
        let expr = PolishExpression::initial(1).unwrap();
        assert_eq!(expr.elements(), &[Element::Operand(0)]);
        let p = expr.evaluate(&squares(1)).unwrap();
        assert_eq!(p.positions()[0], (0.0, 0.0));
    }
}
