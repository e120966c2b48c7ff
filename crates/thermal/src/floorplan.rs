//! Floorplan geometry consumed by the thermal model.
//!
//! A [`Floorplan`] is a set of rectangular, axis-aligned, non-overlapping
//! blocks (one per processing element or functional unit). The thermal model
//! derives lateral heat-flow paths from block adjacency and vertical paths
//! from block areas, exactly as HotSpot's block model does.

use std::fmt;

use crate::error::ThermalError;

/// An axis-aligned rectangular block of the die.
///
/// Coordinates and dimensions are in metres; use [`Block::from_mm`] for the
/// millimetre-denominated geometry stored in technology libraries.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    name: String,
    x: f64,
    y: f64,
    width: f64,
    height: f64,
}

impl Block {
    /// Creates a block from metre-denominated geometry.
    pub fn new(name: impl Into<String>, x: f64, y: f64, width: f64, height: f64) -> Self {
        Block {
            name: name.into(),
            x,
            y,
            width,
            height,
        }
    }

    /// Creates a block from millimetre-denominated geometry.
    pub fn from_mm(name: impl Into<String>, x: f64, y: f64, width: f64, height: f64) -> Self {
        Block::new(name, x * 1e-3, y * 1e-3, width * 1e-3, height * 1e-3)
    }

    /// Block name (typically the PE instance name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Left edge, metres.
    pub fn x(&self) -> f64 {
        self.x
    }

    /// Bottom edge, metres.
    pub fn y(&self) -> f64 {
        self.y
    }

    /// Width, metres.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height, metres.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The block's bare geometry (no name), as consumed by the cached
    /// thermal kernel. The geometric predicates below delegate to
    /// [`crate::Rect`] so the numerics have a single definition.
    pub fn rect(&self) -> crate::Rect {
        crate::Rect::new(self.x, self.y, self.width, self.height)
    }

    /// Area, square metres.
    pub fn area(&self) -> f64 {
        self.rect().area()
    }

    /// Centre coordinates, metres.
    pub fn center(&self) -> (f64, f64) {
        self.rect().center()
    }

    /// Returns `true` if the interiors of `self` and `other` overlap.
    pub fn overlaps(&self, other: &Block) -> bool {
        let eps = 1e-12;
        self.x + eps < other.x + other.width
            && other.x + eps < self.x + self.width
            && self.y + eps < other.y + other.height
            && other.y + eps < self.y + self.height
    }

    /// Length of the edge shared with `other`, in metres; zero when the
    /// blocks do not abut.
    pub fn shared_edge_length(&self, other: &Block) -> f64 {
        self.rect().shared_edge_length(&other.rect())
    }

    /// Euclidean distance between block centres, metres.
    pub fn center_distance(&self, other: &Block) -> f64 {
        self.rect().center_distance(&other.rect())
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @({:.1},{:.1})mm {:.1}x{:.1}mm",
            self.name,
            self.x * 1e3,
            self.y * 1e3,
            self.width * 1e3,
            self.height * 1e3
        )
    }
}

/// A validated collection of non-overlapping blocks.
///
/// # Examples
///
/// ```
/// use tats_thermal::{Block, Floorplan};
///
/// # fn main() -> Result<(), tats_thermal::ThermalError> {
/// let plan = Floorplan::new(vec![
///     Block::from_mm("pe0", 0.0, 0.0, 7.0, 7.0),
///     Block::from_mm("pe1", 7.0, 0.0, 7.0, 7.0),
/// ])?;
/// assert_eq!(plan.block_count(), 2);
/// assert!(plan.shared_edge_length(0, 1)? > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Validates and wraps a set of blocks.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyFloorplan`] for an empty input,
    /// [`ThermalError::DegenerateBlock`] for blocks with non-positive or
    /// non-finite dimensions, and [`ThermalError::OverlappingBlocks`] when
    /// any two blocks overlap.
    pub fn new(blocks: Vec<Block>) -> Result<Self, ThermalError> {
        if blocks.is_empty() {
            return Err(ThermalError::EmptyFloorplan);
        }
        for (i, b) in blocks.iter().enumerate() {
            let finite =
                b.width.is_finite() && b.height.is_finite() && b.x.is_finite() && b.y.is_finite();
            if !finite || b.width <= 0.0 || b.height <= 0.0 {
                return Err(ThermalError::DegenerateBlock {
                    block: i,
                    width: b.width,
                    height: b.height,
                });
            }
        }
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                if blocks[i].overlaps(&blocks[j]) {
                    return Err(ThermalError::OverlappingBlocks(i, j));
                }
            }
        }
        Ok(Floorplan { blocks })
    }

    /// Lays out `widths_heights` (metre pairs) on a near-square grid with the
    /// given spacing, producing a simple non-overlapping placement.
    ///
    /// This is the placement of the platform-based architecture (e.g. four
    /// identical PEs in a 2×2 arrangement), of co-synthesis's back-off pass
    /// and of a one-PE co-synthesis design. The floorplanners start from
    /// `PolishExpression::initial` instead.
    ///
    /// # Errors
    ///
    /// Propagates [`Floorplan::new`] validation errors.
    pub fn grid_layout(
        names: &[String],
        widths_heights: &[(f64, f64)],
        spacing: f64,
    ) -> Result<Self, ThermalError> {
        if names.len() != widths_heights.len() {
            return Err(ThermalError::InvalidParameter(format!(
                "{} names vs {} dimensions",
                names.len(),
                widths_heights.len()
            )));
        }
        let n = names.len();
        if n == 0 {
            return Err(ThermalError::EmptyFloorplan);
        }
        let columns = (n as f64).sqrt().ceil() as usize;
        let cell_w = widths_heights
            .iter()
            .map(|&(w, _)| w)
            .fold(0.0_f64, f64::max)
            + spacing;
        let cell_h = widths_heights
            .iter()
            .map(|&(_, h)| h)
            .fold(0.0_f64, f64::max)
            + spacing;
        let blocks = names
            .iter()
            .zip(widths_heights.iter())
            .enumerate()
            .map(|(i, (name, &(w, h)))| {
                let col = i % columns;
                let row = i / columns;
                Block::new(name.clone(), col as f64 * cell_w, row as f64 * cell_h, w, h)
            })
            .collect();
        Floorplan::new(blocks)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// All blocks in index order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Returns the block at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownBlock`] for an out-of-range index.
    pub fn block(&self, index: usize) -> Result<&Block, ThermalError> {
        self.blocks
            .get(index)
            .ok_or(ThermalError::UnknownBlock(index))
    }

    /// Total silicon area, m².
    pub fn total_area(&self) -> f64 {
        self.blocks.iter().map(Block::area).sum()
    }

    /// Width and height of the bounding box enclosing all blocks, metres.
    pub fn bounding_box(&self) -> (f64, f64) {
        let min_x = self
            .blocks
            .iter()
            .map(|b| b.x)
            .fold(f64::INFINITY, f64::min);
        let min_y = self
            .blocks
            .iter()
            .map(|b| b.y)
            .fold(f64::INFINITY, f64::min);
        let max_x = self
            .blocks
            .iter()
            .map(|b| b.x + b.width)
            .fold(f64::NEG_INFINITY, f64::max);
        let max_y = self
            .blocks
            .iter()
            .map(|b| b.y + b.height)
            .fold(f64::NEG_INFINITY, f64::max);
        (max_x - min_x, max_y - min_y)
    }

    /// Area of the bounding box, m².
    pub fn bounding_area(&self) -> f64 {
        let (w, h) = self.bounding_box();
        w * h
    }

    /// Fraction of the bounding box covered by blocks, in `(0, 1]`.
    pub fn utilisation(&self) -> f64 {
        self.total_area() / self.bounding_area()
    }

    /// Length of the edge shared between blocks `a` and `b`, metres.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownBlock`] for out-of-range indices.
    pub fn shared_edge_length(&self, a: usize, b: usize) -> Result<f64, ThermalError> {
        Ok(self.block(a)?.shared_edge_length(self.block(b)?))
    }
}

impl fmt::Display for Floorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (w, h) = self.bounding_box();
        write!(
            f,
            "floorplan: {} blocks, {:.1}x{:.1} mm bounding box",
            self.blocks.len(),
            w * 1e3,
            h * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_geometry_helpers() {
        let b = Block::from_mm("b", 1.0, 2.0, 3.0, 4.0);
        assert!((b.area() - 12e-6).abs() < 1e-12);
        let (cx, cy) = b.center();
        assert!((cx - 2.5e-3).abs() < 1e-12);
        assert!((cy - 4.0e-3).abs() < 1e-12);
        assert!(b.to_string().contains("3.0x4.0mm"));
    }

    #[test]
    fn overlap_detection() {
        let a = Block::from_mm("a", 0.0, 0.0, 5.0, 5.0);
        let b = Block::from_mm("b", 4.0, 4.0, 5.0, 5.0);
        let c = Block::from_mm("c", 5.0, 0.0, 5.0, 5.0);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        // Touching blocks do not count as overlapping.
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn shared_edges_are_symmetric_and_zero_for_distant_blocks() {
        let a = Block::from_mm("a", 0.0, 0.0, 5.0, 5.0);
        let right = Block::from_mm("r", 5.0, 2.0, 5.0, 5.0);
        let above = Block::from_mm("u", 1.0, 5.0, 5.0, 5.0);
        let far = Block::from_mm("f", 20.0, 20.0, 5.0, 5.0);
        assert!((a.shared_edge_length(&right) - 3e-3).abs() < 1e-9);
        assert!((right.shared_edge_length(&a) - 3e-3).abs() < 1e-9);
        assert!((a.shared_edge_length(&above) - 4e-3).abs() < 1e-9);
        assert_eq!(a.shared_edge_length(&far), 0.0);
        // Corner contact only: shares no edge length.
        let corner = Block::from_mm("c", 5.0, 5.0, 5.0, 5.0);
        assert_eq!(a.shared_edge_length(&corner), 0.0);
    }

    #[test]
    fn floorplan_rejects_bad_inputs() {
        assert_eq!(
            Floorplan::new(vec![]).unwrap_err(),
            ThermalError::EmptyFloorplan
        );
        let degenerate = Block::from_mm("d", 0.0, 0.0, 0.0, 5.0);
        assert!(matches!(
            Floorplan::new(vec![degenerate]).unwrap_err(),
            ThermalError::DegenerateBlock { block: 0, .. }
        ));
        let a = Block::from_mm("a", 0.0, 0.0, 5.0, 5.0);
        let b = Block::from_mm("b", 1.0, 1.0, 5.0, 5.0);
        assert_eq!(
            Floorplan::new(vec![a, b]).unwrap_err(),
            ThermalError::OverlappingBlocks(0, 1)
        );
    }

    #[test]
    fn grid_layout_places_four_blocks_without_overlap() {
        let names: Vec<String> = (0..4).map(|i| format!("pe{i}")).collect();
        let dims = vec![(7e-3, 7e-3); 4];
        let plan = Floorplan::grid_layout(&names, &dims, 0.5e-3).unwrap();
        assert_eq!(plan.block_count(), 4);
        let (w, h) = plan.bounding_box();
        assert!(w < 16e-3 && h < 16e-3);
        assert!(plan.utilisation() > 0.5);
    }

    #[test]
    fn grid_layout_rejects_mismatched_inputs() {
        let names = vec!["a".to_string()];
        assert!(matches!(
            Floorplan::grid_layout(&names, &[], 0.0),
            Err(ThermalError::InvalidParameter(_))
        ));
        assert!(matches!(
            Floorplan::grid_layout(&[], &[], 0.0),
            Err(ThermalError::EmptyFloorplan)
        ));
    }

    #[test]
    fn bounding_box_and_areas() {
        let plan = Floorplan::new(vec![
            Block::from_mm("a", 0.0, 0.0, 4.0, 4.0),
            Block::from_mm("b", 6.0, 0.0, 4.0, 4.0),
        ])
        .unwrap();
        let (w, h) = plan.bounding_box();
        assert!((w - 10e-3).abs() < 1e-9);
        assert!((h - 4e-3).abs() < 1e-9);
        assert!((plan.total_area() - 32e-6).abs() < 1e-12);
        assert!((plan.utilisation() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn block_lookup_errors_out_of_range() {
        let plan = Floorplan::new(vec![Block::from_mm("a", 0.0, 0.0, 4.0, 4.0)]).unwrap();
        assert!(plan.block(0).is_ok());
        assert_eq!(plan.block(3).unwrap_err(), ThermalError::UnknownBlock(3));
        assert!(plan.shared_edge_length(0, 3).is_err());
    }
}
