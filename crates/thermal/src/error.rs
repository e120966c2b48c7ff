//! Error types for the compact thermal model.

use std::fmt;

/// Errors produced while building floorplans or solving thermal networks.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A block index was out of range for the floorplan.
    UnknownBlock(usize),
    /// The floorplan contains no blocks.
    EmptyFloorplan,
    /// A block has non-positive width or height.
    DegenerateBlock {
        /// Index of the offending block.
        block: usize,
        /// Offending width in metres.
        width: f64,
        /// Offending height in metres.
        height: f64,
    },
    /// Two blocks overlap geometrically.
    OverlappingBlocks(usize, usize),
    /// The power vector length does not match the number of blocks.
    PowerLengthMismatch {
        /// Number of blocks in the model.
        expected: usize,
        /// Number of power entries supplied.
        actual: usize,
    },
    /// A power entry was negative or non-finite.
    InvalidPower(usize, f64),
    /// The linear system was singular or numerically unsolvable.
    SingularSystem,
    /// A configuration or solver parameter was out of its valid range.
    InvalidParameter(String),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::UnknownBlock(i) => write!(f, "unknown block index {i}"),
            ThermalError::EmptyFloorplan => write!(f, "floorplan has no blocks"),
            ThermalError::DegenerateBlock {
                block,
                width,
                height,
            } => write!(
                f,
                "block {block} has degenerate dimensions {width} x {height}"
            ),
            ThermalError::OverlappingBlocks(a, b) => {
                write!(f, "blocks {a} and {b} overlap")
            }
            ThermalError::PowerLengthMismatch { expected, actual } => {
                write!(f, "expected {expected} power entries, got {actual}")
            }
            ThermalError::InvalidPower(i, p) => {
                write!(
                    f,
                    "power of block {i} must be non-negative and finite, got {p}"
                )
            }
            ThermalError::SingularSystem => write!(f, "thermal network is singular"),
            ThermalError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for ThermalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_have_nonempty_messages() {
        let errors = vec![
            ThermalError::UnknownBlock(1),
            ThermalError::EmptyFloorplan,
            ThermalError::DegenerateBlock {
                block: 0,
                width: 0.0,
                height: 1.0,
            },
            ThermalError::OverlappingBlocks(0, 1),
            ThermalError::PowerLengthMismatch {
                expected: 4,
                actual: 2,
            },
            ThermalError::InvalidPower(3, f64::NAN),
            ThermalError::SingularSystem,
            ThermalError::InvalidParameter("bad".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync>() {}
        assert_bounds::<ThermalError>();
    }
}
