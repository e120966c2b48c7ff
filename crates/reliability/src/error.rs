//! Error type of the reliability crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the reliability models.
#[derive(Debug, Clone, PartialEq)]
pub enum ReliabilityError {
    /// A numeric parameter was out of range or not finite.
    InvalidParameter(String),
    /// A temperature series was too short for the requested analysis.
    InsufficientSamples {
        /// Minimum number of samples required.
        required: usize,
        /// Number of samples supplied.
        actual: usize,
    },
}

impl fmt::Display for ReliabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReliabilityError::InvalidParameter(message) => {
                write!(f, "invalid parameter: {message}")
            }
            ReliabilityError::InsufficientSamples { required, actual } => write!(
                f,
                "temperature series has {actual} samples but at least {required} are required"
            ),
        }
    }
}

impl Error for ReliabilityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let error = ReliabilityError::InvalidParameter("activation energy".into());
        assert!(error.to_string().contains("activation energy"));
        let error = ReliabilityError::InsufficientSamples {
            required: 2,
            actual: 0,
        };
        assert!(error.to_string().contains("at least 2"));
    }
}
