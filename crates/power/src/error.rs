//! Error type of the power-modelling crate.

use std::error::Error;
use std::fmt;

use tats_core::CoreError;
use tats_techlib::LibraryError;
use tats_thermal::ThermalError;

/// Errors produced by the power-modelling crate.
#[derive(Debug)]
pub enum PowerError {
    /// A numeric parameter was out of range or not finite.
    InvalidParameter(String),
    /// A vector argument did not have the expected length.
    LengthMismatch {
        /// Expected number of entries.
        expected: usize,
        /// Number of entries supplied.
        actual: usize,
    },
    /// Error propagated from the thermal model.
    Thermal(ThermalError),
    /// Error propagated from the technology library.
    Library(LibraryError),
    /// Error propagated from the scheduling core.
    Core(CoreError),
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidParameter(message) => {
                write!(f, "invalid parameter: {message}")
            }
            PowerError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} entries, got {actual}")
            }
            PowerError::Thermal(source) => write!(f, "thermal model error: {source}"),
            PowerError::Library(source) => write!(f, "technology library error: {source}"),
            PowerError::Core(source) => write!(f, "scheduling core error: {source}"),
        }
    }
}

impl Error for PowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PowerError::Thermal(source) => Some(source),
            PowerError::Library(source) => Some(source),
            PowerError::Core(source) => Some(source),
            _ => None,
        }
    }
}

impl From<ThermalError> for PowerError {
    fn from(source: ThermalError) -> Self {
        PowerError::Thermal(source)
    }
}

impl From<LibraryError> for PowerError {
    fn from(source: LibraryError) -> Self {
        PowerError::Library(source)
    }
}

impl From<CoreError> for PowerError {
    fn from(source: CoreError) -> Self {
        PowerError::Core(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameter_message() {
        let error = PowerError::InvalidParameter("voltage must be positive".into());
        assert!(error.to_string().contains("voltage must be positive"));
    }

    #[test]
    fn display_mentions_lengths() {
        let error = PowerError::LengthMismatch {
            expected: 4,
            actual: 2,
        };
        let text = error.to_string();
        assert!(text.contains('4') && text.contains('2'));
    }

    #[test]
    fn thermal_error_converts() {
        let source = ThermalError::InvalidParameter("bad".into());
        let error: PowerError = source.into();
        assert!(matches!(error, PowerError::Thermal(_)));
        assert!(error.source().is_some());
    }
}
