//! Ready-made libraries and architectures used by the experiments.
//!
//! All experiment drivers (Tables 1–3, the campaigns and the examples) share
//! the same deterministic technology library so that results are directly
//! comparable across policies and flows.

use crate::architecture::Architecture;
use crate::error::LibraryError;
use crate::generator::LibraryGenerator;
use crate::library::TechLibrary;
use crate::pe::{PeClass, PeTypeId};

/// Seed of the standard experiment library.
pub const STANDARD_LIBRARY_SEED: u64 = 0xDA7E_2005;

/// Number of identical PEs in the paper's platform-based architecture.
pub const PLATFORM_PE_COUNT: usize = 4;

/// Builds the standard deterministic technology library covering
/// `task_type_count` task types.
///
/// The library contains two fast GPPs, two slow GPPs, one DSP and one
/// accelerator, generated with a fixed seed (see
/// [`STANDARD_LIBRARY_SEED`]).
///
/// # Errors
///
/// Returns [`LibraryError::InvalidParameter`] when `task_type_count` is zero.
///
/// # Examples
///
/// ```
/// use tats_techlib::profiles;
///
/// # fn main() -> Result<(), tats_techlib::LibraryError> {
/// let library = profiles::standard_library(10)?;
/// assert_eq!(library.pe_type_count(), 6);
/// # Ok(())
/// # }
/// ```
pub fn standard_library(task_type_count: usize) -> Result<TechLibrary, LibraryError> {
    LibraryGenerator::new(task_type_count)
        .with_seed(STANDARD_LIBRARY_SEED)
        .generate()
}

/// Returns the PE type used for the platform-based architecture: the first
/// fast general-purpose processor of the library.
///
/// The paper's platform experiments use "four identical PEs"; a fast GPP
/// guarantees the deadline can be met on every benchmark, leaving the choice
/// of *where* to place each task to the scheduling policy under test.
///
/// # Errors
///
/// Returns [`LibraryError::NoPeTypes`] if the library contains no fast GPP.
pub fn platform_pe_type(library: &TechLibrary) -> Result<PeTypeId, LibraryError> {
    library
        .pe_types()
        .iter()
        .find(|t| t.class() == PeClass::GppFast)
        .map(|t| t.id())
        .ok_or(LibraryError::NoPeTypes)
}

/// Builds the paper's platform-based architecture: [`PLATFORM_PE_COUNT`]
/// identical instances of [`platform_pe_type`].
///
/// # Errors
///
/// Propagates [`platform_pe_type`] errors.
pub fn platform_architecture(library: &TechLibrary) -> Result<Architecture, LibraryError> {
    let pe_type = platform_pe_type(library)?;
    Ok(Architecture::platform(
        "platform-4xGPP",
        pe_type,
        PLATFORM_PE_COUNT,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_is_deterministic() {
        assert_eq!(standard_library(10).unwrap(), standard_library(10).unwrap());
    }

    #[test]
    fn standard_library_has_six_pe_types() {
        let lib = standard_library(10).unwrap();
        assert_eq!(lib.pe_type_count(), 6);
        assert_eq!(lib.task_type_count(), 10);
    }

    #[test]
    fn platform_pe_type_is_a_fast_gpp() {
        let lib = standard_library(10).unwrap();
        let pe_type = platform_pe_type(&lib).unwrap();
        assert_eq!(lib.pe_type(pe_type).unwrap().class(), PeClass::GppFast);
    }

    #[test]
    fn platform_architecture_has_four_identical_pes() {
        let lib = standard_library(10).unwrap();
        let arch = platform_architecture(&lib).unwrap();
        assert_eq!(arch.pe_count(), PLATFORM_PE_COUNT);
        let first = arch.instances()[0].type_id();
        assert!(arch.instances().iter().all(|i| i.type_id() == first));
        assert!(arch.validate(&lib).is_ok());
    }

    #[test]
    fn zero_task_types_is_rejected() {
        assert!(standard_library(0).is_err());
    }
}
