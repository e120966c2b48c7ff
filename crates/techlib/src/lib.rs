//! Technology-library substrate for thermal-aware co-synthesis.
//!
//! The allocation and scheduling procedure (ASP) of *Hung et al., DATE 2005*
//! consults a *technology library* that stores, for every task type and every
//! processing-element (PE) type, the worst-case execution time (WCET) and the
//! worst-case power consumption (WCPC). This crate provides:
//!
//! * [`TechLibrary`] / [`TechLibraryBuilder`] — the WCET/WCPC tables plus the
//!   PE-type catalogue (geometry, cost, idle power),
//! * [`Architecture`] — a concrete set of PE instances (platform-based or
//!   produced by co-synthesis),
//! * [`LibraryGenerator`] and [`profiles`] — seeded synthetic libraries and
//!   the standard experiment configuration.
//!
//! # Examples
//!
//! ```
//! use tats_techlib::{profiles, PeId};
//!
//! # fn main() -> Result<(), tats_techlib::LibraryError> {
//! let library = profiles::standard_library(10)?;
//! let platform = profiles::platform_architecture(&library)?;
//!
//! // The energy of task type 3 on the first platform PE is WCET x WCPC.
//! let pe_type = platform.pe_type_of(PeId(0))?;
//! let wcet = library.wcet(3, pe_type)?;
//! let wcpc = library.wcpc(3, pe_type)?;
//! assert_eq!(library.energy(3, pe_type)?, wcet * wcpc);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod architecture;
mod error;
mod generator;
mod library;
mod pe;
pub mod profiles;

pub use architecture::Architecture;
pub use error::LibraryError;
pub use generator::{ClassMix, LibraryGenerator};
pub use library::{TechLibrary, TechLibraryBuilder};
pub use pe::{PeClass, PeId, PeInstance, PeType, PeTypeId};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Energy is always the product of the WCET and WCPC table entries,
        /// and the most efficient PE type indeed minimises it.
        #[test]
        fn most_efficient_pe_minimises_energy(
            task_types in 1usize..12,
            seed in any::<u64>()
        ) {
            let lib = LibraryGenerator::new(task_types).with_seed(seed).generate().unwrap();
            for tt in 0..lib.task_type_count() {
                let best = lib.most_efficient_pe_type(tt).unwrap();
                let best_energy = lib.energy(tt, best).unwrap();
                for pe in 0..lib.pe_type_count() {
                    let pe = PeTypeId(pe);
                    let e = lib.energy(tt, pe).unwrap();
                    prop_assert!(best_energy <= e + 1e-12);
                    prop_assert!(
                        (e - lib.wcet(tt, pe).unwrap() * lib.wcpc(tt, pe).unwrap()).abs() < 1e-12
                    );
                }
            }
        }
    }
}
