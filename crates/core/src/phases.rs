//! Wall-clock phase breakdown of a design-flow run.
//!
//! The batch engine and the campaign service want to know where a scenario's
//! time goes — scheduling inquiries, thermal model work, floorplanning — not
//! just the end-to-end wall clock. The flows accumulate a [`FlowPhases`]
//! alongside their result (the `*_timed` entry points); timing is purely
//! observational and never influences the computed result.

use std::time::Duration;

/// Wall-clock time spent in each phase of one flow run.
///
/// The phases partition the interesting work of a flow:
///
/// * `scheduling` — ASP runs: allocation/pruning trials, back-off passes and
///   the final scheduling pass (for the thermal-aware policy this includes
///   the thermal inquiries issued from inside the scheduler);
/// * `thermal` — explicit thermal model work outside the scheduler: cache
///   lookups / RC factorisation and the final schedule evaluation;
/// * `floorplan` — the thermal-aware floorplanner (co-synthesis only).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowPhases {
    /// Time spent in ASP scheduling passes.
    pub scheduling: Duration,
    /// Time spent building/evaluating thermal models outside the scheduler.
    pub thermal: Duration,
    /// Time spent in the floorplanner.
    pub floorplan: Duration,
}
