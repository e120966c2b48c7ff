//! What a design-flow run hands back: its [`FlowResult`] and, from the
//! `*_timed` entry points, a wall-clock [`FlowPhases`] breakdown.
//!
//! The batch engine and the campaign service want to know where a scenario's
//! time goes — scheduling inquiries, thermal model work, floorplanning — not
//! just the end-to-end wall clock. The flows accumulate a [`FlowPhases`]
//! alongside their result; timing is purely observational and never
//! influences the computed result.

use std::time::Duration;

use tats_techlib::Architecture;
use tats_thermal::Floorplan;

use crate::metrics::ScheduleEvaluation;
use crate::schedule::Schedule;

/// The result of one flow run under one policy: the platform flow's and
/// co-synthesis's alike.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// The architecture the schedule runs on: the fixed platform, or the one
    /// co-synthesis allocated.
    pub architecture: Architecture,
    /// The floorplan the schedule was evaluated on: the platform's grid, or
    /// the genetic floorplanner's placement.
    pub floorplan: Floorplan,
    /// The final schedule.
    pub schedule: Schedule,
    /// The table metrics of the final schedule.
    pub evaluation: ScheduleEvaluation,
}

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
