//! Umbrella crate re-exporting the thermal-aware task scheduling suite.
//!
//! See the individual crates for details:
//! [`tats_core`], [`tats_taskgraph`], [`tats_techlib`], [`tats_thermal`],
//! [`tats_floorplan`], [`tats_power`], [`tats_trace`], [`tats_engine`].

pub use tats_core as core;
pub use tats_engine as engine;
pub use tats_floorplan as floorplan;
pub use tats_power as power;
pub use tats_taskgraph as taskgraph;
pub use tats_techlib as techlib;
pub use tats_thermal as thermal;
pub use tats_trace as trace;
