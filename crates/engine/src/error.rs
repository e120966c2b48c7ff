//! Error type of the batch campaign engine.

use std::error::Error;
use std::fmt;

use tats_core::CoreError;
use tats_taskgraph::GraphError;
use tats_thermal::ThermalError;

/// Errors produced while enumerating or executing a campaign.
#[derive(Debug)]
pub enum EngineError {
    /// A scheduling/co-synthesis substrate error, tagged with the scenario
    /// key it occurred in (empty when outside any scenario).
    Core(CoreError),
    /// A task-graph generation error (seeded scenario variants).
    Graph(GraphError),
    /// A thermal-model error (grid validation, grid solver names).
    Thermal(ThermalError),
    /// An I/O error from the streaming result sink.
    Io(std::io::Error),
    /// A malformed campaign or executor parameter.
    InvalidParameter(String),
    /// A scenario failed; carries the scenario key and the failure text.
    Scenario {
        /// The stable key of the failing scenario.
        key: String,
        /// Rendered cause.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Graph(e) => write!(f, "task-graph error: {e}"),
            EngineError::Thermal(e) => write!(f, "thermal error: {e}"),
            EngineError::Io(e) => write!(f, "i/o error: {e}"),
            EngineError::InvalidParameter(message) => write!(f, "invalid parameter: {message}"),
            EngineError::Scenario { key, message } => {
                write!(f, "scenario '{key}' failed: {message}")
            }
        }
    }
}

impl Error for EngineError {}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<ThermalError> for EngineError {
    fn from(e: ThermalError) -> Self {
        EngineError::Thermal(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl EngineError {
    /// Tags an error with the scenario it occurred in.
    pub fn in_scenario(self, key: &str) -> EngineError {
        EngineError::Scenario {
            key: key.to_string(),
            message: self.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_scenario() {
        let error = EngineError::InvalidParameter("threads must be positive".to_string())
            .in_scenario("Bm1/platform/baseline/s0");
        let text = error.to_string();
        assert!(text.contains("Bm1/platform/baseline/s0"));
        assert!(text.contains("threads must be positive"));
    }
}
