//! Scheduling policies: baseline, the three power heuristics and the
//! thermal-aware policy.

use std::fmt;

/// The three power heuristics of Section 2.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerHeuristic {
    /// Heuristic 1: minimise the power consumption of the current task
    /// (its WCPC on the candidate PE).
    MinTaskPower,
    /// Heuristic 2: minimise the cumulative average power of the candidate
    /// processing element (energy accumulated so far plus the candidate
    /// task's energy, divided by the candidate finish time).
    MinCumulativeAveragePower,
    /// Heuristic 3: minimise the energy of the current task
    /// (`WCET × WCPC` on the candidate PE).
    MinTaskEnergy,
}

impl PowerHeuristic {
    /// All heuristics in the paper's numbering order.
    pub const ALL: [PowerHeuristic; 3] = [
        PowerHeuristic::MinTaskPower,
        PowerHeuristic::MinCumulativeAveragePower,
        PowerHeuristic::MinTaskEnergy,
    ];

    /// The paper's 1-based heuristic number.
    pub fn number(self) -> usize {
        match self {
            PowerHeuristic::MinTaskPower => 1,
            PowerHeuristic::MinCumulativeAveragePower => 2,
            PowerHeuristic::MinTaskEnergy => 3,
        }
    }
}

impl fmt::Display for PowerHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Heuristic {}", self.number())
    }
}

/// The scheduling policy plugged into the dynamic-criticality computation.
///
/// The dynamic criticality of assigning task `i` to PE `j` is
///
/// ```text
/// DC(task_i, PE_j) = SC(task_i)
///                  - WCET(task_i, PE_j)
///                  - max(avail(PE_j), ready(task_i))
///                  - cost_term(policy, task_i, PE_j)
/// ```
///
/// where the `cost_term` is zero for the baseline, one of the power terms for
/// the power-aware policies, and for the thermal-aware policy the rise above
/// ambient of the [`ThermalObjective`] score of the block temperatures the
/// thermal model predicts (by default [`ThermalObjective::Blended`]), times
/// the ASP's temperature weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Performance-only list scheduling (no fourth term); the first row of
    /// every benchmark group in Table 1.
    Baseline,
    /// Power-aware scheduling with the selected heuristic.
    PowerAware(PowerHeuristic),
    /// Thermal-aware scheduling: the fourth term is the predicted rise above
    /// ambient of the [`ThermalObjective`] score of the PEs' temperatures
    /// (by default [`ThermalObjective::Blended`], the mean of their average
    /// and peak).
    ThermalAware,
}

impl Policy {
    /// All policies evaluated by the paper, in table order.
    pub const ALL: [Policy; 5] = [
        Policy::Baseline,
        Policy::PowerAware(PowerHeuristic::MinTaskPower),
        Policy::PowerAware(PowerHeuristic::MinCumulativeAveragePower),
        Policy::PowerAware(PowerHeuristic::MinTaskEnergy),
        Policy::ThermalAware,
    ];

    /// Returns `true` if this policy needs a thermal model during scheduling.
    pub fn needs_thermal_model(self) -> bool {
        matches!(self, Policy::ThermalAware)
    }

    /// Short label used in table output.
    pub fn label(self) -> String {
        match self {
            Policy::Baseline => "Baseline".to_string(),
            Policy::PowerAware(h) => h.to_string(),
            Policy::ThermalAware => "Thermal-aware".to_string(),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which statistic of the thermal model's temperature field the thermal-aware
/// policy minimises.
///
/// The paper averages the temperatures returned by HotSpot. With a linear RC
/// model and a *perfectly symmetric* floorplan (such as the synthetic 2×2
/// platform used here), the average block temperature is mathematically
/// independent of which block receives the next task, so a pure-average
/// objective loses its placement sensitivity. Real HotSpot floorplans are
/// asymmetric enough to avoid the degeneracy; to preserve the paper's
/// intended behaviour ("reduce the peak temperature and achieve a thermally
/// even distribution") the default objective blends the average with the
/// predicted peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThermalObjective {
    /// Minimise the mean block temperature (the paper's literal wording).
    Average,
    /// Minimise the hottest block temperature.
    Peak,
    /// Minimise the mean of the average and peak temperatures (default).
    #[default]
    Blended,
}

impl ThermalObjective {
    /// All objectives.
    pub const ALL: [ThermalObjective; 3] = [
        ThermalObjective::Average,
        ThermalObjective::Peak,
        ThermalObjective::Blended,
    ];

    /// Reduces block temperatures (°C) to the scalar this objective
    /// minimises, with the arithmetic of
    /// [`Temperatures::average_c`](tats_thermal::Temperatures::average_c) and
    /// [`Temperatures::max_c`](tats_thermal::Temperatures::max_c).
    pub fn score(self, block_c: &[f64]) -> f64 {
        let average = || block_c.iter().sum::<f64>() / block_c.len() as f64;
        let max = || block_c.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        match self {
            ThermalObjective::Average => average(),
            ThermalObjective::Peak => max(),
            ThermalObjective::Blended => 0.5 * (average() + max()),
        }
    }
}

impl fmt::Display for ThermalObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ThermalObjective::Average => "average-temperature",
            ThermalObjective::Peak => "peak-temperature",
            ThermalObjective::Blended => "blended-temperature",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_numbers_match_the_paper() {
        assert_eq!(PowerHeuristic::MinTaskPower.number(), 1);
        assert_eq!(PowerHeuristic::MinCumulativeAveragePower.number(), 2);
        assert_eq!(PowerHeuristic::MinTaskEnergy.number(), 3);
        assert_eq!(PowerHeuristic::ALL.len(), 3);
    }

    #[test]
    fn only_the_thermal_policy_needs_the_thermal_model() {
        assert!(!Policy::Baseline.needs_thermal_model());
        for h in PowerHeuristic::ALL {
            assert!(!Policy::PowerAware(h).needs_thermal_model());
        }
        assert!(Policy::ThermalAware.needs_thermal_model());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> =
            Policy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Policy::ALL.len());
        assert_eq!(
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy).to_string(),
            "Heuristic 3"
        );
    }

    #[test]
    fn thermal_objectives_score_temperature_fields_as_documented() {
        for objective in ThermalObjective::ALL {
            assert_eq!(objective.score(&[50.0; 3]), 50.0);
        }
        let temps = [40.0, 60.0, 50.0];
        assert_eq!(ThermalObjective::Average.score(&temps), 50.0);
        assert_eq!(ThermalObjective::Peak.score(&temps), 60.0);
        assert_eq!(ThermalObjective::Blended.score(&temps), 55.0);
        assert_eq!(ThermalObjective::default(), ThermalObjective::Blended);
        assert_eq!(ThermalObjective::Peak.to_string(), "peak-temperature");
    }
}
