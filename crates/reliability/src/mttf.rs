//! Per-PE and system-level lifetime estimation.
//!
//! The evaluation ties the wear-out mechanisms together: every processing
//! element sees a temperature (steady average or a transient trace), each
//! mechanism converts that temperature into a failure rate, the rates add
//! (exponential competing-risk model), and the system fails when its first
//! PE fails (series system).  Thermal-cycling damage from a transient trace
//! is folded in as an additional rate.

use tats_power::ThermalTrace;
use tats_thermal::Temperatures;

use crate::cycling::{count_cycles, CoffinManson};
use crate::error::ReliabilityError;
use crate::mechanisms::{standard_mechanisms, FailureMechanism};

/// Reliability summary of one processing element.
#[derive(Debug, Clone, PartialEq)]
pub struct PeReliability {
    /// Block index of the PE in the floorplan / architecture.
    pub block: usize,
    /// Temperature used for the steady mechanisms, °C.
    pub effective_temp_c: f64,
    /// Combined steady-mechanism MTTF, hours.
    pub steady_mttf_hours: f64,
    /// Thermal-cycling MTTF, hours (`f64::INFINITY` when no damaging cycles
    /// were seen or no trace was supplied).
    pub cycling_mttf_hours: f64,
    /// Overall MTTF (all mechanisms combined), hours.
    pub mttf_hours: f64,
}

/// Reliability summary of a whole architecture under one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReliability {
    per_pe: Vec<PeReliability>,
}

impl SystemReliability {
    /// Number of PEs evaluated.
    pub fn pe_count(&self) -> usize {
        self.per_pe.len()
    }

    /// MTTF of the weakest PE (series-system lifetime proxy), hours.
    pub fn worst_mttf_hours(&self) -> f64 {
        self.per_pe
            .iter()
            .map(|pe| pe.mttf_hours)
            .fold(f64::INFINITY, f64::min)
    }

    /// Series-system MTTF under the exponential competing-risk model: the
    /// reciprocal of the summed per-PE failure rates, hours.
    pub fn system_mttf_hours(&self) -> f64 {
        let total_rate: f64 = self
            .per_pe
            .iter()
            .map(|pe| {
                if pe.mttf_hours.is_finite() && pe.mttf_hours > 0.0 {
                    1.0 / pe.mttf_hours
                } else {
                    0.0
                }
            })
            .sum();
        if total_rate <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / total_rate
        }
    }

    /// The block index of the PE with the shortest lifetime.
    pub fn weakest_pe(&self) -> usize {
        self.per_pe
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.mttf_hours
                    .partial_cmp(&b.1.mttf_hours)
                    .expect("MTTFs are not NaN")
            })
            .map(|(index, _)| index)
            .unwrap_or(0)
    }
}

/// Configurable lifetime estimator.
pub struct ReliabilityAnalyzer {
    mechanisms: Vec<Box<dyn FailureMechanism + Send + Sync>>,
    cycling: CoffinManson,
    /// Duration of one schedule period in hours (used to convert per-period
    /// cycling damage into a rate).
    period_hours: f64,
}

impl std::fmt::Debug for ReliabilityAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliabilityAnalyzer")
            .field(
                "mechanisms",
                &self
                    .mechanisms
                    .iter()
                    .map(|m| m.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("cycling", &self.cycling)
            .field("period_hours", &self.period_hours)
            .finish()
    }
}

impl ReliabilityAnalyzer {
    /// Creates an analyzer with the standard mechanism set, the standard
    /// Coffin–Manson model and a one-hour schedule period.
    pub fn new() -> Self {
        ReliabilityAnalyzer {
            mechanisms: standard_mechanisms(),
            cycling: CoffinManson::standard(),
            period_hours: 1.0,
        }
    }

    /// Replaces the steady-temperature mechanism set.
    pub fn with_mechanisms(
        mut self,
        mechanisms: Vec<Box<dyn FailureMechanism + Send + Sync>>,
    ) -> Self {
        self.mechanisms = mechanisms;
        self
    }

    /// Sets how long one execution of the schedule takes in wall-clock hours
    /// (the schedule repeats back-to-back for the cycling-rate conversion).
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::InvalidParameter`] for a non-positive
    /// period.
    pub fn with_period_hours(mut self, period_hours: f64) -> Result<Self, ReliabilityError> {
        if !period_hours.is_finite() || period_hours <= 0.0 {
            return Err(ReliabilityError::InvalidParameter(format!(
                "schedule period must be positive, got {period_hours}"
            )));
        }
        self.period_hours = period_hours;
        Ok(self)
    }

    /// Evaluates per-PE and system reliability from steady block
    /// temperatures (no cycling contribution).
    ///
    /// # Errors
    ///
    /// Propagates mechanism evaluation errors.
    pub fn from_steady_temperatures(
        &self,
        temperatures: &Temperatures,
    ) -> Result<SystemReliability, ReliabilityError> {
        let mut per_pe = Vec::with_capacity(temperatures.block_count());
        for block in 0..temperatures.block_count() {
            let temp = temperatures
                .block(block)
                .map_err(|_| ReliabilityError::InvalidParameter(format!("no block {block}")))?;
            per_pe.push(self.evaluate_pe(block, temp, None)?);
        }
        Ok(SystemReliability { per_pe })
    }

    /// Evaluates per-PE and system reliability from a transient thermal
    /// trace; steady mechanisms use each block's time-average temperature
    /// and thermal cycling uses the block's temperature swing history.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::InsufficientSamples`] for traces with
    /// fewer than two samples and propagates mechanism errors.
    pub fn from_trace(&self, trace: &ThermalTrace) -> Result<SystemReliability, ReliabilityError> {
        if trace.len() < 2 {
            return Err(ReliabilityError::InsufficientSamples {
                required: 2,
                actual: trace.len(),
            });
        }
        let block_count = trace.samples()[0].block_count();
        let mut per_pe = Vec::with_capacity(block_count);
        for block in 0..block_count {
            let series = trace
                .block_series(block)
                .map_err(|_| ReliabilityError::InvalidParameter(format!("no block {block}")))?;
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            per_pe.push(self.evaluate_pe(block, mean, Some(&series))?);
        }
        Ok(SystemReliability { per_pe })
    }

    fn evaluate_pe(
        &self,
        block: usize,
        effective_temp_c: f64,
        series: Option<&[f64]>,
    ) -> Result<PeReliability, ReliabilityError> {
        let mut steady_rate = 0.0;
        for mechanism in &self.mechanisms {
            steady_rate += mechanism.failure_rate(effective_temp_c)?;
        }
        let steady_mttf_hours = if steady_rate > 0.0 {
            1.0 / steady_rate
        } else {
            f64::INFINITY
        };

        let cycling_mttf_hours = match series {
            Some(series) if series.len() >= 2 => {
                let cycles = count_cycles(series)?;
                let repetitions = self.cycling.repetitions_to_failure(&cycles);
                if repetitions.is_finite() {
                    repetitions * self.period_hours
                } else {
                    f64::INFINITY
                }
            }
            _ => f64::INFINITY,
        };

        let mut total_rate = 0.0;
        if steady_mttf_hours.is_finite() {
            total_rate += 1.0 / steady_mttf_hours;
        }
        if cycling_mttf_hours.is_finite() {
            total_rate += 1.0 / cycling_mttf_hours;
        }
        let mttf_hours = if total_rate > 0.0 {
            1.0 / total_rate
        } else {
            f64::INFINITY
        };

        Ok(PeReliability {
            block,
            effective_temp_c,
            steady_mttf_hours,
            cycling_mttf_hours,
            mttf_hours,
        })
    }
}

impl Default for ReliabilityAnalyzer {
    fn default() -> Self {
        ReliabilityAnalyzer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::Electromigration;

    #[test]
    fn hotter_steady_temperatures_shorten_the_lifetime() {
        let analyzer = ReliabilityAnalyzer::new();
        let cool = analyzer
            .from_steady_temperatures(&Temperatures::uniform(4, 60.0))
            .expect("cool");
        let hot = analyzer
            .from_steady_temperatures(&Temperatures::uniform(4, 95.0))
            .expect("hot");
        assert!(hot.system_mttf_hours() < cool.system_mttf_hours());
        assert!(hot.worst_mttf_hours() < cool.worst_mttf_hours());
        assert_eq!(cool.pe_count(), 4);
    }

    #[test]
    fn uneven_temperatures_identify_the_weakest_pe() {
        let analyzer = ReliabilityAnalyzer::new();
        let temps = Temperatures::uniform(3, 60.0);
        // Build an uneven field by re-deriving from raw values.
        let uneven = Temperatures::uniform(3, 60.0);
        let system = analyzer.from_steady_temperatures(&uneven).expect("system");
        // All equal: weakest is simply the first index.
        assert_eq!(system.weakest_pe(), 0);
        let system = analyzer.from_steady_temperatures(&temps).expect("system");
        assert!(system.system_mttf_hours() <= system.worst_mttf_hours());
    }

    #[test]
    fn system_mttf_is_below_the_worst_pe_mttf() {
        let analyzer = ReliabilityAnalyzer::new();
        let system = analyzer
            .from_steady_temperatures(&Temperatures::uniform(4, 80.0))
            .expect("system");
        assert!(system.system_mttf_hours() <= system.worst_mttf_hours() + 1e-9);
        // Four identical PEs: the series system is four times as likely to
        // fail as any single PE.
        let ratio = system.worst_mttf_hours() / system.system_mttf_hours();
        assert!((ratio - 4.0).abs() < 1e-6);
    }

    #[test]
    fn single_mechanism_analyzer_matches_the_mechanism_directly() {
        let em = Electromigration::standard();
        let expected = em.mttf_hours(85.0).expect("valid");
        let analyzer = ReliabilityAnalyzer::new()
            .with_mechanisms(vec![Box::new(Electromigration::standard())]);
        let system = analyzer
            .from_steady_temperatures(&Temperatures::uniform(1, 85.0))
            .expect("system");
        assert!((system.worst_mttf_hours() - expected).abs() < 1e-6);
    }

    #[test]
    fn period_validation_rejects_nonsense() {
        assert!(ReliabilityAnalyzer::new().with_period_hours(0.0).is_err());
        assert!(ReliabilityAnalyzer::new().with_period_hours(-2.0).is_err());
        assert!(ReliabilityAnalyzer::new().with_period_hours(0.5).is_ok());
    }

    #[test]
    fn debug_lists_mechanism_names() {
        let analyzer = ReliabilityAnalyzer::new();
        let text = format!("{analyzer:?}");
        assert!(text.contains("electromigration"));
    }
}
