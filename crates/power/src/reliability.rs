//! Per-PE and system-level lifetime estimation.
//!
//! The DATE 2005 paper motivates thermal-aware scheduling by reliability:
//! "at sufficiently high temperatures, many failure mechanisms (such as
//! electromigration and stress migration) are significantly accelerated".
//! This module quantifies that argument with the lifetime model of
//! Srinivasan et al. ("The Case for Lifetime Reliability-Aware
//! Microprocessors", ISCA 2004): every processing element sees a
//! temperature (steady, or the mean of a transient trace), each wear-out
//! mechanism converts it into a failure rate through its Arrhenius
//! lifetime, the rates add (exponential competing-risk model), thermal
//! cycling adds a Coffin–Manson rate, and the system fails when its first
//! PE fails (series system).

use tats_thermal::Temperatures;

use crate::cycling::{count_cycles, CoffinManson};
use crate::error::PowerError;
use crate::simulate::ThermalTrace;

/// Boltzmann constant in electron-volts per kelvin.
const BOLTZMANN_EV_PER_K: f64 = 8.617_333_262e-5;

/// The junction temperature every mechanism's lifetime is qualified at, °C.
const QUALIFICATION_TEMP_C: f64 = 55.0;

/// How long one execution of the schedule takes, in hours. The schedule
/// repeats back to back, so a trace's cycling damage recurs once per
/// period.
const PERIOD_HOURS: f64 = 1.0;

/// A steady-temperature wear-out mechanism with an Arrhenius lifetime: its
/// failure rate is proportional to `exp(−Ea / (k·T))`, with `T` the
/// absolute junction temperature and `Ea` the activation energy.
///
/// The mechanisms differ also in non-thermal stress terms (current density
/// for electromigration, field for dielectric breakdown). Those are folded
/// into the qualified lifetime, because the scheduler moves only
/// temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mechanism {
    /// Short human-readable name, e.g. `"electromigration"`.
    pub name: &'static str,
    /// Activation energy `Ea`, eV.
    pub activation_energy_ev: f64,
    /// Mean time to failure at the 55 °C qualification point, hours.
    pub qualified_mttf_hours: f64,
}

/// The steady-temperature mechanisms every PE's lifetime sums: the two the
/// paper names and gate-oxide breakdown, each qualified at 55 °C.
pub const MECHANISMS: [Mechanism; 3] = [
    // Black's equation, temperature part: 10 years, Ea = 0.7 eV.
    Mechanism {
        name: "electromigration",
        activation_energy_ev: 0.7,
        qualified_mttf_hours: 10.0 * 365.25 * 24.0,
    },
    // Stress relaxation in vias: 12 years, Ea = 0.9 eV.
    Mechanism {
        name: "stress-migration",
        activation_energy_ev: 0.9,
        qualified_mttf_hours: 12.0 * 365.25 * 24.0,
    },
    // Time-dependent dielectric breakdown: 15 years, Ea = 0.75 eV.
    Mechanism {
        name: "dielectric-breakdown",
        activation_energy_ev: 0.75,
        qualified_mttf_hours: 15.0 * 365.25 * 24.0,
    },
];

impl Mechanism {
    /// Mean time to failure at the given junction temperature, hours: the
    /// qualified lifetime divided by the Arrhenius acceleration from 55 °C.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a temperature that is
    /// not finite or not above absolute zero.
    pub fn mttf_hours(&self, temperature_c: f64) -> Result<f64, PowerError> {
        if !temperature_c.is_finite() {
            return Err(PowerError::InvalidParameter(
                "temperatures must be finite".into(),
            ));
        }
        let stress_k = temperature_c + 273.15;
        if stress_k <= 0.0 {
            return Err(PowerError::InvalidParameter(
                "temperatures must be above absolute zero".into(),
            ));
        }
        let reference_k = QUALIFICATION_TEMP_C + 273.15;
        let exponent =
            (self.activation_energy_ev / BOLTZMANN_EV_PER_K) * (1.0 / reference_k - 1.0 / stress_k);
        Ok(self.qualified_mttf_hours / exponent.exp())
    }
}

/// Reliability summary of a whole architecture under one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReliability {
    /// Each PE's MTTF with every mechanism combined, hours, in block order.
    per_pe: Vec<f64>,
}

impl SystemReliability {
    /// Number of PEs evaluated.
    pub fn pe_count(&self) -> usize {
        self.per_pe.len()
    }

    /// MTTF of the weakest PE (series-system lifetime proxy), hours.
    pub fn worst_mttf_hours(&self) -> f64 {
        self.per_pe.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Series-system MTTF under the exponential competing-risk model: the
    /// reciprocal of the summed per-PE failure rates, hours. A PE that
    /// never fails adds a zero rate, and a system of none never fails.
    pub fn system_mttf_hours(&self) -> f64 {
        // Folded from +0.0: `Sum` starts at −0.0, whose reciprocal is −∞.
        1.0 / self
            .per_pe
            .iter()
            .fold(0.0, |rate, &mttf| rate + 1.0 / mttf)
    }

    /// The block index of the PE with the shortest lifetime.
    pub fn weakest_pe(&self) -> usize {
        self.per_pe
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("MTTFs are not NaN"))
            .map(|(index, _)| index)
            .unwrap_or(0)
    }
}

/// Lifetime estimator over the [`MECHANISMS`] table, the standard
/// [`CoffinManson`] model and a one-hour schedule period.
///
/// # Examples
///
/// Compare the lifetime implied by two steady temperature fields:
///
/// ```
/// use tats_power::ReliabilityAnalyzer;
/// use tats_thermal::Temperatures;
///
/// # fn main() -> Result<(), tats_power::PowerError> {
/// let analyzer = ReliabilityAnalyzer::new();
/// let power_aware = analyzer.from_steady_temperatures(&Temperatures::uniform(4, 96.0))?;
/// let thermal_aware = analyzer.from_steady_temperatures(&Temperatures::uniform(4, 86.0))?;
/// assert!(thermal_aware.system_mttf_hours() > power_aware.system_mttf_hours());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliabilityAnalyzer;

impl ReliabilityAnalyzer {
    /// Creates the analyzer.
    pub fn new() -> Self {
        ReliabilityAnalyzer
    }

    /// Evaluates per-PE and system reliability from steady block
    /// temperatures (no cycling contribution).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a non-physical block
    /// temperature.
    pub fn from_steady_temperatures(
        &self,
        temperatures: &Temperatures,
    ) -> Result<SystemReliability, PowerError> {
        let per_pe = temperatures
            .blocks()
            .iter()
            .map(|&temp| pe_mttf_hours(temp, None))
            .collect::<Result<_, _>>()?;
        Ok(SystemReliability { per_pe })
    }

    /// Evaluates per-PE and system reliability from a transient thermal
    /// trace; steady mechanisms use each block's time-average temperature
    /// and thermal cycling uses the block's temperature swing history.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InsufficientSamples`] for traces with fewer
    /// than two samples and [`PowerError::InvalidParameter`] for a
    /// non-physical mean temperature.
    pub fn from_trace(&self, trace: &ThermalTrace) -> Result<SystemReliability, PowerError> {
        if trace.len() < 2 {
            return Err(PowerError::InsufficientSamples {
                required: 2,
                actual: trace.len(),
            });
        }
        let per_pe = (0..trace.samples()[0].block_count())
            .map(|block| {
                let series = trace.block_series(block)?;
                let mean = series.iter().sum::<f64>() / series.len() as f64;
                pe_mttf_hours(mean, Some(&series))
            })
            .collect::<Result<_, _>>()?;
        Ok(SystemReliability { per_pe })
    }
}

/// One PE's MTTF, hours: the steady mechanisms at `effective_temp_c` and,
/// given a temperature series, the Coffin–Manson rate of its cycles. A zero
/// rate is an infinite MTTF and an infinite MTTF adds a zero rate, both by
/// IEEE division.
fn pe_mttf_hours(effective_temp_c: f64, series: Option<&[f64]>) -> Result<f64, PowerError> {
    let mut steady_rate = 0.0;
    for mechanism in &MECHANISMS {
        steady_rate += 1.0 / mechanism.mttf_hours(effective_temp_c)?;
    }
    let steady_mttf_hours = 1.0 / steady_rate;
    let cycling_mttf_hours = match series {
        Some(series) => {
            let cycles = count_cycles(series)?;
            CoffinManson::standard().repetitions_to_failure(&cycles) * PERIOD_HOURS
        }
        None => f64::INFINITY,
    };
    Ok(1.0 / (1.0 / steady_mttf_hours + 1.0 / cycling_mttf_hours))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_thermal::{Block, Floorplan, ThermalConfig, ThermalModel};

    /// A mechanism outside the table, for checking the Arrhenius factor
    /// itself: its MTTF is the reciprocal of the factor, in thousands of
    /// hours.
    fn arrhenius_probe(activation_energy_ev: f64) -> Mechanism {
        Mechanism {
            name: "probe",
            activation_energy_ev,
            qualified_mttf_hours: 1000.0,
        }
    }

    #[test]
    fn factor_is_one_at_reference_temperature() {
        for activation_energy_ev in [0.5, 0.7, 0.9] {
            let mttf = arrhenius_probe(activation_energy_ev)
                .mttf_hours(QUALIFICATION_TEMP_C)
                .expect("valid");
            assert!((1000.0 / mttf - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hotter_is_worse_and_colder_is_better() {
        for mechanism in MECHANISMS {
            let qualified = mechanism.qualified_mttf_hours;
            let hotter = mechanism.mttf_hours(100.0).expect("valid");
            let colder = mechanism.mttf_hours(40.0).expect("valid");
            assert!(hotter < qualified, "{} must degrade", mechanism.name);
            assert!(colder > qualified, "{} must improve", mechanism.name);
        }
    }

    #[test]
    fn higher_activation_energy_accelerates_faster() {
        let low_ea = arrhenius_probe(0.5).mttf_hours(100.0).expect("valid");
        let high_ea = arrhenius_probe(0.9).mttf_hours(100.0).expect("valid");
        assert!(high_ea < low_ea);
    }

    #[test]
    fn mttf_matches_qualification_at_qualification_temperature() {
        for mechanism in MECHANISMS {
            let mttf = mechanism.mttf_hours(55.0).expect("valid temperature");
            assert!((mttf - mechanism.qualified_mttf_hours).abs() < 1e-6);
        }
    }

    #[test]
    fn mttf_decreases_with_temperature_for_all_mechanisms() {
        for mechanism in MECHANISMS {
            let cool = mechanism.mttf_hours(60.0).expect("valid");
            let hot = mechanism.mttf_hours(100.0).expect("valid");
            assert!(hot < cool, "{} must degrade when hotter", mechanism.name);
        }
    }

    #[test]
    fn mttf_rejects_non_physical_temperatures() {
        for mechanism in MECHANISMS {
            assert!(mechanism.mttf_hours(f64::NAN).is_err());
            assert!(mechanism.mttf_hours(f64::INFINITY).is_err());
            assert!(mechanism.mttf_hours(-300.0).is_err());
        }
    }

    #[test]
    fn stress_migration_is_more_temperature_sensitive_than_em() {
        // Higher activation energy => larger relative degradation for the
        // same temperature increase.
        let [em, sm, _] = MECHANISMS;
        let em_ratio = em.mttf_hours(55.0).expect("valid") / em.mttf_hours(95.0).expect("valid");
        let sm_ratio = sm.mttf_hours(55.0).expect("valid") / sm.mttf_hours(95.0).expect("valid");
        assert!(sm_ratio > em_ratio);
    }

    #[test]
    fn ten_degree_rule_of_thumb_roughly_holds() {
        // Near 60 °C every ~10 °C roughly doubles electromigration's
        // failure rate.
        let em = MECHANISMS[0];
        let factor = em.mttf_hours(60.0).expect("valid") / em.mttf_hours(70.0).expect("valid");
        assert!(factor > 1.7 && factor < 2.7);
    }

    #[test]
    fn names_are_distinct() {
        assert_eq!(
            MECHANISMS.map(|mechanism| mechanism.name),
            [
                "electromigration",
                "stress-migration",
                "dielectric-breakdown"
            ]
        );
    }

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
        // All equal: weakest is simply the first index.
        let even = analyzer
            .from_steady_temperatures(&Temperatures::uniform(3, 60.0))
            .expect("system");
        assert_eq!(even.weakest_pe(), 0);
        let plan = Floorplan::new(vec![
            Block::from_mm("cold", 0.0, 0.0, 7.0, 7.0),
            Block::from_mm("hot", 7.0, 0.0, 7.0, 7.0),
        ])
        .expect("floorplan");
        let uneven = ThermalModel::new(&plan, ThermalConfig::default())
            .expect("model")
            .steady_state(&[0.5, 8.0])
            .expect("steady state");
        let system = analyzer.from_steady_temperatures(&uneven).expect("system");
        assert_eq!(system.weakest_pe(), 1);
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
        // No PE, no failure.
        let empty = analyzer
            .from_steady_temperatures(&Temperatures::uniform(0, 80.0))
            .expect("no PEs");
        assert_eq!(empty.system_mttf_hours(), f64::INFINITY);
    }
}
