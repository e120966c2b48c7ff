//! Voltage/frequency operating points and DVFS scaling laws.
//!
//! The paper's scheduler fixes every processing element at its nominal
//! operating point; dynamic voltage/frequency scaling is the natural
//! "future work" extension the introduction gestures at (temperature is
//! driven by power density, and the knob that moves power density at run
//! time is the supply voltage).  This module provides the scaling laws the
//! DVS extension in [`crate::dvs`] relies on:
//!
//! * dynamic power scales with `(V / V_nom)^2 · (f / f_nom)`,
//! * execution time scales with `f_nom / f`.
//!
//! Operating points are expressed relative to the nominal point so the same
//! table applies to every PE class in the technology library.

use std::fmt;

use crate::error::PowerError;

/// One voltage/frequency operating point, relative to the nominal point.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    name: String,
    /// Supply voltage relative to nominal (1.0 = nominal).
    voltage_scale: f64,
    /// Clock frequency relative to nominal (1.0 = nominal).
    frequency_scale: f64,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if either scale is not a
    /// finite positive number, or if the frequency scale exceeds 1.0 while
    /// the voltage scale is below it (a frequency increase requires at least
    /// nominal voltage).
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_power::OperatingPoint;
    ///
    /// # fn main() -> Result<(), tats_power::PowerError> {
    /// let half = OperatingPoint::new("half", 0.7, 0.5)?;
    /// assert!(half.dynamic_power_scale() < 0.3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(
        name: impl Into<String>,
        voltage_scale: f64,
        frequency_scale: f64,
    ) -> Result<Self, PowerError> {
        if !voltage_scale.is_finite() || voltage_scale <= 0.0 {
            return Err(PowerError::InvalidParameter(format!(
                "voltage scale must be a positive finite number, got {voltage_scale}"
            )));
        }
        if !frequency_scale.is_finite() || frequency_scale <= 0.0 {
            return Err(PowerError::InvalidParameter(format!(
                "frequency scale must be a positive finite number, got {frequency_scale}"
            )));
        }
        if frequency_scale > 1.0 + 1e-12 && voltage_scale < 1.0 {
            return Err(PowerError::InvalidParameter(format!(
                "frequency scale {frequency_scale} above nominal requires at least nominal \
                 voltage, got {voltage_scale}"
            )));
        }
        Ok(OperatingPoint {
            name: name.into(),
            voltage_scale,
            frequency_scale,
        })
    }

    /// The nominal operating point (no scaling).
    pub fn nominal() -> Self {
        OperatingPoint {
            name: "nominal".into(),
            voltage_scale: 1.0,
            frequency_scale: 1.0,
        }
    }

    /// Human-readable name of the point, e.g. `"nominal"` or `"eco"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Clock frequency relative to nominal.
    pub fn frequency_scale(&self) -> f64 {
        self.frequency_scale
    }

    /// Factor applied to dynamic power: `V² · f` relative to nominal.
    pub fn dynamic_power_scale(&self) -> f64 {
        self.voltage_scale * self.voltage_scale * self.frequency_scale
    }

    /// Factor applied to execution time: `1 / f` relative to nominal.
    pub fn delay_scale(&self) -> f64 {
        1.0 / self.frequency_scale
    }

    /// Factor applied to the energy of a fixed workload: power scale times
    /// delay scale, i.e. `V²` relative to nominal.
    pub fn energy_scale(&self) -> f64 {
        self.dynamic_power_scale() * self.delay_scale()
    }

    /// Whether this is (numerically) the nominal point.
    pub fn is_nominal(&self) -> bool {
        (self.voltage_scale - 1.0).abs() < 1e-12 && (self.frequency_scale - 1.0).abs() < 1e-12
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (V×{:.2}, f×{:.2})",
            self.name, self.voltage_scale, self.frequency_scale
        )
    }
}

/// An ordered set of operating points shared by every PE of a platform.
///
/// Points are kept sorted by descending frequency, so index 0 is always the
/// fastest (typically nominal) point.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    points: Vec<OperatingPoint>,
}

impl DvfsTable {
    /// Builds a table from the given points.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if the table is empty or no
    /// point runs at nominal frequency (the scheduler's WCET guarantees are
    /// stated at the nominal point).
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_power::{DvfsTable, OperatingPoint};
    ///
    /// # fn main() -> Result<(), tats_power::PowerError> {
    /// let table = DvfsTable::new(vec![
    ///     OperatingPoint::nominal(),
    ///     OperatingPoint::new("eco", 0.8, 0.6)?,
    /// ])?;
    /// assert_eq!(table.len(), 2);
    /// assert!(table.fastest().is_nominal());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(points: Vec<OperatingPoint>) -> Result<Self, PowerError> {
        if points.is_empty() {
            return Err(PowerError::InvalidParameter(
                "a DVFS table needs at least one operating point".into(),
            ));
        }
        if !points
            .iter()
            .any(|point| (point.frequency_scale() - 1.0).abs() < 1e-9)
        {
            return Err(PowerError::InvalidParameter(
                "a DVFS table must contain a point at nominal frequency".into(),
            ));
        }
        let mut points = points;
        points.sort_by(|a, b| {
            b.frequency_scale()
                .partial_cmp(&a.frequency_scale())
                .expect("operating point frequencies are finite")
        });
        Ok(DvfsTable { points })
    }

    /// A conventional embedded table: nominal, a balanced point and a deep
    /// energy-saving point.
    pub fn standard() -> Self {
        DvfsTable::new(vec![
            OperatingPoint::nominal(),
            OperatingPoint::new("balanced", 0.85, 0.75).expect("standard balanced point is valid"),
            OperatingPoint::new("eco", 0.7, 0.5).expect("standard eco point is valid"),
        ])
        .expect("standard table contains the nominal point")
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterator over the points in descending frequency order.
    pub fn iter(&self) -> impl Iterator<Item = &OperatingPoint> {
        self.points.iter()
    }

    /// The fastest operating point (index 0).
    pub fn fastest(&self) -> &OperatingPoint {
        &self.points[0]
    }

    /// The slowest (most energy-efficient) operating point.
    pub fn slowest(&self) -> &OperatingPoint {
        self.points.last().expect("table is non-empty")
    }

    /// The slowest point whose delay scale does not exceed `max_delay_scale`,
    /// i.e. the most energy-efficient point that still fits inside the given
    /// slowdown budget.  Falls back to the fastest point when even it would
    /// exceed the budget.
    pub fn slowest_within(&self, max_delay_scale: f64) -> &OperatingPoint {
        self.points
            .iter()
            .rev()
            .find(|point| point.delay_scale() <= max_delay_scale + 1e-12)
            .unwrap_or_else(|| self.fastest())
    }
}

impl Default for DvfsTable {
    fn default() -> Self {
        DvfsTable::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_has_unit_scales() {
        let nominal = OperatingPoint::nominal();
        assert!(nominal.is_nominal());
        assert!((nominal.dynamic_power_scale() - 1.0).abs() < 1e-12);
        assert!((nominal.delay_scale() - 1.0).abs() < 1e-12);
        assert!((nominal.energy_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_point_reduces_power_superlinearly() {
        let eco = OperatingPoint::new("eco", 0.7, 0.5).expect("valid point");
        // V^2 f = 0.49 * 0.5 = 0.245.
        assert!((eco.dynamic_power_scale() - 0.245).abs() < 1e-12);
        assert!((eco.delay_scale() - 2.0).abs() < 1e-12);
        // Energy drops even though the task runs twice as long.
        assert!(eco.energy_scale() < 0.5);
    }

    #[test]
    fn rejects_non_positive_scales() {
        assert!(OperatingPoint::new("bad", 0.0, 1.0).is_err());
        assert!(OperatingPoint::new("bad", 1.0, -1.0).is_err());
        assert!(OperatingPoint::new("bad", f64::NAN, 1.0).is_err());
    }

    #[test]
    fn rejects_overclocking_below_nominal_voltage() {
        assert!(OperatingPoint::new("turbo", 0.9, 1.2).is_err());
        assert!(OperatingPoint::new("turbo", 1.1, 1.2).is_ok());
    }

    #[test]
    fn table_requires_nominal_frequency_point() {
        let only_slow = vec![OperatingPoint::new("eco", 0.7, 0.5).expect("valid point")];
        assert!(DvfsTable::new(only_slow).is_err());
        assert!(DvfsTable::new(vec![]).is_err());
    }

    #[test]
    fn table_sorts_by_descending_frequency() {
        let table = DvfsTable::new(vec![
            OperatingPoint::new("eco", 0.7, 0.5).expect("valid"),
            OperatingPoint::nominal(),
            OperatingPoint::new("balanced", 0.85, 0.75).expect("valid"),
        ])
        .expect("valid table");
        let freqs: Vec<f64> = table.iter().map(OperatingPoint::frequency_scale).collect();
        assert_eq!(freqs, vec![1.0, 0.75, 0.5]);
        assert!(table.fastest().is_nominal());
        assert_eq!(table.slowest().name(), "eco");
    }

    #[test]
    fn slowest_within_respects_budget() {
        let table = DvfsTable::standard();
        // Budget of 1.0: only nominal fits.
        assert!(table.slowest_within(1.0).is_nominal());
        // Budget of 1.5: the balanced point (delay 1/0.75 ≈ 1.33) fits.
        assert_eq!(table.slowest_within(1.5).name(), "balanced");
        // Budget of 3.0: the eco point (delay 2.0) fits.
        assert_eq!(table.slowest_within(3.0).name(), "eco");
        // Budget below 1.0 falls back to the fastest point.
        assert!(table.slowest_within(0.5).is_nominal());
    }

    #[test]
    fn standard_table_energy_decreases_with_frequency() {
        let table = DvfsTable::standard();
        let energies: Vec<f64> = table.iter().map(OperatingPoint::energy_scale).collect();
        for pair in energies.windows(2) {
            assert!(pair[1] < pair[0], "energy should fall as frequency drops");
        }
    }
}
