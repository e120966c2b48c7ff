//! Thermal cycling fatigue.
//!
//! Temperature *swings* — not just the absolute level — wear a package out:
//! solder joints and vias fatigue under repeated expansion/contraction.  The
//! standard compact model is the Coffin–Manson law: the number of cycles to
//! failure falls as a power of the cycle's temperature swing,
//! `N_f(ΔT) = N_0 · (ΔT / ΔT_0)^(−q)`.
//!
//! This module extracts cycles from a block temperature series (peak/valley
//! extraction followed by simplified rainflow pairing) and accumulates
//! fatigue damage with Miner's rule.

use crate::error::PowerError;

/// One extracted thermal cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalCycle {
    /// Temperature swing of the cycle, °C.
    pub delta_c: f64,
    /// Mean temperature of the cycle, °C.
    pub mean_c: f64,
    /// Weight of the cycle: 1.0 for a full cycle, 0.5 for a residual
    /// half cycle.
    pub weight: f64,
}

/// Reduces a temperature series to its alternating peaks and valleys.
///
/// Consecutive samples moving in the same direction are merged; plateaus are
/// collapsed.  The first and last samples are always retained so residual
/// half-cycles are visible to the counter.
pub fn peaks_and_valleys(series: &[f64]) -> Vec<f64> {
    let mut extrema = Vec::new();
    for &value in series {
        if extrema.is_empty() {
            extrema.push(value);
            continue;
        }
        if extrema.len() == 1 {
            if (value - extrema[0]).abs() > 1e-12 {
                extrema.push(value);
            }
            continue;
        }
        let last = extrema[extrema.len() - 1];
        let prev = extrema[extrema.len() - 2];
        let was_rising = last > prev;
        let still_rising = value > last;
        if (value - last).abs() < 1e-12 {
            continue;
        }
        if was_rising == still_rising {
            *extrema.last_mut().expect("non-empty") = value;
        } else {
            extrema.push(value);
        }
    }
    extrema
}

/// Extracts thermal cycles from a temperature series using a simplified
/// rainflow procedure (three-point method on the peak/valley sequence, with
/// the unpaired residue counted as half cycles).
///
/// # Errors
///
/// Returns [`PowerError::InsufficientSamples`] when fewer than two samples
/// are supplied.
pub fn count_cycles(series: &[f64]) -> Result<Vec<ThermalCycle>, PowerError> {
    if series.len() < 2 {
        return Err(PowerError::InsufficientSamples {
            required: 2,
            actual: series.len(),
        });
    }
    let mut stack: Vec<f64> = Vec::new();
    let mut cycles = Vec::new();
    for &point in &peaks_and_valleys(series) {
        stack.push(point);
        while stack.len() >= 3 {
            let n = stack.len();
            let range_inner = (stack[n - 2] - stack[n - 3]).abs();
            let range_outer = (stack[n - 1] - stack[n - 2]).abs();
            if range_inner <= range_outer {
                // The inner pair forms a full cycle; remove it.
                let high = stack[n - 2].max(stack[n - 3]);
                let low = stack[n - 2].min(stack[n - 3]);
                cycles.push(ThermalCycle {
                    delta_c: high - low,
                    mean_c: 0.5 * (high + low),
                    weight: 1.0,
                });
                let last = stack.pop().expect("non-empty");
                stack.pop();
                stack.pop();
                stack.push(last);
            } else {
                break;
            }
        }
    }
    // Residue: count adjacent pairs as half cycles.
    for pair in stack.windows(2) {
        let high = pair[0].max(pair[1]);
        let low = pair[0].min(pair[1]);
        if high - low > 1e-12 {
            cycles.push(ThermalCycle {
                delta_c: high - low,
                mean_c: 0.5 * (high + low),
                weight: 0.5,
            });
        }
    }
    Ok(cycles)
}

/// Coffin–Manson low-cycle fatigue model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoffinManson {
    reference_delta_c: f64,
    cycles_at_reference: f64,
    exponent: f64,
    threshold_delta_c: f64,
}

impl CoffinManson {
    /// A conventional package qualification: 10,000 cycles of 30 °C swing,
    /// fatigue exponent 2.35, and no damage from swings of 5 °C or less.
    pub fn standard() -> Self {
        CoffinManson {
            reference_delta_c: 30.0,
            cycles_at_reference: 10_000.0,
            exponent: 2.35,
            threshold_delta_c: 5.0,
        }
    }

    /// Cycles to failure for a given temperature swing; `f64::INFINITY` for
    /// swings at or below the damage threshold.
    pub fn cycles_to_failure(&self, delta_c: f64) -> f64 {
        if delta_c <= self.threshold_delta_c {
            return f64::INFINITY;
        }
        self.cycles_at_reference * (self.reference_delta_c / delta_c).powf(self.exponent)
    }

    /// Fatigue damage of one cycle (Miner's rule: `1 / N_f`).
    pub fn damage_per_cycle(&self, delta_c: f64) -> f64 {
        let cycles = self.cycles_to_failure(delta_c);
        if cycles.is_infinite() {
            0.0
        } else {
            1.0 / cycles
        }
    }

    /// Accumulated Miner damage of a set of extracted cycles.
    pub fn accumulated_damage(&self, cycles: &[ThermalCycle]) -> f64 {
        cycles
            .iter()
            .map(|cycle| cycle.weight * self.damage_per_cycle(cycle.delta_c))
            .sum()
    }

    /// Number of times the given cycle set can repeat before the accumulated
    /// damage reaches 1 (failure); `f64::INFINITY` when the set causes no
    /// damage.
    pub fn repetitions_to_failure(&self, cycles: &[ThermalCycle]) -> f64 {
        let damage = self.accumulated_damage(cycles);
        if damage <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / damage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_and_valleys_collapse_monotone_runs() {
        let series = [40.0, 45.0, 50.0, 48.0, 46.0, 55.0, 55.0, 42.0];
        let extrema = peaks_and_valleys(&series);
        assert_eq!(extrema, vec![40.0, 50.0, 46.0, 55.0, 42.0]);
    }

    #[test]
    fn constant_series_has_no_cycles() {
        let cycles = count_cycles(&[50.0, 50.0, 50.0]).expect("enough samples");
        assert!(cycles.is_empty());
        let error = count_cycles(&[50.0]).expect_err("one sample");
        assert_eq!(
            error.to_string(),
            "temperature series has 1 samples but at least 2 are required"
        );
    }

    #[test]
    fn single_ramp_counts_as_a_half_cycle() {
        let cycles = count_cycles(&[40.0, 60.0]).expect("enough samples");
        assert_eq!(cycles.len(), 1);
        assert!((cycles[0].delta_c - 20.0).abs() < 1e-12);
        assert!((cycles[0].weight - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_square_wave_counts_full_cycles() {
        // 40 -> 80 -> 40 -> 80 -> 40: two full excursions of 40 °C.
        let series = [40.0, 80.0, 40.0, 80.0, 40.0];
        let cycles = count_cycles(&series).expect("enough samples");
        let total_weight: f64 = cycles.iter().map(|c| c.weight).sum();
        assert!((total_weight - 2.0).abs() < 1e-9);
        for cycle in &cycles {
            assert!((cycle.delta_c - 40.0).abs() < 1e-9);
            assert!((cycle.mean_c - 60.0).abs() < 1e-9);
        }
    }

    #[test]
    fn small_inner_cycle_is_extracted_by_rainflow() {
        // Outer swing 40..90 with a small 60..70 wiggle inside.
        let series = [40.0, 70.0, 60.0, 90.0, 40.0];
        let cycles = count_cycles(&series).expect("enough samples");
        assert!(cycles
            .iter()
            .any(|cycle| (cycle.delta_c - 10.0).abs() < 1e-9 && cycle.weight == 1.0));
        assert!(cycles
            .iter()
            .any(|cycle| (cycle.delta_c - 50.0).abs() < 1e-9));
    }

    #[test]
    fn coffin_manson_matches_reference_point() {
        let model = CoffinManson::standard();
        assert!((model.cycles_to_failure(30.0) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn bigger_swings_fail_sooner() {
        let model = CoffinManson::standard();
        assert!(model.cycles_to_failure(60.0) < model.cycles_to_failure(30.0));
        assert!(model.cycles_to_failure(10.0) > model.cycles_to_failure(30.0));
        assert!(model.cycles_to_failure(3.0).is_infinite());
    }

    #[test]
    fn accumulated_damage_follows_miners_rule() {
        let model = CoffinManson::standard();
        let cycles = vec![
            ThermalCycle {
                delta_c: 30.0,
                mean_c: 60.0,
                weight: 1.0,
            },
            ThermalCycle {
                delta_c: 30.0,
                mean_c: 60.0,
                weight: 0.5,
            },
        ];
        let damage = model.accumulated_damage(&cycles);
        assert!((damage - 1.5 / 10_000.0).abs() < 1e-12);
        assert!((model.repetitions_to_failure(&cycles) - 10_000.0 / 1.5).abs() < 1e-6);
    }

    #[test]
    fn no_damage_means_infinite_repetitions() {
        let model = CoffinManson::standard();
        let cycles = vec![ThermalCycle {
            delta_c: 2.0,
            mean_c: 50.0,
            weight: 1.0,
        }];
        assert!(model.repetitions_to_failure(&cycles).is_infinite());
    }
}
