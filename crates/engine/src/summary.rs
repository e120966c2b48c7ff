//! Campaign summary: the aggregate a batch run reports once all scenario
//! records are in.

use std::collections::BTreeMap;
use std::fmt;

use tats_trace::JsonValue;

use crate::executor::ScenarioRecord;

/// Running aggregate of one policy's scenarios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyAggregate {
    /// Scenarios of this policy.
    pub count: usize,
    sum_max_temp_c: f64,
    sum_avg_temp_c: f64,
    sum_power: f64,
    sum_makespan: f64,
}

impl PolicyAggregate {
    fn record(&mut self, record: &ScenarioRecord) {
        self.count += 1;
        self.sum_max_temp_c += record.max_temp_c;
        self.sum_avg_temp_c += record.avg_temp_c;
        self.sum_power += record.total_power;
        self.sum_makespan += record.makespan;
    }

    /// Mean peak temperature of this policy's scenarios, °C.
    pub fn mean_max_temp_c(&self) -> f64 {
        self.sum_max_temp_c / self.count.max(1) as f64
    }

    /// Mean average temperature, °C.
    pub fn mean_avg_temp_c(&self) -> f64 {
        self.sum_avg_temp_c / self.count.max(1) as f64
    }

    /// Mean total power, watts.
    pub fn mean_power(&self) -> f64 {
        self.sum_power / self.count.max(1) as f64
    }

    /// Mean makespan, schedule time units.
    pub fn mean_makespan(&self) -> f64 {
        self.sum_makespan / self.count.max(1) as f64
    }
}

/// Aggregate statistics over every record of a campaign run.
///
/// Feed records with [`Summary::record`]. Its means are f64 sums, which
/// depend on the order they are fed in; the executor's sink sees records
/// in scenario-id order at any thread count, so a threaded run summarises
/// identically to a serial one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Number of scenarios aggregated.
    pub scenarios: usize,
    /// Scenarios that missed their deadline.
    pub deadline_misses: usize,
    /// Hottest block temperature across the whole campaign, °C.
    pub peak_temp_c: f64,
    /// Total energy across all scenarios.
    pub total_energy: f64,
    sum_max_temp_c: f64,
    sum_avg_temp_c: f64,
    sum_makespan: f64,
    per_policy: BTreeMap<String, PolicyAggregate>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Folds one scenario record into the aggregate.
    pub fn record(&mut self, record: &ScenarioRecord) {
        self.scenarios += 1;
        if !record.meets_deadline {
            self.deadline_misses += 1;
        }
        self.peak_temp_c = self.peak_temp_c.max(record.max_temp_c);
        self.total_energy += record.energy;
        self.sum_max_temp_c += record.max_temp_c;
        self.sum_avg_temp_c += record.avg_temp_c;
        self.sum_makespan += record.makespan;
        self.per_policy
            .entry(record.policy.clone())
            .or_default()
            .record(record);
    }

    /// Mean peak temperature over all scenarios, °C.
    pub fn mean_max_temp_c(&self) -> f64 {
        self.sum_max_temp_c / self.scenarios.max(1) as f64
    }

    /// Mean average temperature over all scenarios, °C.
    pub fn mean_avg_temp_c(&self) -> f64 {
        self.sum_avg_temp_c / self.scenarios.max(1) as f64
    }

    /// Mean makespan over all scenarios.
    pub fn mean_makespan(&self) -> f64 {
        self.sum_makespan / self.scenarios.max(1) as f64
    }

    /// Per-policy aggregates, keyed by policy slug.
    pub fn per_policy(&self) -> &BTreeMap<String, PolicyAggregate> {
        &self.per_policy
    }

    /// Per-policy mean-peak-temperature delta against the baseline policy,
    /// °C (negative = cooler than baseline). Empty when the campaign had no
    /// baseline scenarios.
    pub fn policy_deltas_vs_baseline(&self) -> BTreeMap<String, f64> {
        let Some(baseline) = self.per_policy.get("baseline") else {
            return BTreeMap::new();
        };
        let reference = baseline.mean_max_temp_c();
        self.per_policy
            .iter()
            .filter(|(slug, _)| slug.as_str() != "baseline")
            .map(|(slug, agg)| (slug.clone(), agg.mean_max_temp_c() - reference))
            .collect()
    }

    /// Serialises the summary (the service registry serves it on
    /// `GET /jobs/{id}/summary`).
    pub fn to_json(&self) -> JsonValue {
        let per_policy: Vec<(String, JsonValue)> = self
            .per_policy
            .iter()
            .map(|(slug, agg)| {
                (
                    slug.clone(),
                    JsonValue::object(vec![
                        ("count".to_string(), JsonValue::from(agg.count)),
                        (
                            "mean_max_temp_c".to_string(),
                            JsonValue::from(agg.mean_max_temp_c()),
                        ),
                        ("mean_power".to_string(), JsonValue::from(agg.mean_power())),
                        (
                            "mean_makespan".to_string(),
                            JsonValue::from(agg.mean_makespan()),
                        ),
                    ]),
                )
            })
            .collect();
        let deltas: Vec<(String, JsonValue)> = self
            .policy_deltas_vs_baseline()
            .into_iter()
            .map(|(slug, delta)| (slug, JsonValue::from(delta)))
            .collect();
        JsonValue::object(vec![
            ("scenarios".to_string(), JsonValue::from(self.scenarios)),
            (
                "deadline_misses".to_string(),
                JsonValue::from(self.deadline_misses),
            ),
            ("peak_temp_c".to_string(), JsonValue::from(self.peak_temp_c)),
            (
                "mean_max_temp_c".to_string(),
                JsonValue::from(self.mean_max_temp_c()),
            ),
            (
                "mean_avg_temp_c".to_string(),
                JsonValue::from(self.mean_avg_temp_c()),
            ),
            (
                "mean_makespan".to_string(),
                JsonValue::from(self.mean_makespan()),
            ),
            (
                "total_energy".to_string(),
                JsonValue::from(self.total_energy),
            ),
            ("per_policy".to_string(), JsonValue::object(per_policy)),
            (
                "policy_delta_max_temp_vs_baseline_c".to_string(),
                JsonValue::object(deltas),
            ),
        ])
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign summary: {} scenarios, peak {:.2} C, mean max {:.2} C, mean avg {:.2} C, \
             mean makespan {:.1}, total energy {:.1}, deadline misses {}",
            self.scenarios,
            self.peak_temp_c,
            self.mean_max_temp_c(),
            self.mean_avg_temp_c(),
            self.mean_makespan(),
            self.total_energy,
            self.deadline_misses
        )?;
        for (slug, agg) in &self.per_policy {
            writeln!(
                f,
                "  {slug:<10} n={:<3} mean max {:.2} C, mean power {:.2} W, mean makespan {:.1}",
                agg.count,
                agg.mean_max_temp_c(),
                agg.mean_power(),
                agg.mean_makespan()
            )?;
        }
        for (slug, delta) in self.policy_deltas_vs_baseline() {
            writeln!(f, "  {slug:<10} vs baseline: {delta:+.2} C mean max temp")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(policy: &str, max: f64, meets: bool) -> ScenarioRecord {
        ScenarioRecord {
            id: 0,
            key: format!("Bm1/platform/{policy}/s0"),
            benchmark: "Bm1".to_string(),
            flow: "platform".to_string(),
            policy: policy.to_string(),
            seed: 0,
            solver: None,
            total_power: 10.0,
            max_temp_c: max,
            avg_temp_c: max - 5.0,
            makespan: 700.0,
            meets_deadline: meets,
            energy: 5000.0,
            grid_max_temp_c: None,
        }
    }

    #[test]
    fn aggregates_are_order_independent() {
        let records = [
            record("baseline", 90.0, true),
            record("thermal", 80.0, true),
            record("thermal", 84.0, false),
        ];
        let mut forward = Summary::new();
        let mut backward = Summary::new();
        for r in &records {
            forward.record(r);
        }
        for r in records.iter().rev() {
            backward.record(r);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.scenarios, 3);
        assert_eq!(forward.deadline_misses, 1);
        assert_eq!(forward.peak_temp_c, 90.0);
        assert!((forward.mean_max_temp_c() - (90.0 + 80.0 + 84.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn policy_deltas_reference_the_baseline() {
        let mut summary = Summary::new();
        summary.record(&record("baseline", 90.0, true));
        summary.record(&record("thermal", 80.0, true));
        summary.record(&record("thermal", 84.0, true));
        let deltas = summary.policy_deltas_vs_baseline();
        assert_eq!(deltas.len(), 1);
        assert!((deltas["thermal"] - (82.0 - 90.0)).abs() < 1e-12);
        let text = summary.to_string();
        assert!(text.contains("vs baseline"));
        assert!(text.contains("thermal"));
        let json = summary.to_json().to_json();
        assert!(json.contains("\"scenarios\":3"));
        assert!(json.contains("policy_delta_max_temp_vs_baseline_c"));
    }

    #[test]
    fn no_baseline_means_no_deltas() {
        let mut summary = Summary::new();
        summary.record(&record("thermal", 80.0, true));
        assert!(summary.policy_deltas_vs_baseline().is_empty());
        assert_eq!(summary.per_policy().len(), 1);
    }
}
