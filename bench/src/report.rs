//! Named metric values and how a run prints them: one
//! `metric <workload> <name> <value> <unit>` line per metric, then — as
//! the last line of standard output — the JSON object the driver reads.

use std::collections::BTreeMap;

use crate::metrics::MetricDef;

/// Values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name`, replacing an earlier value (a workload's own
    /// measurement replaces the probe's).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    /// Panics unless exactly the names of `table` are present: a run
    /// that printed a different set than `BENCHMARK.json` declares must
    /// not look like a result.
    pub fn assert_matches(&self, table: &[MetricDef]) {
        let missing: Vec<_> =
            table.iter().map(|m| m.name).filter(|name| !self.0.contains_key(name)).collect();
        let extra: Vec<_> =
            self.0.keys().filter(|name| !table.iter().any(|m| m.name == **name)).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "metric names drifted from the table: missing {missing:?}, undeclared {extra:?}"
        );
    }

    /// `"name": {"value": v, "unit": "u"}` members in table order.
    pub fn json_members(&self, table: &[MetricDef]) -> String {
        table
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, self.0[m.name], m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    pub fn print(&self, workload: &str, table: &[MetricDef]) {
        for m in table {
            println!("metric {workload} {} {} {}", m.name, self.0[m.name], m.unit);
        }
    }
}

/// The line the driver parses: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(attempted: u64, failed: u64, values: &Values, table: &[MetricDef]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        values.json_members(table)
    )
}
