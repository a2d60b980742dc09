//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the metric lists `BENCHMARK.json`
//! declares (a test keeps the two in step). A run with tracing off
//! reports every end-to-end metric; a traced run reports every
//! per-layer metric, with 0 for those its workload does not reach
//! (README.md lists which).

use serde_json::Value;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("job_p50_us", "us"),
    ("job_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grid.decode_us", "us"),
    ("grid.digest_us", "us"),
    ("grid.serialize_us", "us"),
    ("grid.checkpoint_ms", "ms"),
    ("grid.checkpoint_batches", "count"),
    ("grid.promote_ms", "ms"),
    ("grid.read_shard_ms", "ms"),
    ("grid.read_partial_ms", "ms"),
    ("grid.bytes_per_job", "bytes"),
    ("grid.replay_frac", "fraction"),
    ("grid.recovered_jobs", "count"),
    ("grid.recomputed", "count"),
    ("grid.unaccounted_s", "s"),
    ("runner.execute_us.p50", "us"),
    ("runner.execute_us.p99", "us"),
    ("runner.execute_us.exp1", "us"),
    ("runner.execute_us.exp2", "us"),
    ("runner.execute_us.dvs", "us"),
    ("runner.execute_us.multi", "us"),
    ("runner.execute_us.kibam", "us"),
    ("runner.execute_us.supercap", "us"),
    ("runner.execute_us.faulted", "us"),
    ("runner.busy_frac", "fraction"),
    ("sim.run_us.conv", "us"),
    ("sim.run_us.asap", "us"),
    ("sim.run_us.fcdpm", "us"),
    ("sim.run_us.windowed", "us"),
    ("sim.run_us.quantized12", "us"),
    ("sim.consultations", "count"),
    ("sim.chunks_stepped", "count"),
    ("sim.coalesced_frac", "fraction"),
    ("workload.scenario_us", "us"),
    ("core.plan_slot_ns", "ns"),
    ("fuelcell.stack_current_ns", "ns"),
    ("storage.kibam_step_ns", "ns"),
    ("storage.kibam_coalesced_ns", "ns"),
    ("storage.kibam_time_to_soc_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
    ("grid.calls", "count"),
    ("grid.self_s", "s"),
    ("runner.calls", "count"),
    ("runner.self_s", "s"),
    ("sim.calls", "count"),
    ("sim.self_s", "s"),
    ("workload.calls", "count"),
    ("workload.self_s", "s"),
    ("core.calls", "count"),
    ("core.self_s", "s"),
    ("fuelcell.calls", "count"),
    ("fuelcell.self_s", "s"),
    ("storage.calls", "count"),
    ("storage.self_s", "s"),
];

/// The layers whose call counts and self times the traced run reports.
pub const LAYERS: &[&str] = &[
    "grid", "runner", "sim", "workload", "core", "fuelcell", "storage",
];

/// Values for one catalogue, every metric starting at 0.
#[derive(Debug)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            catalogue,
            values: vec![0.0; catalogue.len()],
        }
    }

    /// Sets `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.values[slot] = value;
    }

    fn to_value(&self) -> Result<Value, String> {
        let mut fields = Vec::with_capacity(self.values.len());
        for (&(name, unit), &value) in self.catalogue.iter().zip(&self.values) {
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            fields.push((
                name.to_owned(),
                object([
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.to_owned())),
                ]),
            ));
        }
        Ok(Value::Map(fields))
    }
}

/// A JSON object with fields in the given order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A JSON string, or `null`.
pub fn text(value: Option<String>) -> Value {
    value.map_or(Value::Null, Value::Str)
}

/// The result line: `{"correct","attempted","failed","metrics"}`. It is
/// printed only after every output check has passed.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    let line = object([
        ("correct", Value::Bool(true)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics.to_value()?),
    ]);
    serde_json::to_string(&line).map_err(|e| format!("result does not serialize: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues here and the lists in `BENCHMARK.json` name the
    /// same metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, key: &str| -> Value {
            v.as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null)
        };
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(Value, Value)> = field(&doc, key)
                .as_seq()
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let expected: Vec<(Value, Value)> = catalogue
                .iter()
                .map(|(n, u)| (Value::Str((*n).to_owned()), Value::Str((*u).to_owned())))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("jobs_per_s", 1234.5);
        let line = result_line(10, 0, &metrics).expect("serializes");
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""jobs_per_s":{"value":1234.5,"unit":"jobs/s"}"#));
        metrics.set("setup_s", f64::NAN);
        assert!(result_line(10, 0, &metrics).is_err());
    }
}
