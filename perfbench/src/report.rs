//! Metric lists and the result line.

use disco_telemetry::trace::escape_json;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape_json(&m.name),
                json_num(m.value),
                escape_json(m.unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit of Rust's shortest round-trip form
/// (`{:?}` writes `5.0` and `1e-7`, both valid JSON).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The benchmark's verdict on one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Packets walked by the measured passes.
    pub attempted: u64,
    /// Routable packets lost where the network had quiesced.
    pub failed: u64,
    /// The end-to-end metrics.
    pub end_to_end: Metrics,
    /// The per-layer metrics (empty unless traced).
    pub per_layer: Metrics,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The result line: the end-to-end metrics untraced, the per-layer
    /// metrics traced.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.to_json()
        )
    }

    /// A human-readable table of every metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.end_to_end.0.iter().chain(&self.per_layer.0) {
            let _ = writeln!(out, "{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json_with_units() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("tiny", 1e-9, "s");
        m.put("count", 3.0, "count");
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: m,
            per_layer: Metrics::default(),
            failures: Vec::new(),
        };
        let line = o.result_json(false);
        disco_telemetry::validate_json(&line).expect("valid JSON");
        assert!(line.contains("\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }
}
