//! What one run of one workload produced, how it is printed, and the result line.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value with the evidence printed beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The value, as measured.
    pub value: f64,
    /// How many samples it summarises (segments for a median of segments, operations for
    /// a percentile, 1 for a count read once).
    pub samples: u64,
    /// `(max − min) / median` over the segments, for medians of segments.
    pub spread: Option<f64>,
}

/// The metrics of one run, keyed by catalog name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    /// Records `value` for `name` (which must be a catalog name — checked at
    /// [`RunResult::result_line`] time).
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(
            name,
            Measured {
                value,
                samples,
                spread: None,
            },
        );
    }

    /// Records the median of per-segment values with their spread.
    pub fn set_median(&mut self, name: &'static str, per_segment: &[f64]) {
        self.0.insert(
            name,
            Measured {
                value: crate::stats::median(per_segment),
                samples: per_segment.len() as u64,
                spread: Some(crate::stats::segment_spread(per_segment)),
            },
        );
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// Copies every metric of `other` into `self`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// True if the run was traced (per-layer metrics) rather than end to end.
    pub traced: bool,
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Why the outputs are wrong; empty when they are right.
    pub problems: Vec<String>,
    /// The metrics of this mode.
    pub metrics: Metrics,
}

impl RunResult {
    /// True when every output was checked and found right.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Human-readable table: every metric by name with unit, sample count and spread.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let mode = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "== {} ({mode}) ==", self.workload);
        for def in self.defs() {
            let Some(m) = self.metrics.0.get(def.name) else {
                continue;
            };
            let spread = m
                .spread
                .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
            let _ = writeln!(
                out,
                "{:<44} {:>16} {:<6} n={}{spread}",
                def.name,
                format_value(m.value),
                def.unit,
                m.samples
            );
        }
        let _ = writeln!(
            out,
            "attempted {}  failed {}  fail_frac {}  correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct()
        );
        for p in &self.problems {
            let _ = writeln!(out, "WRONG: {p}");
        }
        out
    }

    /// The one-line JSON object the driver reads: exactly the metrics of this mode, each
    /// with all its digits. Errors if a catalog metric is missing, extra, or not finite.
    pub fn result_line(&self) -> Result<String, String> {
        let defs = self.defs();
        for name in self.metrics.0.keys() {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric {name} is not in the catalog for this mode"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            let m = self
                .metrics
                .0
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", def.name));
            }
            if def.bound.is_some() && m.value == 0.0 {
                return Err(format!("end-to-end metric {} is 0", def.name));
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, m.value, def.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Fixed-point for table readability; the result line carries the full digits.
fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Pulls `"name": {"value": <number>` pairs back out of a result line (the only JSON
/// this package ever reads is the JSON it wrote).
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = BTreeMap::new();
    for part in body.split("\"unit\"") {
        let Some(value_at) = part.find("{\"value\": ") else {
            continue;
        };
        let name_end = part[..value_at].rfind("\":")?;
        let name_start = part[..name_end].rfind('"')? + 1;
        let number = part[value_at + "{\"value\": ".len()..].trim_end_matches([',', ' ']);
        metrics.insert(part[name_start..name_end].to_string(), number.parse().ok()?);
    }
    Some((correct, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(traced: bool) -> RunResult {
        let mut metrics = Metrics::default();
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        for (i, d) in defs.iter().enumerate() {
            metrics.set(d.name, 1.5 + i as f64, 1);
        }
        RunResult {
            workload: "tcp-abd-1k",
            traced,
            attempted: 10,
            failed: 0,
            problems: vec![],
            metrics,
        }
    }

    #[test]
    fn result_line_has_exactly_the_catalog_metrics_and_round_trips() {
        for traced in [false, true] {
            let r = full(traced);
            let line = r.result_line().expect("complete");
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"
            ));
            assert!(!line.contains('\n'));
            let (correct, parsed) = parse_result_line(&line).expect("parses");
            assert!(correct);
            let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
            assert_eq!(parsed.len(), defs.len());
            assert_eq!(parsed[defs[2].name], 3.5);
        }
    }

    #[test]
    fn result_line_refuses_missing_extra_zero_and_nan() {
        let mut r = full(false);
        r.metrics.0.remove("ops_per_s");
        assert!(r
            .result_line()
            .unwrap_err()
            .contains("ops_per_s was not measured"));
        let mut r = full(false);
        r.metrics.set("erasure.encode_ns", 1.0, 1);
        assert!(r.result_line().unwrap_err().contains("not in the catalog"));
        let mut r = full(false);
        r.metrics.set("ops_per_s", 0.0, 1);
        assert!(r.result_line().unwrap_err().contains("is 0"));
        let mut r = full(true);
        r.metrics.set("erasure.encode_ns", f64::NAN, 1);
        assert!(r.result_line().unwrap_err().contains("finite"));
        // Zero is a legitimate per-layer value: the layer did nothing on this workload.
        let mut r = full(true);
        r.metrics.set("erasure.encode_ns", 0.0, 0);
        assert!(r.result_line().is_ok());
    }

    #[test]
    fn a_problem_or_a_failed_op_makes_the_run_incorrect() {
        let mut r = full(false);
        r.problems.push("key g3/k7 is not linearizable".into());
        assert!(!r.correct());
        assert!(r.result_line().unwrap().contains("\"correct\": false"));
        assert!(r.table().contains("WRONG: key g3/k7"));
        let mut r = full(false);
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    fn table_prints_unit_samples_and_spread() {
        let mut r = full(false);
        r.metrics.set_median("ops_per_s", &[90.0, 100.0, 110.0]);
        let table = r.table();
        assert!(table.contains("ops_per_s"), "{table}");
        assert!(table.contains("1/s"), "{table}");
        assert!(table.contains("n=3  spread 20.0%"), "{table}");
    }
}
