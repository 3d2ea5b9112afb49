//! The benchmark's output: one line per metric for people, and the JSON
//! result object as the last line of standard output.

use std::fmt::Write as _;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Outputs checked (suite cases or daemon jobs, over all passes).
    pub attempted: u64,
    /// Checked outputs that failed any check.
    pub failed: u64,
    /// `(name, value, unit)` in print order: the manifest's metrics, the
    /// only ones in the JSON result.
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures of one workload only (per-case times, daemon and cache
    /// layers), printed by name but kept out of the JSON result, whose
    /// metrics every workload reports alike.
    details: Vec<(String, f64, &'static str)>,
    /// Diagnostic rows printed before the metrics (per-case times, failures).
    notes: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a figure of this workload only.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// Records a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked output, and notes why it failed when it did.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.note(format!("FAILED {what}: {why}"));
        }
    }

    /// Share of checked outputs that passed every check.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Whether every checked output passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Prints the human-readable lines, then the JSON result line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in self.details.iter().chain(&self.metrics) {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // Non-finite values are not JSON numbers; `null` marks the
            // metric as not measured.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        // A run that checked nothing proved nothing: it reports one failure.
        let (attempted, failed) = (
            self.attempted.max(1),
            self.failed.max(u64::from(self.attempted == 0)),
        );
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
            failed == 0
        )
    }
}
