//! Per-phase self time from the spans a traced engine run exports.
//!
//! The engine's profiler charges the `run` span with every microsecond its
//! lane-0 children do not cover, which includes the per-output `search`
//! spans recorded on worker lanes. This module leaves `run` out and gives
//! each phase span its own duration minus the part its direct children on
//! the same lane cover. What no phase covers is reported separately as
//! unattributed time, so the phases plus that remainder add up to the
//! measured wall time.

use std::collections::BTreeMap;

use syseco::SpanRecord;

/// The coordinator span whose self time is not a phase.
const RUN: &str = "run";

/// Rounding slack when deciding whether one span contains another.
const SLACK_US: u64 = 2;

/// Phase spans the engine records, in report order.
pub const PHASES: [&str; 10] = [
    "detect",
    "search",
    "samples",
    "point_sets",
    "choices",
    "validate",
    "merge",
    "commit",
    "verify",
    "refine_patch",
];

/// Adds each phase's self time in `spans`, in seconds, into `totals`.
/// Returns the sum of the self times added.
///
/// # Panics
///
/// On a span name outside [`PHASES`], `run` and zero-length markers: an
/// unknown phase would otherwise vanish from the attribution silently.
pub fn add_phase_self_times(spans: &[SpanRecord], totals: &mut BTreeMap<&'static str, f64>) -> f64 {
    let mut phases: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name != RUN && s.dur_us > 0)
        .collect();
    // Per lane, outer spans before the spans they contain.
    phases.sort_by_key(|s| (s.lane, s.start_us, std::cmp::Reverse(s.dur_us)));
    let mut self_us: Vec<i64> = phases.iter().map(|s| s.dur_us as i64).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, span) in phases.iter().enumerate() {
        let end = span.start_us + span.dur_us;
        while let Some(&top) = open.last() {
            let parent = phases[top];
            // Start and duration are truncated to whole microseconds, so a
            // child can appear to end just after its parent.
            if parent.lane == span.lane && parent.start_us + parent.dur_us + SLACK_US >= end {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_us[parent] -= span.dur_us as i64;
        }
        open.push(i);
    }
    let mut added = 0.0;
    for (span, us) in phases.iter().zip(self_us) {
        let phase = PHASES
            .iter()
            .find(|&&p| p == span.name)
            .unwrap_or_else(|| panic!("span {:?} is not a known phase", span.name));
        let seconds = us as f64 / 1e6;
        *totals.entry(phase).or_default() += seconds;
        added += seconds;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, lane: u32, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "rectify",
            lane,
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn children_are_subtracted_per_lane_and_run_is_left_out() {
        let spans = [
            span("run", 0, 0, 100),
            span("detect", 0, 0, 10),
            span("search", 1, 10, 50),
            span("samples", 1, 12, 20),
            span("validate", 1, 14, 5),
            span("validate", 1, 40, 8),
            span("merge", 0, 60, 30),
            span("commit", 0, 61, 20),
        ];
        let mut totals = BTreeMap::new();
        let added = add_phase_self_times(&spans, &mut totals);
        let us = |seconds: f64| (seconds * 1e6).round() as u64;
        let self_us: Vec<(&str, u64)> = totals.iter().map(|(&k, &v)| (k, us(v))).collect();
        assert_eq!(
            self_us,
            [
                ("commit", 20),
                ("detect", 10),
                ("merge", 10),
                ("samples", 15),
                ("search", 22),
                ("validate", 13),
            ]
        );
        assert_eq!(us(added), 90, "top-level spans: detect + search + merge");
    }
}
