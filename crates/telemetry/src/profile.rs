//! The hierarchical profiler: folds a flat span trace back into a
//! self/total-time tree with per-phase and per-output attribution, plus a
//! time-sliced counter sampler for turning end-of-run totals into time
//! series.
//!
//! Spans are recorded flat, per lane, children before parents (a span is
//! pushed when it *ends*). The profiler reconstructs nesting by interval
//! containment, with one engine-specific guard: spans whose names are in
//! the documented vocabulary ([`crate::names::SPAN_NAMES`]) carry a fixed
//! nesting depth, and a span never adopts a same-or-shallower-depth span
//! even when microsecond timestamps tie at a phase boundary. That keeps
//! the reconstructed tree — and everything derived from it — identical
//! across worker counts, which the determinism suite pins byte-for-byte.

use crate::json::{self, Value};
use crate::names;
use crate::span::{ArgValue, SpanRecord};
use crate::{Counter, MetricsSnapshot, Telemetry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A span that owns its strings — the form the profiler works on, so
/// traces can come either from a live run ([`SpanRecord`]) or re-parsed
/// from a trace JSONL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSpan {
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Lane (0 = coordinator, `i + 1` = merge-slot `i`).
    pub lane: u32,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// `u64` annotations, in record order.
    pub args_u64: Vec<(String, u64)>,
    /// String annotations, in record order.
    pub args_str: Vec<(String, String)>,
}

impl OwnedSpan {
    /// The value of a `u64` annotation.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args_u64
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// The value of a string annotation.
    pub fn arg_str(&self, key: &str) -> Option<&str> {
        self.args_str
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

impl From<&SpanRecord> for OwnedSpan {
    fn from(record: &SpanRecord) -> Self {
        let mut span = OwnedSpan {
            name: record.name.to_string(),
            cat: record.cat.to_string(),
            lane: record.lane,
            start_us: record.start_us,
            dur_us: record.dur_us,
            args_u64: Vec::new(),
            args_str: Vec::new(),
        };
        for (key, value) in &record.args {
            match value {
                ArgValue::U64(n) => span.args_u64.push((key.to_string(), *n)),
                ArgValue::Str(s) => span.args_str.push((key.to_string(), s.clone())),
            }
        }
        span
    }
}

/// Parses a trace JSONL document (as written by
/// [`export::spans_jsonl`](crate::export::spans_jsonl)) back into owned
/// spans. Lines must carry `name`, `cat`, `lane`, `ts_us`, `dur_us` and
/// may carry `args`.
pub fn parse_spans_jsonl(input: &str) -> Result<Vec<OwnedSpan>, String> {
    let docs = json::parse_lines(input).map_err(|e| e.to_string())?;
    let mut spans = Vec::with_capacity(docs.len());
    for doc in &docs {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("trace line missing key {key:?}"))
        };
        let num = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("trace key {key:?} is not a u64"))
        };
        let mut span = OwnedSpan {
            name: field("name")?
                .as_str()
                .ok_or("trace name is not a string")?
                .to_string(),
            cat: field("cat")?
                .as_str()
                .ok_or("trace cat is not a string")?
                .to_string(),
            lane: num("lane")? as u32,
            start_us: num("ts_us")?,
            dur_us: num("dur_us")?,
            args_u64: Vec::new(),
            args_str: Vec::new(),
        };
        if let Some(args) = doc.get("args") {
            for (key, value) in args.as_object().ok_or("trace args is not an object")? {
                match value {
                    Value::Number(_) => span
                        .args_u64
                        .push((key.clone(), value.as_u64().ok_or("trace arg is not a u64")?)),
                    Value::String(s) => span.args_str.push((key.clone(), s.clone())),
                    _ => return Err(format!("trace arg {key:?} has unsupported type")),
                }
            }
        }
        spans.push(span);
    }
    Ok(spans)
}

/// The fixed nesting depth of a documented span name within its lane;
/// `None` for names outside the vocabulary.
fn schema_depth(name: &str) -> Option<u32> {
    match name {
        names::SPAN_RUN | names::SPAN_SEARCH => Some(0),
        names::SPAN_DETECT | names::SPAN_MERGE | names::SPAN_VERIFY | names::SPAN_REFINE_PATCH => {
            Some(1)
        }
        names::SPAN_COMMIT => Some(2),
        names::SPAN_SAMPLES
        | names::SPAN_POINT_SETS
        | names::SPAN_CHOICES
        | names::SPAN_VALIDATE
        | names::SPAN_REFINE => Some(1),
        _ => None,
    }
}

/// One node of the aggregated profile tree: all spans of one name under
/// one parent path, folded together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name.
    pub name: String,
    /// Number of spans folded into this node.
    pub count: u64,
    /// Summed wall-clock including children, µs.
    pub total_us: u64,
    /// Summed wall-clock excluding children, µs.
    pub self_us: u64,
    /// Summed `u64` annotations, in first-seen order.
    pub args_u64: Vec<(String, u64)>,
    /// Children, in first-seen order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(name: &str) -> Self {
        ProfileNode {
            name: name.to_string(),
            count: 0,
            total_us: 0,
            self_us: 0,
            args_u64: Vec::new(),
            children: Vec::new(),
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(ProfileNode::new(name));
        self.children.last_mut().unwrap()
    }

    fn add_args(&mut self, args: &[(String, u64)]) {
        for (key, value) in args {
            match self.args_u64.iter_mut().find(|(k, _)| k == key) {
                Some((_, total)) => *total += value,
                None => self.args_u64.push((key.clone(), *value)),
            }
        }
    }
}

/// One raw tree node before name-aggregation.
struct RawNode {
    span: usize,
    children: Vec<RawNode>,
}

/// The reconstructed profile of one trace: an aggregated self/total tree
/// plus flat per-phase and per-output views.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Synthetic root; its children are the lane roots (`run`, then each
    /// `search` lane) in lane order.
    pub root: ProfileNode,
    spans: Vec<OwnedSpan>,
}

impl Profile {
    /// Builds the profile from a flat span list (record order: per lane,
    /// children before parents).
    pub fn from_spans(spans: &[SpanRecord]) -> Profile {
        Profile::from_owned(spans.iter().map(OwnedSpan::from).collect())
    }

    /// Builds the profile from owned spans (e.g. re-parsed JSONL).
    pub fn from_owned(spans: Vec<OwnedSpan>) -> Profile {
        // First-occurrence order (not sort) keeps the coordinator lane
        // first without assuming lane ids are contiguous. A lane's spans
        // need not be contiguous in record order — the coordinator lane
        // records the closing `run` span after the worker lanes flush —
        // so consecutive-only dedup would fold such a lane twice.
        let mut lanes: Vec<u32> = Vec::new();
        for span in &spans {
            if !lanes.contains(&span.lane) {
                lanes.push(span.lane);
            }
        }
        let mut root = ProfileNode::new("(run)");
        for &lane in &lanes {
            let indices: Vec<usize> = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.lane == lane)
                .map(|(i, _)| i)
                .collect();
            let forest = build_forest(&spans, &indices);
            for raw in &forest {
                fold(&spans, raw, &mut root);
            }
        }
        Profile { root, spans }
    }

    /// Flat totals per span name, in the documented phase order
    /// ([`names::SPAN_NAMES`]) followed by any undocumented names in
    /// first-seen order.
    pub fn phase_totals(&self) -> Vec<ProfileNode> {
        let mut flat: Vec<ProfileNode> = Vec::new();
        fn walk(node: &ProfileNode, flat: &mut Vec<ProfileNode>) {
            for child in &node.children {
                let entry = match flat.iter_mut().find(|n| n.name == child.name) {
                    Some(entry) => entry,
                    None => {
                        flat.push(ProfileNode::new(&child.name));
                        flat.last_mut().unwrap()
                    }
                };
                entry.count += child.count;
                entry.total_us += child.total_us;
                entry.self_us += child.self_us;
                entry.add_args(&child.args_u64);
                walk(child, flat);
            }
        }
        walk(&self.root, &mut flat);
        flat.sort_by_key(|node| {
            names::SPAN_NAMES
                .iter()
                .position(|&n| n == node.name)
                .unwrap_or(usize::MAX)
        });
        flat
    }

    /// One row per `search` span: the output it rectified plus its
    /// deterministic work annotations and wall-clock.
    pub fn per_output(&self) -> Vec<OutputRow> {
        self.spans
            .iter()
            .filter(|s| s.name == names::SPAN_SEARCH)
            .map(|s| OutputRow {
                output: s.arg_str("output").unwrap_or("?").to_string(),
                sat_conflicts: s.arg_u64("sat_conflicts").unwrap_or(0),
                validations: s.arg_u64("validations").unwrap_or(0),
                point_sets: s.arg_u64("point_sets").unwrap_or(0),
                choices: s.arg_u64("choices").unwrap_or(0),
                refinements: s.arg_u64("refinements").unwrap_or(0),
                proposal: s.arg_u64("proposal").unwrap_or(0) != 0,
                dur_us: s.dur_us,
            })
            .collect()
    }

    /// The spans the profile was built from.
    pub fn spans(&self) -> &[OwnedSpan] {
        &self.spans
    }
}

/// Per-output attribution extracted from one `search` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRow {
    /// Output name.
    pub output: String,
    /// SAT conflicts spent on this output.
    pub sat_conflicts: u64,
    /// Validation calls.
    pub validations: u64,
    /// Feasible point-sets examined.
    pub point_sets: u64,
    /// Rewiring choices examined.
    pub choices: u64,
    /// Sampling-domain refinements.
    pub refinements: u64,
    /// Whether the search produced a rewiring proposal.
    pub proposal: bool,
    /// Search wall-clock, µs.
    pub dur_us: u64,
}

/// Reconstructs the span forest of one lane by interval containment.
///
/// `indices` is in record order, i.e. sorted by end time with children
/// before parents. Each span adopts, from the pending-roots stack, the
/// trailing run of spans its interval contains — schema depths break
/// microsecond ties between adjacent phases.
fn build_forest(spans: &[OwnedSpan], indices: &[usize]) -> Vec<RawNode> {
    let mut pending: Vec<RawNode> = Vec::new();
    for &i in indices {
        let span = &spans[i];
        let mut adopted: Vec<RawNode> = Vec::new();
        while let Some(last) = pending.last() {
            let candidate = &spans[last.span];
            let contained =
                candidate.start_us >= span.start_us && candidate.end_us() <= span.end_us();
            let deeper = match (schema_depth(&candidate.name), schema_depth(&span.name)) {
                (Some(c), Some(p)) => c > p,
                _ => true,
            };
            if contained && deeper {
                adopted.push(pending.pop().unwrap());
            } else {
                break;
            }
        }
        adopted.reverse();
        pending.push(RawNode {
            span: i,
            children: adopted,
        });
    }
    pending
}

/// Folds one raw node into the aggregated tree under `parent`.
fn fold(spans: &[OwnedSpan], raw: &RawNode, parent: &mut ProfileNode) {
    let span = &spans[raw.span];
    let children_us: u64 = raw.children.iter().map(|c| spans[c.span].dur_us).sum();
    let node = parent.child_mut(&span.name);
    node.count += 1;
    node.total_us += span.dur_us;
    node.self_us += span.dur_us.saturating_sub(children_us);
    node.add_args(&span.args_u64);
    for child in &raw.children {
        fold(spans, child, node);
    }
}

/// One time slice captured by a [`CounterSampler`].
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Milliseconds since sampling started.
    pub elapsed_ms: u64,
    /// The full metrics snapshot at this instant.
    pub snapshot: MetricsSnapshot,
}

impl CounterSample {
    /// Convenience: one counter's value at this instant.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.snapshot.counter(counter)
    }
}

/// Samples the metrics registry on a background thread at a fixed
/// interval, turning monotonic totals into a time series (e.g. BDD apply
/// throughput and hit rate over the course of a run).
///
/// Sampling only reads snapshots of the registry — the recording hot path
/// stays lock-free and unaffected.
#[derive(Debug)]
pub struct CounterSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<CounterSample>>>,
}

impl CounterSampler {
    /// Starts sampling `telemetry` every `interval`. A disabled handle
    /// yields an empty series.
    pub fn start(telemetry: &Telemetry, interval: Duration) -> CounterSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let telemetry = telemetry.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            if !telemetry.is_enabled() {
                return samples;
            }
            let started = std::time::Instant::now();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                samples.push(CounterSample {
                    elapsed_ms: started.elapsed().as_millis() as u64,
                    snapshot: telemetry.snapshot(),
                });
            }
            samples
        });
        CounterSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns the captured series. Callers that
    /// need the end-of-run totals take one more
    /// [`Telemetry::snapshot`] themselves.
    pub fn stop(mut self) -> Vec<CounterSample> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("sampler stopped twice")
            .join()
            .unwrap_or_default()
    }
}

impl Drop for CounterSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export;

    fn span(
        name: &'static str,
        lane: u32,
        start_us: u64,
        dur_us: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanRecord {
        SpanRecord {
            name,
            cat: "rectify",
            lane,
            start_us,
            dur_us,
            args,
        }
    }

    /// A miniature two-lane trace in record order (children first).
    fn sample_trace() -> Vec<SpanRecord> {
        vec![
            // lane 0: run [0, 100] containing detect [0, 10] and merge
            // [60, 90] containing commit [61, 80]
            span("detect", 0, 0, 10, vec![]),
            span("commit", 0, 61, 19, vec![]),
            span("merge", 0, 60, 30, vec![]),
            span("run", 0, 0, 100, vec![]),
            // lane 1: search [10, 50] with phases
            span("point_sets", 1, 12, 8, vec![("sets", ArgValue::U64(4))]),
            span(
                "validate",
                1,
                20,
                15,
                vec![("sat_conflicts", ArgValue::U64(7))],
            ),
            span(
                "search",
                1,
                10,
                40,
                vec![
                    ("output", ArgValue::Str("y0".into())),
                    ("sat_conflicts", ArgValue::U64(7)),
                    ("validations", ArgValue::U64(1)),
                    ("point_sets", ArgValue::U64(4)),
                    ("choices", ArgValue::U64(2)),
                    ("refinements", ArgValue::U64(0)),
                    ("proposal", ArgValue::U64(1)),
                ],
            ),
        ]
    }

    #[test]
    fn split_lane_blocks_fold_once() {
        // The coordinator lane records `detect` early, worker lanes flush
        // next, and the closing `run` span lands in a second lane-0
        // block. Each lane-0 span must still be counted exactly once.
        let trace = vec![
            span("detect", 0, 0, 10, vec![]),
            span("search", 1, 10, 40, vec![]),
            span("run", 0, 0, 100, vec![]),
        ];
        let profile = Profile::from_spans(&trace);
        let totals = profile.phase_totals();
        let run = totals.iter().find(|n| n.name == "run").unwrap();
        let detect = totals.iter().find(|n| n.name == "detect").unwrap();
        assert_eq!(run.count, 1);
        assert_eq!(detect.count, 1);
    }

    #[test]
    fn tree_reconstructs_nesting_with_self_times() {
        let profile = Profile::from_spans(&sample_trace());
        let run = &profile.root.children[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.total_us, 100);
        // run's children: detect (10) + merge (30) → self 60.
        assert_eq!(run.self_us, 60);
        let merge = run.children.iter().find(|c| c.name == "merge").unwrap();
        assert_eq!(merge.self_us, 30 - 19);
        assert_eq!(merge.children[0].name, "commit");

        let search = &profile.root.children[1];
        assert_eq!(search.name, "search");
        assert_eq!(search.self_us, 40 - 8 - 15);
        assert_eq!(search.children.len(), 2);
        assert_eq!(search.args_u64[0], ("sat_conflicts".to_string(), 7));
        assert!(search.args_u64.contains(&("validations".to_string(), 1)));
    }

    #[test]
    fn equal_timestamp_phases_stay_siblings() {
        // Zero-duration adjacent phases at the same microsecond: the
        // schema guard must keep choices/validate siblings under search
        // instead of letting validate adopt choices.
        let trace = vec![
            span("choices", 1, 5, 0, vec![]),
            span("validate", 1, 5, 0, vec![]),
            span(
                "search",
                1,
                5,
                0,
                vec![("output", ArgValue::Str("y".into()))],
            ),
        ];
        let profile = Profile::from_spans(&trace);
        let search = &profile.root.children[0];
        assert_eq!(search.name, "search");
        let child_names: Vec<&str> = search.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(child_names, ["choices", "validate"]);
        assert!(search.children.iter().all(|c| c.children.is_empty()));
    }

    #[test]
    fn phase_totals_follow_documented_order() {
        let profile = Profile::from_spans(&sample_trace());
        let totals = profile.phase_totals();
        let order: Vec<&str> = totals.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            order,
            [
                "run",
                "detect",
                "search",
                "point_sets",
                "validate",
                "merge",
                "commit"
            ]
        );
        let validate = totals.iter().find(|n| n.name == "validate").unwrap();
        assert_eq!(validate.count, 1);
        assert_eq!(validate.args_u64, vec![("sat_conflicts".to_string(), 7)]);
    }

    #[test]
    fn per_output_rows_come_from_search_spans() {
        let profile = Profile::from_spans(&sample_trace());
        let rows = profile.per_output();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].output, "y0");
        assert_eq!(rows[0].sat_conflicts, 7);
        assert_eq!(rows[0].point_sets, 4);
        assert!(rows[0].proposal);
    }

    #[test]
    fn jsonl_round_trip_preserves_the_profile() {
        let trace = sample_trace();
        let jsonl = export::spans_jsonl(&trace, false);
        let owned = parse_spans_jsonl(&jsonl).unwrap();
        assert_eq!(owned.len(), trace.len());
        let direct = Profile::from_spans(&trace);
        let reparsed = Profile::from_owned(owned);
        assert_eq!(direct.root, reparsed.root);
    }

    #[test]
    fn sampler_returns_a_monotone_series() {
        let t = Telemetry::enabled();
        let shard = t.shard();
        let sampler = CounterSampler::start(&t, Duration::from_millis(1));
        for _ in 0..50 {
            shard.add(Counter::BddApplyHits, 10);
            std::thread::sleep(Duration::from_millis(1));
        }
        let samples = sampler.stop();
        assert!(!samples.is_empty());
        let values: Vec<u64> = samples
            .iter()
            .map(|s| s.counter(Counter::BddApplyHits))
            .collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "monotone totals");
        assert_eq!(*values.last().unwrap() % 10, 0);
        // Disabled telemetry yields nothing.
        let none = CounterSampler::start(&Telemetry::disabled(), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(none.stop().is_empty());
    }
}
