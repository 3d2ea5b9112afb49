//! The engine flow behind [`Session`](crate::Session): port
//! normalization, cache replay, the rewire search, and patch
//! post-processing.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eco_netlist::{Circuit, NetId, NetlistError};
use eco_telemetry::{ArgValue, Counter, Counters, SpanRecord, Telemetry};

use crate::budget::Budget;
use crate::checkpoint::CheckpointSession;
use crate::correspond::Correspondence;
use crate::error_domain::{classify_outputs, Equivalence};
use crate::fault::SpanPoint;
use crate::memo::{CacheSession, RunRecord};
use crate::options::EcoOptions;
use crate::patch::{refine_patch_inputs_timed, Patch, PatchStats};
use crate::progress::ProgressCallback;
use crate::rectify::{Rectified, RectifyStats, Run};
use crate::EcoError;

/// Result of a rectification run.
#[derive(Debug)]
pub struct EcoResult {
    /// The rectified implementation.
    pub patched: Circuit,
    /// The applied patch (rewires and cloned logic).
    pub patch: Patch,
    /// Table-2 style patch attributes.
    pub stats: PatchStats,
    /// Search statistics.
    pub rectify: RectifyStats,
    /// Wall-clock time of the run.
    pub runtime: Duration,
    /// Structured trace spans of the run, in deterministic merge-slot
    /// order. Empty unless the run was given an enabled
    /// [`Telemetry`] (see [`Session::with_telemetry`](crate::Session::with_telemetry)).
    pub trace: Vec<SpanRecord>,
}

/// The full engine flow with an explicit observer and telemetry sink —
/// the body behind
/// [`Session::run_with_budget`](crate::Session::run_with_budget).
///
/// This is the one place a run's counters reach telemetry: the finished
/// run publishes [`RectifyStats::counters`] whole, so the metrics snapshot
/// and the returned stats cannot disagree. A run that errors publishes
/// nothing.
pub(crate) fn rectify_with(
    options: &EcoOptions,
    implementation: &Circuit,
    spec: &Circuit,
    budget: &Budget,
    observer: Option<&ProgressCallback>,
    telemetry: &Telemetry,
) -> Result<EcoResult, EcoError> {
    let mut result = run_engine(options, implementation, spec, budget, observer, telemetry)?;
    result
        .rectify
        .counters
        .add(Counter::FaultInjections, budget.faults_fired());
    telemetry.shard().add_all(&result.rectify.counters);
    Ok(result)
}

/// [`rectify_with`] before publication: a cache replay when a record
/// verifies, the cold search otherwise.
fn run_engine(
    options: &EcoOptions,
    implementation: &Circuit,
    spec: &Circuit,
    budget: &Budget,
    observer: Option<&ProgressCallback>,
    telemetry: &Telemetry,
) -> Result<EcoResult, EcoError> {
    let start = Instant::now();
    implementation.check_well_formed()?;
    spec.check_well_formed()?;
    let named = name_spec_inputs(spec)?;
    let spec = named.as_ref().unwrap_or(spec);
    let mut patched = implementation.clone();
    normalize_ports(&mut patched, spec)?;
    // Persistent cache (DESIGN.md §11). On a full-key hit the run is
    // *replayed* — the recorded rewire groups are applied and the result
    // re-verified end to end — so a stale or colliding record degrades
    // to the cold path instead of corrupting the output.
    let mut cache = CacheSession::open(options, &patched, spec, budget);
    let mut replay_rejects = 0u64;
    if let Some(session) = cache.as_mut() {
        if let Some(record) = session.run_record() {
            match replay_run(options, &patched, spec, &record, budget, start, session) {
                Some(result) => return Ok(result),
                None => replay_rejects = 1,
            }
        }
    }
    // Crash-safe checkpointing (DESIGN.md §13). Opened on the
    // post-normalization circuit — the exact one the fan-out searches —
    // so the run key covers what resume will actually rectify.
    let checkpoint = CheckpointSession::open(options, &patched, spec, budget);
    let run = Run {
        spec,
        corr: Correspondence::build(&patched, spec)?,
        options,
        budget,
        telemetry,
        observer,
        cache: cache.as_mut(),
        checkpoint: checkpoint.as_ref(),
    };
    let Rectified {
        patch,
        stats: mut rectify,
        mut trace,
        committed,
    } = run.rectify(&mut patched)?;
    // A pure optimisation, so a spent budget skips it and the run returns
    // promptly.
    if !budget.is_exhausted() {
        let mut tb = telemetry.buffer(0);
        let span = tb.start();
        budget.fault_span(SpanPoint::RefinePatch)?;
        refine_patch(&mut patched, &patch, options)?;
        let rewires = patch.rewires().len() as u64;
        tb.end_with(span, "refine_patch", "rectify", || {
            vec![("rewires", ArgValue::U64(rewires))]
        });
        trace.extend(tb.into_spans());
    }
    patched.sweep();
    let stats = patch.stats(&patched);
    rectify
        .counters
        .add(Counter::CacheVerifyRejects, replay_rejects);
    if let Some(session) = cache.as_mut() {
        session.record_run(&committed, &rectify);
        // A commit failure loses warm-start data for future runs, never
        // this run's result.
        let _ = session.commit();
        count_cache(&mut rectify.counters, session);
    }
    Ok(EcoResult {
        stats,
        rectify,
        runtime: start.elapsed(),
        patched,
        patch,
        trace,
    })
}

/// Patch-input refinement (§5.2 post-processing): reuses existing
/// implementation logic inside the cloned patch, timing-aware under
/// level-driven selection. Seeded from the run seed, so a cache replay
/// reproduces the cold run's result.
fn refine_patch(
    patched: &mut Circuit,
    patch: &Patch,
    options: &EcoOptions,
) -> Result<usize, NetlistError> {
    let model = eco_timing::DelayModel::default();
    refine_patch_inputs_timed(
        patched,
        patch,
        options.validation_budget,
        options.seed ^ 0x9e3779b97f4a7c15,
        options.level_driven.then_some(&model),
    )
}

/// Adds the cache store's own counters (misses and I/O health) to
/// `counters`.
fn count_cache(counters: &mut Counters, session: &CacheSession) {
    counters.add(Counter::CacheMisses, session.misses);
    counters.add(Counter::CacheCorruptSegments, session.corrupt_segments());
    counters.add(Counter::CacheIoErrors, session.io_errors());
    counters.add(Counter::CacheRetries, session.retries());
}

/// Attempts to reproduce a finished run from its cache record: applies
/// the committed rewire groups in order, reruns the deterministic
/// post-processing, and accepts only when a full equivalence check
/// passes. By construction this replay is byte-identical to the cold
/// run that recorded it ([`Patch::apply`] is the merge phase's only
/// circuit mutation and the post-processing is seeded). Returns `None`
/// on any mismatch — apply error, damaged verification, budget-unknown
/// verdicts — and the caller falls back to the cold path.
fn replay_run(
    options: &EcoOptions,
    base: &Circuit,
    spec: &Circuit,
    record: &RunRecord,
    budget: &Budget,
    start: Instant,
    session: &mut CacheSession,
) -> Option<EcoResult> {
    let mut patched = base.clone();
    let mut patch = Patch::new(patched.num_nodes());
    let mut shared_clones: HashMap<NetId, NetId> = HashMap::new();
    for group in &record.groups {
        patch
            .apply(&mut patched, spec, group, &mut shared_clones)
            .ok()?;
    }
    patched.sweep();
    if !budget.is_exhausted() {
        refine_patch(&mut patched, &patch, options).ok()?;
    }
    patched.sweep();
    let corr = Correspondence::build(&patched, spec).ok()?;
    let verdicts = classify_outputs(
        &patched,
        spec,
        &corr,
        Some(options.validation_budget.saturating_mul(10)),
        Some(budget),
    )
    .ok()?;
    if !verdicts
        .iter()
        .all(|v| matches!(v, Equivalence::Equivalent))
    {
        return None;
    }
    let mut counters = Counters::default();
    counters.add(Counter::RectifyRewired, record.rewire_rectified as u64);
    counters.add(Counter::RectifyFallbacks, record.fallbacks as u64);
    counters.add(Counter::CacheHits, 1);
    count_cache(&mut counters, session);
    let rectify = RectifyStats {
        outputs_total: record.outputs_total,
        outputs_failing: record.outputs_failing,
        counters,
        ..Default::default()
    };
    let stats = patch.stats(&patched);
    Some(EcoResult {
        stats,
        rectify,
        runtime: start.elapsed(),
        patched,
        patch,
        trace: Vec::new(),
    })
}

/// Gives every unnamed (empty-labelled) specification input a stable
/// generated name `__pi<position>`, so it cannot silently alias another port
/// during normalization. Returns the renamed clone, or `None` when every
/// input already has a proper name.
///
/// # Errors
///
/// [`EcoError::PortMismatch`] when two specification inputs share a
/// (non-empty) name.
pub(crate) fn name_spec_inputs(spec: &Circuit) -> Result<Option<Circuit>, EcoError> {
    let mut taken: std::collections::HashSet<String> = std::collections::HashSet::new();
    // Existing names are claimed first so generated ones cannot collide.
    for &id in spec.inputs() {
        let name = spec.node(id).name().unwrap_or("");
        if name.is_empty() {
            continue;
        }
        if !taken.insert(name.to_string()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate input name {name:?}"
            )));
        }
    }
    let mut renames: Vec<(usize, String)> = Vec::new();
    for (pos, &id) in spec.inputs().iter().enumerate() {
        if !spec.node(id).name().unwrap_or("").is_empty() {
            continue;
        }
        let mut label = format!("__pi{pos}");
        while !taken.insert(label.clone()) {
            label.push('_');
        }
        renames.push((pos, label));
    }
    if renames.is_empty() {
        return Ok(None);
    }
    let mut named = spec.clone();
    for (pos, label) in renames {
        named.set_input_name(pos, label)?;
    }
    Ok(Some(named))
}

/// Adds spec-only inputs and outputs to the implementation so the port
/// correspondence becomes total. Call [`name_spec_inputs`] first: unnamed
/// spec inputs would otherwise all map to the empty-string label.
///
/// # Errors
///
/// [`EcoError::PortMismatch`] when the specification declares a duplicate
/// input or output name.
pub(crate) fn normalize_ports(
    implementation: &mut Circuit,
    spec: &Circuit,
) -> Result<(), EcoError> {
    let mut seen_in = std::collections::HashSet::new();
    for &id in spec.inputs() {
        let label = spec.node(id).name().unwrap_or("").to_string();
        if !seen_in.insert(label.clone()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate input name {label:?}"
            )));
        }
        if implementation.input_by_name(&label).is_none() {
            implementation.add_input(label);
        }
    }
    let mut seen_out = std::collections::HashSet::new();
    for port in spec.outputs() {
        if !seen_out.insert(port.name().to_string()) {
            return Err(EcoError::PortMismatch(format!(
                "specification has duplicate output name {:?}",
                port.name()
            )));
        }
        if implementation.output_by_name(port.name()).is_none() {
            let k = implementation.constant(false);
            implementation.add_output(port.name(), k);
        }
    }
    Ok(())
}

/// Verifies full behavioural equivalence of a patched implementation
/// against the specification (unbudgeted SAT per output pair).
///
/// # Errors
///
/// [`EcoError`] on port mismatches or malformed circuits.
pub fn verify_rectification(patched: &Circuit, spec: &Circuit) -> Result<bool, EcoError> {
    let corr = Correspondence::build(patched, spec)?;
    let verdicts = classify_outputs(patched, spec, &corr, None, None)?;
    Ok(verdicts
        .iter()
        .all(|v| matches!(v, Equivalence::Equivalent)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use eco_netlist::GateKind;

    #[test]
    fn normalize_adds_missing_ports() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b_new");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        s.add_output("extra", sb);
        normalize_ports(&mut c, &s).unwrap();
        assert!(c.input_by_name("b_new").is_some());
        assert!(c.output_by_name("extra").is_some());
        assert!(Correspondence::build(&c, &s).is_ok());
    }

    #[test]
    fn unnamed_spec_inputs_get_stable_generated_names() {
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input(""); // unnamed
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        let named = name_spec_inputs(&s).unwrap().expect("rename required");
        assert_eq!(named.node(named.inputs()[1]).name(), Some("__pi1"));
        // Deterministic: running it again on the renamed spec is a no-op.
        assert!(name_spec_inputs(&named).unwrap().is_none());
        // The generated name flows into normalization without collisions.
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        normalize_ports(&mut c, &named).unwrap();
        assert!(c.input_by_name("__pi1").is_some());
        assert!(c.check_well_formed().is_ok());
    }

    #[test]
    fn generated_input_names_avoid_existing_labels() {
        let mut s = Circuit::new("spec");
        s.add_input("__pi1"); // occupies the name position 1 would get
        let sb = s.add_input("");
        s.add_output("y", sb);
        let named = name_spec_inputs(&s).unwrap().expect("rename required");
        assert_eq!(named.node(named.inputs()[1]).name(), Some("__pi1_"));
        assert!(named.check_well_formed().is_ok());
    }

    #[test]
    fn duplicate_spec_output_names_are_rejected() {
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        s.add_output("y", sa);
        s.add_output("y", sa);
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        assert!(matches!(
            normalize_ports(&mut c, &s),
            Err(EcoError::PortMismatch(_))
        ));
    }

    #[test]
    fn engine_rectifies_with_new_ports() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        c.add_output("y", a);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b_new");
        let g = s.add_gate(GateKind::And, &[sa, sb]).unwrap();
        s.add_output("y", g);
        let result = Session::new(EcoOptions::with_seed(2)).run(&c, &s).unwrap();
        assert!(verify_rectification(&result.patched, &s).unwrap());
    }

    #[test]
    fn verify_detects_wrong_circuit() {
        let mut c = Circuit::new("impl");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, &[a, b]).unwrap();
        c.add_output("y", g);
        let mut s = Circuit::new("spec");
        let sa = s.add_input("a");
        let sb = s.add_input("b");
        let sg = s.add_gate(GateKind::Or, &[sa, sb]).unwrap();
        s.add_output("y", sg);
        assert!(!verify_rectification(&c, &s).unwrap());
        assert!(verify_rectification(&c, &c.clone()).unwrap());
    }
}
