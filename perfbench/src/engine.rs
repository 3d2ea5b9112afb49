//! Direct engine runs and the per-layer profile both workloads report.
//!
//! A case is one parsed implementation/specification pair with its engine
//! options. [`run_case`] rectifies it through `Session::run` and checks the
//! patch independently; [`layer_metrics`] turns back-to-back untraced and
//! traced runs of a set of cases into the per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use eco_netlist::{write_blif, Circuit};
use eco_sat::cec::{assist_equivalences, CecOptions};
use eco_sat::{tseitin, Solver};
use syseco::correspond::Correspondence;
use syseco::error_domain::classify_outputs;
use syseco::{DegradeReason, EcoOptions, MetricsSnapshot, Session, Telemetry};

use crate::check::check_patch;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{add_phase_self_times, PHASES};

/// One case after set-up: parsed pair and the session that rectifies it.
pub struct Prepared {
    /// Names the case in notes; also seeds its simulation check.
    pub id: u64,
    pub implementation: Circuit,
    pub spec: Circuit,
    pub options: EcoOptions,
    session: Session,
}

impl Prepared {
    pub fn new(id: u64, implementation: Circuit, spec: Circuit, options: EcoOptions) -> Self {
        Prepared {
            id,
            implementation,
            spec,
            session: Session::new(options.clone()),
            options,
        }
    }
}

/// The outcome of one run of a case.
pub struct CaseRun {
    /// `Session::run` plus [`check_patch`]: time to a checked patch.
    pub wall_s: f64,
    /// The [`check_patch`] part of `wall_s`.
    pub verify_s: f64,
    /// The `Session::run` part of `wall_s`.
    pub run_s: f64,
    pub patch_blif: String,
    pub gates: usize,
    pub nets: usize,
    /// Set on traced runs only.
    pub traced: Option<(Vec<syseco::SpanRecord>, MetricsSnapshot)>,
}

/// Rectifies one case and checks the patch independently. With `traced`,
/// the run records spans and metrics into its own registry.
pub fn run_case(case: &Prepared, traced: bool) -> Result<CaseRun, String> {
    let telemetry = traced.then(Telemetry::enabled);
    let traced_session = telemetry
        .as_ref()
        .map(|t| Session::new(case.options.clone()).with_telemetry(t));
    let session = traced_session.as_ref().unwrap_or(&case.session);
    let t0 = Instant::now();
    let result = session
        .run(&case.implementation, &case.spec)
        .map_err(|e| format!("engine error: {e}"))?;
    let t1 = Instant::now();
    check_patch(&result.patched, &case.spec, case.id)?;
    let t2 = Instant::now();
    // A merge-conflict fallback is the engine's designed answer to clashing
    // per-output patches; any other degradation means the search was cut
    // short, which no benchmark case should need.
    if let Some(d) = result
        .rectify
        .degradations
        .iter()
        .find(|d| d.reason != DegradeReason::MergeConflict)
    {
        return Err(format!("degraded output: {d}"));
    }
    Ok(CaseRun {
        wall_s: (t2 - t0).as_secs_f64(),
        verify_s: (t2 - t1).as_secs_f64(),
        run_s: (t1 - t0).as_secs_f64(),
        patch_blif: write_blif(&result.patched),
        gates: result.stats.gates,
        nets: result.stats.nets,
        traced: traced.then(|| (result.trace, session.metrics_snapshot())),
    })
}

/// The per-layer profile of `cases`: engine phases and counters from the
/// `traced` runs, the tracing overhead against the `untraced` runs made
/// just before them, and the layers the benchmark times itself around
/// public entry points (CEC, detection). `untraced[i]` and `traced[i]` are
/// runs of `cases[i]`; failed runs are `None`.
pub fn layer_metrics(
    cases: &[Prepared],
    untraced: &[Option<CaseRun>],
    traced: &[Option<CaseRun>],
    report: &mut Report,
) {
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut peak_nodes = 0u64;
    let mut phase_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut wall, mut attributed, mut verify_external) = (0.0, 0.0, 0.0);
    for run in traced.iter().flatten() {
        let (spans, snapshot) = run.traced.as_ref().expect("traced run records telemetry");
        for (name, value) in snapshot.counters() {
            *counters.entry(name).or_default() += value;
        }
        peak_nodes = peak_nodes.max(
            snapshot
                .gauges()
                .find(|(n, _)| *n == "bdd.peak_nodes")
                .map_or(0, |(_, v)| v),
        );
        wall += run.run_s;
        attributed += add_phase_self_times(spans, &mut phase_s);
        verify_external += run.verify_s;
    }
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::NAN };

    let (cec_s, candidates, proven, classify_s) = probe_cec_and_detect(cases, report);
    report.metric("cec.pass_s", cec_s, "s");
    report.metric("cec.candidates", candidates as f64, "count");
    report.metric("cec.proven", proven as f64, "count");
    for name in ["sat.conflicts", "sat.propagations", "sat.decisions"] {
        report.metric(name, count(name), "count");
    }
    report.metric("detect.classify_s", classify_s, "s");
    for phase in PHASES {
        report.metric(
            format!("{phase}.self_s"),
            phase_s.get(phase).copied().unwrap_or(0.0),
            "s",
        );
    }
    report.metric("rectify.unattributed_s", wall - attributed, "s");
    report.metric("trace.wall_s", wall, "s");
    let validations = count("rectify.validations");
    report.metric("rectify.validations", validations, "count");
    report.metric(
        "validate.useful_ratio",
        1.0 - ratio(count("rectify.refinements"), validations),
        "ratio",
    );
    report.metric("rectify.point_sets", count("rectify.point_sets"), "count");
    let (hits, misses) = (count("bdd.apply.hits"), count("bdd.apply.misses"));
    report.metric("bdd.apply.misses", misses, "count");
    report.metric("bdd.apply.hit_rate", ratio(hits, hits + misses), "ratio");
    report.metric("bdd.peak_nodes", peak_nodes as f64, "count");
    report.metric("bdd.gc.runs", count("bdd.gc.runs"), "count");
    report.metric("rectify.choices", count("rectify.choices"), "count");
    let (passed, screened) = (count("prefilter.passed"), count("prefilter.screened"));
    report.metric(
        "prefilter.pass_ratio",
        ratio(passed, passed + screened),
        "ratio",
    );
    report.metric("verify.external_s", verify_external, "s");
    report.metric("rectify.fallbacks", count("rectify.fallbacks"), "count");
    report.metric(
        "rectify.degradations",
        count("rectify.degradations"),
        "count",
    );
    // Median over cases of each case's traced / untraced time; the two
    // runs of a case are back to back.
    let case_ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .filter_map(|(u, t)| Some(t.as_ref()?.wall_s / u.as_ref()?.wall_s))
        .collect();
    let overhead = if case_ratios.is_empty() {
        f64::NAN
    } else {
        median(&case_ratios)
    };
    report.metric("trace.overhead_ratio", overhead, "ratio");
}

/// One `assist_equivalences` pass on each case's all-outputs miter and one
/// `classify_outputs` call per case, timed from outside. Returns the CEC
/// seconds, candidates and proven pairs, and the classification seconds.
fn probe_cec_and_detect(cases: &[Prepared], report: &mut Report) -> (f64, usize, usize, f64) {
    let (mut cec_s, mut candidates, mut proven, mut classify_s) = (0.0, 0usize, 0usize, 0.0);
    for case in cases {
        let Ok(corr) = Correspondence::build(&case.implementation, &case.spec) else {
            report.note(format!(
                "case {}: ports do not correspond; no CEC probe",
                case.id
            ));
            continue;
        };
        let pairs: Vec<_> = corr
            .outputs
            .iter()
            .map(|p| {
                (
                    case.implementation.outputs()[p.impl_index as usize].net(),
                    case.spec.outputs()[p.spec_index as usize].net(),
                )
            })
            .collect();
        let mut solver = Solver::new();
        let miter = tseitin::encode_pairs(&mut solver, &case.implementation, &case.spec, &pairs)
            .expect("generated cases encode");
        let t0 = Instant::now();
        let stats = assist_equivalences(
            &mut solver,
            &case.implementation,
            &case.spec,
            &miter.left,
            &miter.right,
            &CecOptions::default(),
        )
        .expect("generated cases simulate");
        cec_s += t0.elapsed().as_secs_f64();
        candidates += stats.candidates;
        proven += stats.proven + stats.proven_complement;
        let budget = Some(case.options.validation_budget.saturating_mul(10));
        let t0 = Instant::now();
        classify_outputs(&case.implementation, &case.spec, &corr, budget, None)
            .expect("generated cases classify");
        classify_s += t0.elapsed().as_secs_f64();
    }
    (cec_s, candidates, proven, classify_s)
}
