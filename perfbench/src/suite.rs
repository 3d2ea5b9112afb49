//! The `suite` workload: the paper's Table-1/3 cases 1–16, one at a time,
//! the way one designer drives the CLI.
//!
//! Closed loop, `jobs=1`, cache off. Each case goes from BLIF text through
//! parse and rectify to an independently checked patch. Seed 0 presents
//! the cases exactly as the workload generator writes them; any other seed
//! presents the same designs with their internal nets renamed
//! ([`rename_nets`]), so the text is fresh while the work stays the
//! paper's suite.

use std::time::{Duration, Instant};

use eco_netlist::{read_blif, write_blif};
use syseco::EcoOptions;

use crate::engine::{layer_metrics, run_case, CaseRun, Prepared};
use crate::rename::rename_nets;
use crate::report::Report;
use crate::stats::{geomean, median, peak_rss_mb, percentile};

/// Set-ups of every case timed together in one set-up sample; a sample
/// reports their mean.
const SETUPS_PER_SAMPLE: usize = 2;

/// One generated case as the program receives it.
struct CaseText {
    id: u32,
    impl_blif: String,
    spec_blif: String,
}

/// The engine options of every suite case: the CLI defaults, one worker.
fn options() -> EcoOptions {
    EcoOptions::builder().jobs(1).build()
}

/// Generates cases 1–16 as BLIF text for `seed`.
fn generate(seed: u64) -> Vec<CaseText> {
    let mut params = eco_workload::table1_params();
    params.extend(eco_workload::timing_params());
    params.push(eco_workload::scaling_params());
    params
        .iter()
        .map(|p| {
            let case = eco_workload::try_build_case(p)
                .unwrap_or_else(|e| panic!("case {} does not generate: {e}", p.id));
            let (impl_blif, spec_blif) = (write_blif(&case.implementation), write_blif(&case.spec));
            if seed == 0 {
                return CaseText {
                    id: case.id,
                    impl_blif,
                    spec_blif,
                };
            }
            let case_seed = seed ^ (u64::from(case.id) << 48);
            CaseText {
                id: case.id,
                impl_blif: rename_nets(&impl_blif, case_seed),
                spec_blif: rename_nets(&spec_blif, case_seed ^ 1),
            }
        })
        .collect()
}

/// Parses every pair and builds its session. Returns the prepared cases
/// and the time spent parsing alone.
fn prepare(cases: &[CaseText]) -> (Vec<Prepared>, Duration) {
    let mut parse = Duration::ZERO;
    let prepared = cases
        .iter()
        .map(|case| {
            let t0 = Instant::now();
            let implementation = read_blif(&case.impl_blif).expect("generated BLIF parses");
            let spec = read_blif(&case.spec_blif).expect("generated BLIF parses");
            parse += t0.elapsed();
            Prepared::new(u64::from(case.id), implementation, spec, options())
        })
        .collect();
    (prepared, parse)
}

/// Set-up samples, each the mean over [`SETUPS_PER_SAMPLE`] set-ups. One is
/// taken before every case run, so the median sees the host over the whole
/// run rather than over one moment of it.
#[derive(Default)]
struct SetupSamples {
    setup: Vec<f64>,
    parse: Vec<f64>,
}

impl SetupSamples {
    /// Times one sample and returns the prepared cases of its last set-up.
    fn take(&mut self, texts: &[CaseText]) -> Vec<Prepared> {
        let t0 = Instant::now();
        let mut batch: Vec<_> = (0..SETUPS_PER_SAMPLE).map(|_| prepare(texts)).collect();
        self.setup
            .push(t0.elapsed().as_secs_f64() / SETUPS_PER_SAMPLE as f64);
        let parse_s: f64 = batch.iter().map(|(_, p)| p.as_secs_f64()).sum();
        self.parse.push(parse_s / SETUPS_PER_SAMPLE as f64);
        batch.pop().expect("at least one set-up per sample").0
    }
}

/// One pass over every case that runs each case once per entry of `modes`
/// (`true` = traced) before moving on, so the runs of one case are adjacent
/// in time. Returns one pass per mode. Failed cases are `None` and noted in
/// `report`; a patch that differs from the reference pass's, or without
/// one from the case's first run, counts as failed. `before_case` runs
/// before each case.
fn run_pass(
    cases: &[Prepared],
    modes: &[bool],
    reference: &[Option<String>],
    report: &mut Report,
    mut before_case: impl FnMut(),
) -> Vec<Vec<Option<CaseRun>>> {
    let mut passes: Vec<Vec<Option<CaseRun>>> = modes.iter().map(|_| Vec::new()).collect();
    for (i, case) in cases.iter().enumerate() {
        before_case();
        let mut first = reference.get(i).cloned().flatten();
        for (pass, &traced) in passes.iter_mut().zip(modes) {
            let outcome = run_case(case, traced).and_then(|run| match &first {
                Some(patch) if *patch != run.patch_blif => {
                    Err("patch differs from the case's first run".to_string())
                }
                _ => Ok(run),
            });
            let what = format!(
                "case {} ({})",
                case.id,
                if traced { "traced" } else { "timed" }
            );
            let run = match outcome {
                Ok(run) => {
                    report.check(&what, Ok(()));
                    Some(run)
                }
                Err(why) => {
                    report.check(&what, Err(why));
                    None
                }
            };
            if first.is_none() {
                first = run.as_ref().map(|r| r.patch_blif.clone());
            }
            pass.push(run);
        }
    }
    passes
}

/// Runs the workload and returns its report.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let texts = generate(seed);
    let generate_s = t0.elapsed().as_secs_f64();

    let mut samples = SetupSamples::default();
    let cases = samples.take(&texts);
    let mut sample = || drop(samples.take(&texts));

    let mut passes: Vec<Vec<Option<CaseRun>>> = Vec::new();
    if trace {
        // One untraced and one traced run of each case, back to back, so
        // a slow spell of the host hits both runs of a case alike.
        passes = run_pass(&cases, &[false, true], &[], &mut report, &mut sample);
    } else {
        // Passes while the time allows, at least one.
        let started = Instant::now();
        let mut reference: Vec<Option<String>> = Vec::new();
        loop {
            let pass = run_pass(&cases, &[false], &reference, &mut report, &mut sample)
                .pop()
                .expect("one pass per mode");
            if reference.is_empty() {
                reference = pass
                    .iter()
                    .map(|r| r.as_ref().map(|r| r.patch_blif.clone()))
                    .collect();
            }
            let total: f64 = pass.iter().flatten().map(|r| r.wall_s).sum();
            report.note(format!("pass {}: {total:.4} s", passes.len() + 1));
            passes.push(pass);
            // Another pass starts only if, at the mean pass time so far, it
            // would end within the time given.
            let spent = started.elapsed().as_secs_f64();
            if spent * (passes.len() + 1) as f64 / passes.len() as f64 > seconds {
                break;
            }
        }
    }
    let timed = if trace { &passes[..1] } else { &passes[..] };

    // Per-case time to a checked patch, median over the timed passes.
    let mut case_s = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let samples: Vec<f64> = timed
            .iter()
            .filter_map(|p| p[i].as_ref().map(|r| r.wall_s))
            .collect();
        if !samples.is_empty() {
            let s = median(&samples);
            report.note(format!("case {:>2}: {s:.4} s to a checked patch", case.id));
            case_s.push((case.id, s));
        }
    }
    let complete = case_s.len() == cases.len();

    if !trace {
        let totals: Vec<f64> = timed
            .iter()
            .filter(|p| p.iter().all(Option::is_some))
            .map(|p| p.iter().flatten().map(|r| r.wall_s).sum())
            .collect();
        if complete && !totals.is_empty() {
            let suite_s = median(&totals);
            let times: Vec<f64> = case_s.iter().map(|&(_, s)| s).collect();
            report.detail("suite_s", suite_s, "s");
            report.detail("case_s.geomean", geomean(&times), "s");
            let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
            report.metric("latency_p50_ms", median(&ms), "ms");
            report.metric("latency_p90_ms", percentile(&ms, 0.9), "ms");
            report.metric("capacity_jobs_per_s", cases.len() as f64 / suite_s, "1/s");
            let first = passes[0].iter().flatten();
            let (gates, nets) = first.fold((0, 0), |(g, n), r| (g + r.gates, n + r.nets));
            report.metric("patch_gates", gates as f64, "count");
            report.metric("patch_nets", nets as f64, "count");
        }
        report.metric("ok_frac", report.ok_frac(), "ratio");
        report.metric("setup_s", median(&samples.setup), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    for &(id, s) in &case_s {
        report.detail(format!("case.{id}_s"), s, "s");
    }
    layer_metrics(&cases, &passes[0], &passes[1], &mut report);
    report.metric("netlist.parse_s", median(&samples.parse), "s");
    report.metric("workload.generate_s", generate_s, "s");
    report
}
