//! Regeneration of Tables 1–3.

use std::time::Duration;

use eco_netlist::CircuitStats;
use eco_timing::{DelayModel, TimingReport};
use eco_workload::EcoCase;
use syseco::baseline::{cone, deltasyn};
use syseco::{verify_rectification, EcoOptions, EcoResult, PatchStats, Session};

/// One row of Table 1: characteristics of an ECO test case.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Case id.
    pub id: u32,
    /// Implementation statistics.
    pub stats: CircuitStats,
    /// Bit-level outputs affected by the revision.
    pub revised_outputs: usize,
    /// Percentage of outputs affected.
    pub percent: f64,
}

/// Computes Table 1 for the standard suite.
pub fn table1_rows(cases: &[EcoCase]) -> Vec<Table1Row> {
    cases
        .iter()
        .map(|case| Table1Row {
            id: case.id,
            stats: case.implementation_stats(),
            revised_outputs: case.revised_outputs,
            percent: case.revised_percent(),
        })
        .collect()
}

/// Renders Table 1 in the paper's column layout.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "Table 1: Characteristics of ECO test cases.\n\
         | id | inputs | outputs |  gates |   nets |  sinks | rev.outs |    % |\n\
         |----|--------|---------|--------|--------|--------|----------|------|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:>2} | {:>6} | {:>7} | {:>6} | {:>6} | {:>6} | {:>8} | {:>4.1} |\n",
            r.id,
            r.stats.inputs,
            r.stats.outputs,
            r.stats.gates,
            r.stats.nets,
            r.stats.sinks,
            r.revised_outputs,
            r.percent
        ));
    }
    out
}

/// One engine's patch attributes in a Table 2 row.
#[derive(Debug, Clone, Copy)]
pub struct PatchCell {
    /// Patch attributes.
    pub stats: PatchStats,
    /// Wall-clock runtime.
    pub time: Duration,
    /// Whether the patched design verified equivalent to the spec.
    pub verified: bool,
}

impl PatchCell {
    fn from_result(result: &EcoResult, spec: &eco_netlist::Circuit) -> Self {
        PatchCell {
            stats: result.stats,
            time: result.runtime,
            verified: verify_rectification(&result.patched, spec).unwrap_or(false),
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Case id.
    pub id: u32,
    /// Designer's estimate (technology cells).
    pub estimate: usize,
    /// Commercial-tool proxy (cone rewrite).
    pub commercial: PatchCell,
    /// DeltaSyn-style baseline.
    pub deltasyn: PatchCell,
    /// The syseco engine.
    pub syseco: PatchCell,
}

/// Average reduction ratios of syseco relative to DeltaSyn (Table 2 footer).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionRatios {
    /// Patch inputs ratio.
    pub inputs: f64,
    /// Patch outputs ratio.
    pub outputs: f64,
    /// Patch gates ratio.
    pub gates: f64,
    /// Patch nets ratio.
    pub nets: f64,
}

/// Runs all three engines over the suite.
///
/// `progress` receives one message per completed case (use
/// `|m| eprintln!("{m}")` from binaries).
pub fn table2_rows(
    cases: &[EcoCase],
    options: &EcoOptions,
    mut progress: impl FnMut(&str),
) -> Vec<Table2Row> {
    let engine = Session::new(options.clone());
    let mut rows = Vec::with_capacity(cases.len());
    for case in cases {
        let commercial = cone::rectify(&case.implementation, &case.spec)
            .expect("cone baseline cannot fail on well-formed cases");
        let ds = deltasyn::rectify(&case.implementation, &case.spec)
            .expect("deltasyn baseline cannot fail on well-formed cases");
        let sy = engine
            .run(&case.implementation, &case.spec)
            .expect("syseco cannot fail on well-formed cases");
        let row = Table2Row {
            id: case.id,
            estimate: case.designer_estimate,
            commercial: PatchCell::from_result(&commercial, &case.spec),
            deltasyn: PatchCell::from_result(&ds, &case.spec),
            syseco: PatchCell::from_result(&sy, &case.spec),
        };
        progress(&format!(
            "case {:>2}: commercial {:>4}g {:>6.2?} | deltasyn {:>4}g {:>6.2?} | syseco {:>4}g {:>6.2?}{}{}",
            case.id,
            row.commercial.stats.gates,
            row.commercial.time,
            row.deltasyn.stats.gates,
            row.deltasyn.time,
            row.syseco.stats.gates,
            row.syseco.time,
            if row.syseco.verified { "" } else { "  [syseco UNVERIFIED]" },
            if row.deltasyn.verified { "" } else { "  [deltasyn UNVERIFIED]" },
        ));
        rows.push(row);
    }
    rows
}

/// Computes the average syseco/DeltaSyn reduction ratios.
///
/// Rows where the DeltaSyn attribute is zero are skipped for that
/// attribute (no meaningful ratio).
pub fn reduction_ratios(rows: &[Table2Row]) -> ReductionRatios {
    let mut acc = [0.0f64; 4];
    let mut cnt = [0usize; 4];
    for row in rows {
        let pairs = [
            (row.syseco.stats.inputs, row.deltasyn.stats.inputs),
            (row.syseco.stats.outputs, row.deltasyn.stats.outputs),
            (row.syseco.stats.gates, row.deltasyn.stats.gates),
            (row.syseco.stats.nets, row.deltasyn.stats.nets),
        ];
        for (k, (s, d)) in pairs.into_iter().enumerate() {
            if d > 0 {
                acc[k] += s as f64 / d as f64;
                cnt[k] += 1;
            }
        }
    }
    let avg = |k: usize| {
        if cnt[k] == 0 {
            0.0
        } else {
            acc[k] / cnt[k] as f64
        }
    };
    ReductionRatios {
        inputs: avg(0),
        outputs: avg(1),
        gates: avg(2),
        nets: avg(3),
    }
}

/// Renders Table 2 in the paper's column layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "Table 2: Patch attributes: designer estimate / commercial proxy / DeltaSyn / syseco.\n\
         | id | est |  commercial (in/out/g/n, time)  |   DeltaSyn (in/out/g/n, time)   |    syseco (in/out/g/n, time)    |\n\
         |----|-----|---------------------------------|---------------------------------|---------------------------------|\n",
    );
    let cell = |c: &PatchCell| {
        format!(
            "{:>4}/{:>4}/{:>4}/{:>4} {:>7.2?}{}",
            c.stats.inputs,
            c.stats.outputs,
            c.stats.gates,
            c.stats.nets,
            c.time,
            if c.verified { " " } else { "!" }
        )
    };
    for r in rows {
        out.push_str(&format!(
            "| {:>2} | {:>3} | {:>31} | {:>31} | {:>31} |\n",
            r.id,
            r.estimate,
            cell(&r.commercial),
            cell(&r.deltasyn),
            cell(&r.syseco)
        ));
    }
    let ratios = reduction_ratios(rows);
    out.push_str(&format!(
        "average reduction ratios relative to DeltaSyn: inputs {:.2}  outputs {:.2}  gates {:.2}  nets {:.2}\n",
        ratios.inputs, ratios.outputs, ratios.gates, ratios.nets
    ));
    out
}

/// One row of Table 3: patch size and slack impact.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Case id (12–15).
    pub id: u32,
    /// DeltaSyn patch gates.
    pub deltasyn_gates: usize,
    /// Post-patch worst slack with the DeltaSyn patch (ps).
    pub deltasyn_slack: f64,
    /// syseco patch gates.
    pub syseco_gates: usize,
    /// Post-patch worst slack with the syseco patch (ps).
    pub syseco_slack: f64,
}

/// Runs the Table 3 experiment: both engines on the timing cases, slack
/// measured against a clock set at the *original* implementation's critical
/// delay (so any deepening shows up as negative slack).
pub fn table3_rows(
    cases: &[EcoCase],
    options: &EcoOptions,
    mut progress: impl FnMut(&str),
) -> Vec<Table3Row> {
    let model = DelayModel::default();
    let mut sy_options = options.clone();
    sy_options.level_driven = true;
    let engine = Session::new(sy_options);
    let mut rows = Vec::with_capacity(cases.len());
    for case in cases {
        let probe = TimingReport::analyze(&case.implementation, &model, 0.0)
            .expect("acyclic implementation");
        let period = probe.critical_delay();
        let ds = deltasyn::rectify(&case.implementation, &case.spec)
            .expect("deltasyn baseline cannot fail");
        let sy = engine
            .run(&case.implementation, &case.spec)
            .expect("syseco cannot fail");
        let ds_slack = TimingReport::analyze(&ds.patched, &model, period)
            .expect("acyclic patched design")
            .worst_slack();
        let sy_slack = TimingReport::analyze(&sy.patched, &model, period)
            .expect("acyclic patched design")
            .worst_slack();
        let row = Table3Row {
            id: case.id,
            deltasyn_gates: ds.stats.gates,
            deltasyn_slack: ds_slack,
            syseco_gates: sy.stats.gates,
            syseco_slack: sy_slack,
        };
        progress(&format!(
            "case {:>2}: deltasyn {}g slack {:>7.1}ps | syseco {}g slack {:>7.1}ps",
            row.id, row.deltasyn_gates, row.deltasyn_slack, row.syseco_gates, row.syseco_slack
        ));
        rows.push(row);
    }
    rows
}

/// Renders Table 3 in the paper's column layout.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "Table 3: Rectification impact on design slack.\n\
         | id | DeltaSyn gates | DeltaSyn slack,ps | syseco gates | syseco slack,ps |\n\
         |----|----------------|-------------------|--------------|-----------------|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {:>2} | {:>14} | {:>17.1} | {:>12} | {:>15.1} |\n",
            r.id, r.deltasyn_gates, r.deltasyn_slack, r.syseco_gates, r.syseco_slack
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_workload::{build_case, CaseParams, RevisionKind};

    fn tiny_case() -> EcoCase {
        build_case(&CaseParams {
            id: 90,
            name: "tiny",
            seed: 7,
            input_words: 3,
            width: 3,
            logic_signals: 10,
            output_words: 3,
            revisions: vec![(0, RevisionKind::PolarityFlip)],
            heavy_optimization: true,
            aggressive_optimization: false,
        })
    }

    #[test]
    fn table1_rows_match_cases() {
        let cases = vec![tiny_case()];
        let rows = table1_rows(&cases);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, 90);
        assert!(rows[0].stats.gates > 0);
        let text = format_table1(&rows);
        assert!(text.contains("| 90 |"));
    }

    #[test]
    fn table2_runs_all_engines_verified() {
        let cases = vec![tiny_case()];
        let rows = table2_rows(&cases, &EcoOptions::with_seed(1), |_| {});
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.commercial.verified, "cone baseline must verify");
        assert!(r.deltasyn.verified, "deltasyn must verify");
        assert!(r.syseco.verified, "syseco must verify");
        // syseco should be no worse than the cone proxy on gates.
        assert!(r.syseco.stats.gates <= r.commercial.stats.gates);
        let text = format_table2(&rows);
        assert!(text.contains("average reduction ratios"));
    }

    #[test]
    fn table3_reports_slack() {
        let cases = vec![tiny_case()];
        let rows = table3_rows(&cases, &EcoOptions::with_seed(1), |_| {});
        assert_eq!(rows.len(), 1);
        let text = format_table3(&rows);
        assert!(text.contains("slack"));
    }

    #[test]
    fn ratios_skip_zero_denominators() {
        let zero = PatchCell {
            stats: PatchStats::default(),
            time: Duration::ZERO,
            verified: true,
        };
        let row = Table2Row {
            id: 1,
            estimate: 1,
            commercial: zero,
            deltasyn: zero,
            syseco: zero,
        };
        let r = reduction_ratios(&[row]);
        assert_eq!(r.gates, 0.0);
    }
}
