//! Property tests for resource-governed execution: a tiny wall-clock budget
//! over generated workload pairs must degrade gracefully — no panics, a
//! prompt return, an honest degradation report, and a patch that is still
//! fully verified (the output-rewire fallback guarantees completeness).

use std::time::{Duration, Instant};

use eco_workload::{build_case, CaseParams, RevisionKind};
use proptest::prelude::*;
use syseco::{
    verify_rectification, Counter, DegradeReason, EcoOptions, OutputAction, RectifyStats, Session,
};

fn revision_kind() -> impl Strategy<Value = RevisionKind> {
    prop_oneof![
        Just(RevisionKind::GateTermAdded),
        Just(RevisionKind::MuxBranchSwap),
        Just(RevisionKind::ConditionFlip),
        Just(RevisionKind::PolarityFlip),
        Just(RevisionKind::SingleBitFlip),
        Just(RevisionKind::SparseTrigger),
    ]
}

/// Small generator pairs: big enough for the search to do real work, small
/// enough that one proptest case stays in the hundreds of milliseconds.
fn params() -> impl Strategy<Value = CaseParams> {
    (
        any::<u64>(),
        2usize..=3,
        2u32..=3,
        3usize..=6,
        1usize..=2,
        revision_kind(),
    )
        .prop_map(
            |(seed, input_words, width, logic_signals, output_words, kind)| CaseParams {
                id: 9000,
                name: "prop-degradation",
                seed,
                input_words,
                width,
                logic_signals,
                output_words,
                revisions: vec![(0, kind)],
                heavy_optimization: false,
                aggressive_optimization: false,
            },
        )
}

/// The fallback path's bookkeeping: one `per_output` entry per output,
/// every degraded output rectified by a fallback or a cut-short rewire, and
/// the outcome counters agreeing with the degradation list.
fn assert_fallback_bookkeeping(stats: &RectifyStats) {
    let mut names = std::collections::HashSet::new();
    for t in &stats.per_output {
        assert!(
            names.insert(t.output.clone()),
            "duplicate per_output entry for {:?}",
            t.output
        );
    }
    for d in &stats.degradations {
        let action = stats
            .per_output
            .iter()
            .find(|t| t.output == d.output)
            .map(|t| t.action);
        assert!(
            matches!(action, Some(OutputAction::Fallback | OutputAction::Rewired)),
            "degraded output {:?} has action {action:?}",
            d.output
        );
    }
    assert_eq!(
        stats.counters[Counter::RectifyDegradations],
        stats.degradations.len() as u64
    );
    let conflicts = stats
        .degradations
        .iter()
        .filter(|d| matches!(d.reason, DegradeReason::MergeConflict))
        .count();
    assert_eq!(
        stats.counters[Counter::RectifyMergeConflicts],
        conflicts as u64
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tiny_budget_degrades_gracefully(params in params()) {
        let case = build_case(&params);
        let deadline = Duration::from_millis(400);
        let mut options = EcoOptions::with_seed(params.seed ^ 0xD06);
        options.timeout = Some(deadline);
        let t0 = Instant::now();
        let result = Session::new(options)
            .run(&case.implementation, &case.spec)
            .expect("a governed run degrades instead of failing");
        let elapsed = t0.elapsed();
        // "Within ~2x the deadline": the grace term absorbs the final
        // (amortized) poll interval and slow CI machines.
        prop_assert!(
            elapsed <= deadline * 2 + Duration::from_millis(1500),
            "governed run overshot its deadline: {elapsed:?}"
        );
        // Honesty: every degradation names a real output, at most once.
        let mut seen = std::collections::HashSet::new();
        for d in &result.rectify.degradations {
            prop_assert!(
                case.spec.output_by_name(&d.output).is_some(),
                "degradation names unknown output {:?}",
                d.output
            );
            prop_assert!(
                seen.insert(d.output.clone()),
                "duplicate degradation for output {:?}",
                d.output
            );
        }
        assert_fallback_bookkeeping(&result.rectify);
        // Every output the run claims rectified must actually be
        // equivalent: the fallback keeps even a cut-short run complete.
        prop_assert!(verify_rectification(&result.patched, &case.spec).unwrap());
        result.patched.check_well_formed().unwrap();

        // A spent budget sends every failing output down the fallback
        // path, so its bookkeeping is checked on every case.
        let mut spent = EcoOptions::with_seed(params.seed ^ 0xD06);
        spent.timeout = Some(Duration::ZERO);
        let result = Session::new(spent)
            .run(&case.implementation, &case.spec)
            .expect("a spent budget degrades instead of failing");
        assert_fallback_bookkeeping(&result.rectify);
        prop_assert!(verify_rectification(&result.patched, &case.spec).unwrap());
    }

    #[test]
    fn unlimited_budget_reports_no_degradations(seed in any::<u64>()) {
        let params = CaseParams {
            id: 9001,
            name: "prop-clean",
            seed,
            input_words: 2,
            width: 2,
            logic_signals: 3,
            output_words: 1,
            revisions: vec![(0, RevisionKind::SingleBitFlip)],
            heavy_optimization: false,
            aggressive_optimization: false,
        };
        let case = build_case(&params);
        let result = Session::new(EcoOptions::with_seed(seed))
            .run(&case.implementation, &case.spec)
            .expect("rectification succeeds");
        prop_assert!(result.rectify.degradations.is_empty());
        prop_assert!(verify_rectification(&result.patched, &case.spec).unwrap());
    }
}
