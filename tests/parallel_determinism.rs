//! Determinism across worker counts: the scheduler partitions per-output
//! searches over a thread pool, but seeds each cone from the run seed and
//! merges in a fixed order, so `jobs = 1` and `jobs = 8` must produce
//! byte-identical patched netlists, identical rewire lists, and identical
//! statistics (modulo wall-clock, which `RectifyStats::normalized` zeroes).

mod common;

use common::case_params;
use eco_netlist::write_blif;
use eco_workload::{build_case, CaseParams};
use proptest::prelude::*;
use syseco::{verify_rectification, EcoOptions, Session};

/// Multi-output generator pairs: wide enough that the pool has several
/// failing cones to schedule, small enough for quick proptest cases.
fn params() -> impl Strategy<Value = CaseParams> {
    case_params(9100, "prop-parallel")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn jobs_do_not_change_the_result(params in params()) {
        let case = build_case(&params);
        let run = |jobs: usize| {
            let options = EcoOptions::builder()
                .seed(params.seed ^ 0x9A12)
                .jobs(jobs)
                .build();
            Session::new(options)
                .run(&case.implementation, &case.spec)
                .expect("rectification succeeds")
        };
        let serial = run(1);
        let wide = run(8);
        prop_assert_eq!(
            write_blif(&serial.patched),
            write_blif(&wide.patched),
            "patched netlists must be byte-identical across worker counts"
        );
        prop_assert_eq!(
            format!("{:?}", serial.patch.rewires()),
            format!("{:?}", wide.patch.rewires())
        );
        prop_assert_eq!(
            format!("{:?}", serial.rectify.normalized()),
            format!("{:?}", wide.rectify.normalized())
        );
        prop_assert!(verify_rectification(&serial.patched, &case.spec).unwrap());
    }
}
