//! Crash-safe checkpoint/resume properties (DESIGN.md §13): a rerun over a
//! populated checkpoint directory resumes every completed output, skips no
//! verification, and reproduces the uninterrupted patch byte-for-byte at
//! any worker count; corrupted checkpoint records degrade to fresh
//! searches, never wrong answers. With `--features fault-injection`, a run
//! killed at every enumerated fault point must resume to the same bytes.

mod common;

use common::{case_params, tmp_dir};
use eco_netlist::write_blif;
use eco_workload::{build_case, CaseParams, RevisionKind};
use proptest::prelude::*;
use syseco::{verify_rectification, Counter, EcoOptions, EcoResult, Session};

fn multi_output_params() -> CaseParams {
    CaseParams {
        id: 9600,
        name: "ckpt-resume",
        seed: 0xC4EC,
        input_words: 3,
        width: 3,
        logic_signals: 8,
        output_words: 3,
        revisions: vec![
            (0, RevisionKind::PolarityFlip),
            (1, RevisionKind::ConditionFlip),
            (2, RevisionKind::SingleBitFlip),
        ],
        heavy_optimization: false,
        aggressive_optimization: false,
    }
}

fn run_checkpointed(
    case: &eco_workload::EcoCase,
    seed: u64,
    jobs: usize,
    dir: Option<&std::path::Path>,
) -> EcoResult {
    let mut builder = EcoOptions::builder().seed(seed).jobs(jobs);
    if let Some(dir) = dir {
        builder = builder.checkpoint_dir(dir.to_path_buf());
    }
    Session::new(builder.build())
        .run(&case.implementation, &case.spec)
        .expect("rectification succeeds")
}

#[test]
fn rerun_resumes_completed_outputs_byte_identically() {
    let case = build_case(&multi_output_params());
    let dir = tmp_dir("ckpt-rerun");
    let reference = run_checkpointed(&case, 0xC4EC, 1, None);

    let cold = run_checkpointed(&case, 0xC4EC, 1, Some(&dir));
    assert_eq!(
        cold.rectify.counters[Counter::CheckpointHits],
        0,
        "first run cannot resume"
    );
    assert!(
        cold.rectify.counters[Counter::CheckpointWrites] > 0,
        "first run must record completed outputs: {:?}",
        cold.rectify
    );
    assert_eq!(
        write_blif(&cold.patched),
        write_blif(&reference.patched),
        "checkpointing must not change the answer"
    );

    // Reruns — the crash-recovery path in the limit of a crash after the
    // last output — resume everything and write nothing, at any job count.
    for jobs in [1usize, 4] {
        let resumed = run_checkpointed(&case, 0xC4EC, jobs, Some(&dir));
        assert_eq!(
            resumed.rectify.counters[Counter::CheckpointHits],
            cold.rectify.counters[Counter::CheckpointWrites],
            "every recorded output resumes (jobs={jobs}): {:?}",
            resumed.rectify
        );
        assert_eq!(
            resumed.rectify.counters[Counter::CheckpointWrites],
            0,
            "a fully resumed run re-records nothing (jobs={jobs})"
        );
        assert_eq!(
            write_blif(&resumed.patched),
            write_blif(&reference.patched),
            "resumed patch must be byte-identical (jobs={jobs})"
        );
        assert!(verify_rectification(&resumed.patched, &case.spec).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checkpoint_degrades_to_fresh_searches() {
    let case = build_case(&multi_output_params());
    let dir = tmp_dir("ckpt-corrupt");
    let cold = run_checkpointed(&case, 0xC4EC, 1, Some(&dir));
    assert!(cold.rectify.counters[Counter::CheckpointWrites] > 0);

    // Flip every byte of every committed checkpoint segment.
    let mut corrupted = 0usize;
    for entry in std::fs::read_dir(&dir).expect("checkpoint dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "ecc") {
            let mut bytes = std::fs::read(&path).expect("read segment");
            for b in &mut bytes {
                *b ^= 0x5A;
            }
            std::fs::write(&path, bytes).expect("write segment");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the cold run must have committed segments");

    let rerun = run_checkpointed(&case, 0xC4EC, 1, Some(&dir));
    assert_eq!(
        rerun.rectify.counters[Counter::CheckpointHits],
        0,
        "corrupted records must not be served"
    );
    assert!(
        rerun.rectify.counters[Counter::CacheCorruptSegments] > 0,
        "corruption must be counted: {:?}",
        rerun.rectify
    );
    assert_eq!(
        write_blif(&rerun.patched),
        write_blif(&cold.patched),
        "corruption must not change the result"
    );
    assert!(verify_rectification(&rerun.patched, &case.spec).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_key_on_the_revision_pair() {
    // A different spec revision against the same checkpoint directory must
    // not resume the other revision's records.
    let case_a = build_case(&multi_output_params());
    let case_b = build_case(&CaseParams {
        revisions: vec![(0, RevisionKind::ConditionFlip)],
        ..multi_output_params()
    });
    let dir = tmp_dir("ckpt-keys");
    let a = run_checkpointed(&case_a, 0xC4EC, 1, Some(&dir));
    assert!(a.rectify.counters[Counter::CheckpointWrites] > 0);
    let b = run_checkpointed(&case_b, 0xC4EC, 1, Some(&dir));
    assert_eq!(
        b.rectify.counters[Counter::CheckpointHits],
        0,
        "records of a different revision pair must not resume"
    );
    assert!(verify_rectification(&b.patched, &case_b.spec).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the run at **every** enumerated span fault point in turn, then
/// resume from the same checkpoint directory without faults: the final
/// patched netlist must be byte-identical to an uninterrupted run's, at
/// one and four workers.
#[cfg(feature = "fault-injection")]
#[test]
fn killed_at_every_fault_point_resumes_byte_identically() {
    use syseco::{Budget, EcoError, FaultPlan, SpanPoint};

    let case = build_case(&multi_output_params());
    for jobs in [1usize, 4] {
        let options = EcoOptions::builder().seed(0xC4EC).jobs(jobs).build();
        let reference = Session::new(options)
            .run(&case.implementation, &case.spec)
            .expect("uninterrupted run succeeds");
        let reference = write_blif(&reference.patched);

        for point in SpanPoint::ALL {
            let dir = tmp_dir(&format!("ckpt-kill-{point}-j{jobs}"));
            let options = EcoOptions::builder()
                .seed(0xC4EC)
                .jobs(jobs)
                .checkpoint_dir(&dir)
                .build();
            let plan = FaultPlan::parse(&format!("abort:{point}@1")).unwrap();
            let session = Session::new(options.clone());
            match session.run_with_budget(
                &case.implementation,
                &case.spec,
                &Budget::unlimited().with_fault_plan(plan),
            ) {
                // The point was reached: the run "crashed" there. Durable
                // state must carry a faultless rerun to the same bytes.
                Err(EcoError::InjectedAbort) => {
                    let resumed = session
                        .run_with_budget(&case.implementation, &case.spec, &Budget::unlimited())
                        .unwrap_or_else(|e| {
                            panic!("resume after abort:{point} (jobs={jobs}) failed: {e}")
                        });
                    assert_eq!(
                        write_blif(&resumed.patched),
                        reference,
                        "resume after abort:{point} diverged (jobs={jobs})"
                    );
                    assert!(verify_rectification(&resumed.patched, &case.spec).unwrap());
                }
                // The point was never reached on this workload (e.g. a
                // span that only opens on larger runs): same bytes anyway.
                Ok(result) => {
                    assert_eq!(
                        write_blif(&result.patched),
                        reference,
                        "unfired abort:{point} changed the result (jobs={jobs})"
                    );
                }
                Err(e) => panic!("abort:{point} (jobs={jobs}) errored unexpectedly: {e}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The BDD engine's own fault point: abort injected through the manager's
/// event hook at the first garbage-collection pass. Arming it forces the
/// manager's GC threshold low so the faulted machinery genuinely runs; the
/// veto surfaces as the same simulated crash as a span abort, and a
/// faultless rerun over the surviving checkpoints must reproduce the
/// uninterrupted bytes.
#[cfg(feature = "fault-injection")]
#[test]
fn killed_inside_bdd_gc_resumes_byte_identically() {
    use syseco::{Budget, EcoError, FaultPlan};

    let case = build_case(&multi_output_params());
    for jobs in [1usize, 4] {
        let options = EcoOptions::builder().seed(0xC4EC).jobs(jobs).build();
        let reference = Session::new(options)
            .run(&case.implementation, &case.spec)
            .expect("uninterrupted run succeeds");
        let reference = write_blif(&reference.patched);

        let dir = tmp_dir(&format!("ckpt-kill-bdd-gc-j{jobs}"));
        let options = EcoOptions::builder()
            .seed(0xC4EC)
            .jobs(jobs)
            .checkpoint_dir(&dir)
            .build();
        let plan = FaultPlan::parse("bdd-gc@1").unwrap();
        let session = Session::new(options);
        match session.run_with_budget(
            &case.implementation,
            &case.spec,
            &Budget::unlimited().with_fault_plan(plan),
        ) {
            Err(EcoError::InjectedAbort) => {
                let resumed = session
                    .run_with_budget(&case.implementation, &case.spec, &Budget::unlimited())
                    .unwrap_or_else(|e| panic!("resume after bdd-gc@1 (jobs={jobs}) failed: {e}"));
                assert_eq!(
                    write_blif(&resumed.patched),
                    reference,
                    "resume after bdd-gc@1 diverged (jobs={jobs})"
                );
                assert!(verify_rectification(&resumed.patched, &case.spec).unwrap());
            }
            other => panic!(
                "armed bdd-gc@1 must reach its forced-threshold event and abort \
                 (jobs={jobs}); got {other:?}"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint/resume determinism over generated cases: populate, then
    /// rerun at one and four workers — always the cold run's bytes.
    #[test]
    fn generated_cases_resume_deterministically(params in case_params(9601, "prop-ckpt")) {
        let case = build_case(&params);
        let dir = tmp_dir(&format!("ckpt-prop-{:016x}", params.seed));
        let cold = run_checkpointed(&case, params.seed ^ 0xCC, 1, Some(&dir));
        for jobs in [1usize, 4] {
            let resumed = run_checkpointed(&case, params.seed ^ 0xCC, jobs, Some(&dir));
            prop_assert_eq!(
                write_blif(&resumed.patched),
                write_blif(&cold.patched),
                "resumed patch diverged (jobs={})", jobs
            );
            prop_assert_eq!(resumed.rectify.counters[Counter::CheckpointWrites], 0);
        }
        prop_assert!(verify_rectification(&cold.patched, &case.spec).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
