//! Persistent-cache warm-start benchmark on the revision-chain workload.
//!
//! ```text
//! cargo run --release -p syseco-bench --bin warm_start -- [out.json]
//! ```
//!
//! Runs the chain cases (ids 17–19: one implementation, cumulatively
//! revised specs) three ways and records the result in `BENCH_cache.json`
//! (default) or the given path:
//!
//! * **cold** — every pass starts from an empty cache directory, so each
//!   step pays the full symbolic-sampling search (steps after the first
//!   may still warm-start from records the pass itself just wrote — that
//!   incremental reuse is reported as `first_visit_hits`);
//! * **warm** — the same passes against the populated cache, where every
//!   step short-circuits to its re-verified run record;
//! * **off** — `CacheMode::Off` with a cache directory configured, which
//!   must leave no files behind and report all-zero cache statistics.
//!
//! Patches are asserted byte-identical across all three modes, and
//! wall-clocks are the median of [`RUNS`] passes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eco_netlist::write_blif;
use eco_workload::EcoCase;
use syseco::{CacheMode, Counter, EcoOptions, EcoResult, Session};

const RUNS: usize = 3;
const SEED: u64 = 17;

fn rectify(case: &EcoCase, dir: Option<&Path>, mode: CacheMode) -> EcoResult {
    let mut builder = EcoOptions::builder().seed(SEED).jobs(1);
    if let Some(dir) = dir {
        builder = builder.cache_dir(dir).cache_mode(mode);
    }
    Session::new(builder.build())
        .run(&case.implementation, &case.spec)
        .expect("rectification failed")
}

/// Runs every chain step against `dir`, returning the pass wall-clock and
/// the per-step results.
fn pass(cases: &[EcoCase], dir: &Path) -> (Duration, Vec<EcoResult>) {
    let t0 = Instant::now();
    let results = cases
        .iter()
        .map(|case| rectify(case, Some(dir), CacheMode::ReadWrite))
        .collect();
    (t0.elapsed(), results)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_cache.json".to_string());
    let dir: PathBuf = std::env::temp_dir().join(format!("eco-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("building revision chain (ids 17-19)…");
    let cases = eco_workload::chain_cases();

    // Reference pass: no cache at all, also the warm-up.
    let reference: Vec<String> = cases
        .iter()
        .map(|case| write_blif(&rectify(case, None, CacheMode::Off).patched))
        .collect();

    let hits = |r: &EcoResult| r.rectify.counters[Counter::CacheHits];

    // Cold passes: each starts from an empty directory and populates it.
    let mut cold_samples = Vec::new();
    let mut first_visit_hits = 0u64;
    for _ in 0..RUNS {
        let _ = std::fs::remove_dir_all(&dir);
        let (elapsed, results) = pass(&cases, &dir);
        first_visit_hits = results.iter().map(hits).sum();
        for (r, blif) in results.iter().zip(&reference) {
            assert_eq!(&write_blif(&r.patched), blif, "cold patch differs");
        }
        cold_samples.push(elapsed);
    }

    // Warm passes against the directory the last cold pass populated.
    let mut warm_samples = Vec::new();
    let mut warm_hits = 0u64;
    let mut warm_misses = 0u64;
    for _ in 0..RUNS {
        let (elapsed, results) = pass(&cases, &dir);
        warm_hits = results.iter().map(hits).sum();
        warm_misses = results
            .iter()
            .map(|r| r.rectify.counters[Counter::CacheMisses])
            .sum();
        for (step, (r, blif)) in results.iter().zip(&reference).enumerate() {
            assert_eq!(&write_blif(&r.patched), blif, "warm patch differs");
            assert!(hits(r) > 0, "step {step} did not hit");
        }
        warm_samples.push(elapsed);
    }
    assert!(warm_hits > 0);

    // CacheMode::Off with a directory configured must be a strict no-op.
    let off_dir = dir.with_extension("off");
    let _ = std::fs::remove_dir_all(&off_dir);
    let off = rectify(&cases[0], Some(&off_dir), CacheMode::Off);
    assert!(!off_dir.exists(), "cache=off created {}", off_dir.display());
    let off_counts = &off.rectify.counters;
    assert_eq!(off_counts[Counter::CacheHits], 0);
    assert_eq!(off_counts[Counter::CacheMisses], 0);
    assert_eq!(off_counts[Counter::CacheVerifyRejects], 0);
    assert_eq!(off_counts[Counter::CacheCorruptSegments], 0);
    assert_eq!(write_blif(&off.patched), reference[0]);

    cold_samples.sort();
    warm_samples.sort();
    let cold = cold_samples[RUNS / 2];
    let warm = warm_samples[RUNS / 2];
    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    eprintln!(
        "cold median {cold:.2?}, warm median {warm:.2?} ({speedup:.2}x), \
         warm hits {warm_hits}, first-visit hits {first_visit_hits}"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"workload\": \"revision chain (ids 17-19, shared implementation)\",\n");
    json.push_str(&format!("  \"chain_steps\": {},\n", cases.len()));
    json.push_str(&format!("  \"timed_passes_per_point\": {RUNS},\n"));
    json.push_str(&format!(
        "  \"cold_median_wall_clock_s\": {:.6},\n",
        cold.as_secs_f64()
    ));
    json.push_str(&format!(
        "  \"warm_median_wall_clock_s\": {:.6},\n",
        warm.as_secs_f64()
    ));
    json.push_str(&format!("  \"warm_speedup\": {speedup:.3},\n"));
    json.push_str(&format!("  \"warm_cache_hits\": {warm_hits},\n"));
    json.push_str(&format!("  \"warm_cache_misses\": {warm_misses},\n"));
    json.push_str(&format!("  \"first_visit_hits\": {first_visit_hits},\n"));
    json.push_str("  \"warm_patches_byte_identical_to_cold\": true,\n");
    json.push_str("  \"cache_off_is_no_op\": true,\n");
    json.push_str(
        "  \"note\": \"Cold passes rebuild the cache from an empty directory; warm \
         passes replay stored run records after SAT re-verification, skipping the \
         per-output symbolic-sampling searches. first_visit_hits counts per-output \
         records reused across chain steps within a single cold pass (the chain \
         shares one implementation, so unchanged failing cones hit on their first \
         visit). Patches are verified byte-identical in every mode.\"\n",
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("wrote {out_path}");
}
