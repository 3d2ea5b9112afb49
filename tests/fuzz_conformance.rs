//! In-tree differential-fuzzing conformance run (DESIGN.md §12): five
//! hundred generated scenarios through the full cross-oracle matrix —
//! simulation, SAT CEC, BDD equivalence, rectification at one and four
//! workers, and periodic cache cold/warm replay — with zero disagreements
//! expected, plus the determinism guarantee behind `syseco-fuzz run`.

mod common;

use common::tmp_dir;
use eco_netlist::write_blif;
use syseco::fuzz::{generate, iteration_seed, FuzzConfig, FuzzRunner, ScenarioConfig};
use syseco::Counter;

#[test]
fn five_hundred_iterations_with_zero_disagreements() {
    let config = FuzzConfig {
        cache_every: 25,
        scratch_dir: Some(tmp_dir("fuzz-conformance")),
        ..FuzzConfig::default()
    };
    let runner = FuzzRunner::new(config);
    let report = runner
        .run(0xDAC_2019, 500, |_, _| {})
        .expect("fuzzing infrastructure stays healthy");
    assert_eq!(report.iterations, 500);
    assert_eq!(
        report.cache_checked, 20,
        "every 25th iteration also replays through the cache"
    );
    assert!(
        report.failures.is_empty(),
        "cross-oracle disagreements: {}",
        report
            .failures
            .iter()
            .flat_map(|f| f.disagreements.iter())
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn scenario_stream_is_deterministic_for_a_fixed_seed() {
    // The substrate of `syseco-fuzz run` determinism: the same run seed
    // derives the same scenario seeds and byte-identical circuit pairs.
    let config = ScenarioConfig::default();
    for i in [0u64, 1, 7, 63] {
        let seed = iteration_seed(0xF0CC, i);
        let a = generate(seed, &config).expect("generates");
        let b = generate(seed, &config).expect("generates");
        assert_eq!(write_blif(&a.implementation), write_blif(&b.implementation));
        assert_eq!(write_blif(&a.spec), write_blif(&b.spec));
        assert_eq!(a.delta.len(), b.delta.len());
    }
}

#[test]
fn fuzz_reports_are_reproducible() {
    let runner = FuzzRunner::new(FuzzConfig {
        cache_every: 0,
        ..FuzzConfig::default()
    });
    let mut ticks = Vec::new();
    let a = runner
        .run(42, 25, |done, fails| ticks.push((done, fails)))
        .expect("first run");
    let b = runner.run(42, 25, |_, _| {}).expect("second run");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.failures.len(), b.failures.len());
    assert_eq!(ticks.len(), 25, "progress fires once per iteration");
}

/// Prefilter soundness over two hundred fuzz scenarios: a candidate the
/// bit-parallel simulation screen rejects must never be SAT-validated as
/// `Valid` — the screen may only refuse candidates the oracle would also
/// refuse (DESIGN.md §16's "sound, never complete" contract).
#[test]
fn prefilter_screen_is_sound_across_two_hundred_scenarios() {
    use eco_netlist::NetId;
    use std::collections::{HashMap, HashSet};
    use syseco::correspond::Correspondence;
    use syseco::points::candidate_pins;
    use syseco::prefilter::{PrefilterBank, Screen};
    use syseco::rewire_nets::RewireCandidate;
    use syseco::validate::{validate_rewires_with_stats, CandidateRewire, Validation};

    // Tiny deterministic splitmix64 stream; no RNG dependency needed.
    struct Sm(u64);
    impl Sm {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    let config = ScenarioConfig::default();
    let mut screened_total = 0u64;
    let mut passed_total = 0u64;
    for i in 0..200u64 {
        let seed = iteration_seed(0x5C4EE4, i);
        let sc = generate(seed, &config).expect("scenario generates");
        let im = &sc.implementation;
        let sp = &sc.spec;
        let corr = match Correspondence::build(im, sp) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let mut rng = Sm(seed ^ 0xA5A5);
        // 48 samples: not a multiple of 64, so the tail-bit mask of the
        // final simulation block is exercised on every scenario.
        let samples: Vec<Vec<bool>> = (0..48)
            .map(|_| (0..im.num_inputs()).map(|_| rng.next() & 1 == 1).collect())
            .collect();
        let pair = &corr.outputs[rng.below(corr.outputs.len())];
        let root = im.outputs()[pair.impl_index as usize].net();
        let pf = PrefilterBank::build(sp, &corr, pair, &samples).expect("bank builds");
        let pins = candidate_pins(im, root, pair.impl_index, 16);
        if pins.is_empty() {
            continue;
        }
        // Treat every output as failing: the damage rule then prunes
        // nothing, making `Valid` as permissive as possible — the hardest
        // setting for a soundness claim about the screen.
        let failing: HashSet<u32> = (0..im.outputs().len() as u32).collect();
        let no_clones: HashMap<NetId, NetId> = HashMap::new();
        for _ in 0..6 {
            let pin = pins[rng.below(pins.len())];
            let net = NetId::from_index(rng.below(im.num_nodes()));
            let rewires = vec![CandidateRewire {
                pin,
                candidate: RewireCandidate {
                    net,
                    from_spec: false,
                    utility: 0.0,
                    arrival: 0.0,
                },
            }];
            let verdict = match pf.screen(im, sp, &rewires, pair) {
                Ok(v) => v,
                // A random net index may reference a dead node the fuzz
                // mutator left behind; validation rejects those the same
                // way, so they carry no soundness signal.
                Err(_) => continue,
            };
            match verdict {
                Screen::Screened => screened_total += 1,
                Screen::Pass => {
                    passed_total += 1;
                    continue;
                }
            }
            let (validation, _) = validate_rewires_with_stats(
                im, sp, &corr, &rewires, pair, &failing, &samples, &no_clones, 100_000, None,
            )
            .expect("validation runs");
            assert!(
                !matches!(validation, Validation::Valid { .. }),
                "screened candidate validated as Valid (scenario {i}, pin {pin:?}, net {net:?})"
            );
        }
    }
    assert!(screened_total > 0, "the sweep never screened a candidate");
    assert!(passed_total > 0, "the sweep never passed a candidate");
}

/// The engine's prefilter accounting must reconcile on real runs: every
/// screened or passed candidate was first counted as a choice, and only
/// passed candidates consume SAT-validation slots.
#[test]
fn prefilter_counters_reconcile_with_search_accounting() {
    use syseco::{EcoOptions, Session};

    let config = ScenarioConfig::default();
    let mut screened_anywhere = 0u64;
    for i in 0..25u64 {
        let seed = iteration_seed(0xC0FFEE, i);
        let sc = generate(seed, &config).expect("scenario generates");
        let result = Session::new(EcoOptions::with_seed(seed ^ 1))
            .run(&sc.implementation, &sc.spec)
            .expect("rectification succeeds");
        let st = &result.rectify.counters;
        assert!(
            st[Counter::PrefilterScreened] + st[Counter::PrefilterPassed]
                <= st[Counter::RectifyChoices],
            "scenario {i}: screened {} + passed {} exceeds choices {}",
            st[Counter::PrefilterScreened],
            st[Counter::PrefilterPassed],
            st[Counter::RectifyChoices]
        );
        assert!(
            st[Counter::PrefilterPassed] <= st[Counter::RectifyValidations],
            "scenario {i}: passed {} exceeds validations {}",
            st[Counter::PrefilterPassed],
            st[Counter::RectifyValidations]
        );
        screened_anywhere += st[Counter::PrefilterScreened];
    }
    assert!(
        screened_anywhere > 0,
        "twenty-five fuzz rectifications never screened a single candidate"
    );
}
