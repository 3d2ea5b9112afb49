//! Cross-engine integration: all three engines on the same cases, checking
//! correctness everywhere and the paper's qualitative ordering — syseco
//! patches no larger than the cone proxy, and smaller than DeltaSyn on
//! structurally dissimilar implementations.

use eco_workload::{build_case, table1_params};
use syseco::baseline::{cone, deltasyn};
use syseco::{verify_rectification, EcoOptions, Session};

#[test]
fn all_engines_correct_on_case5() {
    let case = build_case(&table1_params()[4]);
    let commercial = cone::rectify(&case.implementation, &case.spec).unwrap();
    let ds = deltasyn::rectify(&case.implementation, &case.spec).unwrap();
    let sy = Session::new(EcoOptions::default())
        .run(&case.implementation, &case.spec)
        .unwrap();
    for (name, r) in [("cone", &commercial), ("deltasyn", &ds), ("syseco", &sy)] {
        assert!(
            verify_rectification(&r.patched, &case.spec).unwrap(),
            "{name} must produce a correct patch"
        );
    }
    assert!(
        sy.stats.gates <= commercial.stats.gates,
        "syseco ({}) must not exceed the cone proxy ({})",
        sy.stats.gates,
        commercial.stats.gates
    );
    assert!(
        sy.stats.gates <= ds.stats.gates,
        "syseco ({}) must not exceed DeltaSyn ({}) on optimized designs",
        sy.stats.gates,
        ds.stats.gates
    );
}

#[test]
fn deltasyn_beats_cone_on_unoptimized_designs() {
    // When the implementation is only lightly optimized, structural
    // matching works and DeltaSyn's patch is smaller than a full cone copy.
    let mut params = table1_params()[4].clone();
    params.heavy_optimization = false;
    let case = build_case(&params);
    let commercial = cone::rectify(&case.implementation, &case.spec).unwrap();
    let ds = deltasyn::rectify(&case.implementation, &case.spec).unwrap();
    assert!(verify_rectification(&ds.patched, &case.spec).unwrap());
    assert!(
        ds.stats.gates <= commercial.stats.gates,
        "deltasyn ({}) should reuse matched structure vs cone ({})",
        ds.stats.gates,
        commercial.stats.gates
    );
}

#[test]
fn optimization_hurts_deltasyn_more_than_syseco() {
    // The central claim: structural dissimilarity inflates structural
    // engines but not the functional one.
    let mut light_params = table1_params()[4].clone();
    light_params.heavy_optimization = false;
    let light = build_case(&light_params);
    let heavy = build_case(&table1_params()[4]);

    let ds_light = deltasyn::rectify(&light.implementation, &light.spec).unwrap();
    let ds_heavy = deltasyn::rectify(&heavy.implementation, &heavy.spec).unwrap();
    let sy_heavy = Session::new(EcoOptions::default())
        .run(&heavy.implementation, &heavy.spec)
        .unwrap();

    assert!(
        ds_heavy.stats.gates >= ds_light.stats.gates,
        "heavy optimization should not shrink the DeltaSyn patch \
         (light {}, heavy {})",
        ds_light.stats.gates,
        ds_heavy.stats.gates
    );
    assert!(
        sy_heavy.stats.gates <= ds_heavy.stats.gates,
        "on the optimized design syseco ({}) must beat DeltaSyn ({})",
        sy_heavy.stats.gates,
        ds_heavy.stats.gates
    );
}
