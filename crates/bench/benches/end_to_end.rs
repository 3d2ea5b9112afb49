//! End-to-end Criterion benchmarks: full rectification runs per engine on a
//! generated suite case (the per-case timing column of Table 2).

use criterion::{criterion_group, criterion_main, Criterion};
use eco_workload::{build_case, table1_params};
use syseco::baseline::{cone, deltasyn};
use syseco::{EcoOptions, Session};

fn bench_engines(c: &mut Criterion) {
    // Case 5: the smallest suite member, fits Criterion's sampling budget.
    let case = build_case(&table1_params()[4]);
    let mut group = c.benchmark_group("end_to_end_case5");
    group.sample_size(10);

    group.bench_function("commercial_cone", |b| {
        b.iter(|| std::hint::black_box(cone::rectify(&case.implementation, &case.spec).unwrap()))
    });
    group.bench_function("deltasyn", |b| {
        b.iter(|| {
            std::hint::black_box(deltasyn::rectify(&case.implementation, &case.spec).unwrap())
        })
    });
    group.bench_function("syseco", |b| {
        let engine = Session::new(EcoOptions::default());
        b.iter(|| std::hint::black_box(engine.run(&case.implementation, &case.spec).unwrap()))
    });
    group.finish();
}

fn bench_sampling_sizes(c: &mut Criterion) {
    // The runtime side of ablation A.
    let case = build_case(&table1_params()[4]);
    let mut group = c.benchmark_group("syseco_sampling_size_case5");
    group.sample_size(10);
    for n in [16usize, 64, 256] {
        group.bench_function(format!("N={n}"), |b| {
            let options = EcoOptions::builder().num_samples(n).build();
            let engine = Session::new(options);
            b.iter(|| std::hint::black_box(engine.run(&case.implementation, &case.spec).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_sampling_sizes);
criterion_main!(benches);
