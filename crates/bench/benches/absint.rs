//! Throughput of the interprocedural abstract interpreter: the full
//! module analysis (the `rangeopt` and lint front-end) and the static
//! feature extraction that rides in every RL state when
//! `EnvConfig::static_features` is on.

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl_analyze::{absint, IncrementalAnalysisManager};
use posetrl_bench::bench_module;
use std::hint::black_box;

fn bench_analyze_module(c: &mut Criterion) {
    let m = bench_module(5);
    c.bench_function("absint_analyze_module", |b| {
        b.iter(|| black_box(absint::analyze_module(black_box(&m))))
    });
}

/// Incremental-vs-full: the same module analysis through a warmed
/// [`IncrementalAnalysisManager`], so every `analyze_function` leaf is a
/// per-function memo hit. Compare against `absint_analyze_module` (the
/// from-scratch path) — the results are bit-identical.
fn bench_analyze_module_incremental(c: &mut Criterion) {
    let m = bench_module(5);
    let mgr = IncrementalAnalysisManager::new();
    let full = absint::analyze_module(&m);
    let warm = absint::analyze_module_with(&m, Some(&mgr));
    assert_eq!(full, warm, "incremental analysis must be bit-identical");
    c.bench_function("absint_analyze_module_incremental_warm", |b| {
        b.iter(|| black_box(absint::analyze_module_with(black_box(&m), Some(&mgr))))
    });
    eprintln!("[absint] {:?}", mgr.stats());
}

fn bench_features(c: &mut Criterion) {
    let m = bench_module(6);
    c.bench_function("absint_module_features", |b| {
        b.iter(|| black_box(absint::features::module_features(black_box(&m))))
    });
}

fn bench_lints(c: &mut Criterion) {
    let m = bench_module(7);
    let mi = absint::analyze_module(&m);
    c.bench_function("absint_lint_with", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            absint::lint_with(black_box(&m), black_box(&mi), &mut out);
            black_box(out.len())
        })
    });
}

criterion_group!(
    benches,
    bench_analyze_module,
    bench_analyze_module_incremental,
    bench_features,
    bench_lints
);
criterion_main!(benches);
