//! Throughput of the loop data-dependence analysis: the full module
//! pass (the front-end of the depend lints and feature dims 48–55) and
//! the same analysis through a warmed incremental manager, where every
//! per-function leaf is a memo hit.

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl_analyze::{depend, IncrementalAnalysisManager};
use posetrl_bench::bench_module;
use std::hint::black_box;

fn bench_analyze_module(c: &mut Criterion) {
    let m = bench_module(5);
    c.bench_function("depend_analyze_module", |b| {
        b.iter(|| black_box(depend::analyze_module(black_box(&m))))
    });
}

/// Incremental-vs-full: compare against `depend_analyze_module` (the
/// from-scratch path) — the results are bit-identical by contract, and
/// the warm path also serves the scev and alias inputs from their own
/// memo classes.
fn bench_analyze_module_incremental(c: &mut Criterion) {
    let m = bench_module(5);
    let mgr = IncrementalAnalysisManager::new();
    let full = depend::analyze_module(&m);
    let warm = depend::analyze_module_with(&m, Some(&mgr));
    assert_eq!(full, warm, "incremental analysis must be bit-identical");
    c.bench_function("depend_analyze_module_incremental_warm", |b| {
        b.iter(|| black_box(depend::analyze_module_with(black_box(&m), Some(&mgr))))
    });
    eprintln!("[depend] {:?}", mgr.stats());
}

fn bench_lints(c: &mut Criterion) {
    let m = bench_module(7);
    c.bench_function("depend_check", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            depend::check(black_box(&m), &mut out);
            black_box(out.len())
        })
    });
}

criterion_group!(
    benches,
    bench_analyze_module,
    bench_analyze_module_incremental,
    bench_lints
);
criterion_main!(benches);
