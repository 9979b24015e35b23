//! Throughput of the loop data-dependence analysis: the full module
//! pass (the front-end of the depend lints and feature dims 48–55) and
//! the same analysis through a warmed incremental manager, where every
//! per-function leaf is a memo hit.

use criterion::{criterion_group, criterion_main, Criterion};
use posetrl_analyze::{depend, IncrementalAnalysisManager, ModuleAnalyses};
use posetrl_bench::bench_module;
use std::hint::black_box;

fn bench_analyze_module(c: &mut Criterion) {
    let m = bench_module(5);
    c.bench_function("depend_analyze_module", |b| {
        b.iter(|| {
            let a = ModuleAnalyses::new(black_box(&m), None);
            black_box(a.depend().funcs.len())
        })
    });
}

/// Incremental-vs-full: compare against `depend_analyze_module` (the
/// from-scratch path) — the results are bit-identical by contract, and
/// the warm path also serves the scev and alias inputs from their own
/// memo classes.
fn bench_analyze_module_incremental(c: &mut Criterion) {
    let m = bench_module(5);
    let mgr = IncrementalAnalysisManager::new();
    let full = ModuleAnalyses::new(&m, None);
    let warm = ModuleAnalyses::new(&m, Some(&mgr));
    assert_eq!(
        full.depend(),
        warm.depend(),
        "incremental analysis must be bit-identical"
    );
    c.bench_function("depend_analyze_module_incremental_warm", |b| {
        b.iter(|| {
            let a = ModuleAnalyses::new(black_box(&m), Some(&mgr));
            black_box(a.depend().funcs.len())
        })
    });
    eprintln!("[depend] {:?}", mgr.stats());
}

fn bench_lints(c: &mut Criterion) {
    let m = bench_module(7);
    c.bench_function("depend_check", |b| {
        b.iter(|| {
            let a = ModuleAnalyses::new(black_box(&m), None);
            let mut out = Vec::new();
            depend::lint_with(&m, a.scev(), a.alias(), &mut out);
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
