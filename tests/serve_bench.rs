//! Nightly serve load bench (opt-in: `POSETRL_SERVE_SWEEP=1`).
//!
//! Stands up a `posetrl-serve` server over a quick-trained policy and
//! drives the standard 1/8/64-client schedule (cold → warm → repeat) over
//! the workload corpus, archiving per-phase p50/p99 latency, throughput,
//! and hit rates as `results/serve_bench.json` for the nightly CI
//! artifact.
//!
//! Hard gates: the repeat-traffic phase must be served almost entirely
//! from the content-addressed response store (**warm hit rate ≥ 0.9**)
//! and the whole schedule must finish with **zero protocol errors** —
//! closed-loop clients never outrun admission control at the default
//! queue depths, so any `overloaded` (or worse) response is a server bug,
//! not load shedding. A store hit must also be cheap: the repeat phase's
//! **p50 is at most 1/20 of the cold phase's p50** from the same run, a
//! ratio in which the runner's speed cancels. Byte-identical repeats are
//! answered from the front-door key without parsing the module; when
//! every hit parsed, verified and hashed its module, 64 clients queued
//! behind that work and the repeat p50 exceeded the cold one.

use posetrl_serve::server::Server;
use posetrl_serve::{corpus, quick_model, run_load, ServeConfig, DEFAULT_PHASES};
use std::sync::Arc;

#[test]
fn serve_bench_archives_load_report() {
    if std::env::var("POSETRL_SERVE_SWEEP").is_err() {
        return; // nightly CI sets the variable; the default run skips
    }
    let cfg = ServeConfig::from_env().expect("POSETRL_SERVE_* must parse");
    let model = Arc::new(quick_model());
    let corpus = corpus(12);
    let server = Server::new(model, cfg, None);
    let report = run_load(&server, &corpus, &DEFAULT_PHASES);
    drop(server);

    std::fs::create_dir_all("results").unwrap();
    std::fs::write(
        "results/serve_bench.json",
        serde_json::to_string_pretty(&report.to_value()).unwrap(),
    )
    .unwrap();
    for p in &report.phases {
        eprintln!(
            "[serve-bench] {:>6}: {:>3} clients, {:>5} requests, p50 {}us, p99 {}us, \
             {:.1} rps, store-hit {:.2}",
            p.name, p.clients, p.requests, p.p50_us, p.p99_us, p.throughput_rps, p.store_hit_rate
        );
    }

    assert!(
        report.warm_hit_rate >= 0.9,
        "repeat-traffic phase must be ≥ 0.9 store hits, got {:.3}",
        report.warm_hit_rate
    );
    assert_eq!(
        report.protocol_errors, 0,
        "closed-loop load must produce zero protocol errors"
    );
    assert!(
        report.phases.iter().all(|p| p.requests > 0),
        "every phase must actually issue traffic"
    );
    let p50 = |name: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.p50_us)
            .expect("the schedule has a cold and a repeat phase")
    };
    let (cold, repeat) = (p50("cold"), p50("repeat"));
    assert!(
        repeat * 20 <= cold,
        "repeat-phase p50 must be at most 1/20 of the cold p50: {repeat}us vs {cold}us"
    );
}
