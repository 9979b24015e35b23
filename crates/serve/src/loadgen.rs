//! Synthetic load generation against an in-process [`Server`].
//!
//! `repro -- servestats` and the nightly `serve load bench` CI job drive
//! the standard three-phase schedule over the workload corpus:
//!
//! 1. **cold** — 1 client, one pass: every module is a full rollout.
//! 2. **warm** — 8 clients, two passes at a shorter step budget: new
//!    store keys, so rollouts re-run against a warm eval cache (step
//!    memos shared with the cold phase).
//! 3. **repeat** — 64 clients, four passes at the cold budget: repeat
//!    traffic, expected to be served entirely from the
//!    content-addressed response store (the ≥ 0.9 warm-hit-rate gate).
//!
//! Clients are closed-loop (one request in flight each), so the
//! concurrency level is exactly the client count and admission control
//! never rejects at the default queue depths — the nightly gate demands
//! *zero* protocol errors.

use crate::config::ServeConfig;
use crate::protocol::{Request, Response};
use crate::server::{Server, ServerStats};
use posetrl::{train, TrainedModel, TrainerConfig};
use posetrl_ir::printer::print_module;
use posetrl_target::TargetArch;
use serde_json::{json, Value};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One load phase: `clients` closed-loop clients, `passes` sweeps over
/// the corpus each, optionally pinning a step budget.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    /// Phase label in reports.
    pub name: &'static str,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Corpus sweeps per client.
    pub passes: usize,
    /// Per-request `max_steps` override (`None` = server default).
    pub max_steps: Option<u64>,
}

/// The standard 1/8/64 schedule.
pub const DEFAULT_PHASES: [PhaseSpec; 3] = [
    PhaseSpec {
        name: "cold",
        clients: 1,
        passes: 1,
        max_steps: None,
    },
    PhaseSpec {
        name: "warm",
        clients: 8,
        passes: 2,
        max_steps: Some(10),
    },
    PhaseSpec {
        name: "repeat",
        clients: 64,
        passes: 4,
        max_steps: None,
    },
];

/// Measured outcome of one phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase label.
    pub name: &'static str,
    /// Concurrent clients driven.
    pub clients: usize,
    /// Requests issued.
    pub requests: u64,
    /// Success responses.
    pub ok: u64,
    /// Error responses (any kind — the nightly gate requires 0).
    pub errors: u64,
    /// Median client-side latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-side latency, microseconds.
    pub p99_us: u64,
    /// Phase wall time, milliseconds.
    pub wall_ms: u64,
    /// Requests per second over the phase wall time.
    pub throughput_rps: f64,
    /// Response-store hit rate within the phase.
    pub store_hit_rate: f64,
    /// Eval-cache hit rate within the phase.
    pub cache_hit_rate: f64,
}

impl PhaseReport {
    /// JSON form for `results/` artifacts.
    pub fn to_value(&self) -> Value {
        json!({
            "name": self.name,
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "wall_ms": self.wall_ms,
            "throughput_rps": self.throughput_rps,
            "store_hit_rate": self.store_hit_rate,
            "cache_hit_rate": self.cache_hit_rate,
        })
    }
}

/// Whole-run report: per-phase metrics plus pool-level counters.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-phase metrics, in schedule order.
    pub phases: Vec<PhaseReport>,
    /// Corpus size the schedule swept.
    pub corpus: usize,
    /// Worker count of the driven server.
    pub workers: usize,
    /// Store hit rate of the final (repeat-traffic) phase — the ≥ 0.9 gate.
    pub warm_hit_rate: f64,
    /// Total error responses across every phase — the zero gate.
    pub protocol_errors: u64,
    /// Final server counters.
    pub stats: ServerStats,
}

impl LoadReport {
    /// JSON form for `results/serve_bench.json`.
    pub fn to_value(&self) -> Value {
        json!({
            "corpus": self.corpus,
            "workers": self.workers,
            "phases": Value::Array(self.phases.iter().map(PhaseReport::to_value).collect()),
            "warm_hit_rate": self.warm_hit_rate,
            "protocol_errors": self.protocol_errors,
            "store_hits": self.stats.store_hits,
            "store_misses": self.stats.store_misses,
            "cache_hit_rate": self.stats.cache.hit_rate(),
        })
    }
}

/// The first `n` training-suite modules as `(name, module text)` pairs.
pub fn corpus(n: usize) -> Vec<(String, String)> {
    posetrl_workloads::training_suite()
        .into_iter()
        .take(n)
        .map(|b| (b.name.clone(), print_module(&b.module)))
        .collect()
}

fn percentile(sorted_us: &[u64], pct: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn run_phase(server: &Server, corpus: &[(String, String)], spec: PhaseSpec) -> PhaseReport {
    let before = server.stats();
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let errors = std::sync::atomic::AtomicU64::new(0);
    let oks = std::sync::atomic::AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..spec.clients {
            let latencies = &latencies;
            let errors = &errors;
            let oks = &oks;
            s.spawn(move || {
                let mut mine = Vec::with_capacity(spec.passes * corpus.len());
                for pass in 0..spec.passes {
                    for i in 0..corpus.len() {
                        // offset clients so concurrent traffic spreads over
                        // modules (and therefore workers) instead of stampeding
                        let (name, text) = &corpus[(i + c) % corpus.len()];
                        let req = Request {
                            id: format!("{}-c{c}-p{pass}-{name}", spec.name),
                            module: text.clone(),
                            arch: TargetArch::X86_64,
                            max_steps: spec.max_steps,
                        };
                        let t0 = Instant::now();
                        let resp = server.handle(&req.to_json());
                        mine.push(t0.elapsed().as_micros() as u64);
                        match resp {
                            Response::Ok(_) => {
                                oks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Response::Err(e) => {
                                errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                eprintln!(
                                    "loadgen: error response in phase {}: {}",
                                    spec.name, e.error
                                );
                            }
                        }
                    }
                }
                latencies.lock().expect("latency lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed();
    let after = server.stats();
    let mut lat = latencies.into_inner().expect("latency lock");
    lat.sort_unstable();
    let requests = lat.len() as u64;
    let store_delta_hits = after.store_hits - before.store_hits;
    let store_delta_total = store_delta_hits + (after.store_misses - before.store_misses);
    let cache_delta_hits = after.cache.total_hits() - before.cache.total_hits();
    let cache_delta_total =
        cache_delta_hits + (after.cache.total_misses() - before.cache.total_misses());
    PhaseReport {
        name: spec.name,
        clients: spec.clients,
        requests,
        ok: oks.into_inner(),
        errors: errors.into_inner(),
        p50_us: percentile(&lat, 50.0),
        p99_us: percentile(&lat, 99.0),
        wall_ms: wall.as_millis() as u64,
        throughput_rps: if wall.as_secs_f64() > 0.0 {
            requests as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        store_hit_rate: if store_delta_total == 0 {
            0.0
        } else {
            store_delta_hits as f64 / store_delta_total as f64
        },
        cache_hit_rate: if cache_delta_total == 0 {
            0.0
        } else {
            cache_delta_hits as f64 / cache_delta_total as f64
        },
    }
}

/// Runs `phases` over `corpus` against `server`, collecting the report.
pub fn run_load(server: &Server, corpus: &[(String, String)], phases: &[PhaseSpec]) -> LoadReport {
    let reports: Vec<PhaseReport> = phases
        .iter()
        .map(|&spec| run_phase(server, corpus, spec))
        .collect();
    let stats = server.stats();
    LoadReport {
        warm_hit_rate: reports.last().map(|r| r.store_hit_rate).unwrap_or(0.0),
        protocol_errors: reports.iter().map(|r| r.errors).sum(),
        corpus: corpus.len(),
        workers: server.config().workers,
        phases: reports,
        stats,
    }
}

/// Trains the quick model the server binary and benches default to.
pub fn quick_model() -> TrainedModel {
    train(
        &TrainerConfig::quick(),
        posetrl::ActionSet::odg(),
        &posetrl_workloads::training_suite(),
    )
}

/// The `repro -- servestats` experiment: train a quick model, stand up a
/// server from the `POSETRL_SERVE_*` environment, run the 1/8/64 load
/// schedule, and check the server-level determinism contract (identical
/// request streams → bit-identical response modules for any worker
/// count).
///
/// # Errors
///
/// [`posetrl_analyze::EnvParseError`] when a `POSETRL_SERVE_*` knob is
/// malformed (callers exit with the shared usage code).
///
/// # Panics
///
/// Panics if the determinism cross-check fails — that is a bug, not a
/// measurement.
pub fn servestats() -> Result<(String, Value), posetrl_analyze::EnvParseError> {
    let cfg = ServeConfig::from_env()?;
    let model = Arc::new(quick_model());
    let corpus = corpus(12);

    let server = Server::new(Arc::clone(&model), cfg.clone(), None);
    let report = run_load(&server, &corpus, &DEFAULT_PHASES);
    drop(server);

    // determinism contract: the same stream on 1 worker and 3 workers
    // must produce bit-identical response modules
    let stream: Vec<String> = corpus
        .iter()
        .map(|(name, text)| {
            Request {
                id: format!("det-{name}"),
                module: text.clone(),
                arch: TargetArch::X86_64,
                max_steps: None,
            }
            .to_json()
        })
        .collect();
    let modules_with = |workers: usize| -> Vec<String> {
        // queues deep enough for the whole stream, which is submitted
        // before any reply is awaited so several workers run at once
        let cfg = ServeConfig {
            workers,
            queue_depth: cfg.queue_depth.max(stream.len()),
            ..cfg.clone()
        };
        let server = Server::new(Arc::clone(&model), cfg, None);
        let pending: Vec<_> = stream.iter().map(|line| server.submit(line)).collect();
        pending
            .into_iter()
            .map(|p| match p.wait() {
                Response::Ok(r) => r.module,
                Response::Err(e) => panic!("determinism stream errored: {}", e.error),
            })
            .collect()
    };
    let one = modules_with(1);
    let three = modules_with(3);
    assert_eq!(
        one, three,
        "response modules must be bit-identical for any worker count"
    );

    let mut value = report.to_value();
    if let Value::Object(fields) = &mut value {
        fields.push(("deterministic_across_workers".to_string(), json!(true)));
        fields.push(("config_workers".to_string(), json!(cfg.workers)));
    }

    let mut text = String::new();
    text.push_str(&format!(
        "servestats: corpus={} workers={} warm_hit_rate={:.3} protocol_errors={}\n",
        report.corpus, report.workers, report.warm_hit_rate, report.protocol_errors
    ));
    for p in &report.phases {
        text.push_str(&format!(
            "  {:>6}: {:>3} clients {:>5} req p50 {:>7}us p99 {:>7}us {:>8.1} rps store-hit {:.2} cache-hit {:.2}\n",
            p.name,
            p.clients,
            p.requests,
            p.p50_us,
            p.p99_us,
            p.throughput_rps,
            p.store_hit_rate,
            p.cache_hit_rate
        ));
    }
    text.push_str("  determinism: workers {1,3} bit-identical ✓\n");
    Ok((text, value))
}
