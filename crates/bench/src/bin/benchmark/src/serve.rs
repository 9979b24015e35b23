//! The serving workloads.
//!
//! One closed-loop client drives an in-process [`Server`] with two
//! workers, one request in flight at a time, so a request's latency is
//! its own work and never time spent queued behind another one. The
//! client takes requests from one stream in order, so its blocks of
//! mixed sizes (see `corpus`) complete in order too. Every request is
//! encoded, handled, and its response encoded and parsed again, so JSON
//! on both ends of the wire counts as a user sees it. The Unix-socket
//! transport is not used: `run_stdio` writes a response only once the
//! next request or the end of input arrives, so a client that waits for
//! each reply would wait forever.
//!
//! The server starts, and the timed phase runs, pinned to one CPU. With
//! one request in flight only one thread is busy at a time: the client,
//! the worker and the batcher's inference thread hand the request on to
//! one another. So the pin takes no parallelism away, and the reference
//! samples the client takes between requests run on the CPU the requests
//! run on (see `speed`).
//!
//! - `serve_cold`: every request is a module the server has not seen.
//! - `serve_repeat`: set-up sends a [`CORPUS`]-module corpus once; the
//!   timed phase sends it again and again, so every request is a
//!   response-store hit.

use crate::corpus::{self, Entry, BLOCK, ROUND};
use crate::metrics::{self, Counters, Measured};
use crate::quality;
use crate::replay::{self, Tracer};
use crate::speed::{self, Span, Speed};
use crate::{Args, Outcome, Workload, SETUP_REPS};
use posetrl::{EvalCache, TrainedModel};
use posetrl_analyze::{IncrementalAnalysisManager, IncrementalStats};
use posetrl_ir::printer::print_module;
use posetrl_serve::protocol::{parse_response, OkResponse, Request, Response};
use posetrl_serve::{quick_model, ServeConfig, Server, ServerStats};
use posetrl_target::TargetArch;
use posetrl_workloads::{generate, ProgramKind, ProgramSpec, SizeClass};
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Modules in the `serve_repeat` corpus, one round of every size and
/// archetype; also the requests the traced replay covers.
const CORPUS: usize = ROUND;

/// Requests per chunk of the timed phase: five blocks, so that every
/// chunk holds the same mix of work.
const CHUNK: usize = 5 * BLOCK;

/// The timed phase samples `VmRSS` after every [`RSS_EVERY`]th of its
/// first [`RSS_AT`] requests. Every cold request grows the caches, so a
/// reading at the end of the phase would rise whenever the server got
/// faster.
const RSS_AT: usize = 100;
const RSS_EVERY: usize = 10;

/// Cold-corpus modules generated per second of timed phase: 1.5 times
/// the cold request rate at the baseline, so the pool outlasts the phase
/// (a faster server that runs out ends the phase early).
const COLD_POOL_PER_S: f64 = 14.0;

pub const ARCH: TargetArch = TargetArch::X86_64;

/// The server configuration, every field set explicitly.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_module_bytes: 1 << 20,
        max_steps: 15,
        queue_depth: 32,
        store_capacity: 4096,
        cache_capacity: EvalCache::DEFAULT_CAPACITY,
    }
}

pub fn request(id: String, module: String) -> Request {
    Request {
        id,
        module,
        arch: ARCH,
        max_steps: None,
    }
}

/// A module outside every corpus, sent once at the end of each set-up.
fn warmup() -> Request {
    let m = generate(&ProgramSpec {
        name: "warmup".into(),
        kind: ProgramKind::Mixed,
        size: SizeClass::Medium,
        seed: 0,
    });
    request("warmup".into(), print_module(&m))
}

/// Encode, handle, encode the reply, parse it: one request as a client
/// sees it.
pub fn round_trip(server: &Server, req: &Request) -> Result<Response, String> {
    let reply = server.handle(&req.to_json()).to_json();
    parse_response(&reply).map_err(|e| e.to_string())
}

/// One server start as a deployment does it: load the saved policy,
/// build the server, answer the warm-up request. `Err` says why the
/// warm-up failed.
pub fn start(
    saved: &str,
) -> (
    Arc<TrainedModel>,
    Arc<IncrementalAnalysisManager>,
    Server,
    Result<(), String>,
) {
    let model = Arc::new(TrainedModel::from_json(saved).expect("a saved model loads"));
    let mgr = Arc::new(IncrementalAnalysisManager::new());
    let server =
        Server::with_incremental(Arc::clone(&model), config(), None, Some(Arc::clone(&mgr)));
    let warm = match round_trip(&server, &warmup()) {
        Ok(Response::Ok(_)) => Ok(()),
        other => Err(format!("warm-up request failed: {other:?}")),
    };
    (model, mgr, server, warm)
}

/// [`start`], its span pushed onto `setups`; a failed warm-up goes to
/// `failures`.
fn set_up(
    saved: &str,
    speed: &mut Speed,
    setups: &mut Vec<Span>,
    failures: &mut Vec<String>,
) -> (Arc<TrainedModel>, Arc<IncrementalAnalysisManager>, Server) {
    let ((model, mgr, server, warm), span) = speed.bracket(|| start(saved));
    setups.push(span);
    failures.extend(warm.err());
    (model, mgr, server)
}

/// Whether two responses carry the same result (ids and timing aside).
fn same_result(a: &OkResponse, b: &OkResponse) -> bool {
    a.module == b.module
        && a.actions == b.actions
        && a.size_before == b.size_before
        && a.size_after == b.size_after
        && a.cycles_before.to_bits() == b.cycles_before.to_bits()
        && a.cycles_after.to_bits() == b.cycles_after.to_bits()
}

/// What a client does with a success response.
enum Verdict {
    Pass,
    Keep(OkResponse),
    Fail(String),
}

/// What the client saw in a phase.
#[derive(Default)]
struct Phase {
    /// The span of each request, from encoding it to its parsed reply,
    /// in order.
    spans: Vec<Span>,
    kept: Vec<(usize, OkResponse)>,
    failures: Vec<String>,
}

impl Phase {
    /// Appends a phase that ran after this one.
    fn append(&mut self, later: Phase) {
        self.spans.extend(later.spans);
        self.kept.extend(later.kept);
        self.failures.extend(later.failures);
    }
}

/// The client sends requests `make(first), make(first + 1), ...` in
/// order, each once the previous reply is in, until `limit` passes or
/// `make` runs out, and takes reference samples between them. `judge`
/// checks each success response as it arrives. Returns the phase, the
/// highest `VmRSS` sampled (MB, 0 when none was) and whether `make` ran
/// out.
fn drive(
    server: &Server,
    speed: &mut Speed,
    first: usize,
    limit: Option<Duration>,
    make: impl Fn(usize) -> Option<Request>,
    judge: impl Fn(usize, OkResponse) -> Verdict,
) -> (Phase, f64, bool) {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut rss_mb = 0.0_f64;
    let mut exhausted = false;
    for i in first.. {
        if limit.is_some_and(|l| start.elapsed() >= l) {
            break;
        }
        let Some(req) = make(i) else {
            exhausted = true;
            break;
        };
        speed.sample_if_due();
        let from = speed.now();
        let resp = round_trip(server, &req);
        phase.spans.push(Span {
            from,
            to: speed.now(),
        });
        if i < RSS_AT && (i + 1) % RSS_EVERY == 0 {
            rss_mb = rss_mb.max(metrics::status_mb("VmRSS"));
        }
        match resp {
            Ok(Response::Ok(ok)) => match judge(i, ok) {
                Verdict::Pass => {}
                Verdict::Keep(ok) => phase.kept.push((i, ok)),
                Verdict::Fail(why) => phase.failures.push(format!("request {i}: {why}")),
            },
            Ok(Response::Err(e)) => phase.failures.push(format!("request {i}: {}", e.error)),
            Err(e) => phase
                .failures
                .push(format!("request {i}: bad response: {e}")),
        }
    }
    (phase, rss_mb, exhausted)
}

/// Checks kept responses against the references of `corpus`.
fn check_outputs(kept: &[(usize, OkResponse)], corpus: &[Entry]) -> Vec<Result<(), String>> {
    corpus::par_map(kept.len(), |k| {
        let (i, ok) = &kept[k];
        corpus::check(&ok.module, &corpus[*i].reference)
            .map(|_| ())
            .map_err(|e| format!("request {i}: {e}"))
    })
}

/// Counter deltas over the timed phase.
fn counters(
    before: &ServerStats,
    after: &ServerStats,
    incr_before: &IncrementalStats,
    incr_after: &IncrementalStats,
) -> Counters {
    let d = |a: u64, b: u64| a - b;
    let (c0, c1) = (&before.cache, &after.cache);
    let batches = d(after.batch.batches, before.batch.batches);
    Counters {
        store_hit_rate: metrics::rate(
            d(after.store_hits, before.store_hits),
            d(after.store_misses, before.store_misses),
        ),
        batch_mean: if batches == 0 {
            0.0
        } else {
            d(after.batch.states, before.batch.states) as f64 / batches as f64
        },
        step_hit_rate: metrics::rate(
            d(c1.step_hits, c0.step_hits),
            d(c1.step_misses, c0.step_misses),
        ),
        measure_hit_rate: metrics::rate(
            d(c1.measure_hits, c0.measure_hits),
            d(c1.measure_misses, c0.measure_misses),
        ),
        embed_hit_rate: metrics::rate(
            d(c1.embed_hits, c0.embed_hits),
            d(c1.embed_misses, c0.embed_misses),
        ),
        incremental_embed_hit_rate: metrics::rate(
            d(incr_after.embed.hits, incr_before.embed.hits),
            d(incr_after.embed.misses, incr_before.embed.misses),
        ),
        incremental_alias_hit_rate: metrics::rate(
            d(incr_after.alias.hits, incr_before.alias.hits),
            d(incr_after.alias.misses, incr_before.alias.misses),
        ),
    }
}

/// Runs one serving workload.
///
/// # Errors
///
/// When the traced replay does not reproduce a real response.
pub fn run(kind: Workload, args: &Args) -> Result<Outcome, String> {
    let cold = kind == Workload::ServeCold;
    let t = Instant::now();
    let n = if cold {
        ROUND * (args.seconds * COLD_POOL_PER_S / ROUND as f64).ceil() as usize
    } else {
        CORPUS
    };
    let corpus = corpus::corpus(args.seed, n);
    let inputs_s = t.elapsed().as_secs_f64();

    // the policy `posetrl-serve` trains by default, saved as a server
    // deployment loads it; training is the `train` workload's business
    let t = Instant::now();
    let saved = quick_model().to_json();
    let train_s = t.elapsed().as_secs_f64();

    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut speed = Speed::new();
    let mut setups = Vec::new();
    let pinned = speed::pin();
    let (model, mgr, server) = set_up(&saved, &mut speed, &mut setups, &mut failures);

    let mut detail = vec![
        ("inputs_s".to_string(), json!(inputs_s)),
        ("model_train_s".to_string(), json!(train_s)),
        ("corpus_modules".to_string(), json!(n)),
        ("pinned".to_string(), json!(pinned.is_some())),
    ];
    let id = |i: usize| format!("{}-{i}", kind.name());
    // set-up pass of serve_repeat: every corpus module once
    let mut primed: Vec<Option<OkResponse>> = Vec::new();
    if !cold {
        let t = Instant::now();
        let (phase, _, _) = drive(
            &server,
            &mut speed,
            0,
            None,
            |i| (i < n).then(|| request(id(i), corpus[i].text.clone())),
            |_, ok| Verdict::Keep(ok),
        );
        detail.push(("prime_s".to_string(), json!(t.elapsed().as_secs_f64())));
        attempted += phase.spans.len() as u64;
        failures.extend(phase.failures);
        primed = vec![None; n];
        for ((i, ok), checked) in phase.kept.iter().zip(check_outputs(&phase.kept, &corpus)) {
            match checked {
                Ok(()) => primed[*i] = Some(ok.clone()),
                Err(e) => failures.push(e),
            }
        }
    }
    detail.push((
        "setup_hwm_mb".to_string(),
        json!(metrics::status_mb("VmHWM")),
    ));

    let make = |i: usize| -> Option<Request> {
        if cold {
            (i < n).then(|| request(id(i), corpus[i].text.clone()))
        } else {
            Some(request(id(i), corpus[i % n].text.clone()))
        }
    };
    // what request i must return, given the set-up pass
    let expected = |i: usize| primed[i % n].clone();
    let judge = |i: usize, ok: OkResponse| -> Verdict {
        if cold {
            return Verdict::Keep(ok);
        }
        match expected(i) {
            Some(want) if same_result(&ok, &want) => Verdict::Pass,
            Some(_) => Verdict::Fail("response differs from the set-up pass's".into()),
            None => Verdict::Fail("the set-up pass had no correct response".into()),
        }
    };

    // The timed phase runs in parts, each followed by a set-up of a
    // throwaway server off the clock, so that set-up times sample the
    // whole run rather than one moment of a machine whose speed drifts.
    let parts = SETUP_REPS - 1;
    let part = Duration::from_secs_f64(args.seconds / parts as f64);
    let (stats0, incr0) = (server.stats(), mgr.stats());
    let mut phase = Phase::default();
    let (mut peak_rss_mb, mut exhausted) = (0.0_f64, false);
    for _ in 0..parts {
        if !exhausted {
            let first = phase.spans.len();
            let (later, rss_mb, out) = drive(&server, &mut speed, first, Some(part), make, judge);
            phase.append(later);
            peak_rss_mb = peak_rss_mb.max(rss_mb);
            exhausted = out;
        }
        drop(set_up(&saved, &mut speed, &mut setups, &mut failures));
    }
    speed::unpin(pinned);
    let counters = counters(&stats0, &server.stats(), &incr0, &mgr.stats());
    if peak_rss_mb == 0.0 {
        peak_rss_mb = metrics::status_mb("VmRSS");
    }
    attempted += (phase.spans.len() + setups.len()) as u64;
    failures.append(&mut phase.failures);
    if cold {
        detail.push(("pool_exhausted".to_string(), json!(exhausted)));
        failures.extend(
            check_outputs(&phase.kept, &corpus)
                .into_iter()
                .filter_map(Result::err),
        );
    }
    let (quality, checked, wrong) = quality::served(&server);
    attempted += checked;
    failures.extend(wrong);

    let trace = if args.trace {
        let mut tr = Tracer::new();
        let policy = model.agent.policy();
        for i in 0..CORPUS.min(n) {
            let want = if cold {
                phase
                    .kept
                    .binary_search_by_key(&i, |k| k.0)
                    .ok()
                    .map(|k| phase.kept[k].1.clone())
            } else {
                expected(i)
            };
            let (Some(want), Some(req)) = (want, make(i)) else {
                continue;
            };
            tr.set_request(i as u64);
            let got = replay::serve_request(
                &mut tr,
                &req.to_json(),
                &policy,
                &model.env,
                &model.actions,
                config().max_steps,
            )?;
            if !same_result(&got, &want) {
                return Err(format!(
                    "the replay of request {i} differs from its real response"
                ));
            }
        }
        Some(tr)
    } else {
        None
    };

    let items: Vec<(u64, Span)> = phase.spans.iter().map(|&s| (1, s)).collect();
    let measured = |seconds: &dyn Fn(Span) -> f64| {
        Measured::new(&setups, &items, CHUNK, seconds, peak_rss_mb, quality)
    };
    detail.extend(speed.detail());
    Ok(Outcome {
        timed: measured(&|s| speed.scaled(s)),
        unscaled: measured(&Span::seconds),
        attempted,
        failures,
        counters,
        detail,
        trace,
    })
}
