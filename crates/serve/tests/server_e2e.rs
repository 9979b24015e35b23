//! End-to-end server tests over a tiny trained policy: bit-identical
//! responses for any worker count, agreement with offline inference, pure
//! store hits on repeats through either level of the response store
//! (front-door key or canonical hash), in-order stdio sessions, and every
//! admission-control rejection path.

use posetrl::{train, ActionSet, TrainedModel, TrainerConfig};
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_serve::protocol::{ErrorKind, Request, Response};
use posetrl_serve::server::{run_stdio, Server};
use posetrl_serve::ServeConfig;
use posetrl_target::TargetArch;
use posetrl_workloads::{generate, Benchmark, ProgramKind, ProgramSpec, SizeClass, Suite};
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn bench(name: &str, kind: ProgramKind, seed: u64) -> Benchmark {
    let spec = ProgramSpec {
        name: name.to_string(),
        kind,
        size: SizeClass::Small,
        seed,
    };
    Benchmark {
        name: name.to_string(),
        suite: Suite::Training,
        module: generate(&spec),
        spec,
    }
}

/// One tiny policy shared by every test in this file (training even a
/// toy agent costs seconds; caching it keeps the suite fast).
fn model() -> Arc<TrainedModel> {
    static MODEL: OnceLock<Arc<TrainedModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let mut cfg = TrainerConfig::quick();
        cfg.total_steps = 60;
        cfg.env.episode_len = 3;
        cfg.agent.hidden = vec![16];
        cfg.agent.eps_decay_steps = 40;
        cfg.agent.learn_start = 12;
        cfg.agent.batch_size = 8;
        cfg.max_programs = Some(2);
        let suite = vec![
            bench("e2e_a", ProgramKind::NumericKernel, 11),
            bench("e2e_b", ProgramKind::BitManip, 12),
        ];
        Arc::new(train(&cfg, ActionSet::odg(), &suite))
    }))
}

/// Module texts used as request payloads (distinct from training inputs).
fn corpus() -> Vec<String> {
    [
        (ProgramKind::BranchyInteger, 21),
        (ProgramKind::Streaming, 22),
        (ProgramKind::CallHeavy, 23),
    ]
    .into_iter()
    .map(|(kind, seed)| print_module(&bench("req", kind, seed).module))
    .collect()
}

fn cfg(workers: usize, queue_depth: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_depth,
        max_steps: 3,
        ..ServeConfig::default()
    }
}

fn request(id: &str, module: &str, max_steps: Option<u64>) -> String {
    Request {
        id: id.to_string(),
        module: module.to_string(),
        arch: TargetArch::X86_64,
        max_steps,
    }
    .to_json()
}

fn ok(resp: Response) -> posetrl_serve::protocol::OkResponse {
    match resp {
        Response::Ok(ok) => ok,
        Response::Err(e) => panic!("expected ok response, got {:?}: {}", e.id, e.error),
    }
}

#[test]
fn responses_are_bit_identical_for_any_worker_count() {
    let model = model();
    let corpus = corpus();
    let lines: Vec<String> = corpus
        .iter()
        .enumerate()
        .map(|(i, m)| request(&format!("det-{i}"), m, None))
        .collect();
    type Fingerprint = (String, String, Vec<u64>, u64, u64);
    let mut baseline: Option<Vec<Fingerprint>> = None;
    for workers in [1usize, 2, 8] {
        // incremental per-function analysis must be exactly as invisible
        // as the worker count
        for incremental in [false, true] {
            let mgr = incremental
                .then(posetrl_analyze::IncrementalAnalysisManager::new)
                .map(Arc::new);
            let server = Server::with_incremental(Arc::clone(&model), cfg(workers, 8), None, mgr);
            // submit the whole stream first so multi-worker runs overlap
            let pending: Vec<_> = lines.iter().map(|l| server.submit(l)).collect();
            let got: Vec<_> = pending
                .into_iter()
                .map(|p| {
                    let r = ok(p.wait());
                    (r.id, r.module, r.actions, r.size_before, r.size_after)
                })
                .collect();
            match &baseline {
                None => baseline = Some(got),
                Some(expect) => assert_eq!(
                    expect, &got,
                    "workers={workers} incremental={incremental} changed a response — \
                     the bit-identical contract is broken"
                ),
            }
        }
    }
}

#[test]
fn serve_agrees_with_offline_inference() {
    let model = model();
    let corpus = corpus();
    let server = Server::new(Arc::clone(&model), cfg(2, 8), None);
    let lines: Vec<String> = corpus
        .iter()
        .enumerate()
        .map(|(i, m)| {
            Request {
                id: format!("offline-{i}"),
                module: m.clone(),
                arch: model.env.arch,
                max_steps: Some(model.env.episode_len as u64),
            }
            .to_json()
        })
        .collect();
    let pending: Vec<_> = lines.iter().map(|l| server.submit(l)).collect();
    let mut decisions = 0;
    for (p, text) in pending.into_iter().zip(&corpus) {
        let served = ok(p.wait());
        let (optimized, actions) = model.optimize(parse_module(text).expect("corpus parses"));
        assert_eq!(served.module, print_module(&optimized));
        let actions: Vec<u64> = actions.into_iter().map(|a| a as u64).collect();
        assert_eq!(served.actions, actions);
        assert_eq!(served.batch, 1, "a rollout sweeps one state per decision");
        decisions += actions.len() as u64;
    }
    let stats = server.stats().batch;
    assert_eq!((stats.batches, stats.states), (decisions, decisions));
    // a store hit runs no inference
    let hit = ok(server.handle(&lines[0]));
    assert!(hit.cached);
    assert_eq!(hit.batch, 0);
    assert_eq!(server.stats().batch.states, decisions);
}

#[test]
fn repeats_are_pure_store_hits() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    let first = ok(server.handle(&request("r1", module, None)));
    assert!(!first.cached, "first sight must be a full rollout");
    let second = ok(server.handle(&request("r2", module, None)));
    assert!(second.cached, "repeat must come from the response store");
    assert_eq!(first.module, second.module);
    assert_eq!(first.actions, second.actions);
    assert_eq!(first.size_after, second.size_after);
    let stats = server.stats();
    assert_eq!(stats.store_hits, 1);
    assert_eq!(stats.store_misses, 1);
    assert!((stats.store_hit_rate() - 0.5).abs() < 1e-9);
    // a different step budget is a different store key
    let third = ok(server.handle(&request("r3", module, Some(1))));
    assert!(!third.cached);
}

#[test]
fn a_full_store_evicts_its_oldest_response() {
    let server = Server::new(
        model(),
        ServeConfig {
            store_capacity: 1,
            ..cfg(1, 8)
        },
        None,
    );
    let modules = corpus();
    let (a, b) = (&modules[0], &modules[1]);
    let first = ok(server.handle(&request("a1", a, None)));
    assert!(!ok(server.handle(&request("b", b, None))).cached);
    let again = ok(server.handle(&request("a2", a, None)));
    assert!(!again.cached, "B's response must have evicted A's");
    assert_eq!(
        first.module, again.module,
        "a recomputed response is bit-identical"
    );
    let stats = server.stats();
    assert_eq!((stats.store_hits, stats.store_misses), (0, 3));
}

/// A response's result, ids and timing aside.
fn result(r: &posetrl_serve::protocol::OkResponse) -> (String, Vec<u64>, u64, u64, u64, u64) {
    (
        r.module.clone(),
        r.actions.clone(),
        r.size_before,
        r.size_after,
        r.cycles_before.to_bits(),
        r.cycles_after.to_bits(),
    )
}

/// `(store_hits, store_misses, front_door_hits)`.
fn store_counts(server: &Server) -> (u64, u64, u64) {
    let s = server.stats();
    (s.store_hits, s.store_misses, s.front_door_hits)
}

#[test]
fn a_byte_identical_repeat_is_a_front_door_hit() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    let first = ok(server.handle(&request("f1", module, None)));
    let second = ok(server.handle(&request("f2", module, None)));
    assert!(!first.cached && second.cached);
    assert_eq!((second.batch, second.shard), (0, first.shard));
    assert_eq!(result(&first), result(&second));
    assert_eq!(store_counts(&server), (1, 1, 1));
}

#[test]
fn a_reformatted_module_hits_only_the_canonical_store() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    let reformatted = format!("\n{module}\n\n");
    let first = ok(server.handle(&request("t1", module, None)));
    let equal = ok(server.handle(&request("t2", &reformatted, None)));
    assert!(equal.cached, "an equal module must hit the canonical store");
    assert_eq!(result(&first), result(&equal));
    assert_eq!(store_counts(&server), (1, 1, 0));
    // the reformatted text has now verified, so its own repeat skips parsing
    let again = ok(server.handle(&request("t3", &reformatted, None)));
    assert!(again.cached);
    assert_eq!(result(&first), result(&again));
    assert_eq!(store_counts(&server), (2, 1, 1));
}

#[test]
fn the_same_text_at_another_arch_or_step_budget_misses() {
    let server = Server::new(model(), cfg(2, 8), None);
    let module = &corpus()[0];
    assert!(!ok(server.handle(&request("x", module, None))).cached);
    let aarch64 = Request {
        id: "a".to_string(),
        module: module.clone(),
        arch: TargetArch::AArch64,
        max_steps: None,
    };
    assert!(!ok(server.handle(&aarch64.to_json())).cached);
    assert!(!ok(server.handle(&request("s", module, Some(1)))).cached);
    assert_eq!(store_counts(&server), (0, 3, 0));
    // a step budget above the server's is clamped to it: the same key
    assert!(ok(server.handle(&request("c", module, Some(99)))).cached);
    assert_eq!(store_counts(&server), (1, 3, 1));
}

#[test]
fn a_front_door_key_whose_response_was_evicted_recomputes_it() {
    let server = Server::new(
        model(),
        ServeConfig {
            store_capacity: 1,
            ..cfg(1, 8)
        },
        None,
    );
    let modules = corpus();
    let (a, b) = (&modules[0], &modules[1]);
    let first = ok(server.handle(&request("a1", a, None)));
    assert!(!ok(server.handle(&request("b", b, None))).cached);
    // A's front-door key outlives A's response, which B's evicted
    let again = ok(server.handle(&request("a2", a, None)));
    assert!(!again.cached, "an evicted response is recomputed");
    assert_eq!(result(&first), result(&again), "bit-identically");
    // one canonical lookup per request: the known key's miss is not
    // looked up a second time
    assert_eq!(store_counts(&server), (0, 3, 0));
    let third = ok(server.handle(&request("a3", a, None)));
    assert!(third.cached);
    assert_eq!(result(&first), result(&third));
    assert_eq!(store_counts(&server), (1, 3, 1));
}

#[test]
fn a_module_that_fails_to_parse_or_verify_is_rejected_every_time() {
    let server = Server::new(model(), cfg(1, 4), None);
    // parses, but adds an i32 to an i64
    let ill_typed = "module \"t\"\nfn @main() -> i64 internal {\nbb0:\n  \
                     %v = add i64 1:i32, 2:i64\n  ret %v\n}\n";
    for (text, why) in [("this is not ir", "parse"), (ill_typed, "verify")] {
        for id in ["first", "second"] {
            match server.handle(&request(id, text, None)) {
                Response::Err(e) => {
                    assert_eq!(e.error.kind, ErrorKind::BadModule);
                    assert!(
                        e.error.message.contains(&format!("does not {why}")),
                        "{id} {why}: {}",
                        e.error.message
                    );
                }
                Response::Ok(_) => panic!("{id} {why}: a bad module must be rejected"),
            }
        }
    }
    let stats = server.stats();
    assert_eq!((stats.errors, stats.ok), (4, 0));
    assert_eq!(store_counts(&server), (0, 0, 0));
}

#[test]
fn stdio_session_answers_in_request_order() {
    let server = Server::new(model(), cfg(2, 4), None);
    let corpus = corpus();
    let mut input = String::new();
    for (i, m) in corpus.iter().enumerate() {
        input.push_str(&request(&format!("s-{i}"), m, None));
        input.push('\n');
    }
    input.push('\n'); // blank lines are skipped, not answered
    input.push_str("not json at all\n");
    let mut out = Vec::new();
    let summary = run_stdio(&server, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.requests, corpus.len() as u64 + 1);
    assert_eq!(summary.ok, corpus.len() as u64);
    assert_eq!(summary.errors, 1);
    let lines: Vec<Response> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| posetrl_serve::protocol::parse_response(l).expect("server output must parse"))
        .collect();
    assert_eq!(lines.len(), corpus.len() + 1);
    for (i, resp) in lines[..corpus.len()].iter().enumerate() {
        let r = match resp {
            Response::Ok(r) => r,
            Response::Err(e) => panic!("line {i}: {}", e.error),
        };
        assert_eq!(r.id, format!("s-{i}"), "responses must keep request order");
    }
    match &lines[corpus.len()] {
        Response::Err(e) => assert_eq!(e.error.kind, ErrorKind::Parse),
        Response::Ok(_) => panic!("malformed line must get an error response"),
    }
}

#[test]
fn stdio_answers_a_client_that_waits_for_each_reply() {
    let server = Server::new(model(), cfg(2, 4), None);
    let module = &corpus()[0];
    let (in_rx, in_tx) = std::io::pipe().unwrap();
    let (out_rx, out_tx) = std::io::pipe().unwrap();
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        // owned by this closure, so a failed assertion below closes the
        // input and the session still ends
        let mut in_tx = in_tx;
        let session = s.spawn(|| run_stdio(&server, BufReader::new(in_rx), out_tx));
        s.spawn(move || {
            let mut out = BufReader::new(out_rx);
            let mut line = String::new();
            out.read_line(&mut line).unwrap();
            reply_tx.send(line).unwrap();
        });
        writeln!(in_tx, "{}", request("wait-0", module, None)).unwrap();
        let reply = reply_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the reply must arrive while the input is still open");
        match posetrl_serve::protocol::parse_response(reply.trim_end()).unwrap() {
            Response::Ok(r) => assert_eq!(r.id, "wait-0"),
            Response::Err(e) => panic!("unexpected error: {}", e.error),
        }
        drop(in_tx);
        let summary = session.join().unwrap().unwrap();
        assert_eq!((summary.requests, summary.ok, summary.errors), (1, 1, 0));
    });
}

#[test]
fn admission_rejections_are_structured() {
    let mut small = cfg(1, 4);
    small.max_module_bytes = 64;
    let server = Server::new(model(), small, None);

    // over the byte budget
    let resp = server.handle(&request("big", &"x".repeat(65), None));
    match resp {
        Response::Err(e) => {
            assert_eq!(e.id.as_deref(), Some("big"));
            assert_eq!(e.error.kind, ErrorKind::ModuleTooLarge);
        }
        Response::Ok(_) => panic!("oversized module must be rejected"),
    }

    // within budget but not IR
    let resp = server.handle(&request("junk", "this is not ir", None));
    match resp {
        Response::Err(e) => assert_eq!(e.error.kind, ErrorKind::BadModule),
        Response::Ok(_) => panic!("unparseable module must be rejected"),
    }

    // malformed request line: no id to echo
    let resp = server.handle("{\"oops\"");
    match resp {
        Response::Err(e) => {
            assert_eq!(e.id, None);
            assert_eq!(e.error.kind, ErrorKind::Parse);
        }
        Response::Ok(_) => panic!("malformed line must be rejected"),
    }

    let stats = server.stats();
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.ok, 0);
}

#[test]
fn full_queue_answers_overloaded_without_blocking() {
    let model = model();
    let server = Server::new(Arc::clone(&model), cfg(1, 1), None);
    let module = &corpus()[1];
    // distinct step budgets are distinct store keys, so none of these can
    // resolve as a store hit; with one worker and a depth-1 queue the
    // burst must overflow admission control
    let pending: Vec<_> = (0u64..24)
        .map(|i| server.submit(&request(&format!("burst-{i}"), module, Some(1 + i % 3))))
        .collect();
    let responses: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
    let overloaded = responses
        .iter()
        .filter(|r| matches!(r, Response::Err(e) if e.error.kind == ErrorKind::Overloaded))
        .count();
    let okay = responses.iter().filter(|r| r.is_ok()).count();
    assert!(okay >= 1, "the admitted requests must still succeed");
    assert!(
        overloaded >= 1,
        "a 24-request burst against a depth-1 queue must trip admission control"
    );
    for r in &responses {
        if let Response::Err(e) = r {
            assert_eq!(
                e.error.kind,
                ErrorKind::Overloaded,
                "only admission control may reject this stream: {}",
                e.error
            );
        }
    }
    assert_eq!(server.stats().overloads, overloaded as u64);
    assert_eq!(okay + overloaded, responses.len());
}
