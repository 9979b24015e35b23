//! Property-based check of the SCEV trip-count engine against ground
//! truth: for randomly parameterized counted loops, the symbolic trip
//! count must agree with the iteration count the reference interpreter
//! actually observes.
//!
//! `Exact(n)` must equal the observed body-execution count exactly;
//! `Bounded(n)` must be an upper bound on it. The loop shape is the
//! canonical top-tested form every frontend emits, swept over both
//! directions, strides 1..8 and signed inits/bounds on both sides of
//! zero.

use posetrl_analyze::scev::{self, TripCount};
use posetrl_ir::interp::{InterpConfig, Interpreter, RtVal};
use posetrl_ir::parser::parse_module;
use posetrl_ir::{BinOp, InstId, Op};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Builds the canonical counted loop `for (i = init; i <pred> bound; i += step)`.
fn loop_module(init: i64, bound: i64, pred: &str, op: &str, step: i64) -> String {
    format!(
        r#"
module "trip"
fn @main() -> i64 internal {{
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: {init}:i64], [bb2: %n]
  %c = icmp {pred} i64 %i, {bound}:i64
  condbr %c, bb2, bb3
bb2:
  %n = {op} i64 %i, {step}:i64
  br bb1
bb3:
  ret %i
}}
"#
    )
}

/// Interprets the module and returns how many times the loop body ran
/// (the execution count of the `%n` update instruction).
fn observed_iterations(m: &posetrl_ir::Module) -> u64 {
    let fid = m.func_by_name("main").unwrap();
    let f = m.func(fid).unwrap();
    let update: Vec<InstId> = f
        .inst_ids()
        .into_iter()
        .filter(|&i| {
            matches!(
                f.op(i),
                Op::Bin {
                    op: BinOp::Add | BinOp::Sub,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(update.len(), 1, "exactly one update instruction");
    let out = Interpreter::with_config(
        m,
        InterpConfig {
            fuel: 20_000_000,
            max_depth: 64,
        },
    )
    .run("main", &[]);
    let ret = out.result.expect("loop terminates in fuel");
    assert!(matches!(ret, Some(RtVal::Int(_))), "returns an int");
    out.profile
        .counts
        .get(&(fid, update[0]))
        .copied()
        .unwrap_or(0)
}

fn scev_trip(m: &posetrl_ir::Module) -> TripCount {
    let ms = scev::analyze_module(m);
    let fid = m.func_by_name("main").unwrap();
    let r = ms.func(fid).expect("main analyzed");
    assert_eq!(r.loops.len(), 1, "exactly one loop");
    r.loops[0].trip
}

fn proptest_cases() -> u32 {
    posetrl_analyze::env_budget_or_usage("POSETRL_PROPTEST_CASES", 48)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: proptest_cases(),
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Upward loops: `for (i = init; i < bound (or <=); i += step)`.
    #[test]
    fn upward_trips_match_the_interpreter(
        init in -60i64..60,
        span in 0i64..200,
        step in 1i64..8,
        inclusive in 0u8..2,
    ) {
        let bound = init + span;
        let pred = if inclusive == 1 { "sle" } else { "slt" };
        let text = loop_module(init, bound, pred, "add", step);
        let m = parse_module(&text).unwrap();
        let observed = observed_iterations(&m);
        match scev_trip(&m) {
            TripCount::Exact(n) => prop_assert_eq!(n, observed, "exact trip is ground truth"),
            TripCount::Bounded(n) => prop_assert!(n >= observed, "bound {} < observed {}", n, observed),
            TripCount::Unknown => prop_assert!(false, "constant-bound loop must classify"),
        }
    }

    /// Downward loops: `for (i = init; i > bound (or >=); i -= step)`.
    #[test]
    fn downward_trips_match_the_interpreter(
        bound in -60i64..60,
        span in 0i64..200,
        step in 1i64..8,
        inclusive in 0u8..2,
    ) {
        let init = bound + span;
        let pred = if inclusive == 1 { "sge" } else { "sgt" };
        let text = loop_module(init, bound, pred, "sub", step);
        let m = parse_module(&text).unwrap();
        let observed = observed_iterations(&m);
        match scev_trip(&m) {
            TripCount::Exact(n) => prop_assert_eq!(n, observed, "exact trip is ground truth"),
            TripCount::Bounded(n) => prop_assert!(n >= observed, "bound {} < observed {}", n, observed),
            TripCount::Unknown => prop_assert!(false, "constant-bound loop must classify"),
        }
    }

    /// `ne`-controlled loops that provably land on the bound.
    #[test]
    fn ne_trips_match_the_interpreter(
        init in -60i64..60,
        iters in 0i64..200,
        step in 1i64..8,
    ) {
        let bound = init + iters * step;
        let text = loop_module(init, bound, "ne", "add", step);
        let m = parse_module(&text).unwrap();
        let observed = observed_iterations(&m);
        prop_assert_eq!(observed, iters as u64);
        match scev_trip(&m) {
            TripCount::Exact(n) => prop_assert_eq!(n, observed, "exact trip is ground truth"),
            TripCount::Bounded(n) => prop_assert!(n >= observed, "bound {} < observed {}", n, observed),
            TripCount::Unknown => prop_assert!(false, "landing ne loop must classify"),
        }
    }
}

#[test]
fn trip_agrees_on_the_training_suite_headers() {
    // On real generated programs, wherever SCEV claims an exact trip for
    // a loop in @main, interpret the module and cross-check the observed
    // execution counts of that loop's header block against trip + entries.
    let mut checked = 0usize;
    for b in posetrl_workloads::training_suite().iter().take(6) {
        let m = &b.module;
        let Some(fid) = m.func_by_name("main") else {
            continue;
        };
        let f = m.func(fid).unwrap();
        let ms = scev::analyze_module(m);
        let Some(r) = ms.func(fid) else { continue };
        let exacts: BTreeSet<u32> = r
            .loops
            .iter()
            .filter(|l| matches!(l.trip, TripCount::Exact(_)))
            .map(|l| l.header)
            .collect();
        if exacts.is_empty() {
            continue;
        }
        let out = Interpreter::with_config(
            m,
            InterpConfig {
                fuel: 20_000_000,
                max_depth: 512,
            },
        )
        .run("main", &[]);
        if out.result.is_err() {
            continue; // fuel or runtime trap: no ground truth
        }
        for l in &r.loops {
            let TripCount::Exact(n) = l.trip else {
                continue;
            };
            let header = posetrl_ir::BlockId(l.header);
            let Some(hb) = f.block(header) else { continue };
            let Some(&first) = hb.insts.first() else {
                continue;
            };
            let header_count = out.profile.counts.get(&(fid, first)).copied().unwrap_or(0);
            // the header runs trip+1 times per entry; with E entries the
            // count is E * (n + 1) — divisibility is the invariant we can
            // assert without reconstructing E
            if header_count > 0 {
                assert_eq!(
                    header_count % (n + 1),
                    0,
                    "{}: header bb{} count {} not a multiple of trip+1 = {}",
                    m.name,
                    l.header,
                    header_count,
                    n + 1
                );
                checked += 1;
            }
        }
    }
    // the suite is generated: tolerate zero exact-trip loops in @main,
    // but report so a regression in recognition is at least visible
    eprintln!("[scev-trip] cross-checked {checked} exact-trip headers against the interpreter");
}
