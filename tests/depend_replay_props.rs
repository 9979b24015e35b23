//! Interpreter-replay property test for the dependence analysis.
//!
//! Generates small affine loops (`a[c1·i + d1]`, `a[c2·i + d2]` with
//! random coefficients, offsets, trip counts and read/write kinds), runs
//! them through the interpreter to pin their concrete semantics, and then
//! replays the loop's memory-access order checking that the observed
//! conflicts never contradict what `posetrl_analyze::depend` claimed:
//!
//! - a pair with **no recorded dependence** must never touch a common
//!   cell (apart from an access trivially conflicting with itself in the
//!   same iteration, which the analysis skips by design);
//! - a dependence with a **proved distance d** must see no conflicting
//!   gap smaller than `d`;
//! - `parallel_safe` must mean no cross-iteration conflict at all, and
//!   `min_distance = k` must mean no conflicting gap below `k`.
//!
//! An unproved dependence (`distance: None`) constrains nothing — the
//! analysis is allowed to be conservative, never unsound.

use posetrl_analyze::ModuleAnalyses;
use posetrl_ir::interp::{Interpreter, RtVal};
use posetrl_ir::parser::parse_module;
use posetrl_ir::Op;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct AccessSpec {
    coeff: i64,
    off: i64,
    write: bool,
}

fn loop_module(a1: AccessSpec, a2: AccessSpec, trip: u64) -> String {
    let acc = |n: usize, s: AccessSpec| {
        if s.write {
            format!("store i64 %i, %p{n}")
        } else {
            format!("%v{n} = load i64, %p{n}")
        }
    };
    format!(
        r#"
module "t"
fn @main() -> i64 internal {{
bb0:
  %a = alloca i64 x 48
  memset i64 %a, 0:i64, 48:i64
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, {trip}:i64
  condbr %c, bb2, bb3
bb2:
  %e1 = mul i64 %i, {c1}:i64
  %x1 = add i64 %e1, {d1}:i64
  %p1 = gep i64, %a, %x1
  {acc1}
  %e2 = mul i64 %i, {c2}:i64
  %x2 = add i64 %e2, {d2}:i64
  %p2 = gep i64, %a, %x2
  {acc2}
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}}
"#,
        c1 = a1.coeff,
        d1 = a1.off,
        c2 = a2.coeff,
        d2 = a2.off,
        acc1 = acc(1, a1),
        acc2 = acc(2, a2),
    )
}

proptest! {
    #[test]
    fn replayed_access_orders_never_contradict_the_verdicts(
        c1 in 1i64..4,
        d1 in 0i64..5,
        w1 in any::<bool>(),
        c2 in 1i64..4,
        d2 in 0i64..5,
        w2 in any::<bool>(),
        trip in 1u64..11,
    ) {
        // at least one side must write, else the pair space is vacuous
        let a1 = AccessSpec { coeff: c1, off: d1, write: w1 };
        let a2 = AccessSpec { coeff: c2, off: d2, write: w2 || !w1 };
        let text = loop_module(a1, a2, trip);
        let m = parse_module(&text).unwrap();
        posetrl_ir::verifier::verify_module(&m).unwrap();

        // pin the concrete semantics: the loop runs to completion
        let out = Interpreter::new(&m).run("main", &[]);
        prop_assert_eq!(out.result.clone().unwrap(), Some(RtVal::Int(0)));

        let analyses = ModuleAnalyses::new(&m, None);
        let md = analyses.depend();
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let r = md.func(fid).unwrap();
        prop_assert_eq!(r.loops.len(), 1);
        let l = &r.loops[0];
        prop_assert!(!l.opaque_calls && !l.truncated);

        // the two access instructions, in program order (the fixture's
        // only loads/stores live in the loop body)
        let mut insts: Vec<u32> = Vec::new();
        for &id in f.inst_ids().iter() {
            if matches!(f.op(id), Op::Load { .. } | Op::Store { .. }) {
                insts.push(id.0);
            }
        }
        prop_assert_eq!(insts.len(), 2, "fixture has exactly two loop accesses");

        // replay the interpreter's access order: iteration-major, program
        // order within an iteration
        let specs = [a1, a2];
        let mut conflicts: Vec<(usize, usize, u64)> = Vec::new(); // (tag_a, tag_b, gap)
        for t1 in 0..trip {
            for (g1, s1) in specs.iter().enumerate() {
                for t2 in t1..trip {
                    for (g2, s2) in specs.iter().enumerate() {
                        if t2 == t1 && g2 <= g1 {
                            continue; // not after (t1, g1) in program order
                        }
                        if !s1.write && !s2.write {
                            continue;
                        }
                        let cell1 = s1.coeff * t1 as i64 + s1.off;
                        let cell2 = s2.coeff * t2 as i64 + s2.off;
                        if cell1 == cell2 {
                            conflicts.push((g1, g2, t2 - t1));
                        }
                    }
                }
            }
        }

        // global verdicts
        if l.parallel_safe {
            prop_assert!(
                conflicts.iter().all(|&(_, _, gap)| gap == 0),
                "parallel_safe loop has a cross-iteration conflict: {conflicts:?}"
            );
        }
        if let Some(k) = l.min_distance {
            prop_assert!(
                conflicts.iter().all(|&(_, _, gap)| gap == 0 || gap >= k),
                "min_distance {k} contradicted: {conflicts:?}"
            );
        }

        // per-pair verdicts: deps are keyed by access instruction ids
        let tag_of = |inst: u32| insts.iter().position(|&i| i == inst).unwrap();
        for ga in 0..2usize {
            for gb in ga..2usize {
                let pair_conflicts: Vec<u64> = conflicts
                    .iter()
                    .filter(|&&(x, y, _)| (x.min(y), x.max(y)) == (ga, gb))
                    .map(|&(_, _, gap)| gap)
                    .collect();
                let dep = l.deps.iter().find(|d| {
                    let (s, t) = (tag_of(d.src), tag_of(d.dst));
                    (s.min(t), s.max(t)) == (ga, gb)
                });
                match dep {
                    None => {
                        // proven independent: no common cell ever — except
                        // an access meeting itself in the same iteration
                        let violating: Vec<_> = pair_conflicts
                            .iter()
                            .filter(|&&gap| !(ga == gb && gap == 0))
                            .collect();
                        prop_assert!(
                            violating.is_empty(),
                            "refuted pair ({ga},{gb}) conflicts at gaps {violating:?}"
                        );
                    }
                    Some(d) => {
                        if let Some(dist) = d.distance {
                            prop_assert!(
                                pair_conflicts.iter().all(|&gap| gap == 0 || gap >= dist),
                                "distance {dist} contradicted by gaps {pair_conflicts:?}"
                            );
                            if !d.carried {
                                prop_assert_eq!(dist, 0);
                            }
                        }
                    }
                }
            }
        }
    }
}
