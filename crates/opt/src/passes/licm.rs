//! `-licm` and `-loop-sink`: moving code out of and back into loops.

use crate::util::{call_is_readonly, may_alias};
use crate::Pass;
use posetrl_analyze::ModuleAlias;
use posetrl_ir::analysis::{Cfg, DomTree, LoopForest};
use posetrl_ir::{FuncId, Function, InstId, Module, Op, Value};
use std::collections::HashSet;

/// `-licm`: hoists loop-invariant pure instructions (and provably-executed
/// invariant loads) into the preheader.
#[derive(Debug, Clone, Copy, Default)]
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&self, module: &mut Module) -> bool {
        let snapshot = module.clone();
        let ma = posetrl_analyze::alias::analyze_module_with(&snapshot, None);
        let mut changed = false;
        module.for_each_body(|fid, f| {
            changed |= hoist_invariants(&snapshot, fid, f, &ma);
        });
        changed
    }
}

fn hoist_invariants(m: &Module, fid: FuncId, f: &mut Function, ma: &ModuleAlias) -> bool {
    let mut changed = false;
    for _ in 0..4 {
        let cfg = Cfg::compute(f);
        let dt = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dt);
        let mut round = false;
        // innermost loops first: hoisting cascades outward on later rounds
        for l in forest.loops.iter().rev() {
            let Some(preheader) = l.preheader(f, &cfg) else {
                continue;
            };
            // does the loop write memory or call anything non-readonly?
            let mut loop_writes: Vec<Value> = Vec::new(); // written pointers
            let mut loop_calls: Vec<InstId> = Vec::new(); // non-readonly calls
            let mut has_unknown_write = false;
            for &b in &l.blocks {
                for &id in &f.block(b).unwrap().insts {
                    match f.op(id) {
                        Op::Store { ptr, .. } | Op::MemSet { dst: ptr, .. } => {
                            loop_writes.push(*ptr)
                        }
                        Op::MemCpy { dst, .. } => loop_writes.push(*dst),
                        Op::Call { callee, .. } if !call_is_readonly(m, *callee) => {
                            has_unknown_write = true;
                            loop_calls.push(id);
                        }
                        _ => {}
                    }
                }
            }

            // may any in-loop write clobber a load through `ptr`? Checked via
            // the points-to sets, so callee writes are covered by their
            // substituted mod summaries rather than a blanket bail-out.
            let alias_clobbered = |f: &Function, ptr: Value| -> bool {
                let pts = ma.value_pts(fid, f, ptr);
                loop_writes
                    .iter()
                    .any(|&w| ma.sets_may_alias(fid, &pts, &ma.value_pts(fid, f, w)))
                    || loop_calls.iter().any(|&c| match ma.call_mods(fid, f, c) {
                        Some(mods) => ma.sets_may_alias(fid, &pts, &mods),
                        None => true,
                    })
            };

            let mut invariant: HashSet<InstId> = HashSet::new();
            let value_invariant = |v: Value, inv: &HashSet<InstId>, f: &Function| -> bool {
                match v {
                    Value::Inst(id) => {
                        inv.contains(&id) || !l.blocks.contains(&f.inst(id).unwrap().block)
                    }
                    _ => true,
                }
            };
            // collect invariants in program order, to a fixpoint
            let mut grow = true;
            while grow {
                grow = false;
                for &b in &l.blocks {
                    for &id in &f.block(b).unwrap().insts {
                        if invariant.contains(&id) {
                            continue;
                        }
                        let op = f.op(id);
                        let hoistable_shape = match op {
                            Op::Phi { .. } | Op::Alloca { .. } => false,
                            Op::Load { ptr, .. } => {
                                // loads must be guaranteed to execute (header
                                // only) and not clobbered anywhere in the
                                // loop: either the syntactic argument or the
                                // points-to one suffices
                                b == l.header
                                    && value_invariant(*ptr, &invariant, f)
                                    && ((!has_unknown_write
                                        && loop_writes.iter().all(|w| !may_alias(f, *w, *ptr)))
                                        || !alias_clobbered(f, *ptr))
                            }
                            other => other.is_pure(),
                        };
                        if !hoistable_shape {
                            continue;
                        }
                        if op
                            .operands()
                            .iter()
                            .all(|&v| value_invariant(v, &invariant, f))
                        {
                            invariant.insert(id);
                            grow = true;
                        }
                    }
                }
            }
            if invariant.is_empty() {
                continue;
            }
            // hoist in dependency order: repeatedly move instructions whose
            // operands are already outside the loop
            let mut remaining: Vec<InstId> = invariant.iter().copied().collect();
            remaining.sort();
            while !remaining.is_empty() {
                let mut progressed = false;
                let mut next = Vec::new();
                for id in remaining {
                    let ready = f.op(id).operands().iter().all(|&v| match v {
                        Value::Inst(d) => !l.blocks.contains(&f.inst(d).unwrap().block),
                        _ => true,
                    });
                    if ready {
                        f.move_inst_before_terminator(id, preheader);
                        progressed = true;
                        round = true;
                    } else {
                        next.push(id);
                    }
                }
                if !progressed {
                    break;
                }
                remaining = next;
            }
        }
        if !round {
            break;
        }
        changed = true;
    }
    changed
}

/// `-loop-sink`: the size/register-pressure counterpart of LICM — moves
/// pure preheader computations that are only used inside the loop back to
/// their (single) use block.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopSink;

impl Pass for LoopSink {
    fn name(&self) -> &'static str {
        "loop-sink"
    }

    fn run(&self, module: &mut Module) -> bool {
        let mut changed = false;
        module.for_each_body(|_, f| {
            changed |= sink_into_loops(f);
        });
        changed
    }
}

fn sink_into_loops(f: &mut Function) -> bool {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let forest = LoopForest::compute(f, &cfg, &dt);
    let mut changed = false;
    for l in &forest.loops {
        let Some(preheader) = l.preheader(f, &cfg) else {
            continue;
        };
        for id in f.block(preheader).unwrap().insts.clone() {
            let op = f.op(id);
            if !op.is_pure()
                || matches!(op, Op::Alloca { .. } | Op::Phi { .. })
                || op.is_terminator()
            {
                continue;
            }
            let uses = f.uses();
            let users = uses.get(&id).cloned().unwrap_or_default();
            if users.is_empty() {
                continue;
            }
            // all uses must be non-phi instructions in one loop block
            let mut blocks: HashSet<_> = HashSet::new();
            let mut ok = true;
            for &u in &users {
                if matches!(f.op(u), Op::Phi { .. }) {
                    ok = false;
                    break;
                }
                blocks.insert(f.inst(u).unwrap().block);
            }
            if !ok || blocks.len() != 1 {
                continue;
            }
            let target = *blocks.iter().next().unwrap();
            if !l.blocks.contains(&target) {
                continue;
            }
            // move to just before the earliest use in that block
            let pos = f
                .block(target)
                .unwrap()
                .insts
                .iter()
                .position(|i| users.contains(i))
                .unwrap_or(0);
            // manual move preserving relative order
            let old_block = f.inst(id).unwrap().block;
            if let Some(b) = f.block_mut(old_block) {
                b.insts.retain(|&i| i != id);
            }
            f.block_mut(target).unwrap().insts.insert(pos, id);
            f.inst_mut(id).unwrap().block = target;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;

    const HOISTABLE: &str = r#"
module "m"
fn @main(i64, i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %cc = icmp slt i64 %i, %arg0
  condbr %cc, bb2, bb3
bb2:
  %inv = mul i64 %arg1, 7:i64
  %s2 = add i64 %s, %inv
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %s
}
"#;

    #[test]
    fn hoists_invariant_multiplication() {
        let m = assert_preserves(
            HOISTABLE,
            &["licm"],
            &[
                vec![RtVal::Int(10), RtVal::Int(3)],
                vec![RtVal::Int(0), RtVal::Int(3)],
            ],
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        // the mul now lives in the preheader (entry block here)
        let entry_ops: Vec<&str> = f
            .block(f.entry)
            .unwrap()
            .insts
            .iter()
            .map(|&i| f.op(i).kind_name())
            .collect();
        assert!(
            entry_ops.contains(&"mul"),
            "invariant mul hoisted to preheader: {entry_ops:?}"
        );
    }

    #[test]
    fn hoists_invariant_load_from_header() {
        let m = assert_preserves(
            r#"
module "m"
global @k : i64 x 1 mutable internal = [4:i64]
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %v = load i64, @k
  %cc = icmp slt i64 %i, %arg0
  condbr %cc, bb2, bb3
bb2:
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %s
}
"#,
            &["licm"],
            &[vec![RtVal::Int(5)], vec![RtVal::Int(0)]],
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let entry_ops: Vec<&str> = f
            .block(f.entry)
            .unwrap()
            .insts
            .iter()
            .map(|&i| f.op(i).kind_name())
            .collect();
        assert!(
            entry_ops.contains(&"load"),
            "invariant load hoisted: {entry_ops:?}"
        );
    }

    #[test]
    fn does_not_hoist_load_past_aliasing_store() {
        let m = assert_preserves(
            r#"
module "m"
global @k : i64 x 1 mutable internal = [4:i64]
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %v = load i64, @k
  %cc = icmp slt i64 %i, %arg0
  condbr %cc, bb2, bb3
bb2:
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, 1:i64
  store i64 %i2, @k
  br bb1
bb3:
  ret %s
}
"#,
            &["licm"],
            &[vec![RtVal::Int(5)], vec![RtVal::Int(0)]],
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let entry_ops: Vec<&str> = f
            .block(f.entry)
            .unwrap()
            .insts
            .iter()
            .map(|&i| f.op(i).kind_name())
            .collect();
        assert!(!entry_ops.contains(&"load"), "clobbered load must stay put");
    }

    #[test]
    fn hoists_load_past_disjoint_summarized_call() {
        // @tick writes only @cnt; the interprocedural mod summary proves the
        // header load of @k is never clobbered, so it hoists even though the
        // loop contains a memory-writing call
        let m = assert_preserves(
            r#"
module "m"
global @k : i64 x 1 mutable internal = [4:i64]
global @cnt : i64 x 1 mutable internal = [0:i64]
fn @tick() -> void internal {
bb0:
  %v = load i64, @cnt
  %n = add i64 %v, 1:i64
  store i64 %n, @cnt
  ret
}
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %v = load i64, @k
  %cc = icmp slt i64 %i, %arg0
  condbr %cc, bb2, bb3
bb2:
  call @tick() -> void
  %s2 = add i64 %s, %v
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %s
}
"#,
            &["licm"],
            &[vec![RtVal::Int(5)], vec![RtVal::Int(0)]],
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let entry_ops: Vec<&str> = f
            .block(f.entry)
            .unwrap()
            .insts
            .iter()
            .map(|&i| f.op(i).kind_name())
            .collect();
        assert!(
            entry_ops.contains(&"load"),
            "load hoisted past the summarized call: {entry_ops:?}"
        );
    }

    #[test]
    fn does_not_hoist_from_conditional_body_if_trapping() {
        // the mul is pure, so hoisting from a conditional body is fine; but
        // the sdiv (which can trap) must not be speculated
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64, i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %i2]
  %s = phi i64 [bb0: 0:i64], [bb2: %s2]
  %cc = icmp slt i64 %i, %arg0
  condbr %cc, bb2, bb3
bb2:
  %q = sdiv i64 100:i64, %arg1
  %s2 = add i64 %s, %q
  %i2 = add i64 %i, 1:i64
  br bb1
bb3:
  ret %s
}
"#,
            &["licm"],
            &[
                vec![RtVal::Int(3), RtVal::Int(4)],
                vec![RtVal::Int(0), RtVal::Int(0)], // division never executes
            ],
        );
        assert_eq!(count_ops(&m, "sdiv"), 1);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let entry_ops: Vec<&str> = f
            .block(f.entry)
            .unwrap()
            .insts
            .iter()
            .map(|&i| f.op(i).kind_name())
            .collect();
        assert!(!entry_ops.contains(&"sdiv"));
    }

    #[test]
    fn loop_sink_reverses_licm() {
        let hoisted = assert_preserves(HOISTABLE, &["licm"], &[vec![RtVal::Int(4), RtVal::Int(2)]]);
        let text = posetrl_ir::printer::print_module(&hoisted);
        let m = assert_preserves(&text, &["loop-sink"], &[vec![RtVal::Int(4), RtVal::Int(2)]]);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let entry_ops: Vec<&str> = f
            .block(f.entry)
            .unwrap()
            .insts
            .iter()
            .map(|&i| f.op(i).kind_name())
            .collect();
        assert!(
            !entry_ops.contains(&"mul"),
            "sunk back into the loop: {entry_ops:?}"
        );
    }
}
