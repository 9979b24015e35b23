//! `-gvn`: global value numbering with load elimination.
//!
//! Reuses the dominator-scoped value numbering of `early-cse` and extends
//! memory handling: loads whose points-to set no write site in the function
//! (stores, memset/memcpy, call mod summaries) can touch are *stable* and
//! value-numbered across the whole dominator tree; everything else stays
//! block-local like `early-cse-memssa`. A function with no writes at all —
//! the common case after `mem2reg`/`dse` — makes every load stable, which
//! recovers the old whole-function behaviour.

use crate::passes::early_cse;
use crate::util::call_is_readonly;
use crate::Pass;
use posetrl_analyze::{ModuleAlias, PtsSet};
use posetrl_ir::analysis::{Cfg, DomTree};
use posetrl_ir::{FuncId, Function, Module, Op, Ty, Value};
use std::collections::HashMap;

/// Value-number table for loads: `(pointer, type) -> known value`.
type LoadTable = HashMap<(Value, Ty), Value>;

/// The `gvn` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&self, module: &mut Module) -> bool {
        let snapshot = module.clone();
        let ma = posetrl_analyze::alias::analyze_module_with(&snapshot, None);
        let mut changed = false;
        module.for_each_body(|fid, f| {
            changed |= gvn_function(&snapshot, fid, f, &ma);
        });
        changed
    }
}

/// The points-to sets of every write site in the function, or `None` when
/// some write cannot be summarized (an unresolvable call).
fn function_clobbers(
    m: &Module,
    fid: FuncId,
    f: &Function,
    ma: &ModuleAlias,
) -> Option<Vec<PtsSet>> {
    let mut clobbers = Vec::new();
    for id in f.inst_ids() {
        match f.op(id) {
            Op::Store { ptr, .. } | Op::MemSet { dst: ptr, .. } => {
                clobbers.push(ma.value_pts(fid, f, *ptr));
            }
            Op::MemCpy { dst, .. } => clobbers.push(ma.value_pts(fid, f, *dst)),
            Op::Call { callee, .. } if !call_is_readonly(m, *callee) => {
                clobbers.push(ma.call_mods(fid, f, id)?);
            }
            _ => {}
        }
    }
    Some(clobbers)
}

fn gvn_function(m: &Module, fid: FuncId, f: &mut Function, ma: &ModuleAlias) -> bool {
    // The early-cse machinery provides scoped pure-expression numbering and
    // block-local memory forwarding.
    let mut changed = early_cse::cse_function(m, f, true, Some((ma, fid)));

    // Whole-tree numbering of *stable* loads: those whose cells no write in
    // the function may touch. A dominated re-load of a stable cell always
    // observes the same value, wherever the writes sit.
    let clobbers = function_clobbers(m, fid, f, ma);
    let stable = |f: &Function, ptr: Value| -> bool {
        match &clobbers {
            None => false,
            Some(cs) => {
                let pts = ma.value_pts(fid, f, ptr);
                cs.iter().all(|c| !ma.sets_may_alias(fid, &pts, c))
            }
        }
    };
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let mut stack: Vec<(posetrl_ir::BlockId, LoadTable)> = vec![(f.entry, HashMap::new())];
    while let Some((b, mut table)) = stack.pop() {
        for id in f.block(b).unwrap().insts.clone() {
            if f.inst(id).is_none() {
                continue;
            }
            if let Op::Load { ty, ptr } = f.op(id).clone() {
                if !stable(f, ptr) {
                    continue;
                }
                if let Some(&v) = table.get(&(ptr, ty)) {
                    f.replace_all_uses(Value::Inst(id), v);
                    f.remove_inst(id);
                    changed = true;
                } else {
                    table.insert((ptr, ty), Value::Inst(id));
                }
            }
        }
        for &c in dt.children.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
            stack.push((c, table.clone()));
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;

    #[test]
    fn numbers_loads_across_blocks_without_writes() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = [5:i64]
fn @main(i64) -> i64 internal {
bb0:
  %a = load i64, @g
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  %b = load i64, @g
  %r = add i64 %a, %b
  ret %r
bb2:
  ret %a
}
"#,
            &["gvn"],
            &[vec![RtVal::Int(1)], vec![RtVal::Int(-1)]],
        );
        assert_eq!(count_ops(&m, "load"), 1, "dominated load removed");
    }

    #[test]
    fn keeps_loads_when_function_writes() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = [5:i64]
fn @main(i64) -> i64 internal {
bb0:
  %a = load i64, @g
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  store i64 9:i64, @g
  br bb2
bb2:
  %b = load i64, @g
  %r = add i64 %a, %b
  ret %r
}
"#,
            &["gvn"],
            &[vec![RtVal::Int(1)], vec![RtVal::Int(-1)]],
        );
        assert_eq!(
            count_ops(&m, "load"),
            2,
            "store on one path blocks global numbering"
        );
    }

    #[test]
    fn numbers_global_loads_despite_private_writes() {
        // the store targets a non-escaping alloca; points-to proves it cannot
        // clobber @g, so the dominated re-load of @g is still numbered even
        // though the function writes memory
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = [5:i64]
fn @main(i64) -> i64 internal {
bb0:
  %p = alloca i64 x 1
  store i64 %arg0, %p
  %a = load i64, @g
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  %b = load i64, @g
  %q = load i64, %p
  %r0 = add i64 %a, %b
  %r = add i64 %r0, %q
  ret %r
bb2:
  ret %a
}
"#,
            &["gvn"],
            &[vec![RtVal::Int(1)], vec![RtVal::Int(-1)]],
        );
        // the @g re-load is numbered away; the %p load (clobbered cell) stays
        assert_eq!(count_ops(&m, "load"), 2);
    }

    #[test]
    fn gvn_subsumes_pure_cse() {
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %a = mul i64 %arg0, %arg0
  %b = mul i64 %arg0, %arg0
  %r = add i64 %a, %b
  ret %r
}
"#,
            &["gvn"],
            &[vec![RtVal::Int(6)]],
        );
        assert_eq!(count_ops(&m, "mul"), 1);
    }
}
