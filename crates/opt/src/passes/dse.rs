//! `-dse`: alias-aware dead-store elimination and store-to-load forwarding.
//!
//! Four cooperating sub-transforms, grounded in the interprocedural
//! points-to analysis from [`posetrl_analyze::alias`]:
//!
//! 1. block-local store-to-load forwarding — a load at the exact
//!    `(pointer, type)` of an earlier same-block store with no intervening
//!    may-clobber is replaced by the stored value;
//! 2. block-local overwritten-store elimination — a store overwritten by a
//!    later same-pointer store with no possible reader in between is dropped;
//! 3. whole-function dead stores proven unread by the MemorySSA-style
//!    def/use chains ([`posetrl_analyze::MemDep`]);
//! 4. the legacy sweep of stores into never-loaded non-escaping slots.
//!
//! Disambiguation everywhere is the *conjunction* of the syntactic
//! pointer-root walk ([`crate::util::may_alias`]) and the points-to sets:
//! either proof of no-alias keeps a candidate alive, because each analysis
//! is independently sound.

use crate::util::{escaping_allocas, may_alias, pointer_root, PtrRoot};
use crate::Pass;
use posetrl_analyze::ModuleAlias;
use posetrl_ir::{FuncId, Function, InstId, Module, Op, Ty, Value};
use std::collections::{HashMap, HashSet};

/// The `-dse` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dse;

impl Pass for Dse {
    fn name(&self) -> &'static str {
        "dse"
    }

    fn run(&self, module: &mut Module) -> bool {
        let snapshot = module.clone();
        let ma = posetrl_analyze::alias::analyze_module_with(&snapshot, None);
        let mut changed = false;
        module.for_each_body(|fid, f| {
            changed |= dse_forward_stores(&snapshot, fid, f, &ma);
            changed |= dse_block_local(&snapshot, fid, f, &ma);
            changed |= dse_proven_dead(fid, f, &ma);
            changed |= dse_dead_slots(f);
        });
        changed
    }
}

/// May a write through `b` clobber the cell named by `a`? Both the syntactic
/// and the points-to disambiguator must agree before we give up.
fn clobbers(ma: &ModuleAlias, fid: FuncId, f: &Function, a: Value, b: Value) -> bool {
    may_alias(f, a, b) && ma.may_alias(fid, f, a, b)
}

/// Block-local store-to-load forwarding: replaces loads whose exact
/// `(pointer, type)` cell provably still holds an earlier stored value.
fn dse_forward_stores(m: &Module, fid: FuncId, f: &mut Function, ma: &ModuleAlias) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        // (pointer, type) -> the value the cell is known to hold
        let mut avail: HashMap<(Value, Ty), Value> = HashMap::new();
        for id in f.block(b).unwrap().insts.clone() {
            if f.inst(id).is_none() {
                continue;
            }
            match f.op(id).clone() {
                Op::Store { ty, val, ptr } => {
                    avail.retain(|(p, _), _| !clobbers(ma, fid, f, *p, ptr));
                    avail.insert((ptr, ty), val);
                }
                Op::Load { ty, ptr } => {
                    if let Some(&v) = avail.get(&(ptr, ty)) {
                        f.replace_all_uses(Value::Inst(id), v);
                        f.remove_inst(id);
                        changed = true;
                    }
                }
                Op::MemCpy { dst, .. } | Op::MemSet { dst, .. } => {
                    avail.retain(|(p, _), _| !clobbers(ma, fid, f, *p, dst));
                }
                Op::Call { callee, .. } => {
                    if crate::util::call_is_readonly(m, callee) {
                        continue;
                    }
                    // keep cells the callee's substituted mod set cannot touch
                    match ma.call_mods(fid, f, id) {
                        Some(mods) => avail.retain(|(p, _), _| {
                            !ma.sets_may_alias(fid, &ma.value_pts(fid, f, *p), &mods)
                        }),
                        None => avail.clear(),
                    }
                }
                _ => {}
            }
        }
    }
    changed
}

/// Removes stores overwritten by a later store to the same pointer in the
/// same block with no possible reader in between.
fn dse_block_local(m: &Module, fid: FuncId, f: &mut Function, ma: &ModuleAlias) -> bool {
    let mut dead: Vec<InstId> = Vec::new();
    // computed at the first call that needs it; `f` does not change here
    let mut escaping: Option<HashSet<InstId>> = None;
    for b in f.block_ids().collect::<Vec<_>>() {
        // pending[ptr value] = earlier store awaiting a decision
        let mut pending: HashMap<Value, InstId> = HashMap::new();
        for &id in &f.block(b).unwrap().insts.clone() {
            if f.inst(id).is_none() {
                continue;
            }
            match f.op(id) {
                Op::Store { ptr, .. } => {
                    if let Some(&prev) = pending.get(ptr) {
                        // same pointer value overwritten with no reader between
                        dead.push(prev);
                    }
                    // a store to P clobbers knowledge about aliasing pointers
                    pending.retain(|p, _| !clobbers(ma, fid, f, *p, *ptr));
                    pending.insert(*ptr, id);
                }
                Op::Load { ptr, .. } => {
                    pending.retain(|p, _| !clobbers(ma, fid, f, *p, *ptr));
                }
                Op::MemCpy { src, dst, .. } => {
                    pending.retain(|p, _| {
                        !clobbers(ma, fid, f, *p, *src) && !clobbers(ma, fid, f, *p, *dst)
                    });
                }
                Op::MemSet { dst, .. } => {
                    pending.retain(|p, _| !clobbers(ma, fid, f, *p, *dst));
                }
                Op::Call { callee, .. }
                    if (!crate::util::call_is_readonly(m, *callee)
                        || !crate::util::call_is_pure(m, *callee)) =>
                {
                    // the callee may read or write any memory we can't prove
                    // local; a pending store survives if its cell is provably
                    // frame-private (syntactic) or outside the callee's
                    // substituted mod/ref sets (points-to)
                    let mods = ma.call_mods(fid, f, id);
                    let refs = ma.call_refs(fid, f, id);
                    let escaping = escaping.get_or_insert_with(|| escaping_allocas(f));
                    pending.retain(|p, _| {
                        if matches!(pointer_root(f, *p).0,
                            PtrRoot::Alloca(a) if !escaping.contains(&a))
                        {
                            return true;
                        }
                        match (&mods, &refs) {
                            (Some(mods), Some(refs)) => {
                                let pp = ma.value_pts(fid, f, *p);
                                !ma.sets_may_alias(fid, &pp, mods)
                                    && !ma.sets_may_alias(fid, &pp, refs)
                            }
                            _ => false,
                        }
                    });
                }
                _ => {}
            }
        }
    }
    if dead.is_empty() {
        return false;
    }
    dead.sort();
    dead.dedup();
    for id in dead {
        f.remove_inst(id);
    }
    true
}

/// Removes whole-function dead stores proven by the MemorySSA-style def/use
/// chains: frame-private, in-bounds, and with no reachable may-reader.
fn dse_proven_dead(fid: FuncId, f: &mut Function, ma: &ModuleAlias) -> bool {
    let Some(md) = ma.memdep(fid) else {
        return false;
    };
    let mut changed = false;
    for &raw in &md.dead_stores {
        let id = InstId(raw);
        if f.inst(id).is_none() {
            continue;
        }
        if matches!(f.op(id), Op::Store { .. } | Op::MemSet { .. }) {
            f.remove_inst(id);
            changed = true;
        }
    }
    changed
}

/// Removes all stores to non-escaping allocas that are never loaded.
fn dse_dead_slots(f: &mut Function) -> bool {
    // allocas that never escape and are never loaded from (directly or via
    // geps/memcpy): their stores are unobservable
    let escaping = escaping_allocas(f);
    let root = |v: Value| match pointer_root(f, v).0 {
        PtrRoot::Alloca(a) => Some(a),
        _ => None,
    };
    let mut read: HashSet<InstId> = HashSet::new();
    for id in f.inst_ids() {
        if let Op::Load { ptr, .. } | Op::MemCpy { src: ptr, .. } = f.op(id) {
            read.extend(root(*ptr));
        }
    }
    let dead: Vec<InstId> = f
        .inst_ids()
        .into_iter()
        .filter(|&id| {
            let dst = match f.op(id) {
                Op::Store { ptr, .. } => *ptr,
                Op::MemSet { dst, .. } | Op::MemCpy { dst, .. } => *dst,
                _ => return false,
            };
            root(dst).is_some_and(|a| !escaping.contains(&a) && !read.contains(&a))
        })
        .collect();
    for &id in &dead {
        f.remove_inst(id);
    }
    !dead.is_empty()
}

#[cfg(test)]
mod tests {
    use crate::testutil::{assert_preserves, count_ops};
    use posetrl_ir::interp::RtVal;

    #[test]
    fn dse_removes_overwritten_store() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
fn @main() -> i64 internal {
bb0:
  store i64 1:i64, @g
  store i64 2:i64, @g
  %v = load i64, @g
  ret %v
}
"#,
            &["dse"],
            &[],
        );
        assert_eq!(count_ops(&m, "store"), 1);
        assert_eq!(count_ops(&m, "load"), 0, "load forwarded from the store");
    }

    #[test]
    fn dse_keeps_store_with_intervening_load() {
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
declare @obs(i64) -> void
fn @main() -> i64 internal {
bb0:
  store i64 1:i64, @g
  %v = load i64, @g
  call @obs(%v) -> void
  store i64 2:i64, @g
  %w = load i64, @g
  %r = add i64 %v, %w
  ret %r
}
"#,
            &["dse"],
            &[],
        );
        // the first store feeds an observed load (the call pins it: the
        // callee may re-read the global), so both stores must survive
        assert_eq!(count_ops(&m, "store"), 2);
    }

    #[test]
    fn dse_forwards_then_kills_overwritten_store() {
        // with store-to-load forwarding, both loads become constants and the
        // first store — now unread before its overwrite — dies too
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
fn @main() -> i64 internal {
bb0:
  store i64 1:i64, @g
  %v = load i64, @g
  store i64 2:i64, @g
  %w = load i64, @g
  %r = add i64 %v, %w
  ret %r
}
"#,
            &["dse"],
            &[],
        );
        assert_eq!(count_ops(&m, "load"), 0, "both loads forwarded");
        assert_eq!(
            count_ops(&m, "store"),
            1,
            "first store dead after forwarding"
        );
    }

    #[test]
    fn dse_removes_stores_to_never_loaded_slot() {
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %p = alloca i64 x 4
  %q = gep i64, %p, 1:i64
  store i64 %arg0, %q
  memset i64 %p, 0:i64, 4:i64
  ret %arg0
}
"#,
            &["dse"],
            &[vec![RtVal::Int(3)]],
        );
        assert_eq!(count_ops(&m, "store"), 0);
        assert_eq!(count_ops(&m, "memset"), 0);
    }

    #[test]
    fn dse_respects_aliasing_unknown_pointers() {
        let m = assert_preserves(
            r#"
module "m"
declare @get(ptr) -> void
fn @main(i64) -> i64 internal {
bb0:
  %p = alloca i64 x 1
  store i64 1:i64, %p
  call @get(%p) -> void
  store i64 2:i64, %p
  %v = load i64, %p
  ret %v
}
"#,
            &["dse"],
            &[],
        );
        assert_eq!(
            count_ops(&m, "store"),
            2,
            "call may observe the first store"
        );
    }

    #[test]
    fn dse_removes_cross_block_store_unread_before_exit() {
        // the store in bb0 targets a frame-private slot that is never read on
        // any path: only MemDep's reachability argument can prove this
        let m = assert_preserves(
            r#"
module "m"
fn @main(i64) -> i64 internal {
bb0:
  %p = alloca i64 x 1
  %q = alloca i64 x 1
  store i64 7:i64, %p
  store i64 %arg0, %q
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  %v = load i64, %q
  ret %v
bb2:
  ret 0:i64
}
"#,
            &["dse"],
            &[vec![RtVal::Int(3)], vec![RtVal::Int(-3)]],
        );
        // %p's store dies (never read anywhere); %q's store must stay (read
        // in bb1) — but its load in bb1 is in another block, beyond the
        // block-local forwarder, so the load survives too
        assert_eq!(count_ops(&m, "store"), 1);
        assert_eq!(count_ops(&m, "load"), 1);
    }

    #[test]
    fn dse_alias_keeps_forwarding_across_summarized_call() {
        // @bump writes only through its own argument; the interprocedural
        // mod/ref summary proves it cannot touch @g, so the load of @g still
        // forwards from the store across the (memory-writing) call
        let m = assert_preserves(
            r#"
module "m"
global @g : i64 x 1 mutable internal = []
global @h : i64 x 1 mutable internal = [5:i64]
fn @bump(ptr) -> i64 internal {
bb0:
  %v = load i64, %arg0
  %n = add i64 %v, 1:i64
  store i64 %n, %arg0
  ret %v
}
fn @main(i64) -> i64 internal {
bb0:
  store i64 %arg0, @g
  %x = call @bump(@h) -> i64
  %y = load i64, @g
  %r = add i64 %x, %y
  ret %r
}
"#,
            &["dse"],
            &[vec![RtVal::Int(21)]],
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let loads = f
            .inst_ids()
            .iter()
            .filter(|&&i| f.op(i).kind_name() == "load")
            .count();
        assert_eq!(loads, 0, "load of @g forwarded across the summarized call");
    }
}
