//! Shared helpers used by many passes.

use posetrl_ir::analysis::Cfg;
use posetrl_ir::interp::{eval_bin, RtVal};
use posetrl_ir::{BlockId, Const, FuncId, Function, GlobalId, InstId, Module, Op, Ty, Value};
use std::collections::{HashMap, HashSet};

/// The root object of a pointer value, after walking GEP chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtrRoot {
    /// A stack allocation in this function.
    Alloca(InstId),
    /// A global variable.
    Global(GlobalId),
    /// Unknown provenance (argument, call result, null, select of pointers).
    Unknown,
}

/// Resolves the root allocation of a pointer value and, when every GEP on
/// the way has a constant index, the accumulated constant offset.
pub fn pointer_root(f: &Function, mut v: Value) -> (PtrRoot, Option<i64>) {
    let mut offset: Option<i64> = Some(0);
    loop {
        match v {
            Value::Global(g) => return (PtrRoot::Global(g), offset),
            Value::Inst(id) => match f.inst(id).map(|i| &i.op) {
                Some(Op::Alloca { .. }) => return (PtrRoot::Alloca(id), offset),
                Some(Op::Gep { ptr, index, .. }) => {
                    offset = match (offset, index.const_int()) {
                        (Some(acc), Some(i)) => Some(acc + i),
                        _ => None,
                    };
                    v = *ptr;
                }
                _ => return (PtrRoot::Unknown, None),
            },
            _ => return (PtrRoot::Unknown, None),
        }
    }
}

/// Conservative may-alias test between two pointer values.
pub fn may_alias(f: &Function, a: Value, b: Value) -> bool {
    if a == b {
        return true;
    }
    let (ra, oa) = pointer_root(f, a);
    let (rb, ob) = pointer_root(f, b);
    match (ra, rb) {
        (PtrRoot::Unknown, _) | (_, PtrRoot::Unknown) => true,
        (x, y) if x != y => false,
        _ => match (oa, ob) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        },
    }
}

/// The allocas of `f` whose address escapes the function: a pointer rooted
/// at one (see [`pointer_root`]) is stored as a value, passed to a call, or
/// used anywhere but as the address of a load, store, gep, `memcpy` or
/// `memset`. One sweep over the instructions.
pub fn escaping_allocas(f: &Function) -> HashSet<InstId> {
    let mut out = HashSet::new();
    let mut note = |v: Value| {
        if let PtrRoot::Alloca(a) = pointer_root(f, v).0 {
            out.insert(a);
        }
    };
    for id in f.inst_ids() {
        match f.op(id) {
            Op::Load { .. } | Op::Gep { .. } | Op::MemCpy { .. } | Op::MemSet { .. } => {}
            // storing the pointer itself escapes; storing *to* it is fine
            Op::Store { val, .. } => note(*val),
            op => op.operands().into_iter().for_each(&mut note),
        }
    }
    out
}

/// Returns `true` if calls to `callee` are pure expressions (removable when
/// unused, CSE-able): the callee is defined, `readnone` and `willreturn`.
pub fn call_is_pure(m: &Module, callee: FuncId) -> bool {
    m.func(callee)
        .map(|f| !f.is_decl && f.attrs.readnone && f.attrs.willreturn)
        .unwrap_or(false)
}

/// Returns `true` if calls to `callee` do not write memory and perform no
/// I/O (they may still read).
pub fn call_is_readonly(m: &Module, callee: FuncId) -> bool {
    m.func(callee)
        .map(|f| !f.is_decl && (f.attrs.readonly || f.attrs.readnone))
        .unwrap_or(false)
}

/// Returns `true` if instruction `id` can be deleted when its result is
/// unused (refines [`Op::is_pure`] with call attributes).
pub fn is_removable(m: &Module, f: &Function, id: InstId) -> bool {
    match f.op(id) {
        Op::Call { callee, .. } => call_is_pure(m, *callee),
        op => op.is_pure() && !op.is_terminator(),
    }
}

/// Converts a constant to the interpreter value used for compile-time folding.
fn const_rt(c: Const) -> Option<RtVal> {
    match c {
        Const::Int { val, .. } => Some(RtVal::Int(val)),
        Const::Float(v) => Some(RtVal::Float(v)),
        Const::Null | Const::Undef(_) => None,
    }
}

fn rt_const(v: RtVal, ty: Ty) -> Option<Const> {
    match v {
        RtVal::Int(i) => Some(Const::int(ty, i)),
        RtVal::Float(f) => Some(Const::Float(f)),
        _ => None,
    }
}

/// Constant-folds a pure instruction whose operands are all constants,
/// using exactly the interpreter's arithmetic so folds can never change
/// observable behaviour. Returns `None` for non-foldable or trapping ops.
pub fn fold_inst(f: &Function, id: InstId) -> Option<Const> {
    match f.op(id) {
        Op::Bin { op, ty, lhs, rhs } => {
            let a = const_rt(lhs.as_const()?)?;
            let b = const_rt(rhs.as_const()?)?;
            let r = eval_bin(*op, *ty, a, b).ok()?;
            rt_const(r, *ty)
        }
        Op::Icmp { pred, lhs, rhs, .. } => {
            let a = lhs.as_const()?.as_int()?;
            let b = rhs.as_const()?.as_int()?;
            Some(Const::bool(pred.eval(a, b)))
        }
        Op::Fcmp { pred, lhs, rhs } => {
            let a = lhs.as_const()?.as_float()?;
            let b = rhs.as_const()?.as_float()?;
            Some(Const::bool(pred.eval(a, b)))
        }
        Op::Cast { kind, to, val } => {
            let c = val.as_const()?;
            let v = const_rt(c)?;
            let r = posetrl_ir::interp::eval_cast_src(*kind, *to, c.ty(), v).ok()?;
            rt_const(r, *to)
        }
        Op::Select {
            cond, tval, fval, ..
        } => {
            let c = cond.as_const()?.as_int()?;
            let v = if c != 0 { tval } else { fval };
            v.as_const()
        }
        _ => None,
    }
}

/// Removes instructions whose results are unused and that are removable.
/// Iterates to a fixpoint. Returns `true` if anything was removed.
pub fn dce_sweep(m: &Module, f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let uses = f.uses();
        let mut dead = Vec::new();
        for id in f.inst_ids() {
            if f.op(id).result_ty() != Ty::Void || matches!(f.op(id), Op::Alloca { .. }) {
                let used = uses.get(&id).map(|u| !u.is_empty()).unwrap_or(false);
                if !used && is_removable(m, f, id) {
                    dead.push(id);
                }
            }
        }
        if dead.is_empty() {
            return changed;
        }
        for id in dead {
            f.remove_inst(id);
        }
        changed = true;
    }
}

/// Removes blocks unreachable from the entry, fixing up phi nodes in the
/// remaining blocks. Returns `true` if anything was removed.
pub fn remove_unreachable_blocks(f: &mut Function) -> bool {
    let cfg = Cfg::compute(f);
    let reachable = cfg.reachable();
    let dead: Vec<BlockId> = f.block_ids().filter(|b| !reachable.contains(b)).collect();
    if dead.is_empty() {
        return false;
    }
    // drop phi incomings from the dead blocks in all survivors
    let dead_set: HashSet<BlockId> = dead.iter().copied().collect();
    for id in f.inst_ids() {
        let inst = f.inst_mut(id).unwrap();
        if !reachable.contains(&inst.block) {
            continue;
        }
        if let Op::Phi { incomings, .. } = &mut inst.op {
            incomings.retain(|(b, _)| !dead_set.contains(b));
        }
    }
    for d in dead {
        f.remove_block(d);
    }
    true
}

/// Replaces phis that have a single incoming value (or identical incomings)
/// with that value. Returns `true` on change.
pub fn simplify_trivial_phis(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut replaced = false;
        for id in f.inst_ids() {
            if let Op::Phi { incomings, .. } = f.op(id) {
                let vals: HashSet<Value> = incomings
                    .iter()
                    .map(|(_, v)| *v)
                    .filter(|v| *v != Value::Inst(id))
                    .collect();
                if vals.len() == 1 {
                    let v = *vals.iter().next().unwrap();
                    f.replace_all_uses(Value::Inst(id), v);
                    f.remove_inst(id);
                    replaced = true;
                    changed = true;
                }
            }
        }
        if !replaced {
            return changed;
        }
    }
}

/// Splits `block` at instruction position `pos`: instructions from `pos`
/// onward move to a fresh block, and `block` is terminated with a branch to
/// it. Returns the new block. Phi nodes in successors are retargeted.
pub fn split_block(f: &mut Function, block: BlockId, pos: usize) -> BlockId {
    let new_block = f.add_block();
    let moved: Vec<InstId> = f.block(block).unwrap().insts[pos..].to_vec();
    for &id in &moved {
        f.block_mut(block).unwrap().insts.retain(|&i| i != id);
        f.block_mut(new_block).unwrap().insts.push(id);
        f.inst_mut(id).unwrap().block = new_block;
    }
    // successors' phis now come from new_block
    let succs: Vec<BlockId> = f.successors(new_block);
    for s in succs {
        f.retarget_phi_incoming(s, block, new_block);
    }
    f.append_inst(block, Op::Br { target: new_block });
    new_block
}

/// A value substitution map used when cloning code.
#[derive(Debug, Default, Clone)]
pub struct CloneMap {
    /// Old instruction result → new value.
    pub values: HashMap<InstId, Value>,
    /// Old block → new block.
    pub blocks: HashMap<BlockId, BlockId>,
    /// Substitution for `Arg(i)` values (used when inlining).
    pub args: Vec<Value>,
}

impl CloneMap {
    /// Maps an operand through the substitution.
    pub fn map_value(&self, v: Value) -> Value {
        match v {
            Value::Inst(id) => self.values.get(&id).copied().unwrap_or(v),
            Value::Arg(i) => self.args.get(i as usize).copied().unwrap_or(v),
            other => other,
        }
    }
}

/// Clones a set of blocks from `src` into `dst` (which may be the same
/// function), rewriting operands and block references through `map`.
/// Blocks in `blocks` must already have entries in `map.blocks`; branch
/// targets outside the cloned set are left unchanged.
pub fn clone_blocks_into(
    src: &Function,
    dst: &mut Function,
    blocks: &[BlockId],
    map: &mut CloneMap,
) {
    // First pass: create all instructions with placeholder operands so that
    // forward references (loops) resolve.
    for &b in blocks {
        let nb = map.blocks[&b];
        for &id in &src.block(b).unwrap().insts {
            let nid = dst.append_inst(nb, Op::Unreachable);
            map.values.insert(id, Value::Inst(nid));
        }
    }
    // Second pass: fill in the real operations with mapped operands.
    for &b in blocks {
        for &id in &src.block(b).unwrap().insts {
            let mut op = src.op(id).clone();
            op.map_operands(|v| map.map_value(v));
            op.map_blocks(|t| map.blocks.get(&t).copied().unwrap_or(t));
            let nid = map.values[&id].as_inst().expect("cloned inst");
            dst.inst_mut(nid).unwrap().op = op;
        }
    }
}

/// Returns the set of globals read (loaded) anywhere in the module, plus
/// those whose address escapes into non-load/store positions.
pub fn globals_read_or_escaping(m: &Module) -> HashSet<GlobalId> {
    let mut out = HashSet::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        // globals reachable through gep chains
        let mut global_ptrs: HashMap<Value, GlobalId> = HashMap::new();
        for id in f.inst_ids() {
            if let Op::Gep { ptr, .. } = f.op(id) {
                let root = pointer_root(f, *ptr).0;
                if let PtrRoot::Global(g) = root {
                    global_ptrs.insert(Value::Inst(id), g);
                }
            }
        }
        let as_global = |v: &Value| -> Option<GlobalId> {
            match v {
                Value::Global(g) => Some(*g),
                other => global_ptrs.get(other).copied(),
            }
        };
        for id in f.inst_ids() {
            match f.op(id) {
                Op::Load { ptr, .. } => {
                    if let Some(g) = as_global(ptr) {
                        out.insert(g);
                    }
                    if as_global(ptr).is_none() {
                        // load through unknown pointer may read any global
                        for gid in m.global_ids() {
                            out.insert(gid);
                        }
                    }
                }
                Op::Store { val, ptr: _, .. } => {
                    if let Some(g) = as_global(val) {
                        out.insert(g); // address escapes into memory
                    }
                }
                Op::MemCpy { src, .. } => {
                    if let Some(g) = as_global(src) {
                        out.insert(g);
                    } else {
                        for gid in m.global_ids() {
                            out.insert(gid);
                        }
                    }
                }
                Op::Gep { .. } | Op::MemSet { .. } => {}
                op => {
                    for v in op.operands() {
                        if let Some(g) = as_global(&v) {
                            out.insert(g);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;

    #[test]
    fn pointer_root_walks_geps() {
        let m = parse_module(
            r#"
module "m"
global @g : i64 x 8 mutable internal = []
fn @f() -> i64 internal {
bb0:
  %a = alloca i64 x 4
  %p1 = gep i64, %a, 1:i64
  %p2 = gep i64, %p1, 2:i64
  %q = gep i64, @g, 3:i64
  %v = load i64, %p2
  %w = load i64, %q
  %r = add i64 %v, %w
  ret %r
}
"#,
        )
        .unwrap();
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        let ids = f.inst_ids();
        let a = ids[0];
        let p2 = Value::Inst(ids[2]);
        let q = Value::Inst(ids[3]);
        assert_eq!(pointer_root(f, p2), (PtrRoot::Alloca(a), Some(3)));
        match pointer_root(f, q) {
            (PtrRoot::Global(_), Some(3)) => {}
            other => panic!("unexpected root {other:?}"),
        }
        assert!(!may_alias(f, p2, q));
        assert!(may_alias(f, p2, p2));
    }

    #[test]
    fn distinct_offsets_do_not_alias() {
        let m = parse_module(
            r#"
module "m"
fn @f() -> void internal {
bb0:
  %a = alloca i64 x 4
  %p0 = gep i64, %a, 0:i64
  %p1 = gep i64, %a, 1:i64
  store i64 1:i64, %p0
  store i64 2:i64, %p1
  ret
}
"#,
        )
        .unwrap();
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        let ids = f.inst_ids();
        assert!(!may_alias(f, Value::Inst(ids[1]), Value::Inst(ids[2])));
        assert!(may_alias(f, Value::Inst(ids[0]), Value::Inst(ids[1])));
    }

    #[test]
    fn escape_analysis() {
        let m = parse_module(
            r#"
module "m"
declare @sink(ptr) -> void
fn @f() -> void internal {
bb0:
  %a = alloca i64 x 1
  %b = alloca i64 x 1
  store i64 1:i64, %a
  call @sink(%b) -> void
  ret
}
"#,
        )
        .unwrap();
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        let ids = f.inst_ids();
        assert!(!alloca_escapes(f, ids[0]));
        assert!(alloca_escapes(f, ids[1]));
        assert_escape_set_matches_reference(&m);
    }

    /// The per-alloca escape query [`escaping_allocas`] replaced: a fixpoint
    /// over the alloca's gep chains, then a scan of every instruction. Kept as
    /// the reference the set is checked against.
    fn alloca_escapes(f: &Function, id: InstId) -> bool {
        // Track the alloca and every gep derived from it.
        let mut derived: HashSet<Value> = HashSet::from([Value::Inst(id)]);
        let mut changed = true;
        while changed {
            changed = false;
            for iid in f.inst_ids() {
                if let Op::Gep { ptr, .. } = f.op(iid) {
                    if derived.contains(ptr) && derived.insert(Value::Inst(iid)) {
                        changed = true;
                    }
                }
            }
        }
        for iid in f.inst_ids() {
            match f.op(iid) {
                Op::Load { .. } | Op::Gep { .. } => {}
                Op::Store { val, ptr, .. } => {
                    // storing the pointer itself escapes; storing *to* it is fine
                    if derived.contains(val) && !derived.contains(ptr) {
                        return true;
                    }
                    if derived.contains(val) && derived.contains(ptr) {
                        return true;
                    }
                }
                Op::MemCpy { .. } | Op::MemSet { .. } => {
                    // element-wise ops through the pointer do not leak the address
                }
                op => {
                    for v in op.operands() {
                        if derived.contains(&v) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Checks [`escaping_allocas`] against the per-alloca reference on every
    /// alloca of every body in `m`, and returns the escaping names.
    fn assert_escape_set_matches_reference(m: &Module) -> Vec<String> {
        let mut escaping = Vec::new();
        for fid in m.func_ids() {
            let f = m.func(fid).unwrap();
            if f.is_decl {
                continue;
            }
            let set = escaping_allocas(f);
            for id in f.inst_ids() {
                if matches!(f.op(id), Op::Alloca { .. }) {
                    assert_eq!(
                        set.contains(&id),
                        alloca_escapes(f, id),
                        "{}: {id:?}",
                        f.name
                    );
                    if set.contains(&id) {
                        escaping.push(format!("{}:{id:?}", f.name));
                    }
                }
            }
            assert!(set.iter().all(|a| matches!(f.op(*a), Op::Alloca { .. })));
        }
        escaping
    }

    #[test]
    fn escape_set_agrees_with_per_alloca_query() {
        let m = parse_module(
            r#"
module "m"
declare @sink(ptr) -> void
global @slot : ptr x 1 mutable internal = []
fn @f() -> i64 internal {
bb0:
  %geps = alloca i64 x 8
  %stored = alloca i64 x 4
  %passed = alloca i64 x 4
  %local = alloca i64 x 4
  %g1 = gep i64, %geps, 2:i64
  %g2 = gep i64, %g1, 1:i64
  %g3 = gep i64, %g2, 1:i64
  store i64 7:i64, %g3
  %s1 = gep i64, %stored, 1:i64
  %s2 = gep i64, %s1, 1:i64
  store ptr %s2, @slot
  %p1 = gep i64, %passed, 3:i64
  call @sink(%p1) -> void
  %l1 = gep i64, %local, 1:i64
  store i64 1:i64, %l1
  %v = load i64, %l1
  %w = load i64, %g3
  %r = add i64 %v, %w
  ret %r
}
"#,
        )
        .unwrap();
        let escaping = assert_escape_set_matches_reference(&m);
        // %stored (stored as a value through a gep-of-gep) and %passed (a
        // call argument) escape; %geps (a gep-of-gep-of-gep) and %local do not
        assert_eq!(escaping.len(), 2, "{escaping:?}");
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        let set = escaping_allocas(f);
        let ids = f.inst_ids();
        assert!(!set.contains(&ids[0]) && !set.contains(&ids[3]));
        assert!(set.contains(&ids[1]) && set.contains(&ids[2]));
    }

    #[test]
    fn fold_matches_interpreter() {
        let m = parse_module(
            r#"
module "m"
fn @f() -> i64 internal {
bb0:
  %x = mul i64 7:i64, 6:i64
  %c = icmp slt i64 %x, 100:i64
  %s = select i64 %c, %x, 0:i64
  ret %s
}
"#,
        )
        .unwrap();
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        let ids = f.inst_ids();
        assert_eq!(fold_inst(f, ids[0]), Some(Const::int(Ty::I64, 42)));
        assert_eq!(fold_inst(f, ids[1]), None); // operand is not a constant
    }

    #[test]
    fn fold_refuses_div_by_zero() {
        let m = parse_module(
            r#"
module "m"
fn @f() -> i64 internal {
bb0:
  %x = sdiv i64 7:i64, 0:i64
  ret %x
}
"#,
        )
        .unwrap();
        let f = m.func(m.func_by_name("f").unwrap()).unwrap();
        assert_eq!(fold_inst(f, f.inst_ids()[0]), None);
    }

    #[test]
    fn dce_removes_unused_chains() {
        let mut m = parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = mul i64 %a, 2:i64
  %c = alloca i64 x 1
  ret %arg0
}
"#,
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        let mc = m.clone();
        let f = m.func_mut(fid).unwrap();
        assert!(dce_sweep(&mc, f));
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn split_block_moves_tail() {
        let mut m = parse_module(
            r#"
module "m"
fn @f(i64) -> i64 internal {
bb0:
  %a = add i64 %arg0, 1:i64
  %b = add i64 %a, 2:i64
  ret %b
}
"#,
        )
        .unwrap();
        let fid = m.func_by_name("f").unwrap();
        {
            let f = m.func_mut(fid).unwrap();
            let entry = f.entry;
            split_block(f, entry, 1);
        }
        posetrl_analyze::expect_verified(&m, "after split_block");
        let f = m.func(fid).unwrap();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.block(f.entry).unwrap().insts.len(), 2); // add + br
    }
}
