//! MemorySSA-style per-function memory dependence.
//!
//! On top of the points-to solution, this module computes a classic
//! reaching-definitions dataflow over the memory-writing instructions
//! (stores, memsets/memcpys, calls with a non-empty mod set), with
//! strong updates for syntactically identical store targets. Every load
//! is then attached to the set of defs that *may* feed it, after
//! disambiguation by (a) the points-to sets and (b) base-object +
//! constant-offset reasoning — the same const-index gep walk absint's
//! pointer facts are built from (two accesses off one base at different
//! constant cell offsets cannot touch the same cell).
//!
//! The builder additionally proves stores *dead*: a store is dead when
//! its target is provably frame-private (own, never-escaping alloca),
//! provably in-bounds and type-matched (so it cannot trap), and no
//! reachable instruction after it may read the cell. Those judgements
//! feed the `store-dead` lint and the `dse` pass — and because the
//! in-bounds requirement makes removal *exactly* semantics-preserving
//! (not merely a refinement), the interpreter-equality property tests
//! hold as well.

use super::{FnAliasSummary, FuncAlias, MemObj, PtsSet};
use posetrl_ir::analysis::cfg::Cfg;
use posetrl_ir::{Function, InstId, Op, Ty, Value};
use std::collections::{BTreeMap, HashMap};

/// Upper bound on recorded may-defs per load (tail truncated, smallest
/// instruction ids kept — deterministic).
const MAX_DEPS_PER_LOAD: usize = 32;

/// Upper bound on the store→load chain depth metric.
const MAX_CHAIN: u32 = 64;

/// The memory-dependence result of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemDep {
    /// For each load (by instruction id): the ids of the defs that may
    /// reach it, ascending.
    pub load_deps: BTreeMap<u32, Vec<u32>>,
    /// Stores proven dead (frame-private target, in-bounds, no reachable
    /// may-reader), ascending.
    pub dead_stores: Vec<u32>,
    /// The deepest store→load def/use chain observed (0 when the
    /// function has no loads).
    pub max_chain: u32,
}

/// One memory-writing site.
struct Def {
    id: InstId,
    /// What the def may write.
    mods: PtsSet,
    /// For plain stores: the syntactic (pointer value, type) key used
    /// for strong updates, plus the const-offset resolution.
    store_key: Option<(Value, Ty)>,
    root: Option<(Value, i64)>,
    /// Whether offset disambiguation applies (single-cell access).
    single_cell: bool,
}

/// Walks constant-index geps down to the underlying base value.
/// Returns the base and the accumulated cell offset, or `None` for the
/// offset as soon as one index is not a constant.
fn resolve_root(f: &Function, v: Value) -> (Value, Option<i64>) {
    let mut cur = v;
    let mut off: Option<i64> = Some(0);
    loop {
        let Value::Inst(id) = cur else {
            return (cur, off);
        };
        let Op::Gep { ptr, index, .. } = f.op(id) else {
            return (cur, off);
        };
        match index {
            Value::Const(c) => match c.as_int() {
                Some(i) => off = off.map(|o| o.saturating_add(i)),
                None => off = None,
            },
            _ => off = None,
        }
        cur = *ptr;
    }
}

/// Local (driver-independent) alias queries against in-progress facts —
/// the memdep builder runs inside the memoized `analyze_function` leaf,
/// before a `ModuleAlias` exists.
struct Ctx<'a> {
    fid: u32,
    f: &'a Function,
    facts: &'a FuncAlias,
    summaries: &'a BTreeMap<u32, FnAliasSummary>,
    cap: usize,
}

impl Ctx<'_> {
    fn value_pts(&self, v: Value) -> PtsSet {
        match v {
            Value::Const(_) => PtsSet::empty(),
            Value::Global(g) => PtsSet::of(MemObj::Global(g.0)),
            Value::Func(g) => PtsSet::of(MemObj::Func(g.0)),
            Value::Arg(i) => {
                if self.f.params.get(i as usize) == Some(&Ty::Ptr) {
                    PtsSet::of(MemObj::Arg {
                        func: self.fid,
                        arg: i,
                    })
                } else {
                    PtsSet::empty()
                }
            }
            Value::Inst(id) => self.facts.pts_of(id),
        }
    }

    fn externally_reachable(&self, o: &MemObj) -> bool {
        match o {
            MemObj::Alloca { func, .. } if *func == self.fid => self.facts.escaped.contains(o),
            _ => true,
        }
    }

    fn sets_may_alias(&self, a: &PtsSet, b: &PtsSet) -> bool {
        let wild_a = a.top || a.has_arg_obj();
        let wild_b = b.top || b.has_arg_obj();
        if wild_a && wild_b {
            return true;
        }
        if wild_a && b.objs.iter().any(|o| self.externally_reachable(o)) {
            return true;
        }
        if wild_b && a.objs.iter().any(|o| self.externally_reachable(o)) {
            return true;
        }
        a.objs.intersection(&b.objs).next().is_some()
    }

    fn subst(&self, set: &PtsSet, callee: u32, cargs: &[Value]) -> PtsSet {
        if set.top {
            return PtsSet::top();
        }
        let mut out = PtsSet::empty();
        for o in &set.objs {
            match o {
                MemObj::Arg { func, arg } if *func == callee => {
                    let ap = cargs
                        .get(*arg as usize)
                        .map(|&v| self.value_pts(v))
                        .unwrap_or_else(PtsSet::top);
                    out.join(&ap, self.cap);
                }
                _ => {
                    out.insert(*o, self.cap);
                }
            }
        }
        out
    }

    /// The mod set of a call instruction, from this function's view.
    fn call_mods(&self, id: InstId) -> Option<PtsSet> {
        let Op::Call { callee, args, .. } = self.f.op(id) else {
            return None;
        };
        Some(match self.summaries.get(&callee.0) {
            Some(s) => self.subst(&s.mods, callee.0, args),
            None => PtsSet::top(),
        })
    }

    /// The ref set of a call instruction, from this function's view.
    fn call_refs(&self, id: InstId) -> Option<PtsSet> {
        let Op::Call { callee, args, .. } = self.f.op(id) else {
            return None;
        };
        Some(match self.summaries.get(&callee.0) {
            Some(s) => self.subst(&s.refs, callee.0, args),
            None => PtsSet::top(),
        })
    }

    /// May the def write the cell a single-cell access at
    /// `(acc_root, acc_ty)` touches?
    fn def_may_clobber(
        &self,
        d: &Def,
        acc_pts: &PtsSet,
        acc_root: &(Value, Option<i64>),
        acc_ty: Ty,
    ) -> bool {
        if d.single_cell {
            if let (Some((dr, doff)), (ar, Some(aoff))) = (&d.root, acc_root) {
                if dr == ar {
                    if doff != aoff {
                        return false; // same base, different cells
                    }
                    if let Some((_, dty)) = d.store_key {
                        if dty != acc_ty {
                            // same cell, different access type: one of
                            // the two traps, conservatively a clobber
                            return true;
                        }
                    }
                    return true;
                }
            }
        }
        self.sets_may_alias(&d.mods, acc_pts)
    }
}

/// Dense bitset over def indices.
#[derive(Clone, PartialEq, Eq, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    fn union(&mut self, other: &Bits) -> bool {
        let mut changed = false;
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            let n = *a | *b;
            if n != *a {
                *a = n;
                changed = true;
            }
        }
        changed
    }
    fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64).filter_map(move |b| {
                if bits & (1 << b) != 0 {
                    Some(w * 64 + b)
                } else {
                    None
                }
            })
        })
    }
}

/// Builds the memory-dependence structure for `f` against already-solved
/// points-to facts. Pure in its inputs (memo-safe).
pub fn build(
    fid: u32,
    f: &Function,
    facts: &FuncAlias,
    summaries: &BTreeMap<u32, FnAliasSummary>,
) -> MemDep {
    let ctx = Ctx {
        fid,
        f,
        facts,
        summaries,
        cap: super::PTS_CAP,
    };
    let graph = Cfg::compute(f);

    // --- collect defs --------------------------------------------------
    let mut defs: Vec<Def> = Vec::new();
    let mut def_index: HashMap<InstId, usize> = HashMap::new();
    for &b in &graph.rpo {
        let Some(block) = f.block(b) else { continue };
        for &id in &block.insts {
            let d = match f.op(id) {
                Op::Store { ty, ptr, .. } => Some(Def {
                    id,
                    mods: ctx.value_pts(*ptr),
                    store_key: Some((*ptr, *ty)),
                    root: {
                        let (r, o) = resolve_root(f, *ptr);
                        o.map(|o| (r, o))
                    },
                    single_cell: true,
                }),
                Op::MemSet { dst, .. } | Op::MemCpy { dst, .. } => Some(Def {
                    id,
                    mods: ctx.value_pts(*dst),
                    store_key: None,
                    root: None,
                    single_cell: false,
                }),
                Op::Call { .. } => {
                    let mods = ctx.call_mods(id).unwrap_or_else(PtsSet::top);
                    if mods.is_empty() {
                        None
                    } else {
                        Some(Def {
                            id,
                            mods,
                            store_key: None,
                            root: None,
                            single_cell: false,
                        })
                    }
                }
                _ => None,
            };
            if let Some(d) = d {
                def_index.insert(id, defs.len());
                defs.push(d);
            }
        }
    }
    let n = defs.len();

    // strong-update kill sets: a store kills every other store with the
    // identical (pointer value, type) key
    let mut kills: Vec<Vec<usize>> = vec![Vec::new(); n];
    {
        let mut by_key: HashMap<(Value, Ty), Vec<usize>> = HashMap::new();
        for (i, d) in defs.iter().enumerate() {
            if let Some(k) = d.store_key {
                by_key.entry(k).or_default().push(i);
            }
        }
        for group in by_key.values() {
            for &i in group {
                kills[i] = group.iter().copied().filter(|&j| j != i).collect();
            }
        }
    }

    // --- reaching defs fixpoint over blocks ----------------------------
    let transfer = |start: &Bits, b: posetrl_ir::BlockId| -> Bits {
        let mut cur = start.clone();
        if let Some(block) = f.block(b) {
            for &id in &block.insts {
                if let Some(&i) = def_index.get(&id) {
                    for &k in &kills[i] {
                        cur.clear(k);
                    }
                    cur.set(i);
                }
            }
        }
        cur
    };
    let mut ins: HashMap<posetrl_ir::BlockId, Bits> =
        graph.rpo.iter().map(|&b| (b, Bits::new(n))).collect();
    loop {
        let mut changed = false;
        for &b in &graph.rpo {
            let out = transfer(&ins[&b], b);
            for &s in graph.succs.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(si) = ins.get_mut(&s) {
                    if si.union(&out) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // --- per-load may-def chains ---------------------------------------
    let mut load_deps: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &b in &graph.rpo {
        let Some(block) = f.block(b) else { continue };
        let mut cur = ins[&b].clone();
        for &id in &block.insts {
            if let Op::Load { ty, ptr } = f.op(id) {
                let pts = ctx.value_pts(*ptr);
                let root = resolve_root(f, *ptr);
                let mut deps: Vec<u32> = cur
                    .iter_set()
                    .filter(|&i| ctx.def_may_clobber(&defs[i], &pts, &root, *ty))
                    .map(|i| defs[i].id.0)
                    .collect();
                deps.sort_unstable();
                deps.truncate(MAX_DEPS_PER_LOAD);
                load_deps.insert(id.0, deps);
            }
            if let Some(&i) = def_index.get(&id) {
                for &k in &kills[i] {
                    cur.clear(k);
                }
                cur.set(i);
            }
        }
    }

    // --- dead stores ----------------------------------------------------
    let dead_stores = find_dead_stores(&ctx, &graph);

    // --- chain depth metric ---------------------------------------------
    let mut depth_memo: HashMap<u32, u32> = HashMap::new();
    let mut max_chain = 0u32;
    for &l in load_deps.keys() {
        let d = chain_depth(f, &load_deps, l, &mut depth_memo, 0);
        max_chain = max_chain.max(d);
    }

    MemDep {
        load_deps,
        dead_stores,
        max_chain,
    }
}

/// Depth of the def/use chain ending at load `l`: 1 + the deepest chain
/// feeding any store whose *stored value* is itself a load. Cycles (loop
/// carried chains) and depths beyond [`MAX_CHAIN`] saturate.
fn chain_depth(
    f: &Function,
    load_deps: &BTreeMap<u32, Vec<u32>>,
    l: u32,
    memo: &mut HashMap<u32, u32>,
    guard: u32,
) -> u32 {
    if let Some(&d) = memo.get(&l) {
        return d;
    }
    if guard >= MAX_CHAIN {
        return MAX_CHAIN;
    }
    // mark as in-progress so loop-carried chains terminate
    memo.insert(l, 1);
    let mut best = 1u32;
    for &d in load_deps.get(&l).map(Vec::as_slice).unwrap_or(&[]) {
        if let Op::Store { val, .. } = f.op(InstId(d)) {
            let mut feeders = Vec::new();
            feeding_loads(f, *val, &mut feeders, 0);
            for v in feeders {
                let sub = chain_depth(f, load_deps, v, memo, guard + 1);
                best = best.max(sub.saturating_add(1).min(MAX_CHAIN));
            }
        }
    }
    memo.insert(l, best);
    best
}

/// Collects the loads that (transitively, through a bounded slice of the
/// SSA operand tree) feed value `v`.
fn feeding_loads(f: &Function, v: Value, out: &mut Vec<u32>, depth: u32) {
    if depth > 4 || out.len() >= 8 {
        return;
    }
    let Value::Inst(id) = v else { return };
    if matches!(f.op(id), Op::Load { .. }) {
        if !out.contains(&id.0) {
            out.push(id.0);
        }
        return;
    }
    // phis can cycle back through themselves; the depth bound terminates
    for o in f.op(id).operands() {
        feeding_loads(f, o, out, depth + 1);
    }
}

/// Proves stores dead: frame-private in-bounds target, no reachable
/// may-reader afterwards.
fn find_dead_stores(ctx: &Ctx, graph: &Cfg) -> Vec<u32> {
    let f = ctx.f;
    // per-block list of (position, read set) readers
    let mut readers: HashMap<posetrl_ir::BlockId, Vec<(usize, PtsSet)>> = HashMap::new();
    for &b in &graph.rpo {
        let Some(block) = f.block(b) else { continue };
        let mut rs = Vec::new();
        for (pos, &id) in block.insts.iter().enumerate() {
            let r = match f.op(id) {
                Op::Load { ptr, .. } => Some(ctx.value_pts(*ptr)),
                Op::MemCpy { src, .. } => Some(ctx.value_pts(*src)),
                Op::Call { .. } => {
                    let refs = ctx.call_refs(id).unwrap_or_else(PtsSet::top);
                    if refs.is_empty() {
                        None
                    } else {
                        Some(refs)
                    }
                }
                _ => None,
            };
            if let Some(r) = r {
                rs.push((pos, r));
            }
        }
        readers.insert(b, rs);
    }

    // transitive successor closure (blocks reachable strictly after each
    // block via its successor edges; a loop makes a block self-reachable)
    let order = &graph.rpo;
    let idx: HashMap<posetrl_ir::BlockId, usize> =
        order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let nb = order.len();
    let mut reach: Vec<Bits> = vec![Bits::new(nb); nb];
    loop {
        let mut changed = false;
        for (i, &b) in order.iter().enumerate() {
            for &s in graph.succs.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                if let Some(&si) = idx.get(&s) {
                    let mut next = reach[si].clone();
                    next.set(si);
                    if reach[i].union(&next) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut dead = Vec::new();
    'stores: for &b in &graph.rpo {
        let Some(block) = f.block(b) else { continue };
        for (pos, &id) in block.insts.iter().enumerate() {
            let Op::Store { ty, ptr, .. } = f.op(id) else {
                continue;
            };
            let pts = ctx.value_pts(*ptr);
            // frame-private target only
            if pts.top || pts.objs.is_empty() {
                continue;
            }
            if pts.objs.iter().any(|o| ctx.externally_reachable(o)) {
                continue;
            }
            // provably in-bounds and type-matched (the store cannot trap,
            // so removing it is exactly behavior-preserving)
            let (root, off) = resolve_root(f, *ptr);
            let Some(off) = off else { continue };
            let Value::Inst(aid) = root else { continue };
            let Op::Alloca { ty: aty, count } = f.op(aid) else {
                continue;
            };
            if *aty != *ty || off < 0 || off >= *count as i64 {
                continue;
            }
            // no reachable may-reader after the store
            for (rpos, rset) in readers.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                if *rpos > pos && ctx.sets_may_alias(&pts, rset) {
                    continue 'stores;
                }
            }
            let Some(&bi) = idx.get(&b) else { continue };
            for ri in reach[bi].iter_set() {
                for (_, rset) in readers.get(&order[ri]).map(Vec::as_slice).unwrap_or(&[]) {
                    if ctx.sets_may_alias(&pts, rset) {
                        continue 'stores;
                    }
                }
            }
            dead.push(id.0);
        }
    }
    dead.sort_unstable();
    dead
}

#[cfg(test)]
mod tests {
    use crate::alias::analyze_module;
    use posetrl_ir::parser::parse_module;
    use posetrl_ir::Op;

    #[test]
    fn load_chains_point_at_feeding_stores() {
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  %b = alloca i64 x 1
  store i64 1:i64, %a
  store i64 2:i64, %b
  %v = load i64, %a
  ret %v
}
"#,
        )
        .unwrap();
        let ma = analyze_module(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let md = ma.memdep(fid).unwrap();
        let ids = f.inst_ids();
        let store_a = ids[2];
        let load = ids[4];
        assert_eq!(md.load_deps[&load.0], vec![store_a.0], "{md:?}");
        assert_eq!(md.max_chain, 1);
    }

    #[test]
    fn overwritten_store_is_killed_by_strong_update() {
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  store i64 1:i64, %a
  store i64 2:i64, %a
  %v = load i64, %a
  ret %v
}
"#,
        )
        .unwrap();
        let ma = analyze_module(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let md = ma.memdep(fid).unwrap();
        let ids = f.inst_ids();
        // only the second store reaches the load
        assert_eq!(md.load_deps[&ids[3].0], vec![ids[2].0], "{md:?}");
    }

    #[test]
    fn constant_offsets_disambiguate_cells() {
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 4
  %p0 = gep i64, %a, 0:i64
  %p1 = gep i64, %a, 1:i64
  store i64 1:i64, %p0
  store i64 2:i64, %p1
  %v = load i64, %p0
  ret %v
}
"#,
        )
        .unwrap();
        let ma = analyze_module(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let md = ma.memdep(fid).unwrap();
        let ids = f.inst_ids();
        // the load of cell 0 depends only on the store to cell 0, even
        // though both stores hit the same alloca's points-to set
        assert_eq!(md.load_deps[&ids[5].0], vec![ids[3].0], "{md:?}");
    }

    #[test]
    fn unread_private_store_is_dead_but_escaped_is_not() {
        let m = parse_module(
            r#"
module "t"
declare @sink(ptr) -> void
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  %b = alloca i64 x 1
  store i64 1:i64, %a
  store i64 2:i64, %b
  call @sink(%b) -> void
  ret 0:i64
}
"#,
        )
        .unwrap();
        let ma = analyze_module(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let md = ma.memdep(fid).unwrap();
        let ids = f.inst_ids();
        assert_eq!(md.dead_stores, vec![ids[2].0], "{md:?}");
    }

    #[test]
    fn loop_readers_keep_stores_alive() {
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  store i64 0:i64, %a
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb1: %i2]
  %v = load i64, %a
  %v2 = add i64 %v, 1:i64
  store i64 %v2, %a
  %i2 = add i64 %i, 1:i64
  %c = icmp slt i64 %i2, 4:i64
  condbr %c, bb1, bb2
bb2:
  %r = load i64, %a
  ret %r
}
"#,
        )
        .unwrap();
        let ma = analyze_module(&m);
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let md = ma.memdep(fid).unwrap();
        assert!(md.dead_stores.is_empty(), "{md:?}");
        // the loop-carried load sees both the init store and the loop store
        let ids = f.inst_ids();
        let loop_load = ids[4];
        assert!(matches!(f.op(loop_load), Op::Load { .. }));
        assert_eq!(md.load_deps[&loop_load.0].len(), 2, "{md:?}");
        assert!(md.max_chain >= 2, "loop-carried chain: {md:?}");
    }
}
