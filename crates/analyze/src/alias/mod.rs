//! Interprocedural alias analysis: Andersen-style points-to sets,
//! mod/ref summaries and a per-function memory-dependence builder.
//!
//! The analysis is flow-insensitive and context-insensitive, mirroring
//! the `absint` engine's interprocedural shape: constraints are
//! generated per function, solving proceeds bottom-up over the call
//! graph's strongly connected components (the same iterative Tarjan
//! machinery), and every function exports one summary. Context
//! insensitivity is recovered through *symbolic argument objects*: a
//! pointer parameter `i` of function `f` points to the placeholder
//! [`MemObj::Arg`]`{f, i}`, and call sites substitute the caller's
//! actual argument sets into the callee's exported summary. External
//! declarations and address-taken roots keep ⊤ mod/ref summaries (an
//! unknown caller or callee can reach anything externally reachable).
//!
//! The abstract memory objects are allocation sites ([`MemObj::Alloca`]),
//! globals, function addresses (so `&@f` escapes are tracked) and the
//! symbolic argument objects. A points-to set ([`PtsSet`]) is a bounded
//! object set with an explicit ⊤; fixed budgets saturate oversized sets
//! to ⊤ and cap the per-function constraint iterations.
//!
//! On top of the points-to solution, [`memdep`] builds a MemorySSA-style
//! per-function [`MemDep`]: reaching may-def chains for
//! every load, a dead-store judgement (no reachable may-reader and a
//! provably frame-private, in-bounds target), and chain-depth metrics.
//! Store/load pairs are disambiguated by the points-to sets *and* by the
//! same base-object/constant-offset reasoning absint's pointer facts
//! encode (a shared constant-index gep walk).
//!
//! Three consumers sit on top: the alias-aware `dse`/`gvn`/
//! `early-cse-memssa`/`licm` passes in `posetrl-opt`, the
//! [`check`] lints (`store-dead`, `alias-uaf`, alias-tightened
//! `uninit-load`/`const-write`), and eight static feature dimensions in
//! [`crate::absint::features`]. Per-function results are memoized in the
//! [`IncrementalAnalysisManager`](crate::incremental::IncrementalAnalysisManager)
//! keyed by content fingerprint + budget digest + callee-summary
//! digests, exactly like the absint memo class.

pub mod memdep;

use crate::diag::{codes, Diagnostic};
use memdep::MemDep;
use posetrl_ir::{FuncId, Function, InstId, Module, Op, SourceLoc, Ty, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Maximum constraint-propagation sweeps per function before every
/// pointer fact saturates to ⊤.
const MAX_ITERS: usize = 64;

/// Maximum object count per points-to set; joins beyond it saturate the
/// set to an explicit ⊤.
const PTS_CAP: usize = 16;

/// An abstract memory object (allocation site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemObj {
    /// The stack slot allocated by instruction `inst` of function `func`
    /// (function arena indices keep the identity module-global).
    Alloca { func: u32, inst: u32 },
    /// The symbolic pointee of pointer parameter `arg` of `func` — the
    /// context-insensitive stand-in for "whatever the caller passed".
    Arg { func: u32, arg: u32 },
    /// A global variable.
    Global(u32),
    /// A function address (tracks `&@f` escapes).
    Func(u32),
}

impl MemObj {
    /// Stable textual form used by the render dump.
    pub fn render(&self) -> String {
        match self {
            MemObj::Alloca { func, inst } => format!("alloca f{func}:%{inst}"),
            MemObj::Arg { func, arg } => format!("arg f{func}:{arg}"),
            MemObj::Global(g) => format!("global #{g}"),
            MemObj::Func(g) => format!("fn #{g}"),
        }
    }
}

/// A bounded points-to set with an explicit ⊤ ("may point anywhere,
/// including every externally reachable object").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PtsSet {
    /// Saturated: the set of objects is unknown.
    pub top: bool,
    /// Known objects (empty and non-⊤ means "provably no object":
    /// null/undef/never-assigned).
    pub objs: BTreeSet<MemObj>,
}

impl PtsSet {
    /// The empty set.
    pub fn empty() -> PtsSet {
        PtsSet::default()
    }

    /// The saturated set.
    pub fn top() -> PtsSet {
        PtsSet {
            top: true,
            objs: BTreeSet::new(),
        }
    }

    /// A singleton set.
    pub fn of(o: MemObj) -> PtsSet {
        PtsSet {
            top: false,
            objs: BTreeSet::from([o]),
        }
    }

    /// Whether the set holds no object and is not ⊤.
    pub fn is_empty(&self) -> bool {
        !self.top && self.objs.is_empty()
    }

    /// Object count used for size metrics (`cap` when ⊤).
    pub fn size_for(&self, cap: usize) -> usize {
        if self.top {
            cap
        } else {
            self.objs.len()
        }
    }

    /// Saturates to ⊤. Returns `true` if that changed the set.
    pub fn set_top(&mut self) -> bool {
        if self.top {
            return false;
        }
        self.top = true;
        self.objs.clear();
        true
    }

    /// Joins `other` in, saturating at `cap` objects. Returns `true` on
    /// change.
    pub fn join(&mut self, other: &PtsSet, cap: usize) -> bool {
        if self.top {
            return false;
        }
        if other.top {
            return self.set_top();
        }
        let before = self.objs.len();
        self.objs.extend(other.objs.iter().copied());
        if self.objs.len() > cap {
            return self.set_top();
        }
        self.objs.len() != before
    }

    /// Inserts one object, saturating at `cap`. Returns `true` on change.
    pub fn insert(&mut self, o: MemObj, cap: usize) -> bool {
        if self.top {
            return false;
        }
        let changed = self.objs.insert(o);
        if self.objs.len() > cap {
            return self.set_top();
        }
        changed
    }

    /// Whether the set contains any symbolic argument object (the
    /// wildcard for "anything the caller could have passed").
    pub fn has_arg_obj(&self) -> bool {
        self.objs.iter().any(|o| matches!(o, MemObj::Arg { .. }))
    }

    /// Stable textual form used by the render dump.
    pub fn render(&self) -> String {
        if self.top {
            return "top".to_string();
        }
        if self.objs.is_empty() {
            return "{}".to_string();
        }
        let items: Vec<String> = self.objs.iter().map(|o| o.render()).collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Per-function exported summary: argument/return points-to sets plus
/// the mod/ref/escape effect sets a call site must account for.
///
/// Exported sets may contain the function's own [`MemObj::Arg`] objects;
/// call sites substitute the actual argument sets for them. A ⊤ `mods`
/// or `refs` means "every externally reachable object" — frame-private
/// allocas of the *caller* are still exempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnAliasSummary {
    /// Points-to set of each parameter (symbolic `Arg` objects for
    /// pointer parameters, empty otherwise).
    pub args: Vec<PtsSet>,
    /// What the return value may point to (may include the function's
    /// own allocas — the dangling-pointer signal).
    pub ret: PtsSet,
    /// Objects a call may write, transitively (own frame-private
    /// allocas filtered out).
    pub mods: PtsSet,
    /// Objects a call may read, transitively.
    pub refs: PtsSet,
    /// Objects whose address escapes to unknown code during the call.
    pub escapes: PtsSet,
}

impl FnAliasSummary {
    /// The ⊥ summary an SCC fixpoint starts from.
    fn bottom(fid: u32, f: &Function) -> FnAliasSummary {
        FnAliasSummary {
            args: symbolic_args(fid, f),
            ret: PtsSet::empty(),
            mods: PtsSet::empty(),
            refs: PtsSet::empty(),
            escapes: PtsSet::empty(),
        }
    }

    /// The ⊤ summary of an external declaration: unknown body, so it may
    /// read/write anything reachable and every pointer argument escapes.
    fn top_decl(fid: u32, f: &Function) -> FnAliasSummary {
        let mut escapes = PtsSet::empty();
        for (i, &t) in f.params.iter().enumerate() {
            if t == Ty::Ptr {
                escapes.objs.insert(MemObj::Arg {
                    func: fid,
                    arg: i as u32,
                });
            }
        }
        FnAliasSummary {
            args: symbolic_args(fid, f),
            ret: if f.ret == Ty::Ptr {
                PtsSet::top()
            } else {
                PtsSet::empty()
            },
            mods: PtsSet::top(),
            refs: PtsSet::top(),
            escapes,
        }
    }
}

/// Symbolic argument sets: `{Arg{fid, i}}` for pointer params.
fn symbolic_args(fid: u32, f: &Function) -> Vec<PtsSet> {
    f.params
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            if t == Ty::Ptr {
                PtsSet::of(MemObj::Arg {
                    func: fid,
                    arg: i as u32,
                })
            } else {
                PtsSet::empty()
            }
        })
        .collect()
}

/// Final per-value points-to facts of one analyzed function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncAlias {
    /// One points-to set per instruction arena slot (empty for non-pointer
    /// results and removed slots).
    pub pts: Vec<PtsSet>,
    /// Objects whose address escapes to unknown code somewhere in this
    /// function (local view; own allocas in here are *not* frame-private).
    pub escaped: BTreeSet<MemObj>,
}

impl FuncAlias {
    /// The points-to set of instruction `id`.
    pub fn pts_of(&self, id: InstId) -> PtsSet {
        self.pts.get(id.index()).cloned().unwrap_or_default()
    }
}

/// Everything the per-function analysis produces — the unit the
/// incremental manager memoizes.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasFnResult {
    /// Per-value points-to facts.
    pub facts: FuncAlias,
    /// The exported summary (before any driver-side root saturation).
    pub summary: FnAliasSummary,
    /// The memory-dependence structure built on top of the facts.
    pub memdep: MemDep,
}

/// The module-wide analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAlias {
    /// Summaries keyed by function arena index (address-taken roots are
    /// saturated to ⊤ mod/ref here).
    pub summaries: BTreeMap<u32, FnAliasSummary>,
    /// Per-function points-to facts for every defined function.
    pub funcs: BTreeMap<u32, FuncAlias>,
    /// Per-function memory-dependence results.
    pub memdeps: BTreeMap<u32, MemDep>,
    /// The points-to cap the solution was computed with (joins performed
    /// through the query API keep saturating consistently).
    pub cap: usize,
}

impl ModuleAlias {
    /// The summary of `id`, if analyzed.
    pub fn summary(&self, id: FuncId) -> Option<&FnAliasSummary> {
        self.summaries.get(&id.0)
    }

    /// The facts of `id`, if it has a body.
    pub fn facts(&self, id: FuncId) -> Option<&FuncAlias> {
        self.funcs.get(&id.0)
    }

    /// The memory-dependence result of `id`, if it has a body.
    pub fn memdep(&self, id: FuncId) -> Option<&MemDep> {
        self.memdeps.get(&id.0)
    }

    /// The points-to set of value `v` inside function `fid`.
    pub fn value_pts(&self, fid: FuncId, f: &Function, v: Value) -> PtsSet {
        match v {
            Value::Const(_) => PtsSet::empty(),
            Value::Global(g) => PtsSet::of(MemObj::Global(g.0)),
            Value::Func(g) => PtsSet::of(MemObj::Func(g.0)),
            Value::Arg(i) => self
                .summaries
                .get(&fid.0)
                .and_then(|s| s.args.get(i as usize).cloned())
                .unwrap_or_else(|| {
                    if f.params.get(i as usize) == Some(&Ty::Ptr) {
                        PtsSet::top()
                    } else {
                        PtsSet::empty()
                    }
                }),
            Value::Inst(id) => self
                .funcs
                .get(&fid.0)
                .map(|fa| fa.pts_of(id))
                .unwrap_or_else(PtsSet::top),
        }
    }

    /// Whether object `o`, seen from function `fid`, can be reached by
    /// code outside the function (so a ⊤ pointer or a symbolic argument
    /// may refer to it). Frame-private: an own alloca that never escaped.
    pub fn externally_reachable(&self, fid: FuncId, o: &MemObj) -> bool {
        match o {
            MemObj::Alloca { func, .. } if *func == fid.0 => self
                .funcs
                .get(&fid.0)
                .map(|fa| fa.escaped.contains(o))
                .unwrap_or(true),
            _ => true,
        }
    }

    /// May the two points-to sets refer to a common memory cell, seen
    /// from function `fid`? ⊤ and symbolic argument objects act as
    /// wildcards over the externally reachable objects — but never over
    /// the function's frame-private allocas.
    pub fn sets_may_alias(&self, fid: FuncId, a: &PtsSet, b: &PtsSet) -> bool {
        let wild_a = a.top || a.has_arg_obj();
        let wild_b = b.top || b.has_arg_obj();
        if wild_a && wild_b {
            return true;
        }
        if wild_a && b.objs.iter().any(|o| self.externally_reachable(fid, o)) {
            return true;
        }
        if wild_b && a.objs.iter().any(|o| self.externally_reachable(fid, o)) {
            return true;
        }
        a.objs.intersection(&b.objs).next().is_some()
    }

    /// Conservative may-alias query between two pointer values of
    /// function `fid`, by their points-to sets.
    pub fn may_alias(&self, fid: FuncId, f: &Function, a: Value, b: Value) -> bool {
        if a == b {
            return true;
        }
        let pa = self.value_pts(fid, f, a);
        let pb = self.value_pts(fid, f, b);
        self.sets_may_alias(fid, &pa, &pb)
    }

    /// Substitutes the caller's actual argument sets for the callee's
    /// symbolic `Arg` objects in an exported summary set.
    fn subst(
        &self,
        fid: FuncId,
        f: &Function,
        set: &PtsSet,
        callee: u32,
        cargs: &[Value],
    ) -> PtsSet {
        if set.top {
            return PtsSet::top();
        }
        let mut out = PtsSet::empty();
        for o in &set.objs {
            match o {
                MemObj::Arg { func, arg } if *func == callee => {
                    let ap = cargs
                        .get(*arg as usize)
                        .map(|&v| self.value_pts(fid, f, v))
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

    /// The set of objects the call instruction `id` may write, from the
    /// caller's view. `None` when `id` is not a call.
    pub fn call_mods(&self, fid: FuncId, f: &Function, id: InstId) -> Option<PtsSet> {
        let Op::Call { callee, args, .. } = f.op(id) else {
            return None;
        };
        Some(match self.summaries.get(&callee.0) {
            Some(s) => self.subst(fid, f, &s.mods, callee.0, args),
            None => PtsSet::top(),
        })
    }

    /// The set of objects the call instruction `id` may read, from the
    /// caller's view. `None` when `id` is not a call.
    pub fn call_refs(&self, fid: FuncId, f: &Function, id: InstId) -> Option<PtsSet> {
        let Op::Call { callee, args, .. } = f.op(id) else {
            return None;
        };
        Some(match self.summaries.get(&callee.0) {
            Some(s) => self.subst(fid, f, &s.refs, callee.0, args),
            None => PtsSet::top(),
        })
    }
}

// ---------------------------------------------------------------------------
// Per-function constraint solver
// ---------------------------------------------------------------------------

/// Flow-insensitive constraint state of one function.
struct Solver<'a> {
    fid: u32,
    f: &'a Function,
    summaries: &'a BTreeMap<u32, FnAliasSummary>,
    args: Vec<PtsSet>,
    pts: Vec<PtsSet>,
    /// Contents of frame-private alloca cells (what a load from the slot
    /// may point to). Escaped or foreign cells are not tracked — loads
    /// from them yield ⊤.
    cells: BTreeMap<MemObj, PtsSet>,
    escaped: BTreeSet<MemObj>,
    mods: PtsSet,
    refs: PtsSet,
    changed: bool,
}

impl Solver<'_> {
    fn value_pts(&self, v: Value) -> PtsSet {
        match v {
            Value::Const(_) => PtsSet::empty(),
            Value::Global(g) => PtsSet::of(MemObj::Global(g.0)),
            Value::Func(g) => PtsSet::of(MemObj::Func(g.0)),
            Value::Arg(i) => self
                .args
                .get(i as usize)
                .cloned()
                .unwrap_or_else(PtsSet::top),
            Value::Inst(id) => self.pts.get(id.index()).cloned().unwrap_or_default(),
        }
    }

    /// A cell is tracked iff it is a frame-private alloca of this
    /// function: nothing outside can read or write it.
    fn tracked(&self, o: &MemObj) -> bool {
        matches!(o, MemObj::Alloca { func, .. } if *func == self.fid) && !self.escaped.contains(o)
    }

    /// Marks every object of `vp` as escaped. A ⊤ source escapes nothing
    /// new: a saturated pointer can only hold addresses that already
    /// escaped (a frame-private address has, by definition, never been
    /// published where a ⊤ source could pick it up).
    fn escape_objs(&mut self, vp: &PtsSet) {
        for o in &vp.objs {
            if self.escaped.insert(*o) {
                self.changed = true;
            }
        }
    }

    /// The set a load through `p` may yield.
    fn load_from(&self, p: &PtsSet) -> PtsSet {
        if p.top {
            return PtsSet::top();
        }
        let mut out = PtsSet::empty();
        for o in &p.objs {
            if self.tracked(o) {
                if let Some(c) = self.cells.get(o) {
                    out.join(c, PTS_CAP);
                }
            } else if !matches!(o, MemObj::Func(_)) {
                // unknown contents of a shared cell
                return PtsSet::top();
            }
        }
        out
    }

    /// Stores value set `vp` through pointer set `p`.
    fn store_into(&mut self, p: &PtsSet, vp: &PtsSet) {
        if vp.is_empty() {
            return;
        }
        if p.top {
            self.escape_objs(&vp.clone());
            return;
        }
        for o in p.objs.clone() {
            if self.tracked(&o) {
                let cell = self.cells.entry(o).or_default();
                if cell.join(vp, PTS_CAP) {
                    self.changed = true;
                }
            } else {
                self.escape_objs(&vp.clone());
            }
        }
    }

    /// Substitutes actual argument sets for a callee's symbolic `Arg`
    /// objects, against the in-progress local state.
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
                    out.join(&ap, PTS_CAP);
                }
                _ => {
                    out.insert(*o, PTS_CAP);
                }
            }
        }
        out
    }

    fn join_pts(&mut self, id: InstId, v: &PtsSet) {
        let cap = PTS_CAP;
        if let Some(slot) = self.pts.get_mut(id.index()) {
            if slot.join(v, cap) {
                self.changed = true;
            }
        }
    }

    fn join_mods(&mut self, v: &PtsSet) {
        let cap = PTS_CAP;
        if self.mods.join(v, cap) {
            self.changed = true;
        }
    }

    fn join_refs(&mut self, v: &PtsSet) {
        let cap = PTS_CAP;
        if self.refs.join(v, cap) {
            self.changed = true;
        }
    }

    /// One transfer sweep over every instruction.
    fn sweep(&mut self) {
        for id in self.f.inst_ids() {
            let op = self.f.op(id).clone();
            match op {
                Op::Alloca { .. } => {
                    let o = MemObj::Alloca {
                        func: self.fid,
                        inst: id.0,
                    };
                    let s = PtsSet::of(o);
                    self.join_pts(id, &s);
                }
                Op::Gep { ptr, .. } => {
                    let p = self.value_pts(ptr);
                    self.join_pts(id, &p);
                }
                Op::Phi {
                    ty: Ty::Ptr,
                    incomings,
                } => {
                    for (_, v) in &incomings {
                        let p = self.value_pts(*v);
                        self.join_pts(id, &p);
                    }
                }
                Op::Select {
                    ty: Ty::Ptr,
                    tval,
                    fval,
                    ..
                } => {
                    let a = self.value_pts(tval);
                    let b = self.value_pts(fval);
                    self.join_pts(id, &a);
                    self.join_pts(id, &b);
                }
                Op::Load { ty, ptr } => {
                    let p = self.value_pts(ptr);
                    self.join_refs(&p);
                    if ty == Ty::Ptr {
                        let l = self.load_from(&p);
                        self.join_pts(id, &l);
                    }
                }
                Op::Store { val, ptr, .. } => {
                    let p = self.value_pts(ptr);
                    self.join_mods(&p);
                    let vp = self.value_pts(val);
                    self.store_into(&p, &vp);
                }
                Op::MemSet { dst, val, .. } => {
                    let p = self.value_pts(dst);
                    self.join_mods(&p);
                    let vp = self.value_pts(val);
                    self.store_into(&p, &vp);
                }
                Op::MemCpy { dst, src, .. } => {
                    let sp = self.value_pts(src);
                    let dp = self.value_pts(dst);
                    self.join_refs(&sp);
                    self.join_mods(&dp);
                    let transferred = self.load_from(&sp);
                    self.store_into(&dp, &transferred);
                }
                Op::Call {
                    callee,
                    args: cargs,
                    ret_ty,
                } => {
                    let s = self.summaries.get(&callee.0).cloned();
                    let (cm, cr, ce, cret) = match &s {
                        Some(s) => (
                            self.subst(&s.mods, callee.0, &cargs),
                            self.subst(&s.refs, callee.0, &cargs),
                            self.subst(&s.escapes, callee.0, &cargs),
                            self.subst(&s.ret, callee.0, &cargs),
                        ),
                        None => (PtsSet::top(), PtsSet::top(), PtsSet::top(), PtsSet::top()),
                    };
                    self.escape_objs(&ce);
                    // unknown values written through cells the callee mods
                    for o in cm.objs.clone() {
                        if self.tracked(&o) {
                            let cell = self.cells.entry(o).or_default();
                            if cell.set_top() {
                                self.changed = true;
                            }
                        }
                    }
                    self.join_mods(&cm);
                    self.join_refs(&cr);
                    if ret_ty == Ty::Ptr {
                        self.join_pts(id, &cret);
                    }
                }
                _ => {}
            }
        }
        // escaping a slot also publishes everything stored in it
        let escaped: Vec<MemObj> = self.escaped.iter().copied().collect();
        for o in escaped {
            if let Some(c) = self.cells.get(&o).cloned() {
                self.escape_objs(&c);
            }
        }
    }

    /// Saturates every fact to ⊤ (iteration budget exhausted).
    fn saturate(&mut self) {
        for id in self.f.inst_ids() {
            if self.f.op(id).result_ty() == Ty::Ptr {
                if let Some(slot) = self.pts.get_mut(id.index()) {
                    slot.set_top();
                }
            }
        }
        self.mods.set_top();
        self.refs.set_top();
        for id in self.f.inst_ids() {
            if matches!(self.f.op(id), Op::Alloca { .. }) {
                self.escaped.insert(MemObj::Alloca {
                    func: self.fid,
                    inst: id.0,
                });
            }
        }
        self.cells.clear();
    }
}

/// Analyzes one function body against fixed callee summaries. Pure in
/// `(fid, function content, callee summaries)` — exactly the
/// incremental memo key.
pub fn analyze_function(
    fid: u32,
    f: &Function,
    summaries: &BTreeMap<u32, FnAliasSummary>,
) -> AliasFnResult {
    let universe = f
        .inst_ids()
        .iter()
        .map(|i| i.index() + 1)
        .max()
        .unwrap_or(0);
    let mut s = Solver {
        fid,
        f,
        summaries,
        args: symbolic_args(fid, f),
        pts: vec![PtsSet::empty(); universe],
        cells: BTreeMap::new(),
        escaped: BTreeSet::new(),
        mods: PtsSet::empty(),
        refs: PtsSet::empty(),
        changed: false,
    };
    let mut iters = 0usize;
    loop {
        s.changed = false;
        s.sweep();
        iters += 1;
        if !s.changed {
            break;
        }
        if iters >= MAX_ITERS {
            s.saturate();
            break;
        }
    }

    // exported return set
    let mut ret = PtsSet::empty();
    for id in f.inst_ids() {
        if let Op::Ret { val: Some(v) } = f.op(id) {
            let p = s.value_pts(*v);
            ret.join(&p, PTS_CAP);
        }
    }

    // exported mod/ref/escape sets: the caller can never observe an
    // access to this frame's own allocas (they die with the frame), so
    // filter them out of the effect sets.
    let own = |o: &MemObj| matches!(o, MemObj::Alloca { func, .. } if *func == fid);
    let export = |set: &PtsSet| -> PtsSet {
        if set.top {
            return PtsSet::top();
        }
        PtsSet {
            top: false,
            objs: set.objs.iter().filter(|o| !own(o)).copied().collect(),
        }
    };
    let summary = FnAliasSummary {
        args: symbolic_args(fid, f),
        ret,
        mods: export(&s.mods),
        refs: export(&s.refs),
        escapes: PtsSet {
            top: false,
            objs: s.escaped.iter().copied().collect(),
        },
    };
    let facts = FuncAlias {
        pts: s.pts,
        escaped: s.escaped,
    };
    let md = memdep::build(fid, f, &facts, summaries);
    AliasFnResult {
        facts,
        summary,
        memdep: md,
    }
}

// ---------------------------------------------------------------------------
// Module driver (bottom-up over call-graph SCCs)
// ---------------------------------------------------------------------------

/// Upper bound on within-SCC summary iterations before summaries
/// saturate to ⊤ (mirrors the absint SCC schedule).
const SCC_ITER_LIMIT: usize = 24;

/// Runs the interprocedural analysis over `m` with the default budgets.
pub fn analyze_module(m: &Module) -> ModuleAlias {
    analyze_module_with(m, None)
}

/// [`analyze_module`], optionally memoizing per-function analyses
/// through an [`IncrementalAnalysisManager`](crate::incremental::IncrementalAnalysisManager).
/// The bottom-up SCC schedule is identical with and without a manager;
/// only the [`analyze_function`] leaves are content-addressed
/// (key: function fingerprint + `fid`/budget digest + callee-summary
/// digest — address-taken saturation is applied to the *exported* copy,
/// so a changed address-taken set reaches callers through their callee
/// digests exactly like a moved absint summary).
pub fn analyze_module_with(
    m: &Module,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleAlias {
    // call graph + address-taken set (same construction as absint)
    let mut callees: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut address_taken: HashSet<u32> = HashSet::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let mut cs = Vec::new();
        for id in f.inst_ids() {
            let op = f.op(id);
            if let Op::Call { callee, .. } = op {
                cs.push(callee.0);
            }
            for v in op.operands() {
                if let Value::Func(g) = v {
                    address_taken.insert(g.0);
                }
            }
        }
        cs.sort_unstable();
        cs.dedup();
        callees.insert(fid.0, cs);
    }

    let sccs = crate::absint::call_graph_sccs(m, &callees);

    let fps: BTreeMap<u32, u128> = if mgr.is_some() {
        m.func_ids()
            .map(|fid| {
                (
                    fid.0,
                    posetrl_ir::function_fingerprint(m, m.func(fid).unwrap()),
                )
            })
            .collect()
    } else {
        BTreeMap::new()
    };
    let run_one = |f: &Function,
                   i: u32,
                   summaries: &BTreeMap<u32, FnAliasSummary>|
     -> std::sync::Arc<AliasFnResult> {
        let Some(mgr) = mgr else {
            return std::sync::Arc::new(analyze_function(i, f, summaries));
        };
        use std::fmt::Write as _;
        let mut cal = String::new();
        for c in callees.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
            match summaries.get(c) {
                Some(s) => {
                    let _ = write!(cal, "{c}:{s:?};");
                }
                None => {
                    let _ = write!(cal, "{c}:N;");
                }
            }
        }
        let key = (
            fps[&i],
            posetrl_ir::digest_str(&format!("{i}|{MAX_ITERS}|{PTS_CAP}")),
            posetrl_ir::digest_str(&cal),
        );
        mgr.alias.get_or_compute(&f.name, key, || {
            std::sync::Arc::new(analyze_function(i, f, summaries))
        })
    };

    // Exported-summary shaping: address-taken roots may additionally be
    // invoked from unknown contexts reached through any external call, so
    // their effect summaries saturate to ⊤ (the ISSUE's "⊤ for
    // external/address-taken roots"); declarations are ⊤ from the start.
    let shape = |i: u32, mut s: FnAliasSummary| -> FnAliasSummary {
        if address_taken.contains(&i) {
            s.mods.set_top();
            s.refs.set_top();
        }
        s
    };

    let mut summaries: BTreeMap<u32, FnAliasSummary> = BTreeMap::new();
    let mut funcs: BTreeMap<u32, FuncAlias> = BTreeMap::new();
    let mut memdeps: BTreeMap<u32, MemDep> = BTreeMap::new();

    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            summaries.insert(fid.0, FnAliasSummary::top_decl(fid.0, f));
        }
    }

    for scc in &sccs {
        let members: Vec<u32> = scc
            .iter()
            .copied()
            .filter(|i| !m.func(FuncId(*i)).map(|f| f.is_decl).unwrap_or(true))
            .collect();
        if members.is_empty() {
            continue;
        }
        for &i in &members {
            let f = m.func(FuncId(i)).unwrap();
            summaries.insert(i, FnAliasSummary::bottom(i, f));
        }
        let mut iter = 0;
        loop {
            let mut changed = false;
            for &i in &members {
                let f = m.func(FuncId(i)).unwrap();
                let out = run_one(f, i, &summaries);
                funcs.insert(i, out.facts.clone());
                memdeps.insert(i, out.memdep.clone());
                let exported = shape(i, out.summary.clone());
                if summaries.get(&i) != Some(&exported) {
                    summaries.insert(i, exported);
                    changed = true;
                }
            }
            iter += 1;
            if !changed {
                break;
            }
            if iter >= SCC_ITER_LIMIT {
                for &i in &members {
                    let f = m.func(FuncId(i)).unwrap();
                    let mut sat = FnAliasSummary::top_decl(i, f);
                    if f.ret != Ty::Ptr {
                        sat.ret = PtsSet::empty();
                    } else {
                        sat.ret = PtsSet::top();
                    }
                    summaries.insert(i, sat);
                }
                for &i in &members {
                    let f = m.func(FuncId(i)).unwrap();
                    let out = run_one(f, i, &summaries);
                    funcs.insert(i, out.facts.clone());
                    memdeps.insert(i, out.memdep.clone());
                }
                break;
            }
        }
    }

    ModuleAlias {
        summaries,
        funcs,
        memdeps,
        cap: PTS_CAP,
    }
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// Lints one module against precomputed alias facts: `alias-uaf`
/// (dangling stack addresses), `store-dead` (never-observed stores), and
/// alias-tightened `uninit-load`/`const-write` variants that see through
/// phi/select/interprocedural indirection the syntactic lints miss.
pub fn lint_with(m: &Module, ma: &ModuleAlias, out: &mut Vec<Diagnostic>) {
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let Some(facts) = ma.facts(fid) else { continue };
        let own_alloca = |o: &MemObj| matches!(o, MemObj::Alloca { func, .. } if *func == fid.0);

        // alias-uaf 1: a returned pointer may carry the address of an own
        // stack slot.
        if let Some(s) = ma.summary(fid) {
            if s.ret.objs.iter().any(own_alloca) {
                for id in f.inst_ids() {
                    if let Op::Ret { val: Some(v) } = f.op(id) {
                        let p = ma.value_pts(fid, f, *v);
                        if p.objs.iter().any(own_alloca) {
                            out.push(Diagnostic::warning(
                                codes::ALIAS_UAF,
                                SourceLoc::of_inst(f, id),
                                "returned pointer may hold the address of a stack slot \
                                 of this function (dangling after return)",
                            ));
                        }
                    }
                }
            }
        }

        // per-instruction lints
        let mut never_written: BTreeSet<MemObj> = f
            .inst_ids()
            .iter()
            .filter(|&&id| matches!(f.op(id), Op::Alloca { .. }))
            .map(|&id| MemObj::Alloca {
                func: fid.0,
                inst: id.0,
            })
            .filter(|o| !facts.escaped.contains(o))
            .collect();
        for id in f.inst_ids() {
            let written = match f.op(id) {
                Op::Store { ptr, .. } => Some(ma.value_pts(fid, f, *ptr)),
                Op::MemSet { dst, .. } | Op::MemCpy { dst, .. } => Some(ma.value_pts(fid, f, *dst)),
                Op::Call { .. } => ma.call_mods(fid, f, id),
                _ => None,
            };
            if let Some(w) = written {
                if w.top {
                    never_written.clear();
                } else {
                    for o in &w.objs {
                        never_written.remove(o);
                    }
                }
            }
        }
        for id in f.inst_ids() {
            let loc = || SourceLoc::of_inst(f, id);
            match f.op(id) {
                // alias-uaf 2: a stack address is published through a
                // cell that outlives the frame (global or caller memory).
                Op::Store { val, ptr, .. } => {
                    let vp = ma.value_pts(fid, f, *val);
                    let pp = ma.value_pts(fid, f, *ptr);
                    let outlives = pp.top
                        || pp.has_arg_obj()
                        || pp.objs.iter().any(|o| matches!(o, MemObj::Global(_)));
                    if outlives && vp.objs.iter().any(own_alloca) {
                        out.push(Diagnostic::warning(
                            codes::ALIAS_UAF,
                            loc(),
                            "address of a stack slot is stored to memory that outlives \
                             this function's frame",
                        ));
                    }
                    // alias-tightened const-write: every object the
                    // pointer can refer to is an immutable global.
                    if !pp.top && !pp.objs.is_empty() {
                        let all_const = pp.objs.iter().all(|o| match o {
                            MemObj::Global(g) => m
                                .global(posetrl_ir::GlobalId(*g))
                                .map(|gl| !gl.mutable)
                                .unwrap_or(false),
                            _ => false,
                        });
                        if all_const {
                            out.push(Diagnostic::warning(
                                codes::CONST_WRITE,
                                loc(),
                                "store through a pointer that can only refer to \
                                 constant globals",
                            ));
                        }
                    }
                }
                // alias-tightened uninit-load: the loaded cell is a
                // frame-private slot nothing in the function ever writes.
                Op::Load { ptr, .. } => {
                    let pp = ma.value_pts(fid, f, *ptr);
                    if !pp.top
                        && !pp.objs.is_empty()
                        && pp.objs.iter().all(|o| never_written.contains(o))
                    {
                        out.push(Diagnostic::warning(
                            codes::UNINIT_LOAD,
                            loc(),
                            "load from a stack slot that is never written on any path",
                        ));
                    }
                }
                _ => {}
            }
        }

        // store-dead: the memdep builder proved no reachable may-reader
        // and a frame-private, in-bounds target.
        if let Some(md) = ma.memdep(fid) {
            for &sid in &md.dead_stores {
                out.push(Diagnostic::note(
                    codes::STORE_DEAD,
                    SourceLoc::of_inst(f, InstId(sid)),
                    "store to a frame-private slot that no reachable instruction \
                     may read",
                ));
            }
        }
    }
}

/// Runs the analysis and the lints over `m` in one call.
pub fn check(m: &Module, out: &mut Vec<Diagnostic>) {
    lint_with(m, &analyze_module(m), out);
}

// ---------------------------------------------------------------------------
// Textual dump (mini-analyze --alias)
// ---------------------------------------------------------------------------

/// Renders the whole analysis in a stable, line-oriented format:
/// per-function argument/return points-to sets, mod/ref/escape
/// summaries, per-value points-to sets and per-load memdep chains.
pub fn render(m: &Module, ma: &ModuleAlias) -> String {
    let mut out = String::new();
    out.push_str(&format!("module {}\n", m.name));
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        out.push_str(&format!("fn @{}\n", f.name));
        if let Some(s) = ma.summary(fid) {
            for (i, a) in s.args.iter().enumerate() {
                out.push_str(&format!("  arg {i}: {}\n", a.render()));
            }
            out.push_str(&format!("  ret: {}\n", s.ret.render()));
            out.push_str(&format!("  mod: {}\n", s.mods.render()));
            out.push_str(&format!("  ref: {}\n", s.refs.render()));
            out.push_str(&format!("  escape: {}\n", s.escapes.render()));
        }
        if let Some(md) = ma.memdep(fid) {
            out.push_str(&format!(
                "  memdep: loads {} dead-stores {} max-chain {}\n",
                md.load_deps.len(),
                md.dead_stores.len(),
                md.max_chain
            ));
        }
        let Some(facts) = ma.facts(fid) else { continue };
        for b in f.block_ids() {
            let Some(block) = f.block(b) else { continue };
            out.push_str(&format!("  {b}:\n"));
            for &id in &block.insts {
                if f.op(id).result_ty() == Ty::Ptr {
                    out.push_str(&format!("    %{}: {}\n", id.0, facts.pts_of(id).render()));
                }
                if matches!(f.op(id), Op::Load { .. }) {
                    if let Some(md) = ma.memdep(fid) {
                        if let Some(deps) = md.load_deps.get(&id.0) {
                            let items: Vec<String> = deps.iter().map(|d| format!("%{d}")).collect();
                            out.push_str(&format!(
                                "    %{} <- defs [{}]\n",
                                id.0,
                                items.join(", ")
                            ));
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

    fn analyzed(text: &str) -> (Module, ModuleAlias) {
        let m = parse_module(text).expect("test module parses");
        let ma = analyze_module(&m);
        (m, ma)
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let (m, ma) = analyzed(
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
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let ids = f.inst_ids();
        assert!(!ma.may_alias(fid, f, Value::Inst(ids[0]), Value::Inst(ids[1])));
        assert!(ma.may_alias(fid, f, Value::Inst(ids[0]), Value::Inst(ids[0])));
    }

    #[test]
    fn phi_merges_points_to_sets() {
        let (m, ma) = analyzed(
            r#"
module "t"
fn @main(i64) -> i64 internal {
bb0:
  %a = alloca i64 x 1
  %b = alloca i64 x 1
  %c = icmp sgt i64 %arg0, 0:i64
  condbr %c, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  %p = phi ptr [bb1: %a], [bb2: %b]
  %v = load i64, %p
  ret %v
}
"#,
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let ids = f.inst_ids();
        let phi = ids[ids.len() - 3];
        let p = ma.facts(fid).unwrap().pts_of(phi);
        assert_eq!(p.objs.len(), 2, "{p:?}");
        // phi may alias both slots
        assert!(ma.may_alias(fid, f, Value::Inst(phi), Value::Inst(ids[0])));
        assert!(ma.may_alias(fid, f, Value::Inst(phi), Value::Inst(ids[1])));
    }

    #[test]
    fn callee_modref_summary_is_parameterized() {
        let (m, ma) = analyzed(
            r#"
module "t"
fn @write(ptr) -> void internal {
bb0:
  store i64 7:i64, %arg0
  ret
}
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  %b = alloca i64 x 1
  call @write(%a) -> void
  %v = load i64, %b
  ret %v
}
"#,
        );
        let w = m.func_by_name("write").unwrap();
        let s = ma.summary(w).unwrap();
        assert!(!s.mods.top, "writes only through its argument: {s:?}");
        assert!(s.mods.has_arg_obj());

        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let call = f
            .inst_ids()
            .into_iter()
            .find(|&id| matches!(f.op(id), Op::Call { .. }))
            .unwrap();
        let mods = ma.call_mods(fid, f, call).unwrap();
        // the call writes %a but provably not %b
        let a = f.inst_ids()[0];
        let b = f.inst_ids()[1];
        assert!(ma.sets_may_alias(fid, &mods, &ma.value_pts(fid, f, Value::Inst(a))));
        assert!(!ma.sets_may_alias(fid, &mods, &ma.value_pts(fid, f, Value::Inst(b))));
    }

    #[test]
    fn external_call_escapes_pointer_args_only() {
        let (m, ma) = analyzed(
            r#"
module "t"
declare @sink(ptr) -> void
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  %b = alloca i64 x 1
  call @sink(%a) -> void
  %v = load i64, %b
  ret %v
}
"#,
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let facts = ma.facts(fid).unwrap();
        let a = MemObj::Alloca {
            func: fid.0,
            inst: f.inst_ids()[0].0,
        };
        let b = MemObj::Alloca {
            func: fid.0,
            inst: f.inst_ids()[1].0,
        };
        assert!(facts.escaped.contains(&a), "%a escaped to the decl");
        assert!(!facts.escaped.contains(&b), "%b stayed frame-private");
        // a top pointer may alias the escaped slot but not the private one
        assert!(ma.sets_may_alias(fid, &PtsSet::top(), &PtsSet::of(a)));
        assert!(!ma.sets_may_alias(fid, &PtsSet::top(), &PtsSet::of(b)));
    }

    #[test]
    fn function_pointers_are_tracked_objects() {
        let (m, ma) = analyzed(
            r#"
module "t"
global @slot : ptr x 1 mutable internal = []
fn @cb() -> i64 internal {
bb0:
  ret 1:i64
}
fn @main() -> i64 internal {
bb0:
  store ptr &@cb, @slot
  ret 0:i64
}
"#,
        );
        let cb = m.func_by_name("cb").unwrap();
        // address-taken root: mod/ref saturate to ⊤
        let s = ma.summary(cb).unwrap();
        assert!(s.mods.top && s.refs.top, "{s:?}");
    }

    #[test]
    fn pts_cap_saturates_to_top() {
        let mut set = PtsSet::empty();
        for i in 0..4 {
            set.insert(MemObj::Global(i), 2);
        }
        assert!(set.top, "cap 2 exceeded: explicit ⊤ saturation");
        assert!(set.objs.is_empty());
    }

    #[test]
    fn recursion_converges_with_parameterized_summaries() {
        let (m, ma) = analyzed(
            r#"
module "t"
fn @rec(ptr, i64) -> i64 internal {
bb0:
  %z = icmp sle i64 %arg1, 0:i64
  condbr %z, bb1, bb2
bb1:
  %v = load i64, %arg0
  ret %v
bb2:
  %a = alloca i64 x 1
  store i64 %arg1, %a
  %n = sub i64 %arg1, 1:i64
  %r = call @rec(%a, %n) -> i64
  ret %r
}
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  store i64 3:i64, %a
  %r = call @rec(%a, 2:i64) -> i64
  ret %r
}
"#,
        );
        let fid = m.func_by_name("rec").unwrap();
        let f = m.func(fid).unwrap();
        let facts = ma.facts(fid).unwrap();
        let alloca = f
            .inst_ids()
            .into_iter()
            .find(|&id| matches!(f.op(id), Op::Alloca { .. }))
            .unwrap();
        let o = MemObj::Alloca {
            func: fid.0,
            inst: alloca.0,
        };
        // passing the slot to the *known* recursive callee is not an
        // escape: the summary proves the callee only reads through it.
        // And because each frame's alloca is a fresh instance, the
        // incoming argument can never carry the current frame's slot —
        // so arg0 provably does not alias it.
        assert!(!facts.escaped.contains(&o), "{facts:?}");
        assert!(!ma.may_alias(fid, f, Value::Arg(0), Value::Inst(alloca)));
        let s = ma.summary(fid).unwrap();
        assert!(s.mods.is_empty(), "writes only its own frame: {s:?}");
        assert!(s.refs.has_arg_obj(), "reads through its argument: {s:?}");
    }

    #[test]
    fn lints_flag_returned_stack_address() {
        let (m, ma) = analyzed(
            r#"
module "t"
fn @bad() -> ptr internal {
bb0:
  %a = alloca i64 x 1
  ret %a
}
"#,
        );
        let mut out = Vec::new();
        lint_with(&m, &ma, &mut out);
        assert!(out.iter().any(|d| d.code == codes::ALIAS_UAF), "{out:?}");
    }

    #[test]
    fn clean_code_stays_clean() {
        let (m, ma) = analyzed(
            r#"
module "t"
global @g : i64 x 4 mutable internal = [1:i64, 2:i64]
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  store i64 5:i64, %a
  %v = load i64, %a
  %w = load i64, @g
  %r = add i64 %v, %w
  ret %r
}
"#,
        );
        let mut out = Vec::new();
        lint_with(&m, &ma, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn render_is_stable() {
        let (m, ma) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  store i64 1:i64, %a
  %v = load i64, %a
  ret %v
}
"#,
        );
        let a = render(&m, &ma);
        let b = render(&m, &analyze_module(&m));
        assert_eq!(a, b, "renders deterministically");
        assert!(a.contains("fn @main"));
        assert!(a.contains("mod: "), "{a}");
        assert!(a.contains("<- defs"), "{a}");
    }
}
