//! Loop data-dependence analysis: classifying the flow/anti/output
//! dependences between the memory accesses of a loop nest.
//!
//! For every natural loop the analysis lifts each load/store address to
//! a *subscript* — a linear form `root + off + Σ nᵣ·recᵣ(t)` over the
//! loop's scalar-evolution recurrences ([`crate::scev`]), accumulated
//! along the gep chain (loop-invariant instruction and argument indexes
//! stay symbolic terms that cancel between matching accesses). Pairs of
//! accesses with at least one write are then classified:
//!
//! - **ZIV** (both subscripts iteration-invariant): dependent iff the
//!   constant parts collide — a collision touches the same cell every
//!   iteration and is reported as a carried dependence of distance 1.
//! - **Strong SIV** (equal nonzero coefficients `c`): dependent iff `c`
//!   divides the constant difference; the quotient is an exact
//!   iteration *distance*, refuted outright when it meets or exceeds a
//!   proved trip bound.
//! - **Weak SIV / gcd** (differing coefficients): a weak-zero solve
//!   when one coefficient is zero (bounds-checked against the trip
//!   count), otherwise a gcd divisibility refutation; surviving pairs
//!   are dependences of unknown distance.
//! - **Fallback**: accesses rooted at different objects are
//!   disambiguated by the interprocedural alias analysis
//!   ([`crate::alias`]); a may-alias answer is a conservative unknown
//!   dependence, a no-alias answer discharges the pair.
//!
//! Per loop the analysis derives three legality verdicts, read by the
//! static features (dims 48–55) and the corpus census: `parallel_safe` (no
//! loop-carried dependence at all), `min_distance` (the least carried
//! distance when every carried dependence has a proved one), and
//! `vector_safe` (parallel, or all carried distances proved and ≥ 2 so
//! a jam by a factor up to the minimum preserves every dependence).
//! Opaque calls (nonempty mod/ref summaries) and budget exhaustion
//! force every verdict to the conservative `false`.
//!
//! Two lints ride on the same machinery ([`lint_with`]):
//! `overlap-copy` (a `memcpy` whose source and destination provably
//! overlap but do not coincide — the copy direction is undefined) and
//! `loop-carried-uaf` (a pointer loaded inside a loop that may hold a
//! stack slot allocated in the *same* loop and whose feeding store sits
//! after the load — the pointer is a previous iteration's slot, a
//! use-after-scope once dereferenced).
//!
//! Results are the seventh incremental memo class: per-function, keyed
//! by function fingerprint + `fid`/budget digest + a digest of the scev
//! and alias inputs the tests read (see
//! [`crate::incremental::IncrementalAnalysisManager`]).

use crate::alias::{MemObj, ModuleAlias};
use crate::diag::{codes, Diagnostic};
use crate::scev::{LoopScev, ModuleScev, ScevFnResult};
use posetrl_ir::{BlockId, FuncId, Function, InstId, Module, Op, SourceLoc, Ty, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Maximum memory accesses collected per loop; a loop over budget keeps
/// its access count but tests no pairs (conservative verdicts).
const MAX_ACCESSES: usize = 256;

/// Maximum access pairs tested per loop; same degradation.
const MAX_PAIRS: usize = 4096;

/// The classical dependence kinds, by the source access's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write then read (true dependence).
    Flow,
    /// Read then write.
    Anti,
    /// Write then write.
    Output,
}

impl DepKind {
    /// Stable textual form used by the render dump.
    pub fn render(&self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// One dependence between two memory accesses of a loop.
///
/// `distance` semantics: `Some(d)` with `d ≥ 1` proves the source's
/// iteration-`t` access and the destination's iteration-`t + d` access
/// touch a common cell, and that no *smaller* positive iteration gap
/// conflicts; `Some(0)` is a same-iteration dependence; `None` is an
/// unknown (possibly any) distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependence {
    /// Arena id of the source access instruction.
    pub src: u32,
    /// Arena id of the destination access instruction.
    pub dst: u32,
    /// Flow / anti / output classification.
    pub kind: DepKind,
    /// Proved iteration distance (see the type docs).
    pub distance: Option<u64>,
    /// The dependence crosses iterations of this loop.
    pub carried: bool,
}

/// Everything proved about one loop's memory behaviour.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopDepend {
    /// The loop header's block arena id.
    pub header: u32,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Memory accesses collected in the loop body (loads, stores and
    /// the conservative memcpy/memset endpoints).
    pub accesses: u32,
    /// Surviving dependences, in deterministic pair order.
    pub deps: Vec<Dependence>,
    /// Access pairs proven independent (subscript or alias refutation).
    pub disambiguated: u32,
    /// The loop contains a call with a nonempty mod/ref summary; every
    /// verdict is conservatively `false`.
    pub opaque_calls: bool,
    /// An access or pair budget was exhausted; same degradation.
    pub truncated: bool,
    /// No loop-carried dependence, or every carried distance is proved
    /// and ≥ 2 (a jam by a factor up to [`LoopDepend::min_distance`]
    /// preserves order).
    pub vector_safe: bool,
    /// No loop-carried dependence at all: iterations are independent.
    pub parallel_safe: bool,
    /// Minimum carried distance when *every* carried dependence has a
    /// proved one; `None` when there are none or any is unknown.
    pub min_distance: Option<u64>,
}

/// Per-function result: the incremental memo unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DependFnResult {
    /// One entry per natural loop, outer-to-inner (forest order).
    pub loops: Vec<LoopDepend>,
}

impl DependFnResult {
    /// The facts for the loop headed by `h`, if any.
    pub fn loop_at(&self, h: BlockId) -> Option<&LoopDepend> {
        self.loops.iter().find(|l| l.header == h.0)
    }
}

/// Module-level view: one [`DependFnResult`] per defined function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleDepend {
    /// Results keyed by function arena id.
    pub funcs: BTreeMap<u32, DependFnResult>,
}

impl ModuleDepend {
    /// The result of `fid`, if the function is defined.
    pub fn func(&self, fid: FuncId) -> Option<&DependFnResult> {
        self.funcs.get(&fid.0)
    }

    /// The facts for the loop headed by `h` in `fid`, if any.
    pub fn loop_of(&self, fid: FuncId, h: BlockId) -> Option<&LoopDepend> {
        self.func(fid).and_then(|r| r.loop_at(h))
    }
}

// ---------------------------------------------------------------------------
// Subscript forms
// ---------------------------------------------------------------------------

/// Symbolic term tags in a subscript's linear form. Recurrence terms
/// carry their step into the iteration coefficient; invariant
/// instruction and argument terms are opaque constants that cancel
/// between accesses with matching multiplicities.
const TERM_REC: u8 = 0;
const TERM_INV: u8 = 1;
const TERM_ARG: u8 = 2;

/// A gep-chain address lifted to `root + off + Σ n·term`, with the
/// iteration-`t` evolution folded into `coeff` (`Σ n·step` over the
/// recurrence terms) and the constant part into `init` when every
/// recurrence term has a known start and no symbolic term remains.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Form {
    root: Value,
    terms: BTreeMap<(u8, u32), i64>,
    coeff: i64,
    off: i64,
    init: Option<i64>,
    affine: bool,
}

impl Form {
    fn opaque(root: Value) -> Form {
        Form {
            root,
            terms: BTreeMap::new(),
            coeff: 0,
            off: 0,
            init: None,
            affine: false,
        }
    }

    /// The fully constant part `off + Σ n·init`, when proved.
    fn const_part(&self) -> Option<i64> {
        self.init.map(|i| self.off.saturating_add(i))
    }
}

fn in_loop_block(ls: &LoopScev, b: BlockId) -> bool {
    ls.blocks.binary_search(&b.0).is_ok()
}

fn inst_block(f: &Function, id: InstId) -> Option<BlockId> {
    f.inst(id).map(|i| i.block)
}

/// Lifts `ptr` to its linear form relative to `ls`'s iteration counter
/// (`ls = None` treats every instruction index as invariant — the
/// single-execution view used by the memcpy overlap lint).
fn form_of(f: &Function, ls: Option<&LoopScev>, ptr: Value) -> Form {
    let mut form = Form {
        root: ptr,
        terms: BTreeMap::new(),
        coeff: 0,
        off: 0,
        init: Some(0),
        affine: true,
    };
    let mut cur = ptr;
    for _ in 0..64 {
        let Value::Inst(id) = cur else { break };
        let Op::Gep {
            ptr: base, index, ..
        } = f.op(id)
        else {
            break;
        };
        if let Some(c) = index.const_int() {
            form.off = form.off.saturating_add(c);
        } else {
            match index {
                Value::Arg(i) => {
                    *form.terms.entry((TERM_ARG, *i)).or_insert(0) += 1;
                    form.init = None;
                }
                Value::Inst(ix) => {
                    let rec = ls.and_then(|l| l.rec_of(*ix));
                    if let Some(r) = rec {
                        *form.terms.entry((TERM_REC, ix.0)).or_insert(0) += 1;
                        form.coeff = form.coeff.saturating_add(r.step);
                        form.init = match (form.init, r.init) {
                            (Some(a), Some(b)) => Some(a.saturating_add(b)),
                            _ => None,
                        };
                    } else {
                        let invariant = match ls {
                            Some(l) => inst_block(f, *ix)
                                .map(|b| !in_loop_block(l, b))
                                .unwrap_or(false),
                            None => true,
                        };
                        if invariant {
                            *form.terms.entry((TERM_INV, ix.0)).or_insert(0) += 1;
                            form.init = None;
                        } else {
                            return Form::opaque(cur);
                        }
                    }
                }
                _ => return Form::opaque(cur),
            }
        }
        cur = *base;
    }
    form.root = cur;
    form
}

// ---------------------------------------------------------------------------
// Pair tests
// ---------------------------------------------------------------------------

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Outcome of testing one (same-root) access pair: `None` means proven
/// independent; `Some((carried, distance, swap))` is a surviving
/// dependence, with `swap` set when the second access is the source.
type PairOutcome = Option<(bool, Option<u64>, bool)>;

const UNKNOWN_DEP: PairOutcome = Some((true, None, false));

fn subscript_test(a: &Form, b: &Form, trip: Option<u64>, self_pair: bool) -> PairOutcome {
    if !a.affine || !b.affine {
        return UNKNOWN_DEP;
    }
    // Constant difference of the iteration-invariant parts: direct when
    // both are fully constant, by symbolic cancellation when the term
    // multisets match (then the coefficients match too).
    let dd: Option<i64> = match (a.const_part(), b.const_part()) {
        (Some(da), Some(db)) => Some(da - db),
        _ if a.terms == b.terms => Some(a.off - b.off),
        _ => None,
    };
    let Some(d) = dd else { return UNKNOWN_DEP };
    let (ca, cb) = (a.coeff, b.coeff);
    if ca == cb {
        if ca == 0 {
            // ZIV: both addresses are iteration-invariant.
            if d == 0 {
                // Same cell every iteration: adjacent iterations
                // conflict, so the minimal carried distance is 1.
                return Some((true, Some(1), false));
            }
            return None;
        }
        // Strong SIV: a(t) = b(t + d/c) when c divides d.
        if d % ca != 0 {
            return None;
        }
        let dist = d / ca;
        if dist == 0 {
            if self_pair {
                return None; // an access trivially "depends" on itself
            }
            return Some((false, Some(0), false));
        }
        let ad = dist.unsigned_abs();
        if let Some(t) = trip {
            if ad >= t {
                return None; // the two iterations cannot both execute
            }
        }
        return Some((true, Some(ad), dist < 0));
    }
    // Weak SIV: differing coefficients. With one side invariant the
    // collision iteration is exact and bounds-checkable; otherwise a
    // gcd divisibility refutation is all we attempt.
    let solve_at = |c: i64, rhs: i64| -> PairOutcome {
        if rhs % c != 0 {
            return None;
        }
        let t = rhs / c;
        if t < 0 {
            return None;
        }
        if let Some(tb) = trip {
            if t.unsigned_abs() >= tb {
                return None;
            }
        }
        UNKNOWN_DEP
    };
    if ca == 0 {
        // Da = Db + cb·t  ⇒  cb·t = d
        return solve_at(cb, d);
    }
    if cb == 0 {
        // Da + ca·t = Db  ⇒  ca·t = −d
        return solve_at(ca, -d);
    }
    let g = gcd(ca.unsigned_abs(), cb.unsigned_abs());
    if g != 0 && d.unsigned_abs() % g != 0 {
        return None;
    }
    UNKNOWN_DEP
}

// ---------------------------------------------------------------------------
// Per-function analysis (the memo unit)
// ---------------------------------------------------------------------------

/// One collected memory access.
struct Access {
    inst: u32,
    is_write: bool,
    form: Form,
}

/// Analyzes one function against its precomputed scev result and the
/// module alias facts. Pure in `(f, fid, sr, ma)` — the
/// incremental memo key digests the `sr`/`ma` slices it reads.
pub fn analyze_function(
    f: &Function,
    fid: FuncId,
    sr: &ScevFnResult,
    ma: &ModuleAlias,
) -> DependFnResult {
    let mut loops = Vec::new();
    for ls in &sr.loops {
        loops.push(analyze_loop(f, fid, ls, ma));
    }
    DependFnResult { loops }
}

fn analyze_loop(f: &Function, fid: FuncId, ls: &LoopScev, ma: &ModuleAlias) -> LoopDepend {
    let mut out = LoopDepend {
        header: ls.header,
        depth: ls.depth,
        ..LoopDepend::default()
    };

    // Collect the accesses in deterministic program order (sorted
    // blocks, instruction order within each).
    let mut accesses: Vec<Access> = Vec::new();
    let mut total = 0u32;
    for &b in &ls.blocks {
        let Some(blk) = f.block(BlockId(b)) else {
            continue;
        };
        for &id in &blk.insts {
            let pts: &[(Value, bool)] = match f.op(id) {
                Op::Load { ptr, .. } => &[(*ptr, false)],
                Op::Store { ptr, .. } => &[(*ptr, true)],
                Op::MemSet { dst, .. } => &[(*dst, true)],
                Op::MemCpy { dst, src, .. } => &[(*dst, true), (*src, false)],
                Op::Call { .. } => {
                    let mods = ma.call_mods(fid, f, id);
                    let refs = ma.call_refs(fid, f, id);
                    let silent = mods.as_ref().is_some_and(|s| s.is_empty())
                        && refs.as_ref().is_some_and(|s| s.is_empty());
                    if !silent {
                        out.opaque_calls = true;
                    }
                    &[]
                }
                _ => &[],
            };
            for &(ptr, is_write) in pts {
                total += 1;
                if accesses.len() < MAX_ACCESSES {
                    // memcpy/memset endpoints cover a range, not a
                    // cell: keep them opaque so every same-root or
                    // may-alias pair stays a conservative dependence.
                    let ranged = matches!(f.op(id), Op::MemCpy { .. } | Op::MemSet { .. });
                    let form = if ranged {
                        Form::opaque(ptr)
                    } else {
                        form_of(f, Some(ls), ptr)
                    };
                    accesses.push(Access {
                        inst: id.0,
                        is_write,
                        form,
                    });
                }
            }
        }
    }
    out.accesses = total;
    if total as usize > MAX_ACCESSES {
        out.truncated = true;
    }
    let n = accesses.len();
    if !out.truncated && n * (n + 1) / 2 > MAX_PAIRS {
        out.truncated = true;
    }

    let trip = ls.trip.known_max();
    if !out.truncated {
        for i in 0..n {
            for j in i..n {
                let (a, b) = (&accesses[i], &accesses[j]);
                if !a.is_write && !b.is_write {
                    continue; // input dependences are irrelevant
                }
                let self_pair = i == j;
                let outcome = if a.form.root == b.form.root {
                    subscript_test(&a.form, &b.form, trip, self_pair)
                } else if ma.may_alias(fid, f, a.form.root, b.form.root) {
                    UNKNOWN_DEP
                } else {
                    None
                };
                match outcome {
                    None => out.disambiguated += 1,
                    Some((carried, distance, swap)) => {
                        if self_pair && !carried {
                            continue;
                        }
                        let (src, dst) = if swap { (b, a) } else { (a, b) };
                        let kind = match (src.is_write, dst.is_write) {
                            (true, true) => DepKind::Output,
                            (true, false) => DepKind::Flow,
                            (false, true) => DepKind::Anti,
                            (false, false) => unreachable!("read/read pairs are skipped"),
                        };
                        out.deps.push(Dependence {
                            src: src.inst,
                            dst: dst.inst,
                            kind,
                            distance,
                            carried,
                        });
                    }
                }
            }
        }
    }

    let clean = !out.opaque_calls && !out.truncated;
    let carried: Vec<&Dependence> = out.deps.iter().filter(|d| d.carried).collect();
    out.parallel_safe = clean && carried.is_empty();
    if !carried.is_empty() && carried.iter().all(|d| d.distance.is_some()) {
        out.min_distance = carried.iter().filter_map(|d| d.distance).min();
    }
    out.vector_safe = out.parallel_safe || (clean && out.min_distance.is_some_and(|d| d >= 2));
    out
}

// ---------------------------------------------------------------------------
// Module driver
// ---------------------------------------------------------------------------

/// Runs the analysis over `m` with the default budgets (scev and
/// alias run internally).
pub fn analyze_module(m: &Module) -> ModuleDepend {
    analyze_module_with(m, None)
}

/// [`analyze_module`], optionally memoizing per-function analyses
/// through an [`IncrementalAnalysisManager`](crate::incremental::IncrementalAnalysisManager):
/// [`analyze_module_full`] with freshly computed (or memo-served) scev
/// and alias inputs.
pub fn analyze_module_with(
    m: &Module,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleDepend {
    let ms = crate::scev::analyze_module_with(m, mgr);
    let ma = crate::alias::analyze_module_with(m, mgr);
    analyze_module_full(m, &ms, &ma, mgr)
}

/// The full driver over precomputed scev and alias results.
/// Function-local, so no SCC schedule: each function's memo key is its
/// fingerprint + the `fid`/budget digest + a digest of the scev loop
/// structure and the alias facts/summary/memdep slices the subscript
/// tests and the fallback disambiguation read.
pub fn analyze_module_full(
    m: &Module,
    ms: &ModuleScev,
    ma: &ModuleAlias,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleDepend {
    let empty = ScevFnResult::default();
    let mut funcs = BTreeMap::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let sr = ms.func(fid).unwrap_or(&empty);
        let out: Arc<DependFnResult> = match mgr {
            None => Arc::new(analyze_function(f, fid, sr, ma)),
            Some(mgr) => {
                use std::fmt::Write as _;
                let mut inp = String::new();
                let _ = write!(
                    inp,
                    "{:?}|{:?}|{:?}|{:?}|",
                    sr.loops,
                    ma.facts(fid),
                    ma.summary(fid),
                    ma.memdep(fid)
                );
                // call_mods/call_refs substitute the CALLEE's mod/ref
                // summary at each call site — a callee edit can move the
                // opaque-call verdict without touching this function's
                // own facts, so every callee summary is part of the key
                for &id in f.inst_ids().iter() {
                    if let Op::Call { callee, .. } = f.op(id) {
                        let _ = write!(inp, "{}:{:?}|", callee.0, ma.summary(*callee));
                    }
                }
                let key = (
                    posetrl_ir::function_fingerprint(m, f),
                    posetrl_ir::digest_str(&format!("{}|{}|{}", fid.0, MAX_ACCESSES, MAX_PAIRS)),
                    posetrl_ir::digest_str(&inp),
                );
                mgr.depend
                    .get_or_compute(&f.name, key, || Arc::new(analyze_function(f, fid, sr, ma)))
            }
        };
        funcs.insert(fid.0, (*out).clone());
    }
    ModuleDepend { funcs }
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// Lints one module against precomputed scev/alias facts:
/// `overlap-copy` and `loop-carried-uaf` (see the module docs).
pub fn lint_with(m: &Module, ms: &ModuleScev, ma: &ModuleAlias, out: &mut Vec<Diagnostic>) {
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let sr = ms.func(fid);
        lint_overlap_copy(f, sr, out);
        if let Some(sr) = sr {
            lint_loop_carried_uaf(f, fid, sr, ma, out);
        }
    }
}

/// The innermost analyzed loop containing block `b`, if any.
fn innermost_loop(sr: Option<&ScevFnResult>, b: BlockId) -> Option<&LoopScev> {
    sr?.loops
        .iter()
        .filter(|l| in_loop_block(l, b))
        .max_by_key(|l| l.depth)
}

fn lint_overlap_copy(f: &Function, sr: Option<&ScevFnResult>, out: &mut Vec<Diagnostic>) {
    for &id in f.inst_ids().iter() {
        let Op::MemCpy { dst, src, len, .. } = f.op(id) else {
            continue;
        };
        let Some(l) = len.const_int() else { continue };
        if l <= 0 {
            continue;
        }
        let ls = inst_block(f, id).and_then(|b| innermost_loop(sr, b));
        let (fd, fs) = (form_of(f, ls, *dst), form_of(f, ls, *src));
        if !fd.affine || !fs.affine || fd.root != fs.root {
            continue;
        }
        // Both endpoints are evaluated at the same execution, so equal
        // term multisets cancel — including the iteration terms.
        if fd.terms != fs.terms {
            continue;
        }
        let d = fd.off - fs.off;
        if d != 0 && d.abs() < l {
            out.push(Diagnostic::warning(
                codes::OVERLAP_COPY,
                SourceLoc::of_inst(f, id),
                format!(
                    "memcpy of {l} elements whose source and destination overlap \
                     ({} elements apart): the copy direction is undefined",
                    d.abs()
                ),
            ));
        }
    }
}

fn lint_loop_carried_uaf(
    f: &Function,
    fid: FuncId,
    sr: &ScevFnResult,
    ma: &ModuleAlias,
    out: &mut Vec<Diagnostic>,
) {
    let Some(dep) = ma.memdep(fid) else { return };
    for ls in &sr.loops {
        // Deterministic program positions over the loop body.
        let mut pos: BTreeMap<u32, usize> = BTreeMap::new();
        let mut next = 0usize;
        for &b in &ls.blocks {
            let Some(blk) = f.block(BlockId(b)) else {
                continue;
            };
            for &id in &blk.insts {
                pos.insert(id.0, next);
                next += 1;
            }
        }
        // Values dereferenced in the loop, closed over gep chains.
        let mut deref: Vec<Value> = Vec::new();
        let mark = |d: &mut Vec<Value>, v: Value| {
            if !d.contains(&v) {
                d.push(v);
            }
        };
        for &id in pos.keys() {
            match f.op(InstId(id)) {
                Op::Load { ptr, .. } | Op::Store { ptr, .. } => {
                    mark(&mut deref, *ptr);
                }
                Op::MemCpy { dst, src, .. } => {
                    mark(&mut deref, *dst);
                    mark(&mut deref, *src);
                }
                Op::MemSet { dst, .. } => {
                    mark(&mut deref, *dst);
                }
                _ => {}
            }
        }
        let mut i = 0;
        while i < deref.len() {
            if let Value::Inst(g) = deref[i] {
                if let Op::Gep { ptr, .. } = f.op(g) {
                    let p = *ptr;
                    mark(&mut deref, p);
                }
            }
            i += 1;
        }
        let in_loop_inst = |x: u32| inst_block(f, InstId(x)).is_some_and(|b| in_loop_block(ls, b));
        for (&id, &p) in &pos {
            let iid = InstId(id);
            let Op::Load { ty, .. } = f.op(iid) else {
                continue;
            };
            if *ty != Ty::Ptr || !deref.contains(&Value::Inst(iid)) {
                continue;
            }
            let pts = ma.value_pts(fid, f, Value::Inst(iid));
            let loop_slot = !pts.top
                && pts.objs.iter().any(|o| {
                    matches!(o, MemObj::Alloca { func, inst }
                        if *func == fid.0 && in_loop_inst(*inst))
                });
            if !loop_slot {
                continue;
            }
            let carried_store = dep
                .load_deps
                .get(&id)
                .is_some_and(|ss| ss.iter().any(|&s| in_loop_inst(s) && pos[&s] > p));
            if carried_store {
                out.push(Diagnostic::warning(
                    codes::LOOP_CARRIED_UAF,
                    SourceLoc::of_inst(f, iid),
                    format!(
                        "pointer loaded at %{id} may hold a stack slot allocated in a \
                         previous iteration of the loop at bb{}: dereferencing it is \
                         use-after-scope",
                        ls.header
                    ),
                ));
            }
        }
    }
}

/// Runs the analysis and the lints over `m` in one call.
pub fn check(m: &Module, out: &mut Vec<Diagnostic>) {
    let ms = crate::scev::analyze_module(m);
    let ma = crate::alias::analyze_module(m);
    lint_with(m, &ms, &ma, out);
}

// ---------------------------------------------------------------------------
// Textual dump (mini-analyze --depend)
// ---------------------------------------------------------------------------

/// Renders the whole analysis in a stable, line-oriented format:
/// per-loop dependences, disambiguation counts and legality verdicts.
pub fn render(m: &Module, md: &ModuleDepend) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "module {}", m.name);
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let _ = writeln!(out, "fn @{}", f.name);
        let Some(r) = md.func(fid) else { continue };
        for l in &r.loops {
            let _ = writeln!(out, "  loop bb{} depth {}", l.header, l.depth);
            let _ = writeln!(
                out,
                "    accesses {} deps {} disambiguated {}",
                l.accesses,
                l.deps.len(),
                l.disambiguated
            );
            for d in &l.deps {
                let dist = match (d.carried, d.distance) {
                    (false, _) => "same-iteration".to_string(),
                    (true, Some(n)) => format!("carried distance {n}"),
                    (true, None) => "carried distance unknown".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    dep {} %{} -> %{} {}",
                    d.kind.render(),
                    d.src,
                    d.dst,
                    dist
                );
            }
            let yn = |b: bool| if b { "yes" } else { "no" };
            let _ = writeln!(
                out,
                "    vector-safe {} parallel-safe {} min-distance {}",
                yn(l.vector_safe),
                yn(l.parallel_safe),
                l.min_distance
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "none".to_string())
            );
            let mut flags = Vec::new();
            if l.opaque_calls {
                flags.push("opaque-calls");
            }
            if l.truncated {
                flags.push("truncated");
            }
            if !flags.is_empty() {
                let _ = writeln!(out, "    flags {}", flags.join(" "));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;

    fn analyzed(text: &str) -> (Module, ModuleDepend) {
        let m = parse_module(text).expect("test module parses");
        let md = analyze_module(&m);
        (m, md)
    }

    fn main_loop(m: &Module, md: &ModuleDepend) -> LoopDepend {
        let fid = m.func_by_name("main").unwrap();
        let r = md.func(fid).expect("main analyzed");
        assert!(!r.loops.is_empty(), "main has a loop");
        r.loops[0].clone()
    }

    /// a[i] = a[i+2] + 1 — a carried anti dependence of exact distance 2
    /// (the iteration-t read of a[t+2] precedes the iteration-t+2 write).
    const SHIFT2: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 16
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %i2 = add i64 %i, 2:i64
  %ps = gep i64, %a, %i2
  %v = load i64, %ps
  %w = add i64 %v, 1:i64
  %pd = gep i64, %a, %i
  store i64 %w, %pd
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#;

    #[test]
    fn strong_siv_proves_exact_distance() {
        let (m, md) = analyzed(SHIFT2);
        let l = main_loop(&m, &md);
        let carried: Vec<_> = l.deps.iter().filter(|d| d.carried).collect();
        assert_eq!(carried.len(), 1, "one carried dep: {:?}", l.deps);
        assert_eq!(carried[0].distance, Some(2));
        assert!(l.vector_safe, "distance 2 admits a jam by 2: {l:?}");
        assert!(!l.parallel_safe);
        assert_eq!(l.min_distance, Some(2));
    }

    /// s[0] += a[i] — the accumulator cell conflicts every iteration.
    const ACCUM: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 16
  %s = alloca i64 x 1
  store i64 0:i64, %s
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %p = gep i64, %a, %i
  %v = load i64, %p
  %cur = load i64, %s
  %w = add i64 %cur, %v
  store i64 %w, %s
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  %r = load i64, %s
  ret %r
}
"#;

    #[test]
    fn ziv_accumulator_blocks_both_verdicts() {
        let (m, md) = analyzed(ACCUM);
        let l = main_loop(&m, &md);
        assert!(!l.parallel_safe && !l.vector_safe, "{l:?}");
        assert_eq!(l.min_distance, Some(1));
        assert!(l
            .deps
            .iter()
            .any(|d| d.kind == DepKind::Output && d.carried));
        assert!(l.deps.iter().any(|d| d.kind == DepKind::Anti && d.carried));
    }

    /// b[i] = a[i] — distinct allocas never conflict.
    const DISJOINT: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 16
  %b = alloca i64 x 16
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %ps = gep i64, %a, %i
  %v = load i64, %ps
  %pd = gep i64, %b, %i
  store i64 %v, %pd
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#;

    #[test]
    fn disjoint_arrays_are_parallel_safe() {
        let (m, md) = analyzed(DISJOINT);
        let l = main_loop(&m, &md);
        assert!(l.parallel_safe && l.vector_safe, "{l:?}");
        assert!(l.deps.is_empty());
        assert!(l.disambiguated >= 2, "{l:?}");
    }

    /// a[2i] = a[2i+1] — strong SIV with an indivisible difference.
    const STRIDED: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 32
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %e = mul i64 %i, 2:i64
  %o = add i64 %e, 1:i64
  %ps = gep i64, %a, %o
  %v = load i64, %ps
  %pd = gep i64, %a, %e
  store i64 %v, %pd
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#;

    #[test]
    fn strong_siv_refutes_indivisible_difference() {
        let (m, md) = analyzed(STRIDED);
        let l = main_loop(&m, &md);
        assert!(l.parallel_safe, "odd/even cells never meet: {l:?}");
        assert!(l.deps.is_empty(), "{:?}", l.deps);
    }

    /// a[i] = a[i+1] — carried anti dependence of distance 1: a jam
    /// would read a cell its earlier copy should have read first.
    const SHIFT1: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 16
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %i1 = add i64 %i, 1:i64
  %ps = gep i64, %a, %i1
  %v = load i64, %ps
  %pd = gep i64, %a, %i
  store i64 %v, %pd
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#;

    #[test]
    fn distance_one_blocks_vectorization() {
        let (m, md) = analyzed(SHIFT1);
        let l = main_loop(&m, &md);
        assert_eq!(l.min_distance, Some(1));
        assert!(!l.vector_safe && !l.parallel_safe, "{l:?}");
    }

    #[test]
    fn trip_bound_refutes_far_dependences() {
        // a[i] and a[i+64] with a 10-iteration loop cannot both land
        // on a common cell.
        let far = SHIFT2.replace("2:i64\n", "64:i64\n");
        let (m, md) = analyzed(&far);
        let l = main_loop(&m, &md);
        assert!(l.parallel_safe, "distance 64 >= trip 10: {l:?}");
    }

    #[test]
    fn overlap_copy_lint_fires_on_proven_overlap() {
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 8
  %d = gep i64, %a, 1:i64
  memcpy i64 %d, %a, 4:i64
  ret 0:i64
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        check(&m, &mut out);
        assert!(out.iter().any(|d| d.code == codes::OVERLAP_COPY), "{out:?}");
    }

    #[test]
    fn overlap_copy_lint_is_quiet_on_disjoint_ranges() {
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 8
  %d = gep i64, %a, 4:i64
  memcpy i64 %d, %a, 4:i64
  ret 0:i64
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        check(&m, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn loop_carried_uaf_lint_fires_on_prior_iteration_slot() {
        // Each iteration dereferences the pointer stored by the
        // previous iteration (the store sits after the load), and that
        // pointer is a stack slot allocated inside the loop.
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %cell = alloca ptr x 1
  %first = alloca i64 x 1
  store ptr %first, %cell
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %old = load ptr, %cell
  %v = load i64, %old
  %slot = alloca i64 x 1
  store i64 %v, %slot
  store ptr %slot, %cell
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        check(&m, &mut out);
        assert!(
            out.iter().any(|d| d.code == codes::LOOP_CARRIED_UAF),
            "{out:?}"
        );
    }

    #[test]
    fn loop_carried_uaf_lint_is_quiet_on_same_iteration_slot() {
        // The slot is allocated, stored and reloaded within one
        // iteration: the feeding store precedes the load.
        let m = parse_module(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  %cell = alloca ptr x 1
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %slot = alloca i64 x 1
  store i64 %i, %slot
  store ptr %slot, %cell
  %p = load ptr, %cell
  %v = load i64, %p
  %n = add i64 %v, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#,
        )
        .unwrap();
        let mut out = Vec::new();
        check(&m, &mut out);
        assert!(
            !out.iter().any(|d| d.code == codes::LOOP_CARRIED_UAF),
            "{out:?}"
        );
    }

    #[test]
    fn render_is_stable_and_mentions_verdicts() {
        let (m, md) = analyzed(SHIFT2);
        let r1 = render(&m, &md);
        let (m2, md2) = analyzed(SHIFT2);
        assert_eq!(r1, render(&m2, &md2));
        assert!(r1.contains("vector-safe yes parallel-safe no"), "{r1}");
        assert!(r1.contains("carried distance 2"), "{r1}");
    }

    #[test]
    fn incremental_path_is_bit_identical_and_memoizes() {
        let m = parse_module(SHIFT2).unwrap();
        let cold = analyze_module(&m);
        let mgr = crate::incremental::IncrementalAnalysisManager::new();
        let warm1 = analyze_module_with(&m, Some(&mgr));
        let warm2 = analyze_module_with(&m, Some(&mgr));
        assert_eq!(cold, warm1);
        assert_eq!(warm1, warm2);
        let st = mgr.stats();
        assert_eq!(st.depend.misses, 1, "{st:?}");
        assert_eq!(st.depend.hits, 1, "{st:?}");
        assert_eq!(mgr.depend.drain_log(), vec!["main"]);
    }
}
