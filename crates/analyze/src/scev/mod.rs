//! Scalar evolution: add-recurrence recognition and trip-count analysis
//! over the natural-loop forest.
//!
//! For every loop with a unique latch the analysis recognizes the
//! induction variables among the header phis as *add-recurrences*
//! `{init,+,step}` — the value on iteration `t` is `init + t·step`,
//! wrapped into the variable's type — and extends them to *chains of
//! recurrences*: an add/sub/mul/shl of a known recurrence with a
//! loop-invariant constant is itself a recurrence with folded
//! coefficients. Recognition stops at 64 recurrences per loop.
//!
//! On top of the recurrences the controlling header exit (a `condbr` on
//! an `icmp` between a header-phi recurrence and a loop-invariant
//! bound) yields a symbolic trip count:
//!
//! - [`TripCount::Exact`] — the loop body runs exactly `n` times. Proved
//!   by *simulating* the recurrence against the constant bound with the
//!   type's wrapping semantics (so wrap-around exits are still exact,
//!   and flagged), up to [`ScevConfig::trip_budget`]. Requires the
//!   header to be the only exiting block.
//! - [`TripCount::Bounded`] — an upper bound. Produced when other exits
//!   may leave earlier, or when the bound is symbolic but the absint
//!   interval of the bound value (argument summaries for parameters,
//!   value facts for loop-invariant instructions) pins a finite range.
//! - [`TripCount::Unknown`] — everything else, *including budget
//!   exhaustion*: a trip count above the budget is never reported, it degrades to `Unknown` explicitly.
//!
//! When simulation exhausts the budget an O(1) classification decides
//! what the exhaustion means: a zero effective step or an unsolvable
//! `ne`-bound congruence (the step's power-of-two factor does not
//! divide `bound − init` modulo `2^width`) is *provably infinite*; a
//! step walking away from the bound can only exit by wrapping first
//! (`iv_wraps`). Both feed [`check`] lints: `infinite-loop` (also for
//! loops with no exit edge at all) and `iv-overflow`.
//!
//! Each function's result also embeds the static block-frequency
//! profile ([`crate::profile`]) computed from the same loop forest and
//! trip counts — the two analyses share one memo unit
//! ([`ScevFnResult`]) in the incremental manager, keyed by function
//! fingerprint + config digest + a digest of the absint facts and
//! callee no-return bits the result depends on.
//!
//! Consumers: trip-count-gated unrolling and induction-variable
//! simplification in `posetrl-opt`, the frequency-weighted cycle
//! estimators in `posetrl-target`, eight static feature dimensions in
//! [`crate::absint::features`], and `mini-analyze --scev`.

use crate::absint::{FnSummary, FuncFacts, ModuleAbsint};
use crate::diag::{codes, Diagnostic};
use crate::profile::FnProfile;
use posetrl_ir::analysis::{Cfg, DomTree, Loop, LoopForest};
use posetrl_ir::{BinOp, BlockId, Function, InstId, IntPred, Module, Op, SourceLoc, Ty, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Maximum recognized recurrences (base + derived) per loop.
const MAX_IVS: usize = 64;

/// Trip-count budget of the scalar-evolution engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScevConfig {
    /// Maximum simulated iterations per trip-count query; any trip
    /// above it is reported as [`TripCount::Unknown`].
    pub trip_budget: u64,
}

impl Default for ScevConfig {
    fn default() -> Self {
        ScevConfig {
            trip_budget: 1 << 20,
        }
    }
}

/// A symbolic trip count: the number of times the loop body executes
/// per entry into the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripCount {
    /// The body runs exactly this many times.
    Exact(u64),
    /// The body runs at most this many times (early exits or a
    /// range-refined symbolic bound).
    Bounded(u64),
    /// Nothing provable within budget — explicitly including trip
    /// counts above [`ScevConfig::trip_budget`].
    Unknown,
}

impl TripCount {
    /// The proved upper bound, if any.
    pub fn known_max(&self) -> Option<u64> {
        match *self {
            TripCount::Exact(n) | TripCount::Bounded(n) => Some(n),
            TripCount::Unknown => None,
        }
    }

    /// The exact count, if proved exact.
    pub fn exact(&self) -> Option<u64> {
        match *self {
            TripCount::Exact(n) => Some(n),
            _ => None,
        }
    }

    /// Stable textual form used by the render dump.
    pub fn render(&self) -> String {
        match *self {
            TripCount::Exact(n) => format!("exact {n}"),
            TripCount::Bounded(n) => format!("bounded {n}"),
            TripCount::Unknown => "unknown".to_string(),
        }
    }
}

/// An add-recurrence `{init,+,step}`: on iteration `t` the value is
/// `wrap(init + t·step)` in `ty`. `init` is `None` when the start value
/// is symbolic (the step evolution still holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddRec {
    /// Arena id of the instruction evolving this way (a header phi for
    /// base recurrences, any in-loop instruction for derived ones).
    pub inst: u32,
    /// The recurrence's integer type (wrapping domain).
    pub ty: Ty,
    /// Start value on loop entry, when constant.
    pub init: Option<i64>,
    /// Per-iteration increment (wrapped into `ty`).
    pub step: i64,
}

impl AddRec {
    /// Stable textual form used by the render dump.
    pub fn render(&self) -> String {
        match self.init {
            Some(i) => format!("{{{},+,{}}}", i, self.step),
            None => format!("{{?,+,{}}}", self.step),
        }
    }
}

/// Everything proved about one natural loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopScev {
    /// The loop header's block arena id.
    pub header: u32,
    /// Nesting depth (1 = outermost).
    pub depth: u32,
    /// Sorted arena ids of the member blocks.
    pub blocks: Vec<u32>,
    /// Recognized recurrences, in recognition order (header phis first).
    pub recs: Vec<AddRec>,
    /// The symbolic trip count.
    pub trip: TripCount,
    /// The loop has no exit edge at all.
    pub no_exit: bool,
    /// The controlling exit condition provably never becomes false.
    pub provably_infinite: bool,
    /// The induction variable must wrap around its type before the
    /// controlling exit can trigger (or did wrap en route to an exact
    /// trip).
    pub iv_wraps: bool,
    /// Arena id of the controlling exit branch, when one was found.
    pub exit_inst: Option<u32>,
}

impl LoopScev {
    /// The recurrence evolving instruction `id`, if recognized.
    pub fn rec_of(&self, id: InstId) -> Option<&AddRec> {
        self.recs.iter().find(|r| r.inst == id.0)
    }
}

/// Per-function result: the loop facts plus the static profile built
/// from them. This is the incremental memo unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScevFnResult {
    /// One entry per natural loop, outer-to-inner (forest order).
    pub loops: Vec<LoopScev>,
    /// Static block-frequency estimates (see [`crate::profile`]).
    pub profile: FnProfile,
}

impl ScevFnResult {
    /// The facts for the loop headed by `h`, if any.
    pub fn loop_at(&self, h: BlockId) -> Option<&LoopScev> {
        self.loops.iter().find(|l| l.header == h.0)
    }
}

/// Module-level view: one [`ScevFnResult`] per defined function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleScev {
    /// Results keyed by function arena id.
    pub funcs: BTreeMap<u32, ScevFnResult>,
}

impl ModuleScev {
    /// The result of `fid`, if the function is defined.
    pub fn func(&self, fid: posetrl_ir::FuncId) -> Option<&ScevFnResult> {
        self.funcs.get(&fid.0)
    }

    /// The static profile of `fid`, if defined.
    pub fn profile(&self, fid: posetrl_ir::FuncId) -> Option<&FnProfile> {
        self.func(fid).map(|r| &r.profile)
    }

    /// The trip count of the loop headed by `h` in `fid`
    /// ([`TripCount::Unknown`] when nothing is known).
    pub fn trip(&self, fid: posetrl_ir::FuncId, h: BlockId) -> TripCount {
        self.func(fid)
            .and_then(|r| r.loop_at(h))
            .map(|l| l.trip)
            .unwrap_or(TripCount::Unknown)
    }
}

// ---------------------------------------------------------------------------
// Recurrence recognition
// ---------------------------------------------------------------------------

/// The loop-invariant bound of a controlling exit compare.
enum Bound {
    /// A compile-time (or absint-proved singleton) constant.
    Const(i64),
    /// A finite absint interval `[lo, hi]`.
    Range { lo: i64, hi: i64 },
    /// Nothing known.
    Unknown,
}

fn const_of(v: &Value) -> Option<i64> {
    v.const_int()
}

/// Recognizes the base add-recurrences among the header phis of `l`
/// (unique latch required — callers check). Returns `(recs, phi ids)`.
fn base_recs(f: &Function, l: &Loop, latch: BlockId) -> Vec<AddRec> {
    let mut recs = Vec::new();
    let Some(header) = f.block(l.header) else {
        return recs;
    };
    for &id in &header.insts {
        if recs.len() >= MAX_IVS {
            break;
        }
        let Op::Phi { ty, incomings } = f.op(id) else {
            continue;
        };
        if !ty.is_int() {
            continue;
        }
        // the latch incoming must be `phi ± const` computed in the loop
        let mut from_latch = None;
        let mut outside: Vec<Value> = Vec::new();
        for (from, v) in incomings {
            if *from == latch {
                from_latch = Some(*v);
            } else if !l.blocks.contains(from) {
                outside.push(*v);
            }
        }
        let Some(Value::Inst(n)) = from_latch else {
            continue;
        };
        let in_loop = f
            .inst(n)
            .map(|i| l.blocks.contains(&i.block))
            .unwrap_or(false);
        if !in_loop {
            continue;
        }
        let step = match f.op(n) {
            Op::Bin {
                op: BinOp::Add,
                ty: t2,
                lhs,
                rhs,
            } if t2 == ty => {
                if *lhs == Value::Inst(id) {
                    const_of(rhs)
                } else if *rhs == Value::Inst(id) {
                    const_of(lhs)
                } else {
                    None
                }
            }
            Op::Bin {
                op: BinOp::Sub,
                ty: t2,
                lhs,
                rhs,
            } if t2 == ty && *lhs == Value::Inst(id) => const_of(rhs).map(i64::wrapping_neg),
            _ => None,
        };
        let Some(step) = step else { continue };
        // the entry value: constant only when every outside incoming
        // agrees on one constant
        let init = match outside.split_first() {
            Some((first, rest)) if rest.iter().all(|v| v == first) => const_of(first),
            _ => None,
        };
        recs.push(AddRec {
            inst: id.0,
            ty: *ty,
            init: init.map(|v| ty.wrap(v)),
            step: ty.wrap(step),
        });
    }
    recs
}

/// Extends `recs` with derived recurrences (chains): affine
/// combinations of a known recurrence with a loop-invariant constant.
fn derive_recs(f: &Function, l: &Loop, recs: &mut Vec<AddRec>) {
    let mut blocks: Vec<u32> = l.blocks.iter().map(|b| b.0).collect();
    blocks.sort_unstable();
    // a second sweep lets chains cross the (arbitrary) block order once
    for _ in 0..2 {
        for &bid in &blocks {
            let Some(block) = f.block(BlockId(bid)) else {
                continue;
            };
            for &id in &block.insts {
                if recs.len() >= MAX_IVS {
                    return;
                }
                if recs.iter().any(|r| r.inst == id.0) {
                    continue;
                }
                let Op::Bin { op, ty, lhs, rhs } = f.op(id) else {
                    continue;
                };
                if !ty.is_int() {
                    continue;
                }
                let rec_lhs = lhs
                    .as_inst()
                    .and_then(|i| recs.iter().find(|r| r.inst == i.0 && r.ty == *ty))
                    .copied();
                let rec_rhs = rhs
                    .as_inst()
                    .and_then(|i| recs.iter().find(|r| r.inst == i.0 && r.ty == *ty))
                    .copied();
                let derived = match (op, rec_lhs, const_of(rhs), rec_rhs, const_of(lhs)) {
                    // {a,+,s} + c  and  c + {a,+,s}
                    (BinOp::Add, Some(r), Some(c), _, _) | (BinOp::Add, _, _, Some(r), Some(c)) => {
                        Some(AddRec {
                            inst: id.0,
                            ty: *ty,
                            init: r.init.map(|a| ty.wrap(a.wrapping_add(c))),
                            step: r.step,
                        })
                    }
                    // {a,+,s} - c
                    (BinOp::Sub, Some(r), Some(c), _, _) => Some(AddRec {
                        inst: id.0,
                        ty: *ty,
                        init: r.init.map(|a| ty.wrap(a.wrapping_sub(c))),
                        step: r.step,
                    }),
                    // c - {a,+,s} = {c-a,+,-s}
                    (BinOp::Sub, _, _, Some(r), Some(c)) => Some(AddRec {
                        inst: id.0,
                        ty: *ty,
                        init: r.init.map(|a| ty.wrap(c.wrapping_sub(a))),
                        step: ty.wrap(r.step.wrapping_neg()),
                    }),
                    // {a,+,s} * c
                    (BinOp::Mul, Some(r), Some(c), _, _) | (BinOp::Mul, _, _, Some(r), Some(c)) => {
                        Some(AddRec {
                            inst: id.0,
                            ty: *ty,
                            init: r.init.map(|a| ty.wrap(a.wrapping_mul(c))),
                            step: ty.wrap(r.step.wrapping_mul(c)),
                        })
                    }
                    // {a,+,s} << c = {a·2^c,+,s·2^c}
                    (BinOp::Shl, Some(r), Some(c), _, _) if (0..64).contains(&c) => Some(AddRec {
                        inst: id.0,
                        ty: *ty,
                        init: r.init.map(|a| ty.wrap(a.wrapping_shl(c as u32))),
                        step: ty.wrap(r.step.wrapping_shl(c as u32)),
                    }),
                    _ => None,
                };
                if let Some(d) = derived {
                    recs.push(d);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Trip counts
// ---------------------------------------------------------------------------

/// Outcome of simulating the controlling exit test.
enum Sim {
    /// The test failed on iteration `t` (body ran `t` times); `wrapped`
    /// records whether the recurrence wrapped en route.
    Exited { trip: u64, wrapped: bool },
    /// Budget exhausted while the test kept succeeding.
    Budget,
}

/// Simulates `{init,+,step}` in `ty` against `cont(iv, bound)` with the
/// type's wrapping semantics.
fn simulate(ty: Ty, init: i64, step: i64, cont: IntPred, bound: i64, budget: u64) -> Sim {
    let mut iv = ty.wrap(init);
    let mut wrapped = false;
    for t in 0..=budget {
        if !cont.eval(iv, bound) {
            return Sim::Exited { trip: t, wrapped };
        }
        let exact = iv as i128 + step as i128;
        iv = ty.wrap(iv.wrapping_add(step));
        if iv as i128 != exact {
            wrapped = true;
        }
    }
    Sim::Budget
}

/// O(1) classification of a budget-exhausted simulation: why did the
/// controlling test never fail?
fn classify_exhaustion(ty: Ty, init: i64, step: i64, cont: IntPred, bound: i64, ls: &mut LoopScev) {
    if step == 0 {
        // the test held with an unchanging induction variable
        ls.provably_infinite = true;
        return;
    }
    match cont {
        // walking away from an upper bound: only a signed wrap can exit
        IntPred::Slt | IntPred::Sle if step < 0 => ls.iv_wraps = true,
        // walking away from a lower bound
        IntPred::Sgt | IntPred::Sge if step > 0 => ls.iv_wraps = true,
        IntPred::Ne => {
            // `iv != bound` exits iff init + t·step ≡ bound (mod 2^w) is
            // solvable: 2^tz(step) must divide (bound − init) mod 2^w
            let w = ty.bit_width();
            let mask: u128 = if w >= 128 {
                u128::MAX
            } else {
                (1u128 << w) - 1
            };
            let d = (bound as u128).wrapping_sub(init as u128) & mask;
            let s = (step as u128) & mask;
            let tz = s.trailing_zeros().min(w);
            if d & ((1u128 << tz) - 1) != 0 {
                ls.provably_infinite = true;
            }
        }
        _ => {}
    }
}

/// Resolves the loop-invariant bound operand of the controlling compare
/// through absint: argument summaries for parameters, value facts for
/// instructions defined outside the loop.
fn resolve_bound(
    f: &Function,
    l: &Loop,
    facts: Option<&FuncFacts>,
    summary: Option<&FnSummary>,
    v: &Value,
) -> Bound {
    if let Some(c) = const_of(v) {
        return Bound::Const(c);
    }
    let int_facts = match v {
        Value::Arg(i) => summary
            .and_then(|s| s.args.get(*i as usize))
            .and_then(|a| a.as_int())
            .copied(),
        Value::Inst(d) => {
            let outside = f
                .inst(*d)
                .map(|i| !l.blocks.contains(&i.block))
                .unwrap_or(false);
            if outside {
                facts
                    .map(|fa| fa.value(*d))
                    .and_then(|a| a.as_int().copied())
            } else {
                None
            }
        }
        _ => None,
    };
    match int_facts {
        Some(fx) => match fx.as_singleton() {
            Some(c) => Bound::Const(c),
            None if !fx.is_top() => Bound::Range {
                lo: fx.lo,
                hi: fx.hi,
            },
            None => Bound::Unknown,
        },
        None => Bound::Unknown,
    }
}

/// Upper-bounds the trip analytically from a bound interval: only for
/// monotone walks toward the bound where no intermediate value can
/// wrap.
fn range_trip(
    ty: Ty,
    init: i64,
    step: i64,
    cont: IntPred,
    lo: i64,
    hi: i64,
    budget: u64,
) -> TripCount {
    let (tmin, tmax) = match ty {
        Ty::I1 => (0, 1),
        Ty::I8 => (i8::MIN as i128, i8::MAX as i128),
        Ty::I32 => (i32::MIN as i128, i32::MAX as i128),
        _ => (i64::MIN as i128, i64::MAX as i128),
    };
    let (diff, stride, extra) = match cont {
        // continue while iv < bound ≤ hi, increasing
        IntPred::Slt if step > 0 => (hi as i128 - init as i128, step as i128, 0),
        IntPred::Sle if step > 0 => (hi as i128 - init as i128, step as i128, 1),
        // continue while iv > bound ≥ lo, decreasing
        IntPred::Sgt if step < 0 => (init as i128 - lo as i128, -(step as i128), 0),
        IntPred::Sge if step < 0 => (init as i128 - lo as i128, -(step as i128), 1),
        _ => return TripCount::Unknown,
    };
    if diff < 0 {
        return TripCount::Bounded(0);
    }
    let t0 = diff.div_euclid(stride) + if diff.rem_euclid(stride) != 0 { 1 } else { 0 } + extra;
    // every tested value must stay representable (no wrap en route)
    let last = init as i128 + t0 * step as i128;
    if last < tmin || last > tmax {
        return TripCount::Unknown;
    }
    if t0 as u128 > budget as u128 {
        return TripCount::Unknown;
    }
    TripCount::Bounded(t0 as u64)
}

/// Computes the trip count of `l` from its controlling header exit and
/// fills the infinite/wrap flags on `ls`.
#[allow(clippy::too_many_arguments)]
fn trip_count(
    f: &Function,
    l: &Loop,
    facts: Option<&FuncFacts>,
    summary: Option<&FnSummary>,
    recs: &[AddRec],
    phi_count: usize,
    sole_exit: bool,
    cfg: &ScevConfig,
    ls: &mut LoopScev,
) {
    let Some(header) = f.block(l.header) else {
        return;
    };
    let Some(&term) = header.insts.last() else {
        return;
    };
    let Op::CondBr {
        cond,
        then_bb,
        else_bb,
    } = f.op(term)
    else {
        return;
    };
    let then_in = l.blocks.contains(then_bb);
    let else_in = l.blocks.contains(else_bb);
    if then_in == else_in {
        return;
    }
    let Some(ci) = cond.as_inst() else {
        return;
    };
    let Op::Icmp { pred, ty, lhs, rhs } = f.op(ci) else {
        return;
    };
    if !ty.is_int() {
        return;
    }
    // which side is a header-phi recurrence? (base recs are the first
    // `phi_count` entries)
    let rec_side = |v: &Value| -> Option<AddRec> {
        v.as_inst()
            .and_then(|i| recs[..phi_count].iter().find(|r| r.inst == i.0))
            .copied()
    };
    let (rec, bound_v, pred) = match (rec_side(lhs), rec_side(rhs)) {
        (Some(r), None) => (r, rhs, *pred),
        (None, Some(r)) => (r, lhs, pred.swapped()),
        _ => return,
    };
    // continue-predicate: the branch side staying in the loop
    let cont = if then_in { pred } else { pred.inverted() };
    ls.exit_inst = Some(term.0);
    let Some(init) = rec.init else {
        return;
    };
    match resolve_bound(f, l, facts, summary, bound_v) {
        Bound::Const(b) => match simulate(rec.ty, init, rec.step, cont, b, cfg.trip_budget) {
            Sim::Exited { trip, wrapped } => {
                if sole_exit {
                    ls.trip = TripCount::Exact(trip);
                    ls.iv_wraps = wrapped;
                } else {
                    // another block may leave earlier; wrap-around on the
                    // full walk need not occur, so only the bound is kept
                    ls.trip = TripCount::Bounded(trip);
                }
            }
            Sim::Budget => {
                if sole_exit {
                    classify_exhaustion(rec.ty, init, rec.step, cont, b, ls);
                }
            }
        },
        Bound::Range { lo, hi } => {
            ls.trip = range_trip(rec.ty, init, rec.step, cont, lo, hi, cfg.trip_budget);
        }
        Bound::Unknown => {}
    }
}

// ---------------------------------------------------------------------------
// Per-function analysis (the memo unit)
// ---------------------------------------------------------------------------

/// Analyzes one function: loop forest → recurrences → trip counts →
/// static profile. Pure in `(f, facts, summary, noreturn, cfg)`, which
/// is what the incremental memo key digests.
pub fn analyze_function(
    f: &Function,
    facts: Option<&FuncFacts>,
    summary: Option<&FnSummary>,
    noreturn: &BTreeSet<u32>,
    cfg: &ScevConfig,
) -> ScevFnResult {
    let cfg_a = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg_a);
    let forest = LoopForest::compute(f, &cfg_a, &dt);

    let mut loops = Vec::new();
    let mut trips: BTreeMap<u32, u64> = BTreeMap::new();
    for l in &forest.loops {
        let mut blocks: Vec<u32> = l.blocks.iter().map(|b| b.0).collect();
        blocks.sort_unstable();
        let exiting = l.exiting_blocks(f);
        let mut ls = LoopScev {
            header: l.header.0,
            depth: l.depth,
            blocks,
            recs: Vec::new(),
            trip: TripCount::Unknown,
            no_exit: exiting.is_empty(),
            provably_infinite: false,
            iv_wraps: false,
            exit_inst: None,
        };
        if l.latches.len() == 1 {
            let mut recs = base_recs(f, l, l.latches[0]);
            let phi_count = recs.len();
            derive_recs(f, l, &mut recs);
            let sole_exit = exiting.len() == 1 && exiting[0] == l.header;
            trip_count(
                f, l, facts, summary, &recs, phi_count, sole_exit, cfg, &mut ls,
            );
            ls.recs = recs;
        }
        if let Some(n) = ls.trip.known_max() {
            trips.insert(l.header.0, n);
        }
        loops.push(ls);
    }

    let profile = crate::profile::compute_fn(f, facts, &cfg_a, &forest, &trips, noreturn);
    ScevFnResult { loops, profile }
}

// ---------------------------------------------------------------------------
// Module driver
// ---------------------------------------------------------------------------

/// Runs the analysis over `m` with the default budgets (absint runs
/// internally for the range refinement and dead-branch facts).
pub fn analyze_module(m: &Module) -> ModuleScev {
    analyze_module_cfg(m, &ScevConfig::default(), None)
}

/// [`analyze_module`], optionally memoizing per-function analyses
/// through an [`IncrementalAnalysisManager`](crate::incremental::IncrementalAnalysisManager).
pub fn analyze_module_with(
    m: &Module,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleScev {
    analyze_module_cfg(m, &ScevConfig::default(), mgr)
}

/// [`analyze_module_cfg_absint`] with a freshly computed (or
/// memo-served) absint result.
pub fn analyze_module_cfg(
    m: &Module,
    cfg: &ScevConfig,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleScev {
    let mi = crate::absint::analyze_module_with(m, mgr);
    analyze_module_cfg_absint(m, &mi, cfg, mgr)
}

/// The full driver over precomputed absint results. Function-local, so
/// no SCC schedule: each function's memo key is its fingerprint + the
/// `fid`/config digest + a digest of the absint facts/summary and
/// callee no-return bits it reads — a callee edit that changes any of
/// those reaches this class content-wise, exactly like the alias
/// callee-summary digests.
pub fn analyze_module_cfg_absint(
    m: &Module,
    mi: &ModuleAbsint,
    cfg: &ScevConfig,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleScev {
    let noreturn = crate::profile::noreturn_funcs(m);
    let mut funcs = BTreeMap::new();
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let facts = mi.facts(fid);
        let summary = mi.summary(fid);
        let out: Arc<ScevFnResult> = match mgr {
            None => Arc::new(analyze_function(f, facts, summary, &noreturn, cfg)),
            Some(mgr) => {
                use std::fmt::Write as _;
                let mut inp = String::new();
                let _ = write!(inp, "{facts:?}|{summary:?}|");
                let mut callees: Vec<u32> = f
                    .inst_ids()
                    .iter()
                    .filter_map(|&id| match f.op(id) {
                        Op::Call { callee, .. } => Some(callee.0),
                        _ => None,
                    })
                    .collect();
                callees.sort_unstable();
                callees.dedup();
                for c in callees {
                    let _ = write!(inp, "{c}:{};", noreturn.contains(&c) as u8);
                }
                let key = (
                    posetrl_ir::function_fingerprint(m, f),
                    posetrl_ir::digest_str(&format!("{}|{}|{}", fid.0, MAX_IVS, cfg.trip_budget)),
                    posetrl_ir::digest_str(&inp),
                );
                mgr.scev.get_or_compute(&f.name, key, || {
                    Arc::new(analyze_function(f, facts, summary, &noreturn, cfg))
                })
            }
        };
        funcs.insert(fid.0, (*out).clone());
    }
    ModuleScev { funcs }
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// Lints one module against precomputed scev facts: `infinite-loop`
/// (no exit edge, or a controlling exit that provably never triggers)
/// and `iv-overflow` (the induction variable must wrap around its type
/// before the loop can exit).
pub fn lint_with(m: &Module, ms: &ModuleScev, out: &mut Vec<Diagnostic>) {
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let Some(r) = ms.func(fid) else { continue };
        for l in &r.loops {
            let header = BlockId(l.header);
            let loc = || {
                let term = f.block(header).and_then(|b| b.insts.last().copied());
                match l.exit_inst.map(InstId).or(term) {
                    Some(id) => SourceLoc::of_inst(f, id),
                    None => SourceLoc::in_func(&f.name).at_block(header),
                }
            };
            if l.no_exit {
                out.push(Diagnostic::warning(
                    codes::INFINITE_LOOP,
                    loc(),
                    format!("loop at {header} has no exit edge and cannot terminate"),
                ));
            } else if l.provably_infinite {
                out.push(Diagnostic::warning(
                    codes::INFINITE_LOOP,
                    loc(),
                    format!(
                        "loop at {header} cannot terminate: its exit condition provably never triggers"
                    ),
                ));
            }
            if l.iv_wraps {
                out.push(Diagnostic::warning(
                    codes::IV_OVERFLOW,
                    loc(),
                    format!(
                        "induction variable of loop at {header} wraps around its type before the loop exits"
                    ),
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
// Textual dump (mini-analyze --scev)
// ---------------------------------------------------------------------------

/// Renders the whole analysis in a stable, line-oriented format:
/// per-loop recurrences, trip counts and flags, then the per-block
/// frequency estimates.
pub fn render(m: &Module, ms: &ModuleScev) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "module {}", m.name);
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        let _ = writeln!(out, "fn @{}", f.name);
        let Some(r) = ms.func(fid) else { continue };
        for l in &r.loops {
            let blocks: Vec<String> = l.blocks.iter().map(|b| format!("bb{b}")).collect();
            let _ = writeln!(
                out,
                "  loop bb{} depth {} blocks [{}]",
                l.header,
                l.depth,
                blocks.join(" ")
            );
            for rec in &l.recs {
                let _ = writeln!(out, "    rec %{}: {} {}", rec.inst, rec.render(), rec.ty);
            }
            let _ = writeln!(out, "    trip {}", l.trip.render());
            let mut flags = Vec::new();
            if l.no_exit {
                flags.push("no-exit");
            }
            if l.provably_infinite {
                flags.push("infinite");
            }
            if l.iv_wraps {
                flags.push("iv-wraps");
            }
            if !flags.is_empty() {
                let _ = writeln!(out, "    flags {}", flags.join(" "));
            }
        }
        for (b, w) in &r.profile.freqs {
            let _ = writeln!(out, "  freq bb{b} {w:.3}");
        }
        let _ = writeln!(out, "  hot-ratio {:.3}", r.profile.hot_ratio);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;

    fn analyzed(text: &str) -> (Module, ModuleScev) {
        let m = parse_module(text).expect("test module parses");
        let ms = analyze_module(&m);
        (m, ms)
    }

    fn main_loop(m: &Module, ms: &ModuleScev) -> LoopScev {
        let fid = m.func_by_name("main").unwrap();
        let r = ms.func(fid).expect("main analyzed");
        assert!(!r.loops.is_empty(), "main has a loop");
        r.loops[0].clone()
    }

    const COUNTED: &str = r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#;

    #[test]
    fn counted_loop_has_exact_trip() {
        let (m, ms) = analyzed(COUNTED);
        let l = main_loop(&m, &ms);
        assert_eq!(l.trip, TripCount::Exact(10));
        assert!(!l.iv_wraps && !l.provably_infinite && !l.no_exit);
        let rec = &l.recs[0];
        assert_eq!((rec.init, rec.step), (Some(0), 1));
    }

    #[test]
    fn downward_loop_has_exact_trip() {
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 10:i64], [bb2: %n]
  %c = icmp sgt i64 %i, 0:i64
  condbr %c, bb2, bb3
bb2:
  %n = sub i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert_eq!(l.trip, TripCount::Exact(10));
        assert_eq!(l.recs[0].step, -1);
    }

    #[test]
    fn ne_parity_mismatch_is_provably_infinite() {
        // i = 0, 2, 4, ... never equals 9
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp ne i64 %i, 9:i64
  condbr %c, bb2, bb3
bb2:
  %n = add i64 %i, 2:i64
  br bb1
bb3:
  ret %i
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert!(l.provably_infinite, "parity mismatch: {l:?}");
        let mut diags = Vec::new();
        lint_with(&m, &ms, &mut diags);
        assert!(diags.iter().any(|d| d.code == codes::INFINITE_LOOP));
    }

    #[test]
    fn zero_step_is_provably_infinite() {
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %n = add i64 %i, 0:i64
  br bb1
bb3:
  ret %i
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert!(l.provably_infinite, "zero step never advances: {l:?}");
    }

    #[test]
    fn monotone_away_needs_wrap() {
        // i decreases while the exit needs i ≥ 10: only a wrap can exit
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %n = sub i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert_eq!(l.trip, TripCount::Unknown);
        assert!(l.iv_wraps, "away-walk exits only by wrapping: {l:?}");
        let mut diags = Vec::new();
        lint_with(&m, &ms, &mut diags);
        assert!(diags.iter().any(|d| d.code == codes::IV_OVERFLOW));
    }

    #[test]
    fn narrow_wrap_exit_is_exact_but_flagged() {
        // i8: 0, 100, -56, 44, ... reaches ≥ 120 only after wrapping
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i8 [bb0: 0:i8], [bb2: %n]
  %c = icmp slt i8 %i, 120:i8
  condbr %c, bb2, bb3
bb2:
  %n = add i8 %i, 100:i8
  br bb1
bb3:
  ret 0:i64
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert!(matches!(l.trip, TripCount::Exact(_)), "{l:?}");
        assert!(l.iv_wraps, "the walk wrapped en route: {l:?}");
    }

    #[test]
    fn no_exit_loop_is_flagged() {
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  br bb1
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert!(l.no_exit);
        let mut diags = Vec::new();
        lint_with(&m, &ms, &mut diags);
        assert!(diags.iter().any(|d| d.code == codes::INFINITE_LOOP));
    }

    #[test]
    fn derived_recurrences_fold_coefficients() {
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb3
bb2:
  %s = mul i64 %i, 4:i64
  %o = add i64 %s, 7:i64
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#,
        );
        let fid = m.func_by_name("main").unwrap();
        let f = m.func(fid).unwrap();
        let l = main_loop(&m, &ms);
        // %s = {0,+,4}, %o = {7,+,4}, %n = {1,+,1}
        let ids = f.inst_ids();
        let s_id = ids
            .iter()
            .find(|&&i| matches!(f.op(i), Op::Bin { op: BinOp::Mul, .. }))
            .unwrap();
        let s = l.rec_of(*s_id).expect("mul chain recognized");
        assert_eq!((s.init, s.step), (Some(0), 4));
        let o = l
            .recs
            .iter()
            .find(|r| (r.init, r.step) == (Some(7), 4))
            .is_some();
        assert!(o, "add-of-mul chain recognized: {:?}", l.recs);
    }

    #[test]
    fn symbolic_bound_refines_through_absint_summaries() {
        // @count is only called with 10 and 20, so its arg interval is
        // [10, 20] and the trip is bounded by 20
        let (m, ms) = analyzed(
            r#"
module "t"
fn @count(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb2: %n]
  %c = icmp slt i64 %i, %arg0
  condbr %c, bb2, bb3
bb2:
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
fn @main() -> i64 internal {
bb0:
  %a = call @count(10:i64) -> i64
  %b = call @count(20:i64) -> i64
  %s = add i64 %a, %b
  ret %s
}
"#,
        );
        let fid = m.func_by_name("count").unwrap();
        let r = ms.func(fid).unwrap();
        match r.loops[0].trip {
            TripCount::Exact(n) | TripCount::Bounded(n) => {
                assert!((10..=20).contains(&n), "interval-refined trip: {n}")
            }
            TripCount::Unknown => panic!("absint interval should bound the trip: {:?}", r.loops[0]),
        }
    }

    #[test]
    fn early_exit_downgrades_to_bounded() {
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main(i64) -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb3: %n]
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb2, bb4
bb2:
  %e = icmp eq i64 %i, %arg0
  condbr %e, bb4, bb3
bb3:
  %n = add i64 %i, 1:i64
  br bb1
bb4:
  ret %i
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert_eq!(l.trip, TripCount::Bounded(10), "{l:?}");
        assert!(!l.iv_wraps && !l.provably_infinite);
    }

    #[test]
    fn trip_above_budget_is_unknown() {
        let cfg = ScevConfig { trip_budget: 8 };
        let m = parse_module(COUNTED).unwrap();
        let ms = analyze_module_cfg(&m, &cfg, None);
        let l = main_loop(&m, &ms);
        assert_eq!(l.trip, TripCount::Unknown, "budget 8 < trip 10: {l:?}");
        assert!(!l.provably_infinite && !l.iv_wraps);
    }

    #[test]
    fn failing_entry_test_is_exact_zero() {
        let (m, ms) = analyzed(
            r#"
module "t"
fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 5:i64], [bb2: %n]
  %c = icmp slt i64 %i, 5:i64
  condbr %c, bb2, bb3
bb2:
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret %i
}
"#,
        );
        let l = main_loop(&m, &ms);
        assert_eq!(l.trip, TripCount::Exact(0));
    }

    #[test]
    fn render_is_stable_and_mentions_trips() {
        let (m, ms) = analyzed(COUNTED);
        let dump = render(&m, &ms);
        assert!(dump.contains("trip exact 10"), "{dump}");
        assert!(dump.contains("rec %"), "{dump}");
        assert_eq!(dump, render(&m, &ms));
    }

    #[test]
    fn clean_corpus_examples_stay_clean() {
        let m = parse_module(COUNTED).unwrap();
        let mut diags = Vec::new();
        check(&m, &mut diags);
        assert!(diags.is_empty(), "clean loop flagged: {diags:?}");
    }
}
