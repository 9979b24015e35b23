//! Refinement driver: builds the per-function violation formula,
//! discharges it with the SAT core, and replays every satisfying model
//! through the reference interpreter before calling anything `Refuted`.
//!
//! For one function pair the obligation is
//!
//! ```text
//! viol =  ∨_t [ cond_t ∧ ub_t ∧ ¬src_ub ]                    (new trap)
//!       ∨ ∨_{s,t} [ cond_s ∧ cond_t ∧ ¬ub_s ∧ ¬ub_t
//!                   ∧ mismatch(s, t) ]            (observable mismatch)
//! ```
//!
//! where `s`/`t` range over the enumerated source/target paths,
//! `src_ub = ∨_s (cond_s ∧ ub_s)`, and `mismatch` covers the return
//! value, the external-call trace, and the final contents of every
//! mutable global, each under the undef-widening rule: a source undef
//! permits anything, a target undef where the source is concrete is a
//! violation. `viol` UNSAT ⇒ `Proved`. A model is only trusted after
//! the interpreter confirms the replayed target run does **not** refine
//! the source run (`Observation::refines`); unconfirmed models — e.g.
//! ones that would need a non-initializer global state, or that lean on
//! an uninterpreted float — stay `Inconclusive`.

use super::bitblast::Blaster;
use super::canon::canonical_body;
use super::exec::{width_of, PathOutcome, SVal, SharedEnv, SymArg, SymExec, SymVal};
use super::sat::{solve, SatResult};
use super::term::{SymOrigin, TermId, TermStore};
use super::ValidateConfig;
use posetrl_ir::interp::{InterpConfig, Interpreter, Observation, RtVal};
use posetrl_ir::module::{FuncId, Module};
use posetrl_ir::printer::print_function;
use posetrl_ir::Ty;

/// A concrete, interpreter-confirmed counterexample input.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Function the inputs apply to.
    pub entry: String,
    /// Argument vector (replayable via `Interpreter::run`).
    pub args: Vec<RtVal>,
    /// Rendered source observation.
    pub src_obs: String,
    /// Rendered target observation.
    pub tgt_obs: String,
}

/// The verdict for one function pair.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Refinement holds for all inputs (structural or symbolic proof).
    Proved,
    /// Refinement violated; carries an interpreter-confirmed input.
    Refuted(Box<Counterexample>),
    /// Could not be decided within budget; escalate to the dynamic
    /// fallback. Carries the reason.
    Inconclusive(String),
}

/// One function's validation result.
#[derive(Debug, Clone)]
pub struct FuncVerdict {
    /// Function name.
    pub name: String,
    /// Outcome.
    pub verdict: Verdict,
}

/// Whole-module validation result for one pass application.
#[derive(Debug, Clone, Default)]
pub struct ModuleValidation {
    /// Per-function verdicts, in target-module function order.
    pub funcs: Vec<FuncVerdict>,
}

impl ModuleValidation {
    /// Number of proved functions.
    pub fn proved(&self) -> usize {
        self.funcs
            .iter()
            .filter(|f| matches!(f.verdict, Verdict::Proved))
            .count()
    }

    /// Number of refuted functions.
    pub fn refuted(&self) -> usize {
        self.funcs
            .iter()
            .filter(|f| matches!(f.verdict, Verdict::Refuted(_)))
            .count()
    }

    /// Number of inconclusive functions.
    pub fn inconclusive(&self) -> usize {
        self.funcs
            .iter()
            .filter(|f| matches!(f.verdict, Verdict::Inconclusive(_)))
            .count()
    }

    /// First refutation, if any.
    pub fn first_refutation(&self) -> Option<(&str, &Counterexample)> {
        self.funcs.iter().find_map(|f| match &f.verdict {
            Verdict::Refuted(cex) => Some((f.name.as_str(), cex.as_ref())),
            _ => None,
        })
    }

    /// True when every function proved.
    pub fn all_proved(&self) -> bool {
        self.refuted() == 0 && self.inconclusive() == 0
    }
}

/// Validates that `tgt` refines `src`, function by function (paired by
/// name). Deleted source-only functions are ignored — removing an
/// unused definition cannot add behaviours.
pub fn validate_transform(src: &Module, tgt: &Module, cfg: &ValidateConfig) -> ModuleValidation {
    validate_transform_with(src, tgt, cfg, None)
}

/// Digest of everything one function-pair obligation can read on one
/// side: the transitive direct-call closure's fingerprints plus the
/// global table. Symbolic execution inlines callees and the interpreter
/// replay runs them, so the closure (not just the pair) is the sound
/// memo unit. If the closure takes any function address, fall back to
/// folding in the whole module hash — an indirect target could be
/// anything.
fn closure_digest(m: &Module, root: FuncId) -> u128 {
    use posetrl_ir::{Op, Value};
    use std::collections::BTreeSet;
    use std::fmt::Write as _;
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let mut stack = vec![root.0];
    let mut has_fn_ptr = false;
    while let Some(i) = stack.pop() {
        if !seen.insert(i) {
            continue;
        }
        let Some(f) = m.func(FuncId(i)) else { continue };
        for id in f.inst_ids() {
            let op = f.op(id);
            if let Op::Call { callee, .. } = op {
                stack.push(callee.0);
            }
            for v in op.operands() {
                if matches!(v, Value::Func(_)) {
                    has_fn_ptr = true;
                }
            }
        }
    }
    let mut s = String::new();
    for i in &seen {
        let fp = m
            .func(FuncId(*i))
            .map(|f| posetrl_ir::function_fingerprint(m, f))
            .unwrap_or(0);
        let _ = write!(s, "{i}:{fp:032x};");
    }
    let _ = write!(s, "|g{:032x}", posetrl_ir::globals_fingerprint(m));
    if has_fn_ptr {
        let _ = write!(s, "|m{}", posetrl_ir::module_hash(m));
    }
    posetrl_ir::digest_str(&s)
}

/// [`validate_transform`], optionally memoizing per-pair obligations
/// through an [`IncrementalAnalysisManager`]. Only pre-escalation
/// `Proved`/`Inconclusive` verdicts are cached — they are pure functions
/// of the closure digests — so cached and fresh runs produce identical
/// `ModuleValidation`s.
///
/// [`IncrementalAnalysisManager`]: crate::incremental::IncrementalAnalysisManager
pub fn validate_transform_with(
    src: &Module,
    tgt: &Module,
    cfg: &ValidateConfig,
    mgr: Option<&crate::incremental::IncrementalAnalysisManager>,
) -> ModuleValidation {
    let globals_identical = globals_identical(src, tgt);
    let global_issue = global_issue(src, tgt);
    let cfg_digest = mgr.map(|_| posetrl_ir::digest_str(&format!("{cfg:?}")));
    let mut out = ModuleValidation::default();
    for tid in tgt.func_ids() {
        let tf = tgt.func(tid).expect("function exists");
        let name = tf.name.clone();
        let memo_key = match (mgr, src.func_by_name(&name)) {
            (Some(_), Some(sid)) => Some((
                cfg_digest.unwrap(),
                closure_digest(src, sid),
                closure_digest(tgt, tid),
            )),
            _ => None,
        };
        if let (Some(mgr), Some(key)) = (mgr, &memo_key) {
            if let Some(verdict) = mgr.validate.get(key) {
                out.funcs.push(FuncVerdict { name, verdict });
                continue;
            }
        }
        let verdict = 'v: {
            let Some(sid) = src.func_by_name(&name) else {
                break 'v Verdict::Inconclusive("function introduced by the pass".into());
            };
            let sf = src.func(sid).expect("function exists");
            if sf.params != tf.params || sf.ret != tf.ret {
                break 'v Verdict::Inconclusive("signature changed".into());
            }
            if sf.is_decl != tf.is_decl {
                break 'v Verdict::Inconclusive("definition/declaration status changed".into());
            }
            if sf.is_decl {
                // same external symbol, same signature
                break 'v Verdict::Proved;
            }
            // structural fast paths over an identical global table:
            // byte-identical bodies, then canonical-form equivalence
            // (expression folding, const-branch folding, chain merging,
            // reachability pruning — see `canon`); equal canonical
            // forms behave identically on every input
            if globals_identical {
                if print_function(src, sf) == print_function(tgt, tf) {
                    break 'v Verdict::Proved;
                }
                if let (Some(a), Some(b)) = (canonical_body(src, sf), canonical_body(tgt, tf)) {
                    if a == b {
                        break 'v Verdict::Proved;
                    }
                }
            }
            if let Some(issue) = &global_issue {
                break 'v Verdict::Inconclusive(issue.clone());
            }
            validate_pair(src, tgt, sid, tid, cfg)
        };
        if let (Some(mgr), Some(key)) = (mgr, memo_key) {
            memoize_verdict(mgr, key, &verdict);
        }
        // Per-function refutation is only the final word for functions
        // whose standalone behaviour must be preserved: externally
        // visible ones and the module's differential entry. An internal
        // helper may be legitimately *specialized* against its
        // remaining call sites by an interprocedural pass (ipsccp
        // folding a constant argument, inlining + DCE), so a standalone
        // counterexample does not imply the module misbehaves. Escalate
        // instead: replay the module entry — a confirmed divergence
        // there is a real refutation; agreement downgrades to
        // inconclusive and the sanitizer's dynamic fallback takes over.
        let verdict = match verdict {
            Verdict::Refuted(cex) if !standalone_entry(src, &name) => {
                match entry_divergence(src, tgt) {
                    Some(entry_cex) => Verdict::Refuted(entry_cex),
                    None => Verdict::Inconclusive(format!(
                        "standalone counterexample on internal function \
                         (args {:?}) — possibly interprocedural \
                         specialization; module entry agrees on seeds",
                        cex.args
                    )),
                }
            }
            v => v,
        };
        out.funcs.push(FuncVerdict { name, verdict });
    }
    out
}

/// Stores a pre-escalation verdict in the validate memo. `Proved` and
/// `Inconclusive` are pure functions of the closure digests; a `Refuted`
/// verdict carries a counterexample (and triggers escalation), so it is
/// never cached and always re-derived.
pub(crate) fn memoize_verdict(
    mgr: &crate::incremental::IncrementalAnalysisManager,
    key: crate::incremental::ValidateKey,
    verdict: &Verdict,
) {
    if !matches!(verdict, Verdict::Refuted(_)) {
        mgr.validate.insert(key, verdict.clone());
    }
}

/// True when `name`'s standalone behaviour must be preserved by every
/// pass: externally visible functions, plus whichever function the
/// differential executor would drive as the module entry.
fn standalone_entry(src: &Module, name: &str) -> bool {
    if let Some(fid) = src.func_by_name(name) {
        let f = src.func(fid).expect("function exists");
        if f.linkage == posetrl_ir::module::Linkage::External {
            return true;
        }
    }
    crate::sanitizer::diff_entry(src).is_some_and(|(entry, _)| entry == name)
}

/// Replays the module's differential entry on both modules; a confirmed
/// non-refinement is a module-level counterexample.
fn entry_divergence(src: &Module, tgt: &Module) -> Option<Box<Counterexample>> {
    let (entry, args) = crate::sanitizer::diff_entry(src)?;
    match replay(src, tgt, &entry, args) {
        Verdict::Refuted(cex) => Some(cex),
        _ => None,
    }
}

/// Byte-level equality of the two global tables (names, types, counts,
/// mutability, initializers, arena ids — ids feed pointer ordinals).
fn globals_identical(src: &Module, tgt: &Module) -> bool {
    let a: Vec<_> = src.global_ids().collect();
    let b: Vec<_> = tgt.global_ids().collect();
    if a != b {
        return false;
    }
    a.iter().all(|&g| {
        let (x, y) = (src.global(g).unwrap(), tgt.global(g).unwrap());
        x.name == y.name
            && x.ty == y.ty
            && x.count == y.count
            && x.init == y.init
            && x.mutable == y.mutable
    })
}

/// Global-table changes the symbolic route cannot model soundly.
fn global_issue(src: &Module, tgt: &Module) -> Option<String> {
    for gid in tgt.global_ids() {
        let tg = tgt.global(gid).unwrap();
        let Some(sgid) = src.global_by_name(&tg.name) else {
            return Some("pass introduced a global".into());
        };
        let sg = src.global(sgid).unwrap();
        if sg.mutable != tg.mutable {
            return Some("global mutability changed".into());
        }
        if sg.mutable && (sg.ty != tg.ty || sg.count != tg.count || sg.init != tg.init) {
            return Some("mutable global initializer changed".into());
        }
    }
    None
}

fn validate_pair(
    src: &Module,
    tgt: &Module,
    sid: FuncId,
    tid: FuncId,
    cfg: &ValidateConfig,
) -> Verdict {
    let sf = src.func(sid).expect("function exists");
    let mut store = TermStore::new();

    // shared environment: one slot per global name, shared symbolic
    // initial cells per mutable global
    let mut env = SharedEnv::default();
    for m in [src, tgt] {
        for gid in m.global_ids() {
            let g = m.global(gid).unwrap();
            env.slot(&g.name);
            if g.mutable && !env.mutable_inits.contains_key(&g.name) {
                if g.ty == Ty::Ptr {
                    return Verdict::Inconclusive("pointer-typed global".into());
                }
                let cells = (0..g.count as usize)
                    .map(|i| SymVal {
                        v: store.sym(
                            width_of(g.ty),
                            SymOrigin::GlobalCell {
                                global: g.name.clone(),
                                index: i,
                                ty: g.ty,
                            },
                        ),
                        u: store.fls(),
                    })
                    .collect();
                env.mutable_inits.insert(g.name.clone(), cells);
            }
        }
    }

    // symbolic arguments (assumed non-undef; the dynamic fallback only
    // ever feeds concrete arguments, so this matches its input domain)
    let mut args = Vec::with_capacity(sf.params.len());
    let mut arg_syms: Vec<(TermId, Ty)> = Vec::new();
    for (i, &ty) in sf.params.iter().enumerate() {
        if ty == Ty::Ptr {
            return Verdict::Inconclusive("pointer parameter".into());
        }
        let v = store.sym(width_of(ty), SymOrigin::Arg { index: i, ty });
        arg_syms.push((v, ty));
        let u = store.fls();
        args.push(SVal::Scalar(SymVal { v, u }));
    }

    // symbolic execution of both sides over the shared environment
    let src_paths = match SymExec::new(src, &env, cfg).exec_function(&mut store, sid, &args) {
        Ok(p) => p,
        Err(b) => return Verdict::Inconclusive(b.0),
    };
    let tgt_paths = match SymExec::new(tgt, &env, cfg).exec_function(&mut store, tid, &args) {
        Ok(p) => p,
        Err(b) => return Verdict::Inconclusive(b.0),
    };
    if src_paths.len().saturating_mul(tgt_paths.len()) > cfg.max_path_pairs {
        return Verdict::Inconclusive("path-pair budget exhausted".into());
    }

    // src_ub: the source traps (paths partition the input space)
    let mut src_ub = store.fls();
    for s in &src_paths {
        let t = store.and(s.cond, s.ub);
        src_ub = store.or(src_ub, t);
    }
    let src_defined = store.not(src_ub);

    let mut viol = store.fls();
    // (1) the target traps where the source is defined
    for t in &tgt_paths {
        let tub = store.and(t.cond, t.ub);
        let v = store.and(tub, src_defined);
        viol = store.or(viol, v);
    }
    // (2) both defined, observable mismatch
    for s in &src_paths {
        let s_def = store.not(s.ub);
        for t in &tgt_paths {
            let t_def = store.not(t.ub);
            let conds = store.and(s.cond, t.cond);
            let defs = store.and(s_def, t_def);
            let guard = store.and(conds, defs);
            if store.as_const(guard) == Some(0) {
                continue;
            }
            let mm = mismatch(&mut store, &env, s, t);
            let v = store.and(guard, mm);
            viol = store.or(viol, v);
        }
    }

    match store.as_const(viol) {
        Some(0) => return Verdict::Proved,
        Some(_) => {
            // violated for every input: replay with all-zero arguments
            let args = zero_args(&arg_syms);
            return replay(src, tgt, &sf.name, args);
        }
        None => {}
    }

    // bit-blast and solve
    let mut blaster = Blaster::new(&store, cfg.max_clauses);
    let lit = match blaster.bit(viol) {
        Ok(l) => l,
        Err(_) => return Verdict::Inconclusive("bit-blasting budget exhausted".into()),
    };
    blaster.cnf.add(vec![lit]);
    match solve(&blaster.cnf, cfg.max_conflicts) {
        SatResult::Unsat => Verdict::Proved,
        SatResult::Unknown => Verdict::Inconclusive("SAT conflict budget exhausted".into()),
        SatResult::Sat(model) => {
            // a model is a *candidate*: if it leans on a global state the
            // initializers don't produce, or an uninterpreted operator,
            // the replay will not confirm it
            let args = arg_syms
                .iter()
                .map(|&(t, ty)| {
                    let raw = blaster.value_in_model(t, &model).unwrap_or(0);
                    if ty == Ty::F64 {
                        RtVal::Float(f64::from_bits(raw as u64))
                    } else {
                        RtVal::Int(raw)
                    }
                })
                .collect();
            replay(src, tgt, &sf.name, args)
        }
    }
}

fn zero_args(arg_syms: &[(TermId, Ty)]) -> Vec<RtVal> {
    arg_syms
        .iter()
        .map(|&(_, ty)| {
            if ty == Ty::F64 {
                RtVal::Float(0.0)
            } else {
                RtVal::Int(0)
            }
        })
        .collect()
}

/// Replays a candidate counterexample through the reference interpreter
/// on both modules; only a confirmed non-refinement is `Refuted`.
fn replay(src: &Module, tgt: &Module, entry: &str, args: Vec<RtVal>) -> Verdict {
    let cfg = InterpConfig {
        fuel: 20_000_000,
        max_depth: 512,
    };
    let src_obs = Interpreter::with_config(src, cfg)
        .run(entry, &args)
        .observation();
    let tgt_obs = Interpreter::with_config(tgt, cfg)
        .run(entry, &args)
        .observation();
    if tgt_obs.refines(&src_obs) {
        Verdict::Inconclusive("counterexample not confirmed by replay".into())
    } else {
        Verdict::Refuted(Box::new(Counterexample {
            entry: entry.to_string(),
            args,
            src_obs: render_obs(&src_obs),
            tgt_obs: render_obs(&tgt_obs),
        }))
    }
}

fn render_obs(o: &Observation) -> String {
    let head = match &o.result {
        Ok(Some(v)) => format!("ret {v:?}"),
        Ok(None) => "ret void".to_string(),
        Err(e) => format!("trap: {e}"),
    };
    if o.trace.is_empty() {
        head
    } else {
        format!("{head}; trace {:?}", o.trace)
    }
}

// --- mismatch construction ----------------------------------------------

/// Observable mismatch between one source and one target path, under
/// undef widening (source undef permits anything).
fn mismatch(store: &mut TermStore, env: &SharedEnv, s: &PathOutcome, t: &PathOutcome) -> TermId {
    let ret = ret_mismatch(store, &s.ret, &t.ret);
    let trace = trace_mismatch(store, &s.trace, &t.trace);
    let globals = globals_mismatch(store, env, s, t);
    let a = store.or(ret, trace);
    store.or(a, globals)
}

fn ret_mismatch(store: &mut TermStore, s: &Option<SVal>, t: &Option<SVal>) -> TermId {
    match (s, t) {
        (None, None) => store.fls(),
        (Some(sv), Some(tv)) => val_mismatch(store, sv, tv),
        _ => store.tru(),
    }
}

/// Strict value refinement (bases and offsets for pointers — stronger
/// than the observation's opaque-pointer abstraction, because returned
/// pointers flow into caller computations).
fn val_mismatch(store: &mut TermStore, s: &SVal, t: &SVal) -> TermId {
    match (s, t) {
        (SVal::Scalar(a), SVal::Scalar(b)) => scal_mismatch(store, a, b),
        (SVal::Ptr(a), SVal::Ptr(b)) => {
            let s_def = store.not(a.u);
            if a.base != b.base {
                return s_def;
            }
            let ne = store.ne(a.off, b.off);
            let bad = store.or(b.u, ne);
            store.and(s_def, bad)
        }
        _ => store.tru(),
    }
}

/// `¬s.u ∧ (t.u ∨ s.v ≠ t.v)` with widths reconciled the way the
/// interpreter compares (sign-extended i64).
fn scal_mismatch(store: &mut TermStore, s: &SymVal, t: &SymVal) -> TermId {
    let (sv, tv) = widen_pair(store, s.v, t.v);
    let ne = store.ne(sv, tv);
    let bad = store.or(t.u, ne);
    let s_def = store.not(s.u);
    store.and(s_def, bad)
}

fn widen_pair(store: &mut TermStore, a: TermId, b: TermId) -> (TermId, TermId) {
    if store.width(a) == store.width(b) {
        (a, b)
    } else {
        let a64 = sext64(store, a);
        let b64 = sext64(store, b);
        (a64, b64)
    }
}

fn sext64(store: &mut TermStore, t: TermId) -> TermId {
    if store.width(t) == 64 {
        t
    } else {
        store.cast(posetrl_ir::inst::CastKind::SExt, 64, t)
    }
}

fn trace_mismatch(
    store: &mut TermStore,
    s: &[super::exec::SymEvent],
    t: &[super::exec::SymEvent],
) -> TermId {
    if s.len() != t.len() {
        return store.tru();
    }
    let mut mm = store.fls();
    for (se, te) in s.iter().zip(t) {
        if se.callee != te.callee || se.args.len() != te.args.len() {
            return store.tru();
        }
        for (sa, ta) in se.args.iter().zip(&te.args) {
            let m = trace_arg_mismatch(store, sa, ta);
            mm = store.or(mm, m);
        }
    }
    mm
}

fn trace_arg_mismatch(store: &mut TermStore, s: &SymArg, t: &SymArg) -> TermId {
    match (s, t) {
        (SymArg::Scalar { fp: sf, val: a }, SymArg::Scalar { fp: tf, val: b }) => {
            if sf != tf {
                // Int vs Float trace variants never compare equal
                return store.not(a.u);
            }
            scal_mismatch(store, a, b)
        }
        // pointers trace opaquely: only the undef-ness is observable
        (SymArg::Ptr { u: su }, SymArg::Ptr { u: tu }) => {
            let s_def = store.not(*su);
            store.and(s_def, *tu)
        }
        (SymArg::Scalar { val: a, .. }, SymArg::Ptr { .. }) => store.not(a.u),
        (SymArg::Ptr { u: su }, SymArg::Scalar { .. }) => store.not(*su),
    }
}

/// Final-mutable-global-state obligation. A side that lacks the global
/// (e.g. the target after a pass deleted it) is held to the *initial*
/// shared cells — sound, though it demotes module-level dead-store
/// deletions to `Inconclusive`.
fn globals_mismatch(
    store: &mut TermStore,
    env: &SharedEnv,
    s: &PathOutcome,
    t: &PathOutcome,
) -> TermId {
    let mut mm = store.fls();
    for name in env.mutable_inits.keys() {
        let init = &env.mutable_inits[name];
        let s_cells = s
            .globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .unwrap_or(init);
        let t_cells = t
            .globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .unwrap_or(init);
        if s_cells.len() != t_cells.len() {
            return store.tru();
        }
        for (a, b) in s_cells.iter().zip(t_cells) {
            let m = scal_mismatch(store, a, b);
            mm = store.or(mm, m);
        }
    }
    mm
}
