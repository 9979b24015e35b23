//! Symbolic executor: SSA → term DAG with path conditions.
//!
//! Executes one function on symbolic inputs, mirroring the reference
//! interpreter instruction by instruction. Every scalar is a
//! [`SymVal`] — a *(value, undef)* pair where `u` is a width-1 term that
//! is true exactly when the interpreter would hold `RtVal::Undef` at
//! this point. Undefined behaviour is not forked into separate trap
//! paths; instead each path accumulates a deferred `ub` condition that
//! is true exactly when the interpreter would trap (division by zero,
//! out-of-bounds access, write-to-const, control/trapping uses of undef,
//! `unreachable`). Exactness matters: the refinement formula uses the
//! source's `ub` *negatively* ("the source is defined here"), so an
//! over- or under-approximation on either side would make proofs
//! unsound. Whenever the executor cannot be exact it refuses with a
//! [`Bail`], which the driver maps to `Inconclusive` — never to a wrong
//! verdict.
//!
//! Loops are handled by bounded unrolling: each path may visit a block
//! at most `max_block_visits` times before the executor bails. Branches
//! on symbolic conditions fork the path (up to `max_paths`); constant
//! conditions — the common case on the concrete-trip-count loops the
//! workload generator emits — follow a single path.

use super::term::{SymOrigin, TermId, TermStore};
use super::ValidateConfig;
use posetrl_ir::inst::{BinOp, CastKind, InstId, IntPred, Op};
use posetrl_ir::interp::{eval_bin, eval_cast_src, RtVal};
use posetrl_ir::module::{BlockId, FuncId, Function, GlobalId, Module};
use posetrl_ir::value::{Const, Value};
use posetrl_ir::Ty;
use std::collections::{BTreeMap, HashMap};

/// Maximum call-inlining depth.
const MAX_CALL_DEPTH: usize = 12;

/// Maximum allocation size (in cells) a *symbolic* index may touch.
const MAX_MEM_CELLS: usize = 96;

/// A scalar as a *(value term, undef condition)* pair.
#[derive(Debug, Clone, Copy)]
pub struct SymVal {
    /// The value when defined (width = the scalar's type width; floats
    /// are carried as their 64 IEEE bits).
    pub v: TermId,
    /// Width-1 term: true ⇔ the interpreter would see `RtVal::Undef`.
    pub u: TermId,
}

/// The base object of a symbolic pointer. `Global` bases are shared
/// slots keyed by name (see [`SharedEnv`]) so both modules of a pair
/// agree on identity; the exotic bases mirror the interpreter's
/// never-allocated sentinels (accessing them traps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Base {
    /// A global, identified by its [`SharedEnv`] slot.
    Global(u32),
    /// A stack allocation; serials count allocas in execution order,
    /// exactly like the interpreter's `next_stack_serial`.
    Stack(u64),
    /// The null sentinel (`Stack(u64::MAX - 2)` in the interpreter).
    Null,
    /// A function address (`Stack(u64::MAX - 1)`).
    FuncAddr,
    /// The opaque pointer an external call returns (`Stack(u64::MAX)`).
    ExternalRet,
}

/// A symbolic fat pointer.
#[derive(Debug, Clone, Copy)]
pub struct SymPtr {
    /// Base object.
    pub base: Base,
    /// Element offset (width-64 term).
    pub off: TermId,
    /// True ⇔ the interpreter would hold `RtVal::Undef` instead.
    pub u: TermId,
}

/// A symbolic runtime value.
#[derive(Debug, Clone, Copy)]
pub enum SVal {
    /// Integer or float scalar.
    Scalar(SymVal),
    /// Pointer.
    Ptr(SymPtr),
}

/// A symbolically traced external-call argument.
#[derive(Debug, Clone)]
pub enum SymArg {
    /// Scalar argument; `fp` records whether it traces as
    /// `TraceArg::Float` (bitwise) or `TraceArg::Int`.
    Scalar {
        /// Float (bitwise-compared) vs integer trace variant.
        fp: bool,
        /// The value/undef pair.
        val: SymVal,
    },
    /// Pointer argument: opaque in the trace, but undef pointers trace
    /// as `TraceArg::Undef`.
    Ptr {
        /// Undef condition of the pointer.
        u: TermId,
    },
}

/// One symbolic external-call event.
#[derive(Debug, Clone)]
pub struct SymEvent {
    /// Callee name.
    pub callee: String,
    /// Arguments in call order.
    pub args: Vec<SymArg>,
}

/// The observable summary of one execution path.
#[derive(Debug, Clone)]
pub struct PathOutcome {
    /// Path condition (conjunction of branch decisions).
    pub cond: TermId,
    /// Deferred-UB condition: true ⇔ the interpreter traps on this path.
    pub ub: TermId,
    /// Return value (`None` for void returns and UB-terminated paths).
    pub ret: Option<SVal>,
    /// Ordered external-call trace.
    pub trace: Vec<SymEvent>,
    /// Final contents of every mutable global, sorted by name.
    pub globals: Vec<(String, Vec<SymVal>)>,
}

/// The executor refused to model something exactly; the driver reports
/// `Inconclusive` with this reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Bail(pub String);

impl Bail {
    fn new(reason: impl Into<String>) -> Bail {
        Bail(reason.into())
    }
}

/// Pre-module state shared by the source and target execution of one
/// function pair: the global name→slot table and the shared symbolic
/// initial contents of every mutable global.
#[derive(Debug, Default)]
pub struct SharedEnv {
    /// Slot → global name.
    pub slot_names: Vec<String>,
    /// Name → slot.
    pub slots: HashMap<String, u32>,
    /// Shared symbolic initial cells per mutable global name.
    pub mutable_inits: BTreeMap<String, Vec<SymVal>>,
}

impl SharedEnv {
    /// Returns (creating if needed) the slot for `name`.
    pub fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slot_names.push(name.to_string());
        self.slots.insert(name.to_string(), s);
        s
    }
}

/// Bit width of a scalar type (floats travel as their 64 bits).
pub fn width_of(ty: Ty) -> u8 {
    match ty {
        Ty::I1 => 1,
        Ty::I8 => 8,
        Ty::I32 => 32,
        _ => 64,
    }
}

/// Interns a float constant as an opaque `fconst` node keyed by bits.
pub fn fconst(store: &mut TermStore, f: f64) -> TermId {
    store.opaque("fconst", f.to_bits(), 64, Vec::new())
}

/// Reads a float constant back out of an `fconst` node.
pub fn as_fconst(store: &TermStore, t: TermId) -> Option<f64> {
    match store.term(t) {
        super::term::Term::Opaque {
            tag: "fconst", aux, ..
        } => Some(f64::from_bits(*aux)),
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct MemObj {
    elem_ty: Ty,
    cells: Vec<SymVal>,
    writable: bool,
}

/// Per-path global state (threaded through calls).
#[derive(Debug, Clone)]
struct GState {
    cond: TermId,
    ub: TermId,
    memory: BTreeMap<Base, MemObj>,
    trace: Vec<SymEvent>,
    next_serial: u64,
}

/// Per-call-frame state.
#[derive(Debug, Clone)]
struct Frame {
    regs: HashMap<InstId, SVal>,
    cur: BlockId,
    prev: Option<BlockId>,
    idx: usize,
    visits: HashMap<BlockId, u32>,
    allocs: Vec<Base>,
}

/// The symbolic executor for one module of a validation pair.
pub struct SymExec<'m, 'e, 'c> {
    module: &'m Module,
    env: &'e SharedEnv,
    cfg: &'c ValidateConfig,
    steps: u64,
    forks: usize,
    junk: HashMap<u8, TermId>,
    global_of_slot: HashMap<u32, GlobalId>,
}

impl<'m, 'e, 'c> SymExec<'m, 'e, 'c> {
    /// Creates an executor for `module` against the shared environment.
    pub fn new(module: &'m Module, env: &'e SharedEnv, cfg: &'c ValidateConfig) -> Self {
        let mut global_of_slot = HashMap::new();
        for gid in module.global_ids() {
            let g = module.global(gid).unwrap();
            if let Some(&slot) = env.slots.get(&g.name) {
                global_of_slot.insert(slot, gid);
            }
        }
        SymExec {
            module,
            env,
            cfg,
            steps: 0,
            forks: 0,
            junk: HashMap::new(),
            global_of_slot,
        }
    }

    /// A shared don't-care symbol of `width` bits (only ever read under
    /// an undef or UB guard, so sharing one per width is sound).
    fn junk(&mut self, store: &mut TermStore, width: u8) -> TermId {
        if let Some(&t) = self.junk.get(&width) {
            return t;
        }
        let t = store.sym(width, SymOrigin::Havoc);
        self.junk.insert(width, t);
        t
    }

    fn undef_scalar(&mut self, store: &mut TermStore, width: u8) -> SymVal {
        let v = self.junk(store, width);
        let u = store.tru();
        SymVal { v, u }
    }

    /// Builds the initial memory image: immutable globals concretely from
    /// their initializers, mutable globals from the shared symbolic cells.
    fn initial_memory(&mut self, store: &mut TermStore) -> Result<BTreeMap<Base, MemObj>, Bail> {
        let mut memory = BTreeMap::new();
        for gid in self.module.global_ids() {
            let g = self.module.global(gid).unwrap();
            if g.ty == Ty::Ptr {
                return Err(Bail::new("pointer-typed global cells are not modeled"));
            }
            let slot = *self
                .env
                .slots
                .get(&g.name)
                .ok_or_else(|| Bail::new("global missing from shared environment"))?;
            let cells = if g.mutable {
                self.env
                    .mutable_inits
                    .get(&g.name)
                    .ok_or_else(|| Bail::new("mutable global missing shared initial state"))?
                    .clone()
            } else {
                let mut cells = Vec::with_capacity(g.count as usize);
                for i in 0..g.count as usize {
                    let sv = match g.init.get(i) {
                        Some(c) => self.const_cell(store, *c, g.ty)?,
                        None => self.zero_cell(store, g.ty),
                    };
                    cells.push(sv);
                }
                cells
            };
            if cells.len() != g.count as usize {
                return Err(Bail::new("global cell count diverges between modules"));
            }
            memory.insert(
                Base::Global(slot),
                MemObj {
                    elem_ty: g.ty,
                    cells,
                    writable: g.mutable,
                },
            );
        }
        Ok(memory)
    }

    fn const_cell(&mut self, store: &mut TermStore, c: Const, ty: Ty) -> Result<SymVal, Bail> {
        Ok(match c {
            Const::Int { val, .. } => SymVal {
                v: store.constant(width_of(ty), val),
                u: store.fls(),
            },
            Const::Float(f) => SymVal {
                v: fconst(store, f),
                u: store.fls(),
            },
            Const::Undef(_) => self.undef_scalar(store, width_of(ty)),
            Const::Null => return Err(Bail::new("pointer constant in scalar global")),
        })
    }

    fn zero_cell(&mut self, store: &mut TermStore, ty: Ty) -> SymVal {
        let v = if ty == Ty::F64 {
            fconst(store, 0.0)
        } else {
            store.constant(width_of(ty), 0)
        };
        SymVal { v, u: store.fls() }
    }

    /// Runs `fid` on `args` and returns the enumerated path outcomes.
    pub fn exec_function(
        &mut self,
        store: &mut TermStore,
        fid: FuncId,
        args: &[SVal],
    ) -> Result<Vec<PathOutcome>, Bail> {
        let memory = self.initial_memory(store)?;
        let g = GState {
            cond: store.tru(),
            ub: store.fls(),
            memory,
            trace: Vec::new(),
            next_serial: 0,
        };
        let finished = self.run(store, fid, args.to_vec(), g, 0)?;
        let mut outcomes = Vec::with_capacity(finished.len());
        for (g, ret) in finished {
            let mut globals = Vec::new();
            for (base, obj) in &g.memory {
                if let Base::Global(slot) = base {
                    if obj.writable {
                        globals.push((
                            self.env.slot_names[*slot as usize].clone(),
                            obj.cells.clone(),
                        ));
                    }
                }
            }
            globals.sort_by(|a, b| a.0.cmp(&b.0));
            outcomes.push(PathOutcome {
                cond: g.cond,
                ub: g.ub,
                ret,
                trace: g.trace,
                globals,
            });
        }
        Ok(outcomes)
    }

    /// Executes one call frame; returns (state, return value) per path.
    #[allow(clippy::type_complexity)]
    fn run(
        &mut self,
        store: &mut TermStore,
        fid: FuncId,
        args: Vec<SVal>,
        g: GState,
        depth: usize,
    ) -> Result<Vec<(GState, Option<SVal>)>, Bail> {
        if depth > MAX_CALL_DEPTH {
            return Err(Bail::new("call depth exceeds the inlining bound"));
        }
        let f = self.module.func(fid).expect("call target exists");
        if f.is_decl {
            let mut g = g;
            let ret = self.external_call(store, &mut g, f, &args);
            return Ok(vec![(g, ret)]);
        }

        let mut worklist: Vec<(GState, Frame)> = vec![(
            g,
            Frame {
                regs: HashMap::new(),
                cur: f.entry,
                prev: None,
                idx: 0,
                visits: HashMap::new(),
                allocs: Vec::new(),
            },
        )];
        let mut finished: Vec<(GState, Option<SVal>)> = Vec::new();

        'paths: while let Some((mut g, mut fr)) = worklist.pop() {
            loop {
                // deferred-UB fast exit: the path certainly traps
                if store.as_const(g.ub) == Some(1) {
                    self.finish_frame(&mut g, &fr);
                    finished.push((g, None));
                    continue 'paths;
                }
                if fr.idx == 0 {
                    // block entry: unroll bound + simultaneous phi update
                    let visits = fr.visits.entry(fr.cur).or_insert(0);
                    *visits += 1;
                    if *visits > self.cfg.max_block_visits {
                        return Err(Bail::new("loop exceeds the unrolling bound"));
                    }
                    let Some(block) = f.block(fr.cur) else {
                        // missing block: the interpreter traps Unreachable
                        g.ub = store.tru();
                        continue;
                    };
                    if let Some(p) = fr.prev {
                        let mut updates: Vec<(InstId, SVal)> = Vec::new();
                        let mut missing_incoming = false;
                        for &id in &block.insts {
                            let Op::Phi { incomings, .. } = f.op(id) else {
                                break;
                            };
                            match incomings.iter().find(|(b, _)| *b == p) {
                                Some((_, v)) => {
                                    let sv = self.value(store, f, &fr, &args, *v);
                                    updates.push((id, sv));
                                }
                                None => {
                                    // the interpreter's "phi missing incoming"
                                    missing_incoming = true;
                                    break;
                                }
                            }
                        }
                        if missing_incoming {
                            g.ub = store.tru();
                            continue;
                        }
                        for (id, sv) in updates {
                            fr.regs.insert(id, sv);
                        }
                        // skip the leading phis
                        while fr.idx < block.insts.len()
                            && matches!(f.op(block.insts[fr.idx]), Op::Phi { .. })
                        {
                            fr.idx += 1;
                        }
                    }
                }
                let block = match f.block(fr.cur) {
                    Some(b) => b,
                    None => {
                        g.ub = store.tru();
                        continue;
                    }
                };
                if fr.idx >= block.insts.len() {
                    // fell off the end: interpreter traps Unreachable
                    g.ub = store.tru();
                    continue;
                }
                let id = block.insts[fr.idx];
                fr.idx += 1;
                self.steps += 1;
                if self.steps > self.cfg.max_steps {
                    return Err(Bail::new("step budget exhausted"));
                }

                match f.op(id).clone() {
                    Op::Phi { incomings, .. } => {
                        // entry-block phi (prev == None): first incoming
                        let sv = match incomings.first() {
                            Some((_, v)) => self.value(store, f, &fr, &args, *v),
                            None => SVal::Scalar(self.undef_scalar(store, 64)),
                        };
                        fr.regs.insert(id, sv);
                    }
                    Op::Bin { op, ty, lhs, rhs } => {
                        let a = self.value(store, f, &fr, &args, lhs);
                        let b = self.value(store, f, &fr, &args, rhs);
                        let r = self.eval_bin_sym(store, &mut g, op, ty, a, b);
                        fr.regs.insert(id, SVal::Scalar(r));
                    }
                    Op::Icmp { pred, lhs, rhs, .. } => {
                        let a = self.value(store, f, &fr, &args, lhs);
                        let b = self.value(store, f, &fr, &args, rhs);
                        let r = self.eval_icmp_sym(store, &mut g, pred, a, b);
                        fr.regs.insert(id, SVal::Scalar(r));
                    }
                    Op::Fcmp { pred, lhs, rhs } => {
                        let a = self.value(store, f, &fr, &args, lhs);
                        let b = self.value(store, f, &fr, &args, rhs);
                        let (av, au) = self.as_float(store, &mut g, a);
                        let (bv, bu) = self.as_float(store, &mut g, b);
                        g.add_ub(store, au);
                        g.add_ub(store, bu);
                        let v = match (as_fconst(store, av), as_fconst(store, bv)) {
                            (Some(x), Some(y)) => store.constant(1, pred.eval(x, y) as i64),
                            _ => store.opaque(fcmp_tag(pred), 0, 1, vec![av, bv]),
                        };
                        fr.regs
                            .insert(id, SVal::Scalar(SymVal { v, u: store.fls() }));
                    }
                    Op::Select {
                        cond, tval, fval, ..
                    } => {
                        let c = self.value(store, f, &fr, &args, cond);
                        let (cv, cu) = self.as_int(store, &mut g, c);
                        g.add_ub(store, cu); // select cond: as_int traps on undef
                        let cb = {
                            let w = store.width(cv);
                            let z = store.constant(w, 0);
                            store.ne(cv, z)
                        };
                        let t = self.value(store, f, &fr, &args, tval);
                        let e = self.value(store, f, &fr, &args, fval);
                        let merged = self.merge_vals(store, cb, t, e)?;
                        fr.regs.insert(id, merged);
                    }
                    Op::Cast { kind, to, val } => {
                        let src_ty = value_ty(f, val);
                        let sv = self.value(store, f, &fr, &args, val);
                        let r = self.eval_cast_sym(store, &mut g, kind, to, src_ty, sv);
                        fr.regs.insert(id, SVal::Scalar(r));
                    }
                    Op::Alloca { ty, count } => {
                        if ty == Ty::Ptr {
                            return Err(Bail::new("pointer-typed alloca cells are not modeled"));
                        }
                        let base = Base::Stack(g.next_serial);
                        g.next_serial += 1;
                        let cell = self.undef_scalar(store, width_of(ty));
                        g.memory.insert(
                            base,
                            MemObj {
                                elem_ty: ty,
                                cells: vec![cell; count as usize],
                                writable: true,
                            },
                        );
                        fr.allocs.push(base);
                        let off = store.constant(64, 0);
                        let u = store.fls();
                        fr.regs.insert(id, SVal::Ptr(SymPtr { base, off, u }));
                    }
                    Op::Load { ty, ptr } => {
                        let p = self.value(store, f, &fr, &args, ptr);
                        let r = self.mem_load(store, &mut g, p, ty)?;
                        fr.regs.insert(id, SVal::Scalar(r));
                    }
                    Op::Store { ty, val, ptr } => {
                        let v = self.value(store, f, &fr, &args, val);
                        let p = self.value(store, f, &fr, &args, ptr);
                        self.mem_store(store, &mut g, p, ty, v)?;
                    }
                    Op::Gep { ptr, index, .. } => {
                        let p = self.value(store, f, &fr, &args, ptr);
                        let i = self.value(store, f, &fr, &args, index);
                        let (iv, iu) = self.as_int(store, &mut g, i);
                        g.add_ub(store, iu); // gep index: as_int traps on undef
                        let iv64 = self.widen_i64(store, iv);
                        match p {
                            SVal::Ptr(sp) => {
                                g.add_ub(store, sp.u);
                                let off = store.bin(BinOp::Add, 64, sp.off, iv64);
                                fr.regs.insert(
                                    id,
                                    SVal::Ptr(SymPtr {
                                        base: sp.base,
                                        off,
                                        u: store.fls(),
                                    }),
                                );
                            }
                            SVal::Scalar(sv) => {
                                // as_ptr: undef traps, non-ptr is a type error
                                g.add_ub(store, sv.u);
                                let t = store.tru();
                                g.add_ub(store, t);
                                let off = store.constant(64, 0);
                                let u = store.fls();
                                fr.regs.insert(
                                    id,
                                    SVal::Ptr(SymPtr {
                                        base: Base::Null,
                                        off,
                                        u,
                                    }),
                                );
                            }
                        }
                    }
                    Op::Call {
                        callee,
                        args: call_args,
                        ret_ty,
                    } => {
                        let mut vals = Vec::with_capacity(call_args.len());
                        for a in &call_args {
                            vals.push(self.value(store, f, &fr, &args, *a));
                        }
                        let conts = self.run(store, callee, vals, g, depth + 1)?;
                        self.forks += conts.len().saturating_sub(1);
                        if self.forks >= self.cfg.max_paths {
                            return Err(Bail::new("path budget exhausted"));
                        }
                        for (g2, rv) in conts {
                            let mut fr2 = fr.clone();
                            if ret_ty != Ty::Void {
                                let sv = match rv {
                                    Some(v) => v,
                                    None => SVal::Scalar(SymVal {
                                        v: self.junk(store, width_of(ret_ty)),
                                        u: store.tru(),
                                    }),
                                };
                                fr2.regs.insert(id, sv);
                            }
                            worklist.push((g2, fr2));
                        }
                        continue 'paths;
                    }
                    Op::MemCpy { dst, src, len, .. } => {
                        let d = self.value(store, f, &fr, &args, dst);
                        let s = self.value(store, f, &fr, &args, src);
                        let n = self.value(store, f, &fr, &args, len);
                        self.mem_copy(store, &mut g, d, s, n)?;
                    }
                    Op::MemSet { dst, val, len, .. } => {
                        let d = self.value(store, f, &fr, &args, dst);
                        let v = self.value(store, f, &fr, &args, val);
                        let n = self.value(store, f, &fr, &args, len);
                        self.mem_set(store, &mut g, d, v, n)?;
                    }
                    Op::Br { target } => {
                        fr.prev = Some(fr.cur);
                        fr.cur = target;
                        fr.idx = 0;
                        continue;
                    }
                    Op::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let c = self.value(store, f, &fr, &args, cond);
                        let (cv, cu) = self.as_int(store, &mut g, c);
                        g.add_ub(store, cu); // condbr on undef traps
                        let w = store.width(cv);
                        let z = store.constant(w, 0);
                        let b = store.ne(cv, z);
                        fr.prev = Some(fr.cur);
                        fr.idx = 0;
                        match store.as_const(b) {
                            Some(1) => {
                                fr.cur = then_bb;
                                continue;
                            }
                            Some(_) => {
                                fr.cur = else_bb;
                                continue;
                            }
                            None => {
                                self.forks += 1;
                                if self.forks >= self.cfg.max_paths {
                                    return Err(Bail::new("path budget exhausted"));
                                }
                                let mut g_else = g.clone();
                                let mut fr_else = fr.clone();
                                let nb = store.not(b);
                                g_else.cond = store.and(g_else.cond, nb);
                                fr_else.cur = else_bb;
                                worklist.push((g_else, fr_else));
                                g.cond = store.and(g.cond, b);
                                fr.cur = then_bb;
                                continue;
                            }
                        }
                    }
                    Op::Ret { val } => {
                        let r = val.map(|v| self.value(store, f, &fr, &args, v));
                        self.finish_frame(&mut g, &fr);
                        finished.push((g, r));
                        continue 'paths;
                    }
                    Op::Unreachable => {
                        g.ub = store.tru();
                        continue;
                    }
                }
            }
        }
        Ok(finished)
    }

    fn finish_frame(&mut self, g: &mut GState, fr: &Frame) {
        for base in &fr.allocs {
            g.memory.remove(base);
        }
    }

    fn external_call(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        f: &Function,
        args: &[SVal],
    ) -> Option<SVal> {
        let sym_args = args
            .iter()
            .enumerate()
            .map(|(i, a)| match a {
                SVal::Scalar(sv) => SymArg::Scalar {
                    // the declared param type decides Int vs Float tracing;
                    // fall back to the term's own shape for extra args
                    fp: match f.params.get(i) {
                        Some(ty) => *ty == Ty::F64,
                        None => is_float_term(store, sv.v),
                    },
                    val: *sv,
                },
                SVal::Ptr(p) => SymArg::Ptr { u: p.u },
            })
            .collect();
        g.trace.push(SymEvent {
            callee: f.name.clone(),
            args: sym_args,
        });
        match f.ret {
            Ty::Void => None,
            Ty::F64 => Some(SVal::Scalar(SymVal {
                v: fconst(store, 0.0),
                u: store.fls(),
            })),
            Ty::Ptr => Some(SVal::Ptr(SymPtr {
                base: Base::ExternalRet,
                off: store.constant(64, 0),
                u: store.fls(),
            })),
            ty => Some(SVal::Scalar(SymVal {
                v: store.constant(width_of(ty), 0),
                u: store.fls(),
            })),
        }
    }

    fn value(
        &mut self,
        store: &mut TermStore,
        f: &Function,
        fr: &Frame,
        args: &[SVal],
        v: Value,
    ) -> SVal {
        match v {
            Value::Inst(id) => match fr.regs.get(&id) {
                Some(sv) => *sv,
                None => self.undef_of_ty(store, f.op(id).result_ty()),
            },
            Value::Arg(i) => match args.get(i as usize) {
                Some(sv) => *sv,
                None => self.undef_of_ty(store, Ty::I64),
            },
            Value::Const(c) => match c {
                Const::Int { ty, val } => SVal::Scalar(SymVal {
                    v: store.constant(width_of(ty), val),
                    u: store.fls(),
                }),
                Const::Float(fl) => SVal::Scalar(SymVal {
                    v: fconst(store, fl),
                    u: store.fls(),
                }),
                Const::Null => SVal::Ptr(SymPtr {
                    base: Base::Null,
                    off: store.constant(64, 0),
                    u: store.fls(),
                }),
                Const::Undef(ty) => self.undef_of_ty(store, ty),
            },
            Value::Global(gid) => {
                let name = &self.module.global(gid).unwrap().name;
                let slot = *self.env.slots.get(name).expect("global has a slot");
                SVal::Ptr(SymPtr {
                    base: Base::Global(slot),
                    off: store.constant(64, 0),
                    u: store.fls(),
                })
            }
            Value::Func(_) => SVal::Ptr(SymPtr {
                base: Base::FuncAddr,
                off: store.constant(64, 0),
                u: store.fls(),
            }),
        }
    }

    fn undef_of_ty(&mut self, store: &mut TermStore, ty: Ty) -> SVal {
        if ty == Ty::Ptr {
            let off = store.constant(64, 0);
            let u = store.tru();
            SVal::Ptr(SymPtr {
                base: Base::Null,
                off,
                u,
            })
        } else {
            SVal::Scalar(self.undef_scalar(store, width_of(ty)))
        }
    }

    /// `as_int` of the interpreter: scalar value + the condition under
    /// which the access *traps* (undef use or type error).
    fn as_int(&mut self, store: &mut TermStore, _g: &mut GState, v: SVal) -> (TermId, TermId) {
        match v {
            SVal::Scalar(sv) => (sv.v, sv.u),
            SVal::Ptr(_) => {
                let t = store.tru();
                (self.junk(store, 64), t)
            }
        }
    }

    /// `as_float`: value bits + trap condition.
    fn as_float(&mut self, store: &mut TermStore, _g: &mut GState, v: SVal) -> (TermId, TermId) {
        match v {
            SVal::Scalar(sv) => (sv.v, sv.u),
            SVal::Ptr(_) => {
                let t = store.tru();
                (self.junk(store, 64), t)
            }
        }
    }

    fn widen_i64(&mut self, store: &mut TermStore, t: TermId) -> TermId {
        if store.width(t) == 64 {
            t
        } else {
            store.cast(CastKind::SExt, 64, t)
        }
    }

    fn eval_bin_sym(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        op: BinOp,
        ty: Ty,
        a: SVal,
        b: SVal,
    ) -> SymVal {
        if op.is_float() {
            let (av, au) = self.as_float(store, g, a);
            let (bv, bu) = self.as_float(store, g, b);
            g.add_ub(store, au);
            g.add_ub(store, bu);
            let v = match (as_fconst(store, av), as_fconst(store, bv)) {
                (Some(x), Some(y)) => {
                    match eval_bin(op, Ty::F64, RtVal::Float(x), RtVal::Float(y)) {
                        Ok(RtVal::Float(r)) => fconst(store, r),
                        _ => store.opaque(fbin_tag(op), 0, 64, vec![av, bv]),
                    }
                }
                _ => store.opaque(fbin_tag(op), 0, 64, vec![av, bv]),
            };
            return SymVal { v, u: store.fls() };
        }
        let (av, au) = self.as_int(store, g, a);
        let (bv, bu) = self.as_int(store, g, b);
        let undef = store.or(au, bu);
        let w = width_of(ty);
        if op.can_trap() {
            // sdiv/srem: undef operands trap, and so does a zero divisor
            g.add_ub(store, undef);
            let zero = store.constant(store.width(bv), 0);
            let div0 = store.eq(bv, zero);
            g.add_ub(store, div0);
            let v = store.bin(op, w, av, bv);
            SymVal { v, u: store.fls() }
        } else {
            let v = store.bin(op, w, av, bv);
            SymVal { v, u: undef }
        }
    }

    fn eval_icmp_sym(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        pred: IntPred,
        a: SVal,
        b: SVal,
    ) -> SymVal {
        match (a, b) {
            (SVal::Scalar(x), SVal::Scalar(y)) => {
                // the interpreter compares raw (sign-extended) i64s
                let (xv, yv) = if store.width(x.v) != store.width(y.v) {
                    (self.widen_i64(store, x.v), self.widen_i64(store, y.v))
                } else {
                    (x.v, y.v)
                };
                let v = store.icmp(pred, xv, yv);
                let u = store.or(x.u, y.u); // undef operand ⇒ undef result
                SymVal { v, u }
            }
            (SVal::Ptr(x), SVal::Ptr(y)) => {
                let ox = self.ptr_ordinal(store, x);
                let oy = self.ptr_ordinal(store, y);
                let v = store.icmp(pred, ox, oy);
                let u = store.or(x.u, y.u);
                SymVal { v, u }
            }
            // mixed ptr/int: the interpreter's type error — but only when
            // neither side is undef (undef wins first in the match)
            (SVal::Scalar(x), SVal::Ptr(y)) | (SVal::Ptr(y), SVal::Scalar(x)) => {
                let undef = store.or(x.u, y.u);
                let trap = store.not(undef);
                g.add_ub(store, trap);
                SymVal {
                    v: self.junk(store, 1),
                    u: undef,
                }
            }
        }
    }

    /// The interpreter's deterministic pointer ordinal as a term.
    fn ptr_ordinal(&mut self, store: &mut TermStore, p: SymPtr) -> TermId {
        let base_val: i64 = match p.base {
            Base::Global(slot) => match self.global_of_slot.get(&slot) {
                Some(gid) => gid.0 as i64,
                None => (1i64 << 40) + (u64::MAX - 3) as i64, // unmapped: distinct sentinel
            },
            Base::Stack(s) => (1i64 << 40) + s as i64,
            Base::Null => (1i64 << 40) + (u64::MAX - 2) as i64,
            Base::FuncAddr => (1i64 << 40) + (u64::MAX - 1) as i64,
            Base::ExternalRet => (1i64 << 40) + u64::MAX as i64,
        };
        let base_term = store.constant(64, base_val.wrapping_mul(1 << 20));
        store.bin(BinOp::Add, 64, base_term, p.off)
    }

    fn eval_cast_sym(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        kind: CastKind,
        to: Ty,
        src_ty: Ty,
        v: SVal,
    ) -> SymVal {
        // eval_cast_src returns Undef *before* any as_int/as_float trap,
        // so undef flows through every cast kind without trapping
        let sv = match v {
            SVal::Scalar(sv) => sv,
            SVal::Ptr(p) => {
                // non-undef pointer into an int/float cast: type error
                let trap = store.not(p.u);
                g.add_ub(store, trap);
                return SymVal {
                    v: self.junk(store, width_of(to)),
                    u: p.u,
                };
            }
        };
        let wt = width_of(to);
        let v_out = match kind {
            CastKind::Trunc | CastKind::SExt => store.cast(kind, wt, sv.v),
            CastKind::ZExt => {
                // zext semantics depend on the *static* source width; the
                // term width is that width by construction, but double-
                // check against the declared type for safety
                let term_w = store.width(sv.v);
                let src_w = width_of(src_ty);
                let val = if term_w != src_w {
                    store.cast(CastKind::SExt, src_w.max(term_w).max(1), sv.v)
                } else {
                    sv.v
                };
                store.cast(CastKind::ZExt, wt, val)
            }
            CastKind::SiToFp => match store.as_const(sv.v) {
                Some(x) => fconst(store, x as f64),
                None => store.opaque("sitofp", 0, 64, vec![sv.v]),
            },
            CastKind::FpToSi => match as_fconst(store, sv.v) {
                Some(fl) => match eval_cast_src(kind, to, Ty::F64, RtVal::Float(fl)) {
                    Ok(RtVal::Int(r)) => store.constant(wt, r),
                    _ => store.opaque("fptosi", 0, wt, vec![sv.v]),
                },
                None => store.opaque("fptosi", 0, wt, vec![sv.v]),
            },
        };
        SymVal { v: v_out, u: sv.u }
    }

    fn merge_vals(
        &mut self,
        store: &mut TermStore,
        c: TermId,
        t: SVal,
        e: SVal,
    ) -> Result<SVal, Bail> {
        match (t, e) {
            (SVal::Scalar(a), SVal::Scalar(b)) => {
                let v = store.ite(c, a.v, b.v);
                let u = store.ite(c, a.u, b.u);
                Ok(SVal::Scalar(SymVal { v, u }))
            }
            (SVal::Ptr(a), SVal::Ptr(b)) if a.base == b.base => {
                let off = store.ite(c, a.off, b.off);
                let u = store.ite(c, a.u, b.u);
                Ok(SVal::Ptr(SymPtr {
                    base: a.base,
                    off,
                    u,
                }))
            }
            _ => Err(Bail::new("select merges pointers with distinct bases")),
        }
    }

    // -- memory ----------------------------------------------------------

    /// Resolves an SVal to a pointer, returning `None` when the access
    /// certainly traps (undef/type error recorded in `g.ub`).
    fn resolve_ptr(&mut self, store: &mut TermStore, g: &mut GState, p: SVal) -> Option<SymPtr> {
        match p {
            SVal::Ptr(sp) => {
                g.add_ub(store, sp.u);
                Some(sp)
            }
            SVal::Scalar(sv) => {
                // as_ptr: undef traps, non-ptr scalar is a type error
                g.add_ub(store, sv.u);
                let trap = store.not(sv.u);
                g.add_ub(store, trap);
                None
            }
        }
    }

    fn bounds_check(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        off: TermId,
        len: usize,
    ) -> TermId {
        // in-bounds ⇔ 0 <= off < len (the interpreter's usize conversion
        // plus Vec indexing)
        let zero = store.constant(64, 0);
        let len_t = store.constant(64, len as i64);
        let ge = store.icmp(IntPred::Sge, off, zero);
        let lt = store.icmp(IntPred::Slt, off, len_t);
        let inb = store.and(ge, lt);
        let oob = store.not(inb);
        g.add_ub(store, oob);
        inb
    }

    fn mem_load(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        p: SVal,
        ty: Ty,
    ) -> Result<SymVal, Bail> {
        let Some(sp) = self.resolve_ptr(store, g, p) else {
            return Ok(self.undef_scalar(store, width_of(ty)));
        };
        let Some(obj) = g.memory.get(&sp.base).cloned() else {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(self.undef_scalar(store, width_of(ty)));
        };
        if obj.elem_ty != ty {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(self.undef_scalar(store, width_of(ty)));
        }
        self.bounds_check(store, g, sp.off, obj.cells.len());
        if let Some(i) = store.as_const(sp.off) {
            if i >= 0 && (i as usize) < obj.cells.len() {
                return Ok(obj.cells[i as usize]);
            }
            return Ok(self.undef_scalar(store, width_of(ty)));
        }
        if obj.cells.len() > MAX_MEM_CELLS {
            return Err(Bail::new("symbolic index into a large allocation"));
        }
        // ite chain over every cell
        let mut acc = self.undef_scalar(store, width_of(ty));
        for (i, cell) in obj.cells.iter().enumerate() {
            let idx = store.constant(64, i as i64);
            let hit = store.eq(sp.off, idx);
            let v = store.ite(hit, cell.v, acc.v);
            let u = store.ite(hit, cell.u, acc.u);
            acc = SymVal { v, u };
        }
        Ok(acc)
    }

    fn mem_store(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        p: SVal,
        ty: Ty,
        v: SVal,
    ) -> Result<(), Bail> {
        let val = match v {
            SVal::Scalar(sv) => sv,
            SVal::Ptr(_) => return Err(Bail::new("storing a pointer into memory is not modeled")),
        };
        let Some(sp) = self.resolve_ptr(store, g, p) else {
            return Ok(());
        };
        let Some(obj) = g.memory.get(&sp.base) else {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        };
        if !obj.writable || obj.elem_ty != ty {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        }
        let len = obj.cells.len();
        self.bounds_check(store, g, sp.off, len);
        if let Some(i) = store.as_const(sp.off) {
            if i >= 0 && (i as usize) < len {
                g.memory.get_mut(&sp.base).unwrap().cells[i as usize] = val;
            }
            return Ok(());
        }
        if len > MAX_MEM_CELLS {
            return Err(Bail::new("symbolic index into a large allocation"));
        }
        let cells = g.memory.get(&sp.base).unwrap().cells.clone();
        let mut new_cells = Vec::with_capacity(len);
        for (i, cell) in cells.iter().enumerate() {
            let idx = store.constant(64, i as i64);
            let hit = store.eq(sp.off, idx);
            let nv = store.ite(hit, val.v, cell.v);
            let nu = store.ite(hit, val.u, cell.u);
            new_cells.push(SymVal { v: nv, u: nu });
        }
        g.memory.get_mut(&sp.base).unwrap().cells = new_cells;
        Ok(())
    }

    fn mem_copy(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        d: SVal,
        s: SVal,
        n: SVal,
    ) -> Result<(), Bail> {
        let (nv, nu) = self.as_int(store, g, n);
        g.add_ub(store, nu);
        let Some(n) = store.as_const(nv) else {
            return Err(Bail::new("memcpy with a symbolic length"));
        };
        let Some(dp) = self.resolve_ptr(store, g, d) else {
            return Ok(());
        };
        let Some(sp) = self.resolve_ptr(store, g, s) else {
            return Ok(());
        };
        if n < 0 {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        }
        let (Some(doff), Some(soff)) = (store.as_const(dp.off), store.as_const(sp.off)) else {
            return Err(Bail::new("memcpy with a symbolic offset"));
        };
        if n > 0 && !self.writable(g, dp.base) {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        }
        // read phase (the interpreter snapshots the source range first)
        let Some(src_obj) = g.memory.get(&sp.base) else {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        };
        let mut tmp = Vec::with_capacity(n as usize);
        for i in 0..n {
            let idx = soff + i;
            if idx < 0 || idx as usize >= src_obj.cells.len() {
                let t = store.tru();
                g.add_ub(store, t);
                return Ok(());
            }
            tmp.push(src_obj.cells[idx as usize]);
        }
        let Some(dst_obj) = g.memory.get_mut(&dp.base) else {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        };
        for (i, v) in tmp.into_iter().enumerate() {
            let idx = doff + i as i64;
            if idx < 0 || idx as usize >= dst_obj.cells.len() {
                let t = store.tru();
                g.add_ub(store, t);
                return Ok(());
            }
            dst_obj.cells[idx as usize] = v;
        }
        Ok(())
    }

    fn mem_set(
        &mut self,
        store: &mut TermStore,
        g: &mut GState,
        d: SVal,
        v: SVal,
        n: SVal,
    ) -> Result<(), Bail> {
        let val = match v {
            SVal::Scalar(sv) => sv,
            SVal::Ptr(_) => return Err(Bail::new("memset of a pointer value is not modeled")),
        };
        let (nv, nu) = self.as_int(store, g, n);
        g.add_ub(store, nu);
        let Some(n) = store.as_const(nv) else {
            return Err(Bail::new("memset with a symbolic length"));
        };
        let Some(dp) = self.resolve_ptr(store, g, d) else {
            return Ok(());
        };
        if n < 0 {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        }
        let Some(doff) = store.as_const(dp.off) else {
            return Err(Bail::new("memset with a symbolic offset"));
        };
        if n > 0 && !self.writable(g, dp.base) {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        }
        let Some(obj) = g.memory.get_mut(&dp.base) else {
            let t = store.tru();
            g.add_ub(store, t);
            return Ok(());
        };
        for i in 0..n {
            let idx = doff + i;
            if idx < 0 || idx as usize >= obj.cells.len() {
                let t = store.tru();
                g.add_ub(store, t);
                return Ok(());
            }
            obj.cells[idx as usize] = val;
        }
        Ok(())
    }

    fn writable(&self, g: &GState, base: Base) -> bool {
        g.memory.get(&base).map(|o| o.writable).unwrap_or(true)
    }
}

impl GState {
    /// Accumulates a trap condition into the path's deferred UB.
    fn add_ub(&mut self, store: &mut TermStore, cond: TermId) {
        self.ub = store.or(self.ub, cond);
    }
}

/// Static type of a value in the context of `f` (mirror of the
/// interpreter's `value_type_in`).
pub fn value_ty(f: &Function, v: Value) -> Ty {
    match v {
        Value::Inst(id) => f.op(id).result_ty(),
        Value::Arg(i) => f.params.get(i as usize).copied().unwrap_or(Ty::I64),
        Value::Const(c) => c.ty(),
        Value::Global(_) | Value::Func(_) => Ty::Ptr,
    }
}

/// `true` when the term denotes a float (fconst or a float-valued
/// uninterpreted application).
fn is_float_term(store: &TermStore, t: TermId) -> bool {
    matches!(
        store.term(t),
        super::term::Term::Opaque {
            tag: "fconst" | "fadd" | "fsub" | "fmul" | "fdiv" | "sitofp",
            ..
        }
    )
}

fn fbin_tag(op: BinOp) -> &'static str {
    match op {
        BinOp::FAdd => "fadd",
        BinOp::FSub => "fsub",
        BinOp::FMul => "fmul",
        BinOp::FDiv => "fdiv",
        _ => "fbin",
    }
}

fn fcmp_tag(pred: posetrl_ir::inst::FloatPred) -> &'static str {
    use posetrl_ir::inst::FloatPred::*;
    match pred {
        Oeq => "fcmp.oeq",
        One => "fcmp.one",
        Olt => "fcmp.olt",
        Ole => "fcmp.ole",
        Ogt => "fcmp.ogt",
        Oge => "fcmp.oge",
    }
}
