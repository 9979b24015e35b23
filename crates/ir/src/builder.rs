//! Ergonomic construction of modules and functions.

use crate::inst::{BinOp, CastKind, FloatPred, InstId, IntPred, Op};
use crate::module::{BlockId, FuncId, Function, Global, GlobalId, Linkage, Module};
use crate::types::Ty;
use crate::value::{Const, Value};

/// Builds a [`Module`] incrementally.
///
/// # Example
///
/// ```
/// use posetrl_ir::builder::ModuleBuilder;
/// use posetrl_ir::{Ty, Value};
///
/// let mut mb = ModuleBuilder::new("m");
/// let f = mb.begin_function("double", vec![Ty::I64], Ty::I64);
/// {
///     let mut fb = mb.func_builder(f);
///     let two = Value::i64(2);
///     let r = fb.mul(Ty::I64, Value::Arg(0), two);
///     fb.ret(Some(r));
/// }
/// let m = mb.finish();
/// assert_eq!(m.num_insts(), 2);
/// ```
#[derive(Debug)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Starts a new module.
    pub fn new(name: impl Into<String>) -> ModuleBuilder {
        ModuleBuilder {
            module: Module::new(name),
        }
    }

    /// Adds a function with a body and returns its id. Use
    /// [`ModuleBuilder::func_builder`] to populate it.
    pub fn begin_function(&mut self, name: impl Into<String>, params: Vec<Ty>, ret: Ty) -> FuncId {
        self.module.add_function(Function::new(name, params, ret))
    }

    /// Adds an external declaration.
    pub fn declare_function(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Ty,
    ) -> FuncId {
        self.module
            .add_function(Function::new_decl(name, params, ret))
    }

    /// Adds a global variable.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        ty: Ty,
        count: u32,
        init: Vec<Const>,
        mutable: bool,
    ) -> GlobalId {
        self.module.add_global(Global {
            name: name.into(),
            ty,
            count,
            init,
            mutable,
            linkage: Linkage::Internal,
        })
    }

    /// Returns a cursor positioned at the entry block of `func`.
    pub fn func_builder(&mut self, func: FuncId) -> FunctionBuilder<'_> {
        let f = self
            .module
            .func_mut(func)
            .expect("building a removed function");
        let entry = f.entry;
        FunctionBuilder {
            func: f,
            cur: entry,
        }
    }

    /// Finishes construction and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// A cursor that appends instructions to the current block of a function.
#[derive(Debug)]
pub struct FunctionBuilder<'a> {
    func: &'a mut Function,
    cur: BlockId,
}

impl<'a> FunctionBuilder<'a> {
    /// Wraps an existing function, positioned at its entry block.
    pub fn on(func: &'a mut Function) -> FunctionBuilder<'a> {
        let entry = func.entry;
        FunctionBuilder { func, cur: entry }
    }

    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Creates a new block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Switches the append cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = block;
    }

    /// Underlying function.
    pub fn func(&mut self) -> &mut Function {
        self.func
    }

    fn push(&mut self, op: Op) -> Value {
        let id = self.func.append_inst(self.cur, op);
        Value::Inst(id)
    }

    fn push_void(&mut self, op: Op) -> InstId {
        self.func.append_inst(self.cur, op)
    }

    // ---- arithmetic ---------------------------------------------------------

    /// Appends a binary operation.
    pub fn bin(&mut self, op: BinOp, ty: Ty, lhs: Value, rhs: Value) -> Value {
        self.push(Op::Bin { op, ty, lhs, rhs })
    }

    /// Appends an integer/float `add`/`fadd` according to `ty`.
    pub fn add(&mut self, ty: Ty, lhs: Value, rhs: Value) -> Value {
        let op = if ty.is_float() {
            BinOp::FAdd
        } else {
            BinOp::Add
        };
        self.bin(op, ty, lhs, rhs)
    }

    /// Appends a `sub`/`fsub` according to `ty`.
    pub fn sub(&mut self, ty: Ty, lhs: Value, rhs: Value) -> Value {
        let op = if ty.is_float() {
            BinOp::FSub
        } else {
            BinOp::Sub
        };
        self.bin(op, ty, lhs, rhs)
    }

    /// Appends a `mul`/`fmul` according to `ty`.
    pub fn mul(&mut self, ty: Ty, lhs: Value, rhs: Value) -> Value {
        let op = if ty.is_float() {
            BinOp::FMul
        } else {
            BinOp::Mul
        };
        self.bin(op, ty, lhs, rhs)
    }

    /// Appends an integer comparison.
    pub fn icmp(&mut self, pred: IntPred, ty: Ty, lhs: Value, rhs: Value) -> Value {
        self.push(Op::Icmp { pred, ty, lhs, rhs })
    }

    /// Appends a float comparison.
    pub fn fcmp(&mut self, pred: FloatPred, lhs: Value, rhs: Value) -> Value {
        self.push(Op::Fcmp { pred, lhs, rhs })
    }

    /// Appends a select.
    pub fn select(&mut self, ty: Ty, cond: Value, tval: Value, fval: Value) -> Value {
        self.push(Op::Select {
            ty,
            cond,
            tval,
            fval,
        })
    }

    /// Appends a cast.
    pub fn cast(&mut self, kind: CastKind, to: Ty, val: Value) -> Value {
        self.push(Op::Cast { kind, to, val })
    }

    // ---- memory -------------------------------------------------------------

    /// Appends an alloca of `count` elements of `ty`.
    pub fn alloca(&mut self, ty: Ty, count: u32) -> Value {
        self.push(Op::Alloca { ty, count })
    }

    /// Appends a typed load.
    pub fn load(&mut self, ty: Ty, ptr: Value) -> Value {
        self.push(Op::Load { ty, ptr })
    }

    /// Appends a typed store.
    pub fn store(&mut self, ty: Ty, val: Value, ptr: Value) -> InstId {
        self.push_void(Op::Store { ty, val, ptr })
    }

    /// Appends pointer arithmetic.
    pub fn gep(&mut self, elem_ty: Ty, ptr: Value, index: Value) -> Value {
        self.push(Op::Gep {
            elem_ty,
            ptr,
            index,
        })
    }

    /// Appends a memcpy.
    pub fn memcpy(&mut self, elem_ty: Ty, dst: Value, src: Value, len: Value) -> InstId {
        self.push_void(Op::MemCpy {
            elem_ty,
            dst,
            src,
            len,
        })
    }

    /// Appends a memset.
    pub fn memset(&mut self, elem_ty: Ty, dst: Value, val: Value, len: Value) -> InstId {
        self.push_void(Op::MemSet {
            elem_ty,
            dst,
            val,
            len,
        })
    }

    // ---- calls and control flow ----------------------------------------------

    /// Appends a direct call.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>, ret_ty: Ty) -> Value {
        self.push(Op::Call {
            callee,
            args,
            ret_ty,
        })
    }

    /// Appends a phi node. Usually placed at the top of a block: prefer
    /// calling this right after [`FunctionBuilder::switch_to`].
    pub fn phi(&mut self, ty: Ty, incomings: Vec<(BlockId, Value)>) -> Value {
        self.push(Op::Phi { ty, incomings })
    }

    /// Appends an unconditional branch and leaves the cursor unchanged.
    pub fn br(&mut self, target: BlockId) -> InstId {
        self.push_void(Op::Br { target })
    }

    /// Appends a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: BlockId, else_bb: BlockId) -> InstId {
        self.push_void(Op::CondBr {
            cond,
            then_bb,
            else_bb,
        })
    }

    /// Appends a return.
    pub fn ret(&mut self, val: Option<Value>) -> InstId {
        self.push_void(Op::Ret { val })
    }

    /// Appends an unreachable terminator.
    pub fn unreachable(&mut self) -> InstId {
        self.push_void(Op::Unreachable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::verify_module;

    #[test]
    fn loop_with_phi_verifies() {
        // sum = 0; for i in 0..n { sum += i }; return sum
        let mut mb = ModuleBuilder::new("m");
        let f = mb.begin_function("sum_to_n", vec![Ty::I64], Ty::I64);
        {
            let mut fb = mb.func_builder(f);
            let header = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            let entry = fb.current_block();
            fb.br(header);

            fb.switch_to(header);
            let i = fb.phi(Ty::I64, vec![(entry, Value::i64(0))]);
            let sum = fb.phi(Ty::I64, vec![(entry, Value::i64(0))]);
            let cond = fb.icmp(IntPred::Slt, Ty::I64, i, Value::Arg(0));
            fb.cond_br(cond, body, exit);

            fb.switch_to(body);
            let sum2 = fb.add(Ty::I64, sum, i);
            let i2 = fb.add(Ty::I64, i, Value::i64(1));
            fb.br(header);

            // patch the phis with the back edge
            let f = fb.func();
            let iid = i.as_inst().unwrap();
            let sid = sum.as_inst().unwrap();
            if let Op::Phi { incomings, .. } = &mut f.inst_mut(iid).unwrap().op {
                incomings.push((body, i2));
            }
            if let Op::Phi { incomings, .. } = &mut f.inst_mut(sid).unwrap().op {
                incomings.push((body, sum2));
            }

            fb.switch_to(exit);
            fb.ret(Some(sum));
        }
        let m = mb.finish();
        verify_module(&m).expect("loop module verifies");
    }

    #[test]
    fn global_and_call() {
        let mut mb = ModuleBuilder::new("m");
        let g = mb.add_global("data", Ty::I64, 4, vec![Const::int(Ty::I64, 7)], true);
        let callee = mb.begin_function("get", vec![], Ty::I64);
        {
            let mut fb = mb.func_builder(callee);
            let v = fb.load(Ty::I64, Value::Global(g));
            fb.ret(Some(v));
        }
        let main = mb.begin_function("main", vec![], Ty::I64);
        {
            let mut fb = mb.func_builder(main);
            let r = fb.call(callee, vec![], Ty::I64);
            fb.ret(Some(r));
        }
        let m = mb.finish();
        verify_module(&m).expect("module verifies");
        assert_eq!(m.num_insts(), 4);
    }
}
