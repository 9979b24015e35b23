//! Instructions and opcodes.

use crate::module::{BlockId, FuncId};
use crate::types::Ty;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable identifier of an instruction within its function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstId(pub u32);

impl InstId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Integer/float binary arithmetic opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    SRem,
    And,
    Or,
    Xor,
    Shl,
    AShr,
    LShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Returns `true` for floating point opcodes.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Returns `true` if the operation is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// Returns `true` if the operation is associative (exact for integers;
    /// floats are treated as non-associative).
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Returns `true` if the operation can trap at runtime (division by zero).
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::SRem)
    }

    /// Canonical textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::AShr => "ashr",
            BinOp::LShr => "lshr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }

    /// All binary opcodes (for vocabulary construction and fuzzing).
    pub const ALL: [BinOp; 15] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::SDiv,
        BinOp::SRem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::AShr,
        BinOp::LShr,
        BinOp::FAdd,
        BinOp::FSub,
        BinOp::FMul,
        BinOp::FDiv,
    ];
}

/// Integer comparison predicates (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
}

impl IntPred {
    /// The predicate with swapped operands (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> IntPred {
        match self {
            IntPred::Eq => IntPred::Eq,
            IntPred::Ne => IntPred::Ne,
            IntPred::Slt => IntPred::Sgt,
            IntPred::Sle => IntPred::Sge,
            IntPred::Sgt => IntPred::Slt,
            IntPred::Sge => IntPred::Sle,
        }
    }

    /// The logical negation of the predicate.
    pub fn inverted(self) -> IntPred {
        match self {
            IntPred::Eq => IntPred::Ne,
            IntPred::Ne => IntPred::Eq,
            IntPred::Slt => IntPred::Sge,
            IntPred::Sle => IntPred::Sgt,
            IntPred::Sgt => IntPred::Sle,
            IntPred::Sge => IntPred::Slt,
        }
    }

    /// Evaluates the predicate on two integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            IntPred::Eq => a == b,
            IntPred::Ne => a != b,
            IntPred::Slt => a < b,
            IntPred::Sle => a <= b,
            IntPred::Sgt => a > b,
            IntPred::Sge => a >= b,
        }
    }

    /// Canonical textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntPred::Eq => "eq",
            IntPred::Ne => "ne",
            IntPred::Slt => "slt",
            IntPred::Sle => "sle",
            IntPred::Sgt => "sgt",
            IntPred::Sge => "sge",
        }
    }
}

/// Floating-point comparison predicates (ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FloatPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FloatPred {
    /// Evaluates the predicate on two floats (ordered: false on NaN).
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            FloatPred::Oeq => a == b,
            FloatPred::One => a != b && !a.is_nan() && !b.is_nan(),
            FloatPred::Olt => a < b,
            FloatPred::Ole => a <= b,
            FloatPred::Ogt => a > b,
            FloatPred::Oge => a >= b,
        }
    }

    /// Canonical textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FloatPred::Oeq => "oeq",
            FloatPred::One => "one",
            FloatPred::Olt => "olt",
            FloatPred::Ole => "ole",
            FloatPred::Ogt => "ogt",
            FloatPred::Oge => "oge",
        }
    }
}

/// Cast opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastKind {
    /// Integer truncation to a narrower type.
    Trunc,
    /// Zero extension to a wider integer type.
    ZExt,
    /// Sign extension to a wider integer type.
    SExt,
    /// Signed integer to float.
    SiToFp,
    /// Float to signed integer (round toward zero).
    FpToSi,
}

impl CastKind {
    /// Canonical textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Trunc => "trunc",
            CastKind::ZExt => "zext",
            CastKind::SExt => "sext",
            CastKind::SiToFp => "sitofp",
            CastKind::FpToSi => "fptosi",
        }
    }
}

/// The operation performed by an instruction.
///
/// # Undef and trap semantics
///
/// These rules are what the reference interpreter executes and what the
/// symbolic translation validator (`posetrl-analyze::validate`) proves
/// refinement against — an optimization may replace undef with any value
/// and may remove traps, but must never introduce either. Per opcode:
///
/// - `Bin`: `sdiv`/`srem` **trap** on a zero or undef divisor or an
///   undef dividend; every other binop propagates undef (any undef
///   operand makes the result undef) and never traps. Integer
///   arithmetic wraps (two's complement, no overflow UB).
/// - `Icmp`: an undef operand makes the `i1` result undef; operands of
///   differing widths compare as sign-extended `i64`s. Pointers compare
///   by a stable per-object ordinal, never trap.
/// - `Fcmp`: undef propagates to the result; never traps.
/// - `Select`: an undef `cond` **traps**; otherwise the chosen operand's
///   (value, undef) pair is passed through unchanged.
/// - `Cast`: undef flows through every cast kind; never traps
///   (`fptosi` saturates at the `i64` bounds).
/// - `Alloca`: fresh cells are **undef** until stored; never traps.
/// - `Load`/`Store`: out-of-bounds or type-mismatched access **traps**,
///   as does a store through a read-only (immutable global) pointer;
///   loading an undef cell yields undef.
/// - `Gep`: an undef base pointer or undef index **traps**; offsets are
///   not bounds-checked until dereferenced.
/// - `Call`: refines like its callee; external calls are observable
///   trace events (undef arguments are recorded as undef).
/// - `Phi`: a missing incoming edge **traps** (verifier-rejected, but
///   dynamically a type error); otherwise passes the chosen pair.
/// - `MemCpy`/`MemSet`: negative or out-of-bounds ranges **trap**;
///   copying undef cells preserves their undef-ness.
/// - `CondBr`: branching on an undef condition **traps** (this is where
///   deferred undef becomes UB).
/// - `Ret`: returning undef is defined and observable as undef.
/// - `Unreachable`: executing it **traps** (immediate UB).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Binary arithmetic: `lhs op rhs`, both of type `ty`, result `ty`.
    Bin {
        op: BinOp,
        ty: Ty,
        lhs: Value,
        rhs: Value,
    },
    /// Integer comparison over operands of type `ty`, result `i1`.
    Icmp {
        pred: IntPred,
        ty: Ty,
        lhs: Value,
        rhs: Value,
    },
    /// Float comparison, result `i1`.
    Fcmp {
        pred: FloatPred,
        lhs: Value,
        rhs: Value,
    },
    /// `cond ? tval : fval`, result `ty`.
    Select {
        ty: Ty,
        cond: Value,
        tval: Value,
        fval: Value,
    },
    /// Type conversion of `val` to `to`.
    Cast { kind: CastKind, to: Ty, val: Value },
    /// Stack slot of `count` elements of `ty`; result `ptr`.
    Alloca { ty: Ty, count: u32 },
    /// Load a `ty` from `ptr`.
    Load { ty: Ty, ptr: Value },
    /// Store `val` (of type `ty`) to `ptr`. No result.
    Store { ty: Ty, val: Value, ptr: Value },
    /// Pointer arithmetic: `ptr + index` elements of `elem_ty`; result `ptr`.
    Gep {
        elem_ty: Ty,
        ptr: Value,
        index: Value,
    },
    /// Direct call; `ret_ty` is the callee's return type.
    Call {
        callee: FuncId,
        args: Vec<Value>,
        ret_ty: Ty,
    },
    /// SSA phi node merging `incomings` values on entry; result `ty`.
    Phi {
        ty: Ty,
        incomings: Vec<(BlockId, Value)>,
    },
    /// Copy `len` elements of `elem_ty` from `src` to `dst`. No result.
    MemCpy {
        elem_ty: Ty,
        dst: Value,
        src: Value,
        len: Value,
    },
    /// Set `len` elements of `elem_ty` at `dst` to `val`. No result.
    MemSet {
        elem_ty: Ty,
        dst: Value,
        val: Value,
        len: Value,
    },
    /// Unconditional branch. Terminator.
    Br { target: BlockId },
    /// Conditional branch on an `i1`. Terminator.
    CondBr {
        cond: Value,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return. Terminator.
    Ret { val: Option<Value> },
    /// Unreachable point. Terminator.
    Unreachable,
}

impl Op {
    /// Returns `true` if this operation terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Op::Br { .. } | Op::CondBr { .. } | Op::Ret { .. } | Op::Unreachable
        )
    }

    /// The result type of the instruction (`Void` if it produces no value).
    pub fn result_ty(&self) -> Ty {
        match self {
            Op::Bin { ty, .. } => *ty,
            Op::Icmp { .. } | Op::Fcmp { .. } => Ty::I1,
            Op::Select { ty, .. } => *ty,
            Op::Cast { to, .. } => *to,
            Op::Alloca { .. } | Op::Gep { .. } => Ty::Ptr,
            Op::Load { ty, .. } => *ty,
            Op::Call { ret_ty, .. } => *ret_ty,
            Op::Phi { ty, .. } => *ty,
            Op::Store { .. }
            | Op::MemCpy { .. }
            | Op::MemSet { .. }
            | Op::Br { .. }
            | Op::CondBr { .. }
            | Op::Ret { .. }
            | Op::Unreachable => Ty::Void,
        }
    }

    /// Returns `true` if the instruction has no side effects and its result
    /// may be removed when unused. Calls are conservatively impure here;
    /// pass-level logic refines that using function attributes.
    pub fn is_pure(&self) -> bool {
        match self {
            Op::Bin { op, .. } => !op.can_trap(),
            Op::Icmp { .. }
            | Op::Fcmp { .. }
            | Op::Select { .. }
            | Op::Cast { .. }
            | Op::Gep { .. }
            | Op::Phi { .. } => true,
            // Alloca has no observable side effect but must not be duplicated
            // or hoisted casually; it is still removable when unused.
            Op::Alloca { .. } => true,
            _ => false,
        }
    }

    /// The value operands of the instruction, in operand order.
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Calls `f` on every value operand, in [`Op::operands`] order,
    /// without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Op::Bin { lhs, rhs, .. } | Op::Icmp { lhs, rhs, .. } | Op::Fcmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Op::Select {
                cond, tval, fval, ..
            } => {
                f(*cond);
                f(*tval);
                f(*fval);
            }
            Op::Cast { val, .. } | Op::Load { ptr: val, .. } | Op::CondBr { cond: val, .. } => {
                f(*val)
            }
            Op::Store { val, ptr, .. } => {
                f(*val);
                f(*ptr);
            }
            Op::Gep { ptr, index, .. } => {
                f(*ptr);
                f(*index);
            }
            Op::Call { args, .. } => args.iter().copied().for_each(f),
            Op::Phi { incomings, .. } => incomings.iter().for_each(|(_, v)| f(*v)),
            Op::MemCpy { dst, src, len, .. } => {
                f(*dst);
                f(*src);
                f(*len);
            }
            Op::MemSet { dst, val, len, .. } => {
                f(*dst);
                f(*val);
                f(*len);
            }
            Op::Ret { val } => val.iter().copied().for_each(f),
            Op::Alloca { .. } | Op::Br { .. } | Op::Unreachable => {}
        }
    }

    /// Applies `f` to every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Op::Bin { lhs, rhs, .. } | Op::Icmp { lhs, rhs, .. } | Op::Fcmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Op::Select {
                cond, tval, fval, ..
            } => {
                *cond = f(*cond);
                *tval = f(*tval);
                *fval = f(*fval);
            }
            Op::Cast { val, .. } => *val = f(*val),
            Op::Alloca { .. } => {}
            Op::Load { ptr, .. } => *ptr = f(*ptr),
            Op::Store { val, ptr, .. } => {
                *val = f(*val);
                *ptr = f(*ptr);
            }
            Op::Gep { ptr, index, .. } => {
                *ptr = f(*ptr);
                *index = f(*index);
            }
            Op::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Op::MemCpy { dst, src, len, .. } => {
                *dst = f(*dst);
                *src = f(*src);
                *len = f(*len);
            }
            Op::MemSet { dst, val, len, .. } => {
                *dst = f(*dst);
                *val = f(*val);
                *len = f(*len);
            }
            Op::Br { .. } => {}
            Op::CondBr { cond, .. } => *cond = f(*cond),
            Op::Ret { val } => {
                if let Some(v) = val {
                    *v = f(*v);
                }
            }
            Op::Unreachable => {}
        }
    }

    /// The successor blocks of a terminator (empty for non-terminators).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Op::Br { target } => vec![*target],
            Op::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            _ => vec![],
        }
    }

    /// Rewrites block references of a terminator or phi node.
    pub fn map_blocks(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Op::Br { target } => *target = f(*target),
            Op::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Op::Phi { incomings, .. } => {
                for (b, _) in incomings {
                    *b = f(*b);
                }
            }
            _ => {}
        }
    }

    /// A coarse opcode-kind name, used by embeddings and cost models.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Bin { op, .. } => op.mnemonic(),
            Op::Icmp { .. } => "icmp",
            Op::Fcmp { .. } => "fcmp",
            Op::Select { .. } => "select",
            Op::Cast { kind, .. } => kind.mnemonic(),
            Op::Alloca { .. } => "alloca",
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Gep { .. } => "gep",
            Op::Call { .. } => "call",
            Op::Phi { .. } => "phi",
            Op::MemCpy { .. } => "memcpy",
            Op::MemSet { .. } => "memset",
            Op::Br { .. } => "br",
            Op::CondBr { .. } => "condbr",
            Op::Ret { .. } => "ret",
            Op::Unreachable => "unreachable",
        }
    }
}

/// An instruction: an [`Op`] plus the block that currently owns it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Owning block (kept in sync by [`crate::module::Function`] mutators).
    pub block: BlockId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn terminator_classification() {
        assert!(Op::Ret { val: None }.is_terminator());
        assert!(Op::Unreachable.is_terminator());
        assert!(!Op::Alloca {
            ty: Ty::I64,
            count: 1
        }
        .is_terminator());
    }

    #[test]
    fn pred_swaps_and_inversions() {
        assert_eq!(IntPred::Slt.swapped(), IntPred::Sgt);
        assert_eq!(IntPred::Slt.inverted(), IntPred::Sge);
        assert!(IntPred::Sle.eval(3, 3));
        assert!(!IntPred::Sgt.eval(3, 3));
        assert!(FloatPred::Olt.eval(1.0, 2.0));
        assert!(!FloatPred::Oeq.eval(f64::NAN, f64::NAN));
        assert!(!FloatPred::One.eval(f64::NAN, 1.0));
    }

    #[test]
    fn operand_mapping_round_trip() {
        let mut op = Op::Select {
            ty: Ty::I64,
            cond: Value::Arg(0),
            tval: Value::i64(1),
            fval: Value::i64(2),
        };
        let before = op.operands();
        op.map_operands(|v| v);
        assert_eq!(before, op.operands());
        op.map_operands(|_| Value::i64(9));
        assert!(op.operands().iter().all(|v| v.const_int() == Some(9)));
    }

    #[test]
    fn purity() {
        assert!(Op::Bin {
            op: BinOp::Add,
            ty: Ty::I64,
            lhs: Value::i64(1),
            rhs: Value::i64(2)
        }
        .is_pure());
        assert!(!Op::Bin {
            op: BinOp::SDiv,
            ty: Ty::I64,
            lhs: Value::i64(1),
            rhs: Value::Arg(0)
        }
        .is_pure());
        assert!(!Op::Store {
            ty: Ty::I64,
            val: Value::i64(0),
            ptr: Value::Arg(0)
        }
        .is_pure());
    }

    #[test]
    fn successors_of_terminators() {
        let b = Op::CondBr {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Op::Ret { val: None }.successors().is_empty());
    }
}
