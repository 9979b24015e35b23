//! The abstract product domain: known-bits × signed/unsigned intervals ×
//! pointer nullness/alignment.
//!
//! Every integer fact is expressed over the IR's canonical runtime
//! representation: values of width `w` are stored **sign-extended to
//! `i64`** (see `posetrl_ir::Ty::wrap`), with `i1` the exception (0 or 1,
//! never −1). Known bits therefore cover the full 64-bit sign-extended
//! pattern, the signed interval bounds live in that same space, and the
//! unsigned interval bounds cover the `w`-bit zero-extended
//! reinterpretation.
//!
//! # Lattice shape and termination
//!
//! [`AbsVal::join`] is a plain componentwise least upper bound over the
//! product; the generic worklist engine has no widening hook, so the
//! interval component guarantees finite ascending chains itself: each
//! bound carries a *growth counter*, and after [`WIDEN_LIMIT`] joins that
//! strictly relax a bound, that bound snaps to the type extreme. Known
//! bits only ever lose bits under join (chain length ≤ 128) and nullness
//! is a 3-point lattice, so the whole product has finite height.

use posetrl_ir::{BinOp, CastKind, Const, IntPred, Ty};

/// Number of bound-relaxing joins before an interval bound is widened to
/// the type extreme.
pub const WIDEN_LIMIT: u8 = 4;

/// Signed value range of an integer type (in sign-extended `i64` space).
/// `i1` is unsigned-ish by construction: `Ty::wrap` maps it to {0, 1}.
pub fn ty_signed_range(ty: Ty) -> (i64, i64) {
    match ty {
        Ty::I1 => (0, 1),
        Ty::I8 => (i8::MIN as i64, i8::MAX as i64),
        Ty::I32 => (i32::MIN as i64, i32::MAX as i64),
        _ => (i64::MIN, i64::MAX),
    }
}

/// Maximum value of the `w`-bit unsigned reinterpretation.
pub fn ty_unsigned_max(ty: Ty) -> u64 {
    match ty {
        Ty::I1 => 1,
        Ty::I8 => u8::MAX as u64,
        Ty::I32 => u32::MAX as u64,
        _ => u64::MAX,
    }
}

/// Zero-extended `w`-bit reinterpretation of a sign-extended value.
pub fn zext_repr(v: i64, ty: Ty) -> u64 {
    (v as u64) & ty_unsigned_max(ty)
}

/// Bits of the 64-bit sign-extended representation known to be zero/one.
///
/// The empty fact (`zeros = ones = 0`) is ⊤; a fully known value `v` has
/// `ones = v` and `zeros = !v`. The invariant `zeros & ones == 0` holds
/// for every reachable fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownBits {
    /// Mask of bits known to be 0.
    pub zeros: u64,
    /// Mask of bits known to be 1.
    pub ones: u64,
}

impl KnownBits {
    /// No bit known.
    pub fn top() -> KnownBits {
        KnownBits { zeros: 0, ones: 0 }
    }

    /// Every bit of `v` known.
    pub fn exact(v: i64) -> KnownBits {
        KnownBits {
            zeros: !(v as u64),
            ones: v as u64,
        }
    }

    /// The exactly-known value, if every bit is known.
    pub fn as_exact(&self) -> Option<i64> {
        if self.zeros | self.ones == u64::MAX {
            Some(self.ones as i64)
        } else {
            None
        }
    }

    /// Number of known bits (0..=64).
    pub fn count_known(&self) -> u32 {
        (self.zeros | self.ones).count_ones()
    }

    /// Componentwise join: keep only agreement.
    pub fn join(&mut self, other: &KnownBits) -> bool {
        let z = self.zeros & other.zeros;
        let o = self.ones & other.ones;
        let changed = z != self.zeros || o != self.ones;
        self.zeros = z;
        self.ones = o;
        changed
    }

    /// Bitwise transfer functions (exact on the sign-extended repr).
    pub fn and(a: KnownBits, b: KnownBits) -> KnownBits {
        KnownBits {
            zeros: a.zeros | b.zeros,
            ones: a.ones & b.ones,
        }
    }

    /// Known bits of `a | b`.
    pub fn or(a: KnownBits, b: KnownBits) -> KnownBits {
        KnownBits {
            zeros: a.zeros & b.zeros,
            ones: a.ones | b.ones,
        }
    }

    /// Known bits of `a ^ b`.
    pub fn xor(a: KnownBits, b: KnownBits) -> KnownBits {
        let known = (a.zeros | a.ones) & (b.zeros | b.ones);
        let val = a.ones ^ b.ones;
        KnownBits {
            zeros: known & !val,
            ones: known & val,
        }
    }

    /// Number of trailing bits known to be zero.
    pub fn trailing_zeros(&self) -> u32 {
        (!self.zeros).trailing_zeros().min(64)
    }
}

/// Facts about one integer SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntFacts {
    /// The value's IR type (`i1`/`i8`/`i32`/`i64`).
    pub ty: Ty,
    /// Known bits over the sign-extended 64-bit representation.
    pub bits: KnownBits,
    /// Inclusive signed bounds (sign-extended representation).
    pub lo: i64,
    /// Inclusive signed upper bound.
    pub hi: i64,
    /// Inclusive unsigned bounds over the zero-extended `w`-bit value.
    pub ulo: u64,
    /// Inclusive unsigned upper bound.
    pub uhi: u64,
    /// Join-growth counters for `lo`/`hi` (widening bookkeeping).
    grow_lo: u8,
    grow_hi: u8,
}

impl IntFacts {
    /// The unconstrained fact of an integer type.
    pub fn top(ty: Ty) -> IntFacts {
        let (lo, hi) = ty_signed_range(ty);
        IntFacts {
            ty,
            bits: KnownBits::top(),
            lo,
            hi,
            ulo: 0,
            uhi: ty_unsigned_max(ty),
            grow_lo: 0,
            grow_hi: 0,
        }
    }

    /// The exact fact of a constant (already wrapped into `ty`).
    pub fn exact(ty: Ty, v: i64) -> IntFacts {
        let v = ty.wrap(v);
        let u = zext_repr(v, ty);
        IntFacts {
            ty,
            bits: KnownBits::exact(v),
            lo: v,
            hi: v,
            ulo: u,
            uhi: u,
            grow_lo: 0,
            grow_hi: 0,
        }
    }

    /// A fact from signed bounds alone (bounds clamped to the type range).
    pub fn range(ty: Ty, lo: i64, hi: i64) -> IntFacts {
        let (tlo, thi) = ty_signed_range(ty);
        let lo = lo.max(tlo);
        let hi = hi.min(thi);
        if lo > hi {
            // empty concretization cannot arise from sound transfers; fall
            // back to ⊤ rather than modelling bottom inside IntFacts
            return IntFacts::top(ty);
        }
        let mut f = IntFacts::top(ty);
        f.lo = lo;
        f.hi = hi;
        f.reconcile();
        f
    }

    /// The single concrete value, if the fact pins one down.
    pub fn as_singleton(&self) -> Option<i64> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            self.bits.as_exact()
        }
    }

    /// `true` when no component carries any information.
    pub fn is_top(&self) -> bool {
        let (tlo, thi) = ty_signed_range(self.ty);
        self.lo == tlo
            && self.hi == thi
            && self.ulo == 0
            && self.uhi == ty_unsigned_max(self.ty)
            && self.bits.count_known() == 0
    }

    /// `true` when the value is provably non-negative.
    pub fn non_negative(&self) -> bool {
        self.lo >= 0
    }

    /// Derives cheap cross-component facts: a singleton range pins the
    /// bits; non-negative small ranges pin high zero bits; known bits can
    /// tighten the unsigned range. Called at fact construction only (never
    /// inside `join`), keeping the join a plain componentwise lub.
    pub fn reconcile(&mut self) {
        if self.lo == self.hi {
            *self = IntFacts::exact(self.ty, self.lo);
            return;
        }
        if self.lo >= 0 {
            // all values in [lo, hi] share the leading zeros of hi
            let leading = (self.hi as u64).leading_zeros();
            if leading > 0 {
                self.bits.zeros |= !((u64::MAX) >> leading);
            }
            // unsigned order matches signed order on non-negative values
            self.ulo = self.ulo.max(zext_repr(self.lo, self.ty));
            self.uhi = self.uhi.min(zext_repr(self.hi, self.ty));
        }
        debug_assert_eq!(self.bits.zeros & self.bits.ones, 0);
    }

    /// Componentwise join with widening on the signed bounds.
    pub fn join(&mut self, other: &IntFacts) -> bool {
        debug_assert_eq!(self.ty, other.ty);
        let mut changed = self.bits.join(&other.bits);
        let (tlo, thi) = ty_signed_range(self.ty);
        if other.lo < self.lo {
            self.grow_lo = self.grow_lo.saturating_add(1).max(other.grow_lo);
            self.lo = if self.grow_lo >= WIDEN_LIMIT {
                tlo
            } else {
                other.lo
            };
            changed = true;
        }
        if other.hi > self.hi {
            self.grow_hi = self.grow_hi.saturating_add(1).max(other.grow_hi);
            self.hi = if self.grow_hi >= WIDEN_LIMIT {
                thi
            } else {
                other.hi
            };
            changed = true;
        }
        if other.ulo < self.ulo {
            self.ulo = if self.grow_lo >= WIDEN_LIMIT || self.grow_hi >= WIDEN_LIMIT {
                0
            } else {
                other.ulo
            };
            changed = true;
        }
        if other.uhi > self.uhi {
            self.uhi = if self.grow_lo >= WIDEN_LIMIT || self.grow_hi >= WIDEN_LIMIT {
                ty_unsigned_max(self.ty)
            } else {
                other.uhi
            };
            changed = true;
        }
        changed
    }
}

/// Pointer nullness: a 3-point lattice (joined towards `Maybe`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullness {
    /// Provably the null pointer.
    Null,
    /// Provably not null.
    NonNull,
    /// Either.
    Maybe,
}

impl Nullness {
    fn join(&mut self, other: Nullness) -> bool {
        if *self == other {
            false
        } else {
            let changed = *self != Nullness::Maybe;
            *self = Nullness::Maybe;
            changed
        }
    }
}

/// The object a pointer provably derives from, within one function.
///
/// Bases are function-local (`Alloca` names an instruction arena slot),
/// so interprocedural summaries widen them to `Unknown` before export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrBase {
    /// A stack slot: `Alloca` arena index within the current function.
    Alloca(u32),
    /// A module global, by arena index.
    Global(u32),
    /// Any object.
    Unknown,
}

/// Facts about one pointer SSA value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrFacts {
    /// Nullness.
    pub null: Nullness,
    /// Provable base object.
    pub base: PtrBase,
    /// Inclusive element-offset bounds from the base (meaningful only
    /// when `base` is not `Unknown`).
    pub off_lo: i64,
    /// Inclusive element-offset upper bound.
    pub off_hi: i64,
    /// Trailing zero bits provably present in the byte offset (element
    /// offset × element size), capped at 8 — the alignment fact.
    pub align_tz: u8,
    grow: u8,
}

impl PtrFacts {
    /// Any pointer.
    pub fn top() -> PtrFacts {
        PtrFacts {
            null: Nullness::Maybe,
            base: PtrBase::Unknown,
            off_lo: 0,
            off_hi: 0,
            align_tz: 0,
            grow: 0,
        }
    }

    /// The null pointer.
    pub fn null() -> PtrFacts {
        PtrFacts {
            null: Nullness::Null,
            base: PtrBase::Unknown,
            off_lo: 0,
            off_hi: 0,
            align_tz: 8,
            grow: 0,
        }
    }

    /// A pointer at offset 0 of a known base object of alignment
    /// `align_tz` trailing zero bits.
    pub fn object(base: PtrBase, align_tz: u8) -> PtrFacts {
        PtrFacts {
            null: Nullness::NonNull,
            base,
            off_lo: 0,
            off_hi: 0,
            align_tz: align_tz.min(8),
            grow: 0,
        }
    }

    /// Componentwise join (bases must match to survive; offsets widen).
    pub fn join(&mut self, other: &PtrFacts) -> bool {
        let mut changed = self.null.join(other.null);
        if self.base != other.base {
            if self.base != PtrBase::Unknown {
                self.base = PtrBase::Unknown;
                self.off_lo = 0;
                self.off_hi = 0;
                changed = true;
            }
        } else if self.base != PtrBase::Unknown {
            if other.off_lo < self.off_lo {
                self.grow = self.grow.saturating_add(1);
                self.off_lo = if self.grow >= WIDEN_LIMIT {
                    i64::MIN
                } else {
                    other.off_lo
                };
                changed = true;
            }
            if other.off_hi > self.off_hi {
                self.grow = self.grow.saturating_add(1);
                self.off_hi = if self.grow >= WIDEN_LIMIT {
                    i64::MAX
                } else {
                    other.off_hi
                };
                changed = true;
            }
        }
        if other.align_tz < self.align_tz {
            self.align_tz = other.align_tz;
            changed = true;
        }
        changed
    }
}

/// The abstract value of one SSA slot: a flat product-domain element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbsVal {
    /// Unreached / no information yet (⊥).
    #[default]
    Bottom,
    /// An integer with facts.
    Int(IntFacts),
    /// Any float (no float facts are tracked).
    Float,
    /// A pointer with facts.
    Ptr(PtrFacts),
    /// Any value of any kind, including undef (⊤).
    Top,
}

impl AbsVal {
    /// The abstract value of a constant. Undef maps to ⊤ so the absint
    /// lints never overlap the dedicated undef lint family.
    pub fn of_const(c: Const) -> AbsVal {
        match c {
            Const::Int { ty, val } => AbsVal::Int(IntFacts::exact(ty, val)),
            Const::Float(_) => AbsVal::Float,
            Const::Null => AbsVal::Ptr(PtrFacts::null()),
            Const::Undef(_) => AbsVal::Top,
        }
    }

    /// The unconstrained value of a static type.
    pub fn top_of(ty: Ty) -> AbsVal {
        match ty {
            Ty::I1 | Ty::I8 | Ty::I32 | Ty::I64 => AbsVal::Int(IntFacts::top(ty)),
            Ty::F64 => AbsVal::Float,
            Ty::Ptr => AbsVal::Ptr(PtrFacts::top()),
            Ty::Void => AbsVal::Top,
        }
    }

    /// Integer facts, if this is an integer.
    pub fn as_int(&self) -> Option<&IntFacts> {
        match self {
            AbsVal::Int(f) => Some(f),
            _ => None,
        }
    }

    /// Pointer facts, if this is a pointer.
    pub fn as_ptr(&self) -> Option<&PtrFacts> {
        match self {
            AbsVal::Ptr(f) => Some(f),
            _ => None,
        }
    }

    /// The single concrete integer, if pinned down.
    pub fn singleton(&self) -> Option<i64> {
        self.as_int().and_then(|f| f.as_singleton())
    }

    /// `true` for ⊥.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AbsVal::Bottom)
    }

    /// In-place least upper bound; returns `true` if `self` changed.
    pub fn join(&mut self, other: &AbsVal) -> bool {
        match (&mut *self, other) {
            (_, AbsVal::Bottom) => false,
            (AbsVal::Bottom, _) => {
                *self = *other;
                true
            }
            (AbsVal::Top, _) => false,
            (_, AbsVal::Top) => {
                *self = AbsVal::Top;
                true
            }
            (AbsVal::Int(a), AbsVal::Int(b)) if a.ty == b.ty => a.join(b),
            (AbsVal::Float, AbsVal::Float) => false,
            (AbsVal::Ptr(a), AbsVal::Ptr(b)) => a.join(b),
            _ => {
                *self = AbsVal::Top;
                true
            }
        }
    }

    /// Summary-export form: drops function-local pointer bases so a fact
    /// can cross a call boundary.
    pub fn exported(&self) -> AbsVal {
        match self {
            AbsVal::Ptr(p) => {
                let mut p = *p;
                p.base = PtrBase::Unknown;
                p.off_lo = 0;
                p.off_hi = 0;
                AbsVal::Ptr(p)
            }
            v => *v,
        }
    }
}

// ---------------------------------------------------------------------------
// Transfer functions
// ---------------------------------------------------------------------------

/// Mirrors the interpreter's `eval_bin` on concrete integers (wrapping
/// two's complement; division traps are the caller's concern).
fn concrete_bin(op: BinOp, ty: Ty, a: i64, b: i64) -> Option<i64> {
    let width = ty.bit_width();
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::SDiv => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::SRem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b as u32) % width),
        BinOp::AShr => a.wrapping_shr((b as u32) % width),
        BinOp::LShr => {
            let ua = (a as u64) & ty_unsigned_max(ty);
            (ua >> ((b as u32) % width)) as i64
        }
        _ => return None,
    };
    Some(ty.wrap(v))
}

/// Abstract transfer of an integer binary operation.
pub fn transfer_bin(op: BinOp, ty: Ty, a: &IntFacts, b: &IntFacts) -> AbsVal {
    if op.is_float() {
        return AbsVal::Float;
    }
    // exact case first: both singletons
    if let (Some(x), Some(y)) = (a.as_singleton(), b.as_singleton()) {
        if let Some(v) = concrete_bin(op, ty, x, y) {
            return AbsVal::Int(IntFacts::exact(ty, v));
        }
        // a provable trap (div by zero); the lint reports it, the value
        // itself is unconstrained
        return AbsVal::Int(IntFacts::top(ty));
    }
    let mut out = IntFacts::top(ty);
    match op {
        BinOp::Add | BinOp::Sub => {
            let (lo, hi) = if op == BinOp::Add {
                (a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128)
            } else {
                (a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128)
            };
            let (tlo, thi) = ty_signed_range(ty);
            if lo >= tlo as i128 && hi <= thi as i128 {
                out.lo = lo as i64;
                out.hi = hi as i64;
            }
        }
        BinOp::Mul => {
            let cands = [
                a.lo as i128 * b.lo as i128,
                a.lo as i128 * b.hi as i128,
                a.hi as i128 * b.lo as i128,
                a.hi as i128 * b.hi as i128,
            ];
            let (lo, hi) = (*cands.iter().min().unwrap(), *cands.iter().max().unwrap());
            let (tlo, thi) = ty_signed_range(ty);
            if lo >= tlo as i128 && hi <= thi as i128 {
                out.lo = lo as i64;
                out.hi = hi as i64;
            }
        }
        BinOp::SDiv => {
            // |a / b| ≤ |a| unless the lone wrap case (MIN / −1); excluding
            // it keeps the magnitude bound sound
            let (tlo, _) = ty_signed_range(ty);
            if a.lo > tlo {
                let mag = a.lo.unsigned_abs().max(a.hi.unsigned_abs()) as i64;
                out.lo = -mag;
                out.hi = mag;
            }
        }
        BinOp::SRem => {
            // |a % b| < |b|, and the sign follows the dividend — sound
            // whenever the divisor's magnitude bound does not overflow
            let bmag = b.lo.unsigned_abs().max(b.hi.unsigned_abs());
            if bmag > 0 && bmag <= i64::MAX as u64 {
                let m = bmag as i64 - 1;
                out.lo = if a.non_negative() { 0 } else { -m };
                out.hi = m;
            }
        }
        BinOp::And => {
            out.bits = KnownBits::and(a.bits, b.bits);
            if a.non_negative() || b.non_negative() {
                out.lo = 0;
                out.hi = if a.non_negative() && b.non_negative() {
                    a.hi.min(b.hi)
                } else if a.non_negative() {
                    a.hi
                } else {
                    b.hi
                };
            }
        }
        BinOp::Or => {
            out.bits = KnownBits::or(a.bits, b.bits);
        }
        BinOp::Xor => {
            out.bits = KnownBits::xor(a.bits, b.bits);
        }
        BinOp::Shl => {
            if let Some(sh) = b.as_singleton() {
                let sh = (sh as u32) % ty.bit_width();
                if a.non_negative() && a.hi.leading_zeros() > sh + (64 - ty.bit_width()) {
                    out.lo = a.lo << sh;
                    out.hi = a.hi << sh;
                }
                out.bits.zeros |= (1u64 << sh) - 1;
            }
        }
        BinOp::AShr => {
            if let Some(sh) = b.as_singleton() {
                let sh = (sh as u32) % ty.bit_width();
                out.lo = a.lo >> sh;
                out.hi = a.hi >> sh;
            }
        }
        BinOp::LShr => {
            if let Some(sh) = b.as_singleton() {
                let sh = (sh as u32) % ty.bit_width();
                if sh > 0 {
                    out.lo = 0;
                    out.hi = (ty_unsigned_max(ty) >> sh) as i64;
                } else if a.non_negative() {
                    out.lo = a.lo;
                    out.hi = a.hi;
                }
            } else if a.non_negative() {
                // shifting a non-negative value right never grows it
                out.lo = 0;
                out.hi = a.hi;
            }
        }
        _ => {}
    }
    out.reconcile();
    AbsVal::Int(out)
}

/// Abstract transfer of an integer comparison: `Some(b)` when decided.
pub fn transfer_icmp(pred: IntPred, a: &IntFacts, b: &IntFacts) -> Option<bool> {
    if let (Some(x), Some(y)) = (a.as_singleton(), b.as_singleton()) {
        return Some(pred.eval(x, y));
    }
    match pred {
        IntPred::Eq => {
            if a.hi < b.lo || b.hi < a.lo {
                return Some(false);
            }
        }
        IntPred::Ne => {
            if a.hi < b.lo || b.hi < a.lo {
                return Some(true);
            }
        }
        IntPred::Slt => {
            if a.hi < b.lo {
                return Some(true);
            }
            if a.lo >= b.hi {
                return Some(false);
            }
        }
        IntPred::Sle => {
            if a.hi <= b.lo {
                return Some(true);
            }
            if a.lo > b.hi {
                return Some(false);
            }
        }
        IntPred::Sgt => {
            if a.lo > b.hi {
                return Some(true);
            }
            if a.hi <= b.lo {
                return Some(false);
            }
        }
        IntPred::Sge => {
            if a.lo >= b.hi {
                return Some(true);
            }
            if a.hi < b.lo {
                return Some(false);
            }
        }
    }
    None
}

/// Abstract transfer of a cast.
pub fn transfer_cast(kind: CastKind, to: Ty, v: &AbsVal) -> AbsVal {
    let f = match v.as_int() {
        Some(f) => f,
        None => return AbsVal::top_of(to),
    };
    match kind {
        CastKind::Trunc => {
            if let Some(x) = f.as_singleton() {
                AbsVal::Int(IntFacts::exact(to, x))
            } else if f.non_negative() && zext_repr(f.hi, f.ty) <= ty_unsigned_max(to) >> 1 {
                // the whole range fits in the narrower type unchanged
                AbsVal::Int(IntFacts::range(to, f.lo, f.hi))
            } else {
                AbsVal::Int(IntFacts::top(to))
            }
        }
        // sign extension is the identity on the sign-extended repr
        CastKind::SExt => {
            let mut out = IntFacts::range(to, f.lo, f.hi);
            out.bits = f.bits;
            out.reconcile();
            AbsVal::Int(out)
        }
        CastKind::ZExt => {
            if f.non_negative() {
                AbsVal::Int(IntFacts::range(to, f.lo, f.hi))
            } else {
                AbsVal::Int(IntFacts::range(to, 0, ty_unsigned_max(f.ty) as i64))
            }
        }
        CastKind::SiToFp => AbsVal::Float,
        CastKind::FpToSi => AbsVal::Int(IntFacts::top(to)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bits_exact_round_trip() {
        let k = KnownBits::exact(-7);
        assert_eq!(k.as_exact(), Some(-7));
        assert_eq!(k.count_known(), 64);
        let mut j = k;
        assert!(!j.join(&k));
        assert!(j.join(&KnownBits::exact(1)));
        assert!(j.as_exact().is_none());
    }

    #[test]
    fn bitwise_transfers_are_exact_on_constants() {
        let a = KnownBits::exact(0b1100);
        let b = KnownBits::exact(0b1010);
        assert_eq!(KnownBits::and(a, b).as_exact(), Some(0b1000));
        assert_eq!(KnownBits::or(a, b).as_exact(), Some(0b1110));
        assert_eq!(KnownBits::xor(a, b).as_exact(), Some(0b0110));
    }

    #[test]
    fn widening_snaps_after_limit() {
        // a loop counter pattern: join with ever-growing upper bounds
        let mut f = IntFacts::exact(Ty::I64, 0);
        let mut changes = 0;
        for i in 1..100 {
            if f.join(&IntFacts::exact(Ty::I64, i)) {
                changes += 1;
            }
            if f.hi == i64::MAX {
                break;
            }
        }
        assert_eq!(f.hi, i64::MAX, "upper bound widened to the type extreme");
        assert!(
            changes <= WIDEN_LIMIT as usize + 1,
            "chain is short: {changes}"
        );
        assert_eq!(f.lo, 0, "never-relaxed lower bound survives widening");
    }

    #[test]
    fn alternating_relaxations_still_have_finite_chains() {
        // both bounds relax on every join (a loop walking outward in both
        // directions); the ascending chain must stay bounded by the growth
        // counters, not the value range
        let mut f = IntFacts::exact(Ty::I64, 0);
        let mut changes = 0usize;
        for k in 1..200i64 {
            if f.join(&IntFacts::range(Ty::I64, -k, k)) {
                changes += 1;
            }
        }
        let (tlo, thi) = ty_signed_range(Ty::I64);
        assert_eq!((f.lo, f.hi), (tlo, thi), "both bounds widened");
        assert!(
            changes <= 2 * WIDEN_LIMIT as usize + 2,
            "chain is short: {changes}"
        );
    }

    #[test]
    fn pointer_offset_widening_terminates() {
        // a pointer marched through a loop: the offset interval must widen
        // to the extremes in finitely many joins instead of chasing k
        let mut p = PtrFacts::object(PtrBase::Alloca(0), 3);
        let mut changes = 0usize;
        for k in 1..200i64 {
            let mut step = PtrFacts::object(PtrBase::Alloca(0), 3);
            step.off_lo = k;
            step.off_hi = k;
            if p.join(&step) {
                changes += 1;
            }
        }
        assert_eq!(p.off_hi, i64::MAX, "offset widened to the extreme");
        assert!(
            changes <= WIDEN_LIMIT as usize + 2,
            "chain is short: {changes}"
        );
        assert_eq!(p.base, PtrBase::Alloca(0), "matching bases survive");
    }

    #[test]
    fn interval_add_respects_wrapping() {
        let a = IntFacts::range(Ty::I8, 100, 120);
        let b = IntFacts::range(Ty::I8, 10, 20);
        // 120 + 20 = 140 overflows i8: the transfer must widen to top
        let r = transfer_bin(BinOp::Add, Ty::I8, &a, &b);
        let f = r.as_int().unwrap();
        assert_eq!((f.lo, f.hi), ty_signed_range(Ty::I8));

        let c = IntFacts::range(Ty::I8, 1, 2);
        let r = transfer_bin(BinOp::Add, Ty::I8, &c, &c);
        let f = r.as_int().unwrap();
        assert_eq!((f.lo, f.hi), (2, 4));
    }

    #[test]
    fn srem_bound_follows_divisor() {
        let a = IntFacts::top(Ty::I64);
        let b = IntFacts::range(Ty::I64, 1, 10);
        let r = transfer_bin(BinOp::SRem, Ty::I64, &a, &b);
        let f = r.as_int().unwrap();
        assert_eq!((f.lo, f.hi), (-9, 9));

        let nn = IntFacts::range(Ty::I64, 0, 1000);
        let r = transfer_bin(BinOp::SRem, Ty::I64, &nn, &b);
        let f = r.as_int().unwrap();
        assert_eq!((f.lo, f.hi), (0, 9));
    }

    #[test]
    fn icmp_decides_disjoint_ranges() {
        let a = IntFacts::range(Ty::I64, 0, 5);
        let b = IntFacts::range(Ty::I64, 10, 20);
        assert_eq!(transfer_icmp(IntPred::Slt, &a, &b), Some(true));
        assert_eq!(transfer_icmp(IntPred::Eq, &a, &b), Some(false));
        assert_eq!(transfer_icmp(IntPred::Sgt, &a, &b), Some(false));
        let c = IntFacts::range(Ty::I64, 3, 12);
        assert_eq!(transfer_icmp(IntPred::Slt, &a, &c), None);
    }

    #[test]
    fn sdiv_singleton_is_exact_and_min_over_minus_one_wraps() {
        let a = IntFacts::exact(Ty::I8, i8::MIN as i64);
        let b = IntFacts::exact(Ty::I8, -1);
        let r = transfer_bin(BinOp::SDiv, Ty::I8, &a, &b);
        // wrapping_div(i8::MIN, -1) wraps back to i8::MIN after Ty::wrap
        assert_eq!(r.singleton(), Some(i8::MIN as i64));
    }

    #[test]
    fn casts_model_the_interpreter() {
        let small = IntFacts::range(Ty::I8, -3, 5);
        let s = transfer_cast(CastKind::SExt, Ty::I64, &AbsVal::Int(small));
        let f = s.as_int().unwrap();
        assert_eq!((f.lo, f.hi), (-3, 5));
        let z = transfer_cast(CastKind::ZExt, Ty::I64, &AbsVal::Int(small));
        let f = z.as_int().unwrap();
        assert_eq!((f.lo, f.hi), (0, 255));
        let nn = IntFacts::range(Ty::I64, 0, 100);
        let t = transfer_cast(CastKind::Trunc, Ty::I8, &AbsVal::Int(nn));
        let f = t.as_int().unwrap();
        assert_eq!((f.lo, f.hi), (0, 100));
    }

    #[test]
    fn absval_join_collapses_kind_mismatch_to_top() {
        let mut v = AbsVal::Int(IntFacts::exact(Ty::I64, 1));
        assert!(v.join(&AbsVal::Ptr(PtrFacts::top())));
        assert_eq!(v, AbsVal::Top);
        let mut b = AbsVal::Bottom;
        assert!(b.join(&AbsVal::Float));
        assert_eq!(b, AbsVal::Float);
        assert!(!b.join(&AbsVal::Bottom));
    }

    #[test]
    fn nullness_join() {
        let mut p = PtrFacts::null();
        assert!(p.join(&PtrFacts::object(PtrBase::Global(0), 3)));
        assert_eq!(p.null, Nullness::Maybe);
        assert_eq!(p.base, PtrBase::Unknown);
    }
}
