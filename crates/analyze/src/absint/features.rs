//! AutoPhase-style static feature vector derived from the absint facts.
//!
//! [`features`] condenses the module's analysis results into a
//! fixed-width vector of `FEATURE_DIM` floats, suitable for appending to the
//! RL state (behind `EnvConfig::static_features`). Every entry is a fraction,
//! a normalized average, or a squashed count (`x / (x + K)`), so all values
//! lie in `[0, 1]` and the vector is scale-stable across module sizes.
//!
//! The layout is frozen (tests pin it); append new features at the end and
//! bump `FEATURE_DIM` rather than reordering.
//!
//! | idx | meaning |
//! |-----|---------|
//! | 0   | squash(defined functions, 8) |
//! | 1   | squash(reachable value-producing insts, 64) |
//! | 2   | frac of int facts that are singletons |
//! | 3   | frac of int facts with a strict (non-top, non-singleton) range |
//! | 4   | frac of int facts that are ⊤ intervals |
//! | 5   | frac of int facts proven non-negative |
//! | 6   | average known bits / 64 over int facts |
//! | 7   | frac of int facts with ≥1 known trailing zero bit |
//! | 8   | average log₂(signed range width) / 64 over int facts |
//! | 9   | frac of i1 facts proven constant |
//! | 10  | frac of pointer facts proven non-null |
//! | 11  | frac of pointer facts proven null |
//! | 12  | frac of pointer facts with a known base object |
//! | 13  | average alignment trailing zeros / 8 over pointer facts |
//! | 14  | frac of condbr conditions proven constant (dead-branch rate) |
//! | 15  | squash(provable division traps, 4) |
//! | 16  | squash(provable null dereferences, 4) |
//! | 17  | squash(provable out-of-bounds accesses, 4) |
//! | 18  | frac of functions with a non-⊤ int return fact |
//! | 19  | frac of functions with a singleton return fact |
//! | 20  | frac of summary arguments with a non-⊤ fact |
//! | 21  | frac of blocks unreachable from their function entry |
//! | 22  | frac of value-producing insts with ⊥ (dead) facts |
//! | 23  | squash(average reachable blocks per function, 16) |
//! | 24  | frac of load/store pointers with a known base object |
//! | 25  | frac of icmp results decided statically |
//! | 26  | frac of select conditions decided statically |
//! | 27  | average log₂(unsigned range width) / 64 over int facts |
//! | 28  | frac of int facts with a non-⊤ unsigned range |
//! | 29  | squash(call sites, 16) |
//! | 30  | frac of call results with a non-⊤ fact |
//! | 31  | frac of functions analyzed with ⊤ argument summaries (roots) |
//! | 32  | squash(average points-to set size over pointer values, 2) |
//! | 33  | frac of pointer values with a ⊤ points-to set |
//! | 34  | frac of pointer values with a singleton points-to set |
//! | 35  | squash(average mod-summary size per function, 4) |
//! | 36  | squash(average ref-summary size per function, 4) |
//! | 37  | frac of functions with a ⊤ mod or ref summary |
//! | 38  | squash(average may-defs per load (memdep fan-in), 2) |
//! | 39  | squash(average max store→load chain depth per function, 4) |
//! | 40  | squash(natural loops, 4) |
//! | 41  | frac of loops at nesting depth ≥ 2 |
//! | 42  | frac of loops with an exact symbolic trip count |
//! | 43  | frac of loops with any known trip bound (exact or bounded) |
//! | 44  | average min(log₂(trip + 1) / 20, 1) over trip-known loops |
//! | 45  | average hot-block ratio (static profile) over functions |
//! | 46  | frac of blocks inside some natural loop |
//! | 47  | squash(average recognized recurrences per loop, 4) |
//! | 48  | frac of loops proved parallel-safe |
//! | 49  | frac of loops proved vector-safe |
//! | 50  | frac of loops with a carried dependence |
//! | 51  | squash(total surviving dependences, 8) |
//! | 52  | frac of dependences that are flow |
//! | 53  | frac of dependences that are output |
//! | 54  | frac of tested pairs disambiguated |
//! | 55  | squash(mean proved min carried distance, 4) |
//!
//! Dims 32–39 come from the interprocedural alias/memdep analysis
//! ([`crate::alias`]); ⊤ sets count as the configured points-to cap.
//! Dims 40–47 come from the scalar-evolution and static-profile
//! analyses ([`crate::scev`], [`crate::profile`]). Dims 48–55 come
//! from the loop dependence analysis ([`crate::depend`]).

use super::domain::{AbsVal, Nullness, PtrBase};
use crate::bundle::ModuleAnalyses;
use crate::depend::DepKind;
use posetrl_ir::{Op, Ty};

/// Width of the static feature vector.
pub const FEATURE_DIM: usize = 56;

/// `x / (x + k)`: maps a count into `[0, 1)` monotonically.
fn squash(x: f64, k: f64) -> f64 {
    x / (x + k)
}

/// `num / den`, or 0 for an empty denominator.
fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// log₂ of an interval width, normalized to `[0, 1]` by the 64-bit maximum.
fn width_log2(lo: i64, hi: i64) -> f64 {
    let w = (hi as i128 - lo as i128 + 1) as u128;
    (128 - w.leading_zeros()) as f64 / 64.0
}

/// Computes the feature vector from the module's absint, alias,
/// SCEV/profile and dependence results.
pub fn features(a: &ModuleAnalyses) -> [f64; FEATURE_DIM] {
    let m = a.module();
    let (mi, ma, sc, md) = (a.absint(), a.alias(), a.scev(), a.depend());
    let mut out = [0.0; FEATURE_DIM];

    let mut n_funcs = 0.0;
    let mut n_insts = 0.0;
    let mut n_int = 0.0;
    let (mut int_singleton, mut int_strict, mut int_top, mut int_nonneg) = (0.0, 0.0, 0.0, 0.0);
    let (mut known_bits_sum, mut int_tz, mut swidth_sum, mut uwidth_sum) = (0.0, 0.0, 0.0, 0.0);
    let mut int_utight = 0.0;
    let (mut n_bool, mut bool_const) = (0.0, 0.0);
    let mut n_ptr = 0.0;
    let (mut ptr_nonnull, mut ptr_null, mut ptr_based, mut align_sum) = (0.0, 0.0, 0.0, 0.0);
    let (mut n_condbr, mut condbr_decided) = (0.0, 0.0);
    let (mut div_traps, mut null_derefs, mut oob) = (0.0, 0.0, 0.0);
    let (mut ret_nontop, mut ret_singleton) = (0.0, 0.0);
    let (mut n_args, mut args_nontop) = (0.0, 0.0);
    let (mut n_blocks, mut n_reachable_blocks) = (0.0, 0.0);
    let mut dead_facts = 0.0;
    let (mut n_mem, mut mem_based) = (0.0, 0.0);
    let (mut n_icmp, mut icmp_decided) = (0.0, 0.0);
    let (mut n_select, mut select_decided) = (0.0, 0.0);
    let (mut n_calls, mut call_nontop) = (0.0, 0.0);
    let mut root_funcs = 0.0;

    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        n_funcs += 1.0;
        let Some(facts) = mi.facts(fid) else { continue };
        n_blocks += f.block_ids().count() as f64;
        n_reachable_blocks += facts.reachable.len() as f64;

        if let Some(s) = mi.summary(fid) {
            n_args += s.args.len() as f64;
            args_nontop += s
                .args
                .iter()
                .filter(|a| {
                    !matches!(a, AbsVal::Top) && a.as_int().map(|i| !i.is_top()).unwrap_or(true)
                })
                .count() as f64;
            if s.args.iter().all(|a| matches!(a, AbsVal::Top))
                || s.args
                    .iter()
                    .all(|a| a.as_int().map(|i| i.is_top()).unwrap_or(false))
            {
                root_funcs += 1.0;
            }
            if let Some(r) = s.ret.as_int() {
                if !r.is_top() {
                    ret_nontop += 1.0;
                }
                if r.as_singleton().is_some() {
                    ret_singleton += 1.0;
                }
            }
        }

        for &b in &facts.reachable {
            let Some(block) = f.block(b) else { continue };
            for &id in &block.insts {
                let op = f.op(id);
                match op {
                    Op::CondBr { cond, .. } => {
                        n_condbr += 1.0;
                        if cond
                            .as_inst()
                            .map(|i| facts.value(i).singleton().is_some())
                            .unwrap_or(cond.const_int().is_some())
                        {
                            condbr_decided += 1.0;
                        }
                    }
                    Op::Bin { op: bin, rhs, .. } if bin.can_trap() => {
                        let zero = match rhs.as_inst() {
                            Some(i) => facts.value(i).singleton() == Some(0),
                            None => rhs.const_int() == Some(0),
                        };
                        if zero {
                            div_traps += 1.0;
                        }
                    }
                    _ => {}
                }
                if let Op::Load { ptr, .. } | Op::Store { ptr, .. } = op {
                    n_mem += 1.0;
                    if let Some(pf) = ptr.as_inst().and_then(|i| facts.value(i).as_ptr().copied()) {
                        if pf.base != PtrBase::Unknown {
                            mem_based += 1.0;
                        }
                        if pf.null == Nullness::Null {
                            null_derefs += 1.0;
                        }
                    }
                }
                if op.result_ty() == Ty::Void {
                    continue;
                }
                n_insts += 1.0;
                let v = facts.value(id);
                match &v {
                    AbsVal::Bottom => dead_facts += 1.0,
                    AbsVal::Int(i) => {
                        n_int += 1.0;
                        if i.ty == Ty::I1 {
                            n_bool += 1.0;
                            if i.as_singleton().is_some() {
                                bool_const += 1.0;
                            }
                        }
                        if i.as_singleton().is_some() {
                            int_singleton += 1.0;
                        } else if i.is_top() {
                            int_top += 1.0;
                        } else {
                            int_strict += 1.0;
                        }
                        if i.non_negative() {
                            int_nonneg += 1.0;
                        }
                        known_bits_sum += i.bits.count_known() as f64 / 64.0;
                        if i.bits.trailing_zeros() > 0 {
                            int_tz += 1.0;
                        }
                        swidth_sum += width_log2(i.lo, i.hi);
                        uwidth_sum += width_log2(i.ulo as i64, i.uhi.min(i64::MAX as u64) as i64);
                        let (tlo, thi) = super::domain::ty_signed_range(i.ty);
                        if !(i.ulo == 0
                            && i.uhi == super::domain::ty_unsigned_max(i.ty)
                            && i.lo == tlo
                            && i.hi == thi)
                        {
                            int_utight += 1.0;
                        }
                    }
                    AbsVal::Ptr(p) => {
                        n_ptr += 1.0;
                        match p.null {
                            Nullness::NonNull => ptr_nonnull += 1.0,
                            Nullness::Null => ptr_null += 1.0,
                            Nullness::Maybe => {}
                        }
                        if p.base != PtrBase::Unknown {
                            ptr_based += 1.0;
                        }
                        align_sum += p.align_tz.min(8) as f64 / 8.0;
                    }
                    AbsVal::Float | AbsVal::Top => {}
                }
                match op {
                    Op::Icmp { .. } => {
                        n_icmp += 1.0;
                        if v.singleton().is_some() {
                            icmp_decided += 1.0;
                        }
                    }
                    Op::Select { cond, .. } => {
                        n_select += 1.0;
                        let decided = match cond.as_inst() {
                            Some(i) => facts.value(i).singleton().is_some(),
                            None => cond.const_int().is_some(),
                        };
                        if decided {
                            select_decided += 1.0;
                        }
                    }
                    Op::Call { .. } => {
                        n_calls += 1.0;
                        if !matches!(v, AbsVal::Top)
                            && v.as_int().map(|i| !i.is_top()).unwrap_or(true)
                        {
                            call_nontop += 1.0;
                        }
                    }
                    Op::Load { ptr, .. } | Op::Store { ptr, .. } => {
                        // OOB: base known and offsets entirely outside it
                        if let Some(pf) =
                            ptr.as_inst().and_then(|i| facts.value(i).as_ptr().copied())
                        {
                            let count = match pf.base {
                                PtrBase::Global(g) => {
                                    m.global(posetrl_ir::GlobalId(g)).map(|g| g.count as i64)
                                }
                                PtrBase::Alloca(a) => {
                                    match f.inst(posetrl_ir::InstId(a)).map(|i| &i.op) {
                                        Some(Op::Alloca { count, .. }) => Some(*count as i64),
                                        _ => None,
                                    }
                                }
                                PtrBase::Unknown => None,
                            };
                            if let Some(c) = count {
                                if pf.off_hi < 0 || pf.off_lo >= c {
                                    oob += 1.0;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    out[0] = squash(n_funcs, 8.0);
    out[1] = squash(n_insts, 64.0);
    out[2] = frac(int_singleton, n_int);
    out[3] = frac(int_strict, n_int);
    out[4] = frac(int_top, n_int);
    out[5] = frac(int_nonneg, n_int);
    out[6] = frac(known_bits_sum, n_int);
    out[7] = frac(int_tz, n_int);
    out[8] = frac(swidth_sum, n_int);
    out[9] = frac(bool_const, n_bool);
    out[10] = frac(ptr_nonnull, n_ptr);
    out[11] = frac(ptr_null, n_ptr);
    out[12] = frac(ptr_based, n_ptr);
    out[13] = frac(align_sum, n_ptr);
    out[14] = frac(condbr_decided, n_condbr);
    out[15] = squash(div_traps, 4.0);
    out[16] = squash(null_derefs, 4.0);
    out[17] = squash(oob, 4.0);
    out[18] = frac(ret_nontop, n_funcs);
    out[19] = frac(ret_singleton, n_funcs);
    out[20] = frac(args_nontop, n_args);
    out[21] = frac(n_blocks - n_reachable_blocks, n_blocks);
    out[22] = frac(dead_facts, n_insts);
    out[23] = squash(frac(n_reachable_blocks, n_funcs), 16.0);
    out[24] = frac(mem_based, n_mem);
    out[25] = frac(icmp_decided, n_icmp);
    out[26] = frac(select_decided, n_select);
    out[27] = frac(uwidth_sum, n_int);
    out[28] = frac(int_utight, n_int);
    out[29] = squash(n_calls, 16.0);
    out[30] = frac(call_nontop, n_calls);
    out[31] = frac(root_funcs, n_funcs);

    // dims 32–39: alias/memdep shape
    let cap = ma.cap.max(1);
    let (mut n_ptr_vals, mut pts_size_sum, mut pts_top, mut pts_singleton) = (0.0, 0.0, 0.0, 0.0);
    let (mut mod_size_sum, mut ref_size_sum, mut modref_top) = (0.0, 0.0, 0.0);
    let (mut n_loads, mut dep_sum) = (0.0, 0.0);
    let mut chain_sum = 0.0;
    let mut n_alias_funcs = 0.0;
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        n_alias_funcs += 1.0;
        if let Some(facts) = ma.facts(fid) {
            for id in f.inst_ids() {
                if f.op(id).result_ty() != Ty::Ptr {
                    continue;
                }
                let p = facts.pts_of(id);
                n_ptr_vals += 1.0;
                pts_size_sum += p.size_for(cap) as f64;
                if p.top {
                    pts_top += 1.0;
                } else if p.objs.len() == 1 {
                    pts_singleton += 1.0;
                }
            }
        }
        if let Some(s) = ma.summary(fid) {
            mod_size_sum += s.mods.size_for(cap) as f64;
            ref_size_sum += s.refs.size_for(cap) as f64;
            if s.mods.top || s.refs.top {
                modref_top += 1.0;
            }
        }
        if let Some(md) = ma.memdep(fid) {
            for deps in md.load_deps.values() {
                n_loads += 1.0;
                dep_sum += deps.len() as f64;
            }
            chain_sum += md.max_chain as f64;
        }
    }
    out[32] = squash(frac(pts_size_sum, n_ptr_vals), 2.0);
    out[33] = frac(pts_top, n_ptr_vals);
    out[34] = frac(pts_singleton, n_ptr_vals);
    out[35] = squash(frac(mod_size_sum, n_alias_funcs), 4.0);
    out[36] = squash(frac(ref_size_sum, n_alias_funcs), 4.0);
    out[37] = frac(modref_top, n_alias_funcs);
    out[38] = squash(frac(dep_sum, n_loads), 2.0);
    out[39] = squash(frac(chain_sum, n_alias_funcs), 4.0);

    // dims 40–47: loop/trip/frequency shape from the SCEV + profile analyses
    let (mut n_loops, mut deep_loops, mut exact_loops, mut known_loops) = (0.0, 0.0, 0.0, 0.0);
    let (mut trip_log_sum, mut rec_sum) = (0.0, 0.0);
    let (mut hot_sum, mut n_prof_funcs) = (0.0, 0.0);
    let (mut n_all_blocks, mut loop_blocks) = (0.0, 0.0);
    for fid in m.func_ids() {
        let f = m.func(fid).unwrap();
        if f.is_decl {
            continue;
        }
        n_all_blocks += f.block_ids().count() as f64;
        let Some(fr) = sc.func(fid) else { continue };
        n_prof_funcs += 1.0;
        hot_sum += fr.profile.hot_ratio;
        let mut in_loop: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for l in &fr.loops {
            n_loops += 1.0;
            if l.depth >= 2 {
                deep_loops += 1.0;
            }
            if l.trip.exact().is_some() {
                exact_loops += 1.0;
            }
            if let Some(t) = l.trip.known_max() {
                known_loops += 1.0;
                trip_log_sum += (((t as f64) + 1.0).log2() / 20.0).min(1.0);
            }
            rec_sum += l.recs.len() as f64;
            in_loop.extend(l.blocks.iter().copied());
        }
        loop_blocks += in_loop.len() as f64;
    }
    out[40] = squash(n_loops, 4.0);
    out[41] = frac(deep_loops, n_loops);
    out[42] = frac(exact_loops, n_loops);
    out[43] = frac(known_loops, n_loops);
    out[44] = frac(trip_log_sum, known_loops);
    out[45] = frac(hot_sum, n_prof_funcs);
    out[46] = frac(loop_blocks, n_all_blocks);
    out[47] = squash(frac(rec_sum, n_loops), 4.0);

    // dims 48–55: legality/dependence shape from the depend analysis
    let (mut d_loops, mut par_loops, mut vec_loops, mut carried_loops) = (0.0, 0.0, 0.0, 0.0);
    let (mut n_deps, mut flow_deps, mut output_deps, mut disamb) = (0.0, 0.0, 0.0, 0.0);
    let (mut dist_sum, mut dist_loops) = (0.0, 0.0);
    for fid in m.func_ids() {
        let Some(fr) = md.func(fid) else { continue };
        for l in &fr.loops {
            d_loops += 1.0;
            if l.parallel_safe {
                par_loops += 1.0;
            }
            if l.vector_safe {
                vec_loops += 1.0;
            }
            if l.deps.iter().any(|d| d.carried) {
                carried_loops += 1.0;
            }
            n_deps += l.deps.len() as f64;
            flow_deps += l.deps.iter().filter(|d| d.kind == DepKind::Flow).count() as f64;
            output_deps += l.deps.iter().filter(|d| d.kind == DepKind::Output).count() as f64;
            disamb += l.disambiguated as f64;
            if let Some(d) = l.min_distance {
                dist_sum += d as f64;
                dist_loops += 1.0;
            }
        }
    }
    out[48] = frac(par_loops, d_loops);
    out[49] = frac(vec_loops, d_loops);
    out[50] = frac(carried_loops, d_loops);
    out[51] = squash(n_deps, 8.0);
    out[52] = frac(flow_deps, n_deps);
    out[53] = frac(output_deps, n_deps);
    out[54] = frac(disamb, disamb + n_deps);
    out[55] = squash(frac(dist_sum, dist_loops), 4.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::parser::parse_module;
    use posetrl_ir::Module;

    fn features_of(m: &Module) -> [f64; FEATURE_DIM] {
        features(&ModuleAnalyses::new(m, None))
    }

    const SAMPLE: &str = r#"
module "t"

fn @main() -> i64 internal {
bb0:
  %0 = add i64 2:i64, 3:i64
  %1 = mul i64 %0, 4:i64
  %2 = icmp slt i64 %1, 100:i64
  condbr %2, bb1, bb2
bb1:
  ret %1
bb2:
  ret 0:i64
}
"#;

    #[test]
    fn features_are_deterministic_and_bounded() {
        let m = parse_module(SAMPLE).unwrap();
        let a = features_of(&m);
        let b = features_of(&m);
        assert_eq!(a, b, "bit-identical across runs");
        for (i, v) in a.iter().enumerate() {
            assert!(*v >= 0.0 && *v <= 1.0, "feature {i} out of range: {v}");
            assert!(v.is_finite(), "feature {i} not finite");
        }
    }

    #[test]
    fn constant_heavy_module_scores_high_on_singletons() {
        let m = parse_module(SAMPLE).unwrap();
        let f = features_of(&m);
        assert!(f[2] > 0.5, "most values fold to singletons: {}", f[2]);
        assert!(f[14] > 0.0, "the condbr is decided: {}", f[14]);
    }

    #[test]
    fn empty_module_is_all_zeros_except_counts() {
        let m = parse_module("module \"empty\"\n").unwrap();
        let f = features_of(&m);
        assert!(f.iter().all(|v| *v == 0.0), "{f:?}");
    }

    const MEM_SAMPLE: &str = r#"
module "mem"

fn @main() -> i64 internal {
bb0:
  %a = alloca i64 x 1
  store i64 1:i64, %a
  %v = load i64, %a
  ret %v
}
"#;

    #[test]
    fn alias_dims_populate() {
        let m = parse_module(MEM_SAMPLE).unwrap();
        let f = features_of(&m);
        assert!(f[34] > 0.9, "every pointer is a singleton slot: {}", f[34]);
        assert_eq!(f[33], 0.0, "no ⊤ pointers: {}", f[33]);
        assert!(f[38] > 0.0, "the load has one feeding def: {}", f[38]);
        assert!(f[39] > 0.0, "chain depth 1: {}", f[39]);
    }

    const LOOP_SAMPLE: &str = r#"
module "loops"

fn @main() -> i64 internal {
bb0:
  br bb1
bb1:
  %i = phi i64 [bb0: 0:i64], [bb1: %n]
  %n = add i64 %i, 1:i64
  %c = icmp slt i64 %i, 10:i64
  condbr %c, bb1, bb2
bb2:
  ret %i
}
"#;

    #[test]
    fn scev_dims_populate() {
        let m = parse_module(LOOP_SAMPLE).unwrap();
        let f = features_of(&m);
        assert!(f[40] > 0.0, "one loop: {}", f[40]);
        assert_eq!(f[41], 0.0, "no nested loops: {}", f[41]);
        assert_eq!(f[42], 1.0, "the trip count is exact: {}", f[42]);
        assert_eq!(f[43], 1.0, "the trip count is known: {}", f[43]);
        assert!(f[44] > 0.0 && f[44] < 1.0, "trip magnitude: {}", f[44]);
        assert!(f[46] > 0.0, "some blocks sit in loops: {}", f[46]);
        assert!(f[47] > 0.0, "recurrences recognized: {}", f[47]);
        assert!(
            features_of(&parse_module(SAMPLE).unwrap())[40] == 0.0,
            "loop-free module has zero loop mass"
        );
    }

    const DEP_SAMPLE: &str = r#"
module "dep"

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
  %ps = gep i64, %a, %i
  %v = load i64, %ps
  %pd = gep i64, %a, %i2
  store i64 %v, %pd
  %n = add i64 %i, 1:i64
  br bb1
bb3:
  ret 0:i64
}
"#;

    #[test]
    fn depend_dims_populate_and_stay_zero_on_loop_free_modules() {
        let m = parse_module(DEP_SAMPLE).unwrap();
        let f = features_of(&m);
        assert_eq!(f[48], 0.0, "the carried dep blocks parallelism: {}", f[48]);
        assert_eq!(f[49], 1.0, "distance 2 admits a jam: {}", f[49]);
        assert_eq!(f[50], 1.0, "the loop has a carried dep: {}", f[50]);
        assert!(f[51] > 0.0, "one dependence survives: {}", f[51]);
        assert_eq!(f[52], 1.0, "it is a flow dep: {}", f[52]);
        assert!(f[55] > 0.0, "min distance proved: {}", f[55]);
        let loop_free = features_of(&parse_module(SAMPLE).unwrap());
        for (i, v) in loop_free.iter().enumerate().take(56).skip(48) {
            assert_eq!(*v, 0.0, "dim {i} must be zero on a loop-free module");
        }
    }
}
