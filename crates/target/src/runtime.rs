//! Dynamic runtime costing (the stand-in for timed runs on real hardware).
//!
//! The reference interpreter records how many times every instruction
//! executed; this module weights those counts with the per-target cost
//! tables to estimate total cycles. The paper's runtime claims are all
//! *relative* (predicted sequence vs `-Oz` on the same machine), and any
//! consistent per-instruction cost model preserves relative comparisons —
//! while still making the trade-offs real: division and calls are
//! expensive, memory traffic beats register arithmetic, and code the
//! optimizer failed to remove is paid for on every execution.

use crate::tables::{inst_cost, machine, Resource};
use crate::TargetArch;
use posetrl_ir::interp::ExecProfile;
use posetrl_ir::{Module, Op};

/// Estimated dynamic cost of one execution of `op` on `arch`, in cycles.
///
/// Latency-based, with two adjustments a latency table alone misses: calls
/// pay fixed frame/marshalling overhead, and pipelined work is discounted
/// by the dispatch width (independent instructions overlap in a superscalar
/// pipeline; the divider does not).
fn dynamic_cost(op: &Op, arch: TargetArch) -> f64 {
    let desc = machine(arch);
    let cost = inst_cost(op, arch);
    match op {
        // frame setup, argument marshalling, return: not visible as
        // latency in straight-line tables
        Op::Call { args, .. } => 6.0 + args.len() as f64,
        _ => match cost.resource {
            // the divider is non-pipelined: its full occupancy is paid
            Resource::Div => cost.latency,
            // overlappable work: amortize latency over the issue width
            _ => (cost.latency / desc.dispatch_width as f64).max(0.5) * cost.uops as f64,
        },
    }
}

/// Estimates total execution cycles of a profiled run of `module`.
///
/// `profile` must come from interpreting this same module (instruction ids
/// are matched exactly); instructions the run never reached cost nothing.
/// Deterministic: iteration follows the module's arena order, so identical
/// (module, profile) pairs produce bit-identical totals.
pub fn dynamic_cycles(module: &Module, profile: &ExecProfile, arch: TargetArch) -> f64 {
    let mut total = 0.0f64;
    for fid in module.func_ids() {
        let f = module.func(fid).expect("live function");
        if f.is_decl {
            continue;
        }
        for iid in f.inst_ids() {
            if let Some(&count) = profile.counts.get(&(fid, iid)) {
                total += count as f64 * dynamic_cost(f.op(iid), arch);
            }
        }
    }
    total
}

/// Estimates total execution cycles from the *static* block-frequency
/// profile ([`posetrl_analyze::profile`]) — no interpreter run needed.
///
/// Each instruction's dynamic cost is weighted by its block's estimated
/// frequency (trip-count-aware where SCEV resolved a trip, heuristic
/// otherwise). This is the `runtime.rs` half of the frequency-weighted
/// costing diagnostic: useful for flat-vs-weighted comparisons, never
/// used as the reward signal.
pub fn static_cycles(
    module: &Module,
    profile: &posetrl_analyze::ModuleProfile,
    arch: TargetArch,
) -> f64 {
    let mut total = 0.0f64;
    for fid in module.func_ids() {
        let f = module.func(fid).expect("live function");
        if f.is_decl {
            continue;
        }
        for bid in f.block_ids() {
            let freq = profile.freq(fid, bid);
            let block = f.block(bid).expect("live block");
            for &iid in &block.insts {
                total += freq * dynamic_cost(f.op(iid), arch);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::builder::ModuleBuilder;
    use posetrl_ir::interp::Interpreter;
    use posetrl_ir::{BinOp, IntPred, Ty, Value};

    /// A module whose `main` loops `n` times over a body with a division.
    fn loopy(n: i64, with_div: bool) -> Module {
        let mut mb = ModuleBuilder::new("rt");
        let f = mb.begin_function("main", vec![], Ty::I64);
        {
            let mut fb = mb.func_builder(f);
            let entry = fb.current_block();
            let header = fb.new_block();
            let body = fb.new_block();
            let exit = fb.new_block();
            fb.br(header);
            fb.switch_to(header);
            let i = fb.phi(Ty::I64, vec![]);
            let s = fb.phi(Ty::I64, vec![]);
            let c = fb.icmp(IntPred::Slt, Ty::I64, i, Value::i64(n));
            fb.cond_br(c, body, exit);
            fb.switch_to(body);
            let mut v = fb.add(Ty::I64, s, i);
            if with_div {
                v = fb.bin(BinOp::SDiv, Ty::I64, v, Value::i64(3));
            }
            let i2 = fb.add(Ty::I64, i, Value::i64(1));
            fb.br(header);
            fb.switch_to(exit);
            fb.ret(Some(s));
            // wire the phis now that the incoming values exist
            let func = fb.func();
            let hdr_insts = func.block(header).unwrap().insts.clone();
            use posetrl_ir::Op;
            if let Op::Phi { incomings, .. } = &mut func.inst_mut(hdr_insts[0]).unwrap().op {
                incomings.push((entry, Value::i64(0)));
                incomings.push((body, i2));
            }
            if let Op::Phi { incomings, .. } = &mut func.inst_mut(hdr_insts[1]).unwrap().op {
                incomings.push((entry, Value::i64(0)));
                incomings.push((body, v));
            }
        }
        mb.finish()
    }

    fn cycles_of(m: &Module, arch: TargetArch) -> f64 {
        let out = Interpreter::new(m).run("main", &[]);
        assert!(out.result.is_ok(), "{:?}", out.result);
        dynamic_cycles(m, &out.profile, arch)
    }

    #[test]
    fn more_iterations_cost_more() {
        for arch in TargetArch::ALL {
            let short = cycles_of(&loopy(10, false), arch);
            let long = cycles_of(&loopy(1000, false), arch);
            assert!(long > short * 50.0, "{arch}: {short} vs {long}");
        }
    }

    #[test]
    fn division_is_expensive_per_iteration() {
        for arch in TargetArch::ALL {
            let cheap = cycles_of(&loopy(500, false), arch);
            let pricey = cycles_of(&loopy(500, true), arch);
            assert!(pricey > cheap + 500.0 * 10.0, "{arch}: {cheap} vs {pricey}");
        }
    }

    #[test]
    fn unreached_code_costs_nothing() {
        for arch in TargetArch::ALL {
            let m = loopy(10, true);
            let out = Interpreter::new(&m).run("main", &[]);
            let base = dynamic_cycles(&m, &out.profile, arch);

            // add a never-called function: same profile, same cost
            let mut bigger = m.clone();
            {
                let mut mb_f = posetrl_ir::Function::new("cold", vec![], Ty::I64);
                let e = mb_f.entry;
                let a = mb_f.append_inst(
                    e,
                    posetrl_ir::Op::Bin {
                        op: BinOp::Mul,
                        ty: Ty::I64,
                        lhs: Value::i64(3),
                        rhs: Value::i64(4),
                    },
                );
                mb_f.append_inst(
                    e,
                    posetrl_ir::Op::Ret {
                        val: Some(Value::Inst(a)),
                    },
                );
                bigger.add_function(mb_f);
            }
            assert_eq!(base, dynamic_cycles(&bigger, &out.profile, arch));
        }
    }

    #[test]
    fn static_cycles_track_the_trip_count() {
        // identical instruction mix; only the (constant) trip bound differs,
        // so the frequency-weighted estimate must separate them while an
        // unweighted profile cannot
        let short = loopy(5, false);
        let long = loopy(50, false);
        for arch in TargetArch::ALL {
            let flat_short =
                static_cycles(&short, &posetrl_analyze::ModuleProfile::default(), arch);
            let flat_long = static_cycles(&long, &posetrl_analyze::ModuleProfile::default(), arch);
            assert_eq!(flat_short, flat_long, "flat costing is trip-blind");
            let w_short = static_cycles(
                &short,
                &posetrl_analyze::profile::of_scev(
                    posetrl_analyze::ModuleAnalyses::new(&short, None).scev(),
                ),
                arch,
            );
            let w_long = static_cycles(
                &long,
                &posetrl_analyze::profile::of_scev(
                    posetrl_analyze::ModuleAnalyses::new(&long, None).scev(),
                ),
                arch,
            );
            assert!(
                w_long > w_short * 2.0,
                "{arch}: trip 50 outweighs trip 5 ({w_short} vs {w_long})"
            );
            assert!(w_short > flat_short, "loop bodies are up-weighted");
        }
    }

    #[test]
    fn totals_are_deterministic() {
        let m = loopy(200, true);
        let out = Interpreter::new(&m).run("main", &[]);
        for arch in TargetArch::ALL {
            let a = dynamic_cycles(&m, &out.profile, arch);
            let b = dynamic_cycles(&m, &out.profile, arch);
            assert_eq!(a, b);
        }
    }
}
