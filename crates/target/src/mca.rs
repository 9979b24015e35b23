//! Static throughput analysis (the stand-in for `llvm-mca`).
//!
//! Like `llvm-mca`, this is a purely static model of the target pipeline:
//! each basic block is pushed through a dispatch-width-limited, in-order
//! dispatch / out-of-order issue machine with per-op latencies, per-class
//! port counts, and a single non-pipelined divide unit. Data dependencies
//! within a block serialize on result latency; cross-block values are
//! treated as ready (they come from registers), exactly as `llvm-mca` sees
//! straight-line machine code.
//!
//! The reward signal is [`McaReport::flat_cycles`], every block costed
//! once: `llvm-mca` analyzes machine code with no loop-nest information,
//! and calibration showed that loop-weighting the reward lets the agent
//! game Eqn 3 by unrolling everything into code the paper's setup could
//! never see a win from. The frequency-weighted static cost lives in
//! [`crate::runtime::static_cycles`].

use crate::tables::{inst_cost, machine, Resource};
use crate::TargetArch;
use posetrl_ir::{InstId, Module, Value};
use std::collections::HashMap;

/// The result of a static throughput analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McaReport {
    /// Sum of per-block cycle estimates, every block counted once.
    pub flat_cycles: f64,
    /// Micro-ops dispatched across the whole module.
    pub uops: u64,
    /// Dispatched micro-ops per cycle over the flat total (IPC-like; the
    /// "higher throughput = lesser runtime" quantity of Eqn 3).
    pub throughput: f64,
}

/// Statically analyzes `module` for `arch`.
///
/// Deterministic: repeated calls on the same module return bit-identical
/// reports (block and instruction iteration follow arena order, never hash
/// order), which the environment's delta-based rewards rely on.
pub fn analyze(module: &Module, arch: TargetArch) -> McaReport {
    let desc = machine(arch);
    let mut flat = 0.0f64;
    let mut uops = 0u64;

    for fid in module.func_ids() {
        let f = module.func(fid).expect("live function");
        if f.is_decl {
            continue;
        }
        for bid in f.block_ids() {
            let block = f.block(bid).expect("live block");
            if block.insts.is_empty() {
                continue;
            }
            let (cycles, block_uops) = simulate_block(f, &block.insts, arch, &desc);
            flat += cycles;
            uops += block_uops;
        }
    }

    let throughput = if flat > 0.0 {
        uops as f64 / flat
    } else {
        // an empty module runs at full dispatch width, vacuously
        desc.dispatch_width as f64
    };
    McaReport {
        flat_cycles: flat,
        uops,
        throughput,
    }
}

/// Simulates one basic block; returns (cycles, uops).
fn simulate_block(
    f: &posetrl_ir::Function,
    insts: &[InstId],
    arch: TargetArch,
    desc: &crate::tables::MachineDesc,
) -> (f64, u64) {
    // next-free cycle per port, per resource class
    let mut ports: [Vec<f64>; 5] = [
        vec![0.0; desc.ports(Resource::Alu) as usize],
        vec![0.0; desc.ports(Resource::Mem) as usize],
        vec![0.0; desc.ports(Resource::Fp) as usize],
        vec![0.0; desc.ports(Resource::Branch) as usize],
        vec![0.0; desc.ports(Resource::Div) as usize],
    ];
    let class = |r: Resource| match r {
        Resource::Alu => 0usize,
        Resource::Mem => 1,
        Resource::Fp => 2,
        Resource::Branch => 3,
        Resource::Div => 4,
    };

    let mut ready: HashMap<InstId, f64> = HashMap::new();
    let mut dispatched = 0u64;
    let mut finish_max = 0.0f64;

    for &iid in insts {
        let op = f.op(iid);
        let cost = inst_cost(op, arch);

        // operands produced earlier in this block gate issue; everything
        // else (arguments, phis, other blocks) is already in a register
        let mut dep_ready = 0.0f64;
        for v in op.operands() {
            if let Value::Inst(def) = v {
                if let Some(&t) = ready.get(&def) {
                    dep_ready = dep_ready.max(t);
                }
            }
        }

        // in-order dispatch: `dispatch_width` uops enter per cycle
        let dispatch_cycle = (dispatched / desc.dispatch_width as u64) as f64;
        dispatched += cost.uops as u64;

        // structural hazard: the least-loaded port of the class
        let bank = &mut ports[class(cost.resource)];
        let mut port = 0usize;
        for (i, &t) in bank.iter().enumerate() {
            if t < bank[port] {
                port = i;
            }
        }
        let issue = dep_ready.max(dispatch_cycle).max(bank[port]);

        // pipelined units accept one uop per cycle; the divider blocks for
        // its full occupancy
        bank[port] = issue
            + match cost.resource {
                Resource::Div => cost.latency,
                _ => cost.uops as f64,
            };

        let finish = issue + cost.latency;
        ready.insert(iid, finish);
        finish_max = finish_max.max(finish);
    }

    let drain = (dispatched as f64 / desc.dispatch_width as f64).ceil();
    (finish_max.max(drain).max(1.0), dispatched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::builder::ModuleBuilder;
    use posetrl_ir::{BinOp, Ty, Value};

    fn straightline(n_adds: usize, with_div: bool) -> Module {
        let mut mb = ModuleBuilder::new("mca");
        let f = mb.begin_function("main", vec![], Ty::I64);
        {
            let mut fb = mb.func_builder(f);
            let mut acc = Value::i64(1);
            for i in 0..n_adds {
                acc = fb.add(Ty::I64, acc, Value::i64(i as i64 % 7));
            }
            if with_div {
                acc = fb.bin(BinOp::SDiv, Ty::I64, acc, Value::i64(3));
            }
            fb.ret(Some(acc));
        }
        mb.finish()
    }

    #[test]
    fn reports_are_finite_and_positive() {
        for arch in TargetArch::ALL {
            let r = analyze(&straightline(10, true), arch);
            assert!(r.flat_cycles.is_finite() && r.flat_cycles > 0.0);
            assert!(r.throughput.is_finite() && r.throughput > 0.0);
        }
    }

    #[test]
    fn dependent_chain_costs_more_than_dispatch_bound() {
        // 40 chained adds: latency 1 each, fully serialized => >= 40 cycles,
        // far above the 40/width dispatch bound
        let r = analyze(&straightline(40, false), TargetArch::X86_64);
        assert!(
            r.flat_cycles >= 40.0,
            "dependency chain serializes: {}",
            r.flat_cycles
        );
    }

    #[test]
    fn divider_occupancy_dominates_a_division_chain() {
        let without = analyze(&straightline(5, false), TargetArch::X86_64);
        let with = analyze(&straightline(5, true), TargetArch::X86_64);
        assert!(
            with.flat_cycles > without.flat_cycles + 15.0,
            "one sdiv adds the divider latency: {} vs {}",
            with.flat_cycles,
            without.flat_cycles
        );
    }

    #[test]
    fn narrower_dispatch_is_never_faster() {
        // AArch64 (3-wide, fewer ALU ports, in the same cost family) should
        // not beat x86-64 on identical IR
        for n in [5usize, 20, 60] {
            let m = straightline(n, false);
            let x = analyze(&m, TargetArch::X86_64);
            let a = analyze(&m, TargetArch::AArch64);
            assert!(
                a.flat_cycles >= x.flat_cycles * 0.99,
                "{n} adds: {} vs {}",
                a.flat_cycles,
                x.flat_cycles
            );
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let m = straightline(30, true);
        for arch in TargetArch::ALL {
            let a = analyze(&m, arch);
            let b = analyze(&m, arch);
            assert_eq!(a, b, "bit-identical reports on repeated analysis");
        }
    }
}
