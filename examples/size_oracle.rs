//! Phase-ordering landscape probe: compare `-Oz` against (a) random action
//! sequences and (b) a greedy 1-step size oracle over the ODG action space.
//! Shows why the search problem needs lookahead — the paper's motivation
//! for reinforcement learning. Covers MiBench, then SPEC 2017, with one
//! greedy average per suite.
//!
//! ```sh
//! cargo run --release --example size_oracle
//! ```

use posetrl::actions::ActionSet;
use posetrl_opt::manager::PassManager;
use posetrl_opt::pipelines;
use posetrl_target::{size::object_size, TargetArch};
use posetrl_workloads::{mibench, spec2017};

fn main() {
    let pm = PassManager::new();
    let actions = ActionSet::odg();
    let arch = TargetArch::X86_64;

    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10}",
        "benchmark", "Oz", "random", "greedy", "greedy Δ%"
    );
    for (suite, benches) in [("MiBench", mibench()), ("SPEC 2017", spec2017())] {
        let mut greedy_total = 0.0;
        for b in &benches {
            // -Oz baseline
            let mut oz = b.module.clone();
            pm.run_pipeline(&mut oz, &pipelines::oz()).unwrap();
            let oz_size = object_size(&oz, arch).total;

            // a fixed pseudo-random 15-action episode
            let mut random = b.module.clone();
            let mut h = 0x12345678u64 ^ b.name.len() as u64;
            for _ in 0..15 {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                let a = (h % actions.len() as u64) as usize;
                pm.run_pipeline(&mut random, &actions.passes(a)).unwrap();
            }
            let random_size = object_size(&random, arch).total;

            // greedy: at each step pick the action that shrinks the object most
            let mut cur = b.module.clone();
            for _ in 0..15 {
                let cur_size = object_size(&cur, arch).total;
                let mut best: Option<(u64, posetrl_ir::Module)> = None;
                for i in 0..actions.len() {
                    let mut trial = cur.clone();
                    pm.run_pipeline(&mut trial, &actions.passes(i)).unwrap();
                    let s = object_size(&trial, arch).total;
                    if best.as_ref().map(|(bs, _)| s < *bs).unwrap_or(true) {
                        best = Some((s, trial));
                    }
                }
                let (best_size, best_module) = best.unwrap();
                if best_size >= cur_size {
                    break; // greedy local optimum
                }
                cur = best_module;
            }
            let greedy_size = object_size(&cur, arch).total;
            let delta = 100.0 * (oz_size as f64 - greedy_size as f64) / oz_size as f64;
            greedy_total += delta;
            println!(
                "{:<16} {:>8} {:>10} {:>10} {:>+9.2}%",
                b.name, oz_size, random_size, greedy_size, delta
            );
        }
        println!(
            "greedy avg vs Oz on {suite}: {:+.2}%\n",
            greedy_total / benches.len() as f64
        );
    }
    println!("greedy 1-step lookahead gets trapped (inline must grow code before");
    println!("globaldce can shrink it) — the multi-step credit assignment the DQN learns.");
}
