//! Output quality: the served policy against `-Oz`, as in the paper's
//! Tables IV and V.
//!
//! Every workload sends the 12 MiBench stand-ins to a server running the
//! policy `posetrl-serve` trains by default (`quick_model()`) and compares
//! each checked output with `-Oz` on the same input: object size
//! (`object_size`, x86-64) and interpreter dynamic cycles. The policy's
//! training, the passes, the embedding and the measurements are all
//! deterministic, so both ratios are functions of the code alone: they
//! repeat bit for bit at every seed, and a change that optimises less
//! moves them.

use crate::corpus;
use crate::serve::{request, round_trip, ARCH};
use crate::stats::ratio_vs_oz;
use posetrl_ir::printer::print_module;
use posetrl_opt::manager::PassManager;
use posetrl_opt::pipelines;
use posetrl_serve::protocol::Response;
use posetrl_serve::Server;
use posetrl_target::runtime::dynamic_cycles;
use posetrl_target::size::object_size;
use posetrl_workloads::mibench;

/// `geomean(out / oz)` of the checked outputs; below 1 is better than
/// `-Oz`.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub size_ratio: f64,
    pub runtime_ratio: f64,
}

/// Sends the MiBench stand-ins to `server` one at a time and checks each
/// output against the interpreter run of its input. Returns the ratios
/// over the outputs that pass, the number of outputs checked, and why
/// each failing one failed.
pub fn served(server: &Server) -> (Quality, u64, Vec<String>) {
    let benches = mibench();
    let outputs: Vec<Result<String, String>> = benches
        .iter()
        .map(|b| {
            let req = request(format!("mibench-{}", b.name), print_module(&b.module));
            match round_trip(server, &req) {
                Ok(Response::Ok(ok)) => Ok(ok.module),
                Ok(Response::Err(e)) => Err(e.error.to_string()),
                Err(e) => Err(format!("bad response: {e}")),
            }
        })
        .collect();
    type Pair = (f64, f64);
    let rows = corpus::par_map(benches.len(), |i| -> Result<(Pair, Pair), String> {
        let input = &benches[i].module;
        let (out, run) = corpus::check(outputs[i].as_ref()?, &corpus::run(input).observation())?;
        let mut oz = input.clone();
        PassManager::new()
            .run_pipeline(&mut oz, &pipelines::oz())
            .map_err(|e| format!("the Oz pipeline fails: {e:?}"))?;
        let oz_cycles = dynamic_cycles(&oz, &corpus::run(&oz).profile, ARCH);
        Ok((
            (
                object_size(&out, ARCH).total as f64,
                object_size(&oz, ARCH).total as f64,
            ),
            (dynamic_cycles(&out, &run.profile, ARCH), oz_cycles),
        ))
    });
    let mut failures = Vec::new();
    let (mut size, mut cycles) = (Vec::new(), Vec::new());
    for (b, row) in benches.iter().zip(rows) {
        match row {
            Ok((s, c)) => {
                size.push(s);
                cycles.push(c);
            }
            Err(e) => failures.push(format!("mibench {}: {e}", b.name)),
        }
    }
    let quality = Quality {
        size_ratio: ratio_vs_oz(&size),
        runtime_ratio: ratio_vs_oz(&cycles),
    };
    (quality, benches.len() as u64, failures)
}
