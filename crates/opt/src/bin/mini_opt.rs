//! `mini-opt`: the workspace's answer to LLVM's `opt` tool.
//!
//! ```text
//! mini-opt [-passes | -O0|-O1|-O2|-O3|-Os|-Oz | -<pass>...]
//!          [--sanitize[=off|verify|validate|full]] [--stats] [file.ir]
//! ```
//!
//! Reads textual IR from the file (or stdin), applies the requested passes
//! or pipeline in order, and prints the optimized module. `-passes` lists
//! every registered pass. `--stats` prints instruction/block counts before
//! and after instead of the module text.
//!
//! Every run is sanitized: after each pass that changes the module the
//! verifier and lint suite re-run, attributing any breakage to the pass
//! that caused it. `--sanitize=validate` additionally attempts a static
//! refinement proof of every pass application (symbolic translation
//! validation), falling back to differential execution when inconclusive;
//! `--sanitize=full` executes the module before and after each pass and
//! compares observable behaviour, dumping a delta-reduced JSON repro on a
//! mismatch; `--sanitize=off` restores the old unchecked behaviour.
//!
//! Exit codes (shared with `mini-analyze`, see
//! `posetrl_analyze::exit_codes`): 0 clean, 1 findings (a pass was caught
//! breaking the module), 2 usage or I/O error.

use posetrl_analyze::{exit_codes, expect_verified, SanitizeLevel, Sanitizer};
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_opt::manager::{PassManager, PipelineError};
use posetrl_opt::pipelines;
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pm = PassManager::new();

    if args.iter().any(|a| a == "-passes") {
        for name in pm.pass_names() {
            println!("{name}");
        }
        return;
    }

    let mut passes: Vec<String> = Vec::new();
    let mut file: Option<String> = None;
    let mut stats = false;
    let mut level = SanitizeLevel::Verify;
    for a in args {
        if a == "--stats" {
            stats = true;
        } else if a == "--sanitize" {
            level = SanitizeLevel::Full;
        } else if let Some(l) = a.strip_prefix("--sanitize=") {
            level = SanitizeLevel::parse(l).unwrap_or_else(|e| {
                eprintln!("mini-opt: {e}");
                std::process::exit(exit_codes::USAGE);
            });
        } else if let Some(p) = pipelines::by_name(&a) {
            passes.extend(p.iter().map(|s| s.to_string()));
        } else if let Some(name) = a.strip_prefix('-') {
            passes.push(name.to_string());
        } else {
            file = Some(a);
        }
    }

    // reject a bad pass name before blocking on stdin for the input
    if let Some(bad) = passes.iter().find(|p| !pm.has_pass(p)) {
        eprintln!("mini-opt: unknown pass '{bad}' (see `mini-opt -passes`)");
        std::process::exit(exit_codes::USAGE);
    }

    let text = match file {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("mini-opt: cannot read {path}: {e}");
            std::process::exit(exit_codes::USAGE);
        }),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .expect("read stdin");
            buf
        }
    };

    let mut module = match parse_module(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mini-opt: parse error: {e}");
            std::process::exit(exit_codes::USAGE);
        }
    };
    if let Err(e) = posetrl_ir::verifier::verify_module(&module) {
        eprintln!("mini-opt: input does not verify: {e}");
        std::process::exit(exit_codes::USAGE);
    }

    // fail fast on malformed POSETRL_VALIDATE_* knobs instead of
    // silently sanitizing with the defaults
    if let Err(e) = posetrl_analyze::ValidateConfig::try_from_env() {
        eprintln!("mini-opt: {e}");
        std::process::exit(exit_codes::USAGE);
    }

    let before_insts = module.num_insts();
    let san = Sanitizer::new(level);
    match pm.run_pipeline_sanitized(&mut module, &passes, &san, None) {
        Ok(_) => {}
        Err(PipelineError::UnknownPass(e)) => unreachable!("checked before reading input: {e}"),
        Err(PipelineError::Sanitizer { pass, verdict }) => {
            eprintln!("mini-opt: INTERNAL ERROR — pass '{pass}' miscompiled the module");
            eprintln!("{}", verdict.render());
            if let Some(mc) = &verdict.miscompile {
                eprintln!("--- miscompile artifact (JSON) ---");
                eprintln!("{}", mc.to_json());
            }
            std::process::exit(exit_codes::FINDINGS);
        }
    }
    // with --sanitize=off the per-pass checks are skipped; keep the
    // historical end-of-run guarantee either way
    expect_verified(&module, "mini-opt output");

    if stats {
        println!("instructions: {before_insts} -> {}", module.num_insts());
        println!("functions:    {}", module.func_ids().count());
        println!("globals:      {}", module.global_ids().count());
    } else {
        print!("{}", print_module(&module));
    }
}
