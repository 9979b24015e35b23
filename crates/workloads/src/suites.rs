//! The benchmark suites: 130 training programs plus named MiBench /
//! SPEC CPU 2006 / SPEC CPU 2017 stand-ins.
//!
//! Each named benchmark gets the archetype that best matches the real
//! program's character (e.g. `519.lbm` is a numeric stencil kernel,
//! `541.leela` a recursive tree searcher, `557.xz` a streaming coder) and a
//! seed derived from its name, so every run of the harness sees the same
//! module.

use crate::{generate, ProgramKind, ProgramSpec, SizeClass};
use posetrl_ir::hash::fnv1a;
use posetrl_ir::Module;
use serde::{Deserialize, Serialize};

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// The 130-file training corpus (llvm-test-suite stand-in).
    Training,
    /// MiBench stand-ins.
    MiBench,
    /// SPEC CPU 2006 stand-ins.
    Spec2006,
    /// SPEC CPU 2017 stand-ins.
    Spec2017,
}

impl Suite {
    /// Display name used in reports (matches the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            Suite::Training => "llvm-test-suite",
            Suite::MiBench => "MiBench",
            Suite::Spec2006 => "SPEC-2006",
            Suite::Spec2017 => "SPEC-2017",
        }
    }
}

/// A named benchmark program.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Program name (e.g. `541.leela`).
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// The generation spec (kept for reproducibility reports).
    pub spec: ProgramSpec,
    /// The generated module.
    pub module: Module,
}

fn bench(name: &str, suite: Suite, kind: ProgramKind, size: SizeClass) -> Benchmark {
    let spec = ProgramSpec {
        name: name.to_string(),
        kind,
        size,
        seed: fnv1a(name.as_bytes()),
    };
    let module = generate(&spec);
    Benchmark {
        name: name.to_string(),
        suite,
        spec,
        module,
    }
}

/// The 130-program training corpus.
///
/// Cycles through all archetypes at small/medium scale with distinct seeds,
/// mirroring the diversity of llvm-test-suite's single-source programs.
pub fn training_suite() -> Vec<Benchmark> {
    let mut out = Vec::with_capacity(130);
    for i in 0..130u64 {
        let kind = ProgramKind::ALL[(i % ProgramKind::ALL.len() as u64) as usize];
        // mix scales so evaluation-sized programs are in-distribution
        let size = match i % 5 {
            0 | 3 => SizeClass::Medium,
            4 => SizeClass::Large,
            _ => SizeClass::Small,
        };
        let name = format!("train_{i:03}");
        let spec = ProgramSpec {
            name: name.clone(),
            kind,
            size,
            seed: 0xC0FFEE + i * 7919,
        };
        let module = generate(&spec);
        out.push(Benchmark {
            name,
            suite: Suite::Training,
            spec,
            module,
        });
    }
    out
}

/// MiBench stand-ins (embedded-style programs; the paper's Table IV rows).
pub fn mibench() -> Vec<Benchmark> {
    use ProgramKind::*;
    use SizeClass::*;
    let specs: [(&str, ProgramKind, SizeClass); 12] = [
        ("basicmath", NumericKernel, Small),
        ("bitcount", BitManip, Small),
        ("qsort", Recursive, Small),
        ("susan", NumericKernel, Medium),
        ("jpeg", Mixed, Medium),
        ("dijkstra", BranchyInteger, Small),
        ("patricia", BranchyInteger, Medium),
        ("stringsearch", Streaming, Small),
        ("blowfish", BitManip, Medium),
        ("sha", BitManip, Medium),
        ("crc32", BitManip, Small),
        ("fft", NumericKernel, Medium),
    ];
    specs
        .iter()
        .map(|(n, k, s)| bench(n, Suite::MiBench, *k, *s))
        .collect()
}

/// SPEC CPU 2006 stand-ins (the benchmarks of Fig. 5b/5d).
pub fn spec2006() -> Vec<Benchmark> {
    use ProgramKind::*;
    use SizeClass::*;
    let specs: [(&str, ProgramKind, SizeClass); 14] = [
        ("401.bzip2", Streaming, Large),
        ("429.mcf", BranchyInteger, Medium),
        ("433.milc", NumericKernel, Large),
        ("444.namd", NumericKernel, Large),
        ("445.gobmk", BranchyInteger, Large),
        ("450.soplex", Mixed, Large),
        ("453.povray", Mixed, Large),
        ("456.hmmer", StateMachine, Medium),
        ("458.sjeng", Recursive, Medium),
        ("462.libquantum", BitManip, Medium),
        ("464.h264ref", Mixed, Large),
        ("470.lbm", NumericKernel, Medium),
        ("473.astar", BranchyInteger, Medium),
        ("483.xalancbmk", CallHeavy, Large),
    ];
    specs
        .iter()
        .map(|(n, k, s)| bench(n, Suite::Spec2006, *k, *s))
        .collect()
}

/// SPEC CPU 2017 stand-ins (the benchmarks of Fig. 5a/5c).
pub fn spec2017() -> Vec<Benchmark> {
    use ProgramKind::*;
    use SizeClass::*;
    let specs: [(&str, ProgramKind, SizeClass); 13] = [
        ("500.perlbench", StateMachine, Large),
        ("505.mcf", BranchyInteger, Medium),
        ("508.namd", NumericKernel, Large),
        ("510.parest", NumericKernel, Large),
        ("511.povray", Mixed, Large),
        ("519.lbm", NumericKernel, Medium),
        ("520.omnetpp", CallHeavy, Large),
        ("523.xalancbmk", CallHeavy, Large),
        ("525.x264", Mixed, Large),
        ("531.deepsjeng", Recursive, Medium),
        ("538.imagick", NumericKernel, Large),
        ("541.leela", Recursive, Medium),
        ("557.xz", Streaming, Medium),
    ];
    specs
        .iter()
        .map(|(n, k, s)| bench(n, Suite::Spec2017, *k, *s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use posetrl_ir::interp::{InterpConfig, Interpreter};
    use posetrl_ir::verifier::verify_module;

    #[test]
    fn training_suite_has_130_distinct_programs() {
        let suite = training_suite();
        assert_eq!(suite.len(), 130);
        let names: std::collections::HashSet<&str> =
            suite.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names.len(), 130);
        for b in suite.iter().take(10) {
            verify_module(&b.module).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn validation_suites_are_disjoint_from_training() {
        // "we consider entirely different set of programs for validation"
        let train: std::collections::HashSet<String> =
            training_suite().iter().map(|b| b.name.clone()).collect();
        for b in mibench().iter().chain(&spec2006()).chain(&spec2017()) {
            assert!(!train.contains(&b.name));
        }
    }

    #[test]
    fn all_validation_benchmarks_verify_and_run() {
        for b in mibench().into_iter().chain(spec2006()).chain(spec2017()) {
            verify_module(&b.module).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let out = Interpreter::with_config(
                &b.module,
                InterpConfig {
                    fuel: 20_000_000,
                    max_depth: 512,
                },
            )
            .run("main", &[]);
            assert!(out.result.is_ok(), "{} failed: {:?}", b.name, out.result);
        }
    }

    #[test]
    fn suites_have_paper_coverage() {
        assert_eq!(mibench().len(), 12);
        assert_eq!(spec2006().len(), 14);
        assert_eq!(spec2017().len(), 13);
        assert!(spec2017().iter().any(|b| b.name == "541.leela"));
        assert!(spec2017().iter().any(|b| b.name == "520.omnetpp"));
        assert!(spec2006().iter().any(|b| b.name == "470.lbm"));
    }
}
