//! Pass-output bit-identity guard.
//!
//! Runs the passes whose internals were rewritten for speed (the alloca
//! escape set, the pure-callee set in place of a module snapshot, batched
//! use rewrites) and serve's hot 16-pass ODG action over a fixed corpus,
//! and compares a digest of every printed output with a table generated
//! before those rewrites. A rewrite that moves a single output bit fails
//! here, with the row it moved.
//!
//! Corpus: every MiBench, SPEC 2006 and SPEC 2017 stand-in, every 13th
//! training program (`train_000`, `train_013`, …, `train_117`: all eight
//! archetypes and all three size classes), and every hand-written `.pir`
//! under `examples/ir` and `tests/analyze` that parses and verifies. The
//! generated programs never store a stack address or pass one to a call;
//! the hand-written alias and dependence cases do, so they are what holds
//! the escape set to its old answers. Each rewritten pass runs
//! on three inputs per program: the generated module (alloca-heavy, as a
//! cold serve request arrives), the module after `mem2reg` (SSA values, so
//! SCCP has constants to fold), and the module after the hot action.
//!
//! To regenerate after an intended output change, run the test and paste
//! the table the failure prints over `EXPECTED`.

use posetrl_ir::hash::digest_str;
use posetrl_ir::parser::parse_module;
use posetrl_ir::printer::print_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::Module;
use posetrl_odg::ActionSpace;
use posetrl_opt::manager::PassManager;
use std::path::{Path, PathBuf};

/// The passes whose implementation the guarded rewrites touched.
const REWRITTEN: [&str; 8] = [
    "functionattrs",
    "rpo-functionattrs",
    "attributor",
    "ipsccp",
    "sccp",
    "sroa",
    "mem2reg",
    "dse",
];

/// ODG action 24 (index 23), the one the serving policy picks most.
const HOT_ACTION: usize = 23;

/// Row name → digest of every corpus program's printed output, in order.
const EXPECTED: &[(&str, &str)] = &[
    ("hot action", "fb30e6a0178ae5702513e7257c852c3a"),
    ("raw | functionattrs", "443d1200c640e1cd36073ddc647eb057"),
    (
        "raw | rpo-functionattrs",
        "443d1200c640e1cd36073ddc647eb057",
    ),
    ("raw | attributor", "443d1200c640e1cd36073ddc647eb057"),
    ("raw | ipsccp", "d693f33bc2a4d2e89ef454ba210d1c6a"),
    ("raw | sccp", "bd4eb6461ef5b6ec50c75cd6e0792a9e"),
    ("raw | sroa", "aaf27154396b9e1fcafecdc329617f1d"),
    ("raw | mem2reg", "aaf27154396b9e1fcafecdc329617f1d"),
    ("raw | dse", "2e0ee81f31319e91418d2d768e51f763"),
    (
        "mem2reg | functionattrs",
        "8265ede9f0b1b2eaa4e46ecdaaec7c48",
    ),
    (
        "mem2reg | rpo-functionattrs",
        "8265ede9f0b1b2eaa4e46ecdaaec7c48",
    ),
    ("mem2reg | attributor", "8265ede9f0b1b2eaa4e46ecdaaec7c48"),
    ("mem2reg | ipsccp", "12e6c94e6ff0178f0e21a576ec9bec5d"),
    ("mem2reg | sccp", "bf8852511dca31f4cf92c3e277bd8bae"),
    ("mem2reg | sroa", "aaf27154396b9e1fcafecdc329617f1d"),
    ("mem2reg | mem2reg", "aaf27154396b9e1fcafecdc329617f1d"),
    ("mem2reg | dse", "b6787925b753ee7f973875060f5d5d3d"),
    ("hot | functionattrs", "fb30e6a0178ae5702513e7257c852c3a"),
    (
        "hot | rpo-functionattrs",
        "fb30e6a0178ae5702513e7257c852c3a",
    ),
    ("hot | attributor", "fb30e6a0178ae5702513e7257c852c3a"),
    ("hot | ipsccp", "b298eba6213a20b0febab2ca21a55eba"),
    ("hot | sccp", "fb30e6a0178ae5702513e7257c852c3a"),
    ("hot | sroa", "fb30e6a0178ae5702513e7257c852c3a"),
    ("hot | mem2reg", "fb30e6a0178ae5702513e7257c852c3a"),
    ("hot | dse", "d6f1cdebcbd9afd0baa0455589cb95aa"),
];

fn corpus() -> Vec<(String, Module)> {
    let named = posetrl_workloads::mibench()
        .into_iter()
        .chain(posetrl_workloads::spec2006())
        .chain(posetrl_workloads::spec2017())
        .chain(posetrl_workloads::training_suite().into_iter().step_by(13));
    let mut out: Vec<(String, Module)> = named.map(|b| (b.name, b.module)).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["examples/ir", "tests/analyze"] {
        collect_pir(&root.join(dir), &mut files);
    }
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("a readable corpus file");
        if let Ok(m) = parse_module(&text) {
            if verify_module(&m).is_ok() {
                let name = path.strip_prefix(root).unwrap().display().to_string();
                out.push((name, m));
            }
        }
    }
    out
}

fn collect_pir(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a corpus directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            collect_pir(&path, out);
        } else if path.extension().is_some_and(|e| e == "pir") {
            out.push(path);
        }
    }
}

fn run(pm: &PassManager, m: &Module, passes: &[&str]) -> Module {
    let mut out = m.clone();
    for pass in passes {
        pm.run_pass(&mut out, pass).expect("a registered pass");
    }
    out
}

/// Folds one row's outputs, named by program, into one digest.
struct Row {
    name: String,
    text: String,
}

impl Row {
    fn add(&mut self, program: &str, m: &Module) {
        let d = digest_str(&print_module(m));
        self.text.push_str(&format!("{program} {d:032x}\n"));
    }

    fn digest(&self) -> String {
        format!("{:032x}", digest_str(&self.text))
    }
}

#[test]
fn rewritten_passes_and_the_hot_action_print_the_pinned_outputs() {
    let pm = PassManager::new();
    let space = ActionSpace::odg();
    let hot = space.subsequence(HOT_ACTION);
    assert_eq!(hot.len(), 16);
    assert_eq!(hot[3..6], ["functionattrs", "sroa", "early-cse"]);

    let inputs = ["raw", "mem2reg", "hot"];
    let mut rows: Vec<Row> = std::iter::once("hot action".to_string())
        .chain(
            inputs
                .iter()
                .flat_map(|i| REWRITTEN.iter().map(move |p| format!("{i} | {p}"))),
        )
        .map(|name| Row {
            name,
            text: String::new(),
        })
        .collect();

    let programs = corpus();
    assert_eq!(programs.len(), 141, "corpus size");
    for (name, raw) in &programs {
        let after_hot = run(&pm, raw, hot);
        rows[0].add(name, &after_hot);
        let starts = [raw.clone(), run(&pm, raw, &["mem2reg"]), after_hot];
        for (i, start) in starts.iter().enumerate() {
            for (j, pass) in REWRITTEN.iter().enumerate() {
                rows[1 + i * REWRITTEN.len() + j].add(name, &run(&pm, start, &[pass]));
            }
        }
    }

    let actual: Vec<(String, String)> = rows.iter().map(|r| (r.name.clone(), r.digest())).collect();
    let differing: Vec<&str> = actual
        .iter()
        .filter(|(name, d)| {
            EXPECTED
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, e)| e != d)
                .unwrap_or(true)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    let table: String = actual
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", \"{d}\"),\n"))
        .collect();
    assert!(
        differing.is_empty() && EXPECTED.len() == actual.len(),
        "pass outputs moved in rows {differing:?}; the table now reads:\n{table}"
    );
}
