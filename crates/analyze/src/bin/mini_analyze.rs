//! `mini-analyze`: run the lint suite over textual IR files and the
//! generated workload corpora, or symbolically validate a transform pair.
//!
//! ```text
//! mini-analyze [FILES...] [--corpus] [--suites] [--deny warnings|errors]
//!              [--level verify|validate|full]
//!              [--absint|--alias|--scev|--depend] [--json] [-q]
//! mini-analyze --validate SRC.pir TGT.pir [--json] [-q]
//! ```
//!
//! - `FILES` are `.pir` modules in the workspace textual format.
//! - `--corpus` additionally checks every program of the training suite.
//! - `--suites` additionally checks MiBench, SPEC 2006 and SPEC 2017.
//! - `--deny warnings` (default `errors`) exits nonzero when any finding
//!   at or above the threshold is reported; notes never fail the run.
//! - `--absint`, `--alias`, `--scev` or `--depend` (a row of
//!   [`posetrl_analyze::suite::ANALYSES`]; one per run, a second mode
//!   flag is a usage error) switches to that analysis's mode: its facts
//!   are dumped in the stable textual format of the module's `render`,
//!   and only its lints contribute findings. Exit codes are unchanged.
//! - `--list-lints` prints the full lint registry (code, severity,
//!   producing analysis) as JSON and exits 0.
//! - `--json` prints one JSON object per module instead of text lines.
//! - `--level` is accepted for symmetry with the engine flags; all
//!   levels run the same static suite here (differential execution needs
//!   a pass pipeline, which file linting does not have).
//! - `--validate SRC TGT` runs the symbolic translation validator on the
//!   pair: `SRC` is the pre-transform module and `TGT` the post-transform
//!   module. Each function in `TGT` gets a `proved`, `refuted` (with an
//!   interpreter-confirmed counterexample) or `inconclusive` verdict.
//!   Budgets come from the `POSETRL_VALIDATE_*` environment knobs.
//!
//! Exit codes (shared with `mini_opt`, see
//! [`posetrl_analyze::exit_codes`]): 0 clean (in `--validate` mode:
//! no refutations — `inconclusive` is not a finding), 1 findings
//! (denied diagnostics or refuted functions), 2 usage or I/O error.

use posetrl_analyze::suite::{self, Analysis};
use posetrl_analyze::{
    exit_codes, run_all, validate_transform, Diagnostic, SanitizeLevel, Severity, ValidateConfig,
    Verdict,
};
use posetrl_ir::parser::parse_module;
use posetrl_ir::verifier::verify_module;
use posetrl_ir::Module;
use posetrl_workloads::suites::{mibench, spec2006, spec2017, training_suite};
use std::process::ExitCode;

struct Options {
    files: Vec<String>,
    validate_pair: Option<(String, String)>,
    corpus: bool,
    suites: bool,
    analysis: Option<&'static Analysis>,
    deny: Severity,
    json: bool,
    quiet: bool,
}

fn usage() -> ! {
    let modes: Vec<String> = suite::ANALYSES
        .iter()
        .map(|a| format!("--{}", a.name))
        .collect();
    eprintln!(
        "usage: mini-analyze [FILES...] [--corpus] [--suites] \
         [--deny warnings|errors] [--level verify|validate|full] [{}] [--json] [-q]\n\
         \x20      mini-analyze --validate SRC.pir TGT.pir [--json] [-q]\n\
         \x20      mini-analyze --list-lints",
        modes.join("|")
    );
    std::process::exit(exit_codes::USAGE);
}

fn parse_args() -> Options {
    let mut opts = Options {
        files: Vec::new(),
        validate_pair: None,
        corpus: false,
        suites: false,
        analysis: None,
        deny: Severity::Error,
        json: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => opts.corpus = true,
            "--suites" => opts.suites = true,
            "--list-lints" => {
                let out = serde_json::to_string_pretty(&posetrl_analyze::diag::registry())
                    .expect("registry serializes");
                println!("{out}");
                std::process::exit(exit_codes::CLEAN);
            }
            "--json" => opts.json = true,
            "-q" | "--quiet" => opts.quiet = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => opts.deny = Severity::Warning,
                Some("errors") => opts.deny = Severity::Error,
                _ => usage(),
            },
            "--validate" => {
                let (Some(src), Some(tgt)) = (args.next(), args.next()) else {
                    usage();
                };
                opts.validate_pair = Some((src, tgt));
            }
            "--level" => {
                let Some(raw) = args.next() else { usage() };
                let level = SanitizeLevel::parse(&raw).unwrap_or_else(|e| {
                    eprintln!("mini-analyze: {e}");
                    std::process::exit(exit_codes::USAGE);
                });
                if level == SanitizeLevel::Off {
                    eprintln!("mini-analyze: --level off disables nothing here; ignoring");
                }
            }
            "-h" | "--help" => usage(),
            _ if arg.starts_with('-') => {
                let Some(a) = arg.strip_prefix("--").and_then(suite::find) else {
                    usage()
                };
                if let Some(first) = opts.analysis.replace(a) {
                    eprintln!(
                        "mini-analyze: {arg} cannot be combined with --{}",
                        first.name
                    );
                    std::process::exit(exit_codes::USAGE);
                }
            }
            _ => opts.files.push(arg),
        }
    }
    if opts.files.is_empty() && !opts.corpus && !opts.suites && opts.validate_pair.is_none() {
        usage();
    }
    opts
}

/// Lints one module; returns the diagnostics at or above the deny level.
fn lint(name: &str, m: &Module, opts: &Options) -> Vec<Diagnostic> {
    let mut dump = None;
    let diags = match (verify_module(m), opts.analysis) {
        (Ok(()), Some(a)) => {
            let mut out = Vec::new();
            dump = Some((a.report)(m, &mut out));
            posetrl_analyze::analyses::sort_report(&mut out);
            out
        }
        (Ok(()), None) => run_all(m),
        (Err(e), _) => {
            // surface verifier failures through the same reporting path
            vec![Diagnostic::error(
                posetrl_analyze::codes::VERIFY,
                e.loc.clone(),
                e.message.clone(),
            )]
        }
    };
    if opts.json {
        let payload = serde_json::json!({
            "module": name,
            "facts": dump,
            "diagnostics": &diags,
        });
        println!("{payload}");
    } else if !opts.quiet {
        if let Some(dump) = &dump {
            print!("{dump}");
        }
        for d in &diags {
            println!("{name}: {d}");
        }
    }
    diags
        .into_iter()
        .filter(|d| d.severity >= opts.deny)
        .collect()
}

fn load(path: &str) -> Module {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("mini-analyze: cannot read {path}: {e}");
        std::process::exit(exit_codes::USAGE);
    });
    parse_module(&text).unwrap_or_else(|e| {
        eprintln!("mini-analyze: parse error in {path}: {e}");
        std::process::exit(exit_codes::USAGE);
    })
}

/// `--validate SRC TGT`: symbolic refinement check of a transform pair.
fn run_validate(src_path: &str, tgt_path: &str, opts: &Options) -> ExitCode {
    let src = load(src_path);
    let tgt = load(tgt_path);
    let cfg = ValidateConfig::try_from_env().unwrap_or_else(|e| {
        eprintln!("mini-analyze: {e}");
        std::process::exit(exit_codes::USAGE);
    });
    let mv = validate_transform(&src, &tgt, &cfg);

    if opts.json {
        let funcs: Vec<serde_json::Value> = mv
            .funcs
            .iter()
            .map(|fv| {
                let (verdict, detail) = match &fv.verdict {
                    Verdict::Proved => ("proved", serde_json::Value::Null),
                    Verdict::Refuted(cex) => (
                        "refuted",
                        serde_json::json!({
                            "entry": cex.entry,
                            "args": cex.args.iter().map(|a| format!("{a:?}")).collect::<Vec<_>>(),
                            "src_obs": cex.src_obs,
                            "tgt_obs": cex.tgt_obs,
                        }),
                    ),
                    Verdict::Inconclusive(why) => {
                        ("inconclusive", serde_json::Value::String(why.clone()))
                    }
                };
                serde_json::json!({ "function": fv.name, "verdict": verdict, "detail": detail })
            })
            .collect();
        let payload = serde_json::json!({
            "src": src_path,
            "tgt": tgt_path,
            "proved": mv.proved(),
            "refuted": mv.refuted(),
            "inconclusive": mv.inconclusive(),
            "functions": funcs,
        });
        println!("{payload}");
    } else {
        for fv in &mv.funcs {
            match &fv.verdict {
                Verdict::Proved => {
                    if !opts.quiet {
                        println!("{}: proved", fv.name);
                    }
                }
                Verdict::Refuted(cex) => {
                    println!("{}: REFUTED", fv.name);
                    println!("  entry: {} args: {:?}", cex.entry, cex.args);
                    println!("  source observed:    {}", cex.src_obs);
                    println!("  optimized observed: {}", cex.tgt_obs);
                }
                Verdict::Inconclusive(why) => {
                    if !opts.quiet {
                        println!("{}: inconclusive ({why})", fv.name);
                    }
                }
            }
        }
    }
    if !opts.quiet {
        eprintln!(
            "mini-analyze: validate {src_path} -> {tgt_path}: {} proved, {} refuted, {} inconclusive",
            mv.proved(),
            mv.refuted(),
            mv.inconclusive()
        );
    }
    if mv.refuted() > 0 {
        ExitCode::from(exit_codes::FINDINGS as u8)
    } else {
        ExitCode::from(exit_codes::CLEAN as u8)
    }
}

fn main() -> ExitCode {
    let opts = parse_args();

    if let Some((src, tgt)) = opts.validate_pair.clone() {
        if !opts.files.is_empty() || opts.corpus || opts.suites {
            eprintln!("mini-analyze: --validate cannot be combined with lint inputs");
            return ExitCode::from(exit_codes::USAGE as u8);
        }
        return run_validate(&src, &tgt, &opts);
    }

    let mut failures = 0usize;
    let mut modules = 0usize;

    for path in &opts.files {
        let m = load(path);
        modules += 1;
        failures += lint(path, &m, &opts).len();
    }

    let mut benches = Vec::new();
    if opts.corpus {
        benches.extend(training_suite());
    }
    if opts.suites {
        benches.extend(mibench());
        benches.extend(spec2006());
        benches.extend(spec2017());
    }
    for b in &benches {
        modules += 1;
        failures += lint(&b.name, &b.module, &opts).len();
    }

    if !opts.quiet {
        eprintln!(
            "mini-analyze: {modules} modules, {failures} findings at or above the deny level"
        );
    }
    if failures > 0 {
        ExitCode::from(exit_codes::FINDINGS as u8)
    } else {
        ExitCode::from(exit_codes::CLEAN as u8)
    }
}
