//! The `posetrl-serve` binary.
//!
//! ```text
//! posetrl-serve --stdio [--train quick|standard] [--model FILE] [--save-model FILE]
//!               [--sanitize off|verify|validate|full] [--socket PATH]
//! posetrl-serve --emit-corpus N
//! posetrl-serve --check FILE --expect N [--digest]
//! ```
//!
//! Modes:
//!
//! - `--stdio`: serve one JSONL session on stdin/stdout (the CI smoke
//!   path). With `--socket PATH` the same sessions are also accepted on a
//!   Unix domain socket.
//! - `--emit-corpus N`: print N request lines over the workload corpus —
//!   the scripted client half of the smoke job.
//! - `--check FILE`: parse a response file strictly, require every
//!   response `ok`, and re-verify every returned module (sanitizer level
//!   `verify` semantics: IR verifier + dataflow lints). `--digest` prints
//!   a hash of the response modules so two runs can be compared for the
//!   bit-identical contract.
//!
//! Exit codes follow the shared scheme (`posetrl_analyze::exit_codes`):
//! 0 = every response ok / every check passed, 1 = findings (error
//! responses, failed checks), 2 = usage errors (bad flags, malformed
//! `POSETRL_SERVE_*` budgets, unreadable files).

use posetrl::{train, ActionSet, TrainedModel, TrainerConfig};
use posetrl_analyze::exit_codes::{CLEAN, FINDINGS, USAGE};
use posetrl_analyze::{SanitizeLevel, Sanitizer};
use posetrl_ir::parser::parse_module;
use posetrl_serve::protocol::{parse_response, Request, Response};
use posetrl_serve::server::{run_stdio, Server};
use posetrl_serve::ServeConfig;
use posetrl_target::TargetArch;
use std::sync::Arc;

struct Args {
    stdio: bool,
    socket: Option<String>,
    train: Option<String>,
    model: Option<String>,
    save_model: Option<String>,
    sanitize: SanitizeLevel,
    emit_corpus: Option<usize>,
    check: Option<String>,
    expect: Option<usize>,
    digest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: posetrl-serve --stdio [--train quick|standard] [--model FILE] [--save-model FILE]"
    );
    eprintln!("                     [--sanitize off|verify|validate|full] [--socket PATH]");
    eprintln!("       posetrl-serve --emit-corpus N");
    eprintln!("       posetrl-serve --check FILE --expect N [--digest]");
    std::process::exit(USAGE);
}

fn parse_args() -> Args {
    let mut args = Args {
        stdio: false,
        socket: None,
        train: None,
        model: None,
        save_model: None,
        sanitize: SanitizeLevel::Off,
        emit_corpus: None,
        check: None,
        expect: None,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--stdio" => args.stdio = true,
            "--socket" => args.socket = Some(value("--socket")),
            "--train" => args.train = Some(value("--train")),
            "--model" => args.model = Some(value("--model")),
            "--save-model" => args.save_model = Some(value("--save-model")),
            "--sanitize" => {
                let v = value("--sanitize");
                args.sanitize = SanitizeLevel::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(USAGE);
                });
            }
            "--emit-corpus" => {
                let v = value("--emit-corpus");
                args.emit_corpus = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--emit-corpus needs a count, got '{v}'");
                    std::process::exit(USAGE);
                }));
            }
            "--check" => args.check = Some(value("--check")),
            "--expect" => {
                let v = value("--expect");
                args.expect = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--expect needs a count, got '{v}'");
                    std::process::exit(USAGE);
                }));
            }
            "--digest" => args.digest = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();

    if let Some(n) = args.emit_corpus {
        emit_corpus(n);
        std::process::exit(CLEAN);
    }
    if let Some(path) = &args.check {
        std::process::exit(check(path, args.expect, args.digest));
    }
    if !args.stdio && args.socket.is_none() && args.save_model.is_none() {
        usage();
    }

    let cfg = ServeConfig::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(USAGE);
    });

    let model = load_model(&args);
    if let Some(path) = &args.save_model {
        if let Err(e) = std::fs::write(path, model.to_json()) {
            eprintln!("cannot write model to {path}: {e}");
            std::process::exit(USAGE);
        }
        eprintln!("[posetrl-serve] model saved to {path}");
        if !args.stdio && args.socket.is_none() {
            std::process::exit(CLEAN);
        }
    }

    let sanitizer = match args.sanitize {
        SanitizeLevel::Off => None,
        level => Some(Arc::new(Sanitizer::new(level))),
    };
    let server = Server::new(Arc::new(model), cfg, sanitizer);

    if let Some(path) = &args.socket {
        if args.stdio {
            eprintln!("[posetrl-serve] serving stdio and {path}");
            let sock_server = &server;
            let sock_path = std::path::PathBuf::from(path);
            std::thread::scope(|s| {
                s.spawn(move || {
                    if let Err(e) =
                        posetrl_serve::server::run_unix_socket(sock_server, &sock_path, None)
                    {
                        eprintln!("[posetrl-serve] socket error: {e}");
                    }
                });
                run_stdio_and_exit(&server);
            });
        } else {
            eprintln!("[posetrl-serve] serving {path}");
            let code = match posetrl_serve::server::run_unix_socket(
                &server,
                std::path::Path::new(path),
                None,
            ) {
                Ok(()) => CLEAN,
                Err(e) => {
                    eprintln!("[posetrl-serve] socket error: {e}");
                    USAGE
                }
            };
            std::process::exit(code);
        }
    } else {
        run_stdio_and_exit(&server);
    }
}

fn run_stdio_and_exit(server: &Server) -> ! {
    let stdin = std::io::stdin();
    match run_stdio(server, stdin.lock(), std::io::stdout()) {
        Ok(summary) => {
            eprintln!(
                "[posetrl-serve] session done: {} requests, {} ok, {} errors",
                summary.requests, summary.ok, summary.errors
            );
            std::process::exit(if summary.errors > 0 { FINDINGS } else { CLEAN });
        }
        Err(e) => {
            eprintln!("[posetrl-serve] transport error: {e}");
            std::process::exit(USAGE);
        }
    }
}

fn load_model(args: &Args) -> TrainedModel {
    if let Some(path) = &args.model {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read model {path}: {e}");
            std::process::exit(USAGE);
        });
        return TrainedModel::from_json(&json).unwrap_or_else(|e| {
            eprintln!("cannot parse model {path}: {e}");
            std::process::exit(USAGE);
        });
    }
    let cfg = match args.train.as_deref() {
        None | Some("quick") => TrainerConfig::quick(),
        Some("standard") => TrainerConfig::default(),
        Some(other) => {
            eprintln!("unknown --train '{other}' (quick|standard)");
            std::process::exit(USAGE);
        }
    };
    eprintln!(
        "[posetrl-serve] training policy ({:?} steps) ...",
        cfg.total_steps
    );
    let model = train(&cfg, ActionSet::odg(), &posetrl_workloads::training_suite());
    eprintln!(
        "[posetrl-serve] training done (mean reward {:.3})",
        model.final_mean_reward
    );
    model
}

fn emit_corpus(n: usize) {
    for (name, text) in posetrl_serve::corpus(n) {
        let req = Request {
            id: name,
            module: text,
            arch: TargetArch::X86_64,
            max_steps: None,
        };
        println!("{}", req.to_json());
    }
}

/// FNV-1a over the response module texts, for cross-run comparison.
fn modules_digest(modules: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in modules {
        for b in m.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn check(path: &str, expect: Option<usize>, digest: bool) -> i32 {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return USAGE;
        }
    };
    let mut findings = 0usize;
    let mut seen = 0usize;
    let mut modules = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        seen += 1;
        let resp = match parse_response(line) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}:{}: malformed response: {e}", lineno + 1);
                findings += 1;
                continue;
            }
        };
        match resp {
            Response::Err(e) => {
                eprintln!(
                    "{path}:{}: error response (id {:?}): {}",
                    lineno + 1,
                    e.id,
                    e.error
                );
                findings += 1;
            }
            Response::Ok(ok) => {
                let module = match parse_module(&ok.module) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!(
                            "{path}:{}: response module does not parse: {e:?}",
                            lineno + 1
                        );
                        findings += 1;
                        continue;
                    }
                };
                if let Err(e) = posetrl_ir::verifier::verify_module(&module) {
                    eprintln!("{path}:{}: response module fails verify: {e}", lineno + 1);
                    findings += 1;
                    continue;
                }
                // deny at warning and above (the `--deny warnings` bar);
                // note-severity lints are optimization opportunities and
                // expected to survive in optimized output
                let denied =
                    posetrl_analyze::run_all(&posetrl_analyze::ModuleAnalyses::new(&module, None))
                        .into_iter()
                        .filter(|d| d.severity >= posetrl_analyze::Severity::Warning)
                        .count();
                if denied > 0 {
                    eprintln!(
                        "{path}:{}: response module has {denied} lint finding(s) at warning+",
                        lineno + 1
                    );
                    findings += 1;
                    continue;
                }
                modules.push(ok.module);
            }
        }
    }
    if let Some(n) = expect {
        if seen != n {
            eprintln!("{path}: expected {n} responses, found {seen}");
            findings += 1;
        }
    }
    if digest {
        println!("modules-digest: {:016x}", modules_digest(&modules));
    }
    if findings == 0 {
        eprintln!("{path}: {seen} responses, all ok and verified");
        CLEAN
    } else {
        FINDINGS
    }
}
