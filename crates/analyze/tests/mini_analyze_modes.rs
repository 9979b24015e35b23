//! `mini-analyze` analysis modes: each `--<name>` flag of the analysis
//! table lints the example modules cleanly, and combining two mode flags
//! is a usage error rather than a silent precedence rule.

use posetrl_analyze::exit_codes;
use posetrl_analyze::suite::ANALYSES;
use std::path::PathBuf;
use std::process::Command;

fn example_modules() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/ir");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pir"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .pir files under {}", dir.display());
    files
}

fn mini_analyze(args: &[String], files: &[PathBuf]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mini-analyze"));
    cmd.args(args).args(files).arg("-q");
    cmd
}

fn exit_code(mut cmd: Command) -> i32 {
    cmd.output().unwrap().status.code().unwrap()
}

#[test]
fn each_mode_flag_lints_the_examples_cleanly() {
    let files = example_modules();
    for a in &ANALYSES {
        let args = [format!("--{}", a.name), "--deny".into(), "warnings".into()];
        let out = mini_analyze(&args, &files).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(exit_codes::CLEAN),
            "--{}: {}",
            a.name,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn two_mode_flags_are_a_usage_error() {
    let files = example_modules();
    for a in &ANALYSES {
        for b in &ANALYSES {
            let args = [format!("--{}", a.name), format!("--{}", b.name)];
            assert_eq!(
                exit_code(mini_analyze(&args, &files)),
                exit_codes::USAGE,
                "--{} --{}",
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn a_malformed_budget_knob_is_a_usage_error() {
    let mut cmd = mini_analyze(&["--alias".into()], &example_modules());
    cmd.env("POSETRL_ALIAS_ITERS", "banana");
    assert_eq!(exit_code(cmd), exit_codes::USAGE);
}
