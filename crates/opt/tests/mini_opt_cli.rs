//! `mini_opt` command-line contract: a bad pass name is a usage error
//! reported before the input is read, so it never waits on stdin.

use posetrl_analyze::exit_codes;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn unknown_pass_is_a_usage_error_without_reading_stdin() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mini_opt"))
        .arg("-frobnicate")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // hold stdin open: a run that reads its input first blocks forever
    let _stdin = child.stdin.take().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("mini_opt -frobnicate blocked on stdin instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(exit_codes::USAGE),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("unknown pass 'frobnicate'"),
        "stderr: {stderr}"
    );
}
