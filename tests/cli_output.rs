//! The CLI as a Unix filter: a reader that stops early must not make
//! `stramash-cli` panic. Every command's stdout goes through one helper
//! that turns a broken pipe into a quiet exit with status 0.

#![deny(unsafe_code)]

use std::process::{Command, Stdio};

/// Runs the binary with stdout connected to a pipe whose read end is
/// already closed, so its very first write fails with `EPIPE` — the
/// deterministic form of `stramash-cli … | head -1`.
fn run_with_closed_stdout(args: &[&str]) -> (std::process::ExitStatus, String) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_stramash-cli"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    (out.status, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn closed_stdout_exits_zero_without_a_panic() {
    let args = ["serve", "--requests", "200", "--keyspace", "100", "--loads", "2,10,40"];
    let (status, stderr) = run_with_closed_stdout(&args);
    assert!(!stderr.contains("panicked"), "the CLI panicked on a closed stdout:\n{stderr}");
    assert_eq!(status.code(), Some(0), "stderr:\n{stderr}");
}
