//! `repro` as a shell pipeline sees it.

use std::process::{Command, Stdio};

/// Runs `binary` with `args` behind a pipe whose read end is closed long
/// before the binary starts writing: the shell holds the write end while
/// it sleeps.  Returns the exit status and stderr.
#[cfg(unix)]
fn with_closed_stdout(binary: &str, args: &str) -> (Option<i32>, String) {
    let mut child = Command::new("sh")
        .args(["-c", &format!("sleep 0.3; exec \"$0\" {args}")])
        .arg(binary)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for the binary");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

/// A reader that has gone away before `repro` writes (`repro --list |
/// true`, `repro | head -1`) ends the run quietly with status 0, not with
/// a panic and a backtrace.
#[cfg(unix)]
#[test]
fn a_closed_stdout_is_a_quiet_success() {
    let (status, stderr) = with_closed_stdout(env!("CARGO_BIN_EXE_repro"), "--list");
    assert_eq!(status, Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

/// The same for `table1_transitions`, which prints through the same
/// macros.
#[cfg(unix)]
#[test]
fn table1_transitions_exits_quietly_on_a_closed_stdout() {
    let (status, stderr) = with_closed_stdout(env!("CARGO_BIN_EXE_table1_transitions"), "");
    assert_eq!(status, Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
