//! `repro` as a shell pipeline sees it.

use std::process::{Command, Stdio};

/// A reader that has gone away before `repro` writes (`repro --list |
/// true`, `repro | head -1`) ends the run quietly with status 0, not with
/// a panic and a backtrace.
#[cfg(unix)]
#[test]
fn a_closed_stdout_is_a_quiet_success() {
    // The shell holds the pipe's write end while it sleeps; the read end is
    // closed long before `repro` starts writing into it.
    let mut child = Command::new("sh")
        .args(["-c", "sleep 0.3; exec \"$0\" --list"])
        .arg(env!("CARGO_BIN_EXE_repro"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
