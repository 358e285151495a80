//! What only a real process can show: exit codes, stderr, and a stdout that
//! closes while the report is still being written.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn lacc(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lacc"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn closed_stdout_is_quiet_and_only_argument_errors_print_usage() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let g = dir.join("process-path.el").display().to_string();
    // 20 000 label lines overflow a pipe buffer, so the writer below is
    // still writing when its reader leaves.
    let path: String = (0..19_999).map(|v| format!("{v} {}\n", v + 1)).collect();
    std::fs::write(&g, path).unwrap();

    // `lacc cc-dist g --ranks 4 --out /dev/stdout | head -1`.
    let mut child = lacc(&["cc-dist", &g, "--ranks", "4", "--out", "/dev/stdout"])
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.contains("components via lacc engine"), "{first}");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert_eq!(stderr_of(&out), "");

    // A run error is its one line; the usage text would not help.
    let out = lacc(&["cc-dist", &g, "--ranks", "3"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(err.starts_with("error: invalid ranks: 3 "), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");

    // An argument error is followed by the usage text, and `auto` is one.
    for cmd in ["cc-dist", "serve"] {
        let out = lacc(&[cmd, &g, "--engine", "auto"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1));
        let err = stderr_of(&out);
        let line = "error: invalid engine: \"auto\" is not one of lacc, fastsv, labelprop";
        assert_eq!(err.lines().next(), Some(line), "{err}");
        assert!(err.contains("usage:") && !err.contains("auto]"), "{err}");
    }
}
