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

#[test]
fn a_binary_header_claiming_more_edges_than_the_file_holds_is_one_error_line() {
    // n = 1, m = 2^60 and no edge bytes: `m · 16` wraps to 0.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let g = dir.join("process-evil.bin");
    let mut bytes = 0x4C41_4343u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
    std::fs::write(&g, bytes).unwrap();

    let out = lacc(&["stats", &g.display().to_string()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("truncated edge section"), "{err}");
}

#[test]
fn a_vertex_count_past_u32_is_one_error_line_not_an_abort() {
    // A header with n = u64::MAX and m = 0 (`n + 1` wraps), and one edge
    // whose `max id + 1` wraps to 0.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let bin = dir.join("process-huge-n.bin");
    let mut bytes = 0x4C41_4343u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&bin, bytes).unwrap();
    let text = dir.join("process-huge-id.el");
    std::fs::write(&text, "0 18446744073709551615\n").unwrap();

    for g in [bin, text] {
        let out = lacc(&["stats", &g.display().to_string()]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
        let err = stderr_of(&out);
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.starts_with("error: "), "{err}");
        assert!(err.contains("vertex ids as u32"), "{err}");
    }
}

/// The value of a top-level `"key": value` line of a one-key-per-line JSON
/// report.
fn report_field<'a>(json: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": ");
    json.lines()
        .find_map(|l| l.trim().strip_prefix(tag.as_str()))
        .unwrap_or_else(|| panic!("report has no {key}: {json}"))
        .trim_end_matches(',')
}

#[test]
fn serving_a_scripted_workload_with_deletions_stays_oracle_consistent() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = |name: &str| dir.join(name).display().to_string();
    let (g, report, trace) = (
        path("serve-smoke.mtx"),
        path("serve-report.json"),
        path("serve-trace.json"),
    );
    let generate = lacc(&[
        "generate", "rmat", "--scale", "10", "--seed", "13", "--out", &g,
    ])
    .output()
    .unwrap();
    assert_eq!(generate.status.code(), Some(0), "{}", stderr_of(&generate));

    #[rustfmt::skip]
    let out = lacc(&[
        "serve", &g, "--ranks", "4", "--batches", "8", "--batch-size", "32",
        "--queries-per-batch", "64", "--delete-every", "3",
        "--report", &report, "--trace", &trace,
    ])
    .output()
    .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    let json = std::fs::read_to_string(&report).unwrap();
    let number = |key: &str| -> f64 {
        let v = report_field(&json, key);
        v.parse()
            .unwrap_or_else(|_| panic!("{key} = {v} is not a number"))
    };
    for key in [
        "updates_per_s",
        "queries_per_s",
        "modeled_query_p50_s",
        "modeled_query_p99_s",
        "reruns",
        "deletion_reruns",
        "staleness_reruns",
    ] {
        number(key);
    }
    assert_eq!(report_field(&json, "answers_consistent"), "true", "{json}");
    assert!(
        number("reruns") >= 1.0,
        "deletions never triggered a rebuild"
    );
    assert!(number("modeled_query_p99_s") >= number("modeled_query_p50_s"));
    assert_eq!(
        report_field(&json, "engine"),
        "\"lacc\"",
        "the default rebuild engine moved"
    );

    let spans = std::fs::read_to_string(&trace).unwrap();
    assert!(
        spans.contains("\"rerun(deletion)\""),
        "no tagged rerun spans"
    );
}
