//! What only a real process can show: exit codes, stderr, and a stdout that
//! closes while the report is still being written.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
    let out = lacc(&["cc", &g, "--algo", "bfs"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    let line = "error: invalid algorithm: \"bfs\" is not one of lacc, unionfind, fastsv";
    assert_eq!(err.lines().next(), Some(line), "{err}");
    assert!(err.contains("usage:") && !err.contains("|bfs"), "{err}");
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

/// Runs `lacc args`, killing it if it has not exited within ten seconds,
/// so an input that hangs fails its case instead of stalling the suite.
fn output_within_deadline(args: &[&str]) -> Output {
    within_deadline(lacc(args), args)
}

/// Runs `cmd` (which is `lacc args`, maybe wrapped) under the ten-second
/// deadline.
fn within_deadline(mut cmd: Command, args: &[&str]) -> Output {
    let mut child = cmd.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("lacc {args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// `lacc args` exits 1 with one `error:` line containing `needle`.
fn refused(args: &[&str], needle: &str) {
    check_refusal(output_within_deadline(args), args, needle);
}

/// `out`, the output of `lacc args`, is exit 1 with one `error:` line
/// containing `needle`.
fn check_refusal(out: Output, args: &[&str], needle: &str) {
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "lacc {args:?}: {err}");
    assert_eq!(err.lines().count(), 1, "lacc {args:?}: {err}");
    assert!(err.starts_with("error: ") && err.contains(needle), "{err}");
}

/// `lacc generate <family> <flags> --out <scratch>`, which no refusal may
/// write.
fn generate(family: &str, flags: &[&str], needle: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let g = dir.join(format!("process-refused-{family}-{}.el", flags.join("")));
    let out = g.display().to_string();
    refused(
        &[&["generate", family, "--out", &out], flags].concat(),
        needle,
    );
    assert!(!g.exists(), "a refusal wrote {out}");
}

#[test]
fn generate_refuses_zero_components() {
    generate(
        "community",
        &["--n", "10", "--components", "0"],
        "components",
    );
}

#[test]
fn generate_refuses_more_components_than_vertices() {
    generate(
        "community",
        &["--n", "10", "--components", "20"],
        "20 components cannot split 10 vertices",
    );
}

#[test]
fn generate_refuses_a_negative_degree() {
    generate("community", &["--n", "10", "--degree", "-1"], "degree");
}

#[test]
fn generate_refuses_a_nan_degree() {
    generate("community", &["--n", "10", "--degree", "nan"], "degree");
}

#[test]
fn generate_refuses_an_rmat_scale_past_usize() {
    generate("rmat", &["--scale", "64"], "vertex ids as u32");
}

#[test]
fn generate_refuses_an_rmat_scale_past_u32() {
    generate("rmat", &["--scale", "40"], "vertex ids as u32");
}

#[test]
fn generate_refuses_a_mesh_past_u32() {
    generate("mesh3d", &["--n", "100000000000"], "vertex ids as u32");
}

/// `lacc generate <family> <flags>` in a 2 GB address space: a size `u32`
/// holds but the host cannot allocate is one `error:` line and exit 1, not
/// an abort.
fn generate_in_2gb(family: &str, flags: &[&str], needle: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let g = dir.join(format!("process-2gb-{family}.el"));
    let out = g.display().to_string();
    let args = [&["generate", family, "--out", &out], flags].concat();
    let mut cmd = Command::new("sh");
    let script = "ulimit -v 2000000; exec \"$0\" \"$@\"";
    cmd.args(["-c", script, env!("CARGO_BIN_EXE_lacc")])
        .args(&args);
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    check_refusal(within_deadline(cmd, &args), &args, needle);
    assert!(!g.exists(), "a refusal wrote {out}");
}

#[test]
fn generate_refuses_an_rmat_the_host_cannot_hold() {
    let flags = ["--scale", "31", "--edge-factor", "0"];
    generate_in_2gb("rmat", &flags, "out of memory allocating CSR row offsets");
}

#[test]
fn generate_refuses_an_er_graph_the_host_cannot_hold() {
    let flags = ["--n", "4000000000", "--m", "0"];
    generate_in_2gb("er", &flags, "out of memory allocating CSR row offsets");
}

#[test]
fn generate_refuses_a_community_the_host_cannot_hold() {
    let flags = ["--n", "4000000000", "--components", "1"];
    generate_in_2gb("community", &flags, "out of memory allocating a community");
}

#[test]
fn generate_refuses_a_mesh_the_host_cannot_hold() {
    let flags = ["--n", "4000000000"];
    generate_in_2gb("mesh3d", &flags, "out of memory allocating the edge list");
}

#[test]
fn generate_refuses_a_metagenome_the_host_cannot_hold() {
    let flags = ["--n", "4000000000"];
    generate_in_2gb(
        "metagenome",
        &flags,
        "out of memory allocating the edge list",
    );
}

#[test]
fn generate_refuses_an_edge_list_the_host_cannot_hold() {
    let flags = ["--n", "1000", "--m", "5000000000"];
    generate_in_2gb("er", &flags, "out of memory allocating the edge list");
}

/// A Matrix Market file holding `n` vertices and no edge.
fn edgeless_graph(n: usize) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("process-{n}-vertex.mtx"));
    let header = "%%MatrixMarket matrix coordinate pattern symmetric";
    std::fs::write(&path, format!("{header}\n{n} {n} 0\n")).unwrap();
    path.display().to_string()
}

#[test]
fn serve_refuses_a_graph_with_no_vertex() {
    refused(&["serve", &edgeless_graph(0)], "at least one vertex");
}

#[test]
fn serve_refuses_a_query_count_past_usize() {
    // 2 · 2^63 queries: the product overflows before anything is sized by it.
    #[rustfmt::skip]
    let args = [
        "serve", &edgeless_graph(2), "--batches", "2",
        "--queries-per-batch", "9223372036854775808",
    ];
    refused(&args, "overflow the query count");
}

#[test]
fn a_non_square_matrix_market_file_is_one_error_line() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let g = dir.join("process-2x3.mtx");
    let header = "%%MatrixMarket matrix coordinate pattern general";
    std::fs::write(&g, format!("{header}\n2 3 1\n1 3\n")).unwrap();
    refused(&["stats", &g.display().to_string()], "2 rows and 3 columns");
}

#[test]
fn serve_runs_on_a_single_vertex() {
    // Every insert is a self loop; the one component survives them all.
    let out = output_within_deadline(&["serve", &edgeless_graph(1)]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("answers consistent  yes"), "{report}");
    let components = report.lines().find(|l| l.starts_with("components"));
    assert_eq!(components, Some("components          1"), "{report}");
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
