//! Keeps `BENCHMARK.json`, the metric catalogue, the README glossary and
//! what the binary actually prints in step.
//!
//! Runs the real binary at smoke sizes: every workload, both passes.

use lacc_benchmark::json::Json;
use lacc_benchmark::metrics::{END_TO_END, PER_LAYER};
use lacc_benchmark::workloads::NAMES;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

/// `(name, unit)` of every entry of a manifest metric list.
fn listed(manifest: &Json, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{list} missing"))
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_catalogue() {
    let doc = manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(str_of(listed, "name"), def.name);
        assert_eq!(str_of(listed, "unit"), def.unit, "{}", def.name);
        assert_eq!(
            str_of(listed, "better"),
            def.better.as_str(),
            "{}",
            def.name
        );
        assert_eq!(
            listed.get("bound").and_then(Json::as_f64),
            Some(def.bound),
            "{}",
            def.name
        );
    }
    let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (listed, def) in layers.iter().zip(PER_LAYER) {
        assert_eq!(str_of(listed, "name"), def.name);
        assert_eq!(str_of(listed, "unit"), def.unit, "{}", def.name);
        assert_eq!(
            str_of(listed, "better"),
            def.better.as_str(),
            "{}",
            def.name
        );
    }
}

#[test]
fn readme_glossary_names_every_metric_and_workload() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("crate README");
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .chain(NAMES);
    for name in names {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README does not mention `{name}`"
        );
    }
}

/// Runs one smoke pass and returns (table lines as `(name, unit)`, result line).
fn smoke_pass(workload: &str, trace: &str) -> (Vec<(String, String)>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", workload, "--seed", "7"])
        .args(["--seconds", "1", "--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let table = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next().expect("metric name").to_string();
            let value: f64 = words
                .next()
                .expect("metric value")
                .parse()
                .expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (name, words.next().expect("metric unit").to_string())
        })
        .collect();
    let line = stdout.lines().last().expect("a result line");
    (table, Json::parse(line).expect("result line is JSON"))
}

#[test]
fn smoke_suite_prints_exactly_the_listed_metrics() {
    let doc = manifest();
    for workload in NAMES {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = listed(&doc, list);
            let (table, result) = smoke_pass(workload, trace);

            // The table prints every listed name exactly once, with its
            // unit, and nothing unlisted.
            for (name, unit) in &want {
                let hits: Vec<_> = table.iter().filter(|(n, _)| n == name).collect();
                assert_eq!(
                    hits.len(),
                    1,
                    "{workload} --trace {trace}: {name} printed {} times",
                    hits.len()
                );
                assert_eq!(&hits[0].1, unit, "{workload}: unit of {name}");
            }
            assert_eq!(
                table.len(),
                want.len(),
                "{workload} --trace {trace}: unlisted metric printed"
            );

            // The result line has exactly the contract's keys, the same
            // metrics, and no failed check.
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), str_of(v, "unit").to_string()))
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            if trace == "0" {
                // The contract: choose end-to-end metrics that are never 0.
                for (k, v) in metrics {
                    assert!(
                        v.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                        "{workload}: {k}"
                    );
                }
            }
        }
    }
}

#[test]
fn traced_pass_writes_loadable_chrome_trace() {
    let path = std::env::temp_dir().join(format!("lacc-benchmark-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", "1", "--smoke", "--trace-out"])
        .arg(&path)
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("Chrome trace parses");
    std::fs::remove_file(&path).ok();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let layers: Vec<&str> = events.iter().map(|e| str_of(e, "cat")).collect();
    for layer in ["graph", "core", "gblas", "dmsim", "baselines", "serving"] {
        assert!(layers.contains(&layer), "no span of layer {layer}");
    }
    // Every span but the root names its parent.
    let roots = events
        .iter()
        .filter(|e| e.get("args").and_then(|a| a.get("parent")) == Some(&Json::Null))
        .count();
    assert_eq!(roots, 1);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "nope", "--trace", "0"][..],
        &["run", "--trace", "0"],
        &["run", "--workload", "rmat_lacc", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
