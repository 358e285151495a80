//! The commands: one pass in this process, a suite of child processes,
//! `repeat`, and `selfcheck`.
//!
//! A pass runs in its own process so `peak_rss_mb` belongs to one
//! workload; `run all`, `run <workload>` without `--trace`, and `repeat`
//! therefore re-execute this binary once per workload and pass.

use crate::check::Checker;
use crate::host;
use crate::json::{escape, Json};
use crate::metrics::{median, Better, END_TO_END, PER_LAYER};
use crate::pipeline::{measure_end_to_end, measure_layers, RunArgs, INSTANCES, RANKS, RANKS_WIDE};
use crate::spans::Recorder;
use crate::workloads::{workload, Profile, NAMES};
use std::process::{Command, Stdio};

/// Options shared by the commands.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload names to run (one, or all four).
    pub workloads: Vec<&'static str>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--smoke`.
    pub smoke: bool,
    /// `--trace-out FILE` (Chrome-trace JSON of the benchmark's spans).
    pub trace_out: Option<String>,
}

impl Opts {
    fn profile(&self) -> Profile {
        if self.smoke {
            Profile::Smoke
        } else {
            Profile::Full
        }
    }

    fn run_args(&self, name: &str) -> Result<RunArgs, String> {
        let profile = self.profile();
        Ok(RunArgs {
            workload: workload(name, profile).ok_or_else(|| format!("unknown workload {name}"))?,
            profile,
            seed: self.seed,
            seconds: if self.smoke { 0.0 } else { self.seconds },
        })
    }
}

/// Warns (never fails) when the host is already busy: wall-clock numbers
/// taken beside another load are not comparable.
fn load_guard(when: &str) {
    match host::load_avg_1m() {
        Some(l) if l > 0.5 => println!("# warning: load average {l:.2} > 0.5 at {when}"),
        _ => {}
    }
}

/// One pass of one workload in this process. Prints the host line, the
/// metric table and, last, the result line; returns the exit code.
pub fn run_pass(opts: &Opts, traced: bool) -> Result<i32, String> {
    let name = opts.workloads[0];
    let args = opts.run_args(name)?;
    println!("{}", host::host_line());
    load_guard("start");
    println!(
        "# workload: {name} = {} | engine {:?} | p={RANKS} (counts also at p={RANKS_WIDE}) | seed {} | \
         {INSTANCES} instances | script per instance {} batches x {} inserts, delete every {}, {} queries/batch | pass: {}",
        args.workload.describe(),
        args.workload.engine,
        args.seed,
        args.workload.script.batches,
        args.workload.script.batch_size,
        args.workload.script.delete_every,
        args.workload.script.queries_per_batch,
        if traced { "per-layer (probes + traced run)" } else { "end-to-end (tracing off)" },
    );
    println!(
        "# clocks: *_modeled_s and modeled_* are Edison-model seconds; every other time is wall"
    );

    let mut checker = Checker::new();
    let metrics = if traced {
        let mut rec = Recorder::new(true, args.seed);
        let metrics = measure_layers(&args, &mut checker, &mut rec)?;
        metrics.validate(PER_LAYER.iter().map(|d| d.name))?;
        for (layer, self_s) in rec.self_time_by_layer() {
            println!("# self time: {layer} {self_s:.6} s");
        }
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, rec.chrome_trace_json())
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            println!("# wrote {} spans to {path}", rec.len());
        }
        metrics
    } else {
        let e2e = measure_end_to_end(&args, &mut checker)?;
        e2e.metrics.validate(END_TO_END.iter().map(|d| d.name))?;
        for w in &e2e.warnings {
            println!("# warning: {w}");
        }
        e2e.metrics
    };
    metrics.print_table();
    println!(
        "# checks: attempted={} failed={} fail_frac={}",
        checker.attempted(),
        checker.failed(),
        checker.fail_frac()
    );
    load_guard("end");
    println!(
        "{}",
        metrics.result_line(checker.attempted(), checker.failed())
    );
    Ok(checker.exit_code())
}

/// This binary again, set to run one pass of `name` in a fresh process.
fn pass_command(opts: &Opts, name: &str, traced: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (traced, &opts.trace_out) {
        // One file per workload when several are run.
        cmd.arg("--trace-out").arg(if opts.workloads.len() > 1 {
            format!("{path}.{name}")
        } else {
            path.clone()
        });
    }
    Ok(cmd)
}

/// Both passes of every selected workload, each in a fresh process whose
/// output streams through.
pub fn run_suite(opts: &Opts) -> Result<i32, String> {
    let mut code = 0;
    for name in &opts.workloads {
        for traced in [false, true] {
            println!("## {name} --trace {}", traced as u8);
            let status = pass_command(opts, name, traced)?
                .status()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            if !status.success() {
                println!(
                    "# FAILED: {name} --trace {} exited with {status}",
                    traced as u8
                );
                code = 1;
            }
        }
    }
    Ok(code)
}

/// Runs the end-to-end pass of `name` in a fresh process and parses its
/// result line: the failed-check count and every metric value.
fn captured_pass(opts: &Opts, name: &str) -> Result<(u64, Vec<(String, f64)>), String> {
    let out = pass_command(opts, name, false)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(stdout.lines().last().ok_or("child printed nothing")?)?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(k, v)| {
            v.get("value")
                .and_then(Json::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("metric {k} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
    Ok((failed, metrics))
}

/// `repeat --sets N`: N fresh-process sets of the end-to-end pass, then
/// for every metric the first and last set's values, their relative
/// difference in the worsening direction, and the bound. Deterministic
/// metrics must agree exactly. Writes the comparison as JSON to `out`.
pub fn repeat(opts: &Opts, sets: usize, out: Option<&str>) -> Result<i32, String> {
    println!("{}", host::host_line());
    load_guard("start");
    let mut code = 0;
    let mut rows = Vec::new();
    for name in &opts.workloads {
        let mut per_set: Vec<Vec<(String, f64)>> = Vec::new();
        for set in 0..sets {
            eprintln!("# repeat: set {set} of {name}");
            let (failed, metrics) = captured_pass(opts, name)?;
            if failed > 0 {
                code = 1;
            }
            per_set.push(metrics);
        }
        for def in END_TO_END {
            let values: Vec<f64> = per_set
                .iter()
                .map(|s| {
                    s.iter()
                        .find(|(k, _)| k == def.name)
                        .map(|(_, v)| *v)
                        .ok_or_else(|| format!("{name}: {} missing from a set", def.name))
                })
                .collect::<Result<_, _>>()?;
            let (first, last) = (values[0], values[values.len() - 1]);
            let worse = match def.better {
                Better::Lower => (last - first) / first,
                Better::Higher => (first - last) / first,
            };
            let limit = if def.exact { 0.0 } else { def.bound };
            let ok = worse.abs() <= limit;
            if !ok {
                code = 1;
            }
            println!(
                "{name} {} first={first} last={last} median={} worse_by={worse:.5} bound={limit} {}",
                def.name,
                median(&values),
                if ok { "ok" } else { "DISAGREE" }
            );
            rows.push(format!(
                "    {{\"workload\": \"{name}\", \"metric\": \"{}\", \"unit\": \"{}\", \"values\": [{}], \
                 \"worse_by\": {worse}, \"bound\": {limit}, \"agree\": {ok}}}",
                def.name,
                def.unit,
                values.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
            ));
        }
    }
    load_guard("end");
    if let Some(path) = out {
        let doc = format!(
            "{{\n  \"command\": \"benchmark repeat --sets {sets}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
             \"smoke\": {},\n  \"host\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"load1m\": {}}},\n  \
             \"all_agree\": {},\n  \"comparisons\": [\n{}\n  ]\n}}\n",
            opts.seed,
            opts.seconds,
            opts.smoke,
            host::nproc(),
            escape(&host::cpu_model()),
            escape(&host::rustc_version()),
            host::load_avg_1m().unwrap_or(-1.0),
            code == 0,
            rows.join(",\n")
        );
        std::fs::write(path, doc).map_err(|e| format!("--out {path}: {e}"))?;
        println!("# wrote {path}");
    }
    Ok(code)
}

/// `selfcheck`: at smoke sizes, every workload twice with one seed and
/// once with another. Everything on the modeled clock or counted in bytes
/// must be bit-equal between the twins and must move with the seed.
pub fn selfcheck() -> Result<i32, String> {
    let mut code = 0;
    for name in NAMES {
        let pass = |seed: u64| -> Result<[f64; 4], String> {
            let args = RunArgs {
                workload: workload(name, Profile::Smoke).ok_or("unknown workload")?,
                profile: Profile::Smoke,
                seed,
                seconds: 0.0,
            };
            let mut checker = Checker::new();
            let e2e = measure_end_to_end(&args, &mut checker)?;
            if checker.exit_code() != 0 {
                return Err(format!("{name}: {} checks failed", checker.failed()));
            }
            let get = |k: &str| e2e.metrics.get(k).ok_or_else(|| format!("{name}: no {k}"));
            Ok([
                get("modeled_s")?,
                get("wire_bytes")?,
                get("rebuild_modeled_s")?,
                e2e.iterations as f64,
            ])
        };
        let (a, b, other) = (pass(7)?, pass(7)?, pass(8)?);
        // Bit-equality, not closeness: compare the bit patterns.
        let same = a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
        // Iteration counts may coincide across seeds; the clocks and byte counts may not.
        let moved = a[..3].iter().zip(&other[..3]).all(|(x, y)| x != y);
        println!(
            "{name}: modeled_s={} wire_bytes={} rebuild_modeled_s={} core.iterations={} | \
             repeatable={same} seed_sensitive={moved}",
            a[0], a[1], a[2], a[3]
        );
        if !(same && moved) {
            code = 1;
        }
    }
    println!("selfcheck {}", if code == 0 { "passed" } else { "FAILED" });
    Ok(code)
}
