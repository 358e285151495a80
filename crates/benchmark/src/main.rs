//! Command line of the benchmark. See `usage` below or the crate README.

use lacc_benchmark::runner::{repeat, run_pass, run_suite, selfcheck, Opts};
use lacc_benchmark::workloads::NAMES;

const USAGE: &str = "\
usage:
  benchmark run <workload|all> [--seed S] [--seconds N] [--smoke] [--trace-out FILE]
      both passes of the workload(s), each in a fresh process
  benchmark run --workload <name> --seed S --seconds N --trace <0|1> [--smoke] [--trace-out FILE]
      one pass in this process: --trace 0 the end-to-end metrics (tracing off),
      --trace 1 the per-layer metrics; the last line printed is the JSON result
  benchmark all [...]                      same as `run all`
  benchmark repeat [--sets N] [<workload|all>] [--seed S] [--seconds N] [--smoke] [--out FILE]
      N (default 2) fresh-process sets of the end-to-end pass, compared against the bounds
  benchmark selfcheck                      determinism and seed sensitivity at smoke sizes
workloads: rmat_lacc community_lacc mesh_fastsv serve_mixed";

/// What the command line asked for.
struct Cli {
    command: String,
    opts: Opts,
    trace: Option<bool>,
    sets: usize,
    out: Option<String>,
}

/// Resolves `all` or one workload name into the list to run.
fn select(name: &str) -> Result<Vec<&'static str>, String> {
    if name == "all" {
        return Ok(NAMES.to_vec());
    }
    NAMES
        .iter()
        .find(|n| **n == name)
        .map(|n| vec![*n])
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let command = args.first().ok_or("no command")?.clone();
    let mut cli = Cli {
        command,
        opts: Opts {
            workloads: Vec::new(),
            seed: 7,
            seconds: 5.0,
            smoke: false,
            trace_out: None,
        },
        trace: None,
        sets: 2,
        out: None,
    };
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cli.opts.workloads = select(value("--workload")?)?,
            "--seed" => {
                cli.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is not in 0..=3600"));
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is not 0 or 1")),
                });
            }
            "--sets" => {
                cli.sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if cli.sets < 2 {
                    return Err("--sets must be at least 2".to_string());
                }
            }
            "--smoke" => cli.opts.smoke = true,
            "--trace-out" => cli.opts.trace_out = Some(value("--trace-out")?.clone()),
            "--out" => cli.out = Some(value("--out")?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name => cli.opts.workloads = select(name)?,
        }
    }
    Ok(cli)
}

fn dispatch(cli: &mut Cli) -> Result<i32, String> {
    match cli.command.as_str() {
        "selfcheck" => selfcheck(),
        "all" => {
            cli.opts.workloads = NAMES.to_vec();
            run_suite(&cli.opts)
        }
        "repeat" => {
            if cli.opts.workloads.is_empty() {
                cli.opts.workloads = NAMES.to_vec();
            }
            repeat(&cli.opts, cli.sets, cli.out.as_deref())
        }
        "run" => match (cli.trace, cli.opts.workloads.len()) {
            (_, 0) => Err("run needs a workload (or `all`)".to_string()),
            (Some(traced), 1) => run_pass(&cli.opts, traced),
            (Some(_), _) => Err("--trace runs one pass in-process: name one workload".to_string()),
            (None, _) => run_suite(&cli.opts),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args).and_then(|mut cli| dispatch(&mut cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
