//! `lacc` — command-line connected components.
//!
//! ```text
//! lacc stats    <graph>                      census: V, E, components, degrees
//! lacc cc       <graph> [--algo A] [--out F] label components serially
//! lacc cc-dist  <graph> --ranks P [--machine edison|cori] [--flat]
//!               [--trace out.json] [--trace-level L]  span-trace the run
//! lacc serve    <graph> [--ranks P] [--batches B] [--batch-size K]
//!               [--delete-every D] [--staleness F]   incremental serving
//! lacc generate <family> --n N [--seed S] --out <graph>
//! lacc convert  <in> <out>                   between .mtx / .el / .bin
//! ```
//!
//! Graph formats are chosen by extension: `.mtx` (Matrix Market), `.bin`
//! (this workspace's binary format), anything else is a whitespace edge
//! list.

mod args;
mod commands;

use commands::CliError;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let done = commands::dispatch(&argv, &mut out).and_then(|()| Ok(out.flush()?));
    match done {
        // A reader that stopped listening (`| head`) has what it wanted.
        Ok(()) | Err(CliError::BrokenPipe) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{}", commands::USAGE);
            ExitCode::FAILURE
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
