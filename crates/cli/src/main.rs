//! `vrecon` — command-line interface to the ICDCS 2002 reproduction.
//!
//! ```sh
//! vrecon gen --group spec --level 3 --out spec3.vrt
//! vrecon inspect spec3.vrt
//! vrecon run spec3.vrt --cluster cluster1 --policy vrecon
//! vrecon compare spec3.vrt --cluster cluster1
//! vrecon run spec3.vrt --cluster cluster1 --trace-out spec3-trace.json
//! ```

mod args;
mod commands;

use std::io::Write;
use std::process::ExitCode;

use args::Args;
use commands::{dispatch, flags, USAGE};

/// Prints to stdout, treating a broken pipe (e.g. `vrecon ... | head`) as a
/// clean exit instead of a panic.
fn emit(text: &str) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}") {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error writing output: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        return emit(USAGE);
    }
    let subcommand = raw.remove(0);
    let parsed = match Args::parse(raw, &flags()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.flag("help") {
        return emit(USAGE);
    }
    match dispatch(&subcommand, &parsed) {
        Ok(output) => emit(&output),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
