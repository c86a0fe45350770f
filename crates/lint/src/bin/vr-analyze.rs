//! The `vr-analyze` binary: runs every rule over the whole workspace.
//!
//! ```sh
//! vr-analyze                                          # text report
//! vr-analyze --format json --sarif-out analyze.sarif  # what CI runs
//! ```
//!
//! There is no single-file mode: the taint and lock-order rules are
//! whole-program by nature (a finding in one file can be caused by a call
//! three crates away), so the unit of analysis is always the workspace.
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.

use std::process::ExitCode;

use vr_lint::{analyze_workspace, workspace_root, Format, RULES};

const USAGE: &str = "\
vr-analyze — determinism, panic-safety and concurrency analyzer for the
vrecon workspace (token rules with per-crate scoping; cross-crate taint
tracking for the determinism boundaries; lock-order, blocking and
Condvar discipline over the pool/serve layer)

USAGE:
  vr-analyze [--root DIR] [--format text|json|sarif] [--sarif-out FILE]

The workspace root is found by walking up from the current directory to
a Cargo.toml with [workspace], or taken from --root. --sarif-out writes
a SARIF 2.1.0 report to FILE in addition to the chosen --format on
stdout.

RULES:
";

fn usage() -> String {
    let mut out = USAGE.to_owned();
    for rule in RULES {
        out.push_str(&format!("  {:28} {}\n", rule.name, rule.summary));
    }
    out
}

struct Options {
    root: Option<String>,
    format: Format,
    sarif_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        format: Format::Text,
        sarif_out: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => opts.root = Some(iter.next().ok_or("--root requires a value")?.clone()),
            "--format" => {
                opts.format = Format::parse(iter.next().ok_or("--format requires a value")?)?;
            }
            "--sarif-out" => {
                opts.sarif_out = Some(iter.next().ok_or("--sarif-out requires a value")?.clone());
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<bool, String> {
    let root = workspace_root(opts.root.as_deref())?;
    let report = analyze_workspace(&root)?;
    if let Some(path) = &opts.sarif_out {
        std::fs::write(path, report.render_sarif())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", report.render(opts.format));
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
