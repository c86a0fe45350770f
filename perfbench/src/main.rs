//! `perfbench` — one benchmark command for the vrecon workspace, with
//! per-layer attribution.
//!
//! ```text
//! perfbench --workload <paper-sweep|wide-1k|whatif-miss|whatif-hot> [--seed 42]
//!           [--seconds 25]
//!           [--trace 0|1] [--record-digests FILE]
//! perfbench --workload <name> --steady N [--seed 1] [--seconds 25]
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) wraps each call into a layer's public
//! functions in spans and prints every per-layer metric. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--steady N` runs the workload N
//! times in child processes, one seed each, and prints each end-to-end
//! metric's median, quartiles and spread. See `README.md`.

mod bench;
mod check;
mod clock;
mod host;
mod layers;
mod paper;
mod spans;
mod stats;
mod whatif;
mod wide;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use vr_simcore::jsonio::Json;

use crate::bench::{Ctx, Outcome};
use crate::check::{DigestMode, Digests, DEFAULT_SEED};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [paper::NAME, wide::NAME, whatif::MISS, whatif::HOT];

/// The digest namespace a workload's outputs are recorded under. Both
/// `whatif` workloads serve the same pool, so they share the miss bodies.
pub fn digest_set(workload: &str) -> &str {
    if workload == whatif::MISS || workload == whatif::HOT {
        whatif::DIGEST_SET
    } else {
        workload
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    steady: Option<usize>,
    record_digests: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        traced: false,
        steady: None,
        record_digests: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: bad number".to_owned())?
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--steady" => args.steady = Some(number(value()?)? as usize),
            "--record-digests" => args.record_digests = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // vr-lint::allow(env-read, reason = "the command line is the benchmark's interface")
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let result = match args.steady {
        Some(runs) => steady(&args, runs),
        None => measure(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(1)
        }
    }
}

/// One measured run: the workload, its checks, and the result line.
fn measure(args: &Args) -> Result<(), String> {
    let work =
        PathBuf::from(".perfbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let digests = if args.record_digests.is_some() {
        DigestMode::Record(Digests::default())
    } else if args.seed == DEFAULT_SEED {
        DigestMode::Verify(Digests::recorded()?)
    } else {
        DigestMode::Skip
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work: work.clone(),
        digests,
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let outcome = match args.workload.as_str() {
        paper::NAME => paper::run(&mut ctx),
        wide::NAME => wide::run(&mut ctx),
        whatif::MISS => whatif::run_miss(&mut ctx),
        _ => whatif::run_hot(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome?;

    if let (Some(file), DigestMode::Record(table)) = (&args.record_digests, &ctx.digests) {
        table
            .write_workload(digest_set(&args.workload), file)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!(
            "recorded digests for {} in {}",
            args.workload,
            file.display()
        );
    }
    if args.traced && !outcome.spans.is_empty() {
        let file = PathBuf::from(".perfbench-out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        if let Some(dir) = file.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(&file, spans::chrome_json(&outcome.spans).render())
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!(
            "chrome trace: {} ({} spans)",
            file.display(),
            outcome.spans.len()
        );
    }
    report(&mut outcome, args.traced);
    Ok(())
}

/// Prefix of the line that carries the latency percentiles, which are
/// not in the metric catalogue, as one JSON object.
const INFO: &str = "info ";

/// Prints the human-readable table, the info line, and the result line
/// (last).
fn report(outcome: &mut Outcome, traced: bool) {
    outcome
        .e2e
        .entry("peak_rss_mb")
        .or_insert_with(bench::peak_rss_mb);
    outcome.e2e.insert("success_rate", outcome.success_rate());
    restate_on_reference_host(outcome);
    let catalogue: &[(&str, &str)] = if traced {
        &layers::PER_LAYER
    } else {
        &layers::END_TO_END
    };
    let values = if traced {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let mut metrics = Vec::new();
    for note in &outcome.notes {
        println!("  {note}");
    }
    for &(name, unit) in catalogue {
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || !layers::valid_name(name) {
            outcome
                .problems
                .push(format!("metric {name} is not finite or not a legal name"));
        }
        println!("  {name:<28} {value:>16.6} {unit}");
        metrics.push((
            name,
            Json::obj([
                (
                    "value",
                    Json::f64(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    if !outcome.info.is_empty() {
        let info = outcome.info.iter().map(|&(name, value, samples)| {
            let entry = Json::obj([
                ("value", Json::f64(value)),
                ("unit", Json::str("ms")),
                ("samples", Json::U64(samples as u64)),
            ]);
            (name, entry)
        });
        println!("{INFO}{}", Json::obj(info).render());
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.render());
}

/// Restates the time-based end-to-end metrics on the reference host (see
/// [`host`]) and keeps the values as measured in a note. Also reports the
/// probe as the `bench.host_probe_ms` layer.
fn restate_on_reference_host(outcome: &mut Outcome) {
    let probe_ms = outcome.probe_ms;
    outcome.layers.insert("bench.host_probe_ms", probe_ms);
    if !(probe_ms.is_finite() && probe_ms > 0.0) {
        outcome
            .problems
            .push("the host probe measured nothing".to_owned());
        return;
    }
    let mut measured = Vec::new();
    for &(name, unit) in &layers::END_TO_END {
        if let Some(value) = outcome.e2e.get_mut(name) {
            let restated = host::to_reference(unit, *value, probe_ms);
            if restated != *value {
                measured.push(format!("{name} {value:.6} {unit}"));
            }
            *value = restated;
        }
    }
    outcome.notes.push(format!(
        "host probe median {probe_ms:.3} ms against {} ms on the reference host; as measured \
         here: {}",
        host::REFERENCE_MS,
        measured.join(", ")
    ));
}

/// Steadiness mode: `runs` child runs of one workload, seeds `seed`,
/// `seed + 1`, …; prints each end-to-end metric's median, quartiles and
/// spread (IQR over median), and the latency percentiles of the info
/// line with their sample counts.
fn steady(args: &Args, runs: usize) -> Result<(), String> {
    // vr-lint::allow(env-read, reason = "steadiness mode re-runs this same executable once per seed")
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut info: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    for run in 0..runs {
        let seed = args.seed + run as u64;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output()
            .map_err(|e| format!("spawn run {run}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let doc = Json::parse(last)
            .map_err(|e| format!("run {run} (seed {seed}): no result line: {e:?}"))?;
        let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("run {run}: result has no metrics"));
        };
        let mut line = format!("run {run} seed {seed} correct={correct}");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            values.entry(name.clone()).or_default().push(v);
            line.push_str(&format!(" {name}={v:.6}"));
        }
        if let Some(text) = stdout.lines().find_map(|l| l.strip_prefix(INFO)) {
            let doc = Json::parse(text).map_err(|e| format!("run {run}: bad info line: {e:?}"))?;
            let Json::Obj(entries) = doc else {
                return Err(format!("run {run}: info line is not an object"));
            };
            for (name, entry) in entries {
                let value = entry.get("value").and_then(Json::as_f64);
                let samples = entry.get("samples").and_then(Json::as_u64);
                let (Some(v), Some(n)) = (value, samples) else {
                    return Err(format!("run {run}: info {name} lacks value or samples"));
                };
                info.entry(name).or_default().push((v, n));
            }
        }
        println!("{line}");
    }
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>9}",
        "metric", "median", "q1", "q3", "spread"
    );
    let row = |name: &str, v: &[f64], extra: String| {
        let (q1, q2, q3) = stats::quartiles(v);
        let spread = if q2 > 0.0 { (q3 - q1) / q2 } else { 0.0 };
        println!(
            "{name:<28} {q2:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}%{extra}",
            spread * 100.0
        );
    };
    for (name, v) in &values {
        row(name, v, String::new());
    }
    for (name, v) in &info {
        let samples: Vec<f64> = v.iter().map(|(x, _)| *x).collect();
        let n: Vec<String> = v.iter().map(|(_, n)| n.to_string()).collect();
        row(
            name,
            &samples,
            format!("  (info line; samples per run: {})", n.join(",")),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args(&[
            "--workload",
            "whatif-hot",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("whatif-hot", 3, 10.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "whatif-hot", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "whatif-hot", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "whatif"]).is_err());
    }
}
