//! What every workload shares: run context, results, the pass budget,
//! and process-level measurements.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use vr_runner::ResultCache;
use vrecon::RunReport;

use crate::check::DigestMode;
use crate::clock::Mark;
use crate::host::HostProbe;
use crate::spans::{Span, Tracer};
use crate::stats;

/// Set-ups measured per window at least; `setup_s` is the median of all.
pub const SETUP_REPS: usize = 5;
/// Set-ups repeat until this much time is spent (or [`SETUP_MAX_REPS`]),
/// so a set-up of a few milliseconds still gets many samples.
const SETUP_MIN_SECS: f64 = 0.1;
/// Upper bound on set-up repetitions.
const SETUP_MAX_REPS: usize = 200;

/// One invocation's settings.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed (input generation only).
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced (`--trace 1`) or untraced run.
    pub traced: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// What to do with output digests.
    pub digests: DigestMode,
}

/// A workload's result, before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (scenarios, runs, or requests).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The first few failure messages.
    pub problems: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Informational lines for the human-readable table.
    pub notes: Vec<String>,
    /// Latency percentiles outside the metric catalogue: name, value in
    /// ms, and the samples behind it. Printed as one JSON line.
    pub info: Vec<(&'static str, f64, usize)>,
    /// All spans of a traced run, on one time origin.
    pub spans: Vec<Span>,
    /// The run's median host-probe time in ms.
    pub probe_ms: f64,
}

impl Outcome {
    /// Counts one operation, failed if `result` is an error.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why);
            }
        }
    }

    /// `success_rate`: checked-good operations over attempted.
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.attempted.saturating_sub(self.failed) as f64 / self.attempted as f64
        }
    }

    /// Appends a traced pass's spans, re-basing parent indices.
    pub fn absorb_spans(&mut self, spans: &[Span]) {
        let base = self.spans.len();
        self.spans.extend(spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_SECS`], appending each repetition's wall time in seconds
/// to `times`, and returns the last repetition's value. Workloads call
/// it before the timed phase and after every pass, and report the median
/// of `times`, so the windows spread over the whole run as the host
/// probe's samples do.
pub fn measure_setup<T>(
    times: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut batch: Vec<f64> = Vec::new();
    let mut last = None;
    while batch.len() < SETUP_REPS
        || (batch.iter().sum::<f64>() < SETUP_MIN_SECS && batch.len() < SETUP_MAX_REPS)
    {
        let started = Mark::now();
        let value = setup(batch.len())?;
        batch.push(started.elapsed_s());
        last = Some(value);
    }
    times.extend(batch);
    last.ok_or_else(|| "no set-up ran".to_owned())
}

/// The sum over units of each unit's median over passes: `runs[p][u]`
/// is unit `u`'s time in pass `p`. A contention burst that slows a unit
/// in fewer than half of its passes does not move the sum; a drift that
/// slows the whole run moves the host probe as well.
pub fn sum_of_medians(runs: &[Vec<f64>]) -> f64 {
    let units = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..units)
        .map(|u| stats::median(&runs.iter().map(|r| r[u]).collect::<Vec<_>>()))
        .sum()
}

/// Runs passes until `seconds` of timed work is spent. A pass starts
/// only when the previous pass's duration still fits in what is left,
/// and at least `min` passes run. `pass(i)` returns its own timed
/// duration in seconds. `probe` is sampled before the first pass and
/// after every pass, outside the timed work.
pub fn run_budget(
    seconds: f64,
    min: usize,
    probe: &mut HostProbe,
    mut pass: impl FnMut(usize) -> Result<f64, String>,
) -> Result<usize, String> {
    let mut spent = 0.0;
    let mut last = 0.0;
    let mut i = 0;
    probe.sample();
    while i < min || spent + last <= seconds {
        last = pass(i)?;
        probe.sample();
        spent += last;
        i += 1;
    }
    Ok(i)
}

/// `ResultCache::store` inside a `runner.store` span. The store's pause
/// point (after `encode_report` and the temp-file write, before the
/// rename) splits off a `report.encode` child, so the encoding the store
/// does internally is attributed to the report layer.
pub fn traced_store(
    tracer: &mut Tracer,
    cache: &ResultCache,
    hash: &str,
    report: &RunReport,
    group: u64,
) -> Result<(), String> {
    tracer.span("runner.store", group, |t| {
        let start = Mark::now();
        let written = OnceLock::new();
        let stored = cache.store_with_pause(hash, report, &|| {
            let _ = written.set(Mark::now());
        });
        if let Some(&at) = written.get() {
            let (start_us, end_us) = (t.us(start), t.us(at));
            t.record("report.encode", group, start_us, end_us);
        }
        stored.map_err(|(path, e)| format!("store {}: {e}", path.display()))
    })
}

/// The process's peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Self time of `name` in `own`, or 0.
pub fn ms(own: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    own.get(name).copied().unwrap_or(0.0)
}

/// Self time of every layer span: names outside the `bench.`
/// bookkeeping prefix, in milliseconds.
pub fn layered_ms(own: &BTreeMap<&'static str, f64>) -> f64 {
    own.iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, v)| v)
        .sum()
}

/// Tracing overhead in percent. Passes alternate untraced and traced,
/// so `traced_s[j]` ran right after `untraced_s[j]`; the overhead is the
/// median over those adjacent pairs, which host drift between distant
/// passes does not move.
pub fn overhead_pct(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    let pairs: Vec<f64> = traced_s
        .iter()
        .zip(untraced_s)
        .filter(|(_, &u)| u > 0.0)
        .map(|(&t, &u)| 100.0 * (t - u) / u)
        .collect();
    if pairs.is_empty() {
        0.0
    } else {
        stats::median(&pairs)
    }
}
