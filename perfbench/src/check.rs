//! Output checks behind `success_rate` and `correct`.
//!
//! Every simulation must drain with all jobs completed and no audit
//! violations. On the default seed each report (or response body) must
//! also hash to the digest recorded with the benchmark in
//! `digests.txt`, so a change that alters a report counts as a failed
//! operation rather than as a speed-up.

use std::collections::BTreeMap;
use std::path::Path;

use vr_simcore::hash::{fnv1a128, hex128};
use vrecon::RunReport;

/// The seed the digests were recorded at (the figures' trace seed).
pub const DEFAULT_SEED: u64 = 42;

/// Digests recorded with the benchmark, compiled in.
const RECORDED: &str = include_str!("../digests.txt");

/// A report is correct when the run drained, every job completed, and
/// the auditor (when on) found nothing.
pub fn check_report(report: &RunReport) -> Result<(), String> {
    if !report.run_stats.drained {
        return Err(format!("{}: horizon-truncated run", report.trace_name));
    }
    if report.unfinished_jobs > 0 {
        return Err(format!(
            "{}: {} jobs unfinished",
            report.trace_name, report.unfinished_jobs
        ));
    }
    if let Some(first) = report.audit_violations.first() {
        return Err(format!(
            "{}: {} audit violations, first: {first}",
            report.trace_name,
            report.audit_violations.len()
        ));
    }
    Ok(())
}

/// 128-bit FNV-1a digest of some output bytes, as 32 hex characters.
pub fn digest(bytes: &[u8]) -> String {
    hex128(fnv1a128(bytes))
}

/// Expected digests keyed by `(workload, key)`, one `workload key hex`
/// line each.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digests {
    map: BTreeMap<(String, String), String>,
}

impl Digests {
    /// The digests recorded with the benchmark.
    pub fn recorded() -> Result<Digests, String> {
        Digests::parse(RECORDED)
    }

    /// Parses `workload key hex` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                [workload, key, hex]
                    if hex.len() == 32 && hex.chars().all(|c| c.is_ascii_hexdigit()) =>
                {
                    map.insert(
                        ((*workload).to_owned(), (*key).to_owned()),
                        (*hex).to_owned(),
                    );
                }
                _ => {
                    return Err(format!(
                        "digests line {}: expected `workload key hex32`",
                        n + 1
                    ))
                }
            }
        }
        Ok(Digests { map })
    }

    /// Checks `bytes` against the expectation for `(workload, key)`.
    pub fn verify(&self, workload: &str, key: &str, bytes: &[u8]) -> Result<(), String> {
        let actual = digest(bytes);
        match self.map.get(&(workload.to_owned(), key.to_owned())) {
            Some(expected) if *expected == actual => Ok(()),
            Some(expected) => Err(format!(
                "{workload}/{key}: output digest {actual} differs from recorded {expected}"
            )),
            None => Err(format!("{workload}/{key}: no digest recorded")),
        }
    }

    /// Records the digest of `bytes` under `(workload, key)`.
    pub fn insert(&mut self, workload: &str, key: &str, bytes: &[u8]) {
        self.map
            .insert((workload.to_owned(), key.to_owned()), digest(bytes));
    }

    /// Replaces every entry of `workload` in `file` with this table's
    /// entries for it, keeping the other workloads' lines.
    pub fn write_workload(&self, workload: &str, file: &Path) -> std::io::Result<()> {
        let existing = std::fs::read_to_string(file).unwrap_or_default();
        let mut merged = Digests::parse(&existing)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        merged.map.retain(|(w, _), _| w != workload);
        for ((w, k), hex) in &self.map {
            if w == workload {
                merged.map.insert((w.clone(), k.clone()), hex.clone());
            }
        }
        let mut text = format!(
            "# Output digests at --seed {DEFAULT_SEED}: `workload key fnv1a-128`.\n\
             # Regenerate with `--record-digests perfbench/digests.txt`.\n"
        );
        for ((w, k), hex) in &merged.map {
            text.push_str(&format!("{w} {k} {hex}\n"));
        }
        std::fs::write(file, text)
    }
}

/// What a run does with output digests.
#[derive(Debug)]
pub enum DigestMode {
    /// Not the default seed: no expectation exists.
    Skip,
    /// Compare against the recorded table.
    Verify(Digests),
    /// Collect digests for `--record-digests`.
    Record(Digests),
}

impl DigestMode {
    /// Checks (or records) one output.
    pub fn check(&mut self, workload: &str, key: &str, bytes: &[u8]) -> Result<(), String> {
        match self {
            DigestMode::Skip => Ok(()),
            DigestMode::Verify(table) => table.verify(workload, key, bytes),
            DigestMode::Record(table) => {
                table.insert(workload, key, bytes);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_check_fails_on_a_corrupted_expectation() {
        let mut table = Digests::default();
        table.insert("paper-sweep", "s00", b"report bytes");
        assert_eq!(table.verify("paper-sweep", "s00", b"report bytes"), Ok(()));
        // Output changed: refused.
        assert!(table.verify("paper-sweep", "s00", b"report bytez").is_err());
        // Expectation corrupted (one hex digit flipped): refused.
        let good = digest(b"report bytes");
        let flipped = if good.ends_with('0') { '1' } else { '0' };
        let corrupted = format!("paper-sweep s00 {}{flipped}\n", &good[..31]);
        let table = Digests::parse(&corrupted).unwrap();
        assert!(table
            .map
            .contains_key(&("paper-sweep".to_owned(), "s00".to_owned())));
        assert!(table.verify("paper-sweep", "s00", b"report bytes").is_err());
        // No expectation at all: refused, not skipped.
        assert!(table.verify("paper-sweep", "s01", b"report bytes").is_err());
        assert!(Digests::parse("paper-sweep s00 nothex").is_err());
    }

    #[test]
    fn recorded_table_parses_and_covers_every_workload() {
        let table = Digests::recorded().unwrap();
        for workload in crate::WORKLOADS {
            let set = crate::digest_set(workload);
            assert!(
                table.map.keys().any(|(w, _)| w == set),
                "no digests recorded for {workload}"
            );
        }
    }
}
