//! The metric catalogue and the deterministic per-layer work counts.
//!
//! Engine internals (event queue, node advance, load index, detection)
//! are attributed through counts the program already reports in every
//! `RunReport`; the benchmark only reads them. The names here are the
//! ones `BENCHMARK.json` lists, in the same order.

use std::collections::BTreeMap;

use vrecon::{RunReport, SchedulerEventKind};

/// End-to-end metrics: `(name, unit)`. Every workload reports each.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports each; a layer
/// that a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("workload.gen_ms", "ms"),
    ("workload.jobs", "count"),
    ("runner.hash_ms", "ms"),
    ("runner.lookup_ms", "ms"),
    ("runner.store_ms", "ms"),
    ("runner.store_bytes", "bytes"),
    ("sim.busy_ms", "ms"),
    ("sim.calls", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.sim_seconds", "s"),
    ("metrics.node_samples", "count"),
    ("place.attempts", "count"),
    ("place.stale_bounces", "count"),
    ("place.useful_ratio", "ratio"),
    ("pending.blocked_jobs", "count"),
    ("pending.retries", "count"),
    ("reconf.detections", "count"),
    ("reconf.reservations", "count"),
    ("reconf.special_migrations", "count"),
    ("reconf.overload_migrations", "count"),
    ("plugin.resizes", "count"),
    ("faults.injected", "count"),
    ("log.records", "count"),
    ("report.encode_ms", "ms"),
    ("report.bytes", "bytes"),
    ("audit.overhead_ms", "ms"),
    ("wire.parse_ms", "ms"),
    ("wire.to_sim_ms", "ms"),
    ("wire.spec_bytes", "bytes"),
    ("serve.hot_hits", "count"),
    ("serve.misses", "count"),
    ("serve.refused", "count"),
    ("serve.hit_server_ms", "ms"),
    ("serve.hit_transport_ms", "ms"),
    ("serve.miss_server_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
    ("bench.host_probe_ms", "ms"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Deterministic work counts of one or more simulations, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Simulation calls.
    pub calls: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Engine events processed.
    pub events: u64,
    /// Simulated seconds to the last completion.
    pub sim_seconds: f64,
    /// Nodes × gauge sample ticks.
    pub node_samples: u64,
    /// Successful admissions (`placed` log records).
    pub placed: u64,
    /// Admissions bounced because the load index was stale.
    pub stale_bounces: u64,
    /// Distinct jobs that entered the pending queue.
    pub blocked_jobs: u64,
    /// `blocked` log records: every entry into the pending queue.
    pub blocked_records: u64,
    /// Blocking episodes detected.
    pub detections: u64,
    /// Reservations begun.
    pub reservations: u64,
    /// Migrations into reserved nodes.
    pub special_migrations: u64,
    /// Overload migrations.
    pub overload_migrations: u64,
    /// Malleable grows plus shrinks.
    pub resizes: u64,
    /// Injected fault events.
    pub faults: u64,
    /// Scheduler event-log records.
    pub log_records: u64,
}

impl Counts {
    /// The counts of one finished run.
    pub fn of(report: &RunReport) -> Counts {
        let log = report.events.entries();
        let kind = |k: SchedulerEventKind| log.iter().filter(|e| e.kind == k).count() as u64;
        let c = &report.counters;
        Counts {
            calls: 1,
            jobs: (report.summary.jobs - report.unfinished_jobs) as u64,
            events: report.run_stats.events_processed,
            sim_seconds: report.finished_at.as_secs_f64(),
            node_samples: (report.node_counters.len() * report.gauges.idle_memory_mb.len()) as u64,
            placed: kind(SchedulerEventKind::Placed),
            stale_bounces: c.stale_rejections,
            blocked_jobs: c.blocked_submissions,
            blocked_records: kind(SchedulerEventKind::Blocked),
            detections: c.blocking_detections,
            reservations: report.reservations.started,
            special_migrations: c.reserved_migrations,
            overload_migrations: c.overload_migrations,
            resizes: c.grows + c.shrinks,
            faults: report.faults.total_injected(),
            log_records: log.len() as u64,
        }
    }

    /// Adds another run's counts.
    pub fn add(&mut self, other: &Counts) {
        self.calls += other.calls;
        self.jobs += other.jobs;
        self.events += other.events;
        self.sim_seconds += other.sim_seconds;
        self.node_samples += other.node_samples;
        self.placed += other.placed;
        self.stale_bounces += other.stale_bounces;
        self.blocked_jobs += other.blocked_jobs;
        self.blocked_records += other.blocked_records;
        self.detections += other.detections;
        self.reservations += other.reservations;
        self.special_migrations += other.special_migrations;
        self.overload_migrations += other.overload_migrations;
        self.resizes += other.resizes;
        self.faults += other.faults;
        self.log_records += other.log_records;
    }

    /// Writes the count metrics into `out`. `busy_ms` is the measured
    /// simulation time the counts were produced in.
    pub fn fill(&self, busy_ms: f64, out: &mut BTreeMap<&'static str, f64>) {
        let attempts = self.placed + self.stale_bounces;
        out.insert("sim.busy_ms", busy_ms);
        out.insert("sim.calls", self.calls as f64);
        out.insert("sim.events", self.events as f64);
        out.insert(
            "sim.events_per_s",
            if busy_ms > 0.0 {
                self.events as f64 / (busy_ms / 1e3)
            } else {
                0.0
            },
        );
        out.insert("sim.sim_seconds", self.sim_seconds);
        out.insert("metrics.node_samples", self.node_samples as f64);
        out.insert("place.attempts", attempts as f64);
        out.insert("place.stale_bounces", self.stale_bounces as f64);
        out.insert(
            "place.useful_ratio",
            if attempts > 0 {
                self.placed as f64 / attempts as f64
            } else {
                0.0
            },
        );
        out.insert("pending.blocked_jobs", self.blocked_jobs as f64);
        out.insert(
            "pending.retries",
            self.blocked_records.saturating_sub(self.blocked_jobs) as f64,
        );
        out.insert("reconf.detections", self.detections as f64);
        out.insert("reconf.reservations", self.reservations as f64);
        out.insert("reconf.special_migrations", self.special_migrations as f64);
        out.insert(
            "reconf.overload_migrations",
            self.overload_migrations as f64,
        );
        out.insert("plugin.resizes", self.resizes as f64);
        out.insert("faults.injected", self.faults as f64);
        out.insert("log.records", self.log_records as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_used_once() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        for name in &names {
            assert!(valid_name(name), "illegal metric name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = vr_simcore::jsonio::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(|v| v.as_str())
                            .expect("name")
                            .to_owned(),
                        m.get("unit")
                            .and_then(|v| v.as_str())
                            .expect("unit")
                            .to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
