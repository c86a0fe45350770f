//! The observability layer's contracts, end to end:
//!
//! * horizon-truncated runs are detectable from `RunReport.run_stats`
//!   (the regression test for the silently-discarded `RunStats` bug);
//! * the invariant auditor, the one engine hook, never perturbs the
//!   simulation — the report is bit-identical with it on and off;
//! * a trace is derived from the finished report (`RunReport::trace`):
//!   one record per event-log entry, and a report read back from disk
//!   gives the same trace bytes as the run that produced it;
//! * trace bytes are a pure function of (plan, seed): byte-identical
//!   across reruns, across concurrent execution, and report bytes are
//!   byte-identical across `--jobs` worker counts on the runner;
//! * a job's pending-queue and transit spans never overlap;
//! * transit spans cover a job's whole time on the wire, failed and
//!   retried attempts included.

use std::collections::BTreeMap;
use std::sync::Arc;

use vr_faults::FaultPlan;
use vr_runner::{ResultCache, Runner, Scenario, SweepOptions, SweepPlan};
use vr_trace::{chrome_trace, jsonl};
use vrecon::report_json::{decode_report, encode_report};
use vrecon_repro::prelude::*;

fn small_cluster() -> ClusterParams {
    let mut c = ClusterParams::cluster2();
    c.nodes.truncate(8);
    c
}

fn config(policy: PolicyKind) -> SimConfig {
    SimConfig::new(small_cluster(), policy).with_seed(123)
}

fn blocking_trace() -> Trace {
    synth::blocking_scenario(8, Bytes::from_mb(128))
}

#[test]
fn truncated_runs_are_flagged_in_run_stats() {
    let trace = blocking_trace();
    // A one-second horizon cannot drain this workload.
    let truncated = Simulation::new(
        config(PolicyKind::VReconfiguration).with_max_sim_time(SimSpan::from_secs(1)),
    )
    .run(&trace);
    assert!(!truncated.run_stats.drained, "run must report truncation");
    assert!(truncated.run_stats.final_time <= SimTime::from_secs(1));
    assert!(truncated.unfinished_jobs > 0);

    // The default horizon drains it, and the stats say so.
    let drained = Simulation::new(config(PolicyKind::VReconfiguration)).run(&trace);
    assert!(drained.run_stats.drained);
    assert!(drained.run_stats.events_processed > truncated.run_stats.events_processed);
    let last_logged = drained.events.entries().last().map(|e| e.time);
    assert!(Some(drained.run_stats.final_time) >= last_logged);
}

#[test]
fn observers_do_not_perturb_the_simulation() {
    let trace = blocking_trace();
    let run = |audit: bool| {
        Simulation::new(config(PolicyKind::VReconfiguration).with_audit(audit)).run(&trace)
    };
    let plain = run(false);
    let audited = run(true);
    // Bit-identical report — the auditor saw everything, changed nothing.
    assert_eq!(plain, audited);
    assert!(audited.audit_violations.is_empty());
    // The trace holds one record per log entry and counts every engine
    // event.
    let data = plain.trace();
    assert_eq!(data.records.len(), plain.events.len());
    assert_eq!(data.profile.engine_events, plain.run_stats.events_processed);
    assert!(!data.spans.is_empty());
}

fn trace_exports() -> (String, String) {
    let data = Simulation::new(config(PolicyKind::VReconfiguration))
        .run(&blocking_trace())
        .trace();
    (chrome_trace(&data), jsonl(&data))
}

#[test]
fn trace_bytes_are_deterministic_across_runs_and_threads() {
    let (chrome_a, jsonl_a) = trace_exports();
    let (chrome_b, jsonl_b) = trace_exports();
    assert_eq!(chrome_a, chrome_b);
    assert_eq!(jsonl_a, jsonl_b);

    // Eight concurrent traced runs of the same scenario all produce the
    // serial bytes: nothing host-dependent leaks into the trace.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(trace_exports)).collect();
        for handle in handles {
            let (chrome, lines) = handle.join().expect("traced run panicked");
            assert_eq!(chrome, chrome_a);
            assert_eq!(lines, jsonl_a);
        }
    });
}

#[test]
fn report_bytes_identical_across_runner_worker_counts() {
    let trace = Arc::new(blocking_trace());
    let plan = || -> SweepPlan {
        [
            PolicyKind::GLoadSharing,
            PolicyKind::VReconfiguration,
            PolicyKind::SuspendLargest,
        ]
        .into_iter()
        .map(|policy| Scenario::new(config(policy), Arc::clone(&trace)))
        .collect()
    };
    let run_with = |jobs: usize| -> Vec<String> {
        let runner = Runner::new(SweepOptions {
            jobs,
            cache: ResultCache::disabled(),
            progress: false,
        });
        let outcome = runner.run(&plan());
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        outcome
            .results
            .iter()
            .flatten()
            .map(|r| encode_report(&r.report))
            .collect()
    };
    let serial = run_with(1);
    let parallel = run_with(8);
    assert_eq!(serial, parallel);
    // The encoding carries the run stats (schema v2), so this equality
    // also pins events_processed/drained across worker counts.
    assert!(serial[0].contains("\"run_stats\":"));
    assert!(serial[0].contains("\"drained\":true"));
}

#[test]
fn pending_and_transit_spans_never_overlap() {
    // `vrecon trace app --level 1 --nodes 8`, the run CI's trace smoke test
    // exports: App-Trace-1 on eight cluster-2 nodes under V-R.
    let trace = app_trace(TraceLevel::Light, &mut SimRng::seed_from(42));
    let config = SimConfig::new(small_cluster(), PolicyKind::VReconfiguration).with_seed(7);
    let data = Simulation::new(config).run(&trace).trace();
    // The run must leave the queue by remote submission and bounce jobs
    // from transit back into the queue, or the check below is vacuous.
    let mut last_kind: BTreeMap<u64, &str> = BTreeMap::new();
    let (mut queue_to_transit, mut transit_to_queue) = (0usize, 0usize);
    for r in &data.records {
        let Some(job) = r.job else { continue };
        match (last_kind.insert(job, r.kind), r.kind) {
            (Some("blocked"), "transit-started") => queue_to_transit += 1,
            (Some("transit-started"), "blocked") => transit_to_queue += 1,
            _ => {}
        }
    }
    assert!(queue_to_transit > 0, "no blocked -> transit-started step");
    assert!(transit_to_queue > 0, "no transit-started -> blocked step");

    let mut transits: BTreeMap<u64, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for s in data.spans.iter().filter(|s| s.name == "transit") {
        let job = s.job.expect("transit spans belong to a job");
        transits.entry(job).or_default().push((s.start, s.end));
    }
    for p in data.spans.iter().filter(|s| s.name == "pending") {
        let job = p.job.expect("pending spans belong to a job");
        for &(start, end) in transits.get(&job).into_iter().flatten() {
            assert!(
                p.end <= start || end <= p.start,
                "job {job}: pending {}..{} overlaps transit {start}..{end}",
                p.start,
                p.end
            );
        }
    }
}

/// App-Trace-1 on eight cluster-2 nodes under V-R, with each migration
/// attempt failing in transit with probability 0.5.
fn faulted_run() -> RunReport {
    let trace = app_trace(TraceLevel::Light, &mut SimRng::seed_from(42));
    let config = SimConfig::new(small_cluster(), PolicyKind::VReconfiguration)
        .with_seed(7)
        .with_faults(FaultPlan::none().with_migration_failures(0.5));
    Simulation::new(config).run(&trace)
}

#[test]
fn stored_reports_give_the_same_trace() {
    // What `.vr-cache` holds is enough to render a run's trace without
    // simulating it again.
    let report = faulted_run();
    let stored = decode_report(&encode_report(&report)).expect("report decodes");
    let (live, read_back) = (report.trace(), stored.trace());
    assert_eq!(chrome_trace(&read_back), chrome_trace(&live));
    assert_eq!(jsonl(&read_back), jsonl(&live));
}

#[test]
fn transit_spans_cover_retried_migrations() {
    let data = faulted_run().trace();

    // In-transit time read straight off the records: a job is on the wire
    // from a transit start until it is placed, bounced back to the queue
    // or re-queued. A failed attempt that is retried leaves it on the wire.
    let mut on_wire: BTreeMap<u64, SimTime> = BTreeMap::new();
    let mut in_transit_us = 0u64;
    let mut failures = 0usize;
    for r in &data.records {
        let Some(job) = r.job else { continue };
        match r.kind {
            "transit-started" | "migration-started" | "special-service-started" => {
                on_wire.entry(job).or_insert(r.time);
            }
            "placed" | "blocked" | "requeued" => {
                if let Some(start) = on_wire.remove(&job) {
                    in_transit_us += (r.time - start).as_micros();
                }
            }
            "migration-failed" => failures += 1,
            _ => {}
        }
    }
    for start in on_wire.into_values() {
        in_transit_us += (data.final_time - start).as_micros();
    }
    // Some failures must be retried rather than re-queued, or the check
    // below is vacuous.
    let requeued = data.records.iter().filter(|r| r.kind == "requeued").count();
    assert!(
        failures > requeued,
        "no failed migration was retried ({failures} failures, {requeued} re-queues)"
    );

    let span_us: u64 = data
        .spans
        .iter()
        .filter(|s| s.name == "transit")
        .map(|s| (s.end - s.start).as_micros())
        .sum();
    assert!(in_transit_us > 0);
    assert_eq!(
        span_us, in_transit_us,
        "transit spans cover {span_us} µs of {in_transit_us} µs in transit"
    );
}
