//! The observability layer's contracts, end to end:
//!
//! * horizon-truncated runs are detectable from `RunReport.run_stats`
//!   (the regression test for the silently-discarded `RunStats` bug);
//! * chaining observers (auditor, tracer) never perturbs the simulation —
//!   the report is bit-identical with and without them;
//! * trace bytes are a pure function of (plan, seed): byte-identical
//!   across reruns, across concurrent execution, and report bytes are
//!   byte-identical across `--jobs` worker counts on the runner;
//! * a job's pending-queue and transit spans never overlap.

use std::collections::BTreeMap;
use std::sync::Arc;

use vr_runner::{ResultCache, Runner, Scenario, SweepOptions, SweepPlan};
use vr_trace::{chrome_trace, jsonl, TraceData};
use vrecon::report_json::encode_report;
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
    for audit in [false, true] {
        let plain =
            Simulation::new(config(PolicyKind::VReconfiguration).with_audit(audit)).run(&trace);
        let (traced, data) =
            Simulation::new(config(PolicyKind::VReconfiguration).with_audit(audit))
                .run_traced(&trace);
        // Bit-identical report — the tracer saw everything, changed nothing.
        assert_eq!(plain, traced, "audit={audit}");
        assert!(plain.audit_violations.is_empty());
        // The tracer mirrored the full event log.
        assert_eq!(data.records.len(), plain.events.len());
        assert_eq!(data.profile.engine_events, plain.run_stats.events_processed);
        assert!(!data.spans.is_empty());
    }
}

fn run_traced_once() -> (String, String) {
    let trace = blocking_trace();
    let (_, data): (RunReport, TraceData) =
        Simulation::new(config(PolicyKind::VReconfiguration)).run_traced(&trace);
    (chrome_trace(&data), jsonl(&data))
}

#[test]
fn trace_bytes_are_deterministic_across_runs_and_threads() {
    let (chrome_a, jsonl_a) = run_traced_once();
    let (chrome_b, jsonl_b) = run_traced_once();
    assert_eq!(chrome_a, chrome_b);
    assert_eq!(jsonl_a, jsonl_b);

    // Eight concurrent traced runs of the same scenario all produce the
    // serial bytes: nothing host-dependent leaks into the trace.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(run_traced_once)).collect();
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
    let (_, data) = Simulation::new(config).run_traced(&trace);
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
