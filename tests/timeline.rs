//! Integration tests of the event-log timeline analysis: the operational
//! meaning of "quickly resolving the job blocking problem".

use std::collections::BTreeMap;

use vrecon_repro::analysis::timeline::{
    blocked_episode_durations, cluster_blocking_episodes, completion_throughput,
    pending_queue_timeline, reservation_timeline, reserved_service_episodes,
};
use vrecon_repro::prelude::*;

fn run(policy: PolicyKind) -> RunReport {
    let mut cluster = ClusterParams::cluster2();
    cluster.nodes.truncate(16);
    let trace = synth::blocking_scenario(16, Bytes::from_mb(128));
    Simulation::new(SimConfig::new(cluster, policy).with_seed(7)).run(&trace)
}

#[test]
fn vreconfiguration_shortens_total_blocked_time() {
    let gls = run(PolicyKind::GLoadSharing);
    let vr = run(PolicyKind::VReconfiguration);
    let total_blocked =
        |r: &RunReport| -> f64 { blocked_episode_durations(&r.events).iter().sum() };
    assert!(
        total_blocked(&vr) < total_blocked(&gls),
        "V-R total blocked time {:.0}s should be below G-LS {:.0}s",
        total_blocked(&vr),
        total_blocked(&gls)
    );
}

#[test]
fn queue_timeline_starts_and_ends_empty() {
    let report = run(PolicyKind::VReconfiguration);
    let timeline = pending_queue_timeline(&report.events);
    if let Some(&(_, last)) = timeline.last() {
        assert_eq!(last, 0, "queue must drain by the end of the run");
    }
    // The queue length never exceeds the number of jobs.
    for (_, len) in &timeline {
        assert!(*len <= report.summary.jobs);
    }
}

#[test]
fn reservation_timeline_matches_stats_and_ends_at_zero() {
    let report = run(PolicyKind::VReconfiguration);
    let timeline = reservation_timeline(&report.events);
    let peaks = timeline.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let cap = ReservationOptions::default().max_reserved(16);
    assert!(peaks <= cap, "peak {peaks} above cap {cap}");
    assert_eq!(timeline.last().map(|(_, n)| *n), Some(0));
    let begins = timeline.windows(2).filter(|w| w[1].1 > w[0].1).count() as u64
        + u64::from(timeline.first().map(|(_, n)| *n == 1).unwrap_or(false));
    assert_eq!(begins, report.reservations.started);
}

#[test]
fn throughput_accounts_for_every_completion() {
    let report = run(PolicyKind::VReconfiguration);
    let buckets = completion_throughput(&report.events, SimSpan::from_secs(60));
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(total as usize, report.summary.jobs);
}

#[test]
fn blocking_episodes_exist_under_pressure_and_resolve() {
    let report = run(PolicyKind::VReconfiguration);
    let episodes = cluster_blocking_episodes(&report.events);
    // The scenario is built to block; and every episode closed (the queue
    // drained), which is the adaptive-resolution claim.
    assert!(!episodes.is_empty(), "scenario failed to block");
    for (start, dur) in &episodes {
        assert!(*dur > SimSpan::ZERO, "degenerate episode at {start}");
    }
}

#[test]
fn open_reservation_episodes_come_back_in_node_order() {
    // SPEC-Trace-3 on cluster 1 under V-R, cut at 600 s while several
    // workstations are still reserved.
    let trace = spec_trace(TraceLevel::Normal, &mut SimRng::seed_from(42));
    let config = SimConfig::new(ClusterParams::cluster1(), PolicyKind::VReconfiguration)
        .with_seed(7)
        .with_max_sim_time(SimSpan::from_secs(600));
    let log = Simulation::new(config).run(&trace).events;
    let episodes = reserved_service_episodes(&log);
    assert_eq!(episodes, reserved_service_episodes(&log));

    // The jobs each still-reserved workstation has served since its
    // reservation began, in node order.
    let mut serving: BTreeMap<NodeId, Vec<JobId>> = BTreeMap::new();
    for e in log.entries() {
        let Some(node) = e.node else { continue };
        match (e.kind, e.job) {
            (SchedulerEventKind::ReservationBegan, _) => {
                serving.insert(node, Vec::new());
            }
            (SchedulerEventKind::SpecialServiceStarted, Some(job)) => {
                if let Some(jobs) = serving.get_mut(&node) {
                    jobs.push(job);
                }
            }
            (SchedulerEventKind::ReservationReleased, _) => {
                serving.remove(&node);
            }
            _ => {}
        }
    }
    let busy = serving.values().filter(|jobs| !jobs.is_empty()).count();
    assert!(
        busy > 1,
        "{} open reservations, {busy} serving",
        serving.len()
    );
    // Those episodes come last, in node order.
    let open: Vec<Vec<JobId>> = episodes[episodes.len() - serving.len()..]
        .iter()
        .map(|served| served.iter().map(|&(job, _, _)| job).collect())
        .collect();
    assert_eq!(open, serving.into_values().collect::<Vec<_>>());
}
