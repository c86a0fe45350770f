//! Robustness of the simulation driver under degenerate and adversarial
//! configurations.

use vrecon_repro::prelude::*;

fn tiny_cluster() -> ClusterParams {
    let mut c = ClusterParams::cluster2();
    c.nodes.truncate(2);
    c
}

fn one_job_trace(ws_mb: u64, work_secs: u64) -> Trace {
    Trace {
        name: "one-job".into(),
        jobs: vec![JobSpec {
            id: JobId(0),
            name: "solo".into(),
            class: JobClass::CpuIntensive,
            submit: SimTime::from_secs(1),
            cpu_work: SimSpan::from_secs(work_secs),
            memory: MemoryProfile::constant(Bytes::from_mb(ws_mb)),
            io_rate: 0.0,
            malleable: None,
        }],
    }
}

#[test]
fn single_job_on_single_policy_matrix() {
    for policy in PolicyKind::ALL {
        let report = Simulation::new(SimConfig::new(tiny_cluster(), policy).with_seed(1))
            .run(&one_job_trace(10, 30));
        assert!(report.all_completed(), "{policy}");
        let job = &report.jobs[0];
        // A lone small job runs undisturbed: slowdown ~1 (remote submission
        // may add its 0.1s).
        assert!(
            job.slowdown() < 1.02,
            "{policy}: slowdown {}",
            job.slowdown()
        );
        assert_eq!(
            job.completed_at
                .unwrap()
                .saturating_since(job.spec.submit)
                .as_secs_f64()
                .round(),
            job.breakdown.wall().round(),
            "{policy}"
        );
    }
}

#[test]
fn mass_burst_at_time_zero_completes() {
    // Every job submitted at the same instant: the pathological burst.
    let mut rng = SimRng::seed_from(3);
    let jobs: Vec<JobSpec> = (0..60)
        .map(|i| JobSpec {
            id: JobId(i),
            name: format!("burst-{i}"),
            class: JobClass::CpuIntensive,
            submit: SimTime::ZERO,
            cpu_work: SimSpan::from_secs_f64(rng.uniform_range(10.0, 120.0)),
            memory: MemoryProfile::constant(Bytes::from_mb_f64(rng.uniform_range(5.0, 60.0))),
            io_rate: 0.0,
            malleable: None,
        })
        .collect();
    let trace = Trace {
        name: "mass-burst".into(),
        jobs,
    };
    for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
        let mut cluster = ClusterParams::cluster2();
        cluster.nodes.truncate(8);
        let report = Simulation::new(SimConfig::new(cluster, policy).with_seed(5)).run(&trace);
        assert!(
            report.all_completed(),
            "{policy}: {}",
            report.unfinished_jobs
        );
        report.check_breakdown_identity(0.05).unwrap();
    }
}

#[test]
fn horizon_cutoff_reports_unfinished_jobs_without_panicking() {
    let mut config = SimConfig::new(tiny_cluster(), PolicyKind::GLoadSharing).with_seed(1);
    config.max_sim_time = SimSpan::from_secs(10); // far too short
    let report = Simulation::new(config).run(&one_job_trace(10, 600));
    assert!(!report.all_completed());
    assert_eq!(report.unfinished_jobs, 1);
    // The partial job is still reported with its accumulated breakdown.
    assert_eq!(report.jobs.len(), 1);
    assert!(report.jobs[0].completed_at.is_none());
    assert!(report.jobs[0].breakdown.cpu > 0.0);
}

#[test]
fn wakes_past_the_end_of_simulated_time_are_not_scheduled() {
    // Two jobs of 10^19 µs CPU work share one node, so each finishes
    // 2·10^19 µs out: past the last representable instant. The node's
    // wake cannot be scheduled, and the run goes to its horizon with both
    // jobs unfinished instead of overflowing the clock.
    let job = |i: u64| JobSpec {
        id: JobId(i),
        name: format!("far-{i}"),
        class: JobClass::CpuIntensive,
        submit: SimTime::from_micros(i),
        cpu_work: SimSpan::from_micros(10_000_000_000_000_000_000),
        memory: MemoryProfile::constant(Bytes::from_mb(1)),
        io_rate: 0.0,
        malleable: None,
    };
    let trace = Trace {
        name: "far-future".into(),
        jobs: vec![job(0), job(1)],
    };
    let mut cluster = ClusterParams::cluster1();
    cluster.nodes.truncate(1);
    for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
        let config = SimConfig::new(cluster.clone(), policy)
            .with_seed(7)
            .with_max_sim_time(SimSpan::from_secs(600));
        let report = Simulation::new(config).run(&trace);
        assert!(!report.run_stats.drained, "{policy}");
        assert_eq!(report.unfinished_jobs, 2, "{policy}");
        assert!(
            report.jobs.iter().all(|j| j.breakdown.cpu > 0.0),
            "{policy}: both jobs ran until the horizon"
        );
    }
}

#[test]
fn job_arriving_after_horizon_counts_as_unfinished() {
    let mut config = SimConfig::new(tiny_cluster(), PolicyKind::GLoadSharing).with_seed(1);
    config.max_sim_time = SimSpan::from_secs(10);
    let mut trace = one_job_trace(10, 5);
    trace.jobs[0].submit = SimTime::from_secs(100); // never arrives
    let report = Simulation::new(config).run(&trace);
    assert_eq!(report.unfinished_jobs, 1);
}

#[test]
fn single_node_cluster_works() {
    let mut cluster = ClusterParams::cluster2();
    cluster.nodes.truncate(1);
    let trace = one_job_trace(10, 30);
    for policy in PolicyKind::ALL {
        let report =
            Simulation::new(SimConfig::new(cluster.clone(), policy).with_seed(1)).run(&trace);
        assert!(report.all_completed(), "{policy}");
    }
}

#[test]
fn fairness_metrics_on_real_runs() {
    use vrecon_repro::metrics::fairness::{jain_index, worst_to_mean};
    let mut cluster = ClusterParams::cluster2();
    cluster.nodes.truncate(8);
    let trace = synth::blocking_scenario(8, Bytes::from_mb(128));
    let report =
        Simulation::new(SimConfig::new(cluster, PolicyKind::VReconfiguration).with_seed(7))
            .run(&trace);
    let slowdowns: Vec<f64> = report.jobs.iter().map(|j| j.slowdown()).collect();
    let jain = jain_index(&slowdowns);
    assert!((0.0..=1.0).contains(&jain), "jain {jain}");
    assert!(worst_to_mean(&slowdowns) >= 1.0);
}
