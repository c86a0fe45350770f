//! Property-based invariants of the whole simulator: random workloads on
//! random small clusters must preserve the accounting identities regardless
//! of policy. Case `i` of a property draws its workload from
//! `SimRng::seed_from(K).fork(i)`.

use vrecon_repro::prelude::*;

/// A randomly generated workload description.
#[derive(Debug, Clone)]
struct RandomWorkload {
    seed: u64,
    jobs: usize,
    nodes: usize,
    node_mb: u64,
    max_ws_frac: f64,
    arrival_rate: f64,
    policy: PolicyKind,
}

fn workload(rng: &mut SimRng) -> RandomWorkload {
    RandomWorkload {
        seed: rng.next_u64(),
        jobs: 2 + rng.index(38),
        nodes: 2 + rng.index(8),
        node_mb: *rng.choose(&[64, 128, 256]),
        max_ws_frac: rng.uniform_range(0.1, 0.9),
        arrival_rate: rng.uniform_range(0.05, 0.5),
        policy: *rng.choose(&PolicyKind::ALL),
    }
}

fn build_trace(w: &RandomWorkload) -> Trace {
    let mut rng = SimRng::seed_from(w.seed);
    let arrivals = vrecon_repro::workload::PoissonArrivals {
        rate_per_sec: w.arrival_rate,
        count: w.jobs,
    }
    .generate(&mut rng);
    let jobs = arrivals
        .iter()
        .enumerate()
        .map(|(i, &submit)| {
            let ws = Bytes::from_mb_f64(w.node_mb as f64 * rng.uniform_range(0.02, w.max_ws_frac));
            let work = rng.uniform_range(10.0, 240.0);
            JobSpec {
                id: JobId(i as u64),
                name: format!("rand-{i}"),
                class: JobClass::CpuIntensive,
                submit,
                cpu_work: SimSpan::from_secs_f64(work),
                memory: if rng.uniform() < 0.5 {
                    MemoryProfile::constant(ws)
                } else {
                    MemoryProfile::from_phases(vec![
                        (SimSpan::from_secs_f64(work * 0.2), ws.mul_f64(0.3)),
                        (SimSpan::MAX, ws),
                    ])
                    .expect("increasing boundaries")
                },
                io_rate: 0.0,
                malleable: None,
            }
        })
        .collect();
    Trace {
        name: format!("prop-{}", w.seed),
        jobs,
    }
}

fn run(w: &RandomWorkload) -> RunReport {
    let mut cluster = ClusterParams::cluster2();
    cluster.nodes.truncate(w.nodes);
    for node in &mut cluster.nodes {
        node.memory = vrecon_repro::cluster::MemoryParams::with_capacity(
            Bytes::from_mb(w.node_mb),
            Bytes::from_mb(w.node_mb),
        );
    }
    let trace = build_trace(w);
    trace.validate().expect("generated trace is valid");
    Simulation::new(SimConfig::new(cluster, w.policy).with_seed(w.seed ^ 0xabcd)).run(&trace)
}

/// Every job completes and its wall-clock identity holds.
#[test]
fn jobs_complete_and_breakdowns_are_exact() {
    for case in 0..48 {
        let w = workload(&mut SimRng::seed_from(1).fork(case));
        let report = run(&w);
        assert!(
            report.all_completed(),
            "{} unfinished under {}",
            report.unfinished_jobs,
            w.policy
        );
        assert_eq!(report.summary.jobs, w.jobs);
        assert!(report.check_breakdown_identity(0.05).is_ok());
    }
}

/// No breakdown component is ever negative and slowdowns are >= ~1.
#[test]
fn components_are_nonnegative() {
    for case in 0..48 {
        let w = workload(&mut SimRng::seed_from(2).fork(case));
        let report = run(&w);
        for job in &report.jobs {
            let b = &job.breakdown;
            assert!(
                b.cpu >= 0.0 && b.page >= 0.0 && b.queue >= -1e-9 && b.migration >= 0.0,
                "negative component: {b:?}"
            );
            assert!(
                job.slowdown() >= 1.0 - 1e-6,
                "slowdown {} < 1",
                job.slowdown()
            );
        }
    }
}

/// Reservation accounting always balances.
#[test]
fn reservations_balance() {
    for case in 0..48 {
        let w = workload(&mut SimRng::seed_from(3).fork(case));
        let report = run(&w);
        let r = report.reservations;
        assert_eq!(
            r.started,
            r.released_after_service + r.released_unused + r.timed_out
        );
        if w.policy != PolicyKind::VReconfiguration {
            assert_eq!(r.started, 0);
        }
    }
}

/// Gauges never go negative and idle memory never exceeds cluster total.
#[test]
fn gauges_stay_in_range() {
    for case in 0..48 {
        let w = workload(&mut SimRng::seed_from(4).fork(case));
        let report = run(&w);
        let total_mb = (w.nodes as u64 * w.node_mb) as f64;
        for (_, idle) in report.gauges.physical_idle_memory_mb.iter() {
            assert!(
                (0.0..=total_mb + 1e-6).contains(&idle),
                "idle {idle} of {total_mb}"
            );
        }
        for (_, skew) in report.gauges.balance_skew.iter() {
            assert!(skew >= 0.0);
        }
    }
}
