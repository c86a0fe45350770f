//! Metamorphic properties of the simulator.
//!
//! A differential oracle cannot catch a bug both implementations share. A
//! *metamorphic* property can: transform the scenario in a way whose effect
//! on the report is provable from the model definition, run the engine on
//! both versions, and check the predicted relation. Each helper returns
//! `Err` with a description either when a precondition fails (the property
//! simply does not apply — a test bug) or when the property is violated (a
//! simulator bug).

use vr_cluster::job::{JobId, JobSpec};
use vr_faults::FaultPlan;
use vr_simcore::rng::SimRng;
use vr_simcore::time::SimTime;
use vr_workload::trace::Trace;
use vrecon::config::SimConfig;
use vrecon::plugin::ParamBag;
use vrecon::policy::{FractionalParams, PolicyKind};
use vrecon::{compare_reports, Simulation};

/// Two job specs are interchangeable if they differ at most in id and name.
fn interchangeable(a: &JobSpec, b: &JobSpec) -> bool {
    a.class == b.class
        && a.submit == b.submit
        && a.cpu_work == b.cpu_work
        && a.memory == b.memory
        && a.io_rate == b.io_rate
}

/// **Property: arrival-burst permutation invariance.**
///
/// If every group of jobs submitted at the same instant consists of jobs
/// that are physically identical (same work, memory profile, and class —
/// only names differ), then permuting each group within the trace and
/// renumbering ids sequentially yields a report identical in every compared
/// field: the k-th arrival event draws the k-th home from the scheduler's
/// RNG regardless of which (identical) job it carries, so the two runs are
/// isomorphic under the position relabelling.
///
/// # Errors
///
/// Returns an error if the precondition fails (a burst mixes non-identical
/// jobs) or the reports differ.
pub fn arrival_burst_permutation_invariance(
    config: &SimConfig,
    trace: &Trace,
    perm_seed: u64,
) -> Result<(), String> {
    config.validate()?;
    trace.validate()?;

    // Group consecutive equal-submit jobs and verify interchangeability.
    let mut groups: Vec<Vec<JobSpec>> = Vec::new();
    for job in &trace.jobs {
        match groups.last_mut() {
            Some(group) if group[0].submit == job.submit => {
                if !interchangeable(&group[0], job) {
                    return Err(format!(
                        "precondition: burst at {} mixes non-identical jobs ({} vs {})",
                        job.submit, group[0].name, job.name
                    ));
                }
                group.push(job.clone());
            }
            _ => groups.push(vec![job.clone()]),
        }
    }

    // vr-analyze::rng-authority(reason = "the permutation stream is deliberately divorced from the simulation seed; it must vary while the scenario stays fixed")
    let mut rng = SimRng::seed_from(perm_seed);
    let mut permuted_jobs: Vec<JobSpec> = Vec::new();
    for mut group in groups {
        rng.shuffle(&mut group);
        permuted_jobs.extend(group);
    }
    for (i, job) in permuted_jobs.iter_mut().enumerate() {
        job.id = JobId(i as u64);
    }
    let permuted = Trace {
        name: trace.name.clone(),
        jobs: permuted_jobs,
    };
    permuted.validate()?;

    let base = Simulation::new(config.clone()).run(trace);
    let shuffled = Simulation::new(config.clone()).run(&permuted);
    let diff = compare_reports(&base, &shuffled, 0.0);
    if diff.is_match() {
        Ok(())
    } else {
        Err(format!(
            "arrival-burst permutation changed the report:\n{}",
            diff.render()
        ))
    }
}

/// **Property: uniform CPU-speed scaling.**
///
/// Scale every node's CPU speed by `factor > 0`. Under `NoLoadSharing`
/// with all jobs submitted at time zero, the whole trajectory is a pure
/// time rescaling: memory-phase boundaries and completions are defined in
/// *progress* space, so every per-job rate scales by `factor` and every
/// completion time by `1/factor`, while the CPU and page-stall components
/// of each job's breakdown are invariant and no migration cost ever
/// accrues. (The queue component is *not* invariant — it is wall time
/// minus the invariant components — so it is deliberately unchecked.)
///
/// The property only holds if no job ever waits in the cluster pending
/// queue (the retry period is a fixed wall-clock timescale); this is
/// checked on the reports rather than assumed.
///
/// # Errors
///
/// Returns an error if a precondition fails or the scaling relation is
/// violated.
pub fn cpu_speed_scaling(config: &SimConfig, trace: &Trace, factor: f64) -> Result<(), String> {
    config.validate()?;
    trace.validate()?;
    if !(factor > 0.0 && factor.is_finite()) {
        return Err(format!("precondition: factor {factor} must be positive"));
    }
    if config.policy != PolicyKind::NoLoadSharing {
        return Err("precondition: cpu_speed_scaling requires NoLoadSharing".to_owned());
    }
    if trace.jobs.iter().any(|j| j.submit != SimTime::ZERO) {
        return Err("precondition: all jobs must be submitted at time zero".to_owned());
    }

    let mut scaled_config = config.clone();
    for node in &mut scaled_config.cluster.nodes {
        node.cpu.speed *= factor;
    }

    let base = Simulation::new(config.clone()).run(trace);
    let scaled = Simulation::new(scaled_config).run(trace);
    if base.counters.blocked_submissions != 0 || scaled.counters.blocked_submissions != 0 {
        return Err("precondition: a job hit the pending queue; scaling does not apply".to_owned());
    }
    if base.jobs.len() != scaled.jobs.len() {
        return Err(format!(
            "job count changed under speed scaling: {} vs {}",
            base.jobs.len(),
            scaled.jobs.len()
        ));
    }
    for (b, s) in base.jobs.iter().zip(scaled.jobs.iter()) {
        if b.id() != s.id() {
            return Err(format!("job order changed: {:?} vs {:?}", b.id(), s.id()));
        }
        match (b.completed_at, s.completed_at) {
            (Some(tb), Some(ts)) => {
                let expected = tb.as_micros() as f64 / factor;
                let got = ts.as_micros() as f64;
                let allowed = 100.0 + 1e-6 * expected.abs();
                if (got - expected).abs() > allowed {
                    return Err(format!(
                        "job {:?}: completion {}us, expected {}us (= {}us / {factor})",
                        b.id(),
                        got,
                        expected,
                        tb.as_micros()
                    ));
                }
            }
            (None, None) => {}
            _ => {
                return Err(format!(
                    "job {:?}: completion state changed under speed scaling",
                    b.id()
                ))
            }
        }
        let cpu_err = (b.breakdown.cpu - s.breakdown.cpu).abs();
        if cpu_err > 1e-6 * (1.0 + b.breakdown.cpu.abs()) {
            return Err(format!(
                "job {:?}: cpu component not invariant: {} vs {}",
                b.id(),
                b.breakdown.cpu,
                s.breakdown.cpu
            ));
        }
        let page_err = (b.breakdown.page - s.breakdown.page).abs();
        if page_err > 1e-6 * (1.0 + b.breakdown.page.abs()) {
            return Err(format!(
                "job {:?}: page component not invariant: {} vs {}",
                b.id(),
                b.breakdown.page,
                s.breakdown.page
            ));
        }
        // vr-lint::allow(float-eq, reason = "migration time is only ever incremented by whole costs, so NoLoadSharing must leave it at exactly literal 0.0")
        if b.breakdown.migration != 0.0 || s.breakdown.migration != 0.0 {
            return Err(format!(
                "job {:?}: migration cost under NoLoadSharing: {} / {}",
                b.id(),
                b.breakdown.migration,
                s.breakdown.migration
            ));
        }
    }
    Ok(())
}

/// **Property: an all-zero fault plan is no fault plan.**
///
/// `FaultPlan::none()` has no crashes, zero failure probabilities, and zero
/// stall — the injector draws no randomness for zero-probability faults, so
/// the runs must be equal in *every* field, event log included.
///
/// # Errors
///
/// Returns an error if the two reports differ anywhere.
pub fn zero_fault_plan_equivalence(config: &SimConfig, trace: &Trace) -> Result<(), String> {
    config.validate()?;
    trace.validate()?;
    let mut without = config.clone();
    without.fault_plan = None;
    let mut with_zero = config.clone();
    with_zero.fault_plan = Some(FaultPlan::none());

    let base = Simulation::new(without).run(trace);
    let zeroed = Simulation::new(with_zero).run(trace);
    if base == zeroed {
        return Ok(());
    }
    let diff = compare_reports(&base, &zeroed, 0.0);
    Err(format!(
        "zero fault plan changed the run:\n{}",
        if diff.is_match() {
            "(difference is in the event log or run stats)".to_owned()
        } else {
            diff.render()
        }
    ))
}

/// **Property: a frozen malleable range is G-Loadsharing.**
///
/// When every malleable declaration in the trace has `min_width ==
/// max_width`, no job can ever grow or shrink, so the malleable family is
/// G-Loadsharing with extra (always-empty) resize scans: the two reports
/// must be equal in every field once the policy label is normalized —
/// grow and shrink are exact inverses of each other, and here neither
/// ever fires.
///
/// # Errors
///
/// Returns an error if a precondition fails (wrong policy, an unfrozen
/// range) or the reports differ.
pub fn frozen_malleable_is_gloadsharing(config: &SimConfig, trace: &Trace) -> Result<(), String> {
    config.validate()?;
    trace.validate()?;
    if config.policy != PolicyKind::Malleable {
        return Err("precondition: frozen_malleable_is_gloadsharing requires Malleable".to_owned());
    }
    if let Some(job) = trace
        .jobs
        .iter()
        .find(|j| j.malleable.is_some_and(|m| m.min_width != m.max_width))
    {
        return Err(format!(
            "precondition: job {:?} has an unfrozen range",
            job.id
        ));
    }
    let mut gls_config = config.clone();
    gls_config.policy = PolicyKind::GLoadSharing;
    gls_config.policy_params = ParamBag::new();

    let mut malleable = Simulation::new(config.clone()).run(trace);
    let gls = Simulation::new(gls_config).run(trace);
    if malleable.counters.grows + malleable.counters.shrinks != 0 {
        return Err(format!(
            "a frozen range resized anyway: {} grows, {} shrinks",
            malleable.counters.grows, malleable.counters.shrinks
        ));
    }
    malleable.policy = PolicyKind::GLoadSharing;
    if malleable == gls {
        Ok(())
    } else {
        let diff = compare_reports(&malleable, &gls, 0.0);
        Err(format!(
            "frozen malleable diverged from G-Loadsharing:\n{}",
            if diff.is_match() {
                "(difference is in the event log or run stats)".to_owned()
            } else {
                diff.render()
            }
        ))
    }
}

/// **Property: unit oversubscription is G-Loadsharing.**
///
/// `oversub = 1` makes the fractional slot cap `floor(slots × 1) = slots`
/// on every node — the hardware ceiling — so the fractional family
/// degenerates to G-Loadsharing exactly, the same way a CPU-speed factor
/// of 1 degenerates the scaling law to identity.
///
/// # Errors
///
/// Returns an error if a precondition fails (wrong policy, `oversub`
/// not 1) or the reports differ.
pub fn unit_oversub_is_gloadsharing(config: &SimConfig, trace: &Trace) -> Result<(), String> {
    config.validate()?;
    trace.validate()?;
    if config.policy != PolicyKind::Fractional {
        return Err("precondition: unit_oversub_is_gloadsharing requires Fractional".to_owned());
    }
    let params = FractionalParams::from_bag(&config.policy_params)?;
    // vr-lint::allow(float-eq, reason = "precondition on a literal parameter value, not on computed arithmetic")
    if params.oversub != 1.0 {
        return Err(format!(
            "precondition: oversub must be exactly 1, got {}",
            params.oversub
        ));
    }
    let mut gls_config = config.clone();
    gls_config.policy = PolicyKind::GLoadSharing;
    gls_config.policy_params = ParamBag::new();

    let mut fractional = Simulation::new(config.clone()).run(trace);
    let gls = Simulation::new(gls_config).run(trace);
    fractional.policy = PolicyKind::GLoadSharing;
    if fractional == gls {
        Ok(())
    } else {
        let diff = compare_reports(&fractional, &gls, 0.0);
        Err(format!(
            "unit-oversub fractional diverged from G-Loadsharing:\n{}",
            if diff.is_match() {
                "(difference is in the event log or run stats)".to_owned()
            } else {
                diff.render()
            }
        ))
    }
}

/// Side-by-side blocking measurements for the G-Loadsharing vs
/// V-Reconfiguration comparison of [`gls_vs_vr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingComparison {
    /// Jobs that entered the pending queue under G-Loadsharing.
    pub gls_blocked: u64,
    /// Jobs that entered the pending queue under V-Reconfiguration.
    pub vr_blocked: u64,
    /// Average slowdown under G-Loadsharing.
    pub gls_avg_slowdown: f64,
    /// Average slowdown under V-Reconfiguration.
    pub vr_avg_slowdown: f64,
}

/// Runs the same scenario under `GLoadSharing` and `VReconfiguration` and
/// returns both policies' blocking counts and average slowdowns.
///
/// V-reconfiguration is designed to relieve the blocking *problem*, and on
/// blocking-prone scenarios its average slowdown is reliably lower — that
/// is the paper's claim and the relation tests assert. The raw
/// blocked-submission *count* is not monotone: reserving a workstation
/// removes capacity, so a few extra jobs transiently pend even while
/// overall service improves, which is why this helper reports the numbers
/// instead of asserting an inequality.
///
/// # Errors
///
/// Returns an error if the config or trace fails validation.
pub fn gls_vs_vr(config: &SimConfig, trace: &Trace) -> Result<BlockingComparison, String> {
    config.validate()?;
    trace.validate()?;
    let mut gls_config = config.clone();
    gls_config.policy = PolicyKind::GLoadSharing;
    let mut vr_config = config.clone();
    vr_config.policy = PolicyKind::VReconfiguration;
    let gls = Simulation::new(gls_config).run(trace);
    let vr = Simulation::new(vr_config).run(trace);
    Ok(BlockingComparison {
        gls_blocked: gls.counters.blocked_submissions,
        vr_blocked: vr.counters.blocked_submissions,
        gls_avg_slowdown: gls.avg_slowdown(),
        vr_avg_slowdown: vr.avg_slowdown(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::job::{JobClass, MemoryProfile};
    use vr_cluster::params::ClusterParams;
    use vr_cluster::units::Bytes;
    use vr_simcore::time::SimSpan;
    use vr_workload::synth;

    fn small_cluster(n: usize) -> ClusterParams {
        let mut cluster = ClusterParams::cluster2();
        cluster.nodes.truncate(n);
        cluster
    }

    fn burst_trace(bursts: &[(u64, usize, u64, u64)]) -> Trace {
        // (submit_s, count, cpu_work_s, ws_mb) per burst.
        let mut jobs = Vec::new();
        for &(submit_s, count, work_s, ws_mb) in bursts {
            for _ in 0..count {
                let id = JobId(jobs.len() as u64);
                jobs.push(JobSpec {
                    id,
                    name: format!("job-{}", jobs.len()),
                    class: JobClass::CpuIntensive,
                    submit: SimTime::from_secs(submit_s),
                    cpu_work: SimSpan::from_secs(work_s),
                    memory: MemoryProfile::constant(Bytes::from_mb(ws_mb)),
                    io_rate: 0.0,
                    malleable: None,
                });
            }
        }
        Trace {
            name: "burst-trace".to_owned(),
            jobs,
        }
    }

    #[test]
    fn burst_permutation_is_invariant() {
        let trace = burst_trace(&[(0, 4, 30, 40), (10, 3, 60, 80), (50, 2, 15, 20)]);
        for policy in PolicyKind::ALL {
            let config = SimConfig::new(small_cluster(4), policy).with_seed(11);
            arrival_burst_permutation_invariance(&config, &trace, 5)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn mixed_burst_is_rejected() {
        let mut trace = burst_trace(&[(0, 3, 30, 40)]);
        trace.jobs[1].cpu_work = SimSpan::from_secs(31);
        let config = SimConfig::new(small_cluster(4), PolicyKind::GLoadSharing);
        let err = arrival_burst_permutation_invariance(&config, &trace, 5).unwrap_err();
        assert!(err.contains("precondition"), "{err}");
    }

    #[test]
    fn speed_scaling_scales_completions() {
        let trace = burst_trace(&[(0, 6, 120, 30)]);
        let config = SimConfig::new(small_cluster(4), PolicyKind::NoLoadSharing).with_seed(3);
        for factor in [0.5, 2.0, 3.0] {
            cpu_speed_scaling(&config, &trace, factor)
                .unwrap_or_else(|e| panic!("factor {factor}: {e}"));
        }
    }

    #[test]
    fn speed_scaling_rejects_wrong_policy() {
        let trace = burst_trace(&[(0, 2, 10, 10)]);
        let config = SimConfig::new(small_cluster(4), PolicyKind::GLoadSharing);
        assert!(cpu_speed_scaling(&config, &trace, 2.0).is_err());
    }

    #[test]
    fn zero_plan_is_no_plan() {
        let trace = burst_trace(&[(0, 4, 30, 40), (20, 4, 45, 90)]);
        for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
            let config = SimConfig::new(small_cluster(4), policy).with_seed(9);
            zero_fault_plan_equivalence(&config, &trace)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    fn annotate_malleable(mut trace: Trace, min: u32, max: u32) -> Trace {
        for (i, job) in trace.jobs.iter_mut().enumerate() {
            if i % 2 == 0 {
                job.malleable = Some(vr_cluster::job::MalleableSpec {
                    min_width: min,
                    max_width: max,
                });
            }
        }
        trace
    }

    #[test]
    fn frozen_malleable_matches_gls() {
        // Frozen at width 2: the width-aware rate path runs under *both*
        // policies (widths come from the spec, not the policy), and no
        // resize directive can fire.
        let trace = annotate_malleable(burst_trace(&[(0, 6, 40, 30), (20, 4, 25, 60)]), 2, 2);
        let config = SimConfig::new(small_cluster(4), PolicyKind::Malleable).with_seed(5);
        frozen_malleable_is_gloadsharing(&config, &trace).unwrap();
    }

    #[test]
    fn unit_oversub_matches_gls() {
        let trace = burst_trace(&[(0, 8, 40, 30), (15, 6, 25, 60)]);
        let config = SimConfig::new(small_cluster(4), PolicyKind::Fractional)
            .with_seed(5)
            .with_policy_params(ParamBag::new().with("oversub", 1.0));
        unit_oversub_is_gloadsharing(&config, &trace).unwrap();
    }

    #[test]
    fn fractional_time_sharing_matches_the_speed_law() {
        // The fractional analogue of the CPU-speed-scaling law: with 2×
        // oversubscription on one workstation, 2k CPU-bound jobs all run
        // at once, each at speed·ε(2k)/2k — so every completion lands at
        // exactly 2k·W / (speed·ε(2k)), the processor-sharing prediction.
        let cluster = small_cluster(1);
        let node = cluster.nodes[0];
        let k = 2 * node.cpu.slots as usize; // 16 jobs vs 8 hardware slots
        let work_s = 120u64;
        let trace = burst_trace(&[(0, k, work_s, 2)]);
        let config = SimConfig::new(cluster.clone(), PolicyKind::Fractional).with_seed(3);
        let report = Simulation::new(config).run(&trace);
        assert!(report.all_completed(), "fractional run left jobs pending");
        assert_eq!(
            report.counters.blocked_submissions, 0,
            "oversubscription should have absorbed the whole burst"
        );
        let q = node.cpu.quantum.as_secs_f64();
        let cs = node.cpu.context_switch.as_secs_f64();
        let eff = q / (q + cs);
        let expected = k as f64 * work_s as f64 / (node.cpu.speed * eff);
        for job in &report.jobs {
            let got = job.completed_at.unwrap().as_secs_f64();
            assert!(
                (got - expected).abs() <= 1e-6 * expected,
                "job {:?} completed at {got:.6}s, processor sharing predicts {expected:.6}s",
                job.id()
            );
        }
        // The law's other half: the hardware cap alone cannot absorb the
        // burst, so plain G-Loadsharing must block the overflow jobs.
        let gls_config = SimConfig::new(cluster, PolicyKind::GLoadSharing).with_seed(3);
        let gls = Simulation::new(gls_config).run(&trace);
        assert!(
            gls.counters.blocked_submissions > 0,
            "scenario failed to saturate the hardware slots"
        );
    }

    #[test]
    fn param_bags_round_trip_under_random_contents() {
        let mut rng = SimRng::seed_from(123);
        for _ in 0..200 {
            let mut bag = ParamBag::new();
            for _ in 0..rng.index(5) {
                let key = format!("k{}", rng.index(8));
                let value = format!("{}.{}", rng.index(1000), rng.index(10));
                bag = bag.with(&key, value);
            }
            let round = ParamBag::parse(&bag.render())
                .unwrap_or_else(|e| panic!("render/parse failed on {:?}: {e}", bag.render()));
            assert_eq!(bag, round, "bag changed under round-trip");
        }
    }

    #[test]
    fn vr_relieves_blocking_on_the_blocking_scenario() {
        let trace = synth::blocking_scenario(8, Bytes::from_mb(128));
        for seed in [0, 1, 42] {
            let config = SimConfig::new(small_cluster(8), PolicyKind::GLoadSharing).with_seed(seed);
            let cmp = gls_vs_vr(&config, &trace).unwrap();
            assert!(
                cmp.vr_avg_slowdown <= cmp.gls_avg_slowdown,
                "seed {seed}: V-Reconfiguration slowdown {} worse than G-Loadsharing {}",
                cmp.vr_avg_slowdown,
                cmp.gls_avg_slowdown
            );
            assert!(cmp.gls_blocked > 0, "scenario failed to provoke blocking");
        }
    }
}
