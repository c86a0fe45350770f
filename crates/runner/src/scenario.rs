//! Scenario descriptors and sweep plans.
//!
//! A [`Scenario`] is everything needed to reproduce one simulation run:
//! the cluster configuration (including policy, seed, fault plan, and
//! audit flag — all inside [`SimConfig`]) plus the workload trace. Its
//! [`content_hash`](Scenario::content_hash) addresses the on-disk result
//! cache: equal scenarios hash equally across processes, and *any*
//! difference — one more node, a different seed, a tweaked fault plan —
//! produces a different key.

use std::sync::Arc;

use vr_cluster::job::{JobClass, JobId, JobSpec, MalleableSpec, MemPhase};
use vr_simcore::hash::{hex128, Fnv128};
use vr_workload::Trace;
use vrecon::{RunReport, SimConfig, Simulation};

/// Version salt folded into every scenario hash. Bump when the simulator's
/// semantics change in a way the hashed fields do not capture, or when the
/// key's layout changes, so stale cache entries stop matching.
///
/// Version 2: the policy plugin refactor — configs carry a policy
/// parameter bag and job specs a malleable width range, both of which now
/// shape scheduling decisions.
///
/// Version 3: the trace is hashed field by field instead of through its
/// `Debug` rendering.
pub const SCENARIO_HASH_VERSION: u64 = 3;

/// One fully specified simulation run.
///
/// Traces are shared via [`Arc`] because sweeps typically run the same
/// trace under several policies; cloning a scenario is cheap.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label, e.g. `"SPEC-Trace-3/V-Reconfiguration"`. Not part of
    /// the content hash — the same run under a different label is still
    /// the same run.
    pub label: String,
    /// Full simulator configuration (cluster, policy, seed, faults, audit).
    pub config: SimConfig,
    /// The workload trace driving the run.
    pub trace: Arc<Trace>,
}

impl Scenario {
    /// Creates a scenario with a label of the form `"<trace>/<policy>"`.
    pub fn new(config: SimConfig, trace: Arc<Trace>) -> Scenario {
        let label = format!("{}/{}", trace.name, config.policy);
        Scenario {
            label,
            config,
            trace,
        }
    }

    /// Replaces the display label (content hash is unaffected).
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Scenario {
        self.label = label.into();
        self
    }

    /// Stable 128-bit content hash of the scenario, as 32 hex characters.
    ///
    /// Hashes, under [`SCENARIO_HASH_VERSION`], the length-delimited
    /// `Debug` rendering of the config, then every field of the trace and
    /// of its jobs. The config derives `Debug` recursively down to every
    /// tunable and is bounded by the node count; `Debug` output is stable
    /// for a given build of this workspace, which is exactly the scope a
    /// result cache wants: two processes running the same code agree, and a
    /// code change that alters any configuration field naturally
    /// invalidates affected entries. The trace grows with its job count, so
    /// its fields are fed to the hasher directly instead of being rendered
    /// as text first.
    pub fn content_hash(&self) -> String {
        let mut h = Fnv128::new();
        h.write_delimited(&SCENARIO_HASH_VERSION.to_le_bytes());
        h.write_delimited(format!("{:?}", self.config).as_bytes());
        hash_trace(&mut h, &self.trace);
        hex128(h.finish())
    }

    /// Runs the scenario to completion (no caching — see
    /// [`crate::Runner`] for the cached, parallel path).
    pub fn run(&self) -> RunReport {
        Simulation::new(self.config.clone()).run(&self.trace)
    }
}

/// Feeds every field of `trace` to `h`: the name, the job count, then per
/// job its id, name, class tag, submit instant and CPU work in
/// microseconds, phase list, `io_rate` bits and malleable range. Strings
/// and the phase list are length-prefixed, so field boundaries are
/// unambiguous. `Trace` and `JobSpec` are destructured without `..`, so a
/// field added to either fails to compile here until it is hashed.
fn hash_trace(h: &mut Fnv128, trace: &Trace) {
    let Trace { name, jobs } = trace;
    h.write_delimited(name.as_bytes());
    h.write(&(jobs.len() as u64).to_le_bytes());
    for job in jobs {
        let JobSpec {
            id: JobId(id),
            name,
            class,
            submit,
            cpu_work,
            memory,
            io_rate,
            malleable,
        } = job;
        h.write(&id.to_le_bytes());
        h.write_delimited(name.as_bytes());
        h.write(&[class_tag(*class)]);
        h.write(&submit.as_micros().to_le_bytes());
        h.write(&cpu_work.as_micros().to_le_bytes());
        let phases = memory.phases();
        h.write(&(phases.len() as u64).to_le_bytes());
        for &MemPhase {
            until_progress,
            working_set,
        } in phases
        {
            h.write(&until_progress.as_micros().to_le_bytes());
            h.write(&working_set.as_u64().to_le_bytes());
        }
        h.write(&io_rate.to_bits().to_le_bytes());
        match malleable {
            None => h.write(&[0]),
            Some(MalleableSpec {
                min_width,
                max_width,
            }) => {
                h.write(&[1]);
                h.write(&min_width.to_le_bytes());
                h.write(&max_width.to_le_bytes());
            }
        }
    }
}

/// An explicit per-variant tag, so reordering the enum cannot silently
/// change (or collide) cache keys.
fn class_tag(class: JobClass) -> u8 {
    match class {
        JobClass::CpuIntensive => 0,
        JobClass::MemoryIntensive => 1,
        JobClass::CpuMemoryIntensive => 2,
        JobClass::IoActive => 3,
    }
}

/// An ordered list of scenarios to execute.
///
/// Order is significant: sweep results are always reported in plan order
/// regardless of parallel completion order.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    /// The scenarios, in result order.
    pub scenarios: Vec<Scenario>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> SweepPlan {
        SweepPlan::default()
    }

    /// Appends a scenario and returns its index in the plan.
    pub fn push(&mut self, scenario: Scenario) -> usize {
        self.scenarios.push(scenario);
        self.scenarios.len() - 1
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl FromIterator<Scenario> for SweepPlan {
    fn from_iter<I: IntoIterator<Item = Scenario>>(iter: I) -> SweepPlan {
        SweepPlan {
            scenarios: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::job::MemoryProfile;
    use vr_cluster::params::ClusterParams;
    use vr_cluster::units::Bytes;
    use vr_faults::FaultPlan;
    use vr_simcore::time::{SimSpan, SimTime};
    use vrecon::PolicyKind;

    fn base() -> Scenario {
        let mut cluster = ClusterParams::cluster2();
        cluster.nodes.truncate(4);
        let trace = vr_workload::synth::blocking_scenario(4, Bytes::from_mb(128));
        Scenario::new(
            SimConfig::new(cluster, PolicyKind::GLoadSharing).with_seed(7),
            Arc::new(trace),
        )
    }

    #[test]
    fn hash_is_stable_and_label_independent() {
        // Two equal scenarios built separately (no shared trace) hash
        // equal, and the label is not part of the key.
        let a = base();
        let b = base().labeled("renamed");
        assert!(!Arc::ptr_eq(&a.trace, &b.trace));
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash().len(), 32);
    }

    /// `base()` with one job of its trace changed by `edit`.
    fn with_job(index: usize, edit: impl FnOnce(&mut JobSpec)) -> Scenario {
        let mut scenario = base();
        let mut trace = (*scenario.trace).clone();
        edit(&mut trace.jobs[index]);
        scenario.trace = Arc::new(trace);
        scenario
    }

    #[test]
    fn hash_distinguishes_every_config_and_trace_input() {
        let a = base();
        let mut seed = base();
        seed.config.seed = 8;
        let mut policy = base();
        policy.config.policy = PolicyKind::VReconfiguration;
        let mut faults = base();
        faults.config.fault_plan =
            Some(FaultPlan::default().with_crash(1, SimTime::from_secs(50), None));
        // Parameter bags are cache-relevant: the same family with a
        // different knob value is a different run.
        let mut params = base();
        params.config.policy = PolicyKind::Fractional;
        params.config.policy_params = vrecon::plugin::ParamBag::new().with("oversub", 1.5);
        let mut params2 = params.clone();
        params2.config.policy_params = vrecon::plugin::ParamBag::new().with("oversub", 3.0);

        // Every field of `Trace` and of one `JobSpec`. The phased job is
        // one of the scenario's giants: a ramp of two working sets.
        let mut renamed_trace = base();
        let mut trace = (*renamed_trace.trace).clone();
        trace.name.push('x');
        renamed_trace.trace = Arc::new(trace);
        let phased = a
            .trace
            .jobs
            .iter()
            .position(|j| j.memory.phases().len() > 1)
            .expect("the blocking scenario has phased jobs");
        let rephase = |edit: fn(&mut (SimSpan, Bytes))| {
            with_job(phased, |job| {
                let mut phases: Vec<(SimSpan, Bytes)> = job
                    .memory
                    .phases()
                    .iter()
                    .map(|p| (p.until_progress, p.working_set))
                    .collect();
                edit(&mut phases[0]);
                job.memory = MemoryProfile::from_phases(phases).unwrap();
            })
        };
        let range = |min_width, max_width| {
            Some(MalleableSpec {
                min_width,
                max_width,
            })
        };
        assert_eq!(a.trace.jobs[0].class, JobClass::CpuIntensive);
        assert_eq!(a.trace.jobs[0].io_rate, 0.0);
        assert_eq!(a.trace.jobs[0].malleable, None);
        let mut scenarios = vec![
            a,
            seed,
            policy,
            faults,
            params,
            params2,
            renamed_trace,
            with_job(0, |job| job.id = JobId(999)),
            with_job(0, |job| job.name.push('x')),
            with_job(0, |job| job.submit += SimSpan::from_micros(1)),
            with_job(0, |job| job.cpu_work += SimSpan::from_micros(1)),
            rephase(|p| p.0 += SimSpan::from_micros(1)),
            rephase(|p| p.1 = Bytes::new(p.1.as_u64() + 1)),
            with_job(0, |job| job.io_rate = 0.5),
            with_job(0, |job| job.malleable = range(1, 2)),
            with_job(0, |job| job.malleable = range(2, 2)),
            with_job(0, |job| job.malleable = range(1, 3)),
        ];
        for class in [
            JobClass::MemoryIntensive,
            JobClass::CpuMemoryIntensive,
            JobClass::IoActive,
        ] {
            scenarios.push(with_job(0, |job| job.class = class));
        }
        let hashes: Vec<String> = scenarios.iter().map(Scenario::content_hash).collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "hash collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn default_label_names_trace_and_policy() {
        assert!(base().label.contains('/'));
    }
}
