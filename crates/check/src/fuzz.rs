//! Deterministic scenario fuzzing with greedy shrinking.
//!
//! [`run_fuzz`] generates seeded random scenarios ([`CheckScenario`]), runs
//! each through the engine, the naive [`crate::oracle`], and the invariant
//! auditor, and reports every divergence. A diverging scenario is greedily
//! shrunk — drop jobs, drop nodes, halve times, simplify the fault plan —
//! to a minimal reproducer that still diverges, and rendered as a
//! replayable text spec ([`CheckScenario::render`] /
//! [`CheckScenario::parse`]). The spec is a stable, versioned format
//! ([`WIRE_FORMAT_VERSION`]) — it is also the wire format of the
//! `vrecon serve` what-if scheduling service, so render/parse/render must
//! stay byte-identical across releases.
//!
//! Determinism contract: iteration `i` derives its scenario from
//! `SimRng::seed_from(seed).fork(i)` alone, work is dispatched over
//! [`vr_runner::run_indexed`] whose result slots are in input order, and
//! the summary contains no wall-clock content — so the outcome is
//! byte-identical for any worker count.

use vr_cluster::cpu::CpuParams;
use vr_cluster::job::{JobClass, JobId, JobSpec, MalleableSpec, MemoryProfile};
use vr_cluster::memory::{FaultModel, MemoryParams};
use vr_cluster::network::NetworkParams;
use vr_cluster::node::NodeParams;
use vr_cluster::params::ClusterParams;
use vr_cluster::protection::ThrashingProtection;
use vr_cluster::units::Bytes;
use vr_faults::FaultPlan;
use vr_runner::run_indexed;
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vr_workload::trace::Trace;
use vrecon::config::SimConfig;
use vrecon::plugin::{kind_of, registry, ParamBag};
use vrecon::policy::PolicyKind;
use vrecon::{compare_reports, Simulation};

use crate::oracle::{run_oracle, OracleSkew};

/// Relative tolerance for float report fields in the differential check.
/// Integer fields (completion timestamps, counters) are compared exactly.
pub const DIFF_TOLERANCE: f64 = 1e-9;

/// Upper bound on shrink rounds — a backstop, not a tuning knob; greedy
/// shrinking reaches a fixpoint long before this.
const MAX_SHRINK_ROUNDS: usize = 100;

/// One workstation of a fuzz scenario. Swap space equals user memory and
/// the remaining node parameters are the paper's constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioNode {
    /// User memory in MB.
    pub user_mb: u64,
    /// CPU job slots.
    pub slots: u32,
}

/// One job of a fuzz scenario (constant working set, no I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioJob {
    /// Submission time in microseconds.
    pub submit_us: u64,
    /// Total CPU work in microseconds.
    pub cpu_work_us: u64,
    /// Working-set size in MB.
    pub ws_mb: u64,
    /// Optional `(min_width, max_width)` malleable range. Widths flow into
    /// slot accounting and the width-aware rate split under every policy;
    /// only the malleable policy *changes* them at runtime.
    pub malleable: Option<(u32, u32)>,
}

/// A self-contained, replayable fuzz scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckScenario {
    /// Cluster shape.
    pub nodes: Vec<ScenarioNode>,
    /// Scheduling policy under test.
    pub policy: PolicyKind,
    /// Policy parameter bag (empty for the classic families).
    pub policy_params: ParamBag,
    /// Scheduler RNG seed.
    pub seed: u64,
    /// Simulation horizon in seconds.
    pub max_sim_time_s: u64,
    /// The workload (submit times non-decreasing).
    pub jobs: Vec<ScenarioJob>,
    /// Optional fault plan.
    pub fault_plan: Option<FaultPlan>,
}

/// Version of the replayable text-spec format ([`CheckScenario::render`] /
/// [`CheckScenario::parse`]).
///
/// The spec doubles as the **wire format** of `vrecon serve`, so it is
/// versioned like any other protocol: `render` stamps every spec with a
/// `spec-version` line, `parse` rejects versions it does not understand
/// (rather than silently misreading a future field), and specs without the
/// line are accepted as version 1 (the pre-versioning fuzzer reproducers).
/// Bump this only when a change would alter the meaning of an existing
/// spec; purely additive keywords do not need a bump.
pub const WIRE_FORMAT_VERSION: u64 = 1;

impl CheckScenario {
    /// Builds the engine/oracle inputs, validating everything up front.
    ///
    /// # Errors
    ///
    /// Returns an error if the derived config or trace fails validation.
    pub fn to_sim(&self) -> Result<(SimConfig, Trace), String> {
        let nodes: Vec<NodeParams> = self
            .nodes
            .iter()
            .map(|n| NodeParams {
                cpu: CpuParams::with_slots(n.slots),
                memory: MemoryParams {
                    user: Bytes::from_mb(n.user_mb),
                    swap: Bytes::from_mb(n.user_mb),
                    page_size: Bytes::from_kb(4),
                    fault_service: SimSpan::from_millis(10),
                    swap_bandwidth: Bytes::from_mb(10),
                },
                fault_model: FaultModel::default(),
                protection: ThrashingProtection::Off,
            })
            .collect();
        let cluster = ClusterParams {
            nodes,
            network: NetworkParams::ethernet_10mbps(),
            load_exchange_period: SimSpan::from_secs(1),
        };
        let mut config = SimConfig::new(cluster, self.policy)
            .with_policy_params(self.policy_params.clone())
            .with_seed(self.seed)
            .with_max_sim_time(SimSpan::from_secs(self.max_sim_time_s))
            .with_audit(true);
        if let Some(plan) = &self.fault_plan {
            config = config.with_faults(plan.clone());
        }
        config.validate()?;
        let jobs: Vec<JobSpec> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobSpec {
                id: JobId(i as u64),
                name: format!("fuzz-{i}"),
                class: JobClass::CpuIntensive,
                submit: SimTime::from_micros(j.submit_us),
                cpu_work: SimSpan::from_micros(j.cpu_work_us),
                memory: MemoryProfile::constant(Bytes::from_mb(j.ws_mb)),
                io_rate: 0.0,
                malleable: j.malleable.map(|(min, max)| MalleableSpec {
                    min_width: min,
                    max_width: max,
                }),
            })
            .collect();
        let trace = Trace {
            name: "fuzz".to_owned(),
            jobs,
        };
        trace.validate()?;
        Ok((config, trace))
    }

    /// Renders the scenario as a replayable text spec;
    /// [`CheckScenario::parse`] round-trips it exactly.
    pub fn render(&self) -> String {
        let mut out = String::from("# vr-check fuzz reproducer\n");
        out.push_str(&format!("spec-version {WIRE_FORMAT_VERSION}\n"));
        out.push_str(&format!("policy {}\n", self.policy));
        if !self.policy_params.is_empty() {
            // Additive keyword: absent line = empty bag, so version 1 specs
            // keep their meaning.
            out.push_str(&format!("policy-params {}\n", self.policy_params.render()));
        }
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("max-sim-time-s {}\n", self.max_sim_time_s));
        for n in &self.nodes {
            out.push_str(&format!("node user_mb={} slots={}\n", n.user_mb, n.slots));
        }
        for j in &self.jobs {
            out.push_str(&format!(
                "job submit_us={} cpu_work_us={} ws_mb={}",
                j.submit_us, j.cpu_work_us, j.ws_mb
            ));
            if let Some((min, max)) = j.malleable {
                out.push_str(&format!(" malleable={min}:{max}"));
            }
            out.push('\n');
        }
        if let Some(plan) = &self.fault_plan {
            for crash in &plan.node_crashes {
                let restart = match crash.restart_after {
                    Some(span) => span.as_micros().to_string(),
                    None => "none".to_owned(),
                };
                out.push_str(&format!(
                    "fault-crash node={} at_us={} restart_after_us={}\n",
                    crash.node,
                    crash.at.as_micros(),
                    restart
                ));
            }
            out.push_str(&format!(
                "fault-migration-failure {}\n",
                plan.migration_failure_prob
            ));
            out.push_str(&format!(
                "fault-max-retries {}\n",
                plan.max_migration_retries
            ));
            out.push_str(&format!(
                "fault-retry-backoff-us {}\n",
                plan.retry_backoff.as_micros()
            ));
            out.push_str(&format!(
                "fault-load-info-loss {}\n",
                plan.load_info_loss_prob
            ));
            out.push_str(&format!(
                "fault-reservation-stall-us {}\n",
                plan.reservation_release_stall.as_micros()
            ));
            out.push_str(&format!("fault-seed-salt {}\n", plan.seed_salt));
        }
        out
    }

    /// Parses a spec produced by [`CheckScenario::render`].
    ///
    /// # Errors
    ///
    /// Returns an error describing the first malformed line.
    pub fn parse(text: &str) -> Result<CheckScenario, String> {
        fn kv<'a>(field: &'a str, line: &str) -> Result<(&'a str, &'a str), String> {
            field
                .split_once('=')
                .ok_or_else(|| format!("expected key=value in '{line}'"))
        }
        fn num<T: std::str::FromStr>(value: &str, line: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bad number '{value}' in '{line}'"))
        }

        let mut policy = None;
        let mut policy_params = ParamBag::new();
        let mut seed = 0u64;
        let mut max_sim_time_s = 3600u64;
        let mut nodes = Vec::new();
        let mut jobs = Vec::new();
        let mut plan: Option<FaultPlan> = None;
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(keyword) = parts.next() else {
                continue;
            };
            let rest: Vec<&str> = parts.collect();
            let single = || -> Result<&str, String> {
                match rest.as_slice() {
                    [one] => Ok(one),
                    _ => Err(format!("expected one value in '{line}'")),
                }
            };
            match keyword {
                "spec-version" => {
                    let version: u64 = num(single()?, line)?;
                    if version != WIRE_FORMAT_VERSION {
                        return Err(format!(
                            "unsupported spec-version {version} (this build understands \
                             {WIRE_FORMAT_VERSION})"
                        ));
                    }
                }
                "policy" => {
                    let name = single()?;
                    // Any spelling of a registry row; `render` writes the
                    // display name.
                    policy = Some(kind_of(name).ok_or_else(|| format!("unknown policy '{name}'"))?);
                }
                "policy-params" => {
                    policy_params = ParamBag::parse(single()?)
                        .map_err(|e| format!("bad policy-params in '{line}': {e}"))?;
                }
                "seed" => seed = num(single()?, line)?,
                "max-sim-time-s" => max_sim_time_s = num(single()?, line)?,
                "node" => {
                    let mut user_mb = None;
                    let mut slots = None;
                    for field in &rest {
                        let (key, value) = kv(field, line)?;
                        match key {
                            "user_mb" => user_mb = Some(num(value, line)?),
                            "slots" => slots = Some(num(value, line)?),
                            other => return Err(format!("unknown node field '{other}'")),
                        }
                    }
                    nodes.push(ScenarioNode {
                        user_mb: user_mb.ok_or_else(|| format!("node needs user_mb: '{line}'"))?,
                        slots: slots.ok_or_else(|| format!("node needs slots: '{line}'"))?,
                    });
                }
                "job" => {
                    let mut submit_us = None;
                    let mut cpu_work_us = None;
                    let mut ws_mb = None;
                    let mut malleable = None;
                    for field in &rest {
                        let (key, value) = kv(field, line)?;
                        match key {
                            "submit_us" => submit_us = Some(num(value, line)?),
                            "cpu_work_us" => cpu_work_us = Some(num(value, line)?),
                            "ws_mb" => ws_mb = Some(num(value, line)?),
                            "malleable" => {
                                let (min, max) = value.split_once(':').ok_or_else(|| {
                                    format!("expected malleable=min:max in '{line}'")
                                })?;
                                malleable = Some((num(min, line)?, num(max, line)?));
                            }
                            other => return Err(format!("unknown job field '{other}'")),
                        }
                    }
                    jobs.push(ScenarioJob {
                        submit_us: submit_us
                            .ok_or_else(|| format!("job needs submit_us: '{line}'"))?,
                        cpu_work_us: cpu_work_us
                            .ok_or_else(|| format!("job needs cpu_work_us: '{line}'"))?,
                        ws_mb: ws_mb.ok_or_else(|| format!("job needs ws_mb: '{line}'"))?,
                        malleable,
                    });
                }
                "fault-crash" => {
                    let plan = plan.get_or_insert_with(FaultPlan::none);
                    let mut node = None;
                    let mut at_us = None;
                    let mut restart = None;
                    for field in &rest {
                        let (key, value) = kv(field, line)?;
                        match key {
                            "node" => node = Some(num(value, line)?),
                            "at_us" => at_us = Some(num::<u64>(value, line)?),
                            "restart_after_us" => {
                                restart = if *value == *"none" {
                                    Some(None)
                                } else {
                                    Some(Some(SimSpan::from_micros(num(value, line)?)))
                                };
                            }
                            other => return Err(format!("unknown crash field '{other}'")),
                        }
                    }
                    *plan = plan.clone().with_crash(
                        node.ok_or_else(|| format!("fault-crash needs node: '{line}'"))?,
                        SimTime::from_micros(
                            at_us.ok_or_else(|| format!("fault-crash needs at_us: '{line}'"))?,
                        ),
                        restart.flatten(),
                    );
                }
                "fault-migration-failure" => {
                    plan.get_or_insert_with(FaultPlan::none)
                        .migration_failure_prob = num(single()?, line)?;
                }
                "fault-max-retries" => {
                    plan.get_or_insert_with(FaultPlan::none)
                        .max_migration_retries = num(single()?, line)?;
                }
                "fault-retry-backoff-us" => {
                    plan.get_or_insert_with(FaultPlan::none).retry_backoff =
                        SimSpan::from_micros(num(single()?, line)?);
                }
                "fault-load-info-loss" => {
                    plan.get_or_insert_with(FaultPlan::none).load_info_loss_prob =
                        num(single()?, line)?;
                }
                "fault-reservation-stall-us" => {
                    plan.get_or_insert_with(FaultPlan::none)
                        .reservation_release_stall = SimSpan::from_micros(num(single()?, line)?);
                }
                "fault-seed-salt" => {
                    plan.get_or_insert_with(FaultPlan::none).seed_salt = num(single()?, line)?;
                }
                other => return Err(format!("unknown keyword '{other}'")),
            }
        }
        Ok(CheckScenario {
            nodes,
            policy: policy.ok_or_else(|| "missing 'policy' line".to_owned())?,
            policy_params,
            seed,
            max_sim_time_s,
            jobs,
            fault_plan: plan,
        })
    }
}

/// Generates the scenario for fuzz iteration `iter` of run seed `seed`.
/// Each iteration forks its own RNG stream, so scenarios are independent of
/// worker scheduling and of each other.
pub fn generate(seed: u64, iter: u64) -> CheckScenario {
    // vr-analyze::rng-authority(reason = "the fuzzer roots one stream per (seed, iter) so failures replay from the CLI pair alone")
    let mut rng = SimRng::seed_from(seed).fork(iter);
    // Mostly tiny clusters (cheap, dense coverage of the scheduling logic),
    // with an occasional 64–1024-node scenario: the O(log n) index, the
    // sweep sets, and the commit accounting all have code paths that only a
    // populated cluster exercises, and a fuzzer capped at 6 nodes can never
    // reach them. Large scenarios get a shorter horizon so one iteration
    // stays well under a second even through the O(n²) oracle.
    let large = rng.uniform() < 0.04;
    let n_nodes = if large {
        64 + rng.index(961)
    } else {
        2 + rng.index(5)
    };
    let nodes: Vec<ScenarioNode> = (0..n_nodes)
        .map(|_| ScenarioNode {
            user_mb: *rng.choose(&[64, 128, 192, 384]),
            slots: *rng.choose(&[2, 4, 8]),
        })
        .collect();
    // Draw the policy from the plugin registry — the same table the CLI and
    // config layer resolve names against — so a family added there is
    // fuzzed without touching this file.
    let entries = registry();
    let entry = &entries[rng.index(entries.len())];
    let policy = entry.kind;
    // A parameter bag for the families that have knobs, sometimes left at
    // defaults (empty) to cover both construction paths. Bags are
    // policy-matched: every entry rejects keys it does not know.
    let policy_params = match policy {
        PolicyKind::Malleable if rng.uniform() < 0.6 => {
            ParamBag::new().with("max_step", 1 + rng.index(3))
        }
        PolicyKind::Fractional if rng.uniform() < 0.6 => {
            ParamBag::new().with("oversub", *rng.choose(&[1.0, 1.5, 2.0, 3.0]))
        }
        _ => ParamBag::new(),
    };
    // Malleable width ranges on a slice of the workload, under *every*
    // policy: widths feed slot accounting and the width-aware rate split
    // even when no policy resizes them.
    let annotate_malleable = rng.uniform() < 0.35 || policy == PolicyKind::Malleable;
    // Scale the workload with the cluster so large scenarios actually land
    // jobs on a meaningful fraction of nodes.
    let n_jobs = if large {
        n_nodes / 4 + rng.index(n_nodes)
    } else {
        1 + rng.index(20)
    };
    let mut t = 0u64;
    let jobs: Vec<ScenarioJob> = (0..n_jobs)
        .map(|_| {
            // The arrival process is shaped to stress the calendar event
            // queue: ~40% of jobs share the previous instant (event-dense
            // bursts piling onto one calendar slot), ~10% follow within a
            // sub-second jitter (adjacent-slot density), most of the rest
            // spread over tens of seconds inside the calendar's wheel
            // horizon, and an occasional far jump lands beyond it —
            // exercising slot-colliding sorted inserts and the empty-span
            // min-scan fallback (the bucket-overflow path).
            let roll = rng.uniform();
            if roll < 0.4 {
                // same instant as the previous job
            } else if roll < 0.5 {
                t += 1 + rng.index(999_999) as u64;
            } else if roll < 0.92 {
                t += rng.index(30_000_000) as u64;
            } else {
                t += 1_100_000_000 + rng.index(500_000_000) as u64;
            }
            let malleable = if annotate_malleable && rng.uniform() < 0.5 {
                let min = 1 + rng.index(2) as u32;
                let max = min + rng.index(3) as u32;
                Some((min, max))
            } else {
                None
            };
            ScenarioJob {
                submit_us: t,
                cpu_work_us: 1_000_000 + rng.index(119_000_000) as u64,
                ws_mb: 8 + rng.index(293) as u64,
                malleable,
            }
        })
        .collect();
    let fault_plan = if rng.uniform() < 0.5 {
        let mut plan = FaultPlan::none();
        for _ in 0..rng.index(3) {
            let node = rng.index(n_nodes);
            let at = SimTime::from_secs(1 + rng.index(600) as u64);
            let restart = if rng.uniform() < 0.7 {
                Some(SimSpan::from_secs(10 + rng.index(110) as u64))
            } else {
                None
            };
            plan = plan.with_crash(node, at, restart);
        }
        if rng.uniform() < 0.5 {
            plan = plan.with_migration_failures(*rng.choose(&[0.2, 0.5]));
        }
        if rng.uniform() < 0.3 {
            plan = plan.with_load_info_loss(0.3);
        }
        if rng.uniform() < 0.3 {
            plan = plan.with_reservation_stall(SimSpan::from_secs(5));
        }
        Some(plan)
    } else {
        None
    };
    CheckScenario {
        nodes,
        policy,
        policy_params,
        seed: rng.next_u64(),
        max_sim_time_s: if large { 900 } else { 3600 },
        jobs,
        fault_plan,
    }
}

/// Runs engine, oracle, and auditor on one scenario. `None` means full
/// agreement; `Some(detail)` describes the divergence.
pub fn divergence(scenario: &CheckScenario, skew: OracleSkew) -> Option<String> {
    let (config, trace) = match scenario.to_sim() {
        Ok(pair) => pair,
        Err(e) => return Some(format!("scenario rejected: {e}")),
    };
    let engine = Simulation::new(config.clone()).run(&trace);
    if !engine.audit_violations.is_empty() {
        return Some(format!("auditor: {}", engine.audit_violations.join("; ")));
    }
    let oracle = match run_oracle(&config, &trace, skew) {
        Ok(report) => report,
        Err(e) => return Some(format!("oracle rejected: {e}")),
    };
    let diff = compare_reports(&engine, &oracle, DIFF_TOLERANCE);
    if diff.is_match() {
        None
    } else {
        Some(diff.render())
    }
}

/// The scenario with nodes `start..end` removed, fault-plan crash targets
/// remapped to the surviving indices.
fn without_nodes(scenario: &CheckScenario, start: usize, end: usize) -> CheckScenario {
    let mut c = scenario.clone();
    c.nodes.drain(start..end);
    if let Some(plan) = &mut c.fault_plan {
        plan.node_crashes
            .retain(|crash| !(start..end).contains(&crash.node));
        for crash in &mut plan.node_crashes {
            if crash.node >= end {
                crash.node -= end - start;
            }
        }
    }
    c
}

/// All one-step shrink candidates of a scenario, most aggressive first:
/// ddmin-style contiguous chunk removals (half, quarter, …) ahead of the
/// per-item removals. The greedy loop in [`shrink`] accepts the *first*
/// still-diverging candidate and restarts, so when a big chunk survives the
/// scenario halves in one round — a 1k-node divergence reaches a minimal
/// reproducer in O(log n) rounds instead of the O(n) rounds the
/// one-at-a-time candidates alone would need (each round re-running engine
/// plus the O(n²) oracle over ~n candidates).
fn candidates(scenario: &CheckScenario) -> Vec<CheckScenario> {
    let mut out = Vec::new();
    // Drop contiguous job chunks, largest first (ids renumber implicitly
    // via position).
    let mut chunk = scenario.jobs.len() / 2;
    while chunk >= 2 {
        let mut start = 0;
        while start < scenario.jobs.len() {
            let end = (start + chunk).min(scenario.jobs.len());
            let mut c = scenario.clone();
            c.jobs.drain(start..end);
            out.push(c);
            start = end;
        }
        chunk /= 2;
    }
    // Drop each job individually.
    for i in 0..scenario.jobs.len() {
        let mut c = scenario.clone();
        c.jobs.remove(i);
        out.push(c);
    }
    // Drop contiguous node chunks, then single nodes, remapping fault-plan
    // crash targets either way.
    let mut chunk = scenario.nodes.len() / 2;
    while chunk >= 2 {
        let mut start = 0;
        while start < scenario.nodes.len() {
            let end = (start + chunk).min(scenario.nodes.len());
            if end - start < scenario.nodes.len() {
                out.push(without_nodes(scenario, start, end));
            }
            start = end;
        }
        chunk /= 2;
    }
    if scenario.nodes.len() > 1 {
        for k in 0..scenario.nodes.len() {
            out.push(without_nodes(scenario, k, k + 1));
        }
    }
    // Simplify the fault plan.
    if let Some(plan) = &scenario.fault_plan {
        let mut c = scenario.clone();
        c.fault_plan = None;
        out.push(c);
        for i in 0..plan.node_crashes.len() {
            let mut c = scenario.clone();
            if let Some(p) = &mut c.fault_plan {
                p.node_crashes.remove(i);
            }
            out.push(c);
        }
        if plan.migration_failure_prob > 0.0 {
            let mut c = scenario.clone();
            if let Some(p) = &mut c.fault_plan {
                p.migration_failure_prob = 0.0;
            }
            out.push(c);
        }
        if plan.load_info_loss_prob > 0.0 {
            let mut c = scenario.clone();
            if let Some(p) = &mut c.fault_plan {
                p.load_info_loss_prob = 0.0;
            }
            out.push(c);
        }
        if !plan.reservation_release_stall.is_zero() {
            let mut c = scenario.clone();
            if let Some(p) = &mut c.fault_plan {
                p.reservation_release_stall = SimSpan::ZERO;
            }
            out.push(c);
        }
    }
    // Strip malleable annotations and policy parameters — a divergence that
    // survives without them is a plain-width bug, not a resize bug.
    if scenario.jobs.iter().any(|j| j.malleable.is_some()) {
        let mut c = scenario.clone();
        for j in &mut c.jobs {
            j.malleable = None;
        }
        out.push(c);
    }
    if !scenario.policy_params.is_empty() {
        let mut c = scenario.clone();
        c.policy_params = ParamBag::new();
        out.push(c);
    }
    // Halve times (submission order is preserved by monotone halving).
    if scenario.jobs.iter().any(|j| j.submit_us > 0) {
        let mut c = scenario.clone();
        for j in &mut c.jobs {
            j.submit_us /= 2;
        }
        out.push(c);
    }
    if scenario.jobs.iter().any(|j| j.cpu_work_us > 1_000_000) {
        let mut c = scenario.clone();
        for j in &mut c.jobs {
            j.cpu_work_us = (j.cpu_work_us / 2).max(1_000_000);
        }
        out.push(c);
    }
    if scenario.max_sim_time_s > 60 {
        let mut c = scenario.clone();
        c.max_sim_time_s = (c.max_sim_time_s / 2).max(60);
        out.push(c);
    }
    out
}

/// Greedily shrinks a diverging scenario: accept the first candidate that
/// still diverges, restart, stop at a fixpoint. Returns the minimal
/// scenario and its divergence detail.
pub fn shrink(
    scenario: CheckScenario,
    detail: String,
    skew: OracleSkew,
) -> (CheckScenario, String) {
    let mut best = scenario;
    let mut best_detail = detail;
    for _ in 0..MAX_SHRINK_ROUNDS {
        let mut improved = false;
        for candidate in candidates(&best) {
            if candidate.to_sim().is_err() {
                continue;
            }
            if let Some(d) = divergence(&candidate, skew) {
                best = candidate;
                best_detail = d;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_detail)
}

/// Options for [`run_fuzz`].
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Number of scenarios to generate and check.
    pub iters: u64,
    /// Base seed; iteration `i` uses the forked stream `seed.fork(i)`.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub jobs: usize,
    /// Oracle skew knob — [`OracleSkew::CompletionOffByOne`] proves the
    /// harness detects and shrinks a real mismatch.
    pub skew: OracleSkew,
}

/// One shrunk divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// The fuzz iteration whose scenario diverged.
    pub iteration: u64,
    /// Human-readable divergence description (field diffs or auditor
    /// violations) of the *shrunk* scenario.
    pub detail: String,
    /// The minimal reproducer.
    pub scenario: CheckScenario,
}

/// The deterministic result of a fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// Base seed of the run.
    pub seed: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Shrunk divergences, in iteration order.
    pub failures: Vec<FuzzFailure>,
    /// Worker panics `(iteration index, message)`, if any.
    pub worker_panics: Vec<(usize, String)>,
}

impl FuzzOutcome {
    /// `true` if every scenario agreed and no worker panicked.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.worker_panics.is_empty()
    }

    /// A deterministic multi-line summary (no wall-clock content): equal
    /// for equal `(seed, iters)` regardless of worker count.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "vr-check fuzz: seed={} iters={} divergences={} panics={}\n",
            self.seed,
            self.iterations,
            self.failures.len(),
            self.worker_panics.len()
        );
        for failure in &self.failures {
            let first_line = failure.detail.lines().next().unwrap_or("");
            out.push_str(&format!(
                "  iteration={} nodes={} jobs={} policy={}: {}\n",
                failure.iteration,
                failure.scenario.nodes.len(),
                failure.scenario.jobs.len(),
                failure.scenario.policy,
                first_line
            ));
        }
        for (index, message) in &self.worker_panics {
            out.push_str(&format!("  panic at iteration={index}: {message}\n"));
        }
        out
    }
}

/// Runs the fuzzer: generate, check, and shrink on a work-stealing pool.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzOutcome {
    let indices: Vec<u64> = (0..opts.iters).collect();
    let skew = opts.skew;
    let seed = opts.seed;
    let pool = run_indexed(&indices, opts.jobs, |_, &iter| {
        let scenario = generate(seed, iter);
        divergence(&scenario, skew).map(|detail| {
            let (min, min_detail) = shrink(scenario, detail, skew);
            FuzzFailure {
                iteration: iter,
                detail: min_detail,
                scenario: min,
            }
        })
    });
    FuzzOutcome {
        seed,
        iterations: opts.iters,
        failures: pool.results.into_iter().flatten().flatten().collect(),
        worker_panics: pool.panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips() {
        for iter in 0..25 {
            let scenario = generate(99, iter);
            let text = scenario.render();
            let parsed = CheckScenario::parse(&text)
                .unwrap_or_else(|e| panic!("iteration {iter}: {e}\n{text}"));
            assert_eq!(parsed, scenario, "iteration {iter} round-trip\n{text}");
        }
    }

    /// Wire-format stability: render → parse → render must reproduce the
    /// exact bytes, for every scenario the fuzzer can generate. This is
    /// what lets `vrecon serve` treat the spec as a canonical request body
    /// (and hash it meaningfully).
    #[test]
    fn render_parse_render_is_byte_identical() {
        for iter in 0..50 {
            let scenario = generate(1234, iter);
            let first = scenario.render();
            let reparsed = CheckScenario::parse(&first)
                .unwrap_or_else(|e| panic!("iteration {iter}: {e}\n{first}"));
            assert_eq!(
                reparsed.render(),
                first,
                "iteration {iter}: render/parse/render drifted"
            );
        }
    }

    #[test]
    fn specs_carry_and_enforce_the_wire_format_version() {
        let scenario = generate(2, 0);
        let text = scenario.render();
        assert!(
            text.contains(&format!("spec-version {WIRE_FORMAT_VERSION}\n")),
            "{text}"
        );
        // A legacy spec without the version line still parses (version 1).
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("spec-version"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(CheckScenario::parse(&legacy).unwrap(), scenario);
        // A future version is rejected loudly, not misread.
        let future = text.replace(
            &format!("spec-version {WIRE_FORMAT_VERSION}"),
            "spec-version 999",
        );
        let err = CheckScenario::parse(&future).unwrap_err();
        assert!(err.contains("unsupported spec-version 999"), "{err}");
    }

    #[test]
    fn malformed_specs_are_rejected_with_diagnostics() {
        let cases: &[(&str, &str)] = &[
            ("", "missing 'policy'"),
            ("!!! total garbage\nbytes", "unknown keyword"),
            ("policy G-Loadsharing\nnode user_mb=64", "node needs slots"),
            ("policy G-Loadsharing\nnode slots=2", "node needs user_mb"),
            ("policy nope", "unknown policy"),
            ("policy G-Loadsharing\nseed twelve", "bad number"),
            (
                "policy G-Loadsharing\njob submit_us=0",
                "job needs cpu_work_us",
            ),
            (
                "policy G-Loadsharing\nnode user_mb=64 slots=2 extra=1",
                "unknown node field",
            ),
            (
                "policy G-Loadsharing\nfault-crash at_us=5",
                "fault-crash needs node",
            ),
            ("spec-version one\npolicy G-Loadsharing", "bad number"),
            (
                "policy Malleable\njob submit_us=0 cpu_work_us=1000000 ws_mb=8 malleable=2",
                "expected malleable=min:max",
            ),
            (
                "policy Malleable\npolicy-params max_step",
                "bad policy-params",
            ),
        ];
        for (text, needle) in cases {
            let err = CheckScenario::parse(text)
                .expect_err(&format!("spec should have been rejected: {text:?}"));
            assert!(
                err.contains(needle),
                "spec {text:?}: error {err:?} lacks {needle:?}"
            );
        }
    }

    /// A spec may name its policy by the registry's kebab-case key instead
    /// of the Display name, and carries parameter bags and malleable ranges
    /// through a byte-exact round trip.
    #[test]
    fn registry_names_params_and_widths_round_trip() {
        let text = "policy malleable\n\
                    policy-params max_step=2\n\
                    seed 4\n\
                    max-sim-time-s 600\n\
                    node user_mb=128 slots=4\n\
                    job submit_us=0 cpu_work_us=5000000 ws_mb=16 malleable=1:3\n";
        let scenario = CheckScenario::parse(text).unwrap();
        assert_eq!(scenario.policy, PolicyKind::Malleable);
        assert_eq!(
            scenario.policy_params.get::<u32>("max_step").unwrap(),
            Some(2)
        );
        assert_eq!(scenario.jobs[0].malleable, Some((1, 3)));
        let rendered = scenario.render();
        assert_eq!(CheckScenario::parse(&rendered).unwrap(), scenario);
        assert_eq!(CheckScenario::parse(&rendered).unwrap().render(), rendered);
        scenario.to_sim().expect("spec must build a valid sim");
    }

    /// The generator draws every registry family — including both new ones —
    /// and exercises non-empty parameter bags and malleable width ranges.
    #[test]
    fn generator_covers_the_whole_registry() {
        let mut seen = std::collections::BTreeSet::new();
        let mut bagged = 0;
        let mut annotated = 0;
        for iter in 0..400 {
            let s = generate(21, iter);
            seen.insert(s.policy.to_string());
            if !s.policy_params.is_empty() {
                bagged += 1;
            }
            if s.jobs.iter().any(|j| j.malleable.is_some()) {
                annotated += 1;
            }
        }
        assert_eq!(seen.len(), registry().len(), "families drawn: {seen:?}");
        assert!(bagged > 0, "no scenario carried a parameter bag");
        assert!(annotated > 0, "no scenario carried malleable jobs");
    }

    #[test]
    fn generated_scenarios_are_valid() {
        for iter in 0..25 {
            let scenario = generate(7, iter);
            scenario
                .to_sim()
                .unwrap_or_else(|e| panic!("iteration {iter}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for iter in 0..10 {
            assert_eq!(generate(3, iter), generate(3, iter));
        }
    }

    #[test]
    fn broken_oracle_is_caught_and_shrunk() {
        let opts = FuzzOptions {
            iters: 2,
            seed: 1,
            jobs: 2,
            skew: OracleSkew::CompletionOffByOne,
        };
        let outcome = run_fuzz(&opts);
        assert!(
            !outcome.failures.is_empty(),
            "the off-by-one oracle must diverge"
        );
        for failure in &outcome.failures {
            assert!(
                failure.scenario.jobs.len() <= 3,
                "shrunk to {} jobs:\n{}",
                failure.scenario.jobs.len(),
                failure.scenario.render()
            );
            assert!(
                failure.scenario.nodes.len() <= 2,
                "shrunk to {} nodes:\n{}",
                failure.scenario.nodes.len(),
                failure.scenario.render()
            );
        }
    }

    #[test]
    fn generator_occasionally_emits_large_clusters() {
        let mut largest = 0;
        for iter in 0..200 {
            let s = generate(11, iter);
            largest = largest.max(s.nodes.len());
            if s.nodes.len() >= 64 {
                assert_eq!(
                    s.max_sim_time_s, 900,
                    "large scenarios get the short horizon"
                );
                assert!(
                    s.jobs.len() >= s.nodes.len() / 4,
                    "{} nodes but only {} jobs",
                    s.nodes.len(),
                    s.jobs.len()
                );
            } else {
                assert!(s.nodes.len() >= 2);
            }
        }
        assert!(
            largest >= 64,
            "200 iterations never produced a large cluster (largest {largest})"
        );
    }

    #[test]
    fn large_cluster_divergence_shrinks_to_a_minimal_reproducer() {
        // An off-by-one oracle diverges on any completing scenario, so a
        // 128-node / 32-job reproducer must collapse to ~1 node and ~1 job.
        // The chunked candidates make this take O(log n) divergence runs;
        // with only the one-at-a-time removals the test would grind through
        // thousands of engine+oracle executions.
        let scenario = CheckScenario {
            nodes: vec![
                ScenarioNode {
                    user_mb: 128,
                    slots: 4
                };
                128
            ],
            policy: PolicyKind::GLoadSharing,
            policy_params: ParamBag::new(),
            seed: 9,
            max_sim_time_s: 900,
            jobs: (0..32)
                .map(|i| ScenarioJob {
                    submit_us: i * 1_000_000,
                    cpu_work_us: 2_000_000,
                    ws_mb: 32,
                    malleable: None,
                })
                .collect(),
            fault_plan: None,
        };
        let detail = divergence(&scenario, OracleSkew::CompletionOffByOne)
            .expect("the off-by-one oracle must diverge");
        let (minimal, _) = shrink(scenario, detail, OracleSkew::CompletionOffByOne);
        assert!(
            minimal.nodes.len() <= 2,
            "shrunk to {} nodes:\n{}",
            minimal.nodes.len(),
            minimal.render()
        );
        assert!(
            minimal.jobs.len() <= 2,
            "shrunk to {} jobs:\n{}",
            minimal.jobs.len(),
            minimal.render()
        );
    }

    #[test]
    fn outcome_is_identical_for_any_worker_count() {
        let base = FuzzOptions {
            iters: 4,
            seed: 5,
            jobs: 1,
            skew: OracleSkew::None,
        };
        let one = run_fuzz(&base);
        let four = run_fuzz(&FuzzOptions { jobs: 4, ..base });
        assert_eq!(one, four);
        assert_eq!(one.summary(), four.summary());
    }
}
