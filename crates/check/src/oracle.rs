//! The naive reference oracle.
//!
//! [`run_oracle`] re-implements the paper's memory/queueing model from the
//! written semantics, *without* the engine's machinery: there is no
//! [`vr_simcore::event::EventQueue`] (pending events live in a plain `Vec`
//! scanned linearly for the `(time, seq)` minimum), no
//! [`vr_cluster::loadinfo::LoadIndex`] (the load snapshot is a rebuilt-from-
//! scratch `Vec` of plain structs), no
//! [`vrecon::reservation::ReservationManager`] (reservations are a `Vec`
//! with linear scans), and no [`vr_cluster::node::Workstation`] (nodes are a
//! private struct whose advance loop is written against the documented
//! service model). Every lookup is a linear scan — O(n²) per event by
//! design — so a bug in the engine's clever structures (heap compaction,
//! binary-searched index, epoch bookkeeping) cannot hide in the oracle.
//!
//! What the oracle *does* share with the engine, deliberately:
//!
//! * the input types ([`SimConfig`], [`Trace`], `JobSpec`, `MemoryProfile`)
//!   and the output type ([`RunReport`]) — a differential test needs a
//!   common language at the boundary;
//! * [`vr_simcore::rng::SimRng`] and [`vr_faults::FaultInjector`] — the
//!   random *streams* are part of the scenario definition, not of the
//!   implementation under test: both sides must see the same homes, the
//!   same random placements, and the same injected faults, or every run
//!   would diverge trivially;
//! * the floating-point *formulas* of the service model (documented in
//!   `cpu.rs` / `memory.rs`), re-stated here operation-for-operation so the
//!   two implementations agree bit-for-bit where they should.
//!
//! Nearly everything the engine models is in scope: network RAM (the
//! remote-backing stall scale is re-derived at every snapshot refresh,
//! mirroring the engine's pass), thrashing protection (the shared
//! redistribution formula is applied to independently computed raw stalls,
//! in the same operation order as the engine's rate pass,
//! `Workstation::segment_rates`), and the plugin families — malleable
//! resize directives are restated from the policy's documented selection
//! rules, and fractional slot caps are re-derived from the parameter bag at
//! construction. Two modes are not modelled yet and are refused rather than
//! silently replaced by the defaults: [`PlacementMode::CommitAware`] and
//! [`LoadInfoMode::Staggered`].

use vr_cluster::job::{JobId, JobSpec, JobState, RunningJob};
use vr_cluster::memory::FaultModel;
use vr_cluster::node::{NodeCounters, NodeParams};
use vr_cluster::protection::ThrashingProtection;
use vr_cluster::units::Bytes;
use vr_faults::FaultInjector;
use vr_metrics::sampler::{balance_skew, ClusterGauges};
use vr_metrics::summary::WorkloadSummary;
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vr_workload::trace::Trace;
use vrecon::config::{LoadInfoMode, PendingDiscipline, PlacementMode, ReservingEnd, SimConfig};
use vrecon::policy::{FractionalParams, MalleableParams, PolicyKind};
use vrecon::report::{RunReport, SchedulerCounters};
use vrecon::reservation::ReservationStats;

/// Test-only fault injection *into the oracle itself*: proves the
/// differential harness actually fails on a mismatch (a differ that never
/// fires is indistinguishable from a correct engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleSkew {
    /// The faithful oracle.
    #[default]
    None,
    /// Off-by-one: every completion timestamp is reported one microsecond
    /// late. Any scenario that completes at least one job diverges, so the
    /// shrinker can reduce reproducers to a single job on a single node.
    CompletionOffByOne,
}

/// Same numeric constant as the engine's integration loop: progress below
/// this many seconds is noise.
const EPS: f64 = 1e-9;
/// Same boundary guard as the engine: a phase boundary closer than this to
/// the current progress is treated as already crossed.
const BOUNDARY_EPS: f64 = 1e-6;
/// One job may be suspended at most this many times (Suspend-Largest).
const MAX_SUSPENSIONS_PER_JOB: u32 = 5;

/// Events, mirroring the scheduler's event alphabet. The oracle stores them
/// in an unsorted `Vec` and pops the `(time, seq)` minimum by linear scan.
enum Ev {
    Arrival(Box<JobSpec>),
    NodeWake { node: u32, epoch: u64 },
    Exchange,
    Sample,
    PendingRetry,
    TransitArrive { job: JobId },
    NodeCrash { node: u32 },
    NodeRestart { node: u32 },
    ReservationUnstall { node: u32 },
}

/// A workstation, re-implemented. Jobs are kept in admission order and
/// removed with `swap_remove`, matching the service-order contract the
/// engine documents (per-job shares depend only on the resident set, but
/// f64 accumulation order follows the vector order).
struct ONode {
    id: u32,
    params: NodeParams,
    jobs: Vec<RunningJob>,
    last_update: SimTime,
    epoch: u64,
    reserved: bool,
    up: bool,
    outbox: Vec<RunningJob>,
    counters: NodeCounters,
    /// Network-RAM stall multiplier, re-derived at every snapshot refresh
    /// (see [`Oracle::update_network_ram`]); 1.0 when the extension is off
    /// or the node's overflow cannot be remotely backed.
    stall_scale: f64,
    /// Effective admission ceiling in slots: the hardware slot count for
    /// every policy except the fractional family, which oversubscribes it.
    /// Fixed at construction — the oracle has no resize-the-cap path.
    slot_cap: u32,
}

impl ONode {
    fn demand(&self) -> Bytes {
        self.jobs.iter().map(|j| j.current_working_set()).sum()
    }

    fn idle_memory(&self) -> Bytes {
        self.params.memory.user.saturating_sub(self.demand())
    }

    fn overflow(&self) -> Bytes {
        self.demand().saturating_sub(self.params.memory.user)
    }

    /// Slots consumed by the resident set: the sum of job widths, recounted
    /// by linear scan on every query (classic jobs are width 1).
    fn used_slots(&self) -> u32 {
        self.jobs.iter().map(|j| j.width).sum()
    }

    fn has_slot(&self) -> bool {
        self.used_slots() < self.slot_cap
    }

    fn can_admit(&self, job: &RunningJob) -> bool {
        self.up
            && !self.reserved
            && self.used_slots() + job.width <= self.slot_cap
            && self.demand() + job.current_working_set() <= self.params.memory.capacity_limit()
    }

    fn try_admit(&mut self, mut job: RunningJob, now: SimTime) -> Result<(), Box<RunningJob>> {
        self.advance_to(now);
        if !self.can_admit(&job) {
            return Err(Box::new(job));
        }
        job.state = JobState::Running;
        self.jobs.push(job);
        self.counters.admitted += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Special-service admission: skips the reservation check but keeps the
    /// slot and capacity ceilings.
    fn admit_to_reserved(
        &mut self,
        mut job: RunningJob,
        now: SimTime,
    ) -> Result<(), Box<RunningJob>> {
        self.advance_to(now);
        if !self.up
            || self.used_slots() + job.width > self.slot_cap
            || self.demand() + job.current_working_set() > self.params.memory.capacity_limit()
        {
            return Err(Box::new(job));
        }
        job.state = JobState::Running;
        self.jobs.push(job);
        self.counters.admitted += 1;
        self.epoch += 1;
        Ok(())
    }

    fn remove_job(&mut self, id: JobId, now: SimTime) -> Option<RunningJob> {
        self.advance_to(now);
        let idx = self.jobs.iter().position(|j| j.id() == id)?;
        let job = self.jobs.swap_remove(idx);
        self.counters.migrated_out += 1;
        self.epoch += 1;
        Some(job)
    }

    fn set_reserved(&mut self, reserved: bool) {
        if self.reserved != reserved {
            self.reserved = reserved;
            self.epoch += 1;
        }
    }

    fn crash(&mut self, now: SimTime) -> Vec<RunningJob> {
        self.advance_to(now);
        self.up = false;
        self.reserved = false;
        self.epoch += 1;
        std::mem::take(&mut self.jobs)
    }

    fn restart(&mut self, now: SimTime) {
        if self.up {
            return;
        }
        self.last_update = self.last_update.max(now);
        self.up = true;
        self.epoch += 1;
    }

    /// Per-job stall factors under the documented paging model
    /// (`s_j = κ_eff · w_j / w̄`, κ_eff linear or quadratic in the relative
    /// overflow), restated independently of `FaultModel::stall_factors`.
    ///
    /// Operation order mirrors the engine's `Workstation::segment_rates`
    /// exactly: raw per-job stalls first, then the thrashing-protection
    /// redistribution over the raw values, then the network-RAM scale over
    /// the result — so the f64 outputs stay bit-identical.
    fn stall_factors(&self) -> Vec<f64> {
        let k = self.jobs.len();
        if k == 0 {
            return Vec::new();
        }
        let working_sets: Vec<Bytes> = self.jobs.iter().map(|j| j.current_working_set()).collect();
        let user = self.params.memory.user;
        let total: Bytes = working_sets.iter().copied().sum();
        let overflow = total.saturating_sub(user);
        let mut stalls = if overflow.is_zero() || total.is_zero() {
            // All-zero raw stalls: protection redistributes nothing and the
            // scale multiplies zeros, so both later passes are no-ops by
            // construction — mirroring the engine, which still runs them.
            vec![0.0; k]
        } else {
            match self.params.fault_model {
                FaultModel::Off => vec![0.0; k],
                FaultModel::LinearOverflow { kappa } => {
                    let kappa_eff = kappa * (overflow.as_u64() as f64 / user.as_u64() as f64);
                    let mean_ws = total.as_u64() as f64 / k as f64;
                    working_sets
                        .iter()
                        .map(|w| kappa_eff * (w.as_u64() as f64 / mean_ws))
                        .collect()
                }
                FaultModel::QuadraticOverflow { kappa } => {
                    let rho = overflow.as_u64() as f64 / user.as_u64() as f64;
                    let kappa_eff = kappa * rho * rho;
                    let mean_ws = total.as_u64() as f64 / k as f64;
                    working_sets
                        .iter()
                        .map(|w| kappa_eff * (w.as_u64() as f64 / mean_ws))
                        .collect()
                }
            }
        };
        if self.params.protection != ThrashingProtection::Off {
            // The redistribution arithmetic is shared with the engine the
            // same way the service-model formulas are: it is part of the
            // documented model, not of the machinery under test.
            let remaining: Vec<f64> = self.jobs.iter().map(|j| j.remaining_secs()).collect();
            self.params
                .protection
                .apply(&mut stalls, &working_sets, &remaining);
        }
        for s in &mut stalls {
            *s *= self.stall_scale;
        }
        stalls
    }

    /// Per-job progress rates, restated from the documented round-robin
    /// model: a width-w job holds w of the W = Σ widths logical slots, so it
    /// gets w equal shares of the processor-sharing rate at
    /// multiprogramming level W, degraded by context-switch efficiency and
    /// divided by `1 + stall`.
    fn rates_and_stalls(&self) -> (Vec<f64>, Vec<f64>) {
        let stalls = self.stall_factors();
        if stalls.is_empty() {
            return (Vec::new(), stalls);
        }
        let q = self.params.cpu.quantum.as_secs_f64();
        let cs = self.params.cpu.context_switch.as_secs_f64();
        let w_total: u32 = self.jobs.iter().map(|j| j.width).sum();
        let efficiency = if w_total <= 1 || q + cs <= 0.0 {
            1.0
        } else {
            q / (q + cs)
        };
        let share = self.params.cpu.speed * efficiency / f64::from(w_total);
        let rates = stalls
            .iter()
            .zip(&self.jobs)
            .map(|(s, j)| share * f64::from(j.width) / (1.0 + s))
            .collect();
        (rates, stalls)
    }

    /// Piecewise integration of the resident set up to `now`, segment by
    /// segment: each segment ends at the earliest completion or memory-phase
    /// boundary, every job accrues `rate·dt` CPU seconds plus the matching
    /// page-stall and queue shares, completed jobs move to the outbox.
    fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        let mut remaining = (now - self.last_update).as_secs_f64();
        while remaining > EPS && !self.jobs.is_empty() {
            let (rates, stalls) = self.rates_and_stalls();
            let mut dt = remaining;
            for (i, job) in self.jobs.iter().enumerate() {
                if rates[i] <= 0.0 {
                    continue;
                }
                let to_completion = job.remaining_secs() / rates[i];
                dt = dt.min(to_completion);
                if let Some(boundary) = job.spec.memory.next_boundary_after(job.progress()) {
                    let gap = boundary.as_secs_f64() - job.progress_secs;
                    if gap > BOUNDARY_EPS {
                        dt = dt.min(gap / rates[i]);
                    }
                }
            }
            let dt = dt.max(0.0);
            for (i, job) in self.jobs.iter_mut().enumerate() {
                let cpu = rates[i] * dt;
                let page = cpu * stalls[i];
                let queue = (dt - cpu - page).max(0.0);
                job.progress_secs += cpu;
                job.breakdown.cpu += cpu;
                job.breakdown.page += page;
                job.breakdown.queue += queue;
                self.counters.delivered_cpu += cpu;
                self.counters.page_stall += page;
                self.counters.io_ops += cpu * job.spec.io_rate;
            }
            remaining -= dt;
            let completion_time = now - SimSpan::from_secs_f64(remaining.max(0.0));
            let mut collected = 0usize;
            let mut i = 0;
            while i < self.jobs.len() {
                if self.jobs[i].remaining_secs() <= EPS {
                    let mut done = self.jobs.swap_remove(i);
                    done.state = JobState::Completed;
                    done.completed_at = Some(completion_time);
                    done.progress_secs = done.spec.cpu_work.as_secs_f64();
                    self.counters.completed += 1;
                    self.outbox.push(done);
                    self.epoch += 1;
                    collected += 1;
                } else {
                    i += 1;
                }
            }
            if dt <= EPS && collected == 0 && !self.jobs.is_empty() {
                break;
            }
        }
        self.last_update = now;
    }

    /// Delay until this node's next completion or phase boundary.
    fn next_event_in(&self) -> Option<SimSpan> {
        if self.jobs.is_empty() {
            return None;
        }
        let (rates, _) = self.rates_and_stalls();
        let mut earliest = f64::INFINITY;
        for (i, job) in self.jobs.iter().enumerate() {
            if rates[i] <= 0.0 {
                continue;
            }
            earliest = earliest.min(job.remaining_secs() / rates[i]);
            if let Some(boundary) = job.spec.memory.next_boundary_after(job.progress()) {
                let gap = boundary.as_secs_f64() - job.progress_secs;
                if gap > BOUNDARY_EPS {
                    earliest = earliest.min(gap / rates[i]);
                }
            }
        }
        if earliest.is_finite() {
            Some(SimSpan::from_secs_f64(earliest.max(0.0)))
        } else {
            None
        }
    }

    /// The most memory-intensive resident job (ties broken toward the
    /// smaller id).
    fn most_memory_intensive(&self) -> Option<&RunningJob> {
        self.jobs
            .iter()
            .max_by_key(|j| (j.current_working_set(), std::cmp::Reverse(j.id())))
    }
}

/// One load-snapshot entry, rebuilt from scratch on every refresh.
#[derive(Clone, Copy)]
struct OLoad {
    node: u32,
    active_jobs: usize,
    idle_memory: Bytes,
    has_slot: bool,
    reserved: bool,
    up: bool,
    user_memory: Bytes,
}

impl OLoad {
    fn capture(node: &ONode) -> OLoad {
        if !node.up {
            return OLoad {
                node: node.id,
                active_jobs: 0,
                idle_memory: Bytes::ZERO,
                has_slot: false,
                reserved: node.reserved,
                up: false,
                user_memory: node.params.memory.user,
            };
        }
        OLoad {
            node: node.id,
            active_jobs: node.jobs.len(),
            idle_memory: node.idle_memory(),
            has_slot: node.has_slot(),
            reserved: node.reserved,
            up: true,
            user_memory: node.params.memory.user,
        }
    }

    fn accepts_submissions(&self) -> bool {
        self.up && !self.reserved && self.has_slot && !self.idle_memory.is_zero()
    }
}

/// A pending-queue entry.
struct OPending {
    job: RunningJob,
    since: SimTime,
    home: u32,
}

/// A job on the wire.
struct OTransit {
    job: RunningJob,
    dst: u32,
    to_reserved: bool,
    attempts: u32,
}

/// A suspended (swapped-out) job.
struct OSuspended {
    job: RunningJob,
    since: SimTime,
}

/// One reservation, with the serving set as a sorted `Vec` (set semantics
/// by `contains` check).
struct OReservation {
    node: u32,
    serving: bool,
    started: SimTime,
    served: Vec<JobId>,
}

/// Where the policy wants a job.
#[derive(Clone, Copy)]
enum OPlacement {
    Local(u32),
    Remote(u32),
    Blocked,
}

struct Oracle {
    config: SimConfig,
    nodes: Vec<ONode>,
    index: Vec<OLoad>,
    rng: SimRng,
    pending: Vec<OPending>,
    in_transit: Vec<OTransit>,
    suspended: Vec<OSuspended>,
    completed: Vec<RunningJob>,
    gauges: ClusterGauges,
    counters: SchedulerCounters,
    reservations: Vec<OReservation>,
    res_stats: ReservationStats,
    total_jobs: usize,
    arrived: usize,
    ever_blocked: Vec<JobId>,
    suspend_counts: Vec<(JobId, u32)>,
    done: bool,
    finished_at: SimTime,
    faults: Option<FaultInjector>,
    stalled: Vec<u32>,
    /// Nodes currently in the detected-blocking state, mirroring the
    /// engine's edge-triggered `blocking_detections` counting: the counter
    /// fires only when a node enters this list, and the node leaves it as
    /// soon as an overload scan no longer finds it blocked.
    blocked_nodes: Vec<u32>,
    /// The unsorted future-event list, popped by linear (time, seq) scan.
    events: Vec<(SimTime, u64, Ev)>,
    seq: u64,
    /// Parsed malleable tunables when the policy is the malleable family —
    /// the resize scan's restated selection rules read them directly.
    malleable: Option<MalleableParams>,
}

/// Runs the naive reference model over `trace` and produces a [`RunReport`]
/// for differential comparison against the engine's.
///
/// The report's `events` log, `run_stats`, and `audit_violations` are left
/// empty — [`vrecon::compare_reports`] ignores those fields by contract.
///
/// # Errors
///
/// Returns an error if the config or trace fails validation (including an
/// unbuildable policy parameter bag), or if the config asks for
/// [`PlacementMode::CommitAware`] or [`LoadInfoMode::Staggered`], which the
/// oracle does not model. Network RAM, thrashing protection, and the
/// malleable/fractional plugin families are all modelled — the oracle
/// re-derives each from the config exactly where the engine does.
pub fn run_oracle(
    config: &SimConfig,
    trace: &Trace,
    skew: OracleSkew,
) -> Result<RunReport, String> {
    config.validate()?;
    trace.validate()?;
    if config.placement != PlacementMode::Optimistic {
        return Err(format!(
            "the oracle models only optimistic placement, not {:?}",
            config.placement
        ));
    }
    if config.load_info != LoadInfoMode::Global {
        return Err(format!(
            "the oracle models only the global load exchange, not {:?}",
            config.load_info
        ));
    }
    // Re-derive the plugin families' tunables from the parameter bag the
    // same way `SimConfig::validate` proved them buildable; the behaviour
    // they drive is restated below, not delegated.
    let malleable = match config.policy {
        PolicyKind::Malleable => Some(
            MalleableParams::from_bag(&config.policy_params)
                .map_err(|e| format!("malleable parameters: {e}"))?,
        ),
        _ => None,
    };
    let fractional = match config.policy {
        PolicyKind::Fractional => Some(
            FractionalParams::from_bag(&config.policy_params)
                .map_err(|e| format!("fractional parameters: {e}"))?,
        ),
        _ => None,
    };

    let mut o = Oracle {
        config: config.clone(),
        nodes: config
            .cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(i, params)| ONode {
                id: i as u32,
                params: *params,
                jobs: Vec::new(),
                last_update: SimTime::ZERO,
                epoch: 0,
                reserved: false,
                up: true,
                outbox: Vec::new(),
                counters: NodeCounters::default(),
                stall_scale: 1.0,
                // Same clamp as the engine's `Workstation::set_slot_cap`.
                slot_cap: fractional
                    .map_or(params.cpu.slots, |f| f.slot_cap(params.cpu.slots))
                    .max(1),
            })
            .collect(),
        index: Vec::new(),
        // vr-analyze::rng-authority(reason = "the oracle re-derives the engine's master stream from the same config seed; sharing a fork would entangle the two models")
        rng: SimRng::seed_from(config.seed),
        pending: Vec::new(),
        in_transit: Vec::new(),
        suspended: Vec::new(),
        completed: Vec::new(),
        gauges: ClusterGauges::default(),
        counters: SchedulerCounters::default(),
        reservations: Vec::new(),
        res_stats: ReservationStats::default(),
        total_jobs: trace.len(),
        arrived: 0,
        ever_blocked: Vec::new(),
        suspend_counts: Vec::new(),
        done: trace.is_empty(),
        finished_at: SimTime::ZERO,
        faults: config
            .fault_plan
            .clone()
            .map(|plan| FaultInjector::new(plan, config.seed)),
        stalled: Vec::new(),
        blocked_nodes: Vec::new(),
        events: Vec::new(),
        seq: 0,
        malleable,
    };
    o.refresh_snapshot();

    // Seed the event list in the same order the driver does, so equal-time
    // ties resolve identically.
    for job in &trace.jobs {
        o.schedule_at(job.submit, Ev::Arrival(Box::new(job.clone())));
    }
    o.schedule_at(SimTime::ZERO, Ev::Exchange);
    o.schedule_at(SimTime::ZERO, Ev::Sample);
    o.schedule_at(
        SimTime::ZERO + config.pending_retry_period,
        Ev::PendingRetry,
    );
    if let Some(injector) = &o.faults {
        for crash in injector.crash_schedule() {
            let node = crash.node as u32;
            o.schedule_at(crash.at, Ev::NodeCrash { node });
            if let Some(delay) = crash.restart_after {
                o.schedule_at(crash.at + delay, Ev::NodeRestart { node });
            }
        }
    }

    // The main loop: pop the (time, seq) minimum by linear scan and handle
    // it, until the list drains or the next event is past the horizon.
    let horizon = SimTime::ZERO + config.max_sim_time;
    let mut now = SimTime::ZERO;
    loop {
        let next = o
            .events
            .iter()
            .enumerate()
            .min_by_key(|(_, (t, s, _))| (*t, *s))
            .map(|(i, (t, _, _))| (i, *t));
        let Some((pos, t)) = next else {
            break;
        };
        if t > horizon {
            break;
        }
        let (_, _, ev) = o.events.swap_remove(pos);
        now = t;
        o.handle(ev, now);
    }

    let mut report = o.into_report(trace, config, now);
    if skew == OracleSkew::CompletionOffByOne {
        for job in &mut report.jobs {
            if let Some(t) = job.completed_at {
                job.completed_at = Some(t + SimSpan::from_micros(1));
            }
        }
    }
    Ok(report)
}

impl Oracle {
    fn schedule_at(&mut self, time: SimTime, ev: Ev) {
        self.events.push((time, self.seq, ev));
        self.seq += 1;
    }

    fn schedule_in(&mut self, now: SimTime, delay: SimSpan, ev: Ev) {
        self.schedule_at(now + delay, ev);
    }

    // ---- load snapshot ---------------------------------------------------

    fn refresh_snapshot(&mut self) {
        self.index = self.nodes.iter().map(OLoad::capture).collect();
        self.update_network_ram();
    }

    /// Refresh keeping the previous entry for every node in `stale` (lost
    /// load reports).
    fn refresh_snapshot_except(&mut self, stale: &[u32]) {
        let old = std::mem::take(&mut self.index);
        self.index = self
            .nodes
            .iter()
            .map(|node| {
                if stale.contains(&node.id) {
                    if let Some(prev) = old.iter().find(|e| e.node == node.id) {
                        return *prev;
                    }
                }
                OLoad::capture(node)
            })
            .collect();
        self.update_network_ram();
    }

    /// Mirrors the engine's network-RAM pass: after every snapshot refresh,
    /// each node whose memory overflow fits in the cluster's accumulated
    /// *live* idle memory pages at the remote service time instead of the
    /// local disk. The sum reads live node state, not the (possibly lossy)
    /// snapshot — same as the engine, which sums `Workstation::idle_memory`
    /// directly.
    fn update_network_ram(&mut self) {
        let Some(netram) = self.config.network_ram else {
            return;
        };
        let accumulated: Bytes = self.nodes.iter().map(ONode::idle_memory).sum();
        for node in &mut self.nodes {
            let overflow = node.overflow();
            let remote_backed = !overflow.is_zero() && accumulated >= overflow;
            let scale = if remote_backed {
                netram.stall_scale(node.params.memory.fault_service)
            } else {
                1.0
            };
            // Same change-detection threshold as the engine's
            // `Workstation::set_stall_scale`: a real change rewrites the
            // node's future, so the epoch bump invalidates pending wakes.
            if (node.stall_scale - scale).abs() > 1e-12 {
                node.stall_scale = scale;
                node.epoch += 1;
            }
        }
    }

    fn index_get(&self, node: u32) -> Option<&OLoad> {
        self.index.iter().find(|e| e.node == node)
    }

    fn accumulated_idle_memory(&self) -> Bytes {
        self.index.iter().map(|e| e.idle_memory).sum()
    }

    fn average_user_memory(&self) -> Bytes {
        if self.index.is_empty() {
            return Bytes::ZERO;
        }
        let total: Bytes = self.index.iter().map(|e| e.user_memory).sum();
        Bytes::new(total.as_u64() / self.index.len() as u64)
    }

    /// Advance everything, drain completions, take a fresh snapshot.
    fn refresh_index(&mut self, now: SimTime) {
        for i in 0..self.nodes.len() {
            self.nodes[i].advance_to(now);
        }
        self.collect_completions(now);
        self.refresh_snapshot();
    }

    /// The exchange variant: under load-info loss every node's report may be
    /// dropped, keeping its previous snapshot entry.
    fn refresh_index_lossy(&mut self, now: SimTime) {
        for i in 0..self.nodes.len() {
            self.nodes[i].advance_to(now);
        }
        self.collect_completions(now);
        let mut lost: Vec<u32> = Vec::new();
        if let Some(injector) = self.faults.as_mut() {
            if injector.plan().load_info_loss_prob > 0.0 {
                for i in 0..self.nodes.len() {
                    if injector.load_report_lost() {
                        lost.push(i as u32);
                    }
                }
            }
        }
        if lost.is_empty() {
            self.refresh_snapshot();
        } else {
            self.refresh_snapshot_except(&lost);
        }
    }

    // ---- reservations (plain Vec, linear scans) --------------------------

    fn is_reserved(&self, node: u32) -> bool {
        self.reservations.iter().any(|r| r.node == node)
    }

    fn reserve_begin(&mut self, node: u32, now: SimTime) {
        self.reservations.push(OReservation {
            node,
            serving: false,
            started: now,
            served: Vec::new(),
        });
        self.res_stats.started += 1;
    }

    fn record_service(&mut self, node: u32, job: JobId) {
        if let Some(r) = self.reservations.iter_mut().find(|r| r.node == node) {
            r.serving = true;
            if !r.served.contains(&job) {
                r.served.push(job);
            }
            self.res_stats.jobs_served += 1;
        }
    }

    /// `true` if this completion drained the served set (release the node).
    fn note_completion(&mut self, node: u32, job: JobId) -> bool {
        let Some(pos) = self.reservations.iter().position(|r| r.node == node) else {
            return false;
        };
        let r = &mut self.reservations[pos];
        if r.serving && r.served.contains(&job) {
            r.served.retain(|j| *j != job);
            if r.served.is_empty() {
                self.reservations.remove(pos);
                self.res_stats.released_after_service += 1;
                return true;
            }
        }
        false
    }

    fn release_unused(&mut self, node: u32) -> bool {
        let before = self.reservations.len();
        self.reservations.retain(|r| r.node != node);
        if self.reservations.len() < before {
            self.res_stats.released_unused += 1;
            true
        } else {
            false
        }
    }

    fn sweep_timeouts(&mut self, now: SimTime) -> Vec<u32> {
        let timeout = self.config.reservation.reserve_timeout;
        let expired: Vec<u32> = self
            .reservations
            .iter()
            .filter(|r| !r.serving && now.saturating_since(r.started) > timeout)
            .map(|r| r.node)
            .collect();
        for node in &expired {
            self.reservations.retain(|r| r.node != *node);
            self.res_stats.timed_out += 1;
        }
        expired
    }

    fn can_reserve(&self) -> bool {
        self.reservations.len() < self.config.reservation.max_reserved(self.nodes.len())
    }

    // ---- placement policies ----------------------------------------------

    // The capability flags, restated here rather than read from the
    // engine's `Policy` impls.

    fn migrates_on_overload(&self) -> bool {
        matches!(
            self.config.policy,
            PolicyKind::GLoadSharing
                | PolicyKind::VReconfiguration
                | PolicyKind::SuspendLargest
                | PolicyKind::WeightedCpuMem
                | PolicyKind::Malleable
                | PolicyKind::Fractional
        )
    }

    fn reconfigures(&self) -> bool {
        matches!(self.config.policy, PolicyKind::VReconfiguration)
    }

    fn suspends_on_blocking(&self) -> bool {
        matches!(self.config.policy, PolicyKind::SuspendLargest)
    }

    fn place(&mut self, job: &RunningJob, home: u32) -> OPlacement {
        match self.config.policy {
            PolicyKind::NoLoadSharing => match self.index_get(home) {
                Some(load) if load.has_slot => OPlacement::Local(home),
                _ => OPlacement::Blocked,
            },
            PolicyKind::Random => {
                let candidates: Vec<u32> = self
                    .index
                    .iter()
                    .filter(|e| e.has_slot && !e.reserved)
                    .map(|e| e.node)
                    .collect();
                if candidates.is_empty() {
                    OPlacement::Blocked
                } else {
                    let pick = *self.rng.choose(&candidates);
                    if pick == home {
                        OPlacement::Local(pick)
                    } else {
                        OPlacement::Remote(pick)
                    }
                }
            }
            PolicyKind::CpuOnly => {
                let best = self
                    .index
                    .iter()
                    .filter(|e| e.has_slot && !e.reserved)
                    .min_by_key(|e| (e.active_jobs, e.node));
                match best {
                    Some(e) if e.node == home => OPlacement::Local(home),
                    Some(e) => OPlacement::Remote(e.node),
                    None => OPlacement::Blocked,
                }
            }
            PolicyKind::WeightedCpuMem => {
                let demand = job.current_working_set();
                let score = |e: &OLoad| {
                    let cpu = e.active_jobs as f64;
                    let mem = 1.0 - e.idle_memory.as_u64() as f64 / e.user_memory.as_u64() as f64;
                    cpu + 8.0 * mem
                };
                let best = self
                    .index
                    .iter()
                    .filter(|e| e.accepts_submissions() && e.idle_memory >= demand)
                    .min_by(|a, b| {
                        score(a)
                            .partial_cmp(&score(b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.node.cmp(&b.node))
                    });
                match best {
                    Some(e) if e.node == home => OPlacement::Local(home),
                    Some(e) => OPlacement::Remote(e.node),
                    None => OPlacement::Blocked,
                }
            }
            PolicyKind::GLoadSharing
            | PolicyKind::VReconfiguration
            | PolicyKind::SuspendLargest
            | PolicyKind::Malleable
            | PolicyKind::Fractional => {
                let demand = job.current_working_set();
                if self
                    .index_get(home)
                    .is_some_and(|load| load.accepts_submissions() && load.idle_memory >= demand)
                {
                    return OPlacement::Local(home);
                }
                let dest = self
                    .index
                    .iter()
                    .filter(|e| {
                        e.node != home && e.accepts_submissions() && e.idle_memory >= demand
                    })
                    .min_by_key(|e| (e.active_jobs, std::cmp::Reverse(e.idle_memory), e.node));
                match dest {
                    Some(dest) => OPlacement::Remote(dest.node),
                    None => OPlacement::Blocked,
                }
            }
        }
    }

    // ---- scheduler mechanics ---------------------------------------------

    fn collect_completions(&mut self, now: SimTime) {
        let mut any = false;
        for i in 0..self.nodes.len() {
            let finished = std::mem::take(&mut self.nodes[i].outbox);
            if finished.is_empty() {
                continue;
            }
            any = true;
            for job in finished {
                if self.note_completion(i as u32, job.id()) {
                    self.release_reserved_flag(i as u32, now);
                }
                self.completed.push(job);
            }
            self.schedule_wake(i as u32, now);
        }
        if any {
            self.refresh_snapshot();
            self.try_place_pending(now);
            self.check_reservations(now);
            self.check_done(now);
        }
    }

    fn schedule_wake(&mut self, node: u32, now: SimTime) {
        if let Some(delay) = self.nodes[node as usize].next_event_in() {
            let epoch = self.nodes[node as usize].epoch;
            self.schedule_in(
                now,
                delay.max(SimSpan::from_micros(1)),
                Ev::NodeWake { node, epoch },
            );
        }
    }

    fn release_reserved_flag(&mut self, node: u32, now: SimTime) {
        let stall = self
            .faults
            .as_ref()
            .map(|f| f.plan().reservation_release_stall)
            .unwrap_or(SimSpan::ZERO);
        if stall.is_zero() {
            self.nodes[node as usize].set_reserved(false);
        } else if !self.stalled.contains(&node) {
            self.stalled.push(node);
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.stalled_releases += 1;
            }
            self.schedule_in(now, stall, Ev::ReservationUnstall { node });
        }
    }

    fn place_job(&mut self, mut job: RunningJob, home: u32, now: SimTime, first_attempt: bool) {
        match self.place(&job, home) {
            OPlacement::Local(node_id) => match self.nodes[node_id as usize].try_admit(job, now) {
                Ok(()) => {
                    if first_attempt {
                        self.counters.local_submissions += 1;
                    }
                    self.schedule_wake(node_id, now);
                }
                Err(rejected) => {
                    self.counters.stale_rejections += 1;
                    self.enqueue_pending(*rejected, home, now);
                }
            },
            OPlacement::Remote(node_id) => {
                let cost = self.config.cluster.network.remote_submit_cost;
                job.breakdown.migration += cost.as_secs_f64();
                job.remote_submitted = true;
                job.state = JobState::Migrating;
                self.counters.remote_submissions += 1;
                let id = job.id();
                self.in_transit.push(OTransit {
                    job,
                    dst: node_id,
                    to_reserved: false,
                    attempts: 0,
                });
                self.schedule_in(now, cost, Ev::TransitArrive { job: id });
            }
            OPlacement::Blocked => {
                self.enqueue_pending(job, home, now);
            }
        }
    }

    fn enqueue_pending(&mut self, mut job: RunningJob, home: u32, now: SimTime) {
        job.state = JobState::Pending;
        if !self.ever_blocked.contains(&job.id()) {
            self.ever_blocked.push(job.id());
            self.counters.blocked_submissions += 1;
        }
        self.pending.push(OPending {
            job,
            since: now,
            home,
        });
    }

    fn try_place_pending(&mut self, now: SimTime) {
        let fifo = self.config.pending_discipline == PendingDiscipline::Fifo;
        let mut waiting = std::mem::take(&mut self.pending);
        while !waiting.is_empty() {
            let mut entry = waiting.remove(0);
            let decision = self.place(&entry.job, entry.home);
            if matches!(decision, OPlacement::Blocked) {
                self.pending.push(entry);
                if fifo {
                    self.pending.append(&mut waiting);
                    return;
                }
            } else {
                entry.job.breakdown.queue += now.saturating_since(entry.since).as_secs_f64();
                // Re-decide inside place_job: the snapshot has not changed
                // between the two `place` calls, so the decision is the same
                // draw-for-draw only for deterministic policies — mirror the
                // driver, which also decides twice.
                self.place_job(entry.job, entry.home, now, false);
            }
        }
    }

    fn in_transit_demand(&self, node: u32) -> Bytes {
        self.in_transit
            .iter()
            .filter(|t| t.dst == node)
            .map(|t| t.job.current_working_set())
            .sum()
    }

    fn in_transit_count(&self, node: u32) -> usize {
        self.in_transit.iter().filter(|t| t.dst == node).count()
    }

    fn committed_idle(&self, node: u32) -> Bytes {
        self.nodes[node as usize]
            .idle_memory()
            .saturating_sub(self.in_transit_demand(node))
    }

    fn has_uncommitted_slot(&self, node: u32) -> bool {
        let n = &self.nodes[node as usize];
        n.used_slots() as usize + self.in_transit_count(node) < n.slot_cap as usize
    }

    fn serving_room_for(&self, ws: Bytes) -> Option<u32> {
        self.reservations
            .iter()
            .filter(|r| self.committed_idle(r.node) >= ws && self.has_uncommitted_slot(r.node))
            .map(|r| r.node)
            .next()
    }

    fn overload_scan(&mut self, now: SimTime) {
        if !self.migrates_on_overload() {
            return;
        }
        for i in 0..self.nodes.len() {
            let src = i as u32;
            if self.nodes[i].reserved || !self.nodes[i].up {
                self.blocked_nodes.retain(|n| *n != src);
                continue;
            }
            let user = self.nodes[i].params.memory.user;
            let threshold = self.config.overload_bytes(user);
            if self.nodes[i].overflow() <= threshold {
                self.blocked_nodes.retain(|n| *n != src);
                continue;
            }
            let Some(victim) = self.nodes[i].most_memory_intensive() else {
                self.blocked_nodes.retain(|n| *n != src);
                continue;
            };
            let victim_id = victim.id();
            let victim_ws = victim.current_working_set();
            let dest = self
                .index
                .iter()
                .filter(|e| {
                    e.node != src
                        && e.accepts_submissions()
                        && e.idle_memory.saturating_sub(self.in_transit_demand(e.node)) >= victim_ws
                        && self.has_uncommitted_slot(e.node)
                })
                .min_by_key(|e| (e.active_jobs, std::cmp::Reverse(e.idle_memory), e.node))
                .map(|e| e.node);
            match dest {
                Some(dst) => {
                    self.blocked_nodes.retain(|n| *n != src);
                    self.start_migration(src, victim_id, dst, false, now);
                    self.counters.overload_migrations += 1;
                }
                None => {
                    // Edge-triggered, mirroring the engine: count only when
                    // the node newly enters the blocked state.
                    if !self.blocked_nodes.contains(&src) {
                        self.blocked_nodes.push(src);
                        self.counters.blocking_detections += 1;
                    }
                    if self.reconfigures() {
                        self.reconfigure(src, now);
                    } else if self.suspends_on_blocking()
                        && self
                            .suspend_counts
                            .iter()
                            .find(|(id, _)| *id == victim_id)
                            .map(|(_, n)| *n)
                            .unwrap_or(0)
                            < MAX_SUSPENSIONS_PER_JOB
                    {
                        self.suspend_job(src, victim_id, now);
                    }
                }
            }
        }
    }

    /// Mirrors the engine's `resize_scan`, with the malleable family's
    /// directive selection restated from its documented rules: at most one
    /// width change per node per exchange tick, nodes visited in ascending
    /// id order, the trigger recomputed from the pending queue. Every node
    /// was already advanced to `now` by the exchange-top index refresh.
    fn resize_scan(&mut self, now: SimTime) {
        let Some(params) = self.malleable else {
            return;
        };
        let pressure = !self.pending.is_empty();
        let mut any = false;
        for i in 0..self.nodes.len() {
            if self.nodes[i].jobs.is_empty() {
                continue;
            }
            let node = &self.nodes[i];
            if !node.up || node.reserved {
                continue;
            }
            let used = node.used_slots();
            let cap = node.slot_cap;
            let free = cap.saturating_sub(used);
            // (job, new width, is-grow): the widest shrinkable job under
            // pressure with no free slot, the narrowest growable job when
            // idle capacity exists — ties toward the smaller id, both ways.
            let directive: Option<(JobId, u32, bool)> = if pressure && free == 0 {
                node.jobs
                    .iter()
                    .filter(|j| j.spec.malleable.is_some_and(|m| j.width > m.min_width))
                    .max_by_key(|j| (j.width, std::cmp::Reverse(j.spec.id)))
                    .map(|j| {
                        let min = j.spec.malleable.map_or(1, |m| m.min_width);
                        (
                            j.spec.id,
                            j.width.saturating_sub(params.max_step).max(min),
                            false,
                        )
                    })
            } else if !pressure && free > 0 {
                node.jobs
                    .iter()
                    .filter(|j| j.spec.malleable.is_some_and(|m| j.width < m.max_width))
                    .min_by_key(|j| (j.width, j.spec.id))
                    .map(|j| {
                        let max = j.spec.malleable.map_or(j.width, |m| m.max_width);
                        (
                            j.spec.id,
                            (j.width + params.max_step.min(free)).min(max),
                            true,
                        )
                    })
            } else {
                None
            };
            let Some((job_id, to, grow)) = directive else {
                continue;
            };
            // Apply, mirroring `Workstation::resize_job`'s guards (the
            // advance is a no-op here: the node already sits at `now`).
            let node = &mut self.nodes[i];
            let Some(job) = node.jobs.iter_mut().find(|j| j.spec.id == job_id) else {
                continue;
            };
            let old = job.width;
            if to == old || to == 0 || (to > old && used - old + to > cap) {
                continue;
            }
            job.width = to;
            node.epoch += 1;
            if grow {
                self.counters.grows += 1;
            } else {
                self.counters.shrinks += 1;
            }
            self.schedule_wake(i as u32, now);
            any = true;
        }
        if any {
            self.refresh_snapshot();
        }
    }

    fn reconfigure(&mut self, src: u32, now: SimTime) {
        let Some(victim) = self.nodes[src as usize].most_memory_intensive() else {
            return;
        };
        let victim_id = victim.id();
        let victim_ws = victim.current_working_set();
        if let Some(dst) = self.serving_room_for(victim_ws) {
            self.record_service(dst, victim_id);
            self.start_migration(src, victim_id, dst, true, now);
            self.counters.reserved_migrations += 1;
            return;
        }
        if self.accumulated_idle_memory() <= self.average_user_memory() {
            return;
        }
        if !self.can_reserve() {
            return;
        }
        let candidate = self
            .index
            .iter()
            .filter(|e| {
                !e.reserved
                    && !self.is_reserved(e.node)
                    && e.node != src
                    && self.nodes[e.node as usize].up
                    && !self.stalled.contains(&e.node)
            })
            .max_by_key(|e| {
                (
                    e.idle_memory,
                    std::cmp::Reverse(e.active_jobs),
                    std::cmp::Reverse(e.node),
                )
            })
            .map(|e| e.node);
        if let Some(node_id) = candidate {
            self.reserve_begin(node_id, now);
            self.nodes[node_id as usize].set_reserved(true);
        }
    }

    fn check_reservations(&mut self, now: SimTime) {
        for node_id in self.sweep_timeouts(now) {
            self.release_reserved_flag(node_id, now);
        }
        let reserving: Vec<u32> = self
            .reservations
            .iter()
            .filter(|r| !r.serving)
            .map(|r| r.node)
            .collect();
        for node_id in reserving {
            let ready = match self.config.reservation.end_condition {
                ReservingEnd::AllJobsComplete => self.nodes[node_id as usize].jobs.is_empty(),
                ReservingEnd::EnoughMemory => match self.blocking_victim(node_id) {
                    Some((_, _, ws)) => {
                        self.committed_idle(node_id) >= ws && self.has_uncommitted_slot(node_id)
                    }
                    None => true,
                },
            };
            if !ready {
                continue;
            }
            if self.in_transit_count(node_id) > 0 {
                continue;
            }
            match self.blocking_victim(node_id) {
                Some((src, victim, _ws)) => {
                    self.record_service(node_id, victim);
                    self.start_migration(src, victim, node_id, true, now);
                    self.counters.reserved_migrations += 1;
                }
                None => {
                    self.release_unused(node_id);
                    self.release_reserved_flag(node_id, now);
                }
            }
        }
    }

    fn blocking_victim(&self, exclude_dst: u32) -> Option<(u32, JobId, Bytes)> {
        let mut worst: Option<(Bytes, u32, JobId, Bytes)> = None;
        for node in &self.nodes {
            if node.reserved || !node.up {
                continue;
            }
            let threshold = self.config.overload_bytes(node.params.memory.user);
            if node.overflow() <= threshold {
                continue;
            }
            let Some(victim) = node.most_memory_intensive() else {
                continue;
            };
            let ws = victim.current_working_set();
            let has_ordinary_dest = self.index.iter().any(|e| {
                e.node != node.id
                    && e.node != exclude_dst
                    && e.accepts_submissions()
                    && e.idle_memory.saturating_sub(self.in_transit_demand(e.node)) >= ws
            });
            if has_ordinary_dest {
                continue;
            }
            let key = node.overflow();
            if worst.is_none_or(|(k, ..)| key > k) {
                worst = Some((key, node.id, victim.id(), ws));
            }
        }
        worst.map(|(_, src, job, ws)| (src, job, ws))
    }

    fn start_migration(
        &mut self,
        src: u32,
        job_id: JobId,
        dst: u32,
        to_reserved: bool,
        now: SimTime,
    ) {
        let Some(mut job) = self.nodes[src as usize].remove_job(job_id, now) else {
            if to_reserved && self.note_completion(dst, job_id) {
                self.release_reserved_flag(dst, now);
            }
            return;
        };
        self.schedule_wake(src, now);
        let image = job.current_working_set();
        let cost = self.config.cluster.network.migration_cost(image);
        job.breakdown.migration += cost.as_secs_f64();
        job.migrations += 1;
        job.state = JobState::Migrating;
        self.in_transit.push(OTransit {
            job,
            dst,
            to_reserved,
            attempts: 0,
        });
        self.schedule_in(now, cost, Ev::TransitArrive { job: job_id });
    }

    fn handle_transit_arrive(&mut self, job_id: JobId, now: SimTime) {
        let Some(pos) = self.in_transit.iter().position(|t| t.job.id() == job_id) else {
            return;
        };
        let OTransit {
            job,
            dst,
            to_reserved,
            ..
        } = self.in_transit.remove(pos);
        let home = dst;
        let result = if to_reserved {
            self.nodes[dst as usize].admit_to_reserved(job, now)
        } else {
            self.nodes[dst as usize].try_admit(job, now)
        };
        match result {
            Ok(()) => {
                self.schedule_wake(dst, now);
            }
            Err(rejected) => {
                self.counters.stale_rejections += 1;
                if to_reserved && self.note_completion(dst, job_id) {
                    self.release_reserved_flag(dst, now);
                }
                self.enqueue_pending(*rejected, home, now);
            }
        }
    }

    fn handle_migration_failure(&mut self, job_id: JobId, now: SimTime) {
        let (max_retries, base_backoff) = match self.faults.as_ref() {
            Some(injector) => (
                injector.plan().max_migration_retries,
                injector.plan().retry_backoff,
            ),
            None => return,
        };
        let Some(pos) = self.in_transit.iter().position(|t| t.job.id() == job_id) else {
            return;
        };
        self.in_transit[pos].attempts += 1;
        let attempts = self.in_transit[pos].attempts;
        if attempts <= max_retries {
            let mut backoff = base_backoff;
            for _ in 0..(attempts - 1).min(16) {
                backoff = backoff + backoff;
            }
            self.in_transit[pos].job.breakdown.migration += backoff.as_secs_f64();
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.migration_retries += 1;
            }
            self.schedule_in(now, backoff, Ev::TransitArrive { job: job_id });
        } else {
            let transit = self.in_transit.remove(pos);
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.migrations_abandoned += 1;
                injector.counters.requeued_jobs += 1;
            }
            if transit.to_reserved && self.note_completion(transit.dst, job_id) {
                self.release_reserved_flag(transit.dst, now);
            }
            let dst = transit.dst;
            self.enqueue_pending(transit.job, dst, now);
        }
    }

    fn handle_node_crash(&mut self, node_id: u32, now: SimTime) {
        if !self.nodes[node_id as usize].up {
            return;
        }
        self.nodes[node_id as usize].advance_to(now);
        self.collect_completions(now);
        if let Some(injector) = self.faults.as_mut() {
            injector.counters.crashes += 1;
        }
        let _released = self.release_unused(node_id) || {
            let had = self.stalled.contains(&node_id);
            self.stalled.retain(|n| *n != node_id);
            had
        };
        let drained = self.nodes[node_id as usize].crash(now);
        for job in drained {
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.requeued_jobs += 1;
            }
            self.enqueue_pending(job, node_id, now);
        }
        self.refresh_snapshot();
        self.try_place_pending(now);
    }

    fn handle_node_restart(&mut self, node_id: u32, now: SimTime) {
        if self.nodes[node_id as usize].up {
            return;
        }
        self.nodes[node_id as usize].restart(now);
        if let Some(injector) = self.faults.as_mut() {
            injector.counters.restarts += 1;
        }
        self.refresh_snapshot();
        self.try_place_pending(now);
    }

    fn handle_reservation_unstall(&mut self, node_id: u32, now: SimTime) {
        if !self.stalled.contains(&node_id) {
            return;
        }
        self.stalled.retain(|n| *n != node_id);
        if self.is_reserved(node_id) {
            return;
        }
        self.nodes[node_id as usize].advance_to(now);
        self.nodes[node_id as usize].set_reserved(false);
        self.refresh_index(now);
        self.schedule_wake(node_id, now);
        self.try_place_pending(now);
    }

    fn suspend_job(&mut self, src: u32, job_id: JobId, now: SimTime) {
        let Some(mut job) = self.nodes[src as usize].remove_job(job_id, now) else {
            return;
        };
        self.schedule_wake(src, now);
        let image = job.current_working_set();
        let out_cost = self.nodes[src as usize]
            .params
            .memory
            .swap_transfer_time(image);
        job.breakdown.migration += out_cost.as_secs_f64();
        job.state = JobState::Suspended;
        match self
            .suspend_counts
            .iter_mut()
            .find(|(id, _)| *id == job.id())
        {
            Some((_, n)) => *n += 1,
            None => self.suspend_counts.push((job.id(), 1)),
        }
        self.counters.suspensions += 1;
        self.suspended.push(OSuspended {
            job,
            since: now + out_cost,
        });
    }

    fn try_resume_suspended(&mut self, now: SimTime) {
        if self.suspended.is_empty() || !self.pending.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.suspended);
        for mut entry in parked {
            if now < entry.since {
                self.suspended.push(entry);
                continue;
            }
            let home = self.rng.index(self.nodes.len()) as u32;
            let decision = self.place(&entry.job, home);
            let dst = match decision {
                OPlacement::Blocked => {
                    let idle_node = self
                        .nodes
                        .iter()
                        .filter(|n| {
                            n.jobs.is_empty()
                                && !n.reserved
                                && self.in_transit.iter().all(|t| t.dst != n.id)
                                && n.can_admit(&entry.job)
                        })
                        .max_by_key(|n| (n.idle_memory(), std::cmp::Reverse(n.id)))
                        .map(|n| n.id);
                    match idle_node {
                        Some(n) => n,
                        None => {
                            self.suspended.push(entry);
                            continue;
                        }
                    }
                }
                OPlacement::Local(n) | OPlacement::Remote(n) => n,
            };
            entry.job.breakdown.queue += (now - entry.since).as_secs_f64();
            let image = entry.job.current_working_set();
            let mut in_cost = self.nodes[dst as usize]
                .params
                .memory
                .swap_transfer_time(image);
            if matches!(decision, OPlacement::Remote(_)) {
                in_cost += self.config.cluster.network.remote_submit_cost;
            }
            entry.job.breakdown.migration += in_cost.as_secs_f64();
            entry.job.state = JobState::Migrating;
            self.counters.resumes += 1;
            let id = entry.job.id();
            self.in_transit.push(OTransit {
                job: entry.job,
                dst,
                to_reserved: false,
                attempts: 0,
            });
            self.schedule_in(now, in_cost, Ev::TransitArrive { job: id });
        }
    }

    fn check_done(&mut self, now: SimTime) {
        if self.done {
            return;
        }
        if self.arrived == self.total_jobs
            && self.pending.is_empty()
            && self.in_transit.is_empty()
            && self.suspended.is_empty()
            && self.nodes.iter().all(|n| n.jobs.is_empty())
        {
            self.done = true;
            self.finished_at = now;
        }
    }

    fn sample_gauges(&mut self, now: SimTime) {
        let mut idle = Bytes::ZERO;
        let mut physical_idle = Bytes::ZERO;
        let mut reserved = 0usize;
        let mut active_non_reserved = Vec::new();
        for node in &self.nodes {
            physical_idle += node.idle_memory();
            if node.reserved {
                reserved += 1;
            } else {
                idle += node.idle_memory();
                active_non_reserved.push(node.jobs.len());
            }
        }
        self.gauges.idle_memory_mb.push(now, idle.as_mb_f64());
        self.gauges
            .physical_idle_memory_mb
            .push(now, physical_idle.as_mb_f64());
        self.gauges
            .balance_skew
            .push(now, balance_skew(&active_non_reserved));
        self.gauges.reserved_nodes.push(now, reserved as f64);
        self.gauges
            .pending_jobs
            .push(now, self.pending.len() as f64);
    }

    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Arrival(spec) => {
                self.arrived += 1;
                let job = RunningJob::new(*spec);
                let home = self.rng.index(self.nodes.len()) as u32;
                if self.config.pending_discipline == PendingDiscipline::Fifo
                    && !self.pending.is_empty()
                {
                    self.enqueue_pending(job, home, now);
                } else {
                    self.place_job(job, home, now, true);
                }
            }
            Ev::NodeWake { node, epoch } => {
                if self.nodes[node as usize].epoch != epoch {
                    return;
                }
                self.nodes[node as usize].advance_to(now);
                self.collect_completions(now);
                if self.nodes[node as usize].epoch == epoch {
                    self.schedule_wake(node, now);
                }
            }
            Ev::Exchange => {
                self.refresh_index_lossy(now);
                self.overload_scan(now);
                self.resize_scan(now);
                self.check_reservations(now);
                self.try_resume_suspended(now);
                self.check_done(now);
                if !self.done {
                    self.schedule_in(now, self.config.cluster.load_exchange_period, Ev::Exchange);
                }
            }
            Ev::Sample => {
                for i in 0..self.nodes.len() {
                    self.nodes[i].advance_to(now);
                }
                self.collect_completions(now);
                self.sample_gauges(now);
                if !self.done {
                    self.schedule_in(now, self.config.sample_period, Ev::Sample);
                }
            }
            Ev::PendingRetry => {
                if !self.pending.is_empty() {
                    self.refresh_index(now);
                    self.try_place_pending(now);
                }
                self.check_done(now);
                if !self.done {
                    self.schedule_in(now, self.config.pending_retry_period, Ev::PendingRetry);
                }
            }
            Ev::TransitArrive { job } => {
                let in_flight = self.in_transit.iter().any(|t| t.job.id() == job);
                if in_flight && self.faults.as_mut().is_some_and(|f| f.migration_fails()) {
                    self.handle_migration_failure(job, now);
                } else {
                    self.handle_transit_arrive(job, now);
                }
                self.check_done(now);
            }
            Ev::NodeCrash { node } => {
                self.handle_node_crash(node, now);
            }
            Ev::NodeRestart { node } => {
                self.handle_node_restart(node, now);
            }
            Ev::ReservationUnstall { node } => {
                self.handle_reservation_unstall(node, now);
                self.check_done(now);
            }
        }
    }

    fn into_report(mut self, trace: &Trace, config: &SimConfig, now: SimTime) -> RunReport {
        let mut jobs = std::mem::take(&mut self.completed);
        let mut unfinished = 0usize;
        for entry in std::mem::take(&mut self.pending) {
            unfinished += 1;
            let mut job = entry.job;
            job.breakdown.queue += now.saturating_since(entry.since).as_secs_f64();
            jobs.push(job);
        }
        for transit in std::mem::take(&mut self.in_transit) {
            unfinished += 1;
            jobs.push(transit.job);
        }
        for entry in std::mem::take(&mut self.suspended) {
            unfinished += 1;
            let mut job = entry.job;
            job.breakdown.queue += now.saturating_since(entry.since).as_secs_f64();
            jobs.push(job);
        }
        for node in &mut self.nodes {
            node.advance_to(now);
            jobs.append(&mut node.outbox);
        }
        for node in &self.nodes {
            for job in &node.jobs {
                unfinished += 1;
                jobs.push(job.clone());
            }
        }
        unfinished += trace.len().saturating_sub(jobs.len());
        jobs.sort_by_key(|j| j.id());
        let summary = WorkloadSummary::of_jobs(jobs.iter());
        RunReport {
            trace_name: trace.name.clone(),
            policy: config.policy,
            seed: config.seed,
            summary,
            gauges: self.gauges,
            counters: self.counters,
            reservations: self.res_stats,
            node_counters: self.nodes.iter().map(|n| n.counters).collect(),
            events: Default::default(),
            finished_at: if self.done { self.finished_at } else { now },
            unfinished_jobs: unfinished,
            faults: self.faults.as_ref().map(|f| f.counters).unwrap_or_default(),
            run_stats: Default::default(),
            audit_violations: Vec::new(),
            jobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::params::ClusterParams;
    use vr_workload::synth;
    use vrecon::{compare_reports, Simulation};

    fn small_cluster(n: usize) -> ClusterParams {
        let mut cluster = ClusterParams::cluster2();
        cluster.nodes.truncate(n);
        cluster
    }

    /// The scenario must actually overflow memory, or the network-RAM path
    /// never fires and the test proves nothing. Asserted below.
    fn blocking_pair(policy: PolicyKind, netram: bool) -> (SimConfig, Trace) {
        let trace = synth::blocking_scenario(6, Bytes::from_mb(128));
        let mut config = SimConfig::new(small_cluster(6), policy).with_seed(7);
        if netram {
            config = config.with_network_ram();
        }
        (config, trace)
    }

    #[test]
    fn oracle_accepts_and_matches_network_ram() {
        for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
            let (config, trace) = blocking_pair(policy, true);
            let engine = Simulation::new(config.clone()).run(&trace);
            let oracle = run_oracle(&config, &trace, OracleSkew::None)
                .unwrap_or_else(|e| panic!("{policy}: oracle rejected network RAM: {e}"));
            let diff = compare_reports(&engine, &oracle, crate::fuzz::DIFF_TOLERANCE);
            assert!(diff.is_match(), "{policy}: {}", diff.render());
            // The scenario pages: remote backing must have fired, or this
            // differential run never exercised the new code path.
            assert!(
                engine.summary.totals.page > 0.0,
                "{policy}: scenario never paged"
            );
        }
    }

    #[test]
    fn oracle_refuses_commit_aware_placement() {
        let (config, trace) = blocking_pair(PolicyKind::GLoadSharing, false);
        let config = config.with_placement(PlacementMode::CommitAware);
        let err = run_oracle(&config, &trace, OracleSkew::None).unwrap_err();
        assert!(err.contains("CommitAware"), "{err}");
    }

    #[test]
    fn oracle_refuses_staggered_load_info() {
        let (config, trace) = blocking_pair(PolicyKind::GLoadSharing, false);
        let config = config.with_load_info(LoadInfoMode::Staggered { groups: 2 });
        let err = run_oracle(&config, &trace, OracleSkew::None).unwrap_err();
        assert!(err.contains("Staggered"), "{err}");
    }

    #[test]
    fn network_ram_changes_the_oracle_outcome() {
        // The netram pass must not be a silent no-op in the oracle: the
        // same scenario with remote backing pages strictly less.
        let (local_cfg, trace) = blocking_pair(PolicyKind::GLoadSharing, false);
        let (netram_cfg, _) = blocking_pair(PolicyKind::GLoadSharing, true);
        let local = run_oracle(&local_cfg, &trace, OracleSkew::None).unwrap();
        let netram = run_oracle(&netram_cfg, &trace, OracleSkew::None).unwrap();
        assert!(
            netram.summary.totals.page < local.summary.totals.page,
            "netram page {:.1}s vs local {:.1}s",
            netram.summary.totals.page,
            local.summary.totals.page
        );
    }

    #[test]
    fn engine_matches_oracle_on_a_256_node_scale_scenario() {
        // The differential fuzzer mostly exercises tiny clusters; this
        // pins the O(log n) index, the sweep sets, and the incremental
        // refresh against the all-linear oracle at a size where a
        // bucket-boundary or staleness bug in any of them cannot hide.
        let spec = vr_workload::ScaleSpec::new(256, 1_000);
        let trace = spec.trace(&mut SimRng::seed_from(42));
        let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration).with_seed(7);
        let engine = Simulation::new(config.clone()).run(&trace);
        let oracle = run_oracle(&config, &trace, OracleSkew::None).unwrap();
        let diff = compare_reports(&engine, &oracle, crate::fuzz::DIFF_TOLERANCE);
        assert!(diff.is_match(), "{}", diff.render());
        assert!(engine.all_completed(), "scale scenario must drain");
    }

    #[test]
    fn thrashing_protection_matches_the_engine_bit_for_bit() {
        // Formerly a documented scope limit; now a differential obligation.
        for protection in [
            ThrashingProtection::ProtectLargest,
            ThrashingProtection::ProtectShortestRemaining,
        ] {
            let (mut config, trace) = blocking_pair(PolicyKind::GLoadSharing, false);
            for node in &mut config.cluster.nodes {
                node.protection = protection;
            }
            let engine = Simulation::new(config.clone()).run(&trace);
            let oracle = run_oracle(&config, &trace, OracleSkew::None)
                .unwrap_or_else(|e| panic!("{protection:?}: oracle rejected protection: {e}"));
            let diff = compare_reports(&engine, &oracle, crate::fuzz::DIFF_TOLERANCE);
            assert!(diff.is_match(), "{protection:?}: {}", diff.render());
            // The scenario must actually page, or the redistribution pass
            // was never exercised and the run proved nothing.
            assert!(
                engine.summary.totals.page > 0.0,
                "{protection:?}: scenario never paged"
            );
        }
    }

    #[test]
    fn protection_changes_the_oracle_outcome() {
        // The protection pass must not be a silent no-op in the oracle:
        // redistributing the largest job's stall changes who pages when.
        let (off_cfg, trace) = blocking_pair(PolicyKind::GLoadSharing, false);
        let mut on_cfg = off_cfg.clone();
        for node in &mut on_cfg.cluster.nodes {
            node.protection = ThrashingProtection::ProtectLargest;
        }
        let off = run_oracle(&off_cfg, &trace, OracleSkew::None).unwrap();
        let on = run_oracle(&on_cfg, &trace, OracleSkew::None).unwrap();
        assert_ne!(
            off.summary.avg_slowdown, on.summary.avg_slowdown,
            "protection never changed a single outcome"
        );
    }

    /// The blocking scenario with every other job declared malleable, so
    /// grow and shrink directives both have material to work on.
    fn malleable_trace() -> Trace {
        let mut trace = synth::blocking_scenario(6, Bytes::from_mb(128));
        for (i, job) in trace.jobs.iter_mut().enumerate() {
            if i % 2 == 0 {
                job.malleable = Some(vr_cluster::job::MalleableSpec {
                    min_width: 1,
                    max_width: 3,
                });
            }
        }
        trace
    }

    #[test]
    fn malleable_resizes_and_matches_the_engine() {
        let trace = malleable_trace();
        let config = SimConfig::new(small_cluster(6), PolicyKind::Malleable).with_seed(7);
        let engine = Simulation::new(config.clone()).run(&trace);
        let oracle = run_oracle(&config, &trace, OracleSkew::None).unwrap();
        let diff = compare_reports(&engine, &oracle, crate::fuzz::DIFF_TOLERANCE);
        assert!(diff.is_match(), "{}", diff.render());
        // The restated directive logic must actually fire, or the
        // differential run never left the classic path.
        assert!(
            engine.counters.grows + engine.counters.shrinks > 0,
            "no resize directive ever fired"
        );
    }

    #[test]
    fn malleable_respects_a_custom_step_differentially() {
        let trace = malleable_trace();
        let config = SimConfig::new(small_cluster(6), PolicyKind::Malleable)
            .with_seed(7)
            .with_policy_params(vrecon::plugin::ParamBag::new().with("max_step", 2));
        let engine = Simulation::new(config.clone()).run(&trace);
        let oracle = run_oracle(&config, &trace, OracleSkew::None).unwrap();
        let diff = compare_reports(&engine, &oracle, crate::fuzz::DIFF_TOLERANCE);
        assert!(diff.is_match(), "{}", diff.render());
    }

    #[test]
    fn fractional_oversubscription_matches_the_engine() {
        // Default oversub (2.0) and a fractional custom value, both
        // against the restated slot-cap arithmetic.
        for params in [
            vrecon::plugin::ParamBag::new(),
            vrecon::plugin::ParamBag::new().with("oversub", 1.5),
        ] {
            let (config, trace) = blocking_pair(PolicyKind::Fractional, false);
            let config = config.with_policy_params(params.clone());
            let engine = Simulation::new(config.clone()).run(&trace);
            let oracle = run_oracle(&config, &trace, OracleSkew::None).unwrap();
            let diff = compare_reports(&engine, &oracle, crate::fuzz::DIFF_TOLERANCE);
            assert!(
                diff.is_match(),
                "oversub {:?}: {}",
                params.render(),
                diff.render()
            );
        }
    }
}
