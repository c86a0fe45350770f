//! The trace-driven cluster simulation driver.
//!
//! [`Simulation`] wires everything together: it replays a
//! [`Trace`] against a cluster of
//! [`Workstation`]s under a
//! [`PolicyKind`](crate::PolicyKind), implementing the framework of
//! §2.1:
//!
//! ```text
//! While the load sharing system is on
//!     if job submissions or/and migrations are allowed
//!         general_dynamic_load_sharing();
//!     else
//!         start reconfiguration:
//!             if a reserved workstation has enough available resources
//!                 node_ID = reserved_ID;
//!             else
//!                 node_ID = reserve_a_workstation();
//!             job_ID = find_most_memory_intensive_job();
//!             migrate_job(job_ID, node_ID);
//! ```
//!
//! Mechanics:
//!
//! * **Arrivals** fire as events at each job's submission instant; the job is
//!   assigned a uniformly random home workstation ("the jobs in each trace
//!   were randomly submitted to 32 workstations") and the policy places it.
//! * **Blocked submissions** wait in a cluster-level pending queue; their
//!   wait is queuing time. They are retried on every completion and on a
//!   periodic tick.
//! * **Remote submissions and migrations** put the job "in transit" for the
//!   network cost (`r`, respectively `r + D/B`); transit time is migration
//!   time.
//! * **The load index** refreshes on the exchange period (and after
//!   completions, modelling the freed node's announcement); placement
//!   decisions read the index, not live node state, and stale decisions can
//!   bounce.
//! * **Overload scan**: each exchange tick, nodes faulting beyond the
//!   overload threshold trigger preemptive migration of their most
//!   memory-intensive job to a qualified destination; when no destination
//!   qualifies, the blocking problem is detected and (under
//!   V-Reconfiguration) the reconfiguration routine runs.

use std::collections::{BTreeMap, VecDeque};

use vr_cluster::job::{JobId, JobSpec, JobState, RunningJob};
use vr_cluster::loadinfo::{LoadIndex, NodeLoad};
use vr_cluster::node::{NodeId, Workstation};
use vr_cluster::units::Bytes;
use vr_faults::FaultInjector;
use vr_metrics::sampler::ClusterGauges;
use vr_metrics::summary::WorkloadSummary;
use vr_simcore::bitset::BitSet;
use vr_simcore::engine::{Engine, RunStats, Scheduler, World};
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vr_workload::trace::Trace;

use crate::config::{PlacementMode, ReservingEnd, SimConfig, PENDING_RETRY_PERIOD, SAMPLE_PERIOD};
use crate::events::{EventLog, SchedulerEventKind};
use crate::plugin::build_policy;
#[cfg(test)]
use crate::policy::PolicyKind;
use crate::policy::{load_sharing_place, Placement, Policy, ResizeDirective};
use crate::report::{RunReport, SchedulerCounters};
use crate::reservation::{ReservationManager, ReservationPhase};

/// Events driving the cluster world.
#[derive(Debug)]
pub(crate) enum Event {
    /// A job reaches the cluster.
    Arrival(Box<JobSpec>),
    /// A workstation predicted a completion or phase boundary.
    NodeWake { node: NodeId, epoch: u64 },
    /// Periodic global load-information exchange + overload scan.
    Exchange,
    /// Periodic gauge sampling.
    Sample,
    /// Periodic retry of the pending queue.
    PendingRetry,
    /// A remote submission or migration arrives at its destination.
    TransitArrive { job: JobId },
    /// Fault injection: a workstation crashes.
    NodeCrash { node: NodeId },
    /// Fault injection: a crashed workstation comes back up.
    NodeRestart { node: NodeId },
    /// Fault injection: a stalled reservation release finally lands.
    ReservationUnstall { node: NodeId },
}

/// How many times one job may be suspended before it is pinned resident.
const MAX_SUSPENSIONS_PER_JOB: u32 = 5;

/// A job waiting in the cluster pending queue.
#[derive(Debug)]
pub(crate) struct PendingJob {
    job: RunningJob,
    since: SimTime,
    home: NodeId,
}

/// A job on the wire.
#[derive(Debug)]
pub(crate) struct Transit {
    pub(crate) job: RunningJob,
    pub(crate) dst: NodeId,
    /// `true` if this is a special-service migration into a reserved node.
    to_reserved: bool,
    /// Delivery attempts that failed in transit (fault injection).
    attempts: u32,
}

/// A job swapped out by the Suspend-Largest strawman.
#[derive(Debug)]
pub(crate) struct SuspendedJob {
    job: RunningJob,
    since: SimTime,
}

/// A configured, reusable simulation. Each [`Simulation::run`] call replays
/// one trace from scratch and returns a [`RunReport`].
///
/// ```no_run
/// use vrecon::config::SimConfig;
/// use vrecon::policy::PolicyKind;
/// use vrecon::sim::Simulation;
/// use vr_cluster::params::ClusterParams;
/// use vr_simcore::rng::SimRng;
/// use vr_workload::trace::{spec_trace, TraceLevel};
///
/// let trace = spec_trace(TraceLevel::Normal, &mut SimRng::seed_from(42));
/// let config = SimConfig::new(ClusterParams::cluster1(), PolicyKind::VReconfiguration);
/// let report = Simulation::new(config).run(&trace);
/// println!("avg slowdown {:.2}", report.avg_slowdown());
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
}

impl Simulation {
    /// Creates a simulation from a configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulation { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` and reports the measurements.
    ///
    /// # Panics
    ///
    /// Panics if the trace fails [`Trace::validate`] or the configuration
    /// fails [`SimConfig::validate`].
    pub fn run(&self, trace: &Trace) -> RunReport {
        self.config
            .validate()
            // vr-lint::allow(panic-in-lib, reason = "documented # Panics contract: run() rejects invalid configs up front")
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        trace
            .validate()
            // vr-lint::allow(panic-in-lib, reason = "documented # Panics contract: run() rejects invalid traces up front")
            .unwrap_or_else(|e| panic!("invalid trace {}: {e}", trace.name));
        let mut world = ClusterWorld::new(&self.config, trace.len());
        let mut engine = Engine::new();
        {
            let mut sched = engine.scheduler();
            for job in &trace.jobs {
                sched.schedule_at(job.submit, Event::Arrival(Box::new(job.clone())));
            }
            sched.schedule_at(SimTime::ZERO, Event::Exchange);
            sched.schedule_at(SimTime::ZERO, Event::Sample);
            sched.schedule_in(PENDING_RETRY_PERIOD, Event::PendingRetry);
            if let Some(injector) = &world.faults {
                for crash in injector.crash_schedule() {
                    let node = NodeId(crash.node as u32);
                    sched.schedule_at(crash.at, Event::NodeCrash { node });
                    if let Some(delay) = crash.restart_after {
                        sched.schedule_at(crash.at + delay, Event::NodeRestart { node });
                    }
                }
            }
        }
        let horizon = SimTime::ZERO + self.config.max_sim_time;
        let mut auditor = self
            .config
            .audit
            .then(|| crate::audit::InvariantAuditor::new(&self.config));
        // The auditor, when on, sees the world immutably after every event,
        // so it cannot perturb the run.
        let stats = engine.run_until_with(&mut world, horizon, &mut auditor.as_mut());
        let violations = auditor
            .map(|mut a| {
                a.finish(&world, engine.now());
                a.into_violations()
            })
            .unwrap_or_default();
        let mut report = world.into_report(trace, &self.config, engine.now());
        report.run_stats = stats;
        report.audit_violations = violations;
        report
    }
}

/// The mutable simulation state (the [`World`] the engine drives).
/// `pub(crate)` (with visible fields) so the invariant auditor in
/// [`crate::audit`] can inspect the world after every event.
pub(crate) struct ClusterWorld {
    /// The policy as a trait object, built from the registry. All
    /// capability queries and placement calls dispatch through this; the
    /// enum tag lives on in `config.policy` for the report.
    plugin: Box<dyn Policy>,
    pub(crate) config: SimConfig,
    pub(crate) nodes: Vec<Workstation>,
    index: LoadIndex,
    rng: SimRng,
    pub(crate) pending: VecDeque<PendingJob>,
    /// Jobs on the wire (remote submissions and migrations), keyed by job
    /// id so per-event membership, removal, and retry lookups stay
    /// O(log transits) however many transfers are in flight; the per-node
    /// aggregates in `inbound` answer the hot-path demand queries without
    /// scanning it at all.
    pub(crate) in_transit: BTreeMap<JobId, Transit>,
    /// Per-node inbound aggregates (total demand on the wire, transfer
    /// count), maintained by delta in `transit_insert` / `transit_remove`
    /// so destination filters are O(1) instead of O(transits).
    inbound: Vec<InboundLoad>,
    pub(crate) suspended: Vec<SuspendedJob>,
    pub(crate) completed: Vec<RunningJob>,
    gauges: ClusterGauges,
    counters: SchedulerCounters,
    pub(crate) reservations: ReservationManager,
    total_jobs: usize,
    pub(crate) arrived: usize,
    /// Jobs that have entered the pending queue at least once. Slab indexed
    /// by job id (dense 0..total_jobs, guaranteed by `Trace::validate`).
    ever_blocked: Vec<bool>,
    /// Times each job has been suspended (Suspend-Largest only), slab
    /// indexed by job id. A job suspended [`MAX_SUSPENSIONS_PER_JOB`] times
    /// is pinned: repeatedly swapping the same peak-sized job in and out is
    /// a livelock, not a remedy.
    suspend_counts: Vec<u32>,
    pub(crate) log: EventLog,
    /// Set once all jobs have completed; periodic events stop rescheduling.
    done: bool,
    finished_at: SimTime,
    /// Fault injector, when the config carries a plan.
    pub(crate) faults: Option<FaultInjector>,
    /// Nodes whose reservation release is stalled by fault injection: the
    /// manager has already dropped the reservation but the node's flag
    /// stays up until the matching [`Event::ReservationUnstall`] fires.
    /// Slab indexed by node id; read through [`ClusterWorld::is_stalled`].
    stalled: Vec<bool>,
    /// Nodes currently in the detected blocking state. Blocking detection
    /// is *edge-triggered*: the counter and log record fire when a node
    /// enters the set, and it leaves as soon as the overload scan finds it
    /// no longer blocked — so `blocking_detections` counts blocking
    /// episodes (state changes), not scan ticks. Mutated only inside
    /// [`ClusterWorld::overload_scan`], which revisits flagged nodes
    /// through [`BitSet::union`] with the active set.
    blocked_set: BitSet,
    /// Nodes that currently host work (resident jobs or an undrained
    /// completion outbox). Everything outside this set is settled: its load
    /// cannot change until the scheduler touches it again (advancing an
    /// idle workstation is a no-op), so the periodic
    /// advance/collect/refresh sweeps walk this set instead of every
    /// workstation — the O(active) hot path that makes cluster size a free
    /// parameter. Lazily pruned after each index refresh.
    ///
    /// All four sweep sets (`active`, `ripe`, `dirty`, `blocked_set`) are
    /// dense [`BitSet`]s sized to the cluster once, in
    /// [`ClusterWorld::new`]: O(1) insert, remove and membership, and
    /// ascending iteration, so every sweep visits nodes in node order.
    active: BitSet,
    /// Nodes whose completion outbox is non-empty: the only workstations
    /// [`ClusterWorld::collect_completions`] must visit. Without this
    /// mirror every wake-up scans the whole active set — O(active) per
    /// event, which at 60 % utilization is O(cluster) and dominates the
    /// wall clock beyond ~1k nodes.
    ripe: BitSet,
    /// Nodes whose observable state may have changed since the last index
    /// refresh (advances, admissions and removals, flag flips, stale
    /// entries awaiting recapture). Drained into the next index refresh.
    /// A tick advance that proves the node's load unchanged adds nothing.
    dirty: BitSet,
}

/// Aggregate load already on the wire toward one node.
#[derive(Debug, Clone, Copy)]
struct InboundLoad {
    demand: Bytes,
    count: u32,
}

/// The two largest committed-idle-memory values among eligible migration
/// destinations (see [`ClusterWorld::dest_bound`]). `second` covers the
/// case where the best node is the overloaded source itself.
#[derive(Debug, Clone, Copy)]
struct DestBound {
    best: Option<(NodeId, Bytes)>,
    second: Bytes,
}

impl ClusterWorld {
    fn new(config: &SimConfig, total_jobs: usize) -> Self {
        let plugin = build_policy(config.policy, &config.policy_params)
            // vr-lint::allow(panic-in-lib, reason = "SimConfig::validate() rejects unbuildable parameter bags before a world is ever constructed")
            .expect("policy parameters were validated by SimConfig::validate");
        let mut nodes = config.cluster.build_nodes();
        for node in &mut nodes {
            let cap = plugin.slot_cap(node.params().cpu.slots);
            node.set_slot_cap(cap);
        }
        let node_count = nodes.len();
        let mut world = ClusterWorld {
            plugin,
            config: config.clone(),
            nodes,
            index: LoadIndex::new(),
            // vr-analyze::rng-authority(reason = "the simulation root mints the master stream from the user-supplied config seed")
            rng: SimRng::seed_from(config.seed),
            pending: VecDeque::new(),
            in_transit: BTreeMap::new(),
            inbound: vec![
                InboundLoad {
                    demand: Bytes::ZERO,
                    count: 0
                };
                node_count
            ],
            suspended: Vec::new(),
            completed: Vec::new(),
            gauges: ClusterGauges::new(),
            counters: SchedulerCounters::default(),
            reservations: ReservationManager::new(config.reservation),
            total_jobs,
            arrived: 0,
            ever_blocked: vec![false; total_jobs],
            suspend_counts: vec![0; total_jobs],
            log: EventLog::new(),
            done: total_jobs == 0,
            finished_at: SimTime::ZERO,
            faults: config
                .fault_plan
                .clone()
                .map(|plan| FaultInjector::new(plan, config.seed)),
            stalled: vec![false; node_count],
            blocked_set: BitSet::new(node_count),
            active: BitSet::new(node_count),
            ripe: BitSet::new(node_count),
            dirty: BitSet::new(node_count),
        };
        world.index.refresh(world.nodes.iter());
        world
    }

    fn node(&mut self, id: NodeId) -> &mut Workstation {
        &mut self.nodes[id.0 as usize]
    }

    /// Puts a transfer on the wire, updating the destination's inbound
    /// aggregates by delta. A job's working set is frozen while in transit
    /// (progress only advances while resident), so the amount subtracted by
    /// [`ClusterWorld::transit_remove`] equals the amount added here.
    fn transit_insert(&mut self, transit: Transit) {
        let slot = &mut self.inbound[transit.dst.0 as usize];
        slot.demand += transit.job.current_working_set();
        slot.count += 1;
        let prev = self.in_transit.insert(transit.job.id(), transit);
        debug_assert!(prev.is_none(), "job inserted while already in transit");
    }

    /// Takes a transfer off the wire, reversing its inbound aggregates.
    fn transit_remove(&mut self, job: JobId) -> Option<Transit> {
        let transit = self.in_transit.remove(&job)?;
        let slot = &mut self.inbound[transit.dst.0 as usize];
        slot.demand = slot
            .demand
            .saturating_sub(transit.job.current_working_set());
        slot.count -= 1;
        Some(transit)
    }

    /// `true` if `job` is currently on the wire.
    fn transit_contains(&self, job: JobId) -> bool {
        self.in_transit.contains_key(&job)
    }

    /// `true` if `node`'s reservation release is stalled by fault injection.
    pub(crate) fn is_stalled(&self, node: NodeId) -> bool {
        self.stalled[node.0 as usize]
    }

    /// Records that `node`'s observable load state changed since the last
    /// index refresh: it must be recaptured at the next refresh, and if it
    /// hosts work it joins the active sweep set. Every workstation mutation
    /// (admit, remove, crash, restart, reserve-flag flip) must come through
    /// here — the sweep sets are what keep the incremental index equal to a
    /// full rebuild.
    fn touch(&mut self, node: NodeId) {
        let i = node.0 as usize;
        let has_completions = !self.nodes[i].pending_completions().is_empty();
        if self.nodes[i].active_jobs() > 0 || has_completions {
            self.active.insert(node.0);
        }
        if has_completions {
            self.ripe.insert(node.0);
        }
        self.dirty.insert(node.0);
    }

    /// Records that `node` was advanced in simulated time outside
    /// [`ClusterWorld::touch`]: its observable load may have drifted (phase
    /// ramps, completions moving to the outbox), so it must be recaptured
    /// at the next index refresh, and if the advance produced completions
    /// it joins the completion sweep. Must follow every `advance_to` that
    /// is not already routed through `touch` — the index refresh and
    /// [`ClusterWorld::collect_completions`] only visit noted nodes.
    fn note_advanced(&mut self, node: NodeId) {
        self.dirty.insert(node.0);
        if !self.nodes[node.0 as usize].pending_completions().is_empty() {
            self.ripe.insert(node.0);
        }
    }

    /// Advances every node that hosts work to `now`. Settled nodes need no
    /// advance: with no resident jobs there is nothing to integrate, so
    /// their counters and demand are unchanged by construction.
    ///
    /// A node already at `now` is skipped outright. Whatever advanced it
    /// there — an earlier sweep at this instant (the Sample tick follows
    /// the Exchange at every whole second), a wake-up, or a mutation — has
    /// already put it in `dirty` (and in `ripe` if it completed work), so
    /// re-inserting it would change nothing but the cost.
    ///
    /// A node whose advance reports its load unchanged (the one-segment
    /// path: no completion, no phase crossed) stays out of both sets: its
    /// index entry is already the one a recapture would produce.
    fn advance_active(&mut self, now: SimTime) {
        for i in &self.active {
            let node = &mut self.nodes[i as usize];
            if node.last_update() == now {
                continue;
            }
            if !node.advance_to(now) {
                continue; // the one-segment path: nothing to collect or recapture
            }
            if !node.pending_completions().is_empty() {
                self.ripe.insert(i);
            }
            // The advance may have moved the node's load; queue it for
            // recapture. Unchanged nodes cost one capture-and-compare at
            // the next refresh, nothing more.
            self.dirty.insert(i);
        }
    }

    /// The incremental refresh core: recaptures `dirty \ stale`, re-marks
    /// held-back nodes dirty so they catch up at the next refresh (exactly
    /// when a full rebuild would have recaptured them), and prunes settled
    /// visited nodes from the active sweep set.
    ///
    /// Only dirty nodes need visiting: every mutation routes through
    /// [`ClusterWorld::touch`] and every simulated-time advance through
    /// [`ClusterWorld::note_advanced`] or
    /// [`ClusterWorld::advance_active`], all of which dirty the node unless
    /// the advance proved its load unchanged — so a node outside the dirty
    /// set has exactly the load it had when its index entry was captured,
    /// and a full
    /// `index.refresh(self.nodes.iter())` would recapture the
    /// identical entry. That makes the result byte-identical to a full
    /// rebuild at O(changed · log n) cost, per refresh, instead of
    /// O(cluster): the property the sweep-set cross-check below asserts in
    /// debug builds.
    fn refresh_index_incremental(&mut self, is_stale: impl Fn(NodeId) -> bool) {
        let mut targets: Vec<NodeId> = Vec::new();
        let mut kept: Vec<u32> = Vec::new();
        for i in &self.dirty {
            let id = NodeId(i);
            if is_stale(id) {
                kept.push(i);
            } else {
                targets.push(id);
            }
        }
        self.index
            .refresh_targets(&self.nodes, targets.iter().copied());
        self.dirty.clear();
        // A node can only leave the hosting-work state through an advance
        // or a mutation, both of which dirty it — so pruning the visited
        // nodes keeps the active set exact without walking it.
        for id in targets {
            let n = &self.nodes[id.0 as usize];
            if n.active_jobs() == 0 && n.pending_completions().is_empty() {
                self.active.remove(id.0);
            }
        }
        self.dirty.extend(kept);
        self.update_network_ram();
        #[cfg(debug_assertions)]
        if self.dirty.is_empty() {
            self.debug_check_sweep_sets();
        }
    }

    /// Debug cross-check (runs under `cargo test`; release builds skip it):
    /// the incremental refresh must land on exactly the state a
    /// from-scratch rebuild produces, and no node outside the active set
    /// may host work.
    #[cfg(debug_assertions)]
    fn debug_check_sweep_sets(&self) {
        let mut full = LoadIndex::new();
        full.refresh(self.nodes.iter());
        debug_assert_eq!(
            self.index, full,
            "incremental index diverged from a full rebuild"
        );
        for (i, n) in self.nodes.iter().enumerate() {
            debug_assert!(
                self.active.contains(i as u32)
                    || (n.active_jobs() == 0 && n.pending_completions().is_empty()),
                "node {i} hosts work but is not in the active set"
            );
        }
    }

    /// Advances active nodes to `now` and refreshes the load index.
    fn refresh_index(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        self.advance_active(now);
        self.collect_completions(now, sched);
        self.refresh_index_incremental(|_| false);
    }

    /// The periodic exchange's variant of [`ClusterWorld::refresh_index`]:
    /// under a load-information-loss fault each node's report may be
    /// dropped, and a node whose report was lost keeps its previous (stale)
    /// entry in the index until it next reports.
    fn refresh_index_lossy(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        self.advance_active(now);
        self.collect_completions(now, sched);
        // The per-node loss draws walk every node whenever the fault is
        // armed: the draw stream is part of the deterministic contract and
        // must not depend on which nodes happen to be active.
        let lost: Vec<NodeId> = match self.faults.as_mut() {
            Some(injector) if injector.plan().load_info_loss_prob > 0.0 => self
                .nodes
                .iter()
                .map(|n| n.id())
                .filter(|_| injector.load_report_lost())
                .collect(),
            _ => Vec::new(),
        };
        self.refresh_index_incremental(|id| lost.binary_search(&id).is_ok());
    }

    /// Clears a node's reservation flag after the manager dropped its
    /// reservation, logging the release. Under a reservation-release-stall
    /// fault the flag instead stays up (and the log entry is deferred)
    /// until the scheduled [`Event::ReservationUnstall`] lands.
    ///
    /// Every release path must come through here — a flag cleared without a
    /// log entry breaks the began/released pairing in the event log.
    fn release_reserved_flag(
        &mut self,
        node_id: NodeId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let stall = self
            .faults
            .as_ref()
            .map(|f| f.plan().reservation_release_stall)
            .unwrap_or(SimSpan::ZERO);
        if stall.is_zero() {
            self.node(node_id).set_reserved(false);
            self.touch(node_id);
            self.log.record(
                now,
                SchedulerEventKind::ReservationReleased,
                None,
                Some(node_id),
            );
        } else if !std::mem::replace(&mut self.stalled[node_id.0 as usize], true) {
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.stalled_releases += 1;
            }
            sched.schedule_in(stall, Event::ReservationUnstall { node: node_id });
        }
    }

    /// Flips each node's fault-stall scale depending on whether the
    /// cluster's accumulated idle memory can back its overflow remotely
    /// (the network-RAM extension; no-op when disabled).
    fn update_network_ram(&mut self) {
        let Some(netram) = self.config.network_ram else {
            return;
        };
        let accumulated: Bytes = self.nodes.iter().map(|n| n.idle_memory()).sum();
        for node in &mut self.nodes {
            let overflow = node.memory_usage().overflow();
            let remote_backed = !overflow.is_zero() && accumulated >= overflow;
            let scale = if remote_backed {
                netram.stall_scale(node.params().memory.fault_service)
            } else {
                1.0
            };
            node.set_stall_scale(scale);
        }
    }

    /// Drains completion outboxes, updating reservations and retrying
    /// pending jobs if capacity freed. Only active nodes can hold an
    /// undrained completion (a job must have been admitted — which inserts
    /// its node into the active set — before it can finish), so the walk
    /// covers the active set in ascending node order, matching the old
    /// full-cluster sweep.
    fn collect_completions(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        debug_assert!(
            self.active.iter().all(|i| self.ripe.contains(i)
                || self.nodes[i as usize].pending_completions().is_empty()),
            "active node with uncollected completions missing from the ripe set"
        );
        let mut any = false;
        // Ascending node order, same as the old scan over the whole active
        // set — only the nodes with a non-empty outbox are visited.
        let candidates: Vec<u32> = self.ripe.iter().collect();
        self.ripe.clear();
        for i in candidates {
            let i = i as usize;
            let node_id = self.nodes[i].id();
            let finished = self.nodes[i].take_completed();
            if finished.is_empty() {
                continue;
            }
            any = true;
            for job in finished {
                self.log.record(
                    now,
                    SchedulerEventKind::Completed,
                    Some(job.id()),
                    Some(node_id),
                );
                if self.reservations.note_completion(node_id, job.id()) {
                    // Special service complete: back to normal load sharing.
                    self.release_reserved_flag(node_id, now, sched);
                }
                self.completed.push(job);
            }
            self.schedule_wake(node_id, now, sched);
        }
        if any {
            // A completing node effectively announces its freed capacity.
            self.refresh_index_incremental(|_| false);
            self.try_place_pending(now, sched);
            self.check_reservations(now, sched);
            self.check_done(now);
        }
    }

    /// Schedules (or re-schedules) a node's next wake-up, tagged with its
    /// current epoch so stale wakes are discarded.
    fn schedule_wake(&mut self, node_id: NodeId, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let node = self.node(node_id);
        debug_assert!(node.last_update() == now, "wake scheduled on stale node");
        if let Some(delay) = node.next_event_in() {
            // A sub-microsecond prediction would round to a zero-delay event
            // that re-fires at the same instant forever; clamp to one tick.
            let delay = delay.max(SimSpan::from_micros(1));
            // A prediction past the last representable instant (the span
            // saturates at `SimSpan::MAX`) can never fire before any
            // horizon, so it is not scheduled at all.
            if now.checked_add(delay).is_none() {
                return;
            }
            let epoch = node.epoch();
            sched.schedule_in(
                delay,
                Event::NodeWake {
                    node: node_id,
                    epoch,
                },
            );
        }
    }

    /// Routes a placement decision through the configured
    /// [`PlacementMode`](crate::config::PlacementMode).
    ///
    /// `Optimistic` defers to the policy verbatim — the paper's behavior,
    /// where decisions are made against the last load snapshot and races
    /// are resolved by admission rejection plus re-queue. `CommitAware`
    /// runs G-Loadsharing's placement with the committed-capacity check
    /// overload migration already uses
    /// ([`ClusterWorld::has_committed_room`]), so a burst of decisions
    /// between index refreshes cannot all pile onto the same least-loaded
    /// workstation. Only the GLS-family policies have memory-aware
    /// placement to adjust; the rest fall through to the policy unchanged.
    fn place_decision(&mut self, job: &RunningJob, home: NodeId) -> Placement {
        if self.config.placement == PlacementMode::CommitAware
            && self.plugin.commit_aware_placement()
        {
            let demand = job.current_working_set();
            return load_sharing_place(demand, home, &self.index, |e| {
                self.has_committed_room(e, demand)
            });
        }
        self.plugin.place(job, home, &self.index, &mut self.rng)
    }

    /// Executes a placement decision for `job`.
    fn place_job(
        &mut self,
        mut job: RunningJob,
        home: NodeId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        first_attempt: bool,
    ) {
        match self.place_decision(&job, home) {
            Placement::Local(node_id) => {
                let node = self.node(node_id);
                let job_id = job.id();
                match node.try_admit(job, now) {
                    Ok(()) => {
                        self.touch(node_id);
                        if first_attempt {
                            self.counters.local_submissions += 1;
                        }
                        self.log.record(
                            now,
                            SchedulerEventKind::Placed,
                            Some(job_id),
                            Some(node_id),
                        );
                        self.schedule_wake(node_id, now, sched);
                    }
                    Err(rejected) => {
                        // A failed admission still advanced the node.
                        self.touch(node_id);
                        self.counters.stale_rejections += 1;
                        self.enqueue_pending(rejected.job, home, now);
                    }
                }
            }
            Placement::Remote(node_id) => {
                let cost = self.config.cluster.network.remote_submit_cost;
                job.breakdown.migration += cost.as_secs_f64();
                job.remote_submitted = true;
                job.state = JobState::Migrating;
                self.counters.remote_submissions += 1;
                let id = job.id();
                self.log.record(
                    now,
                    SchedulerEventKind::TransitStarted,
                    Some(id),
                    Some(node_id),
                );
                self.transit_insert(Transit {
                    job,
                    dst: node_id,
                    to_reserved: false,
                    attempts: 0,
                });
                sched.schedule_in(cost, Event::TransitArrive { job: id });
            }
            Placement::Blocked => {
                self.enqueue_pending(job, home, now);
            }
        }
    }

    fn enqueue_pending(&mut self, mut job: RunningJob, home: NodeId, now: SimTime) {
        job.state = JobState::Pending;
        self.log
            .record(now, SchedulerEventKind::Blocked, Some(job.id()), Some(home));
        if !std::mem::replace(&mut self.ever_blocked[job.id().0 as usize], true) {
            self.counters.blocked_submissions += 1;
        }
        self.pending.push_back(PendingJob {
            job,
            since: now,
            home,
        });
    }

    /// One pass over the pending queue, placing whatever the configured
    /// discipline allows. Under FIFO the first still-blocked job stops the
    /// pass (head-of-line blocking — the paper's "job submissions ... will
    /// be blocked"); under backfill every queued job is attempted.
    fn try_place_pending(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let fifo = self.config.pending_discipline == crate::config::PendingDiscipline::Fifo;
        let mut waiting = std::mem::take(&mut self.pending);
        while let Some(mut entry) = waiting.pop_front() {
            let decision = self.place_decision(&entry.job, entry.home);
            if matches!(decision, Placement::Blocked) {
                if fifo {
                    // Head-of-line blocked: final order is any in-pass
                    // admission rejections (usually none), the blocked
                    // head, then the untouched tail. Splicing the few
                    // rejections onto the tail keeps the exit O(placed)
                    // instead of O(backlog) — re-queueing thousands of
                    // waiting entries on every completion is what used to
                    // dominate large-cluster wall clock.
                    waiting.push_front(entry);
                    while let Some(rejected) = self.pending.pop_back() {
                        waiting.push_front(rejected);
                    }
                    self.pending = waiting;
                    return;
                }
                self.pending.push_back(entry);
            } else {
                // A held job accrues queuing time while blocked.
                entry.job.breakdown.queue += now.saturating_since(entry.since).as_secs_f64();
                self.place_job(entry.job, entry.home, now, sched, false);
            }
        }
    }

    /// The overload scan of the exchange tick: fault-driven migrations and
    /// blocking detection (§2.1).
    ///
    /// Blocking is reported *edge-triggered*: the counter and the event-log
    /// record fire when a node newly enters the blocked state, not on every
    /// scan tick it stays there — detection work recorded is proportional
    /// to state changes, not events. The remedies (reconfigure / suspend)
    /// still run on every tick while the state persists, so scheduling
    /// behaviour is unchanged.
    fn overload_scan(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        if !self.plugin.migrates_on_overload() {
            return;
        }
        // Visit set: nodes that could be over threshold (only nodes hosting
        // work can have overflow) plus currently flagged nodes, which must
        // be revisited so their edge-triggered bits fall exactly when the
        // old full walk would have cleared them. For every other node the
        // per-node loop body is a provable no-op (it would only write
        // `false` over an already-false bit), so the scan skips it — on an
        // idle or lightly loaded large cluster the whole scan is O(active)
        // instead of O(nodes). Ascending node order, like the old walk.
        let mut visit: Vec<usize> = Vec::new();
        for i in self.active.union(&self.blocked_set) {
            let i = i as usize;
            if self.blocked_set.contains(i as u32) {
                visit.push(i);
                continue;
            }
            if self.nodes[i].is_reserved() || !self.nodes[i].is_up() {
                continue;
            }
            let usage = self.nodes[i].memory_usage();
            if usage.overflow() > self.config.overload_bytes(usage.user) {
                visit.push(i);
            }
        }
        if visit.is_empty() {
            return;
        }
        // Largest and second-largest committed idle memory over nodes that
        // could receive a migration. A destination for `src` exists iff the
        // best such value *excluding src* covers the victim's working set,
        // so most scan ticks answer "still blocked" in O(1) instead of
        // walking the index per overloaded node. The bound is rebuilt after
        // any action that changes committed capacity (migration started,
        // reservation begun, job suspended) — all rare.
        let mut bound = self.dest_bound();
        for i in visit {
            let src = self.nodes[i].id();
            if self.nodes[i].is_reserved() || !self.nodes[i].is_up() {
                self.blocked_set.remove(i as u32);
                continue;
            }
            let usage = self.nodes[i].memory_usage();
            let threshold = self.config.overload_bytes(usage.user);
            if usage.overflow() <= threshold {
                self.blocked_set.remove(i as u32);
                continue;
            }
            // The node is seriously faulting; try to migrate its most
            // memory-intensive job away.
            let Some(victim) = self.nodes[i].most_memory_intensive_job() else {
                self.blocked_set.remove(i as u32);
                continue;
            };
            let victim_id = victim.id();
            let victim_ws = victim.current_working_set();
            let feasible = match bound.best {
                Some((node, ci)) if node != src => ci >= victim_ws,
                Some(_) => bound.second >= victim_ws,
                None => false,
            };
            // `feasible` is exact: it is the same predicate the walk below
            // applies, collapsed to its maximum — false means the walk
            // would find nothing, true means it must find something.
            let dest = if feasible {
                // The committed walk of commit-aware placement.
                self.index
                    .best_destination_where(victim_ws, Some(src), |e| {
                        self.has_committed_room(e, victim_ws)
                    })
                    .map(|e| e.node)
            } else {
                None
            };
            match dest {
                Some(dst) => {
                    self.blocked_set.remove(i as u32);
                    self.start_migration(src, victim_id, dst, false, now, sched);
                    self.counters.overload_migrations += 1;
                    bound = self.dest_bound();
                }
                None => {
                    // "The scheduler could not find a qualified destination
                    // to migrate jobs from this workstation": the job
                    // blocking problem.
                    if self.blocked_set.insert(i as u32) {
                        self.counters.blocking_detections += 1;
                        self.log.record(
                            now,
                            SchedulerEventKind::BlockingDetected,
                            Some(victim_id),
                            Some(src),
                        );
                    }
                    if self.plugin.reconfigures() {
                        if self.reconfigure(src, victim_id, victim_ws, now, sched) {
                            bound = self.dest_bound();
                        }
                    } else if self.plugin.suspends_on_blocking()
                        && self.suspend_counts[victim_id.0 as usize] < MAX_SUSPENSIONS_PER_JOB
                    {
                        self.suspend_job(src, victim_id, now, sched);
                        bound = self.dest_bound();
                    }
                }
            }
        }
    }

    /// The top two committed-idle-memory values over nodes eligible as
    /// migration destinations (index says accepting, live state has an
    /// uncommitted slot) — the O(1) feasibility bound for
    /// [`ClusterWorld::overload_scan`].
    fn dest_bound(&self) -> DestBound {
        let mut best: Option<(NodeId, Bytes)> = None;
        let mut second = Bytes::ZERO;
        for e in self.index.iter() {
            if !e.accepts_submissions() || !self.has_uncommitted_slot(e.node) {
                continue;
            }
            let ci = e.idle_memory.saturating_sub(self.in_transit_demand(e.node));
            match best {
                Some((_, b)) if ci > b => {
                    second = b;
                    best = Some((e.node, ci));
                }
                Some(_) => second = second.max(ci),
                None => best = Some((e.node, ci)),
            }
        }
        DestBound { best, second }
    }

    /// Malleable resize pass, run each load-exchange tick after the
    /// overload scan. The trigger is the cluster-wide *pressure* flag
    /// (pending queue non-empty — recomputable by the differential
    /// oracle, unlike the edge-triggered per-node blocking bits): under
    /// pressure the policy may shrink one over-wide job per full node to
    /// free a slot; otherwise it may grow one under-wide job per node
    /// with free slots. Nodes are visited in ascending id order and all
    /// are already advanced to `now` by the index refresh at the top of
    /// the Exchange handler. Only nodes hosting jobs can be resized, and
    /// every such node is in the active sweep set, so the walk covers that
    /// set rather than the whole cluster; each visit mutates only its own
    /// node, so the visit order and outcome match a full walk.
    fn resize_scan(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        if !self.plugin.resizes() {
            return;
        }
        let pressure = !self.pending.is_empty();
        let mut any = false;
        let candidates: Vec<u32> = self.active.iter().collect();
        for i in candidates {
            let i = i as usize;
            if self.nodes[i].active_jobs() == 0 {
                continue;
            }
            let node_id = self.nodes[i].id();
            let Some(directive) = self.plugin.resize(&self.nodes[i], pressure) else {
                continue;
            };
            if !self.nodes[i].resize_job(directive.job(), directive.to(), now) {
                continue;
            }
            match directive {
                ResizeDirective::Grow { .. } => self.counters.grows += 1,
                ResizeDirective::Shrink { .. } => self.counters.shrinks += 1,
            }
            self.log.record(
                now,
                SchedulerEventKind::JobResized,
                Some(directive.job()),
                Some(node_id),
            );
            self.touch(node_id);
            self.schedule_wake(node_id, now, sched);
            any = true;
        }
        if any {
            // Resizing changes slot occupancy (a scheduling input); refresh
            // so later passes in this tick see the new capacity.
            self.refresh_index_incremental(|_| false);
        }
    }

    /// The reconfiguration routine (§2.1 framework). `victim_id` /
    /// `victim_ws` are the blocking victim already identified by the
    /// overload scan (nothing has mutated in between). Returns `true` if it
    /// acted — migrated the victim or began a reservation — so the caller
    /// knows committed capacity changed.
    fn reconfigure(
        &mut self,
        src: NodeId,
        victim_id: JobId,
        victim_ws: Bytes,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) -> bool {
        // Step 1: an existing reserved workstation with enough resources.
        if let Some(dst) = self.serving_room_for(victim_ws) {
            self.reservations.record_service(dst, victim_id);
            self.start_migration(src, victim_id, dst, true, now, sched);
            self.counters.reserved_migrations += 1;
            return true;
        }
        // Step 2: begin a new reservation if the accumulated idle memory
        // justifies one and the cap allows it.
        if self.index.accumulated_idle_memory() <= self.index.average_user_memory() {
            return false; // §2.3: memory resources are genuinely exhausted.
        }
        if !self.reservations.can_reserve(self.nodes.len()) {
            return false; // §2.2 point 4: protect normal jobs.
        }
        // Best-first walk of the ordered reservation index; the first entry
        // surviving the filters equals the old linear max_by_key. The index
        // can lag a reservation made earlier in this same scan (or a crash
        // or stalled release); live state is authoritative for reserved/up,
        // the index for load.
        let candidate = self
            .index
            .by_idle_desc()
            .filter(|e| {
                !e.reserved
                    && !self.reservations.is_reserved(e.node)
                    && e.node != src
                    && self.nodes[e.node.0 as usize].is_up()
                    && !self.is_stalled(e.node)
            })
            .map(|e| e.node)
            .next();
        if let Some(node_id) = candidate {
            self.reservations.begin(node_id, now);
            self.node(node_id).set_reserved(true);
            self.touch(node_id);
            self.log.record(
                now,
                SchedulerEventKind::ReservationBegan,
                None,
                Some(node_id),
            );
            // The reserving period has begun; check_reservations() completes
            // it when the node drains (or has enough memory, per config).
            return true;
        }
        false
    }

    /// Memory demand already on the wire toward `node` (remote submissions
    /// and migrations whose image has not landed yet). Without this, two
    /// migrations launched within one exchange period would both see the
    /// destination as empty and overcommit it. O(1): reads the inbound
    /// aggregate maintained by delta on transit insert/remove.
    fn in_transit_demand(&self, node: NodeId) -> Bytes {
        self.inbound[node.0 as usize].demand
    }

    /// Jobs on the wire toward `node` (counted against its slots).
    fn in_transit_count(&self, node: NodeId) -> usize {
        self.inbound[node.0 as usize].count as usize
    }

    /// The memory `node` can actually still commit to: live idle memory
    /// minus what is already inbound.
    fn committed_idle(&self, node: NodeId) -> Bytes {
        self.nodes[node.0 as usize]
            .idle_memory()
            .saturating_sub(self.in_transit_demand(node))
    }

    /// `true` if the node of index entry `e` still has room for one more
    /// job of `demand` bytes once everything on the wire toward it lands:
    /// its reported idle memory net of inbound demand covers `demand`, and
    /// a job slot is left after inbound transfers. The committed-capacity
    /// check of commit-aware placement and of overload migration; it
    /// implies the index's own `idle_memory >= demand`.
    fn has_committed_room(&self, e: &NodeLoad, demand: Bytes) -> bool {
        e.idle_memory.saturating_sub(self.in_transit_demand(e.node)) >= demand
            && self.has_uncommitted_slot(e.node)
    }

    /// `true` if `node` still has an uncommitted job slot.
    fn has_uncommitted_slot(&self, node: NodeId) -> bool {
        let n = &self.nodes[node.0 as usize];
        n.used_slots() as usize + self.in_transit_count(node) < n.slot_cap() as usize
    }

    /// A reserved workstation that can host a `ws`-sized job right now.
    fn serving_room_for(&self, ws: Bytes) -> Option<NodeId> {
        self.reservations
            .reservations()
            .iter()
            .filter(|r| {
                // During the reserving period the node must first drain
                // (or, under EnoughMemory, free sufficient space) — which is
                // exactly the committed-idle check below.
                self.committed_idle(r.node) >= ws && self.has_uncommitted_slot(r.node)
            })
            .map(|r| r.node)
            .next()
    }

    /// Progresses reserving periods: drained (or roomy-enough) reserved
    /// nodes either receive the blocking victim or are released if blocking
    /// disappeared. Also abandons timed-out reservations.
    fn check_reservations(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        for node_id in self.reservations.sweep_timeouts(now) {
            self.release_reserved_flag(node_id, now, sched);
        }
        let reserving: Vec<NodeId> = self
            .reservations
            .reservations()
            .iter()
            .filter(|r| r.phase == ReservationPhase::Reserving)
            .map(|r| r.node)
            .collect();
        for node_id in reserving {
            let ready = {
                let node = &self.nodes[node_id.0 as usize];
                match self.config.reservation.end_condition {
                    ReservingEnd::AllJobsComplete => node.active_jobs() == 0,
                    ReservingEnd::EnoughMemory => match self.blocking_victim(node_id) {
                        Some((_, _, ws)) => {
                            self.committed_idle(node_id) >= ws && self.has_uncommitted_slot(node_id)
                        }
                        None => true,
                    },
                }
            };
            if !ready {
                continue;
            }
            if self.in_transit_count(node_id) > 0 {
                // A special-service migration is already inbound; wait for
                // it to land before deciding anything else.
                continue;
            }
            // The reserving period ended: if blocking still exists, migrate
            // the most memory-intensive faulting job here; otherwise switch
            // back to normal load sharing. Should the victim not fit even in
            // the drained reserved node (§2.3), it still receives dedicated
            // service so its faults stop hurting other jobs.
            match self.blocking_victim(node_id) {
                Some((src, victim, _ws)) => {
                    self.reservations.record_service(node_id, victim);
                    self.start_migration(src, victim, node_id, true, now, sched);
                    self.counters.reserved_migrations += 1;
                }
                None => {
                    // "During the reserving period, if the blocking problem
                    // disappears, the system will be back to the normal load
                    // sharing state."
                    self.reservations.release_unused(node_id);
                    self.release_reserved_flag(node_id, now, sched);
                }
            }
        }
    }

    /// Finds the worst currently blocked node and its most memory-intensive
    /// job: a faulting node (beyond threshold) whose victim job has no
    /// qualified ordinary destination. Returns `(src, job, working_set)`.
    ///
    /// `exclude_dst` is the reserved node being considered, which must not
    /// count as an ordinary destination.
    fn blocking_victim(&self, exclude_dst: NodeId) -> Option<(NodeId, JobId, Bytes)> {
        let mut worst: Option<(Bytes, NodeId, JobId, Bytes)> = None;
        // Only nodes hosting work can be over threshold; the active sweep
        // set covers every such node and iterates in the same ascending
        // order as the old full walk, so the first-maximum tie-break is
        // unchanged.
        for i in &self.active {
            let node = &self.nodes[i as usize];
            if node.is_reserved() || !node.is_up() {
                continue;
            }
            let usage = node.memory_usage();
            let threshold = self.config.overload_bytes(usage.user);
            if usage.overflow() <= threshold {
                continue;
            }
            let Some(victim) = node.most_memory_intensive_job() else {
                continue;
            };
            let ws = victim.current_working_set();
            // Existence probe in descending idle-memory order: committed
            // idle is at most raw idle, so once raw idle drops below `ws`
            // no later entry can qualify and the walk stops.
            let has_ordinary_dest = self
                .index
                .by_idle_desc()
                .take_while(|e| e.idle_memory >= ws)
                .any(|e| {
                    e.node != node.id()
                        && e.node != exclude_dst
                        && e.accepts_submissions()
                        && e.idle_memory.saturating_sub(self.in_transit_demand(e.node)) >= ws
                });
            if has_ordinary_dest {
                continue;
            }
            let key = usage.overflow();
            if worst.is_none_or(|(k, ..)| key > k) {
                worst = Some((key, node.id(), victim.id(), ws));
            }
        }
        worst.map(|(_, src, job, ws)| (src, job, ws))
    }

    /// Removes `job` from `src` and puts it on the wire to `dst`.
    fn start_migration(
        &mut self,
        src: NodeId,
        job_id: JobId,
        dst: NodeId,
        to_reserved: bool,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let Some(mut job) = self.node(src).remove_job(job_id, now) else {
            // The job completed in the meantime; the advance inside
            // `remove_job` put it in the outbox, so mark the node for the
            // next completion sweep, then undo service bookkeeping.
            self.note_advanced(src);
            if to_reserved && self.reservations.note_completion(dst, job_id) {
                self.release_reserved_flag(dst, now, sched);
            }
            return;
        };
        self.touch(src);
        self.schedule_wake(src, now, sched);
        self.log.record(
            now,
            SchedulerEventKind::MigratedOut,
            Some(job_id),
            Some(src),
        );
        self.log.record(
            now,
            if to_reserved {
                SchedulerEventKind::SpecialServiceStarted
            } else {
                SchedulerEventKind::MigrationStarted
            },
            Some(job_id),
            Some(dst),
        );
        let image = job.current_working_set();
        let cost = self.config.cluster.network.migration_cost(image);
        job.breakdown.migration += cost.as_secs_f64();
        job.migrations += 1;
        job.state = JobState::Migrating;
        self.transit_insert(Transit {
            job,
            dst,
            to_reserved,
            attempts: 0,
        });
        sched.schedule_in(cost, Event::TransitArrive { job: job_id });
    }

    fn handle_transit_arrive(
        &mut self,
        job_id: JobId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let Some(transit) = self.transit_remove(job_id) else {
            return; // already handled (should not happen)
        };
        let Transit {
            job,
            dst,
            to_reserved,
            ..
        } = transit;
        let home = dst;
        let result = if to_reserved {
            self.node(dst).admit_to_reserved(job, now)
        } else {
            self.node(dst).try_admit(job, now)
        };
        match result {
            Ok(()) => {
                self.touch(dst);
                self.log
                    .record(now, SchedulerEventKind::Placed, Some(job_id), Some(dst));
                self.schedule_wake(dst, now, sched);
            }
            Err(rejected) => {
                self.touch(dst);
                // Stale decision: the destination filled up while the job
                // was on the wire. Untrack any service bookkeeping and hold
                // the job pending.
                self.counters.stale_rejections += 1;
                if to_reserved && self.reservations.note_completion(dst, job_id) {
                    self.release_reserved_flag(dst, now, sched);
                }
                self.enqueue_pending(rejected.job, home, now);
            }
        }
    }

    /// Fault recovery for a transfer that failed in transit: retry with
    /// exponential backoff (the wait is charged as migration time, keeping
    /// the wall-clock breakdown identity exact), or — once the plan's retry
    /// budget is spent — abandon the transfer and re-queue the job.
    fn handle_migration_failure(
        &mut self,
        job_id: JobId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let (max_retries, base_backoff) = {
            // vr-lint::allow(panic-in-lib, reason = "internal invariant: TransitFail events are only scheduled while the fault injector exists")
            let injector = self.faults.as_ref().expect("failure without injector");
            (
                injector.plan().max_migration_retries,
                injector.plan().retry_backoff,
            )
        };
        let (dst, attempts) = {
            let transit = self
                .in_transit
                .get_mut(&job_id)
                // vr-lint::allow(panic-in-lib, reason = "internal invariant: the transit record outlives every scheduled TransitFail for its job")
                .expect("transit present");
            transit.attempts += 1;
            (transit.dst, transit.attempts)
        };
        self.log.record(
            now,
            SchedulerEventKind::MigrationFailed,
            Some(job_id),
            Some(dst),
        );
        if attempts <= max_retries {
            // Backoff doubles per failed attempt: base * 2^(attempts-1).
            let mut backoff = base_backoff;
            for _ in 0..(attempts - 1).min(16) {
                backoff = backoff + backoff;
            }
            let transit = self
                .in_transit
                .get_mut(&job_id)
                // vr-lint::allow(panic-in-lib, reason = "internal invariant: the transit record outlives every scheduled TransitFail for its job")
                .expect("transit present");
            transit.job.breakdown.migration += backoff.as_secs_f64();
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.migration_retries += 1;
            }
            sched.schedule_in(backoff, Event::TransitArrive { job: job_id });
        } else {
            let transit = self
                .transit_remove(job_id)
                // vr-lint::allow(panic-in-lib, reason = "internal invariant: the transit record outlives every scheduled TransitFail for its job")
                .expect("transit present");
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.migrations_abandoned += 1;
                injector.counters.requeued_jobs += 1;
            }
            if transit.to_reserved && self.reservations.note_completion(dst, job_id) {
                self.release_reserved_flag(dst, now, sched);
            }
            self.log
                .record(now, SchedulerEventKind::Requeued, Some(job_id), Some(dst));
            self.enqueue_pending(transit.job, dst, now);
        }
    }

    /// Fault injection: crashes `node_id`, re-queueing its resident jobs.
    fn handle_node_crash(
        &mut self,
        node_id: NodeId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !self.nodes[node_id.0 as usize].is_up() {
            return; // already down (duplicate crash entries in the plan)
        }
        // Settle the node first so pre-crash completions count as completed.
        self.nodes[node_id.0 as usize].advance_to(now);
        self.note_advanced(node_id);
        self.collect_completions(now, sched);
        if let Some(injector) = self.faults.as_mut() {
            injector.counters.crashes += 1;
        }
        self.log
            .record(now, SchedulerEventKind::NodeCrashed, None, Some(node_id));
        // A crash takes any reservation (active or stalled) down with it.
        if self.reservations.release_unused(node_id)
            || std::mem::replace(&mut self.stalled[node_id.0 as usize], false)
        {
            self.log.record(
                now,
                SchedulerEventKind::ReservationReleased,
                None,
                Some(node_id),
            );
        }
        let drained = self.nodes[node_id.0 as usize].crash(now);
        for job in drained {
            if let Some(injector) = self.faults.as_mut() {
                injector.counters.requeued_jobs += 1;
            }
            self.log.record(
                now,
                SchedulerEventKind::Requeued,
                Some(job.id()),
                Some(node_id),
            );
            self.enqueue_pending(job, node_id, now);
        }
        self.touch(node_id);
        self.refresh_index_incremental(|_| false);
        self.try_place_pending(now, sched);
    }

    /// Fault injection: brings a crashed node back into service.
    fn handle_node_restart(
        &mut self,
        node_id: NodeId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if self.nodes[node_id.0 as usize].is_up() {
            return;
        }
        self.nodes[node_id.0 as usize].restart(now);
        if let Some(injector) = self.faults.as_mut() {
            injector.counters.restarts += 1;
        }
        self.log
            .record(now, SchedulerEventKind::NodeRestarted, None, Some(node_id));
        self.touch(node_id);
        self.refresh_index_incremental(|_| false);
        self.try_place_pending(now, sched);
    }

    /// Fault injection: a stalled reservation release finally takes effect.
    fn handle_reservation_unstall(
        &mut self,
        node_id: NodeId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        if !std::mem::replace(&mut self.stalled[node_id.0 as usize], false) {
            return; // cleared meanwhile (e.g. the node crashed)
        }
        if self.reservations.is_reserved(node_id) {
            return; // defensively: a newer reservation owns the flag now
        }
        self.nodes[node_id.0 as usize].advance_to(now);
        self.nodes[node_id.0 as usize].set_reserved(false);
        self.touch(node_id);
        self.log.record(
            now,
            SchedulerEventKind::ReservationReleased,
            None,
            Some(node_id),
        );
        self.refresh_index(now, sched);
        self.schedule_wake(node_id, now, sched);
        self.try_place_pending(now, sched);
    }

    /// The §1 strawman: swap the victim out entirely, freeing its memory so
    /// submissions are no longer blocked.
    fn suspend_job(
        &mut self,
        src: NodeId,
        job_id: JobId,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let Some(mut job) = self.node(src).remove_job(job_id, now) else {
            // Completed during the decision window; the advance inside
            // `remove_job` may have filled the outbox.
            self.note_advanced(src);
            return;
        };
        self.touch(src);
        self.schedule_wake(src, now, sched);
        // Swapping the image out to disk costs real time, charged as
        // migration time; the queue clock starts once the swap-out ends.
        let image = job.current_working_set();
        let out_cost = self.nodes[src.0 as usize]
            .params()
            .memory
            .swap_transfer_time(image);
        job.breakdown.migration += out_cost.as_secs_f64();
        job.state = JobState::Suspended;
        self.suspend_counts[job.id().0 as usize] += 1;
        self.log.record(
            now,
            SchedulerEventKind::Suspended,
            Some(job.id()),
            Some(src),
        );
        self.counters.suspensions += 1;
        self.suspended.push(SuspendedJob {
            job,
            since: now + out_cost,
        });
    }

    /// Resumes suspended jobs, but only while no *new* submission is
    /// waiting: under a continuous job flow, fresh jobs keep claiming the
    /// capacity and suspended large jobs starve — the unfairness the paper
    /// rejects this approach for.
    fn try_resume_suspended(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        if self.suspended.is_empty() || !self.pending.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.suspended);
        for mut entry in parked {
            if now < entry.since {
                // Still swapping out.
                self.suspended.push(entry);
                continue;
            }
            let home = NodeId(self.rng.index(self.nodes.len()) as u32);
            let decision = self.place_decision(&entry.job, home);
            let dst = match decision {
                Placement::Blocked => {
                    // A job whose demand exceeds every workstation's user
                    // memory can never re-qualify through normal placement.
                    // §1: such jobs "can be executed only when the cluster
                    // becomes lightly loaded" — force-resume onto a fully
                    // idle workstation if one exists.
                    let idle_node = self
                        .nodes
                        .iter()
                        .filter(|n| {
                            n.active_jobs() == 0
                                && !n.is_reserved()
                                && self.inbound[n.id().0 as usize].count == 0
                                && n.can_admit(&entry.job).is_ok()
                        })
                        .max_by_key(|n| (n.idle_memory(), std::cmp::Reverse(n.id())))
                        .map(|n| n.id());
                    match idle_node {
                        Some(n) => n,
                        None => {
                            self.suspended.push(entry);
                            continue;
                        }
                    }
                }
                Placement::Local(n) | Placement::Remote(n) => n,
            };
            // Queue time accrued while parked, then a swap-in transfer
            // (modelled through the transit machinery so time accounting
            // stays exact).
            entry.job.breakdown.queue += (now - entry.since).as_secs_f64();
            let image = entry.job.current_working_set();
            let mut in_cost = self.nodes[dst.0 as usize]
                .params()
                .memory
                .swap_transfer_time(image);
            if matches!(decision, Placement::Remote(_)) {
                in_cost += self.config.cluster.network.remote_submit_cost;
            }
            entry.job.breakdown.migration += in_cost.as_secs_f64();
            entry.job.state = JobState::Migrating;
            self.log.record(
                now,
                SchedulerEventKind::Resumed,
                Some(entry.job.id()),
                Some(dst),
            );
            self.counters.resumes += 1;
            let id = entry.job.id();
            self.transit_insert(Transit {
                job: entry.job,
                dst,
                to_reserved: false,
                attempts: 0,
            });
            sched.schedule_in(in_cost, Event::TransitArrive { job: id });
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
            // Any node hosting a job is in the active sweep set, so the
            // cluster-wide drain check only needs to look there.
            && self.active.iter().all(|i| self.nodes[i as usize].active_jobs() == 0)
        {
            self.done = true;
            self.finished_at = now;
        }
    }

    fn into_report(mut self, trace: &Trace, config: &SimConfig, now: SimTime) -> RunReport {
        // Account still-unfinished jobs (horizon hit): keep partial state.
        let mut jobs = std::mem::take(&mut self.completed);
        let mut unfinished = 0usize;
        for entry in std::mem::take(&mut self.pending) {
            unfinished += 1;
            let mut job = entry.job;
            job.breakdown.queue += now.saturating_since(entry.since).as_secs_f64();
            jobs.push(job);
        }
        for transit in std::mem::take(&mut self.in_transit).into_values() {
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
            for job in node.take_completed() {
                jobs.push(job);
            }
        }
        for node in &self.nodes {
            for job in node.jobs() {
                unfinished += 1;
                jobs.push(job.clone());
            }
        }
        unfinished += trace.len().saturating_sub(jobs.len()); // never-arrived
        jobs.sort_by_key(|j| j.id());
        let summary = WorkloadSummary::of_jobs(jobs.iter());
        RunReport {
            trace_name: trace.name.clone(),
            policy: config.policy,
            seed: config.seed,
            summary,
            gauges: self.gauges,
            counters: self.counters,
            reservations: self.reservations.stats(),
            node_counters: self.nodes.iter().map(|n| n.counters()).collect(),
            events: self.log,
            finished_at: if self.done { self.finished_at } else { now },
            unfinished_jobs: unfinished,
            faults: self.faults.as_ref().map(|f| f.counters).unwrap_or_default(),
            run_stats: RunStats::default(),
            audit_violations: Vec::new(),
            jobs,
        }
    }
}

impl World for ClusterWorld {
    type Event = Event;

    fn handle(&mut self, sched: &mut Scheduler<'_, Event>, event: Event) {
        let now = sched.now();
        match event {
            Event::Arrival(spec) => {
                self.arrived += 1;
                let job = RunningJob::new(*spec);
                let home = NodeId(self.rng.index(self.nodes.len()) as u32);
                self.log.record(
                    now,
                    SchedulerEventKind::Submitted,
                    Some(job.id()),
                    Some(home),
                );
                if self.config.pending_discipline == crate::config::PendingDiscipline::Fifo
                    && !self.pending.is_empty()
                {
                    // Submissions are blocked: new arrivals join the back of
                    // the queue rather than jumping past older blocked jobs.
                    self.enqueue_pending(job, home, now);
                } else {
                    self.place_job(job, home, now, sched, true);
                }
            }
            Event::NodeWake { node, epoch } => {
                if self.nodes[node.0 as usize].epoch() != epoch {
                    return; // stale wake: the node changed since scheduling
                }
                self.nodes[node.0 as usize].advance_to(now);
                self.note_advanced(node);
                self.collect_completions(now, sched);
                // collect_completions only re-schedules nodes that completed
                // something; a pure phase-boundary wake still needs a new
                // wake-up.
                if self.nodes[node.0 as usize].epoch() == epoch {
                    self.schedule_wake(node, now, sched);
                }
            }
            Event::Exchange => {
                self.refresh_index_lossy(now, sched);
                self.overload_scan(now, sched);
                self.resize_scan(now, sched);
                self.check_reservations(now, sched);
                self.try_resume_suspended(now, sched);
                self.check_done(now);
                if !self.done {
                    sched.schedule_in(self.config.cluster.load_exchange_period, Event::Exchange);
                }
            }
            Event::Sample => {
                self.advance_active(now);
                self.collect_completions(now, sched);
                let pending = self.pending.len();
                self.gauges.sample(self.nodes.iter(), pending, now);
                if !self.done {
                    sched.schedule_in(SAMPLE_PERIOD, Event::Sample);
                }
            }
            Event::PendingRetry => {
                if !self.pending.is_empty() {
                    self.refresh_index(now, sched);
                    self.try_place_pending(now, sched);
                }
                self.check_done(now);
                if !self.done {
                    sched.schedule_in(PENDING_RETRY_PERIOD, Event::PendingRetry);
                }
            }
            Event::TransitArrive { job } => {
                if self.transit_contains(job)
                    && self.faults.as_mut().is_some_and(|f| f.migration_fails())
                {
                    self.handle_migration_failure(job, now, sched);
                } else {
                    self.handle_transit_arrive(job, now, sched);
                }
                self.check_done(now);
            }
            Event::NodeCrash { node } => {
                self.handle_node_crash(node, now, sched);
            }
            Event::NodeRestart { node } => {
                self.handle_node_restart(node, now, sched);
            }
            Event::ReservationUnstall { node } => {
                self.handle_reservation_unstall(node, now, sched);
                self.check_done(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::params::ClusterParams;
    use vr_workload::synth;

    fn small_cluster() -> ClusterParams {
        let mut params = ClusterParams::cluster2();
        params.nodes.truncate(8);
        params
    }

    fn run(policy: PolicyKind, trace: &Trace) -> RunReport {
        let config = SimConfig::new(small_cluster(), policy).with_seed(7);
        Simulation::new(config).run(trace)
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let trace = Trace {
            name: "empty".into(),
            jobs: vec![],
        };
        let report = run(PolicyKind::GLoadSharing, &trace);
        assert_eq!(report.summary.jobs, 0);
        assert!(report.all_completed());
    }

    #[test]
    fn light_load_completes_all_jobs_with_low_slowdown() {
        let trace = synth::light_load(20, &mut SimRng::seed_from(3));
        for policy in PolicyKind::ALL {
            let report = run(policy, &trace);
            assert!(report.all_completed(), "{policy}: unfinished jobs");
            assert_eq!(report.summary.jobs, 20, "{policy}");
            assert!(
                report.avg_slowdown() < 1.5,
                "{policy}: slowdown {} too high for light load",
                report.avg_slowdown()
            );
            report.check_breakdown_identity(0.01).unwrap();
        }
    }

    #[test]
    fn light_load_never_reconfigures() {
        // §5 condition 1: a lightly loaded cluster gives V-R nothing to do.
        let trace = synth::light_load(20, &mut SimRng::seed_from(3));
        let report = run(PolicyKind::VReconfiguration, &trace);
        assert_eq!(report.reservations.started, 0);
        assert_eq!(report.counters.blocking_detections, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let a = run(PolicyKind::VReconfiguration, &trace);
        let b = run(PolicyKind::VReconfiguration, &trace);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.reservations, b.reservations);
        assert_eq!(a.finished_at, b.finished_at);
    }

    #[test]
    fn commit_aware_placement_completes_and_is_deterministic() {
        use crate::config::PlacementMode;
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let config = || {
            SimConfig::new(small_cluster(), PolicyKind::VReconfiguration)
                .with_seed(7)
                .with_placement(PlacementMode::CommitAware)
        };
        let a = Simulation::new(config()).run(&trace);
        let b = Simulation::new(config()).run(&trace);
        assert_eq!(a, b);
        assert!(a.all_completed(), "commit-aware placement lost jobs");
        a.check_breakdown_identity(0.01).unwrap();
    }

    #[test]
    fn commit_aware_placement_spreads_a_contended_burst() {
        use crate::config::PlacementMode;
        use vr_workload::scale::ScaleSpec;
        // A scale-generator burst: many jobs target the same apparently
        // least-loaded node between exchange ticks. Optimistic placement
        // resolves the races by admission rejection + re-queue; commit-aware
        // subtracts in-flight demand up front, so the bounce count drops.
        // Paper-sized 384 MB nodes: two mean SPEC working sets fill one, so
        // the arrival peak actually contends for memory (the default 1.5 GB
        // headroom would absorb the whole burst without a single bounce).
        let spec = ScaleSpec::new(64, 500)
            .with_node_memory(vr_cluster::units::Bytes::from_mb(384))
            .with_utilization(1.2);
        let trace = spec.trace(&mut SimRng::seed_from(42));
        let run_with = |mode: PlacementMode| {
            Simulation::new(
                SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
                    .with_seed(7)
                    .with_placement(mode),
            )
            .run(&trace)
        };
        let optimistic = run_with(PlacementMode::Optimistic);
        let commit_aware = run_with(PlacementMode::CommitAware);
        assert!(optimistic.all_completed());
        assert!(commit_aware.all_completed());
        assert!(
            optimistic.counters.stale_rejections > 0,
            "burst failed to contend: no optimistic placement ever bounced"
        );
        assert!(
            commit_aware.counters.stale_rejections < optimistic.counters.stale_rejections,
            "commit-aware bounced {} times, optimistic {}",
            commit_aware.counters.stale_rejections,
            optimistic.counters.stale_rejections
        );
        assert!(
            commit_aware.run_stats.events_processed <= optimistic.run_stats.events_processed,
            "commit-aware processed more events ({} vs {})",
            commit_aware.run_stats.events_processed,
            optimistic.run_stats.events_processed
        );
    }

    #[test]
    fn blocking_scenario_triggers_reconfiguration() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let gls = run(PolicyKind::GLoadSharing, &trace);
        let vr = run(PolicyKind::VReconfiguration, &trace);
        assert!(
            gls.counters.blocking_detections > 0,
            "scenario failed to block"
        );
        assert!(vr.reservations.started > 0, "V-R never reserved");
        assert!(vr.reservations.jobs_served > 0, "V-R never served a job");
        assert!(vr.all_completed());
        assert!(gls.all_completed());
    }

    #[test]
    fn vreconfiguration_beats_gls_on_the_blocking_scenario() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let gls = run(PolicyKind::GLoadSharing, &trace);
        let vr = run(PolicyKind::VReconfiguration, &trace);
        assert!(
            vr.avg_slowdown() < gls.avg_slowdown(),
            "V-R {:.3} should beat G-LS {:.3}",
            vr.avg_slowdown(),
            gls.avg_slowdown()
        );
        assert!(
            vr.total_queue_secs() < gls.total_queue_secs(),
            "V-R queue {:.0}s should be below G-LS {:.0}s",
            vr.total_queue_secs(),
            gls.total_queue_secs()
        );
    }

    #[test]
    fn breakdown_identity_holds_under_stress() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
            let report = run(policy, &trace);
            report.check_breakdown_identity(0.05).unwrap();
        }
    }

    #[test]
    fn all_reservations_are_eventually_released() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let report = run(PolicyKind::VReconfiguration, &trace);
        let r = report.reservations;
        assert_eq!(
            r.started,
            r.released_after_service + r.released_unused + r.timed_out,
            "reservation leak: {r:?}"
        );
    }

    #[test]
    fn gls_uses_remote_submission_under_load() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let report = run(PolicyKind::GLoadSharing, &trace);
        assert!(report.counters.remote_submissions > 0);
    }

    #[test]
    fn no_load_sharing_never_migrates() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let report = run(PolicyKind::NoLoadSharing, &trace);
        assert_eq!(report.counters.overload_migrations, 0);
        assert_eq!(report.counters.remote_submissions, 0);
        assert_eq!(report.reservations.started, 0);
    }

    #[test]
    fn tiny_reserve_timeout_abandons_reservations_but_recovers() {
        // "If a workstation can not be reserved within a pre-determined
        // time interval, it implies that the cluster is truly heavily
        // loaded" — with an absurdly small timeout every reserving period
        // is abandoned, and the system must still finish all jobs.
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let config = SimConfig::new(small_cluster(), PolicyKind::VReconfiguration)
            .with_seed(7)
            .with_reservation(crate::config::ReservationOptions {
                reserve_timeout: vr_simcore::time::SimSpan::from_secs(2),
                ..crate::config::ReservationOptions::default()
            });
        let report = Simulation::new(config).run(&trace);
        assert!(report.all_completed());
        assert!(report.reservations.timed_out > 0, "timeout never fired");
        let r = report.reservations;
        assert_eq!(
            r.started,
            r.released_after_service + r.released_unused + r.timed_out
        );
    }

    #[test]
    fn enough_memory_end_condition_serves_without_full_drain() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let config = SimConfig::new(small_cluster(), PolicyKind::VReconfiguration)
            .with_seed(7)
            .with_reservation(crate::config::ReservationOptions {
                end_condition: crate::config::ReservingEnd::EnoughMemory,
                ..crate::config::ReservationOptions::default()
            });
        let report = Simulation::new(config).run(&trace);
        assert!(report.all_completed());
        assert!(report.reservations.jobs_served > 0);
        report.check_breakdown_identity(0.05).unwrap();
    }

    #[test]
    fn heterogeneous_cluster_reserves_big_memory_nodes() {
        // §2.3: "a reserved workstation will be the one with relatively
        // large physical memory space". Big nodes are ids 0..2 here.
        let cluster = vr_cluster::params::ClusterParams::heterogeneous(8, 2);
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let config = SimConfig::new(cluster, PolicyKind::VReconfiguration).with_seed(7);
        let report = Simulation::new(config).run(&trace);
        assert!(report.all_completed());
        if report.reservations.started > 0 {
            // Big-memory nodes did the serving: they admitted more than
            // their per-node share.
            let big: u64 = report.node_counters[..2].iter().map(|c| c.admitted).sum();
            let small: u64 = report.node_counters[2..].iter().map(|c| c.admitted).sum();
            assert!(
                big as f64 / 2.0 >= small as f64 / 6.0,
                "big nodes admitted {big}, small {small}"
            );
        }
    }

    #[test]
    fn suspension_strawman_suspends_and_eventually_resumes() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let report = run(PolicyKind::SuspendLargest, &trace);
        assert!(report.counters.suspensions > 0, "never suspended");
        assert_eq!(
            report.counters.suspensions, report.counters.resumes,
            "all suspended jobs must eventually resume once the flow stops"
        );
        assert!(report.all_completed());
        report.check_breakdown_identity(0.05).unwrap();
    }

    /// A blocking scenario whose filler stream keeps flowing for several
    /// multiples of the giants' runtime — the "job submissions continue to
    /// flow" condition under which §1 says suspension starves large jobs.
    fn sustained_blocking_trace() -> Trace {
        let base = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let mut jobs = base.jobs.clone();
        // Repeat the steady filler stream three more times, shifted.
        let fillers: Vec<JobSpec> = base
            .jobs
            .iter()
            .filter(|j| j.name == "filler")
            .cloned()
            .collect();
        for round in 1..=3u64 {
            for f in &fillers {
                let mut j = f.clone();
                j.submit += SimSpan::from_secs(1040 * round);
                jobs.push(j);
            }
        }
        jobs.sort_by_key(|j| j.submit);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(i as u64);
        }
        Trace {
            name: "Synth-Blocking-Sustained".into(),
            jobs,
        }
    }

    #[test]
    fn suspension_is_unfair_to_large_jobs() {
        // §1: suspension "will not be fair to the large jobs that may
        // starve if job submissions continue to flow". Compare the giants'
        // slowdowns under suspension vs reconfiguration on a sustained
        // filler stream.
        let trace = sustained_blocking_trace();
        let giant_mean = |r: &RunReport| {
            let s: Vec<f64> = r
                .jobs
                .iter()
                .filter(|j| j.spec.name == "giant")
                .map(|j| j.slowdown())
                .collect();
            s.iter().sum::<f64>() / s.len() as f64
        };
        let suspend = run(PolicyKind::SuspendLargest, &trace);
        let vrecon = run(PolicyKind::VReconfiguration, &trace);
        assert!(suspend.counters.suspensions > 0);
        assert!(
            giant_mean(&suspend) > giant_mean(&vrecon),
            "suspension should starve giants: {:.2} vs V-R {:.2}",
            giant_mean(&suspend),
            giant_mean(&vrecon)
        );
    }

    #[test]
    fn network_ram_reduces_paging_under_blocking() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let base = SimConfig::new(small_cluster(), PolicyKind::GLoadSharing).with_seed(7);
        let local = Simulation::new(base.clone()).run(&trace);
        let netram = Simulation::new(base.with_network_ram()).run(&trace);
        assert!(netram.all_completed());
        assert!(
            netram.summary.totals.page < local.summary.totals.page,
            "netram page {:.0}s should be below local {:.0}s",
            netram.summary.totals.page,
            local.summary.totals.page
        );
        assert!(netram.avg_slowdown() < local.avg_slowdown());
        netram.check_breakdown_identity(0.05).unwrap();
    }

    #[test]
    fn network_ram_composes_with_reconfiguration() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let vr = Simulation::new(
            SimConfig::new(small_cluster(), PolicyKind::VReconfiguration).with_seed(7),
        )
        .run(&trace);
        let vr_netram = Simulation::new(
            SimConfig::new(small_cluster(), PolicyKind::VReconfiguration)
                .with_seed(7)
                .with_network_ram(),
        )
        .run(&trace);
        assert!(vr_netram.all_completed());
        assert!(vr_netram.avg_slowdown() <= vr.avg_slowdown() * 1.02);
    }

    #[test]
    fn event_log_tells_a_consistent_story() {
        use crate::events::SchedulerEventKind as K;
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        let report = run(PolicyKind::VReconfiguration, &trace);
        let log = &report.events;
        assert!(!log.is_empty());
        // Every job is submitted exactly once and completed exactly once.
        assert_eq!(log.of_kind(K::Submitted).count(), trace.len());
        assert_eq!(log.of_kind(K::Completed).count(), trace.len());
        // Per job: submission precedes first placement precedes completion.
        for job in &report.jobs {
            let events: Vec<_> = log.for_job(job.id()).collect();
            let submitted = events.iter().find(|e| e.kind == K::Submitted).unwrap();
            let placed = events.iter().find(|e| e.kind == K::Placed).unwrap();
            let completed = events.iter().find(|e| e.kind == K::Completed).unwrap();
            assert!(submitted.time <= placed.time);
            assert!(placed.time <= completed.time);
        }
        // Reservation begins and releases pair up.
        assert_eq!(
            log.of_kind(K::ReservationBegan).count() as u64,
            report.reservations.started
        );
        assert_eq!(
            log.of_kind(K::ReservationBegan).count(),
            log.of_kind(K::ReservationReleased).count()
        );
        // Special-service migrations match the reservation stats.
        assert_eq!(
            log.of_kind(K::SpecialServiceStarted).count() as u64,
            report.reservations.jobs_served
        );
    }

    #[test]
    fn only_suspend_policy_suspends() {
        let trace = synth::blocking_scenario(8, vr_cluster::units::Bytes::from_mb(128));
        for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
            let report = run(policy, &trace);
            assert_eq!(report.counters.suspensions, 0, "{policy}");
        }
    }
}
