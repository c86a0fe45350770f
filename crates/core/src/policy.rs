//! Inter-workstation scheduling policies, one [`Policy`] impl per family.
//!
//! The paper's evaluation compares the dynamic load sharing scheme of the
//! authors' ICDCS 2001 system (G-Loadsharing) with the same scheme
//! augmented by adaptive virtual reconfiguration (V-Reconfiguration).
//! Additional baselines are implemented for ablation: no load sharing at
//! all, random placement, CPU-only and weighted CPU+memory balancing, the
//! §1 suspension strawman, and the malleable and fractional families.
//!
//! The engine holds a `Box<dyn Policy>` and consults it for placement and
//! capabilities. The trait's provided methods *are* G-Loadsharing, the
//! scheme the paper builds on (§2.1), so each family states only how it
//! differs from it. [`PolicyKind`] is only a family's name; its spellings
//! live in one [`registry`](crate::plugin::registry) row.

use serde::{Deserialize, Serialize};
use std::fmt;
use vr_cluster::job::{JobId, RunningJob};
use vr_cluster::loadinfo::{LoadIndex, NodeLoad};
use vr_cluster::node::{NodeId, Workstation};
use vr_cluster::units::Bytes;
use vr_simcore::rng::SimRng;

use crate::plugin::{entry, ParamBag};

/// The name of a scheduling policy family: the report's `policy` field and
/// the key of its [`registry`](crate::plugin::registry) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Every job runs on the workstation it was submitted to.
    NoLoadSharing,
    /// Uniformly random placement over workstations with a free slot.
    Random,
    /// CPU-only load sharing: fewest active jobs wins.
    CpuOnly,
    /// The authors' CPU + memory load sharing (ICDCS 2001, ref \[3]).
    GLoadSharing,
    /// G-Loadsharing plus the paper's adaptive virtual reconfiguration.
    VReconfiguration,
    /// Weighted CPU + memory load sharing (ICDCS 2000, ref \[13]).
    WeightedCpuMem,
    /// G-Loadsharing that suspends the largest job on blocking (§1).
    SuspendLargest,
    /// G-Loadsharing plus grow/shrink directives for malleable jobs.
    Malleable,
    /// G-Loadsharing over an oversubscribed (fractional) slot cap.
    Fractional,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(entry(*self).display)
    }
}

impl PolicyKind {
    /// All policies, baseline-first.
    pub const ALL: [PolicyKind; 9] = [
        PolicyKind::NoLoadSharing,
        PolicyKind::Random,
        PolicyKind::CpuOnly,
        PolicyKind::WeightedCpuMem,
        PolicyKind::GLoadSharing,
        PolicyKind::SuspendLargest,
        PolicyKind::VReconfiguration,
        PolicyKind::Malleable,
        PolicyKind::Fractional,
    ];
}

/// Where a policy wants a job to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Admit on the submission (home) workstation, free of charge.
    Local(NodeId),
    /// Remote-submit to another workstation (costs `r`).
    Remote(NodeId),
    /// No workstation qualifies: hold the job in the cluster pending queue.
    /// This is the paper's "job submissions ... blocked".
    Blocked,
}

impl Placement {
    /// `Local` if `node` is the home workstation, else `Remote`; `Blocked`
    /// when there is no node.
    fn toward(node: Option<NodeId>, home: NodeId) -> Placement {
        match node {
            Some(n) if n == home => Placement::Local(n),
            Some(n) => Placement::Remote(n),
            None => Placement::Blocked,
        }
    }
}

/// A width change a policy wants applied to one resident malleable job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeDirective {
    /// Raise the job's slot width to `to`.
    Grow {
        /// The resident job to widen.
        job: JobId,
        /// Its new width (> current, ≤ its `max_width`).
        to: u32,
    },
    /// Lower the job's slot width to `to`.
    Shrink {
        /// The resident job to narrow.
        job: JobId,
        /// Its new width (< current, ≥ its `min_width`).
        to: u32,
    },
}

impl ResizeDirective {
    /// The job the directive concerns.
    pub fn job(self) -> JobId {
        match self {
            ResizeDirective::Grow { job, .. } | ResizeDirective::Shrink { job, .. } => job,
        }
    }

    /// The target width.
    pub fn to(self) -> u32 {
        match self {
            ResizeDirective::Grow { to, .. } | ResizeDirective::Shrink { to, .. } => to,
        }
    }
}

/// A scheduling policy family: placement plus the capability hooks the
/// engine consults.
///
/// Every provided method is G-Loadsharing's answer: memory-aware
/// placement, fault-driven migration, commit-aware placement when
/// configured, whole-slot admission, and nothing on blocking beyond
/// detection. A family overrides only where it differs.
///
/// Implementations must be deterministic — any randomness draws from the
/// `rng` handed to [`Policy::place`], and the resize hook sees only the
/// node and a recomputable pressure flag, so the independent oracle can
/// restate every decision bit-for-bit.
pub trait Policy: fmt::Debug {
    /// Decides where a newly submitted (or pending-retried) job goes.
    ///
    /// `home` is the workstation the user submitted to; `index` is the
    /// cluster's (possibly stale) load index. Randomized policies draw from
    /// `rng`.
    fn place(
        &self,
        job: &RunningJob,
        home: NodeId,
        index: &LoadIndex,
        rng: &mut SimRng,
    ) -> Placement {
        let _ = rng;
        // "Idle memory space" is checked against the job's *currently
        // observed* demand — the scheduler "dynamically monitors ... memory
        // demands of jobs" ([3]); growth beyond it (the unexpectedly large
        // allocations of §1) is what the memory threshold and migrations
        // must then handle.
        load_sharing_place(job.current_working_set(), home, index, |_| true)
    }

    /// `true` if the policy performs fault-driven preemptive migration.
    fn migrates_on_overload(&self) -> bool {
        true
    }

    /// `true` if [`PlacementMode::CommitAware`] replaces this policy's
    /// placement (the memory-aware load-index families).
    ///
    /// [`PlacementMode::CommitAware`]: crate::config::PlacementMode::CommitAware
    fn commit_aware_placement(&self) -> bool {
        true
    }

    /// `true` if the policy runs the adaptive virtual-reconfiguration
    /// routine on blocking.
    fn reconfigures(&self) -> bool {
        false
    }

    /// `true` if the policy suspends the most memory-intensive job on
    /// blocking (the §1 strawman).
    fn suspends_on_blocking(&self) -> bool {
        false
    }

    /// The admission slot cap for a workstation with `hardware_slots`
    /// job slots: whole-slot reservation unless the family oversubscribes.
    fn slot_cap(&self, hardware_slots: u32) -> u32 {
        hardware_slots
    }

    /// `true` if the policy issues [`ResizeDirective`]s at load-exchange
    /// ticks (the malleable family).
    fn resizes(&self) -> bool {
        false
    }

    /// At most one width change for `node` at a load-exchange tick.
    /// `pressure` is `true` when the cluster pending queue is non-empty —
    /// a flag both the engine and the oracle can recompute exactly.
    fn resize(&self, node: &Workstation, pressure: bool) -> Option<ResizeDirective> {
        let _ = (node, pressure);
        None
    }
}

/// G-Loadsharing's placement (§1), over a caller-side acceptance check:
/// accept locally when the home workstation has `demand` in idle memory and
/// a free job slot and passes `accept`; otherwise remote-submit to the best
/// destination ([`LoadIndex::best_destination_where`]) that passes it; else
/// block. [`Policy::place`] passes `|_| true`;
/// [`PlacementMode::CommitAware`] passes its committed-capacity check.
///
/// [`PlacementMode::CommitAware`]: crate::config::PlacementMode::CommitAware
pub(crate) fn load_sharing_place(
    demand: Bytes,
    home: NodeId,
    index: &LoadIndex,
    mut accept: impl FnMut(&NodeLoad) -> bool,
) -> Placement {
    if index.get(home).is_some_and(|load| {
        load.accepts_submissions() && load.idle_memory >= demand && accept(load)
    }) {
        return Placement::Local(home);
    }
    match index.best_destination_where(demand, Some(home), accept) {
        Some(dest) => Placement::Remote(dest.node),
        None => Placement::Blocked,
    }
}

/// No load sharing: home or nothing. The hard capacity check happens at
/// admission; a bounce lands in the pending queue. No migration.
#[derive(Debug)]
pub(crate) struct NoLoadSharing;

impl Policy for NoLoadSharing {
    fn place(&self, _: &RunningJob, home: NodeId, index: &LoadIndex, _: &mut SimRng) -> Placement {
        match index.get(home) {
            Some(load) if load.has_slot => Placement::Local(home),
            _ => Placement::Blocked,
        }
    }

    fn migrates_on_overload(&self) -> bool {
        false
    }

    fn commit_aware_placement(&self) -> bool {
        false
    }
}

/// Uniformly random placement over workstations with a free slot,
/// ignoring memory entirely. No migration.
#[derive(Debug)]
pub(crate) struct Random;

impl Policy for Random {
    fn place(
        &self,
        _: &RunningJob,
        home: NodeId,
        index: &LoadIndex,
        rng: &mut SimRng,
    ) -> Placement {
        let candidates: Vec<NodeId> = index
            .iter()
            .filter(|e| e.has_slot && !e.reserved)
            .map(|e| e.node)
            .collect();
        if candidates.is_empty() {
            return Placement::Blocked;
        }
        Placement::toward(Some(*rng.choose(&candidates)), home)
    }

    fn migrates_on_overload(&self) -> bool {
        false
    }

    fn commit_aware_placement(&self) -> bool {
        false
    }
}

/// CPU-only load sharing: place on the node with the fewest active jobs
/// (job-count balancing, e.g. Zhou et al.'s Utopia family); memory is
/// ignored and there is no fault-driven migration.
#[derive(Debug)]
pub(crate) struct CpuOnly;

impl Policy for CpuOnly {
    fn place(&self, _: &RunningJob, home: NodeId, index: &LoadIndex, _: &mut SimRng) -> Placement {
        let best = index
            .iter()
            .filter(|e| e.has_slot && !e.reserved)
            .min_by_key(|e| (e.active_jobs, e.node));
        Placement::toward(best.map(|e| e.node), home)
    }

    fn migrates_on_overload(&self) -> bool {
        false
    }

    fn commit_aware_placement(&self) -> bool {
        false
    }
}

/// Weighted CPU+memory load sharing after Zhang, Qu & Xiao (ICDCS 2000,
/// the paper's ref \[13]): nodes are ranked by a combined load score mixing
/// job count (CPU pressure) and memory occupancy, instead of
/// G-Loadsharing's lexicographic fewest-jobs-first rule. Fault-driven
/// migration stays enabled; no reconfiguration.
#[derive(Debug)]
pub(crate) struct WeightedCpuMem;

impl Policy for WeightedCpuMem {
    fn place(
        &self,
        job: &RunningJob,
        home: NodeId,
        index: &LoadIndex,
        _: &mut SimRng,
    ) -> Placement {
        // Ref [13]: rank every qualified node by a combined score of CPU
        // pressure (active jobs) and memory occupancy (1 - idle/user); a
        // fully used memory weighs like a full slot set.
        let demand = job.current_working_set();
        let score = |e: &NodeLoad| {
            let cpu = e.active_jobs as f64;
            let mem = 1.0 - e.idle_memory.as_u64() as f64 / e.user_memory.as_u64() as f64;
            cpu + 8.0 * mem
        };
        let best = index
            .iter()
            .filter(|e| e.accepts_submissions() && e.idle_memory >= demand)
            .min_by(|a, b| {
                score(a)
                    .partial_cmp(&score(b))
                    // vr-lint::allow(panic-in-lib, reason = "comparator contract: placement scores are ratios of finite non-negative loads, never NaN")
                    .expect("scores are never NaN")
                    .then(a.node.cmp(&b.node))
            });
        Placement::toward(best.map(|e| e.node), home)
    }

    fn commit_aware_placement(&self) -> bool {
        false
    }
}

/// The authors' dynamic load sharing with both CPU and memory
/// considerations (ICDCS 2001, cited as \[3]): local submission when the
/// home node has idle memory and a free slot, otherwise remote submission
/// to the best qualified node; fault-driven preemptive migration of the
/// most memory-intensive job. Every [`Policy`] default.
#[derive(Debug)]
pub(crate) struct GLoadSharing;

impl Policy for GLoadSharing {}

/// G-Loadsharing plus the paper's adaptive and virtual reconfiguration:
/// on blocking, reserve a lightly loaded workstation and dedicate it to
/// large jobs.
#[derive(Debug)]
pub(crate) struct VReconfiguration;

impl Policy for VReconfiguration {
    fn reconfigures(&self) -> bool {
        true
    }
}

/// The strawman §1 discusses and rejects: on blocking, *suspend* the large
/// job (swap it out entirely, freeing its memory, at realistic
/// swap-transfer cost) "so that the job submissions will not be blocked".
/// Suspended jobs are resumed only when the cluster has spare capacity, so
/// under a continuous job flow they starve — the unfairness the paper's
/// reconfiguration avoids. A job repeatedly re-suspended is pinned after
/// five suspensions (endless swap churn of the same peak-sized job is a
/// livelock, not a remedy).
#[derive(Debug)]
pub(crate) struct SuspendLargest;

impl Policy for SuspendLargest {
    fn suspends_on_blocking(&self) -> bool {
        true
    }
}

/// Tunables of the malleable family, parsed from its [`ParamBag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalleableParams {
    /// Maximum width change per job per load-exchange tick (default 1).
    pub max_step: u32,
}

impl MalleableParams {
    /// Parameter keys the malleable family accepts.
    pub const KNOWN_KEYS: &'static [&'static str] = &["max_step"];

    /// Parses and validates the malleable parameters.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, unparsable values, and `max_step = 0`.
    pub fn from_bag(bag: &ParamBag) -> Result<Self, String> {
        bag.reject_unknown(Self::KNOWN_KEYS)?;
        let max_step = bag.get::<u32>("max_step")?.unwrap_or(1);
        if max_step == 0 {
            return Err("max_step must be at least 1".into());
        }
        Ok(MalleableParams { max_step })
    }
}

/// Malleable scheduling ("Evaluating Malleable Job Scheduling in HPC
/// Clusters"): jobs may declare a `min..=max` slot-width range
/// (`MalleableSpec`); placement and migration follow G-Loadsharing, and on
/// every load exchange the policy issues grow directives into idle slots
/// and shrink directives under queue pressure. A job running at width `w`
/// holds `w` slots and receives `w` processor-sharing shares. With no
/// malleable jobs in the trace it behaves exactly like G-Loadsharing.
#[derive(Debug)]
pub(crate) struct Malleable {
    pub(crate) params: MalleableParams,
}

impl Malleable {
    /// The widest resizable job on `node` that can shrink (width above
    /// its declared minimum); ties broken toward the smallest id.
    fn shrink_candidate<'a>(&self, node: &'a Workstation) -> Option<&'a RunningJob> {
        node.jobs()
            .iter()
            .filter(|j| j.spec.malleable.is_some_and(|m| j.width > m.min_width))
            .max_by_key(|j| (j.width, std::cmp::Reverse(j.spec.id)))
    }

    /// The narrowest resizable job on `node` that can grow (width below
    /// its declared maximum); ties broken toward the smallest id.
    fn grow_candidate<'a>(&self, node: &'a Workstation) -> Option<&'a RunningJob> {
        node.jobs()
            .iter()
            .filter(|j| j.spec.malleable.is_some_and(|m| j.width < m.max_width))
            .min_by_key(|j| (j.width, j.spec.id))
    }
}

impl Policy for Malleable {
    fn resizes(&self) -> bool {
        true
    }

    fn resize(&self, node: &Workstation, pressure: bool) -> Option<ResizeDirective> {
        if !node.is_up() || node.is_reserved() {
            return None;
        }
        let free = node.slot_cap().saturating_sub(node.used_slots());
        if pressure && free == 0 {
            // Queue pressure and no free slot: narrow the widest
            // malleable job so a pending admission can land here.
            let job = self.shrink_candidate(node)?;
            let min = job.spec.malleable.map_or(1, |m| m.min_width);
            let to = job.width.saturating_sub(self.params.max_step).max(min);
            return Some(ResizeDirective::Shrink {
                job: job.spec.id,
                to,
            });
        }
        if !pressure && free > 0 {
            // Idle capacity and an empty queue: widen the narrowest
            // malleable job into the spare slots.
            let job = self.grow_candidate(node)?;
            let max = job.spec.malleable.map_or(job.width, |m| m.max_width);
            let to = (job.width + self.params.max_step.min(free)).min(max);
            return Some(ResizeDirective::Grow {
                job: job.spec.id,
                to,
            });
        }
        None
    }
}

/// Tunables of the fractional family, parsed from its [`ParamBag`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalParams {
    /// Slot oversubscription factor: the admission cap is
    /// `floor(slots × oversub)` (default 2.0, must be ≥ 1).
    pub oversub: f64,
}

impl FractionalParams {
    /// Parameter keys the fractional family accepts.
    pub const KNOWN_KEYS: &'static [&'static str] = &["oversub"];

    /// Parses and validates the fractional parameters.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, unparsable values, and `oversub < 1`.
    pub fn from_bag(bag: &ParamBag) -> Result<Self, String> {
        bag.reject_unknown(Self::KNOWN_KEYS)?;
        let oversub = bag.get::<f64>("oversub")?.unwrap_or(2.0);
        if !oversub.is_finite() || oversub < 1.0 {
            return Err(format!(
                "oversub must be a finite value >= 1, got {oversub}"
            ));
        }
        Ok(FractionalParams { oversub })
    }

    /// The admission cap for a workstation with `hardware_slots` slots.
    pub fn slot_cap(&self, hardware_slots: u32) -> u32 {
        ((hardware_slots as f64 * self.oversub).floor() as u32).max(hardware_slots)
    }
}

/// Dynamic fractional resource scheduling (Casanova/Stillwell/Vivien):
/// instead of whole-slot reservation, each workstation's admission cap is
/// raised to `floor(slots × oversub)` and the processor-sharing model hands
/// every resident job a fractional CPU share. Placement and migration
/// follow G-Loadsharing; with `oversub = 1` it is exactly G-Loadsharing.
#[derive(Debug)]
pub(crate) struct Fractional {
    pub(crate) params: FractionalParams,
}

impl Policy for Fractional {
    fn slot_cap(&self, hardware_slots: u32) -> u32 {
        self.params.slot_cap(hardware_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::cpu::CpuParams;
    use vr_cluster::job::{JobClass, JobSpec, MemoryProfile};
    use vr_cluster::memory::{FaultModel, MemoryParams};
    use vr_cluster::node::NodeParams;
    use vr_cluster::units::Bytes;
    use vr_simcore::time::{SimSpan, SimTime};

    fn test_job() -> RunningJob {
        RunningJob::new(JobSpec {
            id: JobId(0),
            name: "j".into(),
            class: JobClass::CpuIntensive,
            submit: SimTime::ZERO,
            cpu_work: SimSpan::from_secs(100),
            memory: MemoryProfile::constant(Bytes::from_mb(10)),
            io_rate: 0.0,
            malleable: None,
        })
    }

    /// Builds an index over nodes with the given (jobs, ws_mb) pairs.
    fn index_of(loads: &[(usize, u64)]) -> LoadIndex {
        let nodes: Vec<Workstation> = loads
            .iter()
            .enumerate()
            .map(|(i, &(jobs, ws))| {
                let mut n = Workstation::new(
                    NodeId(i as u32),
                    NodeParams {
                        cpu: CpuParams::with_slots(4),
                        memory: MemoryParams::with_capacity(
                            Bytes::from_mb(128),
                            Bytes::from_mb(512),
                        ),
                        fault_model: FaultModel::default(),
                        protection: Default::default(),
                    },
                );
                for j in 0..jobs {
                    let mut job = test_job();
                    job.spec.id = JobId((i * 100 + j) as u64);
                    job.spec.memory = MemoryProfile::constant(Bytes::from_mb(ws));
                    n.try_admit(job, SimTime::ZERO).unwrap();
                }
                n
            })
            .collect();
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter(), SimTime::ZERO);
        index
    }

    fn place(policy: &dyn Policy, home: u32, index: &LoadIndex) -> Placement {
        policy.place(&test_job(), NodeId(home), index, &mut SimRng::seed_from(0))
    }

    #[test]
    fn no_load_sharing_sticks_to_home() {
        let index = index_of(&[(0, 0), (3, 10)]);
        assert_eq!(
            place(&NoLoadSharing, 1, &index),
            Placement::Local(NodeId(1))
        );
    }

    #[test]
    fn no_load_sharing_blocks_when_home_is_full() {
        let index = index_of(&[(4, 10), (0, 0)]);
        assert_eq!(place(&NoLoadSharing, 0, &index), Placement::Blocked);
    }

    #[test]
    fn cpu_only_picks_fewest_jobs_ignoring_memory() {
        // Node 1 has fewer jobs but is memory-saturated; CPU-only picks it
        // anyway.
        let index = index_of(&[(3, 10), (1, 140)]);
        assert_eq!(place(&CpuOnly, 0, &index), Placement::Remote(NodeId(1)));
    }

    #[test]
    fn gls_prefers_home_when_qualified() {
        let index = index_of(&[(1, 10), (0, 0)]);
        assert_eq!(place(&GLoadSharing, 0, &index), Placement::Local(NodeId(0)));
    }

    #[test]
    fn gls_goes_remote_when_home_is_memory_saturated() {
        // Home node 0 has no idle memory (140 > 128); node 1 qualifies.
        let index = index_of(&[(1, 140), (1, 10)]);
        assert_eq!(
            place(&GLoadSharing, 0, &index),
            Placement::Remote(NodeId(1))
        );
    }

    #[test]
    fn gls_blocks_when_nothing_qualifies() {
        let index = index_of(&[(1, 140), (2, 70)]);
        assert_eq!(place(&GLoadSharing, 0, &index), Placement::Blocked);
    }

    #[test]
    fn random_places_somewhere_with_a_slot() {
        let index = index_of(&[(4, 10), (1, 10), (1, 10)]);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..20 {
            match Random.place(&test_job(), NodeId(0), &index, &mut rng) {
                Placement::Remote(n) | Placement::Local(n) => {
                    assert_ne!(n, NodeId(0), "node 0 has no slot");
                }
                Placement::Blocked => panic!("slots were available"),
            }
        }
    }

    #[test]
    fn capability_flags() {
        assert!(!NoLoadSharing.migrates_on_overload());
        assert!(!CpuOnly.migrates_on_overload());
        assert!(GLoadSharing.migrates_on_overload());
        assert!(!GLoadSharing.reconfigures());
        assert!(VReconfiguration.reconfigures());
        assert!(SuspendLargest.suspends_on_blocking());
        assert!(!SuspendLargest.reconfigures());
        assert!(!VReconfiguration.suspends_on_blocking());
        assert!(WeightedCpuMem.migrates_on_overload());
        assert!(!WeightedCpuMem.reconfigures());
        assert!(!WeightedCpuMem.commit_aware_placement());
        assert!(!Random.commit_aware_placement());
        assert!(SuspendLargest.commit_aware_placement());
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(PolicyKind::GLoadSharing.to_string(), "G-Loadsharing");
        assert_eq!(
            PolicyKind::VReconfiguration.to_string(),
            "V-Reconfiguration"
        );
    }

    #[test]
    fn vreconfiguration_places_like_gls() {
        let index = index_of(&[(1, 140), (1, 10)]);
        assert_eq!(
            place(&GLoadSharing, 0, &index),
            place(&VReconfiguration, 0, &index)
        );
    }

    #[test]
    fn fractional_slot_cap_oversubscribes() {
        let unit = FractionalParams { oversub: 1.0 };
        assert_eq!(unit.slot_cap(4), 4);
        let double = FractionalParams { oversub: 2.0 };
        assert_eq!(double.slot_cap(4), 8);
        let frac = FractionalParams { oversub: 1.5 };
        assert_eq!(frac.slot_cap(4), 6);
        // floor() never goes below the hardware slots.
        assert_eq!(frac.slot_cap(1), 1);
    }
}
