//! Simulation configuration.

use serde::{Deserialize, Serialize};
use vr_cluster::netram::NetworkRamParams;
use vr_cluster::params::ClusterParams;
use vr_faults::FaultPlan;
use vr_simcore::time::SimSpan;

use crate::plugin::{build_policy, ParamBag};
use crate::policy::PolicyKind;

/// How the cluster-level queue of blocked submissions is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PendingDiscipline {
    /// Strict FIFO: a blocked job at the head blocks everything behind it.
    /// This is what "job submissions ... will be blocked" means in the
    /// paper — and it is what makes the blocking problem expensive: one
    /// large job at the head strands idle memory across the whole cluster
    /// ("there are still large accumulated idle memory space volumes
    /// available among the workstations"). It is also the fair choice the
    /// paper cares about (large jobs must not starve).
    Fifo,
    /// Out-of-order backfill: any queued job that fits somewhere is placed.
    /// A stronger (unfair) baseline used for ablation; it keeps memory
    /// saturated and starves large jobs behind a stream of small ones.
    Backfill,
}

/// When a reserving period ends (§2.1 describes both variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReservingEnd {
    /// The period lasts until every job already running on the reserved
    /// workstation completes (the paper's primary definition).
    AllJobsComplete,
    /// "One alternative is to end the reserving period as soon as the
    /// available memory space in the reserved workstation is sufficiently
    /// large for a job migration with large memory demand."
    EnoughMemory,
}

/// Tunables of the virtual-reconfiguration routine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReservationOptions {
    /// When the reserving period ends.
    pub end_condition: ReservingEnd,
    /// Ceiling on the fraction of workstations that may be reserved at
    /// once, protecting normal jobs when big jobs are dominant (§2.2,
    /// point 4).
    pub max_reserved_fraction: f64,
    /// "If a workstation can not be reserved within a pre-determined time
    /// interval, it implies that the cluster is truly heavily loaded"
    /// (§2.3) — the reservation is abandoned after this long in the
    /// reserving phase.
    pub reserve_timeout: SimSpan,
}

impl Default for ReservationOptions {
    fn default() -> Self {
        ReservationOptions {
            end_condition: ReservingEnd::AllJobsComplete,
            max_reserved_fraction: 0.25,
            reserve_timeout: SimSpan::from_secs(300),
        }
    }
}

impl ReservationOptions {
    /// Maximum simultaneously reserved workstations for a cluster of
    /// `cluster_size` (always at least 1).
    pub fn max_reserved(&self, cluster_size: usize) -> usize {
        ((cluster_size as f64 * self.max_reserved_fraction).floor() as usize).max(1)
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The cluster to simulate.
    pub cluster: ClusterParams,
    /// The inter-workstation scheduling policy.
    pub policy: PolicyKind,
    /// Parameters handed to the policy's registry builder (see
    /// [`ParamBag`]); the empty bag means every family's defaults. An
    /// invalid bag is a [`SimConfig::validate`] error.
    #[serde(default)]
    pub policy_params: ParamBag,
    /// Virtual-reconfiguration tunables (only used by
    /// [`PolicyKind::VReconfiguration`]).
    pub reservation: ReservationOptions,
    /// Gauge sampling period (1 s in the paper; §4.1 shows the averages are
    /// insensitive to it).
    pub sample_period: SimSpan,
    /// How often blocked (pending) jobs are re-attempted, in addition to
    /// retries on every completion.
    pub pending_retry_period: SimSpan,
    /// Service order of the blocked-submission queue.
    pub pending_discipline: PendingDiscipline,
    /// Optional network-RAM extension (§2.3 / ref \[12]): when set, nodes
    /// whose overflow fits the cluster's accumulated idle memory page to
    /// remote RAM at this service time instead of local disk.
    pub network_ram: Option<NetworkRamParams>,
    /// Overflow fraction of user memory above which a node is treated as
    /// seriously faulting and the scheduler intervenes (the "certain amount
    /// of page faults" trigger).
    pub overload_threshold: f64,
    /// RNG seed; identical configs and seeds produce identical reports.
    pub seed: u64,
    /// Safety horizon: the run aborts (reporting unfinished jobs) if the
    /// simulated clock passes this span.
    pub max_sim_time: SimSpan,
    /// Optional fault plan injected into the run (crashes, migration
    /// failures, load-information loss, reservation stalls). `None` and an
    /// empty plan are equivalent — and bit-identical in output.
    pub fault_plan: Option<FaultPlan>,
    /// When `true`, an invariant auditor checks the world after every event
    /// and records violations in [`RunReport::audit_violations`].
    ///
    /// [`RunReport::audit_violations`]: crate::report::RunReport::audit_violations
    pub audit: bool,
    /// How fresh each node's entry in the global load vector is. The paper
    /// assumes a perfect 1-second global exchange; at thousands of nodes
    /// that all-to-all broadcast is the first thing operators shed, so this
    /// knob models bounded-age load information (§6 discussion of scalable
    /// load sharing).
    #[serde(default)]
    pub load_info: LoadInfoMode,
    /// Whether placement accounts for capacity already committed to
    /// in-flight submissions and migrations.
    #[serde(default)]
    pub placement: PlacementMode,
}

/// How placement treats capacity that is committed but not yet resident.
///
/// The paper's scheduler places against the last load-information snapshot
/// and lets races resolve at admission — fine at 32 workstations, where at
/// most a couple of submissions share a snapshot. At thousands of nodes a
/// single exchange interval sees many arrivals, every one of which picks
/// the *same* least-loaded workstation; the losers bounce back to the
/// blocked queue and retry, and each retry pass floods the same target
/// again. Event volume then grows with (backlog × retries) — quadratic in
/// practice — which is what breaks large runs, not the per-event index
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlacementMode {
    /// Place against the raw snapshot; admission races re-queue the loser
    /// (the paper's behaviour, and the default).
    #[default]
    Optimistic,
    /// Subtract in-flight (committed but not yet arrived) demand and job
    /// slots from each candidate — the same accounting migration-target
    /// selection already uses — so concurrent placements spread instead of
    /// piling onto one workstation. Applies to the families whose
    /// [`Policy::commit_aware_placement`] is `true` — G-LS and every family
    /// placing like it (V-R, suspension, malleable, fractional); the
    /// no-sharing, random, CPU-only and weighted baselines ignore it.
    ///
    /// [`Policy::commit_aware_placement`]: crate::policy::Policy::commit_aware_placement
    CommitAware,
}

/// Freshness model for the global load-information exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LoadInfoMode {
    /// Every workstation's load vector entry is recaptured at every
    /// exchange tick — the paper's idealized global exchange.
    #[default]
    Global,
    /// Workstations report in rotating groups: node `i` is recaptured only
    /// at ticks `t` with `i % groups == t % groups`, so an entry can be up
    /// to `groups` exchange periods stale. `groups == 1` is byte-identical
    /// to [`LoadInfoMode::Global`]. Models the bounded-age load vectors a
    /// real cluster gets from staggered or gossip-style dissemination,
    /// generalizing the transient `load-info loss` fault into a standing
    /// policy.
    Staggered {
        /// Number of reporting groups (must be non-zero).
        groups: u32,
    },
}

impl SimConfig {
    /// A configuration with paper-standard knobs for the given cluster and
    /// policy.
    pub fn new(cluster: ClusterParams, policy: PolicyKind) -> Self {
        SimConfig {
            cluster,
            policy,
            policy_params: ParamBag::new(),
            reservation: ReservationOptions::default(),
            sample_period: SimSpan::from_secs(1),
            pending_retry_period: SimSpan::from_secs(1),
            pending_discipline: PendingDiscipline::Fifo,
            network_ram: None,
            overload_threshold: 0.02,
            seed: 0x5eed,
            max_sim_time: SimSpan::from_secs(200_000),
            fault_plan: None,
            audit: false,
            load_info: LoadInfoMode::default(),
            placement: PlacementMode::default(),
        }
    }

    /// Returns the config with the network-RAM extension enabled, deriving
    /// the remote fault service from the cluster's interconnect
    /// (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the cluster's network bandwidth is not strictly positive
    /// (see [`NetworkRamParams::over`]).
    pub fn with_network_ram(mut self) -> Self {
        let page = self
            .cluster
            .nodes
            .first()
            .map(|n| n.memory.page_size)
            .unwrap_or(vr_cluster::units::Bytes::from_kb(4));
        self.network_ram = Some(NetworkRamParams::over(&self.cluster.network, page));
        self
    }

    /// Returns the config with a different seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with the given policy parameter bag
    /// (builder-style); validated by [`SimConfig::validate`].
    pub fn with_policy_params(mut self, params: ParamBag) -> Self {
        self.policy_params = params;
        self
    }

    /// Returns the config with the given load-information freshness model
    /// (see [`LoadInfoMode`]) — builder-style.
    pub fn with_load_info(mut self, load_info: LoadInfoMode) -> Self {
        self.load_info = load_info;
        self
    }

    /// Returns the config with the given placement commitment mode (see
    /// [`PlacementMode`]) — builder-style.
    pub fn with_placement(mut self, placement: PlacementMode) -> Self {
        self.placement = placement;
        self
    }

    /// Returns the config with different reservation options
    /// (builder-style).
    pub fn with_reservation(mut self, reservation: ReservationOptions) -> Self {
        self.reservation = reservation;
        self
    }

    /// Returns the config with a fault plan injected (builder-style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Returns the config with invariant auditing switched on or off
    /// (builder-style).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Overrides the safety horizon. A run stopping at this horizon with
    /// events still queued reports `run_stats.drained == false` — its
    /// measurements are truncated and consumers must flag it.
    pub fn with_max_sim_time(mut self, horizon: SimSpan) -> Self {
        self.max_sim_time = horizon;
        self
    }

    /// Checks the configuration for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cluster.nodes.is_empty() {
            return Err("cluster has no workstations".into());
        }
        // Building the policy plugin validates the parameter bag (unknown
        // keys, unparsable or out-of-range values).
        build_policy(self.policy, &self.policy_params)?;
        if self.sample_period.is_zero() {
            return Err("sample period must be non-zero".into());
        }
        if self.pending_retry_period.is_zero() {
            return Err("pending retry period must be non-zero".into());
        }
        if self.cluster.load_exchange_period.is_zero() {
            return Err("load exchange period must be non-zero".into());
        }
        if !(0.0..1.0).contains(&self.overload_threshold) {
            return Err(format!(
                "overload threshold must be in [0, 1), got {}",
                self.overload_threshold
            ));
        }
        if !(0.0..=1.0).contains(&self.reservation.max_reserved_fraction) {
            return Err(format!(
                "max reserved fraction must be in [0, 1], got {}",
                self.reservation.max_reserved_fraction
            ));
        }
        if self.reservation.reserve_timeout.is_zero() {
            return Err("reserve timeout must be non-zero".into());
        }
        if self.max_sim_time.is_zero() {
            return Err("max simulation time must be non-zero".into());
        }
        if let LoadInfoMode::Staggered { groups } = self.load_info {
            if groups == 0 {
                return Err("staggered load info needs at least one group".into());
            }
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
            for crash in &plan.node_crashes {
                if crash.node >= self.cluster.nodes.len() {
                    return Err(format!(
                        "fault plan crashes node {} but the cluster has {} workstations",
                        crash.node,
                        self.cluster.nodes.len()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Overflow bytes above which a node counts as overloaded.
    pub fn overload_bytes(&self, user: vr_cluster::units::Bytes) -> vr_cluster::units::Bytes {
        user.mul_f64(self.overload_threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::units::Bytes;

    #[test]
    fn defaults_match_paper_constants() {
        let cfg = SimConfig::new(ClusterParams::cluster1(), PolicyKind::VReconfiguration);
        assert_eq!(cfg.sample_period, SimSpan::from_secs(1));
        assert_eq!(cfg.reservation.end_condition, ReservingEnd::AllJobsComplete);
        assert!(cfg.reservation.max_reserved_fraction <= 0.5);
    }

    #[test]
    fn max_reserved_scales_with_cluster() {
        let opts = ReservationOptions {
            max_reserved_fraction: 0.25,
            ..ReservationOptions::default()
        };
        assert_eq!(opts.max_reserved(32), 8);
        assert_eq!(opts.max_reserved(4), 1);
        assert_eq!(opts.max_reserved(1), 1); // floor clamps to 1
    }

    #[test]
    fn builder_helpers() {
        let cfg = SimConfig::new(ClusterParams::cluster2(), PolicyKind::GLoadSharing)
            .with_seed(99)
            .with_reservation(ReservationOptions {
                end_condition: ReservingEnd::EnoughMemory,
                ..ReservationOptions::default()
            });
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.reservation.end_condition, ReservingEnd::EnoughMemory);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_nonsense() {
        let good = SimConfig::new(ClusterParams::cluster1(), PolicyKind::VReconfiguration);
        good.validate().unwrap();
        let mut bad = good.clone();
        bad.sample_period = SimSpan::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.overload_threshold = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.reservation.max_reserved_fraction = -0.1;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.cluster.nodes.clear();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_checks_fault_plan_against_cluster() {
        use vr_simcore::time::SimTime;
        let base = SimConfig::new(ClusterParams::cluster1(), PolicyKind::VReconfiguration);
        let in_range =
            base.clone()
                .with_faults(FaultPlan::none().with_crash(0, SimTime::from_secs(1), None));
        in_range.validate().unwrap();
        let nodes = in_range.cluster.nodes.len();
        let out_of_range = base.clone().with_faults(FaultPlan::none().with_crash(
            nodes,
            SimTime::from_secs(1),
            None,
        ));
        assert!(out_of_range.validate().is_err());
        let bad_prob = base.with_faults(FaultPlan::none().with_migration_failures(2.0));
        assert!(bad_prob.validate().is_err());
    }

    #[test]
    fn overload_bytes_scales_user_memory() {
        let cfg = SimConfig::new(ClusterParams::cluster2(), PolicyKind::GLoadSharing);
        let b = cfg.overload_bytes(Bytes::from_mb(100));
        assert_eq!(b, Bytes::from_mb(2));
    }
}
