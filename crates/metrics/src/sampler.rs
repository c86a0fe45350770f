//! Periodic cluster gauges: idle memory volume and job balance skew.
//!
//! §4.1: "We collect the total idle memory volume in the cluster every
//! second to calculate the average amount of idle memory space during the
//! entire lifetime." §4.2: "We collect the number of active jobs in each
//! workstation every second to calculate the standard deviation of the
//! number of active jobs among all non-reserved workstations at this moment.
//! This standard deviation gives the job balance skew."
//!
//! [`ClusterGauges`] records both series; the simulation driver calls
//! [`ClusterGauges::sample`] on its sampling event.

use serde::{Deserialize, Serialize};
use vr_cluster::node::Workstation;
use vr_cluster::units::Bytes;
use vr_simcore::series::TimeSeries;
use vr_simcore::stats::OnlineStats;
use vr_simcore::time::SimTime;

/// Population standard deviation of active-job counts across the given
/// (non-reserved) workstations — the paper's per-instant job balance skew.
pub fn balance_skew(active_jobs: &[usize]) -> f64 {
    active_jobs
        .iter()
        .map(|&n| n as f64)
        .collect::<OnlineStats>()
        .population_std_dev()
}

/// Periodically sampled cluster-wide gauges.
///
/// Reserved workstations are *virtually removed* from the cluster for the
/// duration of their special service, so — exactly as the paper does for the
/// job balance skew — the idle-memory and skew gauges measure the
/// non-reserved (virtual) cluster. The physical total including reserved
/// nodes is kept alongside for ablation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterGauges {
    /// Total idle memory across non-reserved workstations, in MB, per
    /// sample (the paper's "average idle memory volume" gauge).
    pub idle_memory_mb: TimeSeries,
    /// Total idle memory across *all* workstations, reserved included, in
    /// MB, per sample.
    pub physical_idle_memory_mb: TimeSeries,
    /// Job balance skew across non-reserved workstations, per sample.
    pub balance_skew: TimeSeries,
    /// Number of reserved workstations, per sample.
    pub reserved_nodes: TimeSeries,
    /// Number of jobs waiting in the cluster pending queue, per sample.
    pub pending_jobs: TimeSeries,
}

impl ClusterGauges {
    /// An empty gauge set.
    pub fn new() -> Self {
        ClusterGauges::default()
    }

    /// Samples all gauges from the given workstations. Nodes should be
    /// advanced to `now` by the caller for exact working-set values.
    pub fn sample<'a>(
        &mut self,
        nodes: impl IntoIterator<Item = &'a Workstation>,
        pending_jobs: usize,
        now: SimTime,
    ) {
        let mut idle = Bytes::ZERO;
        let mut physical_idle = Bytes::ZERO;
        let mut reserved = 0usize;
        // The skew accumulates in the node pass itself: the same Welford
        // pushes, in the same order, that `balance_skew` makes over the
        // collected counts, so the same bits without a per-sample buffer.
        let mut skew = OnlineStats::new();
        for node in nodes {
            physical_idle += node.idle_memory();
            if node.is_reserved() {
                reserved += 1;
            } else {
                idle += node.idle_memory();
                skew.push(node.active_jobs() as f64);
            }
        }
        self.idle_memory_mb.push(now, idle.as_mb_f64());
        self.physical_idle_memory_mb
            .push(now, physical_idle.as_mb_f64());
        self.balance_skew.push(now, skew.population_std_dev());
        self.reserved_nodes.push(now, reserved as f64);
        self.pending_jobs.push(now, pending_jobs as f64);
    }

    /// The paper's "average idle memory volume" (MB) over the run.
    pub fn avg_idle_memory_mb(&self) -> f64 {
        self.idle_memory_mb.sample_average()
    }

    /// The paper's "average job balance skew" over the run.
    pub fn avg_balance_skew(&self) -> f64 {
        self.balance_skew.sample_average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_cluster::cpu::CpuParams;
    use vr_cluster::job::{JobClass, JobId, JobSpec, MemoryProfile, RunningJob};
    use vr_cluster::memory::{FaultModel, MemoryParams};
    use vr_cluster::node::{NodeId, NodeParams};
    use vr_simcore::time::SimSpan;

    #[test]
    fn skew_of_balanced_cluster_is_zero() {
        assert_eq!(balance_skew(&[3, 3, 3, 3]), 0.0);
        assert_eq!(balance_skew(&[]), 0.0);
    }

    #[test]
    fn skew_grows_with_imbalance() {
        let balanced = balance_skew(&[2, 2, 2, 2]);
        let mild = balance_skew(&[1, 2, 3, 2]);
        let severe = balance_skew(&[0, 0, 0, 8]);
        assert!(balanced < mild && mild < severe);
        // [0,0,0,8]: mean 2, var (4+4+4+36)/4 = 12.
        assert!((severe - 12f64.sqrt()).abs() < 1e-12);
    }

    fn node(id: u32, jobs: usize, reserved: bool) -> Workstation {
        let mut n = Workstation::new(
            NodeId(id),
            NodeParams {
                cpu: CpuParams::with_slots(16),
                memory: MemoryParams::with_capacity(Bytes::from_mb(128), Bytes::from_mb(128)),
                fault_model: FaultModel::default(),
                protection: Default::default(),
            },
        );
        for j in 0..jobs {
            n.try_admit(
                RunningJob::new(JobSpec {
                    id: JobId((id as u64) << 16 | j as u64),
                    name: "x".into(),
                    class: JobClass::CpuIntensive,
                    submit: SimTime::ZERO,
                    cpu_work: SimSpan::from_secs(100),
                    memory: MemoryProfile::constant(Bytes::from_mb(10)),
                    io_rate: 0.0,
                    malleable: None,
                }),
                SimTime::ZERO,
            )
            .unwrap();
        }
        n.set_reserved(reserved);
        n
    }

    #[test]
    fn sample_records_all_gauges() {
        let nodes = [node(0, 2, false), node(1, 0, true), node(2, 4, false)];
        let mut g = ClusterGauges::new();
        g.sample(nodes.iter(), 7, SimTime::from_secs(1));
        g.sample(nodes.iter(), 3, SimTime::from_secs(2));
        assert_eq!(g.idle_memory_mb.len(), 2);
        // Virtual-cluster idle excludes the reserved node:
        // (128-20) + (128-40) = 196 MB.
        assert!((g.avg_idle_memory_mb() - 196.0).abs() < 1e-9);
        // The physical gauge includes it: 196 + 128 = 324 MB.
        assert!((g.physical_idle_memory_mb.sample_average() - 324.0).abs() < 1e-9);
        // skew over non-reserved [2, 4]: std dev 1.
        assert!((g.avg_balance_skew() - 1.0).abs() < 1e-12);
        assert_eq!(g.reserved_nodes.sample_average(), 1.0);
        assert_eq!(g.pending_jobs.sample_average(), 5.0);
    }

    #[test]
    fn sampled_skew_is_bit_identical_to_balance_skew() {
        // Uneven counts whose variance is not a round number, with reserved
        // nodes interleaved, so any change to which counts are pushed, or
        // in what order, shows in the low bits.
        let nodes = [
            node(0, 3, false),
            node(1, 0, false),
            node(2, 5, true),
            node(3, 1, false),
            node(4, 7, false),
            node(5, 2, true),
            node(6, 4, false),
            node(7, 11, false),
            node(8, 6, false),
        ];
        let counts: Vec<usize> = nodes
            .iter()
            .filter(|n| !n.is_reserved())
            .map(|n| n.active_jobs())
            .collect();
        assert_eq!(counts, [3, 0, 1, 7, 4, 11, 6]);
        let mut g = ClusterGauges::new();
        g.sample(nodes.iter(), 0, SimTime::from_secs(1));
        let (_, sampled) = g.balance_skew.last().unwrap();
        assert_eq!(sampled.to_bits(), balance_skew(&counts).to_bits());
    }

    #[test]
    fn reserved_nodes_excluded_from_skew() {
        // One heavily loaded reserved node must not count as imbalance.
        let nodes = [node(0, 2, false), node(1, 2, false), node(2, 8, true)];
        let mut g = ClusterGauges::new();
        g.sample(nodes.iter(), 0, SimTime::from_secs(1));
        assert_eq!(g.avg_balance_skew(), 0.0);
    }
}
