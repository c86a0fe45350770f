//! The global load index.
//!
//! "Each workstation maintains a global load index file which contains CPU,
//! memory, and I/O load status information of other computing nodes. The
//! load sharing system periodically collects and distributes the load
//! information among the workstations." (§3.3.1)
//!
//! [`LoadIndex`] models that: a snapshot of every node's load, refreshed at
//! the exchange period. Scheduling policies read the *index*, not the live
//! node state, so their decisions suffer the same staleness a real
//! distributed system would.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::ops::Bound;

use serde::{Deserialize, Serialize};

use crate::node::{NodeId, Workstation};
use crate::units::Bytes;

/// One node's entry in the global load index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// Which node.
    pub node: NodeId,
    /// Number of resident jobs.
    pub active_jobs: usize,
    /// Idle user memory.
    pub idle_memory: Bytes,
    /// Demand beyond user memory (being paged).
    pub overflow: Bytes,
    /// `true` if the node is experiencing page faults.
    pub faulting: bool,
    /// `true` if a CPU job slot is free.
    pub has_slot: bool,
    /// `true` if the node is reserved for special service.
    pub reserved: bool,
    /// `false` if the node is crashed. Down nodes report no capacity at all
    /// (no idle memory, no slot) so cluster-wide gauges exclude them.
    pub up: bool,
    /// User memory size (static, but carried for heterogeneity-aware
    /// decisions).
    pub user_memory: Bytes,
}

impl NodeLoad {
    /// Captures a node's current load. The node should have been advanced to
    /// `now` by the caller for exact values.
    ///
    /// A crashed node is captured as contributing nothing: zero jobs, zero
    /// idle memory, no free slot.
    pub fn capture(node: &Workstation) -> NodeLoad {
        if !node.is_up() {
            return NodeLoad {
                node: node.id(),
                active_jobs: 0,
                idle_memory: Bytes::ZERO,
                overflow: Bytes::ZERO,
                faulting: false,
                has_slot: false,
                reserved: node.is_reserved(),
                up: false,
                user_memory: node.params().memory.user,
            };
        }
        let usage = node.memory_usage();
        NodeLoad {
            node: node.id(),
            active_jobs: node.active_jobs(),
            idle_memory: usage.idle(),
            overflow: usage.overflow(),
            faulting: usage.is_oversubscribed(),
            has_slot: node.has_slot(),
            reserved: node.is_reserved(),
            up: true,
            user_memory: usage.user,
        }
    }

    /// The paper's qualification for accepting a submission: idle memory
    /// space, a free job slot, not reserved — and, with fault injection, up.
    pub fn accepts_submissions(&self) -> bool {
        self.up && !self.reserved && self.has_slot && !self.idle_memory.is_zero()
    }
}

/// A periodically refreshed snapshot of every node's load.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadIndex {
    entries: Vec<NodeLoad>,
    /// Cluster-wide idle-memory sum, recomputed once per refresh. Entries
    /// are immutable between refreshes, so the cache cannot go stale; it is
    /// re-derived (not serialized) because it is a pure function of
    /// `entries`. Integer sum: order-independent, exactly equal to a walk.
    #[serde(skip)]
    cached_idle: Bytes,
    /// Cluster-wide user-memory sum, cached like [`LoadIndex::cached_idle`].
    #[serde(skip)]
    cached_user_total: Bytes,
    /// Ordered placement index over the entries that accept submissions,
    /// keyed exactly like the placement comparator: fewest active jobs
    /// first, then most idle memory, then node id. Derived from `entries`
    /// (rebuilt on refresh, not serialized), so it can never disagree with
    /// a linear scan of the snapshot.
    #[serde(skip)]
    placement: BTreeSet<(usize, Reverse<Bytes>, NodeId)>,
    /// Ordered reservation index over up, non-reserved entries, keyed so
    /// the *last* element is the paper's reservation candidate: most idle
    /// memory, then fewest active jobs, then lowest node id.
    #[serde(skip)]
    by_idle: BTreeSet<(Bytes, Reverse<usize>, Reverse<NodeId>)>,
}

fn placement_key(e: &NodeLoad) -> (usize, Reverse<Bytes>, NodeId) {
    (e.active_jobs, Reverse(e.idle_memory), e.node)
}

fn by_idle_key(e: &NodeLoad) -> (Bytes, Reverse<usize>, Reverse<NodeId>) {
    (e.idle_memory, Reverse(e.active_jobs), Reverse(e.node))
}

impl LoadIndex {
    /// An empty index (before the first exchange).
    pub fn new() -> Self {
        LoadIndex::default()
    }

    /// Replaces the index with fresh captures of every node. In-place: the
    /// entry buffer is reused across refreshes (this runs every exchange
    /// tick), and the sort is O(n) for the usual already-ordered input.
    pub fn refresh<'a>(&mut self, nodes: impl IntoIterator<Item = &'a Workstation>) {
        self.entries.clear();
        self.entries
            .extend(nodes.into_iter().map(NodeLoad::capture));
        self.entries.sort_by_key(|e| e.node);
        self.recompute_derived();
    }

    /// Re-derives the cached cluster-wide sums and the ordered query
    /// indices from `entries`. Every path that rebuilds `entries` must end
    /// here.
    fn recompute_derived(&mut self) {
        self.cached_idle = self.entries.iter().map(|e| e.idle_memory).sum();
        self.cached_user_total = self.entries.iter().map(|e| e.user_memory).sum();
        self.placement.clear();
        self.by_idle.clear();
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            self.index_entry(&e);
        }
    }

    /// Adds one entry to the ordered query indices it qualifies for.
    fn index_entry(&mut self, e: &NodeLoad) {
        if e.accepts_submissions() {
            self.placement.insert(placement_key(e));
        }
        if e.up && !e.reserved {
            self.by_idle.insert(by_idle_key(e));
        }
    }

    /// Removes one entry from the ordered query indices.
    fn unindex_entry(&mut self, e: &NodeLoad) {
        if e.accepts_submissions() {
            self.placement.remove(&placement_key(e));
        }
        if e.up && !e.reserved {
            self.by_idle.remove(&by_idle_key(e));
        }
    }

    /// Recaptures only `targets`, leaving every other entry untouched — the
    /// incremental form of [`LoadIndex::refresh`]. Correct whenever every
    /// node whose observable state changed since its last capture is in
    /// `targets`: an untargeted node's state is unchanged, so its existing
    /// entry already equals a fresh capture and the result is identical to
    /// a full refresh at O(changed · log n) instead of O(n) cost.
    ///
    /// Falls back to a full refresh when the index has not been populated
    /// yet (or the cluster size changed under it).
    pub fn refresh_targets(
        &mut self,
        nodes: &[Workstation],
        targets: impl IntoIterator<Item = NodeId>,
    ) {
        if self.entries.len() != nodes.len() {
            self.refresh(nodes.iter());
            return;
        }
        for node in targets {
            let i = node.0 as usize;
            debug_assert_eq!(self.entries[i].node, node, "index entries must be dense");
            let old = self.entries[i];
            let new = NodeLoad::capture(&nodes[i]);
            if new == old {
                continue;
            }
            self.unindex_entry(&old);
            // Integer delta on the cached sum: exact and order-independent,
            // so it lands on the same value a full recompute would.
            self.cached_idle = Bytes::new(
                self.cached_idle.as_u64() + new.idle_memory.as_u64() - old.idle_memory.as_u64(),
            );
            self.cached_user_total = Bytes::new(
                self.cached_user_total.as_u64() + new.user_memory.as_u64()
                    - old.user_memory.as_u64(),
            );
            self.entries[i] = new;
            self.index_entry(&new);
        }
    }

    /// The entry for one node, if present.
    pub fn get(&self, node: NodeId) -> Option<&NodeLoad> {
        self.entries
            .binary_search_by_key(&node, |e| e.node)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// All entries, ordered by node id.
    pub fn iter(&self) -> impl Iterator<Item = &NodeLoad> {
        self.entries.iter()
    }

    /// Number of nodes in the index.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` before the first refresh.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total idle memory accumulated across the cluster — the precondition
    /// gauge for virtual reconfiguration (§2.1).
    pub fn accumulated_idle_memory(&self) -> Bytes {
        debug_assert_eq!(
            self.cached_idle,
            self.entries.iter().map(|e| e.idle_memory).sum::<Bytes>(),
            "cached idle-memory sum out of sync with entries"
        );
        self.cached_idle
    }

    /// Average user memory per workstation (the reconfiguration threshold).
    pub fn average_user_memory(&self) -> Bytes {
        if self.entries.is_empty() {
            return Bytes::ZERO;
        }
        Bytes::new(self.cached_user_total.as_u64() / self.entries.len() as u64)
    }

    /// The best destination for a job needing `demand` idle memory — a
    /// submission or a migration: among entries that accept submissions,
    /// report at least `demand` idle memory, are not `exclude` (the source
    /// node) and pass the caller's `accept` predicate, the one with the
    /// fewest active jobs, then the most idle memory, then the lowest id.
    /// `accept` carries checks that live outside the index, such as
    /// committed capacity; the paper's plain rule is `|_| true`. For a pure
    /// `accept` this equals
    /// `iter().filter(|e| Some(e.node) != exclude && e.accepts_submissions()
    /// && e.idle_memory >= demand && accept(e)).min_by_key(|e|
    /// (e.active_jobs, Reverse(e.idle_memory), e.node))`.
    ///
    /// Entries are offered to `accept` in placement order. Within one
    /// active-jobs bucket they are sorted by descending reported idle
    /// memory, so the walk leaves a bucket as soon as reported idle drops
    /// below `demand`: no later entry of the bucket can pass. With
    /// `|_| true` a query costs at most two probes plus one range seek per
    /// bucket, and the bucket count is bounded by the per-node slot limit,
    /// so it is O(slots · log n). It degenerates to a full scan only when
    /// most entries report enough idle memory yet fail `accept`; the
    /// saturated-cluster case (nothing fits) costs one probe per bucket.
    pub fn best_destination_where(
        &self,
        demand: Bytes,
        exclude: Option<NodeId>,
        mut accept: impl FnMut(&NodeLoad) -> bool,
    ) -> Option<&NodeLoad> {
        let mut from = Bound::Unbounded;
        loop {
            let mut bucket = self.placement.range((from, Bound::Unbounded));
            let &(jobs, Reverse(idle), node) = bucket.next()?;
            if idle >= demand {
                if Some(node) != exclude {
                    if let Some(load) = self.get(node) {
                        if accept(load) {
                            return Some(load);
                        }
                    }
                }
                // Walk the rest of the bucket: same job count, descending
                // reported idle, until reported idle can no longer cover
                // the demand.
                for &(j2, Reverse(i2), n2) in bucket {
                    if j2 != jobs || i2 < demand {
                        break;
                    }
                    if Some(n2) == exclude {
                        continue;
                    }
                    if let Some(load) = self.get(n2) {
                        if accept(load) {
                            return Some(load);
                        }
                    }
                }
            }
            // Every remaining entry in this bucket reports less idle memory
            // than the demand: seek past the bucket. Accepting entries
            // always have non-zero idle memory, so this sentinel sorts
            // strictly after all of them.
            from = Bound::Excluded((jobs, Reverse(Bytes::ZERO), NodeId(u32::MAX)));
        }
    }

    /// All up, non-reserved entries in descending reservation-preference
    /// order (most idle memory, then fewest active jobs, then lowest id).
    /// The first entry is the paper's `reserve_a_workstation()` choice: the
    /// most lightly loaded non-reserved workstation with the largest idle
    /// memory (in a heterogeneous cluster this favours large-memory nodes,
    /// §2.3). Callers apply live-state filters and take the first hit,
    /// which equals a `max_by_key` over the filtered set; feasibility
    /// probes can early-exit as soon as idle memory drops below the
    /// demanded working set.
    pub fn by_idle_desc(&self) -> impl Iterator<Item = &NodeLoad> {
        self.by_idle
            .iter()
            .rev()
            .filter_map(|&(_, _, Reverse(node))| self.get(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuParams;
    use crate::job::{JobClass, JobId, JobSpec, MemoryProfile, RunningJob};
    use crate::memory::{FaultModel, MemoryParams};
    use crate::node::NodeParams;
    use vr_simcore::time::{SimSpan, SimTime};

    fn params(user_mb: u64) -> NodeParams {
        NodeParams {
            cpu: CpuParams::with_slots(4),
            memory: MemoryParams::with_capacity(Bytes::from_mb(user_mb), Bytes::from_mb(user_mb)),
            fault_model: FaultModel::default(),
            protection: Default::default(),
        }
    }

    fn node_with_jobs(id: u32, user_mb: u64, jobs: &[(u64, u64)]) -> Workstation {
        let mut node = Workstation::new(NodeId(id), params(user_mb));
        for &(jid, ws) in jobs {
            node.try_admit(
                RunningJob::new(JobSpec {
                    id: JobId(jid),
                    name: format!("j{jid}"),
                    class: JobClass::CpuIntensive,
                    submit: SimTime::ZERO,
                    cpu_work: SimSpan::from_secs(100),
                    memory: MemoryProfile::constant(Bytes::from_mb(ws)),
                    io_rate: 0.0,
                    malleable: None,
                }),
                SimTime::ZERO,
            )
            .unwrap();
        }
        node
    }

    #[test]
    fn capture_reflects_node_state() {
        let node = node_with_jobs(3, 128, &[(1, 100), (2, 50)]);
        let load = NodeLoad::capture(&node);
        assert_eq!(load.node, NodeId(3));
        assert_eq!(load.active_jobs, 2);
        assert_eq!(load.idle_memory, Bytes::ZERO);
        assert_eq!(load.overflow, Bytes::from_mb(22));
        assert!(load.faulting);
        assert!(load.has_slot);
        assert!(!load.accepts_submissions()); // no idle memory
    }

    #[test]
    fn index_lookup_and_gauges() {
        let nodes = [
            node_with_jobs(0, 128, &[(1, 28)]),
            node_with_jobs(1, 128, &[(2, 100)]),
            node_with_jobs(2, 128, &[]),
        ];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        assert_eq!(index.len(), 3);
        assert_eq!(
            index.get(NodeId(1)).unwrap().idle_memory,
            Bytes::from_mb(28)
        );
        assert!(index.get(NodeId(9)).is_none());
        // 100 + 28 + 128 idle.
        assert_eq!(index.accumulated_idle_memory(), Bytes::from_mb(256));
        assert_eq!(index.average_user_memory(), Bytes::from_mb(128));
    }

    #[test]
    fn best_destination_prefers_light_nodes() {
        let nodes = [
            node_with_jobs(0, 128, &[(1, 10), (2, 10)]),
            node_with_jobs(1, 128, &[(3, 10)]),
            node_with_jobs(2, 128, &[(4, 10)]),
        ];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        // Nodes 1 and 2 tie on job count and idle memory; ties break by id.
        let best = |exclude| index.best_destination_where(Bytes::ZERO, exclude, |_| true);
        assert_eq!(best(None).unwrap().node, NodeId(1));
        assert_eq!(best(Some(NodeId(1))).unwrap().node, NodeId(2));
    }

    #[test]
    fn best_destination_skips_unqualified() {
        let mut full = node_with_jobs(0, 128, &[(1, 5), (2, 5), (3, 5), (4, 5)]);
        full.advance_to(SimTime::ZERO);
        let saturated = node_with_jobs(1, 128, &[(5, 130)]);
        let mut reserved = node_with_jobs(2, 128, &[]);
        reserved.set_reserved(true);
        let nodes = [full, saturated, reserved];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        // No slot / no idle memory / reserved: nothing qualifies.
        assert!(index
            .best_destination_where(Bytes::ZERO, None, |_| true)
            .is_none());
    }

    #[test]
    fn reservation_candidate_maximizes_idle_memory() {
        let nodes = [
            node_with_jobs(0, 128, &[(1, 100)]),
            node_with_jobs(1, 128, &[(2, 20)]),
            node_with_jobs(2, 128, &[(3, 60)]),
        ];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        assert_eq!(index.by_idle_desc().next().unwrap().node, NodeId(1));
    }

    #[test]
    fn reservation_candidate_ignores_already_reserved() {
        let mut best = node_with_jobs(0, 128, &[]);
        best.set_reserved(true);
        let nodes = [best, node_with_jobs(1, 128, &[(1, 64)])];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        assert_eq!(index.by_idle_desc().next().unwrap().node, NodeId(1));
    }

    #[test]
    fn heterogeneous_reservation_prefers_big_memory_nodes() {
        // §2.3: "a reserved workstation will be the one with relatively
        // large physical memory space".
        let nodes = [node_with_jobs(0, 128, &[]), node_with_jobs(1, 384, &[])];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        assert_eq!(index.by_idle_desc().next().unwrap().node, NodeId(1));
    }

    #[test]
    fn down_node_contributes_nothing() {
        let mut down = node_with_jobs(0, 128, &[(1, 30)]);
        down.crash(SimTime::ZERO);
        let nodes = [down, node_with_jobs(1, 128, &[(2, 28)])];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        let entry = index.get(NodeId(0)).unwrap();
        assert!(!entry.up);
        assert_eq!(entry.idle_memory, Bytes::ZERO);
        assert!(!entry.has_slot);
        assert!(!entry.accepts_submissions());
        // Gauges and candidate selection exclude the dead node.
        assert_eq!(index.accumulated_idle_memory(), Bytes::from_mb(100));
        assert_eq!(
            index
                .best_destination_where(Bytes::ZERO, None, |_| true)
                .unwrap()
                .node,
            NodeId(1)
        );
        assert_eq!(index.by_idle_desc().next().unwrap().node, NodeId(1));
    }

    #[test]
    fn empty_index_defaults() {
        let index = LoadIndex::new();
        assert!(index.is_empty());
        assert_eq!(index.accumulated_idle_memory(), Bytes::ZERO);
        assert_eq!(index.average_user_memory(), Bytes::ZERO);
        for demand in [Bytes::ZERO, Bytes::from_mb(1)] {
            assert!(index
                .best_destination_where(demand, None, |_| true)
                .is_none());
        }
        assert_eq!(index.by_idle_desc().count(), 0);
    }

    #[test]
    fn best_destination_respects_demand() {
        let nodes = [
            node_with_jobs(0, 128, &[(1, 10)]),          // 118 MB idle, 1 job
            node_with_jobs(1, 128, &[(2, 100)]),         // 28 MB idle, 1 job
            node_with_jobs(2, 128, &[(3, 10), (4, 10)]), // 108 MB idle, 2 jobs
        ];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        let best = |mb, exclude| {
            index
                .best_destination_where(Bytes::from_mb(mb), exclude, |_| true)
                .map(|e| e.node)
        };
        // Demand 50 MB: node 0 is the only 1-job node that fits.
        assert_eq!(best(50, None), Some(NodeId(0)));
        // Excluding node 0 forces a fall-through to the 2-job bucket.
        assert_eq!(best(50, Some(NodeId(0))), Some(NodeId(2)));
        // Demand nothing can satisfy.
        assert_eq!(best(500, None), None);
    }

    #[test]
    fn ordered_queries_match_linear_scans() {
        let nodes = [
            node_with_jobs(0, 128, &[(1, 10), (2, 10)]),
            node_with_jobs(1, 384, &[(3, 40)]),
            node_with_jobs(2, 128, &[(4, 100)]),
            node_with_jobs(3, 128, &[]),
            node_with_jobs(4, 384, &[(5, 40)]),
        ];
        let mut index = LoadIndex::new();
        index.refresh(nodes.iter());
        for demand_mb in [0, 30, 90, 200, 400] {
            for exclude in [None, Some(NodeId(3)), Some(NodeId(1))] {
                let demand = Bytes::from_mb(demand_mb);
                let linear = index
                    .iter()
                    .filter(|e| {
                        Some(e.node) != exclude
                            && e.accepts_submissions()
                            && e.idle_memory >= demand
                    })
                    .min_by_key(|e| (e.active_jobs, Reverse(e.idle_memory), e.node))
                    .map(|e| e.node);
                let indexed = index
                    .best_destination_where(demand, exclude, |_| true)
                    .map(|e| e.node);
                assert_eq!(indexed, linear, "demand {demand_mb} MB exclude {exclude:?}");
            }
        }
        // The reservation walk sweeps its comparator order exactly, over
        // exactly the up, unreserved entries.
        let mut linear_res: Vec<&NodeLoad> = index.iter().filter(|e| e.up && !e.reserved).collect();
        linear_res
            .sort_by_key(|e| Reverse((e.idle_memory, Reverse(e.active_jobs), Reverse(e.node))));
        let walked: Vec<NodeId> = index.by_idle_desc().map(|e| e.node).collect();
        assert_eq!(
            walked,
            linear_res.iter().map(|e| e.node).collect::<Vec<_>>()
        );
    }

    #[test]
    fn refresh_targets_matches_full_refresh() {
        let mut nodes = vec![
            node_with_jobs(0, 128, &[(1, 28)]),
            node_with_jobs(1, 128, &[]),
            node_with_jobs(2, 384, &[(2, 60)]),
            node_with_jobs(3, 128, &[(3, 100)]),
        ];
        let mut index = LoadIndex::new();
        // Unpopulated index: refresh_targets falls back to a full refresh.
        index.refresh_targets(&nodes, []);
        assert_eq!(index.len(), 4);
        // Churn a subset of nodes: a crash, a reservation, and an admission.
        nodes[0].crash(SimTime::from_secs(1));
        nodes[1].set_reserved(true);
        nodes[2]
            .try_admit(
                RunningJob::new(JobSpec {
                    id: JobId(9),
                    name: "j9".into(),
                    class: JobClass::CpuIntensive,
                    submit: SimTime::ZERO,
                    cpu_work: SimSpan::from_secs(50),
                    memory: MemoryProfile::constant(Bytes::from_mb(30)),
                    io_rate: 0.0,
                    malleable: None,
                }),
                SimTime::from_secs(1),
            )
            .unwrap();
        index.refresh_targets(&nodes, [NodeId(0), NodeId(1), NodeId(2)]);
        let mut full = LoadIndex::new();
        full.refresh(nodes.iter());
        assert_eq!(index, full);
        // Recovery churn: restart the crashed node and release the flag.
        nodes[0].restart(SimTime::from_secs(2));
        nodes[1].set_reserved(false);
        index.refresh_targets(&nodes, [NodeId(0), NodeId(1)]);
        let mut full = LoadIndex::new();
        full.refresh(nodes.iter());
        assert_eq!(index, full);
    }
}
