//! Property-based invariants of the workstation model. Case `i` of a
//! property draws its inputs from `SimRng::seed_from(K).fork(i)`.

use vr_cluster::cpu::CpuParams;
use vr_cluster::job::{JobClass, JobId, JobSpec, MemoryProfile, RunningJob};
use vr_cluster::memory::{FaultModel, MemoryParams};
use vr_cluster::node::{NodeId, NodeParams, Workstation};
use vr_cluster::units::Bytes;
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};

#[derive(Debug, Clone)]
struct JobDesc {
    ws_mb: u64,
    work_secs: f64,
    ramp: bool,
}

fn job_desc(rng: &mut SimRng) -> JobDesc {
    JobDesc {
        ws_mb: 4 + rng.index(116) as u64,
        work_secs: rng.uniform_range(5.0, 300.0),
        ramp: rng.next_u64() & 1 == 1,
    }
}

fn build_job(id: u64, desc: &JobDesc) -> RunningJob {
    let peak = Bytes::from_mb(desc.ws_mb);
    let memory = if desc.ramp {
        MemoryProfile::from_phases(vec![
            (
                SimSpan::from_secs_f64(desc.work_secs * 0.25),
                peak.mul_f64(0.3),
            ),
            (SimSpan::MAX, peak),
        ])
        .expect("increasing boundaries")
    } else {
        MemoryProfile::constant(peak)
    };
    RunningJob::new(JobSpec {
        id: JobId(id),
        name: format!("p{id}"),
        class: JobClass::CpuIntensive,
        submit: SimTime::ZERO,
        cpu_work: SimSpan::from_secs_f64(desc.work_secs),
        memory,
        io_rate: 0.0,
        malleable: None,
    })
}

fn node(kappa: f64) -> Workstation {
    Workstation::new(
        NodeId(0),
        NodeParams {
            cpu: CpuParams::with_slots(16),
            memory: MemoryParams::with_capacity(Bytes::from_mb(128), Bytes::from_mb(4096)),
            fault_model: FaultModel::LinearOverflow { kappa },
            protection: Default::default(),
        },
    )
}

/// A job whose working set steps through up to five phases, each boundary
/// a fraction of its CPU work.
fn phased_job(rng: &mut SimRng) -> RunningJob {
    let work_secs = rng.uniform_range(5.0, 300.0);
    let last_mb = 4 + rng.index(116) as u64;
    let mut phases: Vec<(SimSpan, Bytes)> = (0..rng.index(5))
        .map(|_| {
            let f = rng.uniform_range(0.02, 0.98);
            let mb = 4 + rng.index(116) as u64;
            (SimSpan::from_secs_f64(work_secs * f), Bytes::from_mb(mb))
        })
        .collect();
    phases.sort_by_key(|&(until, _)| until);
    phases.dedup_by_key(|&mut (until, _)| until);
    phases.push((SimSpan::MAX, Bytes::from_mb(last_mb)));
    RunningJob::new(JobSpec {
        id: JobId(0),
        name: "phased".to_owned(),
        class: JobClass::CpuIntensive,
        submit: SimTime::ZERO,
        cpu_work: SimSpan::from_secs_f64(work_secs),
        memory: MemoryProfile::from_phases(phases).expect("sorted, deduplicated"),
        io_rate: 0.0,
        malleable: None,
    })
}

/// The phase memo is invisible: after arbitrary `advance_to` steps,
/// every resident job's working set and next phase boundary equal a
/// memo-free `phase_at` lookup of its progress, on the first read and
/// again on a second read at unchanged progress (the memo's exact-bits
/// path).
#[test]
fn phase_memo_matches_fresh_lookup() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(1).fork(case);
        let jobs: Vec<RunningJob> = (0..1 + rng.index(7))
            .map(|_| phased_job(&mut rng))
            .collect();
        let steps: Vec<u64> = (0..1 + rng.index(11))
            .map(|_| 1 + rng.index(39_999_999) as u64)
            .collect();
        let kappa = rng.uniform_range(0.5, 8.0);
        let mut node = node(kappa);
        for (i, mut job) in jobs.into_iter().enumerate() {
            job.spec.id = JobId(i as u64);
            node.try_admit(job, SimTime::ZERO).unwrap();
        }
        let mut t = 0;
        for step in steps {
            t += step;
            node.advance_to(SimTime::from_micros(t));
            for job in node.jobs() {
                let (until, working_set) = job.spec.memory.phase_at(job.progress());
                let boundary = (until != SimSpan::MAX).then_some(until);
                for _ in 0..2 {
                    assert_eq!(job.current_working_set(), working_set);
                    assert_eq!(job.next_phase_boundary(), boundary);
                }
            }
        }
    }
}

/// Each resident job's breakdown always sums to its wall-clock
/// residency, regardless of load, phases, or fault pressure.
#[test]
fn breakdown_equals_residency() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(2).fork(case);
        let descs: Vec<JobDesc> = (0..1 + rng.index(9)).map(|_| job_desc(&mut rng)).collect();
        let horizon = 1 + rng.index(1_999) as u64;
        let kappa = rng.uniform_range(0.5, 8.0);
        let mut node = node(kappa);
        for (i, d) in descs.iter().enumerate() {
            node.try_admit(build_job(i as u64, d), SimTime::ZERO)
                .unwrap();
        }
        node.advance_to(SimTime::from_secs(horizon));
        for job in node.jobs() {
            let wall = job.breakdown.wall();
            assert!(
                (wall - horizon as f64).abs() < 1e-6,
                "resident job wall {wall} vs horizon {horizon}"
            );
        }
        for job in node.take_completed() {
            let done = job.completed_at.unwrap().as_secs_f64();
            assert!((job.breakdown.wall() - done).abs() < 1e-6);
            // A completed job consumed exactly its CPU work.
            assert!((job.breakdown.cpu - job.spec.cpu_work.as_secs_f64()).abs() < 1e-6);
        }
    }
}

/// Advancing in one step or in many arbitrary steps gives identical
/// progress (the lazy integrator is self-consistent).
#[test]
fn advancement_is_step_invariant() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(3).fork(case);
        let descs: Vec<JobDesc> = (0..1 + rng.index(5)).map(|_| job_desc(&mut rng)).collect();
        let cuts: Vec<u64> = (0..1 + rng.index(7))
            .map(|_| 1 + rng.index(499) as u64)
            .collect();
        let total: u64 = cuts.iter().sum();
        let mut one_shot = node(4.0);
        let mut stepped = node(4.0);
        for (i, d) in descs.iter().enumerate() {
            one_shot
                .try_admit(build_job(i as u64, d), SimTime::ZERO)
                .unwrap();
            stepped
                .try_admit(build_job(i as u64, d), SimTime::ZERO)
                .unwrap();
        }
        one_shot.advance_to(SimTime::from_secs(total));
        let mut t = 0;
        for c in &cuts {
            t += c;
            stepped.advance_to(SimTime::from_secs(t));
        }
        let a = one_shot.take_completed();
        let b = stepped.take_completed();
        assert_eq!(a.len(), b.len());
        for job in one_shot.jobs() {
            let twin = stepped
                .jobs()
                .iter()
                .find(|j| j.id() == job.id())
                .expect("same resident set");
            assert!(
                (job.progress_secs - twin.progress_secs).abs() < 1e-6,
                "progress diverged: {} vs {}",
                job.progress_secs,
                twin.progress_secs
            );
        }
    }
}

/// Progress is monotone and never exceeds the job's total work.
#[test]
fn progress_is_monotone_and_bounded() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(4).fork(case);
        let descs: Vec<JobDesc> = (0..1 + rng.index(5)).map(|_| job_desc(&mut rng)).collect();
        let steps: Vec<u64> = (0..1 + rng.index(9))
            .map(|_| 1 + rng.index(199) as u64)
            .collect();
        let mut node = node(4.0);
        for (i, d) in descs.iter().enumerate() {
            node.try_admit(build_job(i as u64, d), SimTime::ZERO)
                .unwrap();
        }
        let mut last: std::collections::BTreeMap<JobId, f64> = Default::default();
        let mut t = 0;
        for s in &steps {
            t += s;
            node.advance_to(SimTime::from_secs(t));
            for job in node.jobs() {
                let prev = last.insert(job.id(), job.progress_secs).unwrap_or(0.0);
                assert!(job.progress_secs + 1e-9 >= prev);
                assert!(job.progress_secs <= job.spec.cpu_work.as_secs_f64() + 1e-6);
            }
        }
    }
}

/// The fault model's stall factors are non-negative, finite, and scale
/// monotonically with each job's working-set share.
#[test]
fn stall_factors_are_sane() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(5).fork(case);
        let ws: Vec<u64> = (0..1 + rng.index(11))
            .map(|_| 1 + rng.index(511) as u64)
            .collect();
        let user_mb = 32 + rng.index(480) as u64;
        let kappa = rng.uniform_range(0.1, 16.0);
        let sets: Vec<Bytes> = ws.iter().map(|m| Bytes::from_mb(*m)).collect();
        let model = FaultModel::LinearOverflow { kappa };
        let factors = model.stall_factors(&sets, Bytes::from_mb(user_mb));
        assert_eq!(factors.len(), sets.len());
        for f in &factors {
            assert!(f.is_finite() && *f >= 0.0);
        }
        // Bigger working set never stalls less.
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                if sets[i] > sets[j] {
                    assert!(factors[i] >= factors[j] - 1e-12);
                }
            }
        }
    }
}

/// Migration cost is monotone in image size and bounded below by the
/// fixed remote-submission cost.
#[test]
fn migration_cost_is_monotone() {
    for case in 0..256 {
        let mut rng = SimRng::seed_from(6).fork(case);
        let a = rng.index(1_000_000_000) as u64;
        let b = rng.index(1_000_000_000) as u64;
        let net = vr_cluster::network::NetworkParams::ethernet_10mbps();
        let ca = net.migration_cost(Bytes::new(a));
        let cb = net.migration_cost(Bytes::new(b));
        assert!(ca >= net.remote_submit_cost);
        if a <= b {
            assert!(ca <= cb);
        }
    }
}

// ---- ordered load-index equivalence -----------------------------------
//
// The O(log n) placement/reservation indices must be *observationally
// equivalent* to the linear scans they replaced: on any snapshot, the
// placement walk returns exactly the entry a filtered min scan over the
// same snapshot returns, the reservation walk yields exactly the sorted
// scan, and the incremental `refresh_targets` lands on
// exactly the state a from-scratch `refresh` produces. Random worlds with
// admission, completion-by-advance, crash/restart churn, and reservations
// drive both claims.

use std::cmp::Reverse;
use vr_cluster::loadinfo::{LoadIndex, NodeLoad};

#[derive(Debug, Clone)]
enum IndexOp {
    Admit {
        node: u32,
        ws_mb: u64,
        work_secs: f64,
    },
    RemoveFirst {
        node: u32,
    },
    Advance {
        secs: u64,
    },
    Crash {
        node: u32,
    },
    Restart {
        node: u32,
    },
    Reserve {
        node: u32,
        on: bool,
    },
}

fn index_op(rng: &mut SimRng) -> IndexOp {
    let kind = rng.index(13);
    let node = rng.next_u64() as u32;
    let ws_mb = 4 + rng.index(256) as u64;
    let work_secs = rng.uniform_range(5.0, 200.0);
    let secs = 1 + rng.index(89) as u64;
    let on = rng.next_u64() & 1 == 1;
    match kind {
        0..=4 => IndexOp::Admit {
            node,
            ws_mb,
            work_secs,
        },
        5 | 6 => IndexOp::RemoveFirst { node },
        7..=9 => IndexOp::Advance { secs },
        10 => IndexOp::Crash { node },
        11 => IndexOp::Restart { node },
        _ => IndexOp::Reserve { node, on },
    }
}

/// The documented linear-scan equivalent of `best_destination_where`.
fn linear_best<'a>(
    entries: impl Iterator<Item = &'a NodeLoad>,
    demand: Bytes,
    exclude: Option<NodeId>,
    accept: impl Fn(&NodeLoad) -> bool,
) -> Option<&'a NodeLoad> {
    entries
        .filter(|e| {
            Some(e.node) != exclude
                && e.accepts_submissions()
                && e.idle_memory >= demand
                && accept(e)
        })
        .min_by_key(|e| (e.active_jobs, Reverse(e.idle_memory), e.node))
}

/// Checks both walks of `index` against their linear-scan specifications.
/// `inbound[i]` is the `(demand, transfers)` already on the wire toward
/// node `i`, as the engine's committed-capacity check sees it.
fn assert_queries_match(index: &LoadIndex, world: &[Workstation], inbound: &[(Bytes, u32)]) {
    let demands = [
        Bytes::ZERO,
        Bytes::from_mb(16),
        Bytes::from_mb(100),
        Bytes::from_mb(512),
    ];
    let excludes = [None, Some(NodeId(0)), Some(NodeId(world.len() as u32 / 2))];
    // Every accepting entry in placement order: the full ordered scan the
    // overload scan's migration search used to filter.
    let mut placement_order: Vec<&NodeLoad> =
        index.iter().filter(|e| e.accepts_submissions()).collect();
    placement_order.sort_by_key(|e| (e.active_jobs, Reverse(e.idle_memory), e.node));
    for demand in demands {
        for exclude in excludes {
            let fast = index
                .best_destination_where(demand, exclude, |_| true)
                .map(|e| e.node);
            let slow = linear_best(index.iter(), demand, exclude, |_| true).map(|e| e.node);
            assert_eq!(fast, slow, "plain walk d={demand} x={exclude:?}");
            // A caller-side predicate the index knows nothing about, which
            // rejects entries anywhere inside a bucket.
            let pred = |e: &NodeLoad| (e.node.0 as usize + e.active_jobs).is_multiple_of(3);
            let fast = index
                .best_destination_where(demand, exclude, pred)
                .map(|e| e.node);
            let slow = linear_best(index.iter(), demand, exclude, pred).map(|e| e.node);
            assert_eq!(fast, slow, "filtered walk d={demand} x={exclude:?}");
            // The committed-capacity check of commit-aware placement and
            // overload migration: idle memory net of inbound demand, and a
            // slot no inbound transfer has claimed. It implies reported idle
            // covers the demand, so the walk, which skips the rest of a
            // bucket once reported idle falls short, must land on the first
            // passing entry of the full ordered scan.
            let committed = |e: &NodeLoad| {
                let i = e.node.0 as usize;
                let (in_demand, in_slots) = inbound[i];
                e.idle_memory.saturating_sub(in_demand) >= demand
                    && world[i].used_slots() + in_slots < world[i].slot_cap()
            };
            let fast = index
                .best_destination_where(demand, exclude, committed)
                .map(|e| e.node);
            let slow = placement_order
                .iter()
                .find(|e| Some(e.node) != exclude && committed(e))
                .map(|e| e.node);
            assert_eq!(fast, slow, "committed walk d={demand} x={exclude:?}");
        }
    }
    // The reservation walk is the sorted scan of up, unreserved entries in
    // full: reconfiguration and the blocking-victim search both walk past
    // its first element.
    let fast: Vec<NodeId> = index.by_idle_desc().map(|e| e.node).collect();
    let mut slow: Vec<&NodeLoad> = index.iter().filter(|e| e.up && !e.reserved).collect();
    slow.sort_by_key(|e| Reverse((e.idle_memory, Reverse(e.active_jobs), Reverse(e.node))));
    assert_eq!(
        fast,
        slow.iter().map(|e| e.node).collect::<Vec<_>>(),
        "by_idle_desc order"
    );
    // Cached sums match a recount.
    assert_eq!(
        index.accumulated_idle_memory(),
        index.iter().map(|e| e.idle_memory).sum::<Bytes>()
    );
}

/// On a randomly churned world of arbitrary size, both ordered walks
/// equal their linear-scan specifications, the placement walk under a
/// random per-node inbound load included, and incremental
/// `refresh_targets` over exactly the touched nodes is
/// indistinguishable from a full rebuild.
#[test]
fn ordered_index_is_equivalent_to_linear_scans() {
    for case in 0..48 {
        let mut rng = SimRng::seed_from(7).fork(case);
        let n_nodes = 1 + rng.index(79);
        let ops: Vec<IndexOp> = (0..1 + rng.index(59)).map(|_| index_op(&mut rng)).collect();
        let kappa = rng.uniform_range(0.5, 6.0);
        let inbound: Vec<(Bytes, u32)> = (0..80)
            .map(|_| (Bytes::from_mb(rng.index(400) as u64), rng.index(5) as u32))
            .collect();
        let mut world: Vec<Workstation> = (0..n_nodes)
            .map(|i| {
                let user = [96u64, 128, 256, 384][i % 4];
                Workstation::new(
                    NodeId(i as u32),
                    NodeParams {
                        cpu: CpuParams::with_slots(4),
                        memory: MemoryParams::with_capacity(
                            Bytes::from_mb(user),
                            Bytes::from_mb(user),
                        ),
                        fault_model: FaultModel::LinearOverflow { kappa },
                        protection: Default::default(),
                    },
                )
            })
            .collect();
        let mut now = SimTime::ZERO;
        let mut full = LoadIndex::new();
        let mut incremental = LoadIndex::new();
        full.refresh(world.iter());
        incremental.refresh(world.iter());
        let mut next_job = 1_000u64;
        for op in ops {
            let mut touched: Vec<NodeId> = Vec::new();
            match op {
                IndexOp::Admit {
                    node,
                    ws_mb,
                    work_secs,
                } => {
                    let i = node as usize % world.len();
                    let job = build_job(
                        next_job,
                        &JobDesc {
                            ws_mb,
                            work_secs,
                            ramp: false,
                        },
                    );
                    next_job += 1;
                    // try_admit advances the node even on rejection, so the
                    // node is touched either way.
                    let _ = world[i].try_admit(job, now);
                    touched.push(NodeId(i as u32));
                }
                IndexOp::RemoveFirst { node } => {
                    let i = node as usize % world.len();
                    if let Some(id) = world[i].jobs().first().map(|j| j.id()) {
                        world[i].remove_job(id, now);
                    }
                    touched.push(NodeId(i as u32));
                }
                IndexOp::Advance { secs } => {
                    now += SimSpan::from_secs(secs);
                    for w in world.iter_mut() {
                        w.advance_to(now);
                        touched.push(w.id());
                    }
                }
                IndexOp::Crash { node } => {
                    let i = node as usize % world.len();
                    if world[i].is_up() {
                        world[i].crash(now);
                    }
                    touched.push(NodeId(i as u32));
                }
                IndexOp::Restart { node } => {
                    let i = node as usize % world.len();
                    if !world[i].is_up() {
                        world[i].restart(now);
                    }
                    touched.push(NodeId(i as u32));
                }
                IndexOp::Reserve { node, on } => {
                    let i = node as usize % world.len();
                    world[i].set_reserved(on);
                    touched.push(NodeId(i as u32));
                }
            }
            full.refresh(world.iter());
            incremental.refresh_targets(&world, touched.iter().copied());
            assert_eq!(
                &full, &incremental,
                "incremental refresh diverged from rebuild"
            );
            assert_queries_match(&incremental, &world, &inbound);
        }
    }
}
