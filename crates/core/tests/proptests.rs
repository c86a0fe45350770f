//! Property tests for the reservation state machine: arbitrary guarded
//! operation sequences must never double-reserve a workstation, never leak
//! a reservation, and always keep the counter balance
//! `started == released_after_service + released_unused + timed_out +
//! active`. Case `i` of a property draws its operations from
//! `SimRng::seed_from(K).fork(i)`.

use std::collections::BTreeSet;

use vr_cluster::job::JobId;
use vr_cluster::node::NodeId;
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vrecon::config::ReservationOptions;
use vrecon::reservation::{ReservationManager, ReservationPhase};

const CLUSTER_SIZE: usize = 12;

/// One raw operation; node/job/dt are interpreted modulo the legal range
/// and illegal calls are skipped by the driver (the manager's contract is
/// "check before calling", so the property is over guarded sequences).
#[derive(Debug, Clone, Copy)]
enum Op {
    Begin(u8),
    RecordService(u8, u8),
    NoteCompletion(u8, u8),
    ReleaseUnused(u8),
    SweepTimeouts,
    Advance(u16),
}

fn op(rng: &mut SimRng) -> Op {
    let (a, b) = (rng.next_u64(), rng.next_u64());
    let node = (a % CLUSTER_SIZE as u64) as u8;
    let job = (b % 6) as u8;
    let dt = (b % 400) as u16;
    match a % 11 {
        0..=2 => Op::Begin(node),
        3 | 4 => Op::RecordService(node, job),
        5 | 6 => Op::NoteCompletion(node, job),
        7 => Op::ReleaseUnused(node),
        8 => Op::SweepTimeouts,
        _ => Op::Advance(dt),
    }
}

/// Between 1 and 119 operations.
fn ops(rng: &mut SimRng) -> Vec<Op> {
    (0..1 + rng.index(119)).map(|_| op(rng)).collect()
}

/// Replays `ops` with legality guards, checking the invariants after every
/// step (assertions panic on violation). Returns the manager and the final
/// clock for end-state checks.
fn drive(ops: &[Op]) -> (ReservationManager, SimTime) {
    let options = ReservationOptions {
        reserve_timeout: SimSpan::from_secs(300),
        ..ReservationOptions::default()
    };
    let cap = options.max_reserved(CLUSTER_SIZE);
    let mut mgr = ReservationManager::new(options);
    let mut now = SimTime::ZERO;
    for op in ops {
        match *op {
            Op::Begin(n) => {
                let node = NodeId(n as u32);
                if !mgr.is_reserved(node) && mgr.can_reserve(CLUSTER_SIZE) {
                    mgr.begin(node, now);
                }
            }
            Op::RecordService(n, j) => {
                let node = NodeId(n as u32);
                if mgr.is_reserved(node) {
                    mgr.record_service(node, JobId(j as u64));
                }
            }
            Op::NoteCompletion(n, j) => {
                // Safe on any node, reserved or not.
                mgr.note_completion(NodeId(n as u32), JobId(j as u64));
            }
            Op::ReleaseUnused(n) => {
                mgr.release_unused(NodeId(n as u32));
            }
            Op::SweepTimeouts => {
                mgr.sweep_timeouts(now);
            }
            Op::Advance(dt) => {
                now += SimSpan::from_secs(dt as u64);
            }
        }
        check_invariants(&mgr, cap);
    }
    (mgr, now)
}

fn check_invariants(mgr: &ReservationManager, cap: usize) {
    let stats = mgr.stats();
    let active = mgr.reserved_count() as u64;
    // Balance: every started reservation is accounted for exactly once.
    assert_eq!(
        stats.started,
        stats.released_after_service + stats.released_unused + stats.timed_out + active,
        "balance broken: {:?} with {} active",
        stats,
        active
    );
    // The cap is never exceeded.
    assert!(active as usize <= cap, "{active} reserved over cap {cap}");
    // No workstation appears twice (no double-reserve).
    let mut seen = BTreeSet::new();
    for r in mgr.reservations() {
        assert!(seen.insert(r.node), "{} reserved twice", r.node);
        // A Serving reservation always has a non-empty served set.
        if r.phase == ReservationPhase::Serving {
            assert!(!r.served.is_empty(), "{} serving nothing", r.node);
        }
    }
}

/// Invariants hold after every operation of any guarded sequence.
#[test]
fn guarded_sequences_preserve_invariants() {
    for case in 0..64 {
        drive(&ops(&mut SimRng::seed_from(1).fork(case)));
    }
}

/// Nothing leaks: after draining every reservation by force, the
/// balance closes with zero active and the books stay consistent.
#[test]
fn reservations_never_leak() {
    for case in 0..64 {
        let (mut mgr, _now) = drive(&ops(&mut SimRng::seed_from(2).fork(case)));
        for n in 0..CLUSTER_SIZE {
            mgr.release_unused(NodeId(n as u32));
        }
        assert_eq!(mgr.reserved_count(), 0);
        let stats = mgr.stats();
        assert_eq!(
            stats.started,
            stats.released_after_service + stats.released_unused + stats.timed_out
        );
    }
}

/// Timed-out reservations are only ever taken from the Reserving phase:
/// serving nodes survive any sweep.
#[test]
fn sweeps_never_abandon_serving_nodes() {
    for case in 0..64 {
        let (mut mgr, now) = drive(&ops(&mut SimRng::seed_from(3).fork(case)));
        let serving: Vec<NodeId> = mgr
            .reservations()
            .iter()
            .filter(|r| r.phase == ReservationPhase::Serving)
            .map(|r| r.node)
            .collect();
        let far_future = now + SimSpan::from_secs(1_000_000);
        let expired = mgr.sweep_timeouts(far_future);
        for node in &serving {
            assert!(!expired.contains(node), "{node} abandoned while serving");
            assert!(mgr.is_reserved(*node), "{node} vanished in a sweep");
        }
    }
}

/// `begin` on an already-reserved node is a contract violation and must
/// panic loudly rather than corrupt the books.
#[test]
fn double_begin_panics() {
    let mut mgr = ReservationManager::new(ReservationOptions::default());
    mgr.begin(NodeId(0), SimTime::ZERO);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mgr.begin(NodeId(0), SimTime::from_secs(1));
    }));
    assert!(result.is_err(), "double begin() must panic");
}
