//! The workstation: resident jobs advanced lazily through simulated time.
//!
//! A [`Workstation`] integrates its resident jobs' progress *piecewise* from
//! the last touch point to "now": within a segment the job population,
//! working sets, and therefore processor-sharing rates are constant, so
//! progress is linear; segments end at job completions or memory-phase
//! boundaries. A node with no resident jobs costs nothing between the
//! driver's calls, but the driver advances every active node (one hosting
//! work) at each load-exchange tick, so a run costs O(events + active
//! nodes × exchange ticks), plus the driver's O(nodes) skew pass per gauge
//! sample — not O(events) alone. Most tick advances reach no completion or
//! phase boundary: they reuse the stalls and rates of the node's last rate
//! pass and integrate one segment, so a busy node pays one integration per
//! tick and the rate pass only at its own events.
//!
//! The driver protocol is: call [`Workstation::advance_to`] (or any mutator,
//! which advances internally) whenever the node is touched, then ask
//! [`Workstation::next_event_in`] for the delay until the node next needs a
//! wake-up, and drain [`Workstation::take_completed`].

use serde::{Deserialize, Serialize};
use std::fmt;
use vr_simcore::time::{SimSpan, SimTime};

use crate::cpu::{CpuParams, ServiceSlice};
use crate::job::{JobId, JobState, RunningJob};
use crate::memory::{FaultModel, MemoryParams, MemoryUsage};
use crate::protection::ThrashingProtection;
use crate::units::Bytes;

/// Identifies a workstation within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Static configuration of one workstation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeParams {
    /// CPU model.
    pub cpu: CpuParams,
    /// Memory capacities and fault constants.
    pub memory: MemoryParams,
    /// Page-fault model.
    pub fault_model: FaultModel,
    /// Intra-node thrashing protection (TPF, the paper's ref \[6]).
    pub protection: ThrashingProtection,
}

/// Why a job could not be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// All CPU job slots are taken (the CPU threshold).
    NoSlot,
    /// Admitting the job would exceed user memory plus swap.
    MemoryExhausted,
    /// The node is reserved for special service.
    Reserved,
    /// The node has crashed and not (yet) restarted.
    Down,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::NoSlot => f.write_str("no CPU job slot available"),
            AdmitError::MemoryExhausted => f.write_str("user memory and swap exhausted"),
            AdmitError::Reserved => f.write_str("workstation is reserved"),
            AdmitError::Down => f.write_str("workstation is down"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A job bounced by [`Workstation::try_admit`], handed back to the caller.
#[derive(Debug)]
pub struct RejectedJob {
    /// The job, unchanged.
    pub job: RunningJob,
    /// Why it was rejected.
    pub reason: AdmitError,
}

/// Cumulative per-node counters for utilization reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeCounters {
    /// CPU seconds delivered to jobs.
    pub delivered_cpu: f64,
    /// Page-fault stall seconds endured by jobs on this node.
    pub page_stall: f64,
    /// Jobs admitted (locally or remotely).
    pub admitted: u64,
    /// Jobs that ran to completion here.
    pub completed: u64,
    /// Jobs migrated away.
    pub migrated_out: u64,
    /// I/O operations issued by resident jobs (io_rate × CPU progress) —
    /// the paper's kernel facility monitors per-job read/write operations
    /// and the buffer-cache status (§3.1).
    pub io_ops: f64,
}

/// Progress integration below this granularity (seconds) is treated as zero.
const EPS: f64 = 1e-9;

/// A phase boundary closer than this (in progress seconds) counts as already
/// crossed. [`RunningJob::progress`] rounds to whole microseconds, so a
/// sub-microsecond gap means [`MemoryProfile::working_set_at`] already reads
/// the next phase; treating it as pending would produce zero-length
/// integration segments (and zero-delay wake events) forever.
///
/// [`MemoryProfile::working_set_at`]: crate::job::MemoryProfile::working_set_at
const BOUNDARY_EPS: f64 = 1e-6;

/// How far (in progress seconds) below its completion or next phase
/// boundary a job must stay for an advance to reuse the memoised segment
/// rates. It exceeds [`BOUNDARY_EPS`], [`EPS`], the half-microsecond
/// rounding in [`RunningJob::progress`] and any f64 rounding of progress
/// values by orders of magnitude, so a job below its limit is provably in
/// the phase the rates were computed for, and is not complete.
const MEMO_MARGIN: f64 = 1e-5;

/// Reusable buffers for [`Workstation::segment_rates`], so the integration
/// hot path performs no allocation once warmed up. The buffers double as
/// the rate memo: `stalls`, `rates` and `limits` are the last rate pass's
/// output, and `memo_epoch` says for which node epoch they may be reused.
#[derive(Debug, Clone, Default)]
struct RateScratch {
    stalls: Vec<f64>,
    rates: Vec<f64>,
    /// Per job, the progress below which `stalls` and `rates` stay exact:
    /// its completion or next phase boundary, less [`MEMO_MARGIN`].
    limits: Vec<f64>,
    /// The node epoch the buffers were computed at, or `None` while they
    /// must not be reused (see [`Workstation::advance_memoised`]).
    memo_epoch: Option<u64>,
    /// Working sets for thrashing protection, filled only while it is on.
    working_sets: Vec<Bytes>,
    /// Remaining CPU work for thrashing protection, likewise.
    remaining: Vec<f64>,
}

/// A simulated workstation with lazily advanced resident jobs.
#[derive(Debug, Clone)]
pub struct Workstation {
    id: NodeId,
    params: NodeParams,
    jobs: Vec<RunningJob>,
    last_update: SimTime,
    epoch: u64,
    reserved: bool,
    up: bool,
    completed: Vec<RunningJob>,
    counters: NodeCounters,
    /// Multiplier applied to page-fault stalls (1.0 = local disk; < 1.0
    /// when network RAM serves faults from remote memory).
    stall_scale: f64,
    /// Effective job-slot ceiling. Defaults to the hardware slot count;
    /// fractional (time-sharing) policies raise it above the hardware
    /// count to oversubscribe the CPU.
    slot_cap: u32,
    /// Cached sum of resident job widths (classic jobs have width 1), so
    /// slot accounting stays O(1) under malleable widths.
    used_slots: u32,
    /// Cached sum of resident working sets, maintained incrementally on
    /// admit/remove and re-derived after each integration segment (working
    /// sets drift across memory phases). Makes [`Workstation::memory_usage`]
    /// O(1) instead of O(jobs), and is each segment's total demand.
    demand: Bytes,
    /// Rate-computation buffers, behind a `RefCell` so the `&self` paths
    /// ([`Workstation::next_event_in`]) reuse them too.
    scratch: std::cell::RefCell<RateScratch>,
}

impl Workstation {
    /// Creates an idle workstation.
    pub fn new(id: NodeId, params: NodeParams) -> Self {
        let slot_cap = params.cpu.slots;
        Workstation {
            id,
            params,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            reserved: false,
            up: true,
            completed: Vec::new(),
            counters: NodeCounters::default(),
            stall_scale: 1.0,
            slot_cap,
            used_slots: 0,
            demand: Bytes::ZERO,
            scratch: std::cell::RefCell::new(RateScratch::default()),
        }
    }

    /// The workstation's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The workstation's configuration.
    pub fn params(&self) -> &NodeParams {
        &self.params
    }

    /// Resident jobs (read-only).
    pub fn jobs(&self) -> &[RunningJob] {
        &self.jobs
    }

    /// Number of resident jobs.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if a CPU job slot is free (against the effective cap, which
    /// fractional policies may raise above the hardware count).
    pub fn has_slot(&self) -> bool {
        self.used_slots < self.slot_cap
    }

    /// Effective job-slot ceiling (see [`Workstation::set_slot_cap`]).
    pub fn slot_cap(&self) -> u32 {
        self.slot_cap
    }

    /// Slots currently consumed by resident jobs (the sum of their widths;
    /// classic jobs are width 1).
    pub fn used_slots(&self) -> u32 {
        self.used_slots
    }

    /// Overrides the effective slot ceiling, e.g. when a fractional
    /// (time-sharing) policy oversubscribes the CPU. Never lowered below
    /// one; lowering below the current occupancy only blocks further
    /// admissions (resident jobs are untouched).
    pub fn set_slot_cap(&mut self, cap: u32) {
        let cap = cap.max(1);
        if self.slot_cap != cap {
            self.slot_cap = cap;
            self.epoch += 1;
        }
    }

    /// Current memory occupancy (as of the last advancement). O(1): reads
    /// the incrementally maintained demand cache.
    pub fn memory_usage(&self) -> MemoryUsage {
        debug_assert_eq!(
            self.demand,
            self.jobs.iter().map(|j| j.current_working_set()).sum(),
            "cached demand out of sync with resident working sets"
        );
        MemoryUsage {
            demand: self.demand,
            user: self.params.memory.user,
        }
    }

    /// Idle user memory (as of the last advancement).
    pub fn idle_memory(&self) -> Bytes {
        self.memory_usage().idle()
    }

    /// `true` if resident demand exceeds user memory, i.e. the node is
    /// experiencing page faults.
    pub fn is_faulting(&self) -> bool {
        self.memory_usage().is_oversubscribed()
    }

    /// Reservation flag (see the paper's `reservation_flag`).
    pub fn is_reserved(&self) -> bool {
        self.reserved
    }

    /// `false` while the node is crashed (see [`Workstation::crash`]).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crashes the node at `now`: resident jobs are drained and returned to
    /// the caller (they are *not* counted as migrated out — the scheduler
    /// decides their fate), the reservation flag is dropped, and further
    /// admissions fail with [`AdmitError::Down`] until
    /// [`Workstation::restart`].
    ///
    /// Jobs are advanced to `now` first, so any that completed before the
    /// crash land in the completion outbox rather than the drained set.
    pub fn crash(&mut self, now: SimTime) -> Vec<RunningJob> {
        self.advance_to(now);
        self.up = false;
        self.reserved = false;
        self.epoch += 1;
        self.demand = Bytes::ZERO;
        self.used_slots = 0;
        std::mem::take(&mut self.jobs)
    }

    /// Brings a crashed node back up, empty and unreserved. A no-op on a
    /// node that is already up.
    pub fn restart(&mut self, now: SimTime) {
        if self.up {
            return;
        }
        self.last_update = self.last_update.max(now);
        self.up = true;
        self.epoch += 1;
    }

    /// Sets the reservation flag, bumping the epoch.
    pub fn set_reserved(&mut self, reserved: bool) {
        if self.reserved != reserved {
            self.reserved = reserved;
            self.epoch += 1;
        }
    }

    /// The current page-fault stall multiplier (see
    /// [`Workstation::set_stall_scale`]).
    pub fn stall_scale(&self) -> f64 {
        self.stall_scale
    }

    /// Sets the page-fault stall multiplier, e.g. when network RAM becomes
    /// available (`< 1.0`) or exhausted (`1.0`). The caller must have
    /// advanced the node to the current instant first — changing the scale
    /// rewrites the node's future, so the epoch is bumped.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn set_stall_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "stall scale must be in (0, 1], got {scale}"
        );
        if (self.stall_scale - scale).abs() > 1e-12 {
            self.stall_scale = scale;
            self.epoch += 1;
        }
    }

    /// Monotonic counter bumped whenever the node's future changes
    /// (admission, removal, completion, reservation). Schedulers tag wake
    /// events with the epoch and discard stale ones.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative utilization counters.
    pub fn counters(&self) -> NodeCounters {
        self.counters
    }

    /// Timestamp of the last advancement.
    pub fn last_update(&self) -> SimTime {
        self.last_update
    }

    /// Drains jobs that completed since the last call.
    pub fn take_completed(&mut self) -> Vec<RunningJob> {
        std::mem::take(&mut self.completed)
    }

    /// Completions waiting in the outbox, without draining them (for
    /// observers that must not perturb the node).
    pub fn pending_completions(&self) -> &[RunningJob] {
        &self.completed
    }

    /// Checks whether `job` could be admitted right now, without admitting.
    ///
    /// Only *hard* constraints are checked (slots, memory + swap ceiling,
    /// reservation); policy-level rules such as "has idle memory" belong to
    /// the scheduler.
    pub fn can_admit(&self, job: &RunningJob) -> Result<(), AdmitError> {
        if !self.up {
            return Err(AdmitError::Down);
        }
        if self.reserved {
            return Err(AdmitError::Reserved);
        }
        if self.used_slots + job.width > self.slot_cap {
            return Err(AdmitError::NoSlot);
        }
        let after = self.memory_usage().demand + job.current_working_set();
        if after > self.params.memory.capacity_limit() {
            return Err(AdmitError::MemoryExhausted);
        }
        Ok(())
    }

    /// Admits a job, advancing the node to `now` first.
    ///
    /// Reserved nodes reject ordinary admissions; use
    /// [`Workstation::admit_to_reserved`] for the special service placement.
    ///
    /// # Errors
    ///
    /// Returns the job back inside [`RejectedJob`] if a hard constraint
    /// fails.
    pub fn try_admit(&mut self, mut job: RunningJob, now: SimTime) -> Result<(), Box<RejectedJob>> {
        self.advance_to(now);
        if let Err(reason) = self.can_admit(&job) {
            return Err(Box::new(RejectedJob { job, reason }));
        }
        job.state = JobState::Running;
        self.demand += job.current_working_set();
        self.used_slots += job.width;
        self.jobs.push(job);
        self.counters.admitted += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Places a job on a *reserved* node (the virtual-reconfiguration
    /// special service). Skips the reservation check but still enforces the
    /// slot and memory ceilings.
    ///
    /// # Errors
    ///
    /// Returns the job back if slots or memory + swap are exhausted.
    pub fn admit_to_reserved(
        &mut self,
        mut job: RunningJob,
        now: SimTime,
    ) -> Result<(), Box<RejectedJob>> {
        self.advance_to(now);
        if !self.up {
            return Err(Box::new(RejectedJob {
                job,
                reason: AdmitError::Down,
            }));
        }
        if self.used_slots + job.width > self.slot_cap {
            return Err(Box::new(RejectedJob {
                job,
                reason: AdmitError::NoSlot,
            }));
        }
        let after = self.memory_usage().demand + job.current_working_set();
        if after > self.params.memory.capacity_limit() {
            return Err(Box::new(RejectedJob {
                job,
                reason: AdmitError::MemoryExhausted,
            }));
        }
        job.state = JobState::Running;
        self.demand += job.current_working_set();
        self.used_slots += job.width;
        self.jobs.push(job);
        self.counters.admitted += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Removes a resident job (for migration), advancing the node to `now`
    /// first. Returns `None` if the job is not resident (it may have just
    /// completed).
    pub fn remove_job(&mut self, id: JobId, now: SimTime) -> Option<RunningJob> {
        self.advance_to(now);
        let idx = self.jobs.iter().position(|j| j.id() == id)?;
        let job = self.jobs.swap_remove(idx);
        self.demand = self.demand.saturating_sub(job.current_working_set());
        self.used_slots = self.used_slots.saturating_sub(job.width);
        self.counters.migrated_out += 1;
        self.epoch += 1;
        Some(job)
    }

    /// Advances all resident jobs to `now`, accumulating their wall-clock
    /// breakdowns and collecting completions into the outbox.
    ///
    /// Returns `false` when the node's observable load provably did not
    /// change: the call was a no-op, or it took the memoised one-segment
    /// path, which completes no job and crosses no memory phase, so
    /// resident jobs, demand, slots and epoch are all as they were. `true`
    /// means the load may have moved.
    ///
    /// Calling with `now` in the past is a no-op (tolerated because multiple
    /// events can share a timestamp).
    // vr-analyze::allow(panic-path, reason = "the only span minted is `remaining.max(0.0)`, bounded by the span it was derived from")
    pub fn advance_to(&mut self, now: SimTime) -> bool {
        if now <= self.last_update {
            return false;
        }
        let mut remaining = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if self.advance_memoised(remaining) {
            return false;
        }
        let mut segments = 0u32;
        while remaining > EPS && !self.jobs.is_empty() {
            segments += 1;
            let mut scratch = self.scratch.borrow_mut();
            // The segment runs to the earliest completion or phase boundary,
            // or to `now`.
            let dt = self.segment_rates(&mut scratch).min(remaining).max(0.0);
            let RateScratch { rates, stalls, .. } = &*scratch;
            // Integrate the segment.
            for (i, job) in self.jobs.iter_mut().enumerate() {
                let slice = ServiceSlice::split(dt, rates[i], stalls[i]);
                job.progress_secs += slice.cpu;
                job.breakdown.cpu += slice.cpu;
                job.breakdown.page += slice.page;
                job.breakdown.queue += slice.queue;
                self.counters.delivered_cpu += slice.cpu;
                self.counters.page_stall += slice.page;
                self.counters.io_ops += slice.cpu * job.spec.io_rate;
            }
            drop(scratch);
            remaining -= dt;
            // Collect completions at the segment end. Most segments end at a
            // phase boundary or at `now` with nothing finished, so the end
            // instant is only minted for a job that completes.
            let mut collected = 0usize;
            let mut i = 0;
            while i < self.jobs.len() {
                if self.jobs[i].remaining_secs() <= EPS {
                    let completion_time = now - SimSpan::from_secs_f64(remaining.max(0.0));
                    let mut done = self.jobs.swap_remove(i);
                    done.state = JobState::Completed;
                    done.completed_at = Some(completion_time);
                    done.progress_secs = done.spec.cpu_work.as_secs_f64();
                    self.used_slots = self.used_slots.saturating_sub(done.width);
                    self.counters.completed += 1;
                    self.completed.push(done);
                    self.epoch += 1;
                    collected += 1;
                } else {
                    i += 1;
                }
            }
            // Progress may have crossed memory-phase boundaries and
            // completions left: re-derive the demand cache, which the next
            // segment's stall curve reads.
            self.demand = self.jobs.iter().map(|j| j.current_working_set()).sum();
            if dt <= EPS && collected == 0 && !self.jobs.is_empty() {
                // No progress possible (all rates zero): avoid spinning.
                break;
            }
        }
        if segments > 1 {
            self.scratch.get_mut().memo_epoch = None;
        }
        true
    }

    /// The one-segment path of [`Workstation::advance_to`]: integrates `dt`
    /// seconds with the stalls and rates of the last rate pass, and returns
    /// `true`, when the full segment loop provably would do the same.
    ///
    /// That holds when the memo belongs to the current epoch (no admission,
    /// removal, completion, resize, stall-scale change, crash or restart
    /// since the rate pass) and every job's progress after the segment,
    /// `progress + rate·dt`, stays below its limit. Below the limit no job
    /// has crossed its memory phase, so every input of the rate pass —
    /// resident jobs, widths, working sets, demand and stall scale — is
    /// unchanged, and the pass would return the memoised stalls and rates
    /// bit for bit. Its next-event time then exceeds `dt`, so the loop
    /// would integrate exactly one segment of `dt`, with the same per-job
    /// operations in the same order as below, find no completion, and
    /// re-derive the demand it already holds. The memo is never stamped
    /// under [`ThrashingProtection::ProtectShortestRemaining`], whose
    /// stalls read remaining work, and a multi-segment advance drops it.
    fn advance_memoised(&mut self, dt: f64) -> bool {
        let RateScratch {
            stalls,
            rates,
            limits,
            memo_epoch,
            ..
        } = self.scratch.get_mut();
        if *memo_epoch != Some(self.epoch) {
            return false;
        }
        debug_assert_eq!(rates.len(), self.jobs.len(), "rate memo out of sync");
        let within = self
            .jobs
            .iter()
            .zip(rates.iter().zip(limits.iter()))
            .all(|(job, (&rate, &limit))| job.progress_secs + rate * dt < limit);
        if !within {
            return false;
        }
        for (i, job) in self.jobs.iter_mut().enumerate() {
            let slice = ServiceSlice::split(dt, rates[i], stalls[i]);
            job.progress_secs += slice.cpu;
            job.breakdown.cpu += slice.cpu;
            job.breakdown.page += slice.page;
            job.breakdown.queue += slice.queue;
            self.counters.delivered_cpu += slice.cpu;
            self.counters.page_stall += slice.page;
            self.counters.io_ops += slice.cpu * job.spec.io_rate;
        }
        true
    }

    /// The delay from the last advancement until this node next needs a
    /// wake-up (a completion or a memory-phase boundary), or `None` if it is
    /// idle.
    ///
    /// # Panics
    ///
    /// Panics if a job's projected completion is too far away to represent
    /// as a span (a progress rate pathologically close to zero under an
    /// extreme stall curve).
    pub fn next_event_in(&self) -> Option<SimSpan> {
        if self.jobs.is_empty() {
            return None;
        }
        let mut scratch = self.scratch.borrow_mut();
        let earliest = self.segment_rates(&mut scratch);
        earliest
            .is_finite()
            .then(|| SimSpan::from_secs_f64(earliest.max(0.0)))
    }

    /// The rate pass of one integration segment: fills `scratch.stalls`,
    /// `scratch.rates` and `scratch.limits`, stamps them with the node
    /// epoch for [`Workstation::advance_memoised`], and returns the time
    /// (seconds) to the first completion or memory-phase boundary, or
    /// infinity if no job progresses.
    ///
    /// Each stall factor comes off the segment's [`StallCurve`], built from
    /// the demand cache, is redistributed by thrashing protection when that
    /// is on, and is then multiplied by the network-RAM `stall_scale` (1.0
    /// when remote memory is not in use). A job of width `w` progresses at
    /// `progress_share(W) · w / (1 + s)` over `W = Σ widths`, the used-slot
    /// count; for classic width-1 jobs that is `share / (1 + s)` bit for
    /// bit.
    ///
    /// [`StallCurve`]: crate::memory::StallCurve
    fn segment_rates(&self, scratch: &mut RateScratch) -> f64 {
        debug_assert_eq!(
            self.used_slots,
            self.jobs.iter().map(|j| j.width).sum::<u32>(),
            "cached slot count out of sync with resident widths"
        );
        let RateScratch {
            stalls,
            rates,
            limits,
            memo_epoch,
            working_sets,
            remaining,
        } = scratch;
        let curve = self.params.fault_model.stall_curve(
            self.memory_usage().demand,
            self.jobs.len(),
            self.params.memory.user,
        );
        stalls.clear();
        stalls.extend(
            self.jobs
                .iter()
                .map(|j| curve.stall(j.current_working_set())),
        );
        if self.params.protection != ThrashingProtection::Off {
            working_sets.clear();
            working_sets.extend(self.jobs.iter().map(|j| j.current_working_set()));
            remaining.clear();
            remaining.extend(self.jobs.iter().map(|j| j.remaining_secs()));
            self.params
                .protection
                .apply(stalls, working_sets, remaining);
        }
        let share = self.params.cpu.progress_share(self.used_slots as usize);
        rates.clear();
        limits.clear();
        let mut dt = f64::INFINITY;
        for (s, job) in stalls.iter_mut().zip(&self.jobs) {
            *s *= self.stall_scale;
            let r = share * f64::from(job.width) / (1.0 + *s);
            rates.push(r);
            let boundary = job.next_phase_boundary().map(SimSpan::as_secs_f64);
            let work = job.spec.cpu_work.as_secs_f64();
            limits.push(boundary.map_or(work, |b| b.min(work)) - MEMO_MARGIN);
            if r > 0.0 {
                dt = dt.min(job.remaining_secs() / r);
                if let Some(boundary) = boundary {
                    let gap = boundary - job.progress_secs;
                    if gap > BOUNDARY_EPS {
                        dt = dt.min(gap / r);
                    }
                }
            }
        }
        *memo_epoch = (self.params.protection != ThrashingProtection::ProtectShortestRemaining)
            .then_some(self.epoch);
        dt
    }

    /// Changes a resident job's slot width in place (malleable
    /// scheduling), advancing the node to `now` first. Returns `false`
    /// without side effects when the job is not resident, the width is
    /// unchanged, or growing would exceed the slot cap.
    pub fn resize_job(&mut self, id: JobId, new_width: u32, now: SimTime) -> bool {
        self.advance_to(now);
        let Some(job) = self.jobs.iter_mut().find(|j| j.id() == id) else {
            return false;
        };
        let old = job.width;
        if new_width == old || new_width == 0 {
            return false;
        }
        if new_width > old && self.used_slots - old + new_width > self.slot_cap {
            return false;
        }
        job.width = new_width;
        self.used_slots = self.used_slots - old + new_width;
        self.epoch += 1;
        true
    }

    /// The resident job with the largest current memory demand, if any —
    /// the paper's `find_most_memory_intensive_job()`.
    pub fn most_memory_intensive_job(&self) -> Option<&RunningJob> {
        self.jobs
            .iter()
            .max_by_key(|j| (j.current_working_set(), std::cmp::Reverse(j.id())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobClass, JobSpec, MemoryProfile};

    fn params() -> NodeParams {
        NodeParams {
            cpu: CpuParams {
                speed: 1.0,
                quantum: SimSpan::from_millis(100),
                context_switch: SimSpan::ZERO, // exact arithmetic in tests
                slots: 4,
            },
            memory: MemoryParams::with_capacity(Bytes::from_mb(128), Bytes::from_mb(128)),
            fault_model: FaultModel::LinearOverflow { kappa: 4.0 },
            protection: ThrashingProtection::Off,
        }
    }

    fn job(id: u64, ws_mb: u64, cpu_secs: f64) -> RunningJob {
        RunningJob::new(JobSpec {
            id: JobId(id),
            name: format!("j{id}"),
            class: JobClass::CpuIntensive,
            submit: SimTime::ZERO,
            cpu_work: SimSpan::from_secs_f64(cpu_secs),
            memory: MemoryProfile::constant(Bytes::from_mb(ws_mb)),
            io_rate: 0.0,
            malleable: None,
        })
    }

    #[test]
    fn lone_job_completes_on_schedule() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 60.0), SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(59));
        assert!(node.take_completed().is_empty());
        node.advance_to(SimTime::from_secs(61));
        let done = node.take_completed();
        assert_eq!(done.len(), 1);
        let d = &done[0];
        assert_eq!(d.state, JobState::Completed);
        assert_eq!(d.completed_at, Some(SimTime::from_secs(60)));
        assert!((d.breakdown.cpu - 60.0).abs() < 1e-6);
        assert!(d.breakdown.page < 1e-9);
        assert!((d.slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn next_event_predicts_completion() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 60.0), SimTime::ZERO).unwrap();
        let delay = node.next_event_in().unwrap();
        assert!((delay.as_secs_f64() - 60.0).abs() < 1e-6);
        assert!(Workstation::new(NodeId(1), params())
            .next_event_in()
            .is_none());
    }

    #[test]
    fn two_equal_jobs_halve_progress() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 30.0), SimTime::ZERO).unwrap();
        node.try_admit(job(2, 10, 30.0), SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(30));
        // Each got half the CPU: 15s of progress, no completion yet.
        assert!(node.take_completed().is_empty());
        for j in node.jobs() {
            assert!((j.progress_secs - 15.0).abs() < 1e-6);
            assert!((j.breakdown.queue - 15.0).abs() < 1e-6);
        }
        node.advance_to(SimTime::from_secs(60));
        assert_eq!(node.take_completed().len(), 2);
    }

    #[test]
    fn completion_frees_capacity_for_survivor() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 10.0), SimTime::ZERO).unwrap();
        node.try_admit(job(2, 10, 30.0), SimTime::ZERO).unwrap();
        // Job 1 finishes at t=20 (half speed); job 2 then runs alone:
        // by t=20 it has 10s progress, 20s left, finishing at t=40.
        node.advance_to(SimTime::from_secs(40));
        let done = node.take_completed();
        assert_eq!(done.len(), 2);
        let by_id = |id: u64| done.iter().find(|j| j.id() == JobId(id)).unwrap();
        assert_eq!(by_id(1).completed_at, Some(SimTime::from_secs(20)));
        assert_eq!(by_id(2).completed_at, Some(SimTime::from_secs(40)));
    }

    #[test]
    fn oversubscription_causes_page_stall() {
        let mut node = Workstation::new(NodeId(0), params());
        // 80 + 80 = 160MB on 128MB: overflow ratio 0.25, stall factor 1.0 each.
        node.try_admit(job(1, 80, 10.0), SimTime::ZERO).unwrap();
        node.try_admit(job(2, 80, 10.0), SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(10));
        for j in node.jobs() {
            // rate = 0.5 / (1 + 1) = 0.25 → 2.5s progress in 10s wall.
            assert!((j.progress_secs - 2.5).abs() < 1e-6, "{}", j.progress_secs);
            assert!((j.breakdown.page - 2.5).abs() < 1e-6);
            assert!((j.breakdown.cpu - 2.5).abs() < 1e-6);
            assert!((j.breakdown.queue - 5.0).abs() < 1e-6);
        }
        assert!(node.is_faulting());
    }

    #[test]
    fn memory_phase_boundary_changes_fault_behaviour() {
        let mut node = Workstation::new(NodeId(0), params());
        // Job ramps from 10MB to 200MB after 5s of progress.
        let mut j = job(1, 0, 100.0);
        j.spec.memory = MemoryProfile::from_phases(vec![
            (SimSpan::from_secs(5), Bytes::from_mb(10)),
            (SimSpan::MAX, Bytes::from_mb(200)),
        ])
        .unwrap();
        node.try_admit(j, SimTime::ZERO).unwrap();
        assert!(!node.is_faulting());
        // First 5s of progress take 5s of wall (no faults).
        node.advance_to(SimTime::from_secs(6));
        assert!(node.is_faulting());
        let job = &node.jobs()[0];
        assert!(job.progress_secs > 5.0);
        assert!(job.breakdown.page > 0.0);
        // Phase 2: 200MB on 128MB alone: overflow ratio 72/128, stall
        // factor = 4 * 72/128 = 2.25 → rate 1/3.25.
        let expected = 5.0 + 1.0 / 3.25;
        assert!(
            (job.progress_secs - expected).abs() < 1e-6,
            "progress {} vs {expected}",
            job.progress_secs
        );
    }

    #[test]
    fn slot_limit_is_enforced() {
        let mut node = Workstation::new(NodeId(0), params());
        for i in 0..4 {
            node.try_admit(job(i, 1, 10.0), SimTime::ZERO).unwrap();
        }
        assert!(!node.has_slot());
        let rejected = node.try_admit(job(99, 1, 10.0), SimTime::ZERO).unwrap_err();
        assert_eq!(rejected.reason, AdmitError::NoSlot);
        assert_eq!(rejected.job.id(), JobId(99));
    }

    #[test]
    fn memory_ceiling_is_enforced() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 200, 10.0), SimTime::ZERO).unwrap();
        // 200 + 100 = 300MB > 256MB (user+swap).
        let rejected = node
            .try_admit(job(2, 100, 10.0), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(rejected.reason, AdmitError::MemoryExhausted);
    }

    #[test]
    fn reserved_node_rejects_ordinary_but_accepts_special() {
        let mut node = Workstation::new(NodeId(0), params());
        node.set_reserved(true);
        let rejected = node.try_admit(job(1, 10, 10.0), SimTime::ZERO).unwrap_err();
        assert_eq!(rejected.reason, AdmitError::Reserved);
        node.admit_to_reserved(job(1, 10, 10.0), SimTime::ZERO)
            .unwrap();
        assert_eq!(node.active_jobs(), 1);
    }

    #[test]
    fn remove_job_returns_partial_state() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 60.0), SimTime::ZERO).unwrap();
        let taken = node.remove_job(JobId(1), SimTime::from_secs(15)).unwrap();
        assert!((taken.progress_secs - 15.0).abs() < 1e-6);
        assert_eq!(node.active_jobs(), 0);
        assert!(node.remove_job(JobId(1), SimTime::from_secs(15)).is_none());
        assert_eq!(node.counters().migrated_out, 1);
    }

    #[test]
    fn epoch_bumps_on_state_changes() {
        let mut node = Workstation::new(NodeId(0), params());
        let e0 = node.epoch();
        node.try_admit(job(1, 10, 1.0), SimTime::ZERO).unwrap();
        let e1 = node.epoch();
        assert!(e1 > e0);
        node.advance_to(SimTime::from_secs(2)); // completion inside
        assert!(node.epoch() > e1);
        let e2 = node.epoch();
        node.set_reserved(true);
        assert!(node.epoch() > e2);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 60.0), SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(10));
        let p = node.jobs()[0].progress_secs;
        node.advance_to(SimTime::from_secs(10));
        assert_eq!(node.jobs()[0].progress_secs, p);
    }

    #[test]
    fn most_memory_intensive_job_is_found() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 60.0), SimTime::ZERO).unwrap();
        node.try_admit(job(2, 90, 60.0), SimTime::ZERO).unwrap();
        node.try_admit(job(3, 40, 60.0), SimTime::ZERO).unwrap();
        assert_eq!(node.most_memory_intensive_job().unwrap().id(), JobId(2));
    }

    #[test]
    fn breakdown_sums_to_wall_time_under_load() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 80, 50.0), SimTime::ZERO).unwrap();
        node.try_admit(job(2, 70, 40.0), SimTime::ZERO).unwrap();
        node.try_admit(job(3, 30, 30.0), SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(25));
        for j in node.jobs() {
            assert!(
                (j.breakdown.wall() - 25.0).abs() < 1e-6,
                "wall {} for {}",
                j.breakdown.wall(),
                j.id()
            );
        }
    }

    #[test]
    fn stall_scale_speeds_up_faulting_jobs() {
        let mut with_netram = Workstation::new(NodeId(0), params());
        let mut without = Workstation::new(NodeId(1), params());
        for node in [&mut with_netram, &mut without] {
            node.try_admit(job(1, 80, 100.0), SimTime::ZERO).unwrap();
            node.try_admit(job(2, 80, 100.0), SimTime::ZERO).unwrap();
        }
        with_netram.set_stall_scale(0.33);
        with_netram.advance_to(SimTime::from_secs(100));
        without.advance_to(SimTime::from_secs(100));
        let p_fast = with_netram.jobs()[0].progress_secs;
        let p_slow = without.jobs()[0].progress_secs;
        assert!(p_fast > p_slow, "netram {p_fast} <= local {p_slow}");
        // Page stall share shrinks accordingly.
        assert!(with_netram.jobs()[0].breakdown.page < without.jobs()[0].breakdown.page);
    }

    #[test]
    fn stall_scale_changes_bump_epoch_only_on_change() {
        let mut node = Workstation::new(NodeId(0), params());
        let e0 = node.epoch();
        node.set_stall_scale(1.0); // no-op
        assert_eq!(node.epoch(), e0);
        node.set_stall_scale(0.5);
        assert!(node.epoch() > e0);
    }

    #[test]
    #[should_panic(expected = "stall scale")]
    fn invalid_stall_scale_panics() {
        Workstation::new(NodeId(0), params()).set_stall_scale(0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 5.0), SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(10));
        node.take_completed();
        let c = node.counters();
        assert_eq!(c.admitted, 1);
        assert_eq!(c.completed, 1);
        assert!((c.delivered_cpu - 5.0).abs() < 1e-6);
    }

    #[test]
    fn crash_drains_jobs_and_blocks_admission_until_restart() {
        let mut node = Workstation::new(NodeId(0), params());
        node.set_reserved(true);
        node.admit_to_reserved(job(1, 10, 60.0), SimTime::ZERO)
            .unwrap();
        let e0 = node.epoch();
        let drained = node.crash(SimTime::from_secs(15));
        assert_eq!(drained.len(), 1);
        assert!((drained[0].progress_secs - 15.0).abs() < 1e-6);
        assert!(!node.is_up());
        assert!(!node.is_reserved(), "crash drops the reservation flag");
        assert_eq!(node.active_jobs(), 0);
        assert!(node.epoch() > e0);
        // Drained jobs are not migrations.
        assert_eq!(node.counters().migrated_out, 0);
        let rejected = node
            .try_admit(job(2, 10, 10.0), SimTime::from_secs(16))
            .unwrap_err();
        assert_eq!(rejected.reason, AdmitError::Down);
        let rejected = node
            .admit_to_reserved(job(2, 10, 10.0), SimTime::from_secs(16))
            .unwrap_err();
        assert_eq!(rejected.reason, AdmitError::Down);
        node.restart(SimTime::from_secs(20));
        assert!(node.is_up());
        node.try_admit(job(2, 10, 10.0), SimTime::from_secs(20))
            .unwrap();
        assert_eq!(node.active_jobs(), 1);
    }

    #[test]
    fn crash_keeps_already_completed_jobs_in_outbox() {
        let mut node = Workstation::new(NodeId(0), params());
        node.try_admit(job(1, 10, 5.0), SimTime::ZERO).unwrap();
        node.try_admit(job(2, 10, 100.0), SimTime::ZERO).unwrap();
        // Job 1 completes at t=10 (half speed); crash at t=20 drains only
        // job 2 — the finished job stays observable in the outbox.
        let drained = node.crash(SimTime::from_secs(20));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id(), JobId(2));
        assert_eq!(node.pending_completions().len(), 1);
        assert_eq!(node.pending_completions()[0].id(), JobId(1));
        assert_eq!(node.take_completed().len(), 1);
    }

    #[test]
    fn restart_on_running_node_is_a_no_op() {
        let mut node = Workstation::new(NodeId(0), params());
        let e0 = node.epoch();
        node.restart(SimTime::from_secs(5));
        assert!(node.is_up());
        assert_eq!(node.epoch(), e0);
    }

    /// Every bit the one-segment path could disturb: each resident and
    /// completed job's progress, breakdown and completion instant, the
    /// counters, demand, slots, epoch and clock.
    fn fingerprint(node: &Workstation) -> Vec<u64> {
        let c = node.counters();
        let mut bits = vec![
            c.delivered_cpu.to_bits(),
            c.page_stall.to_bits(),
            c.io_ops.to_bits(),
            c.admitted,
            c.completed,
            c.migrated_out,
            node.memory_usage().demand.as_mb_f64().to_bits(),
            u64::from(node.used_slots()),
            node.epoch(),
            node.last_update().as_micros(),
            node.jobs().len() as u64,
        ];
        for j in node.jobs().iter().chain(node.pending_completions()) {
            bits.extend([
                j.id().0,
                u64::from(j.width),
                j.progress_secs.to_bits(),
                j.breakdown.cpu.to_bits(),
                j.breakdown.page.to_bits(),
                j.breakdown.queue.to_bits(),
                j.completed_at.map_or(u64::MAX, SimTime::as_micros),
            ]);
        }
        bits
    }

    /// A job of 1–4 memory phases of 1–40 MB, width 1–3 and a non-zero
    /// I/O rate.
    fn random_job(rng: &mut vr_simcore::rng::SimRng, id: u64) -> RunningJob {
        let work = rng.uniform_range(0.5, 120.0);
        let mut cuts: Vec<u64> = (1..1 + rng.index(4))
            .map(|_| 1 + (rng.uniform() * work * 1e6) as u64)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut phases: Vec<(SimSpan, Bytes)> = cuts
            .into_iter()
            .map(|c| {
                (
                    SimSpan::from_micros(c),
                    Bytes::from_mb(1 + rng.index(40) as u64),
                )
            })
            .collect();
        phases.push((SimSpan::MAX, Bytes::from_mb(1 + rng.index(40) as u64)));
        let mut j = job(id, 0, work);
        j.spec.memory = MemoryProfile::from_phases(phases).unwrap();
        j.spec.io_rate = rng.uniform_range(0.1, 5.0);
        j.width = 1 + rng.index(3) as u32;
        j
    }

    /// The memoised one-segment advance against the full segment loop.
    /// Each random node has a twin whose memo is dropped before every
    /// operation, so every twin advance runs the loop. Both take the same
    /// interleaving of whole-second ticks, one-microsecond steps (whose
    /// progress gain is sub-microsecond below rate one), instants at and
    /// within a microsecond of the `next_event_in` prediction, admissions,
    /// removals, resizes, stall-scale changes, crashes and restarts, under
    /// every protection mode, and must stay bit-identical throughout. An
    /// advance that reports the load unchanged must leave
    /// `NodeLoad::capture` as it was.
    #[test]
    fn memoised_advances_match_the_full_segment_loop() {
        use crate::loadinfo::NodeLoad;
        use vr_simcore::rng::SimRng;

        let protections = [
            ThrashingProtection::Off,
            ThrashingProtection::ProtectLargest,
            ThrashingProtection::ProtectShortestRemaining,
        ];
        let mut rng = SimRng::seed_from(20_021);
        let (mut advances, mut unchanged) = (0u32, 0u32);
        let mut next_id = 0;
        for case in 0..150 {
            let mut p = params();
            p.cpu = CpuParams::with_slots(36);
            p.protection = protections[case % protections.len()];
            let mut node = Workstation::new(NodeId(0), p);
            if rng.index(2) == 0 {
                node.set_stall_scale(rng.uniform_range(0.05, 1.0));
            }
            let mut twin = node.clone();
            for _ in 0..1 + rng.index(12) {
                next_id += 1;
                let j = random_job(&mut rng, next_id);
                assert_eq!(
                    twin.try_admit(j.clone(), SimTime::ZERO).is_ok(),
                    node.try_admit(j, SimTime::ZERO).is_ok()
                );
            }
            for step in 0..150 {
                let t = node.last_update();
                let ctx = format!("case {case} step {step}");
                twin.scratch.get_mut().memo_epoch = None;
                let op = rng.index(16);
                let to = match op {
                    0..=7 => Some(SimTime::from_secs(t.as_micros() / 1_000_000 + 1)),
                    8 => Some(t + SimSpan::from_micros(1)),
                    9..=10 => {
                        let predicted = node.next_event_in();
                        assert_eq!(predicted, twin.next_event_in(), "{ctx}");
                        twin.scratch.get_mut().memo_epoch = None;
                        let at = t + predicted.unwrap_or(SimSpan::from_secs(1));
                        Some(match rng.index(3) {
                            0 => at,
                            1 => at + SimSpan::from_micros(1),
                            _ => SimTime::from_micros(at.as_micros().saturating_sub(1)),
                        })
                    }
                    _ => None,
                };
                if let Some(to) = to {
                    let before = NodeLoad::capture(&node);
                    let busy = !node.jobs().is_empty();
                    let moved = node.advance_to(to);
                    twin.advance_to(to);
                    if to > t && busy {
                        advances += 1;
                        if !moved {
                            unchanged += 1;
                            assert_eq!(NodeLoad::capture(&node), before, "{ctx}");
                        }
                    }
                } else {
                    let now = t + SimSpan::from_micros(rng.index(2_000_000) as u64);
                    let pick = |n: &Workstation, k: usize| n.jobs()[k % n.jobs().len()].id();
                    match op {
                        11 | 12 => {
                            next_id += 1;
                            let j = random_job(&mut rng, next_id);
                            assert_eq!(
                                twin.try_admit(j.clone(), now).is_ok(),
                                node.try_admit(j, now).is_ok(),
                                "{ctx}"
                            );
                        }
                        13 if !node.jobs().is_empty() => {
                            let id = pick(&node, rng.index(12));
                            let w = 1 + rng.index(3) as u32;
                            if rng.index(2) == 0 {
                                assert_eq!(
                                    twin.resize_job(id, w, now),
                                    node.resize_job(id, w, now)
                                );
                            } else {
                                assert_eq!(twin.remove_job(id, now), node.remove_job(id, now));
                            }
                        }
                        14 => {
                            let scale = rng.uniform_range(0.05, 1.0);
                            node.advance_to(now);
                            twin.advance_to(now);
                            node.set_stall_scale(scale);
                            twin.set_stall_scale(scale);
                        }
                        _ if node.is_up() && rng.index(4) == 0 => {
                            assert_eq!(twin.crash(now), node.crash(now), "{ctx}");
                        }
                        _ => {
                            node.restart(now);
                            twin.restart(now);
                        }
                    }
                }
                assert_eq!(fingerprint(&node), fingerprint(&twin), "{ctx} op {op}");
                if rng.index(8) == 0 {
                    assert_eq!(node.take_completed(), twin.take_completed(), "{ctx}");
                }
            }
        }
        // Both paths must have run often enough to be compared.
        assert!(
            unchanged * 4 > advances && unchanged * 4 < advances * 3,
            "{unchanged} of {advances} busy advances took the one-segment path"
        );
    }

    #[test]
    fn io_ops_track_progress_times_rate() {
        let mut node = Workstation::new(NodeId(0), params());
        let mut j = job(1, 10, 5.0);
        j.spec.io_rate = 3.0;
        node.try_admit(j, SimTime::ZERO).unwrap();
        node.advance_to(SimTime::from_secs(10));
        // 5 seconds of progress at 3 ops/s = 15 ops.
        assert!((node.counters().io_ops - 15.0).abs() < 1e-6);
    }
}
