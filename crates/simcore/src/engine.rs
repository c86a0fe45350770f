//! The discrete-event engine loop.
//!
//! A simulation is a [`World`] — a state machine that reacts to events — plus
//! an [`Engine`] that owns the clock and the pending-event set and feeds the
//! world one event at a time. Worlds schedule follow-up events through the
//! [`Scheduler`] they are handed on every callback.
//!
//! ```
//! use vr_simcore::engine::{Engine, Scheduler, World};
//! use vr_simcore::time::{SimSpan, SimTime};
//!
//! /// Counts ticks until told to stop.
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! impl World for Ticker {
//!     type Event = ();
//!
//!     fn handle(&mut self, sched: &mut Scheduler<'_, ()>, _ev: ()) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             sched.schedule_in(SimSpan::from_secs(1), ());
//!         }
//!     }
//! }
//!
//! let mut world = Ticker { ticks: 0 };
//! let mut engine = Engine::new();
//! engine.scheduler().schedule_at(SimTime::ZERO, ());
//! let stats = engine.run_until(&mut world, SimTime::MAX);
//! assert_eq!(world.ticks, 5);
//! assert_eq!(stats.events_processed, 5);
//! assert_eq!(engine.now(), SimTime::from_secs(4));
//! ```

use serde::{Deserialize, Serialize};

use crate::event::EventQueue;
use crate::time::{SimSpan, SimTime};

/// A simulation state machine driven by an [`Engine`].
pub trait World {
    /// The event type the world reacts to.
    type Event;

    /// Reacts to one event. `sched.now()` is the event's firing time.
    fn handle(&mut self, sched: &mut Scheduler<'_, Self::Event>, event: Self::Event);
}

/// An observer invoked after every dispatched event.
///
/// Hooks see the world *after* it reacted, making them the natural seam for
/// invariant auditors and other cross-cutting observers that must not
/// perturb the simulation itself (the world is handed out immutably).
/// The no-op hook is `()`, which [`Engine::run_until`] uses.
pub trait EventHook<W: World> {
    /// Called once per dispatched event, after `world` handled it. `now` is
    /// the event's firing time.
    fn after_event(&mut self, world: &W, now: SimTime);
}

impl<W: World> EventHook<W> for () {
    fn after_event(&mut self, _world: &W, _now: SimTime) {}
}

impl<W: World, H: EventHook<W> + ?Sized> EventHook<W> for &mut H {
    fn after_event(&mut self, world: &W, now: SimTime) {
        (**self).after_event(world, now);
    }
}

/// `None` is a no-op observer, so an optional hook (an auditor that is
/// only sometimes enabled) needs no match over whether it is present.
impl<W: World, H: EventHook<W>> EventHook<W> for Option<H> {
    fn after_event(&mut self, world: &W, now: SimTime) {
        if let Some(hook) = self {
            hook.after_event(world, now);
        }
    }
}

/// Scheduling access handed to a [`World`] during event handling (and
/// available from the engine between runs to seed initial events).
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — discrete-event simulations must
    /// never schedule backwards.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={} requested={}",
            self.now,
            time
        );
        self.queue.schedule(time, event)
    }

    /// Schedules `event` after a relative delay.
    ///
    /// # Panics
    ///
    /// Panics if `self.now + delay` overflows the clock — routed through
    /// [`Scheduler::schedule_at`] so both entry points share the
    /// cannot-schedule-into-the-past guard.
    pub fn schedule_in(&mut self, delay: SimSpan, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Counters describing one [`Engine::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Events dispatched to the world.
    pub events_processed: u64,
    /// Clock value when the run stopped.
    pub final_time: SimTime,
    /// `true` if the run stopped because the queue drained (rather than the
    /// horizon being reached).
    pub drained: bool,
}

/// Owns the simulation clock and the pending-event set and drives a
/// [`World`].
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and no pending
    /// events.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A scheduler for seeding events outside of a world callback.
    pub fn scheduler(&mut self) -> Scheduler<'_, E> {
        Scheduler {
            now: self.now,
            queue: &mut self.queue,
        }
    }

    /// Dispatches the next event, advancing the clock to its firing time.
    ///
    /// Returns `false` if no event was pending.
    pub fn step<W: World<Event = E>>(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                let mut sched = Scheduler {
                    now: self.now,
                    queue: &mut self.queue,
                };
                world.handle(&mut sched, event);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains or the next event would fire strictly
    /// after `horizon`.
    ///
    /// Events firing exactly at `horizon` are processed. The clock never
    /// advances past the last processed event.
    pub fn run_until<W: World<Event = E>>(&mut self, world: &mut W, horizon: SimTime) -> RunStats {
        self.run_until_with(world, horizon, &mut ())
    }

    /// Like [`Engine::run_until`], but invokes `hook` after every dispatched
    /// event (see [`EventHook`]).
    pub fn run_until_with<W, H>(
        &mut self,
        world: &mut W,
        horizon: SimTime,
        hook: &mut H,
    ) -> RunStats
    where
        W: World<Event = E>,
        H: EventHook<W>,
    {
        let mut stats = RunStats::default();
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= horizon => {
                    self.step(world);
                    hook.after_event(world, self.now);
                    stats.events_processed += 1;
                }
                Some(_) => break,
                None => {
                    stats.drained = true;
                    break;
                }
            }
        }
        stats.final_time = self.now;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Ping,
        Pong,
    }

    #[derive(Default)]
    struct Recorder {
        log: Vec<(SimTime, Ev)>,
        respawn: bool,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<'_, Ev>, event: Ev) {
            self.log.push((sched.now(), event));
            if self.respawn && event == Ev::Ping {
                sched.schedule_in(SimSpan::from_secs(1), Ev::Pong);
            }
        }
    }

    #[test]
    fn runs_events_in_order_and_advances_clock() {
        let mut world = Recorder::default();
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(2), Ev::Pong);
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(1), Ev::Ping);
        let stats = engine.run_until(&mut world, SimTime::MAX);
        assert_eq!(
            world.log,
            vec![
                (SimTime::from_secs(1), Ev::Ping),
                (SimTime::from_secs(2), Ev::Pong)
            ]
        );
        assert_eq!(stats.events_processed, 2);
        assert!(stats.drained);
        assert_eq!(stats.final_time, SimTime::from_secs(2));
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut world = Recorder::default();
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(5), Ev::Ping);
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(6), Ev::Pong);
        let stats = engine.run_until(&mut world, SimTime::from_secs(5));
        assert_eq!(world.log, vec![(SimTime::from_secs(5), Ev::Ping)]);
        assert!(!stats.drained);
        // The event after the horizon is still pending.
        assert_eq!(engine.scheduler().pending(), 1);
    }

    #[test]
    fn world_can_schedule_follow_ups() {
        let mut world = Recorder {
            respawn: true,
            ..Recorder::default()
        };
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(1), Ev::Ping);
        engine.run_until(&mut world, SimTime::MAX);
        assert_eq!(
            world.log,
            vec![
                (SimTime::from_secs(1), Ev::Ping),
                (SimTime::from_secs(2), Ev::Pong)
            ]
        );
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut world = Recorder::default();
        let mut engine = Engine::new();
        assert!(!engine.step(&mut world));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut world = Recorder::default();
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(5), Ev::Ping);
        engine.run_until(&mut world, SimTime::MAX);
        // Clock is now at 5s; scheduling at 1s must panic.
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(1), Ev::Pong);
    }

    #[test]
    fn hook_observes_every_event_after_the_world_reacted() {
        struct Spy {
            seen: Vec<(SimTime, usize)>,
        }
        impl EventHook<Recorder> for Spy {
            fn after_event(&mut self, world: &Recorder, now: SimTime) {
                self.seen.push((now, world.log.len()));
            }
        }
        let mut world = Recorder {
            respawn: true,
            ..Recorder::default()
        };
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(1), Ev::Ping);
        let mut spy = Spy { seen: Vec::new() };
        let stats = engine.run_until_with(&mut world, SimTime::MAX, &mut spy);
        assert_eq!(stats.events_processed, 2);
        // The hook saw the world's log *after* each event was appended.
        assert_eq!(
            spy.seen,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]
        );
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn scheduling_in_cannot_wrap_into_the_past() {
        // Mirror of `scheduling_into_the_past_panics` for the relative entry
        // point: `SimSpan` is unsigned, so the only way `schedule_in` could
        // produce a past time is u64 wraparound — which must panic loudly
        // instead of silently scheduling an ancient event.
        let mut world = Recorder::default();
        let mut engine = Engine::new();
        engine
            .scheduler()
            .schedule_at(SimTime::from_secs(5), Ev::Ping);
        engine.run_until(&mut world, SimTime::MAX);
        // Clock is now at 5s; now + MAX overflows and must panic.
        engine.scheduler().schedule_in(SimSpan::MAX, Ev::Pong);
    }
}
