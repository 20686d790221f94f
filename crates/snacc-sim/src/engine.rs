//! The discrete-event engine.
//!
//! Events are boxed `FnOnce(&mut Engine)` closures ordered by
//! `(time, insertion sequence)` — ties execute in FIFO order, which makes
//! every simulation run bit-for-bit deterministic. Hardware models are
//! `Rc<RefCell<...>>` structures captured by the closures they schedule.
//!
//! Internally, same-instant events — the dominant shape on the
//! AXIS/streamer datapath, where every hook defers through
//! `schedule_now` — bypass the [`BinaryHeap`] entirely via a FIFO lane.
//! The dispatch order is still the exact global `(time, seq)` order: the
//! lane is only ever populated with entries at the current instant,
//! whose `(time, seq)` keys are pushed in increasing order, so comparing
//! the lane front against the heap head yields the same event the single
//! heap would have popped. Closures ride inside the queue entries
//! themselves; an earlier slab-plus-free-list design that kept heap
//! entries slot-indexed cost pure timer workloads ~15% in per-event
//! indirection without helping the lane path, and was removed.

use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

type EventFn = Box<dyn FnOnce(&mut Engine)>;

/// A time-ordered queue entry carrying its event closure; ordering looks
/// only at `(time, seq)`.
struct HeapEntry {
    time: SimTime,
    seq: u64,
    f: EventFn,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

thread_local! {
    /// Events executed by engines that have finished (been dropped) on
    /// this thread — the process-lifetime counter behind the perf
    /// harness (`snacc-bench --perf-json`). A plain `Cell`: the DES is
    /// single-threaded by construction.
    static RETIRED_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Total events executed by all engines already dropped on this thread.
/// Add [`Engine::events_executed`] of any still-live engine for a full
/// count.
pub fn lifetime_events_executed() -> u64 {
    RETIRED_EVENTS.with(|c| c.get())
}

/// Count `n` events that engines on another thread executed towards this
/// thread's lifetime total (a sweep job run on a worker thread reports its
/// engines' events to the thread that asked for the job).
pub fn credit_retired_events(n: u64) {
    RETIRED_EVENTS.with(|c| c.set(c.get() + n));
}

/// The discrete-event simulation engine: an event queue plus the clock.
///
/// The engine owns no model state itself; models schedule closures that
/// borrow the engine mutably (for the clock and further scheduling) and
/// their own `Rc<RefCell<..>>` state.
pub struct Engine {
    now: SimTime,
    seq: u64,
    /// Future events, ordered by `(time, seq)`.
    queue: BinaryHeap<HeapEntry>,
    /// Same-instant FIFO lane: events scheduled for the current time.
    /// `(time, seq)` keys enter in strictly increasing order (time is
    /// monotone, seq globally so), so the front is always the lane's
    /// minimum.
    now_lane: VecDeque<(SimTime, u64, EventFn)>,
    executed: u64,
    /// Safety valve: panic if a run executes more events than this.
    /// Guards against accidental infinite self-rescheduling in models.
    event_limit: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        RETIRED_EVENTS.with(|c| c.set(c.get() + self.executed));
    }
}

impl Engine {
    /// Create an engine at t = 0 with the default event limit (10^10).
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            now_lane: VecDeque::new(),
            executed: 0,
            event_limit: 10_000_000_000,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events scheduled so far (the next insertion sequence
    /// number). Deterministic across runs; useful as an ID source for
    /// trace/telemetry layers that must never touch wall clocks.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len() + self.now_lane.len()
    }

    /// Replace the runaway-simulation event limit.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Schedule `f` to run at absolute time `t` (must not be in the past).
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut Engine) + 'static) {
        assert!(
            t >= self.now,
            "scheduling into the past: now={}, t={}",
            self.now,
            t
        );
        let seq = self.seq;
        self.seq += 1;
        if t == self.now {
            self.now_lane.push_back((t, seq, Box::new(f)));
        } else {
            self.queue.push(HeapEntry {
                time: t,
                seq,
                f: Box::new(f),
            });
        }
    }

    /// Schedule `f` to run `d` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, d: SimDuration, f: impl FnOnce(&mut Engine) + 'static) {
        self.schedule_at(self.now + d, f);
    }

    /// Schedule `f` to run at the current time, after all events already
    /// queued for this instant (FIFO tie-break).
    #[inline]
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Engine) + 'static) {
        let seq = self.seq;
        self.seq += 1;
        self.now_lane.push_back((self.now, seq, Box::new(f)));
    }

    /// `(time, seq)` of the next event in global dispatch order, if any.
    #[inline]
    fn peek_next(&self) -> Option<(SimTime, u64)> {
        match (self.queue.peek(), self.now_lane.front()) {
            (None, None) => None,
            (Some(h), None) => Some((h.time, h.seq)),
            (None, Some((t, s, _))) => Some((*t, *s)),
            (Some(h), Some((t, s, _))) => {
                if (*t, *s) < (h.time, h.seq) {
                    Some((*t, *s))
                } else {
                    Some((h.time, h.seq))
                }
            }
        }
    }

    /// Pop the next event in global dispatch order.
    #[inline]
    fn pop_next(&mut self) -> Option<(SimTime, EventFn)> {
        let from_lane = match (self.queue.peek(), self.now_lane.front()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(h), Some((t, s, _))) => (*t, *s) < (h.time, h.seq),
        };
        if from_lane {
            let (t, _, f) = self.now_lane.pop_front().expect("lane front checked");
            Some((t, f))
        } else {
            let e = self.queue.pop().expect("heap head checked");
            Some((e.time, e.f))
        }
    }

    /// Execute the next event, advancing the clock. Returns `false` when
    /// the queue is empty.
    ///
    /// # Panics
    ///
    /// When the event limit trips with events still pending (almost
    /// always an accidental infinite self-rescheduling loop in a model).
    /// The message names the limit, the clock, the pending count and the
    /// `(time, seq)` of the next event, which stays queued.
    pub fn step(&mut self) -> bool {
        if self.executed >= self.event_limit {
            if let Some((t, seq)) = self.peek_next() {
                panic!(
                    "simulation exceeded event limit ({}) at {} — runaway model? \
                     {} events pending, next at {t} (seq {seq})",
                    self.event_limit,
                    self.now,
                    self.pending()
                );
            }
        }
        let Some((time, f)) = self.pop_next() else {
            return false;
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.executed += 1;
        f(self);
        true
    }

    /// Run until the event queue drains; returns the final time. Panics
    /// if the event limit trips.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Run until the queue drains or the clock passes `deadline`.
    /// Events scheduled exactly at `deadline` still execute. Returns `true`
    /// if the queue drained (i.e. the simulation finished on its own).
    /// Panics if the event limit trips.
    pub fn run_until(&mut self, deadline: SimTime) -> bool {
        loop {
            match self.peek_next() {
                None => return true,
                Some((t, _)) if t > deadline => {
                    self.now = deadline;
                    return false;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Run while `cond()` holds and events remain. Returns `true` if the
    /// queue drained before the condition turned false. Panics if the
    /// event limit trips.
    pub fn run_while(&mut self, mut cond: impl FnMut() -> bool) -> bool {
        while cond() {
            if !self.step() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn executes_in_time_order() {
        let mut en = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for &ns in &[30u64, 10, 20] {
            let o = order.clone();
            en.schedule_at(SimTime::from_ns(ns), move |en| {
                o.borrow_mut().push(en.now().as_ns());
            });
        }
        en.run();
        assert_eq!(*order.borrow(), vec![10, 20, 30]);
        assert_eq!(en.events_executed(), 3);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut en = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u32 {
            let o = order.clone();
            en.schedule_at(SimTime::from_ns(7), move |_| o.borrow_mut().push(i));
        }
        en.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn schedule_now_runs_after_queued_same_instant() {
        let mut en = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o1 = order.clone();
        let o2 = order.clone();
        en.schedule_at(SimTime::ZERO, move |en| {
            let o = o1.clone();
            en.schedule_now(move |_| o.borrow_mut().push("late"));
            o1.borrow_mut().push("first");
        });
        en.schedule_at(SimTime::ZERO, move |_| o2.borrow_mut().push("second"));
        en.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "late"]);
    }

    #[test]
    fn lane_and_heap_interleave_in_seq_order() {
        // Events landing at the same instant from both paths — pre-queued
        // timers (heap) and same-instant deferrals (lane) — must still
        // execute in global seq order.
        let mut en = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let t = SimTime::from_ns(10);
        for i in 0..3u32 {
            let o = order.clone();
            en.schedule_at(t, move |_| o.borrow_mut().push(i));
        }
        let o = order.clone();
        en.schedule_at(t, move |en| {
            // Runs at t after 0,1,2: a lane event behind nothing.
            let o2 = o.clone();
            en.schedule_now(move |_| o2.borrow_mut().push(100));
            // And a timer for the same instant can no longer be created
            // (schedule_at(now) routes to the lane) — FIFO with the above.
            let o3 = o.clone();
            en.schedule_at(en.now(), move |_| o3.borrow_mut().push(101));
            o.borrow_mut().push(3);
        });
        en.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 100, 101]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut en = Engine::new();
        en.schedule_at(SimTime::from_ns(10), |en| {
            en.schedule_at(SimTime::from_ns(5), |_| {});
        });
        en.run();
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut en = Engine::new();
        let count = Rc::new(RefCell::new(0));
        fn tick(en: &mut Engine, count: Rc<RefCell<u32>>) {
            *count.borrow_mut() += 1;
            en.schedule_in(SimDuration::from_ns(10), move |en| tick(en, count));
        }
        let c = count.clone();
        en.schedule_at(SimTime::ZERO, move |en| tick(en, c));
        let drained = en.run_until(SimTime::from_ns(55));
        assert!(!drained);
        // Ticks at 0,10,20,30,40,50 → 6 executions.
        assert_eq!(*count.borrow(), 6);
        assert_eq!(en.now(), SimTime::from_ns(55));
    }

    #[test]
    fn run_until_deadline_inclusive() {
        let mut en = Engine::new();
        let hit = Rc::new(RefCell::new(false));
        let h = hit.clone();
        en.schedule_at(SimTime::from_ns(50), move |_| *h.borrow_mut() = true);
        en.run_until(SimTime::from_ns(50));
        assert!(*hit.borrow());
    }

    #[test]
    fn run_while_condition() {
        let mut en = Engine::new();
        let count = Rc::new(RefCell::new(0u32));
        for _ in 0..10 {
            let c = count.clone();
            en.schedule_in(SimDuration::from_ns(1), move |_| *c.borrow_mut() += 1);
        }
        let c = count.clone();
        let drained = en.run_while(move || *c.borrow() < 4);
        assert!(!drained);
        assert_eq!(*count.borrow(), 4);
    }

    #[test]
    fn event_limit_trips_with_a_diagnosis() {
        let mut en = Engine::new();
        en.set_event_limit(100);
        fn forever(en: &mut Engine) {
            en.schedule_in(SimDuration::from_ns(1), forever);
        }
        en.schedule_now(forever);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| en.run()))
            .expect_err("the limit must trip");
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("exceeded event limit (100)") && msg.contains("1 events pending, next at"),
            "{msg}"
        );
        // The event that would have run next is still queued, not consumed.
        assert_eq!(en.events_executed(), 100);
        assert_eq!(en.pending(), 1);
    }

    #[test]
    fn seq_counts_scheduled_events() {
        let mut en = Engine::new();
        assert_eq!(en.seq(), 0);
        en.schedule_now(|_| {});
        en.schedule_in(SimDuration::from_ns(1), |_| {});
        assert_eq!(en.seq(), 2);
    }

    #[test]
    fn same_instant_events_bypass_the_heap() {
        let mut en = Engine::new();
        en.schedule_at(SimTime::from_ns(10), |_| {});
        en.step();
        // A same-instant schedule_at routes to the FIFO lane, not the heap.
        en.schedule_at(SimTime::from_ns(10), |_| {});
        en.schedule_now(|_| {});
        assert_eq!(en.now_lane.len(), 2);
        assert_eq!(en.queue.len(), 0);
        en.run();
        assert_eq!(en.events_executed(), 3);
    }

    #[test]
    fn lifetime_counter_accumulates_dropped_engines() {
        let before = lifetime_events_executed();
        {
            let mut en = Engine::new();
            for _ in 0..7 {
                en.schedule_now(|_| {});
            }
            en.run();
        }
        assert_eq!(lifetime_events_executed() - before, 7);
    }
}
