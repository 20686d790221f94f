//! The deterministic tracer: spans, instants and counter samples keyed by
//! `(SimTime, record sequence, track)`.
//!
//! Every identifier is derived from monotonically increasing counters that
//! advance in event-execution order — which the engine guarantees is
//! deterministic — so two runs with the same seed and configuration
//! produce bit-identical traces. No wall clocks, no addresses, no hashing
//! of unordered containers.
//!
//! The tracer is installed into a thread-local slot ([`install`]) because
//! the whole simulation is single-threaded by design; model code checks
//! [`enabled`] — a plain `Cell<bool>` read — before doing any argument
//! formatting, which keeps the disabled path free of allocation. A sweep
//! job records into a tracer of its own, on whatever thread runs it, and
//! the caller's tracer [`absorbs`](Tracer::absorb) its
//! [`records`](Tracer::take_records) afterwards.

use snacc_sim::{Engine, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Identifier of an open span. `SpanId::NONE` (the zero value) is inert:
/// ending it is a no-op, so models can unconditionally store span IDs in
/// their command state even when tracing is disabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The inert span: produced when tracing is disabled, ignored by
    /// [`end`] / [`end_at`].
    pub const NONE: SpanId = SpanId(0);

    /// True for the inert span.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Key/value annotations attached to an event. Values are `u64` so sites
/// never format strings on the hot path.
pub type Args = Vec<(&'static str, u64)>;

/// One recorded trace event. `seq` is the tracer-local record sequence —
/// the total order in which events were recorded, used as the
/// deterministic tie-break when sorting by time at export.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// Span open (Chrome `ph:"b"`).
    Begin {
        /// Simulated time of the open.
        t: SimTime,
        /// Tracer-local record sequence.
        seq: u64,
        /// Track the span lives on.
        track: u32,
        /// Span name.
        name: &'static str,
        /// Span identifier (matches the `End`).
        span: u64,
        /// Annotations.
        args: Args,
    },
    /// Span close (Chrome `ph:"e"`).
    End {
        /// Simulated time of the close.
        t: SimTime,
        /// Tracer-local record sequence.
        seq: u64,
        /// Track the span lives on.
        track: u32,
        /// Span name (must match the `Begin`).
        name: &'static str,
        /// Span identifier.
        span: u64,
    },
    /// A point event (Chrome `ph:"i"`).
    Mark {
        /// Simulated time.
        t: SimTime,
        /// Tracer-local record sequence.
        seq: u64,
        /// Track.
        track: u32,
        /// Event name.
        name: &'static str,
        /// Annotations.
        args: Args,
    },
    /// A sampled counter value (Chrome `ph:"C"`).
    Counter {
        /// Simulated time of the sample.
        t: SimTime,
        /// Tracer-local record sequence.
        seq: u64,
        /// Track.
        track: u32,
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The same event with its sequence and span numbers offset by
    /// `by_seq` and `by_span`, and its track renumbered through `tracks`.
    fn shifted(mut self, by_seq: u64, by_span: u64, tracks: &[u32]) -> TraceEvent {
        let (s, track, id) = match &mut self {
            TraceEvent::Begin {
                seq, track, span, ..
            }
            | TraceEvent::End {
                seq, track, span, ..
            } => (seq, track, Some(span)),
            TraceEvent::Mark { seq, track, .. } | TraceEvent::Counter { seq, track, .. } => {
                (seq, track, None)
            }
        };
        *s += by_seq;
        *track = tracks[*track as usize];
        if let Some(id) = id {
            *id += by_span;
        }
        self
    }

    /// `(time, record seq)` sort key for export.
    pub(crate) fn key(&self) -> (SimTime, u64) {
        match self {
            TraceEvent::Begin { t, seq, .. }
            | TraceEvent::End { t, seq, .. }
            | TraceEvent::Mark { t, seq, .. }
            | TraceEvent::Counter { t, seq, .. } => (*t, *seq),
        }
    }
}

pub(crate) struct TracerInner {
    pub(crate) events: Vec<TraceEvent>,
    /// Open spans: span id → (track, name), consumed by `end`.
    open: BTreeMap<u64, (u32, &'static str)>,
    next_span: u64,
    /// Track names in registration order; index = track id.
    pub(crate) tracks: Vec<String>,
    track_ids: BTreeMap<String, u32>,
    seq: u64,
    cap: usize,
    pub(crate) dropped: u64,
}

/// A tracer's records as plain data. A [`Tracer`] is an `Rc` bound to its
/// thread; this is the form in which a sweep job run on a worker thread
/// hands its trace back to the caller.
pub struct TraceRecords(TracerInner);

/// A cloneable handle to one trace buffer. Install it with [`install`],
/// run the simulation, then export with
/// [`export_chrome_trace`](crate::chrome::export_chrome_trace).
#[derive(Clone)]
pub struct Tracer {
    pub(crate) inner: Rc<RefCell<TracerInner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Default event-buffer capacity. Generous enough for full figure runs;
/// recording stops (deterministically) past this point and the dropped
/// count is reported in the export metadata.
const DEFAULT_EVENT_CAP: usize = 4_000_000;

impl Tracer {
    /// A tracer with the default event capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAP)
    }

    /// A tracer that stops recording after `cap` events (the drop is
    /// deterministic: same run, same events dropped).
    pub fn with_capacity(cap: usize) -> Self {
        Tracer {
            inner: Rc::new(RefCell::new(TracerInner::new(cap))),
        }
    }

    /// Number of events recorded so far.
    pub fn events_recorded(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// Number of events dropped after the buffer filled.
    pub fn events_dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// The event capacity.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().cap
    }

    /// Move every record out, leaving the tracer empty.
    pub fn take_records(&self) -> TraceRecords {
        let mut inner = self.inner.borrow_mut();
        let cap = inner.cap;
        TraceRecords(std::mem::replace(&mut *inner, TracerInner::new(cap)))
    }

    /// Append `records` as if this tracer had recorded them after all it
    /// holds: their sequence and span numbers continue this tracer's,
    /// their tracks are matched by name, and this tracer's capacity
    /// applies. Absorbing, in order, the records of tracers that recorded
    /// one after another therefore exports the bytes one shared tracer
    /// would have.
    pub fn absorb(&self, TraceRecords(records): TraceRecords) {
        let mut inner = self.inner.borrow_mut();
        let tracks: Vec<u32> = records.tracks.iter().map(|t| inner.track_id(t)).collect();
        let (seq, span) = (inner.seq, inner.next_span - 1);
        for ev in records.events {
            inner.push(ev.shifted(seq, span, &tracks));
        }
        inner.seq += records.seq;
        inner.next_span += records.next_span - 1;
        inner.dropped += records.dropped;
    }
}

impl TracerInner {
    fn new(cap: usize) -> Self {
        TracerInner {
            events: Vec::new(),
            open: BTreeMap::new(),
            next_span: 1,
            tracks: Vec::new(),
            track_ids: BTreeMap::new(),
            seq: 0,
            cap,
            dropped: 0,
        }
    }

    fn track_id(&mut self, track: &str) -> u32 {
        if let Some(&id) = self.track_ids.get(track) {
            return id;
        }
        let id = self.tracks.len() as u32;
        self.tracks.push(track.to_string());
        self.track_ids.insert(track.to_string(), id);
        id
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Install `tracer` as the thread's active tracer and enable recording.
pub fn install(tracer: Tracer) {
    CURRENT.with(|c| *c.borrow_mut() = Some(tracer));
    ENABLED.with(|e| e.set(true));
}

/// Disable recording and return the active tracer, if any.
pub fn uninstall() -> Option<Tracer> {
    ENABLED.with(|e| e.set(false));
    CURRENT.with(|c| c.borrow_mut().take())
}

/// The thread's active tracer, if any (it keeps recording).
pub fn current() -> Option<Tracer> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Cheap fast-path check: is a tracer installed and recording? Model code
/// gates every instrumentation site on this so the disabled path does no
/// formatting or allocation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

fn with_tracer(f: impl FnOnce(&mut TracerInner)) {
    if !enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(tracer) = c.borrow().as_ref() {
            f(&mut tracer.inner.borrow_mut());
        }
    });
}

/// Record a point event at the current simulated time.
pub fn instant(en: &Engine, track: &str, name: &'static str, args: &[(&'static str, u64)]) {
    instant_at(en.now(), track, name, args);
}

/// Record a point event at an explicit simulated time. Used by spots that
/// know a completion time without scheduling an event for it (scheduling
/// from the tracer would perturb `events_executed` and break the
/// trace-off/trace-on equivalence).
pub fn instant_at(t: SimTime, track: &str, name: &'static str, args: &[(&'static str, u64)]) {
    with_tracer(|inner| {
        let track = inner.track_id(track);
        let seq = inner.next_seq();
        inner.push(TraceEvent::Mark {
            t,
            seq,
            track,
            name,
            args: args.to_vec(),
        });
    });
}

/// Open a span at the current simulated time. Returns [`SpanId::NONE`]
/// when tracing is disabled.
pub fn begin(en: &Engine, track: &str, name: &'static str, args: &[(&'static str, u64)]) -> SpanId {
    let mut id = SpanId::NONE;
    let t = en.now();
    with_tracer(|inner| {
        let track = inner.track_id(track);
        let span = inner.next_span;
        inner.next_span += 1;
        inner.open.insert(span, (track, name));
        let seq = inner.next_seq();
        inner.push(TraceEvent::Begin {
            t,
            seq,
            track,
            name,
            span,
            args: args.to_vec(),
        });
        id = SpanId(span);
    });
    id
}

/// Close a span at the current simulated time. No-op for
/// [`SpanId::NONE`] or unknown spans.
pub fn end(en: &Engine, span: SpanId) {
    end_at(en.now(), span);
}

/// Close a span at an explicit simulated time (see [`instant_at`] for why
/// explicit-time recording exists).
pub fn end_at(t: SimTime, span: SpanId) {
    if span.is_none() {
        return;
    }
    with_tracer(|inner| {
        if let Some((track, name)) = inner.open.remove(&span.0) {
            let seq = inner.next_seq();
            inner.push(TraceEvent::End {
                t,
                seq,
                track,
                name,
                span: span.0,
            });
        }
    });
}

/// Record a complete span between two known instants in one call —
/// the common shape for transfer-style activities whose completion time
/// is computed analytically (link serialisation, TLP bursts).
pub fn span_between(
    track: &str,
    name: &'static str,
    start: SimTime,
    finish: SimTime,
    args: &[(&'static str, u64)],
) {
    with_tracer(|inner| {
        let track = inner.track_id(track);
        let span = inner.next_span;
        inner.next_span += 1;
        let seq = inner.next_seq();
        inner.push(TraceEvent::Begin {
            t: start,
            seq,
            track,
            name,
            span,
            args: args.to_vec(),
        });
        let seq = inner.next_seq();
        inner.push(TraceEvent::End {
            t: finish,
            seq,
            track,
            name,
            span,
        });
    });
}

/// Record a counter sample at the current simulated time.
pub fn counter(en: &Engine, track: &str, name: &'static str, value: f64) {
    let t = en.now();
    with_tracer(|inner| {
        let track = inner.track_id(track);
        let seq = inner.next_seq();
        inner.push(TraceEvent::Counter {
            t,
            seq,
            track,
            name,
            value,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacc_sim::SimDuration;

    #[test]
    fn disabled_tracer_is_inert() {
        assert!(!enabled());
        let en = Engine::new();
        let span = begin(&en, "t", "x", &[]);
        assert!(span.is_none());
        end(&en, span);
        instant(&en, "t", "y", &[("k", 1)]);
        // Nothing to assert beyond "did not panic": no tracer installed.
    }

    #[test]
    fn records_spans_and_instants() {
        let tracer = Tracer::new();
        install(tracer.clone());
        let mut en = Engine::new();
        let span = begin(&en, "dev", "cmd", &[("len", 4096)]);
        assert!(!span.is_none());
        en.schedule_in(SimDuration::from_ns(10), move |en| {
            end(en, span);
            instant(en, "dev", "done", &[]);
        });
        en.run();
        uninstall();
        assert!(!enabled());
        assert_eq!(tracer.events_recorded(), 3);
        assert_eq!(tracer.events_dropped(), 0);
    }

    /// Run `run` of a small trace: a span and a counter on track `dev`, a
    /// span left open, and in run 1 a mark on a second track.
    fn record(run: u64) {
        let mut en = Engine::new();
        let span = begin(&en, "dev", "cmd", &[("run", run)]);
        let _open = begin(&en, "dev", "open", &[]);
        en.schedule_in(SimDuration::from_ns(10 + run), move |en| {
            end(en, span);
            if run == 1 {
                instant(en, "late", "mark", &[]);
            }
            counter(en, "dev", "depth", run as f64);
        });
        en.run();
    }

    /// Runs 0 and 1 exported from a tracer of capacity `cap`, recorded
    /// into it directly or, with `merged`, absorbed from a tracer per run.
    fn export(cap: usize, merged: bool) -> String {
        let tracer = Tracer::with_capacity(cap);
        install(tracer.clone());
        for run in 0..2 {
            if merged {
                let caller = uninstall().unwrap();
                let job = Tracer::with_capacity(caller.capacity());
                install(job.clone());
                record(run);
                uninstall();
                caller.absorb(job.take_records());
                install(caller);
            } else {
                record(run);
            }
        }
        uninstall();
        crate::export_chrome_trace(&tracer)
    }

    #[test]
    fn absorbed_tracers_export_like_one_shared_tracer() {
        // At cap 7 the second run's records are dropped part way.
        for cap in [100, 7] {
            assert_eq!(export(cap, true), export(cap, false), "cap {cap}");
        }
        assert!(export(7, true).contains("snaccDroppedEvents"));
    }

    #[test]
    fn capacity_drops_deterministically() {
        let tracer = Tracer::with_capacity(2);
        install(tracer.clone());
        let en = Engine::new();
        for _ in 0..5 {
            instant(&en, "t", "tick", &[]);
        }
        uninstall();
        assert_eq!(tracer.events_recorded(), 2);
        assert_eq!(tracer.events_dropped(), 3);
    }
}
