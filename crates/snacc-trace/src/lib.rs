//! # snacc-trace — deterministic tracing & telemetry
//!
//! The observability layer for the SNAcc simulation workspace:
//!
//! * [`tracer`] — spans, instants and counter samples keyed by
//!   `(SimTime, record sequence, track)`. All identifiers come from
//!   deterministic engine/tracer counters, never wall clocks, so traces
//!   are bit-identical across runs of the same seed and configuration.
//! * [`metrics`] — a registry of named counters, meters and histograms
//!   that unifies the models' ad-hoc statistics into one snapshot.
//! * [`chrome`] — Chrome `trace_event` JSON export for Perfetto /
//!   `chrome://tracing`.
//! * [`probe`] — periodic simulated-time samplers for queue depths, ROB
//!   occupancy and link credits.
//!
//! ## Zero cost when disabled
//!
//! Instrumentation sites in the model crates are gated on
//! [`enabled`] — a thread-local `Cell<bool>` read — and do no argument
//! collection or allocation unless a tracer is installed. With tracing
//! off, a model run executes the identical event sequence it executed
//! before this crate existed.
//!
//! ## Example
//!
//! ```
//! use snacc_sim::{Engine, SimDuration};
//! use snacc_trace as trace;
//!
//! let tracer = trace::Tracer::new();
//! trace::install(tracer.clone());
//! let mut en = Engine::new();
//! let span = trace::begin(&en, "nvme.dev", "sqe", &[("cid", 7)]);
//! en.schedule_in(SimDuration::from_ns(900), move |en| {
//!     trace::end(en, span);
//! });
//! en.run();
//! trace::uninstall();
//! let json = trace::export_chrome_trace(&tracer);
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod chrome;
pub mod metrics;
pub mod probe;
pub mod tracer;

pub use chrome::export_chrome_trace;
pub use metrics::{
    counter as metric_counter, histogram as metric_histogram, install_registry,
    meter as metric_meter, registry, CounterHandle, HistogramHandle, MeterHandle, MetricValues,
    MetricsRegistry,
};
pub use tracer::{
    begin, counter, current, enabled, end, end_at, install, instant, instant_at, span_between,
    uninstall, SpanId, TraceEvent, TraceRecords, Tracer,
};
