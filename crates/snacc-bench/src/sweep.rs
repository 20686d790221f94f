//! Deterministic parallel sweep runner.
//!
//! The figure binaries are sweeps: a list of self-contained simulation
//! jobs (variant × direction × seed), each bringing up its own
//! [`Engine`](snacc_sim::Engine) world. Jobs share no state, so they can
//! run on worker threads — but the simulation stack is intentionally
//! single-threaded (`Rc`-based, thread-local tracer/metrics), so each job
//! must *construct and run* its world entirely on one thread.
//!
//! [`run_jobs`] provides exactly that: a fixed worker pool pulls jobs in
//! index order, every job's console output is captured in a [`JobOutput`]
//! buffer, and the main thread flushes buffers strictly in job order. The
//! visible byte stream is therefore identical for `--jobs 1` and
//! `--jobs N` (CI asserts this; see `tests/jobs_determinism.rs`), and
//! identical to the pre-pool sequential binaries.
//!
//! Each job also records in a scope of its own, inline or on a worker: a
//! fresh metrics registry, a fresh tracer when the caller is tracing, and
//! the events its engines retire on the thread that ran it. When the job's
//! output is flushed, its scope is merged into the caller's: counters and
//! meters add, histogram samples and trace records are appended (see
//! [`MetricsRegistry::absorb`] and [`Tracer::absorb`]). So every metric
//! counts one job's system, `--trace`, `--metrics-json` and `--perf-json`
//! events are the same at any worker count, and a meter reset in one job
//! leaves the other jobs' counts alone.

use snacc_sim::engine::{credit_retired_events, lifetime_events_executed};
use snacc_trace::{MetricValues, MetricsRegistry, TraceRecords, Tracer};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Captured console output of one sweep job. Jobs print through this
/// handle instead of `println!`/`eprintln!`; the runner flushes each
/// job's lines (stderr first, then stdout) in job order.
#[derive(Default)]
pub struct JobOutput {
    out: Vec<String>,
    err: Vec<String>,
}

impl JobOutput {
    /// Buffer a stdout line.
    pub fn println(&mut self, line: impl Into<String>) {
        self.out.push(line.into());
    }

    /// Buffer a stderr line (progress/diagnostics).
    pub fn eprintln(&mut self, line: impl Into<String>) {
        self.err.push(line.into());
    }

    fn flush(self) {
        for l in self.err {
            eprintln!("{l}");
        }
        for l in self.out {
            println!("{l}");
        }
    }
}

/// One sweep job: runs a self-contained simulation, printing through the
/// given [`JobOutput`].
pub type Job<'a, R> = Box<dyn FnOnce(&mut JobOutput) -> R + Send + 'a>;

/// A finished job: its output, its result and what it recorded in its own
/// scope.
struct Slot<R> {
    log: JobOutput,
    result: std::thread::Result<R>,
    metrics: MetricValues,
    trace: Option<TraceRecords>,
    /// Events retired on a worker thread (an inline job's events already
    /// count on the caller's thread).
    events: u64,
}

/// Run `job` in a scope of its own: a fresh registry and, with
/// `trace_cap`, a fresh tracer of that capacity, both replaced by the
/// thread's own afterwards. `worker` says whether this is a worker thread.
fn run_one<R>(job: Job<'_, R>, trace_cap: Option<usize>, worker: bool) -> Slot<R> {
    let outer_metrics = snacc_trace::registry();
    let outer_trace = snacc_trace::uninstall();
    snacc_trace::install_registry(MetricsRegistry::new());
    if let Some(cap) = trace_cap {
        snacc_trace::install(Tracer::with_capacity(cap));
    }
    let events = lifetime_events_executed();
    let mut log = JobOutput::default();
    let result = catch_unwind(AssertUnwindSafe(|| job(&mut log)));
    let slot = Slot {
        log,
        result,
        metrics: snacc_trace::registry().take_values(),
        trace: snacc_trace::uninstall().map(|t| t.take_records()),
        events: if worker {
            lifetime_events_executed() - events
        } else {
            0
        },
    };
    snacc_trace::install_registry(outer_metrics);
    if let Some(t) = outer_trace {
        snacc_trace::install(t);
    }
    slot
}

/// Merge a finished job's scope into the caller's and flush its output; a
/// panicking job's panic then resumes on the caller's thread.
fn settle<R>(slot: Slot<R>) -> R {
    snacc_trace::registry().absorb(slot.metrics);
    if let (Some(records), Some(tracer)) = (slot.trace, snacc_trace::current()) {
        tracer.absorb(records);
    }
    credit_retired_events(slot.events);
    slot.log.flush();
    slot.result.unwrap_or_else(|p| resume_unwind(p))
}

/// Run `jobs` on a pool of `workers` threads, returning results in job
/// order. Output is flushed strictly in job order, so the byte stream is
/// independent of the worker count, and so is what each job's scope
/// merges into the caller's metrics, trace and event count. `workers <= 1`
/// runs inline with no threads (the CI-deterministic default). A panicking
/// job still flushes its output, then the panic resumes on the caller's
/// thread.
pub fn run_jobs<'a, R: Send>(workers: usize, jobs: Vec<Job<'a, R>>) -> Vec<R> {
    let n = jobs.len();
    let trace_cap = snacc_trace::current().map(|t| t.capacity());
    if workers <= 1 || n <= 1 {
        return jobs
            .into_iter()
            .map(|j| settle(run_one(j, trace_cap, false)))
            .collect();
    }
    let workers = workers.min(n);
    let queue: Mutex<VecDeque<(usize, Job<'a, R>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Mutex<Vec<Option<Slot<R>>>> = Mutex::new((0..n).map(|_| None).collect());
    let done = Condvar::new();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let next = queue.lock().expect("queue lock").pop_front();
                let Some((i, job)) = next else {
                    break;
                };
                let slot = run_one(job, trace_cap, true);
                slots.lock().expect("slot lock")[i] = Some(slot);
                done.notify_all();
            });
        }
        // Flush and collect in job order as results land.
        let mut results = Vec::with_capacity(n);
        for i in 0..n {
            let slot = {
                let mut g = slots.lock().expect("slot lock");
                while g[i].is_none() {
                    g = done.wait(g).expect("slot wait");
                }
                g[i].take().expect("checked above")
            };
            results.push(settle(slot));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacc_sim::{Engine, SimDuration};

    fn jobs(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| {
                Box::new(move |log: &mut JobOutput| {
                    log.eprintln(format!("job {i} starting"));
                    log.println(format!("job {i} result"));
                    i * 10
                }) as Job<'static, usize>
            })
            .collect()
    }

    #[test]
    fn results_are_in_job_order() {
        for workers in [1, 2, 4, 16] {
            let got = run_jobs(workers, jobs(9));
            assert_eq!(got, (0..9).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_are_allowed() {
        // Jobs may borrow caller state (e.g. a fault plan).
        let shared = vec![1u64, 2, 3];
        let work: Vec<Job<'_, u64>> = (0..3)
            .map(|i| {
                let shared = &shared;
                Box::new(move |_: &mut JobOutput| shared[i]) as Job<'_, u64>
            })
            .collect();
        assert_eq!(run_jobs(3, work), vec![1, 2, 3]);
    }

    #[test]
    fn each_job_counts_in_a_registry_of_its_own() {
        for workers in [1, 2] {
            snacc_trace::install_registry(MetricsRegistry::new());
            let work: Vec<Job<'static, u64>> = (0..2)
                .map(|_| {
                    Box::new(|_: &mut JobOutput| {
                        let c = snacc_trace::metric_counter("job.cmds");
                        let seen = c.get();
                        c.add(5);
                        seen
                    }) as Job<'static, u64>
                })
                .collect();
            assert_eq!(run_jobs(workers, work), [0, 0], "workers {workers}");
            let merged = snacc_trace::metric_counter("job.cmds").get();
            assert_eq!(merged, 10, "workers {workers}");
        }
    }

    #[test]
    fn a_meter_reset_stays_in_its_job() {
        // Each fig7 configuration resets `pcie.payload` after bring-up;
        // the merged meter must still hold every configuration's bytes.
        for workers in [1, 2] {
            snacc_trace::install_registry(MetricsRegistry::new());
            let work: Vec<Job<'static, ()>> = [100u64, 7]
                .into_iter()
                .map(|bytes| {
                    Box::new(move |_: &mut JobOutput| {
                        let m = snacc_trace::metric_meter("pcie.payload");
                        m.record(1);
                        m.reset();
                        m.record(bytes);
                    }) as Job<'static, ()>
                })
                .collect();
            run_jobs(workers, work);
            let m = snacc_trace::metric_meter("pcie.payload");
            assert_eq!((m.ops(), m.bytes()), (2, 107), "workers {workers}");
        }
    }

    /// A small traced simulation: spans on a per-job and a shared track.
    fn traced_job(i: u64) {
        let mut en = Engine::new();
        let span = snacc_trace::begin(&en, "shared", "job", &[("i", i)]);
        for k in 0..=i {
            en.schedule_in(SimDuration::from_ns(10 * k + i), move |en| {
                snacc_trace::instant(en, &format!("job{i}"), "tick", &[("k", k)]);
            });
        }
        en.run();
        snacc_trace::end(&en, span);
    }

    /// The exported trace and the retired-event count of three traced
    /// jobs: through the pool at `workers`, or in sequence on one tracer.
    fn traced_sweep(workers: Option<usize>) -> (String, u64) {
        let tracer = Tracer::new();
        snacc_trace::install(tracer.clone());
        let events = lifetime_events_executed();
        match workers {
            Some(w) => {
                let work = (0..3)
                    .map(|i| Box::new(move |_: &mut JobOutput| traced_job(i)) as Job<'static, ()>)
                    .collect();
                run_jobs(w, work);
            }
            None => (0..3).for_each(traced_job),
        }
        snacc_trace::uninstall();
        (
            snacc_trace::export_chrome_trace(&tracer),
            lifetime_events_executed() - events,
        )
    }

    #[test]
    fn traced_jobs_export_the_same_bytes_at_any_worker_count() {
        let one_tracer = traced_sweep(None);
        assert_eq!(one_tracer.1, 1 + 2 + 3);
        assert_eq!(traced_sweep(Some(1)), one_tracer);
        assert_eq!(traced_sweep(Some(4)), one_tracer);
    }

    #[test]
    fn panic_propagates_after_flush() {
        let work: Vec<Job<'static, ()>> = vec![
            Box::new(|_| ()),
            Box::new(|log: &mut JobOutput| {
                log.eprintln("about to fail");
                panic!("boom");
            }),
        ];
        let r = catch_unwind(AssertUnwindSafe(|| run_jobs(2, work)));
        assert!(r.is_err());
    }
}
