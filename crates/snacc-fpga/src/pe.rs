//! Processing elements.
//!
//! A [`StagePe`] is a streaming kernel between two AXI4-Stream channels:
//! it pops input beats, transforms the bytes (really — the case-study
//! downscaler and classifier run actual arithmetic on the payload), takes
//! processing time proportional to a configured throughput, and pushes
//! results downstream, stalling on backpressure exactly like an RTL
//! kernel whose output `ready` deasserts.

use crate::axis::{self, AxisChannel, StreamBeat};
use crate::resources::ResourceUsage;
use snacc_sim::{Bandwidth, Engine};
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// A transform applied per input beat; returns the output beats.
pub type BeatTransform = Box<dyn FnMut(StreamBeat) -> Vec<StreamBeat>>;

/// A rate-modelled streaming stage.
pub struct StagePe {
    name: String,
    /// The channels it is installed on; they own the stage through their
    /// hooks.
    input: Weak<RefCell<AxisChannel>>,
    output: Weak<RefCell<AxisChannel>>,
    /// Processing throughput with respect to *input* bytes.
    rate: Bandwidth,
    transform: BeatTransform,
    /// Outputs produced but not yet accepted downstream.
    pending: Vec<StreamBeat>,
    busy: bool,
    resources: ResourceUsage,
    beats_processed: u64,
    bytes_processed: u64,
}

impl StagePe {
    /// Build and arm a stage between `input` and `output`.
    pub fn start(
        name: impl Into<String>,
        en: &mut Engine,
        input: Rc<RefCell<AxisChannel>>,
        output: Rc<RefCell<AxisChannel>>,
        rate: Bandwidth,
        resources: ResourceUsage,
        transform: BeatTransform,
    ) -> Rc<RefCell<StagePe>> {
        let pe = Rc::new(RefCell::new(StagePe {
            name: name.into(),
            input: Rc::downgrade(&input),
            output: Rc::downgrade(&output),
            rate,
            transform,
            pending: Vec::new(),
            busy: false,
            resources,
            beats_processed: 0,
            bytes_processed: 0,
        }));
        let p1 = pe.clone();
        input
            .borrow_mut()
            .set_data_hook(move |en| StagePe::pump(&p1, en));
        let p2 = pe.clone();
        output
            .borrow_mut()
            .set_space_hook(move |en| StagePe::pump(&p2, en));
        StagePe::pump(&pe, en);
        pe
    }

    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared resource usage.
    pub fn resources(&self) -> ResourceUsage {
        self.resources
    }

    /// Input beats fully processed.
    pub fn beats_processed(&self) -> u64 {
        self.beats_processed
    }

    /// Input bytes fully processed.
    pub fn bytes_processed(&self) -> u64 {
        self.bytes_processed
    }

    /// Advance the stage: flush pending outputs, then start the next beat.
    pub fn pump(rc: &Rc<RefCell<StagePe>>, en: &mut Engine) {
        // Flush pending outputs first (they block the pipeline).
        {
            let output = channel(&rc.borrow().output);
            loop {
                let next = {
                    let mut p = rc.borrow_mut();
                    if p.pending.is_empty() {
                        break;
                    }
                    p.pending.remove(0)
                };
                if !axis::push(&output, en, next.clone()) {
                    // Put it back; the output space hook re-pumps.
                    rc.borrow_mut().pending.insert(0, next);
                    return;
                }
            }
        }
        // Start processing the next input beat if idle.
        let beat = {
            let p = rc.borrow();
            if p.busy {
                return;
            }
            let input = channel(&p.input);
            drop(p);
            let beat = match axis::pop(&input, en) {
                Some(b) => b,
                None => return,
            };
            rc.borrow_mut().busy = true;
            beat
        };
        let dt = rc.borrow().rate.time_for(beat.len() as u64);
        let rc2 = rc.clone();
        en.schedule_in(dt, move |en| {
            {
                let mut p = rc2.borrow_mut();
                p.busy = false;
                p.beats_processed += 1;
                p.bytes_processed += beat.len() as u64;
                let outs = (p.transform)(beat);
                p.pending.extend(outs);
            }
            StagePe::pump(&rc2, en);
        });
    }
}

fn channel(ch: &Weak<RefCell<AxisChannel>>) -> Rc<RefCell<AxisChannel>> {
    ch.upgrade()
        .expect("stage PE -> channel: the channel was dropped")
}

/// Convenience: drive a channel from a byte buffer, chunked into beats of
/// `chunk` bytes, TLAST on the final beat. Returns the beats pushed (the
/// caller re-kicks on the space hook if it returns less than the total).
/// The buffer is shared once; the per-chunk beats are zero-copy windows.
pub fn feed_all(
    ch: &Rc<RefCell<AxisChannel>>,
    en: &mut Engine,
    data: impl Into<snacc_sim::Payload>,
    chunk: usize,
) -> bool {
    let data = data.into();
    let n = data.len();
    let mut off = 0;
    while off < n {
        let end = (off + chunk).min(n);
        let beat = StreamBeat {
            data: data.slice(off..end),
            last: end == n,
        };
        if !axis::push(ch, en, beat) {
            return false;
        }
        off = end;
    }
    true
}

/// Convenience: drain a channel into a byte vector until a TLAST beat.
/// Returns `None` if a complete transfer isn't available yet.
pub fn collect_transfer(ch: &Rc<RefCell<AxisChannel>>, en: &mut Engine) -> Option<Vec<u8>> {
    if !ch.borrow().has_complete_transfer() {
        return None;
    }
    let mut out = Vec::new();
    loop {
        let beat = axis::pop(ch, en).expect("transfer checked complete");
        out.extend_from_slice(&beat.data);
        if beat.last {
            return Some(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacc_sim::SimTime;

    #[test]
    fn transform_applies_and_times() {
        let mut en = Engine::new();
        let a = AxisChannel::new("in", 1 << 20);
        let b = AxisChannel::new("out", 1 << 20);
        // Invert every byte at 1 GB/s.
        let _pe = StagePe::start(
            "inv",
            &mut en,
            a.clone(),
            b.clone(),
            Bandwidth::gb_per_s(1.0),
            ResourceUsage::default(),
            Box::new(|beat| {
                let data: Vec<u8> = beat.data.iter().map(|x| !x).collect();
                vec![StreamBeat {
                    data: data.into(),
                    last: beat.last,
                }]
            }),
        );
        feed_all(&a, &mut en, [0x0f; 1000], 256);
        let end = en.run();
        let got = collect_transfer(&b, &mut en).expect("complete transfer");
        assert_eq!(got, vec![0xf0; 1000]);
        // 1000 B at 1 GB/s = 1 µs.
        assert_eq!(end.since(SimTime::ZERO).as_ns(), 1000);
    }

    #[test]
    fn backpressure_stalls_upstream() {
        let mut en = Engine::new();
        let a = AxisChannel::new("in", 1 << 20);
        let b = AxisChannel::new("out", 512); // tiny downstream buffer
        let _pe = StagePe::start(
            "copy",
            &mut en,
            a.clone(),
            b.clone(),
            Bandwidth::gb_per_s(100.0),
            ResourceUsage::default(),
            Box::new(|beat| vec![beat]),
        );
        feed_all(&a, &mut en, [7u8; 4096], 256);
        en.run();
        // Downstream is full; the PE must be stalled with input remaining.
        assert!(b.borrow().occupancy() <= 512);
        assert!(a.borrow().occupancy() > 0, "input should still hold beats");
        // Drain downstream; pipeline resumes.
        let mut total = 0;
        while total < 4096 {
            if let Some(beat) = axis::pop(&b, &mut en) {
                total += beat.len();
                en.run();
            } else {
                break;
            }
        }
        assert_eq!(total, 4096);
        assert!(a.borrow().is_empty());
    }

    #[test]
    fn fan_out_beats() {
        // One input beat → two output beats (e.g. header + payload).
        let mut en = Engine::new();
        let a = AxisChannel::new("in", 1 << 20);
        let b = AxisChannel::new("out", 1 << 20);
        let _pe = StagePe::start(
            "split",
            &mut en,
            a.clone(),
            b.clone(),
            Bandwidth::gb_per_s(10.0),
            ResourceUsage::default(),
            Box::new(|beat| {
                let (head, tail) = beat.data.split_at(beat.data.len() / 2);
                vec![
                    StreamBeat::mid(head),
                    StreamBeat {
                        data: tail,
                        last: beat.last,
                    },
                ]
            }),
        );
        feed_all(&a, &mut en, [1u8; 100], 100);
        en.run();
        assert_eq!(b.borrow().pending(), 2);
        let out = collect_transfer(&b, &mut en).unwrap();
        assert_eq!(out, vec![1u8; 100]);
    }

    #[test]
    fn throughput_counts() {
        let mut en = Engine::new();
        let a = AxisChannel::new("in", 1 << 20);
        let b = AxisChannel::new("out", 1 << 20);
        let pe = StagePe::start(
            "id",
            &mut en,
            a.clone(),
            b.clone(),
            Bandwidth::gb_per_s(1.0),
            ResourceUsage::default(),
            Box::new(|beat| vec![beat]),
        );
        feed_all(&a, &mut en, [0u8; 2048], 512);
        en.run();
        assert_eq!(pe.borrow().beats_processed(), 4);
        assert_eq!(pe.borrow().bytes_processed(), 2048);
    }
}
