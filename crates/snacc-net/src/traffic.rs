//! Traffic generation and sinking for tests and benchmarks.
//!
//! The sender emits a deterministic byte stream (each byte is a function
//! of its stream offset), so the sink can verify **content, order and
//! completeness** — any loss, reorder or duplication under flow-control
//! stress shows up as a mismatch, not just a count difference.

use crate::frame::{EthFrame, MacAddr};
use crate::mac::{self, EthMac};
use snacc_sim::{Bandwidth, Engine, SimTime};
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// The expected payload byte at stream offset `off`.
#[inline]
pub fn pattern_byte(off: u64) -> u8 {
    (off.wrapping_mul(31) ^ (off >> 8)) as u8
}

/// Streams `total_bytes` of patterned data as fixed-size frames.
pub struct StreamSender {
    /// The MAC it is installed on, which owns it through its hook.
    mac: Weak<RefCell<EthMac>>,
    dst: MacAddr,
    payload_size: usize,
    total_bytes: u64,
    sent_bytes: u64,
    finished_at: Option<SimTime>,
}

impl StreamSender {
    /// Create and arm a sender on `mac`; it begins transmitting when
    /// [`kick`](Self::kick) is called and refills on TX-space events.
    pub fn start(
        mac_rc: Rc<RefCell<EthMac>>,
        en: &mut Engine,
        dst: MacAddr,
        payload_size: usize,
        total_bytes: u64,
    ) -> Rc<RefCell<StreamSender>> {
        let s = Rc::new(RefCell::new(StreamSender {
            mac: Rc::downgrade(&mac_rc),
            dst,
            payload_size,
            total_bytes,
            sent_bytes: 0,
            finished_at: None,
        }));
        let s2 = s.clone();
        mac_rc
            .borrow_mut()
            .set_tx_space_hook(move |en| StreamSender::kick(&s2, en));
        StreamSender::kick(&s, en);
        s
    }

    fn mac(&self) -> Rc<RefCell<EthMac>> {
        self.mac
            .upgrade()
            .expect("stream sender -> MAC: the MAC was dropped")
    }

    /// Push as many frames as the TX queue accepts right now.
    pub fn kick(rc: &Rc<RefCell<StreamSender>>, en: &mut Engine) {
        loop {
            let frame = {
                let mut s = rc.borrow_mut();
                if s.sent_bytes >= s.total_bytes {
                    if s.finished_at.is_none() {
                        s.finished_at = Some(en.now());
                    }
                    return;
                }
                let n = (s.payload_size as u64).min(s.total_bytes - s.sent_bytes) as usize;
                let mut payload = vec![0u8; n];
                for (i, b) in payload.iter_mut().enumerate() {
                    *b = pattern_byte(s.sent_bytes + i as u64);
                }
                let src = s.mac().borrow().addr();
                let f = EthFrame::data(s.dst, src, payload);
                // Tentatively account; rolled back if refused.
                s.sent_bytes += n as u64;
                f
            };
            let mac_rc = rc.borrow().mac();
            let n = frame.payload.len() as u64;
            if !mac::send(&mac_rc, en, frame) {
                rc.borrow_mut().sent_bytes -= n;
                return;
            }
        }
    }

    /// Bytes handed to the MAC so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// When the last byte was queued (None while still sending).
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }
}

/// Consumes frames at a bounded rate and verifies the pattern.
pub struct RateSink {
    /// The MAC it is installed on, which owns it through its hook.
    mac: Weak<RefCell<EthMac>>,
    /// None = drain at infinite speed.
    rate: Option<Bandwidth>,
    received_bytes: u64,
    mismatches: u64,
    busy: bool,
    last_byte_at: SimTime,
}

impl RateSink {
    /// Attach a sink to `mac`.
    pub fn attach(mac_rc: Rc<RefCell<EthMac>>, rate: Option<Bandwidth>) -> Rc<RefCell<RateSink>> {
        let s = Rc::new(RefCell::new(RateSink {
            mac: Rc::downgrade(&mac_rc),
            rate,
            received_bytes: 0,
            mismatches: 0,
            busy: false,
            last_byte_at: SimTime::ZERO,
        }));
        let s2 = s.clone();
        mac_rc
            .borrow_mut()
            .set_rx_hook(move |en| RateSink::drain(&s2, en));
        s
    }

    fn drain(rc: &Rc<RefCell<RateSink>>, en: &mut Engine) {
        if rc.borrow().busy {
            return;
        }
        let mac_rc = rc
            .borrow()
            .mac
            .upgrade()
            .expect("rate sink -> MAC: the MAC was dropped");
        let Some(frame) = mac::pop_frame(&mac_rc, en) else {
            return;
        };
        let mut s = rc.borrow_mut();
        for (i, &b) in frame.payload.iter().enumerate() {
            if b != pattern_byte(s.received_bytes + i as u64) {
                s.mismatches += 1;
            }
        }
        s.received_bytes += frame.payload.len() as u64;
        s.last_byte_at = en.now();
        match s.rate {
            None => {
                drop(s);
                // Keep draining synchronously.
                let rc2 = rc.clone();
                en.schedule_now(move |en| RateSink::drain(&rc2, en));
            }
            Some(rate) => {
                s.busy = true;
                let dt = rate.time_for(frame.payload.len() as u64);
                drop(s);
                let rc2 = rc.clone();
                en.schedule_in(dt, move |en| {
                    rc2.borrow_mut().busy = false;
                    RateSink::drain(&rc2, en);
                });
            }
        }
    }

    /// Total payload bytes consumed.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes
    }

    /// Pattern mismatches observed (0 = perfect in-order delivery).
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Arrival time of the most recent byte.
    pub fn last_byte_at(&self) -> SimTime {
        self.last_byte_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacConfig;

    #[test]
    fn pattern_is_deterministic() {
        assert_eq!(pattern_byte(12345), pattern_byte(12345));
        // Not constant.
        assert!(
            (0..100)
                .map(pattern_byte)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 10
        );
    }

    #[test]
    fn fast_sink_receives_everything_at_line_rate() {
        let mut en = Engine::new();
        let a = EthMac::new("a", MacAddr::from_index(1), MacConfig::eth_100g(), 1);
        let b = EthMac::new("b", MacAddr::from_index(2), MacConfig::eth_100g(), 2);
        mac::connect(&a, &b);
        let total: u64 = 16 << 20;
        let sink = RateSink::attach(b.clone(), None);
        let _sender = StreamSender::start(a.clone(), &mut en, MacAddr::from_index(2), 4096, total);
        let end = en.run();
        let s = sink.borrow();
        assert_eq!(s.received_bytes(), total);
        assert_eq!(s.mismatches(), 0);
        // Goodput close to 100 G line rate (≈ 12.37 GB/s after overhead).
        let gbps = total as f64 / 1e9 / end.as_secs_f64();
        assert!(gbps > 11.5 && gbps < 12.5, "{gbps}");
    }

    #[test]
    fn slow_sink_throttles_to_its_rate_without_loss() {
        let mut en = Engine::new();
        let a = EthMac::new("a", MacAddr::from_index(1), MacConfig::eth_100g(), 1);
        let b = EthMac::new("b", MacAddr::from_index(2), MacConfig::eth_100g(), 2);
        mac::connect(&a, &b);
        let total: u64 = 8 << 20;
        // Sink drains at ~2 GB/s — far below line rate.
        let sink = RateSink::attach(b.clone(), Some(Bandwidth::gb_per_s(2.0)));
        let _sender = StreamSender::start(a.clone(), &mut en, MacAddr::from_index(2), 4096, total);
        let end = en.run();
        let s = sink.borrow();
        assert_eq!(s.received_bytes(), total);
        assert_eq!(s.mismatches(), 0);
        assert_eq!(b.borrow().stats().rx_drops, 0);
        let gbps = total as f64 / 1e9 / end.as_secs_f64();
        assert!(gbps < 2.2, "throughput {gbps} must be sink-bound");
        assert!(b.borrow().stats().pauses_sent > 0);
    }
}
