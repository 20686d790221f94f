//! Traffic generation and sinking for tests, benchmarks and the case
//! study.
//!
//! [`FrameSender`] carries every traffic source: it cuts the `(header,
//! body)` messages a source yields into data frames and resends a refused
//! frame when the TX queue drains. [`StreamSender`] is its
//! pattern source: the stream's byte at offset `o` is
//! [`pattern_byte`]`(STREAM_SEED, o)`, so the sink can verify **content,
//! order and completeness** — any loss, reorder or duplication under
//! flow-control stress shows up as a mismatch, not just a count
//! difference.

use crate::frame::{EthFrame, MacAddr};
use crate::mac::{self, EthMac};
use snacc_sim::bytes::pattern_byte;
use snacc_sim::{Bandwidth, Engine, Payload, SimTime};
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// The seed of [`StreamSender`]'s byte stream.
pub const STREAM_SEED: u64 = 0x5eed;

/// Sends the messages of a source as data frames of at most
/// `frame_payload` bytes. Each frame is a window of the message: only the
/// frame that straddles the header/body seam copies its bytes.
pub struct FrameSender<F> {
    /// The MAC it is installed on, which owns it through its hook.
    mac: Weak<RefCell<EthMac>>,
    dst: MacAddr,
    frame_payload: usize,
    /// Yields the next `(header, body)` message, or `None` when done.
    source: F,
    /// The message being cut, and how many of its bytes the MAC accepted.
    current: Option<(Payload, Payload, usize)>,
}

impl<F: FnMut() -> Option<(Payload, Payload)> + 'static> FrameSender<F> {
    /// Send `source`'s messages from `mac_rc` to `dst`: as many frames as
    /// the TX queue takes now, and more on each TX-space hook.
    pub fn start(
        en: &mut Engine,
        mac_rc: &Rc<RefCell<EthMac>>,
        dst: MacAddr,
        frame_payload: usize,
        source: F,
    ) {
        assert!(frame_payload > 0, "frames must carry payload");
        let mut s = FrameSender {
            mac: Rc::downgrade(mac_rc),
            dst,
            frame_payload,
            source,
            current: None,
        };
        s.kick(en);
        mac_rc.borrow_mut().set_tx_space_hook(move |en| s.kick(en));
    }

    /// Push frames while the MAC accepts them. A refused frame stays the
    /// current position, to go first on the next hook.
    fn kick(&mut self, en: &mut Engine) {
        let mac_rc = self
            .mac
            .upgrade()
            .expect("frame sender -> MAC: the MAC was dropped");
        let src = mac_rc.borrow().addr();
        loop {
            let (hdr, body, pos) = match self.current.take() {
                Some(at) => at,
                None => match (self.source)() {
                    Some((hdr, body)) => (hdr, body, 0),
                    None => return,
                },
            };
            let hb = hdr.len();
            let total = hb + body.len();
            let end = total.min(pos + self.frame_payload);
            let payload = if pos >= hb {
                body.slice(pos - hb..end - hb)
            } else if end <= hb {
                hdr.slice(pos..end)
            } else {
                Payload::concat(&[hdr.slice(pos..hb), body.slice(0..end - hb)])
            };
            if !mac::send(&mac_rc, en, EthFrame::data(self.dst, src, payload)) {
                self.current = Some((hdr, body, pos));
                return;
            }
            if end < total {
                self.current = Some((hdr, body, end));
            }
        }
    }
}

/// Streams `total_bytes` of the [`STREAM_SEED`] pattern as frames of
/// `payload_size` bytes. Each frame is a lazy pattern window, so no frame
/// bytes are built unless a receiver reads them.
pub struct StreamSender;

impl StreamSender {
    /// Start streaming from `mac_rc` to `dst`.
    pub fn start(
        mac_rc: Rc<RefCell<EthMac>>,
        en: &mut Engine,
        dst: MacAddr,
        payload_size: usize,
        total_bytes: u64,
    ) {
        let mut sent = 0u64;
        FrameSender::start(en, &mac_rc, dst, payload_size, move || {
            let n = (payload_size as u64).min(total_bytes - sent);
            (n > 0).then(|| {
                let window = Payload::pattern(STREAM_SEED + sent, n as usize);
                sent += n;
                (Payload::empty(), window)
            })
        });
    }
}

/// Consumes frames at a bounded rate and verifies them against
/// [`StreamSender`]'s stream.
pub struct RateSink {
    /// The MAC it is installed on, which owns it through its hook.
    mac: Weak<RefCell<EthMac>>,
    /// None = drain at infinite speed.
    rate: Option<Bandwidth>,
    /// Total payload bytes consumed.
    pub received_bytes: u64,
    /// Bytes that differ from the stream at their offset (0 = perfect
    /// in-order delivery).
    pub mismatches: u64,
    busy: bool,
    /// Arrival time of the most recent byte.
    pub last_byte_at: SimTime,
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
        // An intact frame is the stream's window at `received_bytes`; only
        // a frame shifted by loss, or rebuilt, needs its bytes compared.
        let at = s.received_bytes;
        if frame.payload.pattern_origin() != Some(STREAM_SEED + at) {
            s.mismatches += frame
                .payload
                .iter()
                .zip(at..)
                .filter(|&(&b, off)| b != pattern_byte(STREAM_SEED, off))
                .count() as u64;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacConfig;

    #[test]
    fn frame_sender_frames_rebuild_every_message() {
        const FRAME: usize = 8192;
        // A capture-sized image is 9.4 MB against a 256 KiB TX queue, so
        // the sender is refused and resumes about a thousand times per
        // image. The messages cover a header inside the first frame, a
        // header longer than a frame, and no header at all.
        let image = 2048 * 1536 * 3;
        let msgs = [
            (
                Payload::from_vec(vec![0xab; 13]),
                Payload::pattern(1, image),
            ),
            (
                Payload::pattern(2, 20_000),
                Payload::from_vec(vec![7; 5000]),
            ),
            (Payload::empty(), Payload::pattern(3, image)),
        ];
        let mut en = Engine::new();
        let a = EthMac::new("a", MacAddr::from_index(1), MacConfig::eth_100g(), 1);
        let b = EthMac::new("b", MacAddr::from_index(2), MacConfig::eth_100g(), 2);
        mac::connect(&a, &b);
        let frames = Rc::new(RefCell::new(Vec::new()));
        let (got, rx) = (frames.clone(), Rc::downgrade(&b));
        b.borrow_mut().set_rx_hook(move |en| {
            let rx = rx.upgrade().expect("receiver alive");
            while let Some(f) = mac::pop_frame(&rx, en) {
                got.borrow_mut().push(f.payload);
            }
        });
        let mut source = msgs.clone().into_iter();
        FrameSender::start(&mut en, &a, MacAddr::from_index(2), FRAME, move || {
            source.next()
        });
        en.run();
        let frames = frames.borrow();
        assert!(frames.iter().all(|f| !f.is_empty() && f.len() <= FRAME));
        let mut frames = frames.iter();
        for (hdr, body) in &msgs {
            let want = [hdr.as_slice(), body.as_slice()].concat();
            let mut got = Vec::new();
            while got.len() < want.len() {
                got.extend_from_slice(frames.next().expect("frames for every message"));
            }
            assert!(got == want, "a message came back changed");
        }
        assert!(frames.next().is_none(), "frames beyond the last message");
    }

    #[test]
    fn fast_sink_receives_everything_at_line_rate() {
        let mut en = Engine::new();
        let a = EthMac::new("a", MacAddr::from_index(1), MacConfig::eth_100g(), 1);
        let b = EthMac::new("b", MacAddr::from_index(2), MacConfig::eth_100g(), 2);
        mac::connect(&a, &b);
        let total: u64 = 16 << 20;
        let sink = RateSink::attach(b.clone(), None);
        StreamSender::start(a.clone(), &mut en, MacAddr::from_index(2), 4096, total);
        let end = en.run();
        let s = sink.borrow();
        assert_eq!(s.received_bytes, total);
        assert_eq!(s.mismatches, 0);
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
        StreamSender::start(a.clone(), &mut en, MacAddr::from_index(2), 4096, total);
        let end = en.run();
        let s = sink.borrow();
        assert_eq!(s.received_bytes, total);
        assert_eq!(s.mismatches, 0);
        assert_eq!(b.borrow().stats().rx_drops, 0);
        let gbps = total as f64 / 1e9 / end.as_secs_f64();
        assert!(gbps < 2.2, "throughput {gbps} must be sink-bound");
        assert!(b.borrow().stats().pauses_sent > 0);
    }
}
