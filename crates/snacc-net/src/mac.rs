//! The Ethernet MAC: store-and-forward TX, bounded RX, 802.3x pause.
//!
//! Once an Ethernet frame starts on the wire it cannot be paused, so the
//! MAC fully buffers each frame before transmission (paper Sec 4.7) and
//! only checks the pause state between frames. PAUSE frames are MAC
//! control traffic: they bypass the data queue (front insertion) and are
//! never dropped for lack of TX budget.

use crate::frame::{pause_duration, EthFrame, MacAddr};
use snacc_sim::{Bandwidth, Engine, SharedLink, SimDuration, SimRng, SimTime};
use snacc_trace as trace;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

/// Line rate: 100 G Ethernet = 12.5 GB/s.
pub const LINE_RATE: Bandwidth = Bandwidth::gbit_per_s(100.0);
/// One-way wire + PHY latency.
pub const WIRE_LATENCY: SimDuration = SimDuration::from_ns(500);
/// RX buffer capacity in bytes, sized like an FPGA MAC's 256 KiB buffer.
pub const RX_BUFFER_BYTES: u64 = 256 << 10;
/// RX occupancy at which a PAUSE is asserted.
pub const PAUSE_HI_WATERMARK: u64 = 192 << 10;
/// RX occupancy at which a resume (quanta 0) is sent.
pub const PAUSE_LO_WATERMARK: u64 = 64 << 10;
/// TX queue capacity in bytes (full-frame buffering).
pub const TX_QUEUE_BYTES: u64 = 256 << 10;
/// Quanta requested per PAUSE frame.
pub const PAUSE_QUANTA: u16 = 0xffff;

/// MAC configuration: the 100 G MAC above, with or without 802.3x.
#[derive(Clone, Debug)]
pub struct MacConfig {
    /// Is 802.3x flow control enabled?
    pub flow_control: bool,
}

impl MacConfig {
    /// A 100 G MAC with flow control on.
    pub fn eth_100g() -> Self {
        MacConfig { flow_control: true }
    }

    /// Same, with flow control disabled (loss demonstration).
    pub fn eth_100g_no_fc() -> Self {
        MacConfig {
            flow_control: false,
        }
    }
}

/// The length of a PAUSE of `quanta` quanta at the line rate.
fn pause_at_line_rate(quanta: u16) -> SimDuration {
    pause_duration(quanta, LINE_RATE.bytes_per_sec() * 8.0)
}

/// MAC statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MacStats {
    /// Data frames transmitted.
    pub tx_frames: u64,
    /// Data bytes (payload) transmitted.
    pub tx_payload_bytes: u64,
    /// Data frames received into the RX buffer.
    pub rx_frames: u64,
    /// Payload bytes received.
    pub rx_payload_bytes: u64,
    /// Frames dropped at RX (buffer overrun).
    pub rx_drops: u64,
    /// Data frames dropped by the lossy-link fault injector.
    pub injected_drops: u64,
    /// Data frames discarded as injector-corrupted (FCS fail).
    pub corrupt_drops: u64,
    /// PAUSE frames sent (including resumes).
    pub pauses_sent: u64,
    /// PAUSE frames received.
    pub pauses_received: u64,
}

/// Lossy-link and PAUSE-storm fault injection for one MAC (installed by
/// a fault plan — see the `snacc-faults` crate — with [`install_faults`]).
/// Loss and corruption hit delivered data frames only, so a campaign
/// cannot silently kill flow control.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MacFaultConfig {
    /// Probability that a delivered data frame vanishes on the wire.
    pub drop_rate: f64,
    /// Probability that a delivered data frame arrives corrupted and is
    /// discarded by the FCS check.
    pub corrupt_rate: f64,
    /// A PAUSE storm the MAC sends its peer (`None` = none).
    pub pause_storm: Option<PauseStorm>,
    /// Seed for the loss and corruption draws.
    pub seed: u64,
}

/// A burst of PAUSE frames from a misbehaving or badly congested peer,
/// keeping the link throttled far beyond what its buffers justify.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauseStorm {
    /// First PAUSE, counted from when the storm is installed.
    pub delay: SimDuration,
    /// Number of PAUSE frames.
    pub count: u32,
    /// Spacing between PAUSEs.
    pub interval: SimDuration,
    /// Quanta per PAUSE (0xffff = maximum throttle).
    pub quanta: u16,
}

struct MacFaultState {
    cfg: MacFaultConfig,
    rng: SimRng,
    /// `faults.net.*` in the current metrics registry.
    drops: trace::CounterHandle,
    corruptions: trace::CounterHandle,
}

type Hook = Rc<RefCell<dyn FnMut(&mut Engine)>>;

/// A full-duplex Ethernet MAC endpoint.
pub struct EthMac {
    name: String,
    addr: MacAddr,
    cfg: MacConfig,
    /// The far end of the wire; whoever built the link owns both ends.
    peer: Option<Weak<RefCell<EthMac>>>,
    /// This MAC's transmit direction of the wire.
    wire: SharedLink,
    tx_queue: VecDeque<EthFrame>,
    tx_queued_bytes: u64,
    tx_in_flight: bool,
    wait_scheduled: bool,
    paused_until: SimTime,
    rx_queue: VecDeque<EthFrame>,
    rx_buffered_bytes: u64,
    congested: bool,
    last_pause_sent: SimTime,
    /// A periodic pause-refresh timer is pending.
    refresh_armed: bool,
    rx_hook: Option<Hook>,
    tx_space_hook: Option<Hook>,
    /// Fault injector, absent in normal operation.
    faults: Option<MacFaultState>,
    stats: MacStats,
}

impl EthMac {
    /// Create a MAC endpoint (connect with [`connect`]). A MAC draws no
    /// randomness of its own: its fault injector draws from
    /// [`MacFaultConfig::seed`], so `_seed` is unused; callers still pass
    /// one.
    pub fn new(
        name: impl Into<String>,
        addr: MacAddr,
        cfg: MacConfig,
        _seed: u64,
    ) -> Rc<RefCell<EthMac>> {
        let name = name.into();
        let wire = SharedLink::new(format!("{name}.wire"), LINE_RATE, WIRE_LATENCY);
        Rc::new(RefCell::new(EthMac {
            name,
            addr,
            cfg,
            peer: None,
            wire,
            tx_queue: VecDeque::new(),
            tx_queued_bytes: 0,
            tx_in_flight: false,
            wait_scheduled: false,
            paused_until: SimTime::ZERO,
            rx_queue: VecDeque::new(),
            rx_buffered_bytes: 0,
            congested: false,
            last_pause_sent: SimTime::ZERO,
            refresh_armed: false,
            rx_hook: None,
            tx_space_hook: None,
            faults: None,
            stats: MacStats::default(),
        }))
    }

    /// This MAC's address.
    pub fn addr(&self) -> MacAddr {
        self.addr
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// Can the TX queue accept a frame of `payload_len` bytes?
    pub fn tx_has_space(&self, payload_len: usize) -> bool {
        self.tx_queued_bytes + payload_len as u64 <= TX_QUEUE_BYTES
    }

    /// Size (frame bytes) of the frame at the head of the RX buffer.
    pub fn rx_peek_bytes(&self) -> Option<u64> {
        self.rx_queue.front().map(|f| f.frame_bytes())
    }

    /// Draw whether an arriving data frame is lost to the fault injector:
    /// the trace name of the loss, or `None` if the frame gets through.
    fn draw_loss(&mut self) -> Option<&'static str> {
        let f = self.faults.as_mut()?;
        if f.rng.chance(f.cfg.drop_rate) {
            self.stats.injected_drops += 1;
            f.drops.inc();
            Some("eth.fault_drop")
        } else if f.rng.chance(f.cfg.corrupt_rate) {
            self.stats.corrupt_drops += 1;
            f.corruptions.inc();
            Some("eth.fault_corrupt")
        } else {
            None
        }
    }

    /// Install the "frames available at RX" hook.
    pub fn set_rx_hook(&mut self, hook: impl FnMut(&mut Engine) + 'static) {
        self.rx_hook = Some(Rc::new(RefCell::new(hook)));
    }

    /// Install the "TX queue drained a frame" hook.
    pub fn set_tx_space_hook(&mut self, hook: impl FnMut(&mut Engine) + 'static) {
        self.tx_space_hook = Some(Rc::new(RefCell::new(hook)));
    }
}

/// Connect two MAC endpoints back to back (or to switch ports). The
/// links do not own the peers: the caller keeps both ends alive.
pub fn connect(a: &Rc<RefCell<EthMac>>, b: &Rc<RefCell<EthMac>>) {
    a.borrow_mut().peer = Some(Rc::downgrade(b));
    b.borrow_mut().peer = Some(Rc::downgrade(a));
}

/// Enqueue a data frame for transmission. Returns `false` (frame refused)
/// when the TX queue is full — the caller must retry on the TX-space hook.
pub fn send(rc: &Rc<RefCell<EthMac>>, en: &mut Engine, frame: EthFrame) -> bool {
    {
        let mut m = rc.borrow_mut();
        let cost = frame.frame_bytes();
        if m.tx_queued_bytes + cost > TX_QUEUE_BYTES {
            return false;
        }
        m.tx_queued_bytes += cost;
        m.tx_queue.push_back(frame);
    }
    pump_tx(rc, en);
    true
}

/// Pop a received frame, possibly emitting a resume PAUSE when the buffer
/// drains below the low watermark.
pub fn pop_frame(rc: &Rc<RefCell<EthMac>>, en: &mut Engine) -> Option<EthFrame> {
    let (frame, resume) = {
        let mut m = rc.borrow_mut();
        let frame = m.rx_queue.pop_front()?;
        m.rx_buffered_bytes -= frame.frame_bytes();
        let resume = m.cfg.flow_control && m.congested && m.rx_buffered_bytes <= PAUSE_LO_WATERMARK;
        if resume {
            m.congested = false;
        }
        (frame, resume)
    };
    if resume {
        send_pause(rc, en, 0);
    }
    Some(frame)
}

/// Queue a PAUSE/resume frame with control-frame priority. Asserting a
/// pause also arms a periodic refresh timer: as long as the receiver
/// stays congested, a fresh PAUSE goes out every half pause-duration so
/// a long-stalled sink cannot let the sender's pause expire (real MACs
/// refresh from a timer, not from frame arrivals).
fn send_pause(rc: &Rc<RefCell<EthMac>>, en: &mut Engine, quanta: u16) {
    let arm = {
        let mut m = rc.borrow_mut();
        let src = m.addr;
        // Control frames bypass the data budget and go to the front.
        m.tx_queue.push_front(EthFrame::pause(src, quanta));
        m.stats.pauses_sent += 1;
        m.last_pause_sent = en.now();
        let dur = pause_at_line_rate(PAUSE_QUANTA);
        if quanta > 0 && !m.refresh_armed {
            m.refresh_armed = true;
            Some(dur / 2)
        } else {
            None
        }
    };
    if let Some(delay) = arm {
        let rc2 = rc.clone();
        en.schedule_in(delay, move |en| {
            let still = {
                let mut m = rc2.borrow_mut();
                m.refresh_armed = false;
                m.congested
            };
            if still {
                send_pause(&rc2, en, PAUSE_QUANTA);
            }
        });
    }
    pump_tx(rc, en);
}

/// Install (or replace) the MAC's fault injector, and start its PAUSE
/// storm, if any, [`PauseStorm::delay`] from now. One pending event
/// carries the storm, each PAUSE arming the next, so a long storm queues
/// nothing up front; a PAUSE that would fall past the end of simulated
/// time is not sent. The storm shows as a `window.pause_storm` trace
/// span.
pub fn install_faults(rc: &Rc<RefCell<EthMac>>, en: &mut Engine, cfg: MacFaultConfig) {
    rc.borrow_mut().faults = Some(MacFaultState {
        cfg,
        rng: SimRng::new(cfg.seed),
        drops: trace::metric_counter("faults.net.frame_drops"),
        corruptions: trace::metric_counter("faults.net.frame_corruptions"),
    });
    let Some(storm) = cfg.pause_storm else { return };
    let first = en.now().checked_add(storm.delay);
    if let Some(at) = first.filter(|_| storm.count > 0) {
        let (rc, pauses) = (rc.clone(), trace::metric_counter("faults.net.pause_storms"));
        let left = storm.count;
        en.schedule_at(at, move |en| storm_pause(rc, en, storm, left, pauses));
    }
    if trace::enabled() {
        let start = en.now().saturating_add(storm.delay);
        let span = storm.interval.checked_mul(storm.count.into());
        trace::span_between(
            "faults",
            "window.pause_storm",
            start,
            span.map_or(SimTime::MAX, |d| start.saturating_add(d)),
            &[("pauses", storm.count as u64)],
        );
    }
}

/// One PAUSE of `storm` with `left` PAUSEs to go, this one included.
fn storm_pause(
    rc: Rc<RefCell<EthMac>>,
    en: &mut Engine,
    storm: PauseStorm,
    left: u32,
    pauses: trace::CounterHandle,
) {
    let next = en.now().checked_add(storm.interval).filter(|_| left > 1);
    pauses.inc();
    send_pause(&rc, en, storm.quanta);
    if let Some(at) = next {
        en.schedule_at(at, move |en| storm_pause(rc, en, storm, left - 1, pauses));
    }
}

enum TxAction {
    None,
    Wait(SimTime),
    Send(EthFrame),
}

/// Advance the transmit side: send the next frame if allowed.
pub fn pump_tx(rc: &Rc<RefCell<EthMac>>, en: &mut Engine) {
    let action = {
        let mut m = rc.borrow_mut();
        if m.tx_in_flight || m.wait_scheduled {
            TxAction::None
        } else if let Some(head) = m.tx_queue.front() {
            let is_pause = head.is_pause();
            if !is_pause && en.now() < m.paused_until {
                TxAction::Wait(m.paused_until)
            } else {
                let f = m.tx_queue.pop_front().expect("head exists");
                if !f.is_pause() {
                    m.tx_queued_bytes -= f.frame_bytes();
                    m.stats.tx_frames += 1;
                    m.stats.tx_payload_bytes += f.payload.len() as u64;
                }
                m.tx_in_flight = true;
                TxAction::Send(f)
            }
        } else {
            TxAction::None
        }
    };
    match action {
        TxAction::None => {}
        TxAction::Wait(until) => {
            {
                rc.borrow_mut().wait_scheduled = true;
            }
            let rc2 = rc.clone();
            en.schedule_at(until, move |en| {
                rc2.borrow_mut().wait_scheduled = false;
                pump_tx(&rc2, en);
            });
        }
        TxAction::Send(frame) => {
            let (arrival, tx_free, peer, tx_hook) = {
                let mut m = rc.borrow_mut();
                let arrival = m.wire.transfer(en.now(), frame.wire_bytes());
                let tx_free = arrival - WIRE_LATENCY;
                if trace::enabled() {
                    let name = if frame.is_pause() {
                        "eth.pause_tx"
                    } else {
                        "eth.tx"
                    };
                    trace::span_between(
                        &format!("net.{}", m.name),
                        name,
                        en.now(),
                        arrival,
                        &[("wire_bytes", frame.wire_bytes())],
                    );
                }
                let peer = m.peer.as_ref().map(|p| {
                    p.upgrade()
                        .expect("mac peer link -> peer MAC: the peer was dropped")
                });
                (arrival, tx_free, peer, m.tx_space_hook.clone())
            };
            // TX side becomes free when the last byte leaves.
            let rc2 = rc.clone();
            en.schedule_at(tx_free, move |en| {
                rc2.borrow_mut().tx_in_flight = false;
                pump_tx(&rc2, en);
                if let Some(h) = &tx_hook {
                    (h.borrow_mut())(en);
                }
            });
            // Frame arrives at the peer after wire latency.
            if let Some(peer) = peer {
                en.schedule_at(arrival, move |en| deliver(&peer, en, frame));
            }
        }
    }
}

/// Deliver a frame arriving from the wire to this MAC.
fn deliver(rc: &Rc<RefCell<EthMac>>, en: &mut Engine, frame: EthFrame) {
    enum RxAction {
        None,
        Notify,
        NotifyAndPause(u16),
    }
    let mut return_action_repump = false;
    let action = {
        let mut m = rc.borrow_mut();
        // Injected loss and corruption spare PAUSE frames.
        if frame.pause_quanta().is_none() {
            if let Some(name) = m.draw_loss() {
                if trace::enabled() {
                    let bytes = frame.frame_bytes();
                    trace::instant(en, &format!("net.{}", m.name), name, &[("bytes", bytes)]);
                }
                return;
            }
        }
        if let Some(quanta) = frame.pause_quanta() {
            m.stats.pauses_received += 1;
            if trace::enabled() {
                trace::instant(
                    en,
                    &format!("net.{}", m.name),
                    "eth.pause_rx",
                    &[("quanta", quanta as u64)],
                );
            }
            if m.cfg.flow_control {
                let dur = pause_at_line_rate(quanta);
                let new_until = en.now() + dur;
                let shortened = new_until < m.paused_until;
                m.paused_until = new_until;
                if shortened || quanta == 0 {
                    // A resume (or shorter pause) releases the TX path now;
                    // the pending wait event holds the stale deadline.
                    m.wait_scheduled = false;
                    return_action_repump = true;
                }
            }
            RxAction::None
        } else {
            let cost = frame.frame_bytes();
            if m.rx_buffered_bytes + cost > RX_BUFFER_BYTES {
                m.stats.rx_drops += 1;
                if trace::enabled() {
                    trace::instant(
                        en,
                        &format!("net.{}", m.name),
                        "eth.rx_drop",
                        &[("bytes", cost), ("occupancy", m.rx_buffered_bytes)],
                    );
                }
                RxAction::None
            } else {
                m.rx_buffered_bytes += cost;
                m.stats.rx_frames += 1;
                m.stats.rx_payload_bytes += frame.payload.len() as u64;
                m.rx_queue.push_back(frame);
                if trace::enabled() {
                    trace::instant(
                        en,
                        &format!("net.{}", m.name),
                        "eth.rx",
                        &[("bytes", cost), ("occupancy", m.rx_buffered_bytes)],
                    );
                }
                if m.cfg.flow_control && m.rx_buffered_bytes >= PAUSE_HI_WATERMARK {
                    // Assert (or refresh) the pause. Refresh is rate-limited
                    // to half the pause duration so a long-stalled sink
                    // cannot let the pause expire.
                    let refresh_after = pause_at_line_rate(PAUSE_QUANTA) / 2;
                    let need = !m.congested || en.now() >= m.last_pause_sent + refresh_after;
                    if need {
                        m.congested = true;
                        RxAction::NotifyAndPause(PAUSE_QUANTA)
                    } else {
                        RxAction::Notify
                    }
                } else {
                    RxAction::Notify
                }
            }
        }
    };
    if return_action_repump {
        pump_tx(rc, en);
    }
    match action {
        RxAction::None => {}
        RxAction::Notify => notify_rx(rc, en),
        RxAction::NotifyAndPause(q) => {
            send_pause(rc, en, q);
            notify_rx(rc, en);
        }
    }
}

fn notify_rx(rc: &Rc<RefCell<EthMac>>, en: &mut Engine) {
    let hook = rc.borrow().rx_hook.clone();
    if let Some(h) = hook {
        (h.borrow_mut())(en);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg_a: MacConfig, cfg_b: MacConfig) -> (Rc<RefCell<EthMac>>, Rc<RefCell<EthMac>>) {
        let a = EthMac::new("a", MacAddr::from_index(1), cfg_a, 11);
        let b = EthMac::new("b", MacAddr::from_index(2), cfg_b, 22);
        connect(&a, &b);
        (a, b)
    }

    #[test]
    fn frame_delivery() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        let f = EthFrame::data(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            vec![9u8; 1000],
        );
        assert!(send(&a, &mut en, f.clone()));
        en.run();
        let got = pop_frame(&b, &mut en).expect("frame arrives");
        assert_eq!(got, f);
        assert_eq!(b.borrow().stats().rx_frames, 1);
    }

    #[test]
    fn line_rate_timing() {
        let mut en = Engine::new();
        let (a, _b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        // 4096 B payload → 4114 frame + 20 overhead = 4134 wire bytes at
        // 12.5 GB/s ≈ 330.7 ns + 500 ns latency.
        let f = EthFrame::data(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            vec![0; 4096],
        );
        send(&a, &mut en, f);
        let end = en.run();
        let ns = end.as_ns();
        assert!((830..=835).contains(&ns), "{ns}");
    }

    #[test]
    fn slow_sink_without_fc_drops() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g_no_fc(), MacConfig::eth_100g_no_fc());
        // Never pop at b: rx buffer (256 KiB) overruns.
        for i in 0..200 {
            let f = EthFrame::data(
                MacAddr::from_index(2),
                MacAddr::from_index(1),
                vec![i as u8; 4096],
            );
            // Retry until accepted (tx queue drains at line rate).
            while !send(&a, &mut en, f.clone()) {
                en.step();
            }
        }
        en.run();
        assert!(b.borrow().stats().rx_drops > 0, "expected overruns");
    }

    #[test]
    fn slow_sink_with_fc_is_lossless() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        let total = 300u64;
        let mut sent = 0u64;
        // Drain slowly: pop one frame every 10 µs (≈ 0.4 GB/s).
        fn drain(b: Rc<RefCell<EthMac>>, en: &mut Engine, popped: Rc<RefCell<u64>>) {
            let _ = pop_frame(&b, en);
            *popped.borrow_mut() += 1;
            en.schedule_in(SimDuration::from_us(10), move |en| drain(b, en, popped));
        }
        let popped = Rc::new(RefCell::new(0u64));
        let b2 = b.clone();
        let p2 = popped.clone();
        en.schedule_at(SimTime::ZERO, move |en| drain(b2, en, p2));
        while sent < total {
            let f = EthFrame::data(
                MacAddr::from_index(2),
                MacAddr::from_index(1),
                vec![sent as u8; 4096],
            );
            if send(&a, &mut en, f) {
                sent += 1;
            } else if !en.step() {
                break;
            }
        }
        // Run long enough for the slow drain to finish.
        en.run_until(SimTime::ZERO + SimDuration::from_us(10_000));
        let sb = b.borrow().stats();
        assert_eq!(sb.rx_drops, 0, "flow control must prevent loss");
        assert_eq!(sb.rx_frames, total);
        assert!(sb.pauses_sent > 0, "pause must have been asserted");
        assert!(a.borrow().stats().pauses_received > 0);
    }

    #[test]
    fn pause_frame_pauses_sender() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        // b explicitly sends a pause; a must stop transmitting data.
        send_pause(&b, &mut en, 0xffff);
        en.run();
        assert!(en.now() < a.borrow().paused_until);
        // A queued data frame waits ~335 µs (0xffff quanta at 100 G).
        let f = EthFrame::data(MacAddr::from_index(2), MacAddr::from_index(1), vec![0; 512]);
        send(&a, &mut en, f);
        let end = en.run();
        assert!(end.as_us_f64() > 330.0, "{}", end.as_us_f64());
        assert_eq!(b.borrow().stats().rx_frames, 1);
    }

    #[test]
    fn resume_unpauses_early() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        send_pause(&b, &mut en, 0xffff);
        en.run();
        assert!(en.now() < a.borrow().paused_until);
        send_pause(&b, &mut en, 0); // resume
        en.run();
        assert!(en.now() >= a.borrow().paused_until);
    }

    #[test]
    fn injected_drops_and_corruption_counted_separately() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        let drop = MacFaultConfig {
            drop_rate: 1.0,
            ..Default::default()
        };
        install_faults(&b, &mut en, drop);
        let f = EthFrame::data(MacAddr::from_index(2), MacAddr::from_index(1), vec![0; 100]);
        send(&a, &mut en, f.clone());
        en.run();
        assert_eq!(b.borrow().stats().injected_drops, 1);
        assert_eq!(b.borrow().stats().rx_frames, 0);
        // Corruption hits its own counter.
        let corrupt = MacFaultConfig {
            corrupt_rate: 1.0,
            ..Default::default()
        };
        install_faults(&b, &mut en, corrupt);
        send(&a, &mut en, f);
        en.run();
        let sb = b.borrow().stats();
        assert_eq!(
            (sb.injected_drops, sb.corrupt_drops, sb.rx_frames),
            (1, 1, 0)
        );
    }

    #[test]
    fn loss_draws_follow_the_config_seed() {
        // The frames that get through a 50 % lossy link, under `seed`.
        let survivors = |seed: u64| {
            let mut en = Engine::new();
            let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
            let half = MacFaultConfig {
                drop_rate: 0.5,
                seed,
                ..Default::default()
            };
            install_faults(&b, &mut en, half);
            for i in 0..64u8 {
                let f = EthFrame::data(MacAddr::from_index(2), MacAddr::from_index(1), vec![i; 64]);
                assert!(send(&a, &mut en, f));
            }
            en.run();
            std::iter::from_fn(|| pop_frame(&b, &mut en).map(|f| f.payload.byte_at(0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(survivors(1), survivors(1));
        assert_ne!(survivors(1), survivors(2));
    }

    #[test]
    fn lossy_link_spares_pause_frames() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        let lossy = MacFaultConfig {
            drop_rate: 1.0,
            corrupt_rate: 1.0,
            ..Default::default()
        };
        install_faults(&a, &mut en, lossy);
        // A PAUSE from b must survive a's fully lossy injector.
        send_pause(&b, &mut en, 0xffff);
        en.run();
        assert!(en.now() < a.borrow().paused_until);
        assert_eq!(a.borrow().stats().injected_drops, 0);
    }

    /// A storm of `count` PAUSEs, the first at once.
    fn storm(count: u32, interval: SimDuration, quanta: u16) -> MacFaultConfig {
        MacFaultConfig {
            pause_storm: Some(PauseStorm {
                delay: SimDuration::ZERO,
                count,
                interval,
                quanta,
            }),
            ..Default::default()
        }
    }

    #[test]
    fn pause_storm_throttles_sender() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        // Ten max-quanta PAUSEs every 100 µs keep a throttled ~1 ms even
        // though b's buffers are empty the whole time.
        install_faults(&b, &mut en, storm(10, SimDuration::from_us(100), 0xffff));
        // Queue the data frame mid-storm (50 µs in) so it waits out the
        // full stacked pause window.
        let a2 = a.clone();
        en.schedule_at(SimTime::ZERO + SimDuration::from_us(50), move |en| {
            let f = EthFrame::data(MacAddr::from_index(2), MacAddr::from_index(1), vec![0; 512]);
            send(&a2, en, f);
        });
        let end = en.run();
        assert!(end.as_us_f64() > 1000.0, "{}", end.as_us_f64());
        assert_eq!(b.borrow().stats().rx_frames, 1);
        assert_eq!(a.borrow().stats().pauses_received, 10);
    }

    #[test]
    fn pause_storm_counts_from_now_and_keeps_one_event_pending() {
        let mut en = Engine::new();
        let (a, b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        en.schedule_at(SimTime::ZERO + SimDuration::from_us(10), |_| {});
        en.run();
        // Installed at 10 µs with no delay: the first PAUSE goes out now,
        // not at time zero.
        let every = SimDuration::from_us(100);
        install_faults(&b, &mut en, storm(u32::MAX, every, 1));
        assert_eq!(en.pending(), 1, "one event carries the whole storm");
        en.run_until(SimTime::ZERO + SimDuration::from_us(355));
        assert_eq!(a.borrow().stats().pauses_received, 4);
        assert_eq!(b.borrow().stats().pauses_sent, 4);
        // A storm whose next PAUSE would fall past the end of time stops.
        let mut en = Engine::new();
        en.schedule_at(SimTime::from_ns(1), |_| {});
        en.run();
        let forever = SimDuration::from_ps(u64::MAX);
        install_faults(&b, &mut en, storm(3, forever, 1));
        en.run();
        assert_eq!(b.borrow().stats().pauses_sent, 5);
        assert_eq!(en.pending(), 0);
    }

    #[test]
    fn tx_queue_limit_enforced() {
        let mut en = Engine::new();
        let (a, _b) = pair(MacConfig::eth_100g(), MacConfig::eth_100g());
        let mut accepted = 0;
        loop {
            let f = EthFrame::data(
                MacAddr::from_index(2),
                MacAddr::from_index(1),
                vec![0; 8000],
            );
            if !send(&a, &mut en, f) {
                break;
            }
            accepted += 1;
            if accepted > 1000 {
                panic!("tx queue never filled");
            }
        }
        // 256 KiB / ~8 KiB ≈ 32 frames (first may already be in flight).
        assert!((30..=35).contains(&accepted), "{accepted}");
    }
}
