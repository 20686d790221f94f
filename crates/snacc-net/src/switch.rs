//! Store-and-forward Ethernet switch.
//!
//! Two MAC ports bridged back to back: a frame received on one port is
//! forwarded out of the other. Backpressure is hop-by-hop exactly as 802.3x
//! intends (paper Sec 4.7: "this protocol also works with intermediary
//! switches, which will first pause locally before propagating the pause
//! request further"): while the egress port's TX queue is full, the switch
//! stops draining the ingress port's RX buffer, whose high watermark then
//! asserts PAUSE towards the upstream sender.

use crate::frame::MacAddr;
use crate::mac::{self, EthMac, MacConfig};
use snacc_sim::Engine;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// A two-port store-and-forward switch.
pub struct EthSwitch {
    ports: [Rc<RefCell<EthMac>>; 2],
}

impl EthSwitch {
    /// Build a switch whose two ports use `cfg`. Connect endpoints to
    /// [`port`](Self::port) with [`mac::connect`].
    pub fn new(cfg: MacConfig) -> Self {
        let ports = [0, 1].map(|i| {
            EthMac::new(
                format!("sw.p{i}"),
                MacAddr::from_index(0xff00 + i),
                cfg.clone(),
                0,
            )
        });
        // The port MACs own the hooks, so the hooks hold the ports weakly.
        let weak = ports.each_ref().map(Rc::downgrade);
        // Ingress hook: forward whenever frames arrive; egress hook: retry
        // both ingress ports whenever TX space frees up.
        for (i, p) in ports.iter().enumerate() {
            let w = weak.clone();
            p.borrow_mut().set_rx_hook(move |en| forward(&w, en, i));
            let w = weak.clone();
            p.borrow_mut().set_tx_space_hook(move |en| {
                forward(&w, en, 0);
                forward(&w, en, 1);
            });
        }
        EthSwitch { ports }
    }

    /// Access port `i`'s MAC endpoint (to connect a peer).
    pub fn port(&self, i: usize) -> Rc<RefCell<EthMac>> {
        self.ports[i].clone()
    }
}

/// Forward as many frames as possible from ingress port `i` to the other
/// port. A frame waits at ingress while the egress TX queue has no room for
/// it (store-and-forward): that is the local pause.
fn forward(ports: &[Weak<RefCell<EthMac>>; 2], en: &mut Engine, i: usize) {
    let [ingress, egress] = [i, 1 - i].map(|k| {
        ports[k]
            .upgrade()
            .expect("switch -> port MAC: the switch was dropped")
    });
    loop {
        let len = ingress.borrow().rx_peek_bytes();
        if !len.is_some_and(|n| egress.borrow().tx_has_space(n as usize)) {
            return;
        }
        let frame = mac::pop_frame(&ingress, en).expect("a frame was peeked");
        let ok = mac::send(&egress, en, frame);
        debug_assert!(ok, "space was checked above");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EthFrame;
    use snacc_sim::{SimDuration, SimTime};

    fn endpoint(name: &str, idx: u64, cfg: MacConfig) -> Rc<RefCell<EthMac>> {
        EthMac::new(name, MacAddr::from_index(idx), cfg, idx)
    }

    #[test]
    fn forwards_between_endpoints() {
        let mut en = Engine::new();
        let sw = EthSwitch::new(MacConfig::eth_100g());
        let a = endpoint("a", 1, MacConfig::eth_100g());
        let b = endpoint("b", 2, MacConfig::eth_100g());
        mac::connect(&a, &sw.port(0));
        mac::connect(&b, &sw.port(1));
        for (from, to, byte) in [(&a, &b, 5u8), (&b, &a, 6)] {
            let (src, dst) = (from.borrow().addr(), to.borrow().addr());
            let f = EthFrame::data(dst, src, vec![byte; 2000]);
            mac::send(from, &mut en, f.clone());
            en.run();
            let got = mac::pop_frame(to, &mut en).expect("delivered through switch");
            assert_eq!(got.payload, f.payload);
            assert_eq!((got.src, got.dst), (src, dst));
        }
    }

    #[test]
    fn pause_propagates_through_switch() {
        // a → switch → b with b never draining: losslessness end to end
        // requires the switch to pause a.
        let mut en = Engine::new();
        let sw = EthSwitch::new(MacConfig::eth_100g());
        let a = endpoint("a", 1, MacConfig::eth_100g());
        let b = endpoint("b", 2, MacConfig::eth_100g());
        mac::connect(&a, &sw.port(0));
        mac::connect(&b, &sw.port(1));

        // Drain b very slowly (1 frame / 50 µs).
        fn slow_drain(b: Rc<RefCell<EthMac>>, en: &mut Engine) {
            let _ = mac::pop_frame(&b, en);
            en.schedule_in(SimDuration::from_us(50), move |en| slow_drain(b, en));
        }
        let b2 = b.clone();
        en.schedule_at(SimTime::ZERO, move |en| slow_drain(b2, en));

        let total = 400u64;
        let mut sent = 0;
        while sent < total {
            let f = EthFrame::data(
                MacAddr::from_index(2),
                MacAddr::from_index(1),
                vec![sent as u8; 4096],
            );
            if mac::send(&a, &mut en, f) {
                sent += 1;
            } else if !en.step() {
                break;
            }
        }
        en.run_until(SimTime::ZERO + SimDuration::from_us(50_000));
        // No drops anywhere.
        assert_eq!(b.borrow().stats().rx_drops, 0);
        assert_eq!(sw.port(0).borrow().stats().rx_drops, 0);
        assert_eq!(sw.port(1).borrow().stats().rx_drops, 0);
        // All frames made it to b.
        assert_eq!(b.borrow().stats().rx_frames, total);
        // And a was paused by the switch (pause propagated upstream).
        assert!(a.borrow().stats().pauses_received > 0);
    }
}
