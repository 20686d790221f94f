//! Store-and-forward Ethernet switch.
//!
//! Built from MAC ports, with MAC learning and flooding. Backpressure is
//! hop-by-hop exactly as 802.3x intends (paper Sec 4.7: "this protocol
//! also works with intermediary switches, which will first pause locally
//! before propagating the pause request further"): when an egress port's
//! TX queue fills, the switch stops draining the ingress port's RX buffer,
//! whose high watermark then asserts PAUSE towards the upstream sender.

use crate::frame::MacAddr;
use crate::mac::{self, EthMac, MacConfig};
use snacc_sim::Engine;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

struct SwitchCore {
    /// The port MACs own the core through their hooks.
    ports: Vec<Weak<RefCell<EthMac>>>,
    /// MAC learning table: source address → port index.
    table: HashMap<MacAddr, usize>,
}

impl SwitchCore {
    fn port(&self, i: usize) -> Rc<RefCell<EthMac>> {
        self.ports[i]
            .upgrade()
            .expect("switch -> port MAC: the switch was dropped")
    }
}

/// An N-port learning switch.
pub struct EthSwitch {
    ports: Vec<Rc<RefCell<EthMac>>>,
}

impl EthSwitch {
    /// Build a switch with `n_ports` ports using `cfg` per port. Connect
    /// endpoints to [`port`](Self::port) with [`mac::connect`].
    pub fn new(n_ports: usize, cfg: MacConfig, seed: u64) -> Self {
        assert!(n_ports >= 2, "a switch needs at least two ports");
        let ports: Vec<_> = (0..n_ports)
            .map(|i| {
                EthMac::new(
                    format!("sw.p{i}"),
                    MacAddr::from_index(0xff00 + i as u64),
                    cfg.clone(),
                    seed.wrapping_add(i as u64),
                )
            })
            .collect();
        let core = Rc::new(RefCell::new(SwitchCore {
            ports: ports.iter().map(Rc::downgrade).collect(),
            table: HashMap::new(),
        }));
        // Ingress hook: try to forward whenever frames arrive; egress hook:
        // retry all ingress ports whenever TX space frees up.
        for (i, p) in ports.iter().enumerate() {
            let c1 = core.clone();
            p.borrow_mut()
                .set_rx_hook(move |en| forward_port(&c1, en, i));
            let c2 = core.clone();
            p.borrow_mut()
                .set_tx_space_hook(move |en| forward_all(&c2, en));
        }
        EthSwitch { ports }
    }

    /// Access port `i`'s MAC endpoint (to connect a peer).
    pub fn port(&self, i: usize) -> Rc<RefCell<EthMac>> {
        self.ports[i].clone()
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.ports.len()
    }
}

/// Drain as many frames as possible from ingress port `i`.
fn forward_port(core: &Rc<RefCell<SwitchCore>>, en: &mut Engine, i: usize) {
    loop {
        // Decide the egress set while holding only short borrows.
        let (ingress, dst, src) = {
            let c = core.borrow();
            let p = c.port(i);
            let (dst, src) = {
                let pm = p.borrow();
                match (pm.rx_peek_dst(), pm.rx_peek_src()) {
                    (Some(d), Some(s)) => (d, s),
                    _ => return,
                }
            };
            (p, dst, src)
        };
        // Learn the source.
        core.borrow_mut().table.insert(src, i);

        let egress: Vec<usize> = {
            let c = core.borrow();
            match c.table.get(&dst) {
                Some(&p) if p != i => vec![p],
                // Destined back to its own segment: drop (filter).
                Some(_) => vec![],
                // Unknown destination: flood.
                None => (0..c.ports.len()).filter(|&p| p != i).collect(),
            }
        };

        // All egress ports must have space (store-and-forward, no partial
        // flood) or we stall this ingress port — that is the local pause.
        let len = ingress
            .borrow()
            .rx_peek_bytes()
            .expect("frame still queued") as usize;
        let all_fit = {
            let c = core.borrow();
            egress.iter().all(|&p| c.port(p).borrow().tx_has_space(len))
        };
        if !all_fit {
            return;
        }

        let Some(frame) = mac::pop_frame(&ingress, en) else {
            return;
        };
        let egress_ports: Vec<_> = {
            let c = core.borrow();
            egress.iter().map(|&p| c.port(p)).collect()
        };
        for p in egress_ports {
            let ok = mac::send(&p, en, frame.clone());
            debug_assert!(ok, "space was checked above");
        }
    }
}

fn forward_all(core: &Rc<RefCell<SwitchCore>>, en: &mut Engine) {
    let n = core.borrow().ports.len();
    for i in 0..n {
        forward_port(core, en, i);
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
        let sw = EthSwitch::new(2, MacConfig::eth_100g(), 99);
        let a = endpoint("a", 1, MacConfig::eth_100g());
        let b = endpoint("b", 2, MacConfig::eth_100g());
        mac::connect(&a, &sw.port(0));
        mac::connect(&b, &sw.port(1));
        let f = EthFrame::data(
            MacAddr::from_index(2),
            MacAddr::from_index(1),
            vec![5; 2000],
        );
        mac::send(&a, &mut en, f.clone());
        en.run();
        let got = mac::pop_frame(&b, &mut en).expect("delivered through switch");
        assert_eq!(got.payload, f.payload);
    }

    #[test]
    fn learning_avoids_flooding() {
        let mut en = Engine::new();
        let sw = EthSwitch::new(3, MacConfig::eth_100g(), 99);
        let a = endpoint("a", 1, MacConfig::eth_100g());
        let b = endpoint("b", 2, MacConfig::eth_100g());
        let c = endpoint("c", 3, MacConfig::eth_100g());
        mac::connect(&a, &sw.port(0));
        mac::connect(&b, &sw.port(1));
        mac::connect(&c, &sw.port(2));
        // b announces itself (flooded — dst still unknown).
        mac::send(
            &b,
            &mut en,
            EthFrame::data(MacAddr::from_index(1), MacAddr::from_index(2), vec![0; 64]),
        );
        en.run();
        let c_before = c.borrow().stats().rx_frames;
        assert_eq!(c_before, 1, "b's frame floods to c");
        // Now a → b should be forwarded, not flooded.
        mac::send(
            &a,
            &mut en,
            EthFrame::data(MacAddr::from_index(2), MacAddr::from_index(1), vec![1; 64]),
        );
        en.run();
        assert_eq!(
            c.borrow().stats().rx_frames,
            c_before,
            "c must not see a→b after learning"
        );
        assert!(mac::pop_frame(&b, &mut en).is_some());
    }

    #[test]
    fn pause_propagates_through_switch() {
        // a → switch → b with b never draining: losslessness end to end
        // requires the switch to pause a.
        let mut en = Engine::new();
        let sw = EthSwitch::new(2, MacConfig::eth_100g(), 99);
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
