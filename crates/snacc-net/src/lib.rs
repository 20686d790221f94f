//! # snacc-net — 100 G Ethernet with 802.3x flow control
//!
//! The paper enhances TaPaSCo's 100 G Ethernet support with the basic
//! Ethernet-802.3 flow-control protocol: an overrun receiver sends a PAUSE
//! frame; intermediary switches pause locally first and propagate the
//! pause upstream; senders fully buffer frames before transmission so a
//! started frame is never cut short (Sec 4.7).
//!
//! This crate models exactly that:
//!
//! * [`frame::EthFrame`] — frames with real payload bytes, plus PAUSE
//!   frame encoding (EtherType 0x8808, opcode 0x0001, quanta).
//! * [`mac::EthMac`] — a full-duplex MAC: store-and-forward TX queue,
//!   bounded RX buffer with high/low watermarks that generate PAUSE /
//!   resume frames, pause honouring on the TX path, drop counting when
//!   flow control is disabled.
//! * [`switch::EthSwitch`] — a two-port store-and-forward switch built out
//!   of two MACs; a full egress TX queue stalls the ingress port, so
//!   backpressure propagates hop by hop exactly as the standard intends.
//! * [`traffic`] — byte-stream sender / rate-limited sink used by the
//!   tests and the case study.
//!
//! The key property — **losslessness under a slow sink** — is pinned by
//! unit, integration and property tests.

pub mod frame;
pub mod mac;
pub mod switch;
pub mod traffic;

pub use frame::{EthFrame, MacAddr, PAUSE_ETHERTYPE};
pub use mac::{EthMac, MacConfig, MacFaultConfig, PauseStorm};
pub use switch::EthSwitch;
