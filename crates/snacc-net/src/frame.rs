//! Ethernet frames.
//!
//! Frames carry real payload bytes (the case study streams image data
//! through them). PAUSE frames follow IEEE 802.3 Annex 31B: EtherType
//! 0x8808, MAC control opcode 0x0001, a 16-bit pause-quanta field, and the
//! reserved multicast destination 01-80-C2-00-00-01.

use snacc_sim::{Payload, SimDuration};
use std::fmt;

/// Wire header bytes preceding the payload (12 MAC + 2 EtherType).
pub const WIRE_HEADER: usize = 14;

/// EtherType for MAC control frames (PAUSE).
pub const PAUSE_ETHERTYPE: u16 = 0x8808;
/// MAC control opcode for PAUSE.
pub const PAUSE_OPCODE: u16 = 0x0001;
/// One pause quantum is 512 bit times.
pub const PAUSE_QUANTUM_BITS: u64 = 512;
/// Minimum Ethernet frame size (without preamble/IFG).
pub const MIN_FRAME: usize = 64;
/// Maximum standard payload (we allow jumbo frames up to 9000 too).
pub const MAX_PAYLOAD: usize = 9000;
/// Header (12 MAC + 2 EtherType) + trailing CRC bytes.
pub const HEADER_CRC_BYTES: usize = 18;
/// Preamble (8) + inter-frame gap (12) overhead on the wire per frame.
pub const WIRE_OVERHEAD: u64 = 20;

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The 802.3x PAUSE multicast destination.
    pub const PAUSE_MULTICAST: MacAddr = MacAddr([0x01, 0x80, 0xC2, 0x00, 0x00, 0x01]);

    /// A deterministic test/bench address derived from an index.
    pub fn from_index(i: u64) -> Self {
        let b = i.to_be_bytes();
        MacAddr([0x02, 0x5a, b[4], b[5], b[6], b[7]])
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// An Ethernet frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthFrame {
    /// Destination address.
    pub dst: MacAddr,
    /// Source address.
    pub src: MacAddr,
    /// EtherType.
    pub ethertype: u16,
    /// Payload bytes (a shared zero-copy window).
    pub payload: Payload,
}

impl EthFrame {
    /// A data frame (EtherType 0x88B5, local experimental).
    pub fn data(dst: MacAddr, src: MacAddr, payload: impl Into<Payload>) -> Self {
        let payload = payload.into();
        assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds jumbo MTU");
        EthFrame {
            dst,
            src,
            ethertype: 0x88B5,
            payload,
        }
    }

    /// A PAUSE frame requesting `quanta` pause quanta (0 = resume).
    pub fn pause(src: MacAddr, quanta: u16) -> Self {
        let mut payload = vec![0u8; 46]; // padded to minimum size
        payload[0..2].copy_from_slice(&PAUSE_OPCODE.to_be_bytes());
        payload[2..4].copy_from_slice(&quanta.to_be_bytes());
        EthFrame {
            dst: MacAddr::PAUSE_MULTICAST,
            src,
            ethertype: PAUSE_ETHERTYPE,
            payload: Payload::from_vec(payload),
        }
    }

    /// Is this a MAC-control PAUSE frame?
    pub fn is_pause(&self) -> bool {
        self.ethertype == PAUSE_ETHERTYPE
            && self.payload.len() >= 4
            && u16::from_be_bytes([self.payload[0], self.payload[1]]) == PAUSE_OPCODE
    }

    /// Pause quanta of a PAUSE frame.
    pub fn pause_quanta(&self) -> Option<u16> {
        self.is_pause()
            .then(|| u16::from_be_bytes([self.payload[2], self.payload[3]]))
    }

    /// Frame size on the medium excluding preamble/IFG (header + payload +
    /// CRC, padded to the 64-byte minimum).
    pub fn frame_bytes(&self) -> u64 {
        (self.payload.len() + HEADER_CRC_BYTES).max(MIN_FRAME) as u64
    }

    /// Total wire cost including preamble and inter-frame gap.
    pub fn wire_bytes(&self) -> u64 {
        self.frame_bytes() + WIRE_OVERHEAD
    }

    /// Serialize to wire bytes: dst(6) · src(6) · EtherType(2, BE) ·
    /// payload. CRC, padding, preamble and IFG are modeled analytically
    /// by [`EthFrame::frame_bytes`] / [`EthFrame::wire_bytes`], not
    /// materialised.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(WIRE_HEADER + self.payload.len());
        b.extend_from_slice(&self.dst.0);
        b.extend_from_slice(&self.src.0);
        b.extend_from_slice(&self.ethertype.to_be_bytes());
        b.extend_from_slice(&self.payload);
        b
    }

    /// Parse wire bytes. Total (SL004): every input either parses or
    /// yields a [`FrameError`] — there is no panic path. The payload is
    /// copied once (the ingress copy).
    pub fn parse(b: &[u8]) -> Result<EthFrame, FrameError> {
        if b.len() < WIRE_HEADER {
            return Err(FrameError::ShortHeader(b.len()));
        }
        let payload_len = b.len() - WIRE_HEADER;
        if payload_len > MAX_PAYLOAD {
            return Err(FrameError::Oversize(payload_len));
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&b[0..6]);
        src.copy_from_slice(&b[6..12]);
        Ok(EthFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([b[12], b[13]]),
            payload: Payload::from(&b[WIRE_HEADER..]),
        })
    }
}

/// Frame parse errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the 14-byte MAC header.
    ShortHeader(usize),
    /// Payload longer than the jumbo MTU.
    Oversize(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::ShortHeader(n) => write!(f, "short frame: {n} bytes < 14-byte header"),
            FrameError::Oversize(n) => write!(f, "payload of {n} bytes exceeds jumbo MTU"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Duration of `quanta` pause quanta at `bits_per_sec` line rate.
pub fn pause_duration(quanta: u16, bits_per_sec: f64) -> SimDuration {
    let bits = quanta as u64 * PAUSE_QUANTUM_BITS;
    SimDuration::from_ns_f64(bits as f64 * 1e9 / bits_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_frame_encoding() {
        let p = EthFrame::pause(MacAddr::from_index(1), 0xffff);
        assert!(p.is_pause());
        assert_eq!(p.pause_quanta(), Some(0xffff));
        assert_eq!(p.dst, MacAddr::PAUSE_MULTICAST);
        // Padded to minimum frame size.
        assert_eq!(p.frame_bytes(), 64);
    }

    #[test]
    fn resume_is_zero_quanta() {
        let p = EthFrame::pause(MacAddr::from_index(2), 0);
        assert_eq!(p.pause_quanta(), Some(0));
    }

    #[test]
    fn data_frame_not_pause() {
        let f = EthFrame::data(MacAddr::from_index(1), MacAddr::from_index(2), vec![0; 100]);
        assert!(!f.is_pause());
        assert_eq!(f.pause_quanta(), None);
        assert_eq!(f.frame_bytes(), 118);
        assert_eq!(f.wire_bytes(), 138);
    }

    #[test]
    fn small_frames_padded() {
        let f = EthFrame::data(MacAddr::from_index(1), MacAddr::from_index(2), vec![1]);
        assert_eq!(f.frame_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "jumbo")]
    fn oversize_rejected() {
        EthFrame::data(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            vec![0; MAX_PAYLOAD + 1],
        );
    }

    #[test]
    fn pause_duration_math() {
        // 100 Gbit/s: one quantum = 512 bits = 5.12 ns.
        assert_eq!(pause_duration(1, 100e9).as_ps(), 5120);
        assert_eq!(pause_duration(0xffff, 100e9).as_ps(), 65535 * 5120);
    }

    #[test]
    fn wire_roundtrip() {
        let f = EthFrame::data(
            MacAddr::from_index(3),
            MacAddr::from_index(9),
            vec![7, 8, 9, 10],
        );
        let wire = f.to_wire();
        assert_eq!(wire.len(), WIRE_HEADER + 4);
        assert_eq!(EthFrame::parse(&wire), Ok(f));
        let p = EthFrame::pause(MacAddr::from_index(1), 77);
        assert_eq!(EthFrame::parse(&p.to_wire()), Ok(p));
    }

    #[test]
    fn parse_rejects_short_and_oversize() {
        assert_eq!(
            EthFrame::parse(&[0u8; 13]),
            Err(FrameError::ShortHeader(13))
        );
        assert_eq!(EthFrame::parse(&[]), Err(FrameError::ShortHeader(0)));
        let too_big = vec![0u8; WIRE_HEADER + MAX_PAYLOAD + 1];
        assert_eq!(
            EthFrame::parse(&too_big),
            Err(FrameError::Oversize(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn mac_addr_display() {
        let m = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(format!("{m:?}"), "de:ad:be:ef:00:01");
    }
}
