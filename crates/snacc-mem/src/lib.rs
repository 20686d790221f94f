//! # snacc-mem — memory models
//!
//! Functional + timed memory substrates used by every other crate:
//!
//! * [`segment::SegmentMemory`] — zero-copy segment store, the one
//!   *functional* byte store: host DRAM, FPGA DRAM, URAM, SSD NAND and the
//!   small MMIO scratch/doorbell/completion regions. Data written through
//!   the simulated datapaths lands here as retained
//!   [`snacc_sim::bytes::Payload`] windows (O(segments) metadata, lazy
//!   synthetic data stays lazy; small writes — bytes, or a payload
//!   nothing else holds — into a uniquely held buffer land in place) and
//!   can be read back and checksummed.
//! * [`addr::AddressMap`] — address decoding used by the PCIe fabric and the
//!   FPGA platform shell to route accesses to BAR windows.
//! * [`uram::UramModel`] — on-die UltraRAM: small, low latency, high port
//!   bandwidth; SNAcc's first streamer variant buffers here.
//! * [`dram::DramController`] — a single off-chip DRAM channel with
//!   direction-turnaround penalties. Reproduces the paper's observation that
//!   concurrent ingress writes and NVMe-controller reads degrade the
//!   on-board-DRAM streamer's write bandwidth (Sec 5.2).
//! * [`hostmem::HostMemory`] — host DRAM with a pinned-buffer allocator that
//!   enforces the kernel driver's 4 MB contiguity limit (Sec 4.3).

pub mod addr;
pub mod dram;
pub mod hostmem;
pub mod segment;
pub mod uram;

pub use addr::{AddrRange, AddressMap};
pub use dram::{DramController, MemDir};
pub use hostmem::{HostMemory, PinnedBuffer};
pub use segment::SegmentMemory;
pub use uram::{UramModel, URAM_BYTES};

/// FNV-1a checksum over a byte slice — used by integrity tests to compare
/// data that traversed the full simulated datapath.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_values() {
        // Empty input yields the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Order sensitivity.
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        // Stability.
        assert_eq!(fnv1a(b"snacc"), fnv1a(b"snacc"));
    }
}
