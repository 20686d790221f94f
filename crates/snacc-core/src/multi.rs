//! Multi-SSD extension (paper Sec 7).
//!
//! "Our design can easily be extended to access multiple SSDs
//! concurrently ... establish separate submission and completion queues
//! for each SSD, either consolidating them into a single address space or
//! providing distinct stream interfaces." This module implements the
//! distinct-stream-interfaces flavour: one streamer instance per SSD plus
//! a striping layer that fans a single logical write stream out over the
//! instances, hiding each SSD's latency behind the others.

use crate::config::STREAM_CHUNK;
use crate::streamer::StreamerHandle;
use snacc_sim::{Engine, Payload};

/// A stripe-set over multiple streamers (one per SSD).
pub struct MultiSsd {
    streamers: Vec<StreamerHandle>,
    stripe_bytes: u64,
}

impl MultiSsd {
    /// Build a stripe-set. `stripe_bytes` is the per-SSD chunk (a multiple
    /// of 4 KiB keeps commands page-aligned).
    pub fn new(streamers: Vec<StreamerHandle>, stripe_bytes: u64) -> Self {
        assert!(!streamers.is_empty());
        assert!(stripe_bytes > 0 && stripe_bytes.is_multiple_of(4096));
        MultiSsd {
            streamers,
            stripe_bytes,
        }
    }

    /// Split a logical `(addr, len)` extent into per-member extents under
    /// round-robin striping. Returns `(member, member_addr, len)` pieces
    /// in logical order.
    pub fn stripe_extent(&self, addr: u64, len: u64) -> Vec<(usize, u64, u64)> {
        assert!(
            addr.is_multiple_of(self.stripe_bytes),
            "extent must be stripe-aligned"
        );
        let n = self.streamers.len() as u64;
        let mut out = Vec::new();
        let mut off = 0u64;
        while off < len {
            let stripe_idx = (addr + off) / self.stripe_bytes;
            let member = (stripe_idx % n) as usize;
            // Address within the member: contiguous packing of its stripes.
            let member_stripe = stripe_idx / n;
            let member_addr = member_stripe * self.stripe_bytes;
            let take = self.stripe_bytes.min(len - off);
            out.push((member, member_addr, take));
            off += take;
        }
        out
    }

    /// Fan a write of `data` at logical address `addr` across the members
    /// (one write transfer per stripe piece, in 64 KiB beats), stepping
    /// the engine while a member's stream refuses a beat. Stripe pieces
    /// and their beats are zero-copy windows into `data`.
    pub fn write_striped(&self, en: &mut Engine, addr: u64, data: &Payload) {
        let mut logical_off = 0usize;
        for (member, member_addr, take_len) in self.stripe_extent(addr, data.len() as u64) {
            let piece = data.slice(logical_off..logical_off + take_len as usize);
            let beats = (0..piece.len())
                .step_by(STREAM_CHUNK as usize)
                .map(|off| piece.slice(off..(off + STREAM_CHUNK as usize).min(piece.len())));
            self.streamers[member].ports().write(en, member_addr, beats);
            logical_off += take_len as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StreamerConfig, StreamerVariant};
    use snacc_fpga::tapasco::TapascoShell;
    use snacc_pcie::PcieFabric;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn mk_streamers(n: usize) -> Vec<StreamerHandle> {
        let fabric = Rc::new(RefCell::new(PcieFabric::new()));
        let mut shell = TapascoShell::new(fabric, 0x4_0000_0000);
        (0..n)
            .map(|_| {
                StreamerHandle::instantiate(
                    &mut shell,
                    StreamerConfig::snacc(StreamerVariant::Uram),
                )
            })
            .collect()
    }

    #[test]
    fn stripe_extent_round_robins() {
        let m = MultiSsd::new(mk_streamers(2), 4096);
        let pieces = m.stripe_extent(0, 16384);
        assert_eq!(
            pieces,
            vec![(0, 0, 4096), (1, 0, 4096), (0, 4096, 4096), (1, 4096, 4096),]
        );
    }

    #[test]
    fn stripe_extent_with_offset() {
        let m = MultiSsd::new(mk_streamers(4), 8192);
        let pieces = m.stripe_extent(8192 * 4, 8192 * 2);
        // Stripe indices 4, 5 → members 0, 1, each at their stripe 1.
        assert_eq!(pieces, vec![(0, 8192, 8192), (1, 8192, 8192)]);
    }

    #[test]
    fn stripe_covers_length_exactly() {
        let m = MultiSsd::new(mk_streamers(3), 4096);
        let pieces = m.stripe_extent(0, 4096 * 7 + 1024);
        let total: u64 = pieces.iter().map(|p| p.2).sum();
        assert_eq!(total, 4096 * 7 + 1024);
        assert_eq!(pieces.len(), 8);
    }
}
