//! Calibrated device profiles.
//!
//! Numbers are derived from the paper's measurements of a Samsung 990 PRO
//! 2 TB on an AMD EPYC 7302P host (Sec 5) plus public device behaviour:
//!
//! * sequential read ceiling 6.9 GB/s (Fig 4a),
//! * sequential program rate alternating 6.24 / 5.90 GB/s (Fig 4a),
//! * 4 KiB random-read latency ≈ 28–31 µs media time (Fig 4c),
//! * random-read throughput ≈ 1.1 M IOPS at SQ depth 64 (Fig 4b),
//! * write completions < 9 µs via the volatile write cache (Fig 4c),
//! * the peer-to-peer fetch-credit limit that caps writes from FPGA
//!   memory at ≈ 5.6 GB/s (Fig 4a, discussion in Sec 5.2).
//!
//! A profile holds only what differs between devices. The controller
//! knobs no profile varies (register latency, queue limits, SQE fetch
//! burst, fetch stall and P2P fetch overhead) are constants in
//! `device.rs`; the NAND ones (dies, page size, tR bands, pSLC window,
//! channels, write cache, capacity) are constants in `nand.rs`.

use crate::nand::NandConfig;
use snacc_pcie::PcieLinkConfig;
use snacc_sim::Bandwidth;

/// Full parameter set for an NVMe device instance.
#[derive(Clone, Debug)]
pub struct NvmeProfile {
    /// Storage backend parameters.
    pub nand: NandConfig,
    /// The device's PCIe link.
    pub link: PcieLinkConfig,
    /// Outstanding fetch credits towards host memory.
    pub fetch_window_host: usize,
    /// Outstanding fetch credits towards peer devices (P2P) — the paper's
    /// observed P2P limitation comes from this being small.
    pub fetch_window_p2p: usize,
    /// Model/serial strings reported by Identify.
    pub model: &'static str,
}

impl NvmeProfile {
    /// Samsung 990 PRO 2 TB-class device on PCIe Gen4 ×4.
    pub fn samsung_990pro() -> Self {
        NvmeProfile {
            nand: NandConfig {
                channel_bandwidth: Bandwidth::gb_per_s(6.9),
                program_hi: Bandwidth::gb_per_s(6.24),
                program_lo: Bandwidth::gb_per_s(5.90),
            },
            link: PcieLinkConfig::nvme_gen4_x4(),
            fetch_window_host: 8,
            fetch_window_p2p: 3,
            model: "SNAcc-sim 990 PRO 2TB",
        }
    }

    /// A PCIe Gen5 ×4 projection (paper Sec 7): roughly doubled link and
    /// media rates.
    pub fn gen5_projection() -> Self {
        let mut p = Self::samsung_990pro();
        p.link = PcieLinkConfig::nvme_gen5_x4();
        p.nand.channel_bandwidth = Bandwidth::gb_per_s(13.8);
        p.nand.program_hi = Bandwidth::gb_per_s(11.8);
        p.nand.program_lo = Bandwidth::gb_per_s(10.9);
        p.fetch_window_host = 16;
        p.fetch_window_p2p = 8;
        p.model = "SNAcc-sim Gen5 projection";
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_constants_sane() {
        let p = NvmeProfile::samsung_990pro();
        assert!(p.nand.channel_bandwidth.as_gb_per_s() > 6.0);
        assert!(p.fetch_window_p2p < p.fetch_window_host);
    }

    #[test]
    fn gen5_is_faster() {
        let g4 = NvmeProfile::samsung_990pro();
        let g5 = NvmeProfile::gen5_projection();
        assert!(
            g5.nand.channel_bandwidth.as_gb_per_s() > 1.5 * g4.nand.channel_bandwidth.as_gb_per_s()
        );
        assert!(g5.link.bandwidth().as_gb_per_s() > 1.9 * g4.link.bandwidth().as_gb_per_s());
    }
}
