//! PCIe link configuration.
//!
//! Bandwidths are the usable data rates after physical-layer encoding
//! (128b/130b for Gen3+), i.e. ~0.985 GB/s per lane per 8 GT/s. TLP header
//! overhead is charged separately by the fabric per packet.

use snacc_sim::Bandwidth;

/// PCIe generation (signalling rate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcieGen {
    /// 8 GT/s per lane.
    Gen3,
    /// 16 GT/s per lane.
    Gen4,
    /// 32 GT/s per lane.
    Gen5,
}

impl PcieGen {
    /// Usable bytes/s per lane after line coding.
    pub fn bytes_per_lane(self) -> f64 {
        match self {
            // 8 GT/s × 128/130 / 8 bits
            PcieGen::Gen3 => 0.9846e9,
            PcieGen::Gen4 => 1.9692e9,
            PcieGen::Gen5 => 3.9385e9,
        }
    }
}

/// One device's link to the root complex.
#[derive(Clone, Copy, Debug)]
pub struct PcieLinkConfig {
    /// Signalling generation.
    pub gen: PcieGen,
    /// Lane count (x1/x4/x8/x16).
    pub lanes: u32,
}

impl PcieLinkConfig {
    /// A `gen` link of `lanes` lanes.
    pub fn new(gen: PcieGen, lanes: u32) -> Self {
        assert!(matches!(lanes, 1 | 2 | 4 | 8 | 16), "invalid lane count");
        PcieLinkConfig { gen, lanes }
    }

    /// The Alveo U280's host link: Gen3 ×16 (~15.75 GB/s/dir).
    pub fn alveo_u280() -> Self {
        Self::new(PcieGen::Gen3, 16)
    }

    /// A Gen4 ×4 NVMe SSD link (Samsung 990 PRO class, ~7.88 GB/s/dir).
    pub fn nvme_gen4_x4() -> Self {
        Self::new(PcieGen::Gen4, 4)
    }

    /// A Gen5 ×4 NVMe SSD link (the paper's Sec 7 extension).
    pub fn nvme_gen5_x4() -> Self {
        Self::new(PcieGen::Gen5, 4)
    }

    /// Per-direction usable bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        Bandwidth::gb_per_s(self.gen.bytes_per_lane() * self.lanes as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x16_rate() {
        let c = PcieLinkConfig::alveo_u280();
        let gb = c.bandwidth().as_gb_per_s();
        assert!((gb - 15.75).abs() < 0.1, "{gb}");
    }

    #[test]
    fn gen4_x4_rate() {
        let c = PcieLinkConfig::nvme_gen4_x4();
        let gb = c.bandwidth().as_gb_per_s();
        assert!((gb - 7.88).abs() < 0.1, "{gb}");
    }

    #[test]
    fn gen5_doubles_gen4() {
        let g4 = PcieLinkConfig::nvme_gen4_x4().bandwidth().as_gb_per_s();
        let g5 = PcieLinkConfig::nvme_gen5_x4().bandwidth().as_gb_per_s();
        assert!((g5 / g4 - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "invalid lane count")]
    fn rejects_bad_lanes() {
        PcieLinkConfig::new(PcieGen::Gen3, 3);
    }
}
