//! # snacc-pcie — PCIe fabric model
//!
//! A transaction-level model of the PCIe interconnect used in the SNAcc
//! setup: host root complex, the FPGA card, the NVMe SSD (and optionally a
//! GPU) all hang off the same bus, and — crucially for the paper — devices
//! can reach each other *peer-to-peer* without host involvement.
//!
//! Design:
//!
//! * [`config::PcieLinkConfig`] — per-device link (generation × lanes →
//!   per-direction bandwidth).
//! * [`tlp`] — TLP accounting: the maximum payload size (the same on
//!   every link) and the per-packet header overhead.
//! * [`fabric::PcieFabric`] — the topology: every device has a full-duplex
//!   link to the root complex; memory-mapped ranges (host DRAM, device
//!   BARs) are registered in one global address map; `read`/`write` route a
//!   transaction over the involved links, book their bandwidth, apply the
//!   IOMMU, and functionally move the bytes to/from the registered
//!   [`target::MmioTarget`]. A transaction carries its bytes as a
//!   [`snacc_sim::Payload`] both ways: the fabric has one read and one
//!   write entry point, and `read_u32`/`write_u32` for registers.
//! * [`iommu::Iommu`] — permission table for device-initiated accesses
//!   (the paper notes P2P requires IOMMU grants; Sec 4).
//!
//! Reentrancy rule: [`target::MmioTarget`] implementations are *passive*
//! (memories, register files, PRP responders). Active reactions to MMIO
//! (e.g. an NVMe doorbell) must be deferred through
//! [`snacc_sim::Engine::schedule_now`] — handlers receive the engine for
//! exactly this purpose. This keeps `RefCell` borrows non-overlapping.

pub mod config;
pub mod fabric;
pub mod iommu;
pub mod target;
pub mod tlp;

pub use config::{PcieGen, PcieLinkConfig};
pub use fabric::{
    NodeId, PcieError, PcieFabric, PcieFaultConfig, PcieFaultStats, FAULT_MIN_BYTES, HOST_NODE,
};
pub use iommu::Iommu;
pub use target::MmioTarget;
