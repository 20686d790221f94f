//! # snacc-core — the SNAcc NVMe Streamer
//!
//! The paper's primary contribution (Sec 4): an FPGA IP that gives
//! user-defined streaming accelerators autonomous access to an NVMe SSD
//! over PCIe peer-to-peer, with no host involvement after initialisation.
//!
//! * [`config`] — the three buffer variants (URAM / on-board DRAM / host
//!   DRAM, Sec 4.3), queue depth, command splitting size, and the
//!   out-of-order retirement extension (Sec 7).
//! * [`ring`] — the circular 4 KiB-aligned data-buffer allocator.
//! * [`rob`] — completion tracking: out-of-order completion bits,
//!   in-order retirement (Sec 4.2), plus the Sec 7 OoO-issue extension.
//! * [`prpgen`] — on-the-fly PRP synthesis: the URAM bit-22 address-space
//!   doubling scheme (Fig 2) and the command-indexed register-file scheme
//!   used by the DRAM variants (Fig 3), including the host-DRAM segment
//!   table for stitched 4 MB pinned buffers.
//! * [`streamer`] — the NVMe Streamer IP: the four AXI4-Stream user
//!   interfaces (Sec 4.1), SQ FIFO + CQ reorder buffer exposed to the SSD,
//!   1 MB command splitting, doorbell rings, data movement between the
//!   buffer memory and the user PE. `StreamerHandle::instantiate` adds
//!   it to a TaPaSCo shell (Sec 4.5).
//! * [`hostinit`] — the host-side initialisation driver (Sec 4.6): NVMe
//!   admin bring-up over `snacc_nvme::admin`, I/O queue creation pointing
//!   *into the FPGA BAR*, streamer configuration, IOMMU grants,
//!   pinned-buffer allocation.
//! * [`resources`] — per-variant FPGA resource composition (Table 1).
//! * [`multi`] — the multi-SSD extension (Sec 7).

#![deny(missing_docs)]

pub mod config;
pub mod hostinit;
pub mod multi;
pub mod prpgen;
pub mod resources;
pub mod ring;
pub mod rob;
pub mod streamer;

pub use config::{RetirementMode, StreamerConfig, StreamerVariant};
pub use hostinit::SnaccHostDriver;
pub use streamer::{StreamerHandle, UserPorts};
