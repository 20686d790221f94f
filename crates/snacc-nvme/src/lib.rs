//! # snacc-nvme — NVMe protocol + device model
//!
//! A spec-faithful subset of NVMe 1.4 plus a calibrated model of a
//! Samsung 990 PRO-class SSD, both sides of the wire:
//!
//! * [`spec`] — 64-byte submission queue entries, 16-byte completion queue
//!   entries, controller register map, opcodes and status codes. These are
//!   real encodings: the device parses the same bytes a host driver (or
//!   SNAcc's NVMe Streamer) writes into queue memory.
//! * [`queue`] — submission/completion ring arithmetic (tails, heads, phase
//!   tags) shared by the host drivers and the streamer model.
//! * [`admin`] — the host side of the admin queue: controller enable,
//!   Identify and I/O queue-pair creation, shared by the SNAcc host
//!   driver, the SPDK driver and the device tests.
//! * [`prp`] — PRP walking (device side) and PRP list building (host side),
//!   including list chaining for > 1 MB + 4 KiB transfers.
//! * [`nand`] — the storage backend: NAND dies with per-die queueing, a
//!   shared channel budget, the pSLC-cache program-rate state machine that
//!   produces the paper's alternating 6.24 / 5.90 GB/s write bandwidth, and
//!   the controller DRAM write cache that makes 4 KiB writes complete in a
//!   few microseconds.
//! * [`device`] — the controller: doorbells on BAR0, SQE fetch over the
//!   PCIe fabric, PRP resolution, credit-windowed data fetch (the
//!   peer-to-peer read-credit limit that caps SNAcc's URAM write bandwidth
//!   lives here), media access, completion writeback.
//! * [`profile`] — calibrated device parameter sets (990 PRO on Gen4 ×4,
//!   plus the Gen5 projection used by the paper's Sec 7 discussion).

#![deny(missing_docs)]

pub mod admin;
pub mod device;
pub mod nand;
pub mod profile;
pub mod prp;
pub mod queue;
pub mod spec;

pub use device::{IoFaultConfig, IoFaultStats, NvmeDevice, NvmeDeviceHandle};
pub use profile::NvmeProfile;
