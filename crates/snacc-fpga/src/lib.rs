//! # snacc-fpga — FPGA platform model (TaPaSCo-style shell)
//!
//! SNAcc ships as a subsystem of the TaPaSCo open-source toolflow (paper
//! Sec 2.1 / 4.5). This crate models the platform side:
//!
//! * [`axis`] — AXI4-Stream channels: bounded ready/valid byte-beat
//!   queues with TLAST, the lingua franca between user PEs and the SNAcc
//!   streamer (Sec 4.1).
//! * [`resources`] — FPGA resource accounting (LUT/FF/BRAM/URAM) with
//!   Alveo U280 device totals; the Table 1 reproduction composes streamer
//!   variants out of costed sub-blocks.
//! * [`tapasco`] — the shell: PCIe endpoint, BAR window allocation (one
//!   64 MB BAR plus an optional second BAR, Sec 4.5), status core and
//!   on-board DRAM. The host reaches it with plain fabric reads and
//!   writes; the streamer instantiates itself into it and the
//!   initialisation driver lives in `snacc-core`.
//!
//! The case-study PEs (downscaler, classifier) are modelled inside the
//! database controller of `snacc-apps`, not as separate stages here.

pub mod axis;
pub mod resources;
pub mod tapasco;

pub use axis::{AxisChannel, StreamBeat};
pub use resources::{DeviceResources, ResourceUsage};
pub use tapasco::TapascoShell;
