//! # snacc-spdk — SPDK-style host baseline
//!
//! The paper's reference point (Sec 5.1): a user-space, polling NVMe
//! driver on the host CPU. "SPDK provides high-performance, raw access to
//! NVMe-based SSDs by shifting driver functionality into user space ...
//! All required data buffers are located in pinned memory ... SPDK
//! optimizes latency by polling for completions instead of relying on
//! interrupt mechanisms. In a setup with one SSD, it can leverage the
//! full SSD bandwidth running on a single thread."
//!
//! Differences from the SNAcc streamer that matter for the evaluation:
//!
//! * queues and payload buffers live in **host memory** (SQE fetches, data
//!   DMA and CQE writes all cross the host link);
//! * PRP lists are **stored** in memory and fetched by the controller —
//!   not synthesised on the fly;
//! * completions are reaped **out of order**, so a slow command never
//!   blocks slot reuse (the Fig 4b random-read advantage);
//! * one CPU core runs at 100 % for the duration (Sec 6.3).
//!
//! [`cpu::CpuCore`] models the polling core; [`driver::SpdkNvme`] is the
//! driver itself. Controller bring-up runs over `snacc_nvme::admin`, the
//! admin queue the SNAcc host driver uses too.

pub mod cpu;
pub mod driver;

pub use cpu::CpuCore;
pub use driver::{CompletionInfo, IoKind, SpdkConfig, SpdkNvme, WeakSpdkNvme};
