//! # snacc-apps — the image-classification case study (paper Sec 6)
//!
//! "We receive image data over Ethernet, perform image classification on
//! the FPGA, and directly write both the original image and classification
//! data to an NVMe SSD. After initialization, the entire application
//! operates autonomously on the FPGA without any host interaction."
//!
//! * [`system`] — one-stop builders for the full simulated node (fabric,
//!   host memory, TaPaSCo shell + SNAcc streamer, SSD, bring-up) and for
//!   the host-only SPDK node (`HostSystem::spdk`), shared by examples,
//!   integration tests and the benchmark harness.
//! * [`images`] — the synthetic 2048×1536 RGB image stream (9 MB/frame —
//!   16384 frames ≈ 147 GB, matching Sec 6.2), with real pixel data and a
//!   tiny wire header, sent over the simulated 100 G link.
//! * [`pipeline`] — the FPGA dataflow of Fig 5: Ethernet RX bridge, tee,
//!   downscaler PE (real box-filter resampling to 224×224), MobileNet-
//!   style classifier PE (real fixed-point features + linear head at a
//!   FINN-calibrated rate), and the database controller feeding SNAcc.
//! * [`spdk_ref`] — the SPDK reference configuration (Sec 6.1): the FPGA
//!   classifies, but the host moves the results to storage, batched with
//!   double buffering.
//! * [`gpu`] — the GPU reference (Sec 6.1): the FPGA acts as a NIC; the
//!   host shuttles data between NIC, DRAM, GPU and SSD.

pub mod gpu;
pub mod images;
pub mod pipeline;
pub mod spdk_ref;
pub mod system;

pub use images::{ImageFormat, ImageHeader};
pub use system::{SnaccSystem, SystemConfig};
