//! # SNAcc — streaming-based network-to-storage accelerators (simulated)
//!
//! A full-system Rust reproduction of *"SNAcc: An Open-Source Framework
//! for Streaming-based Network-to-Storage Accelerators"* (Volz, Kalkhof,
//! Koch — SC Workshops '25). The paper's artifact is an FPGA design; this
//! crate substitutes the hardware with a functional + timing
//! discrete-event simulation and re-implements the entire stack on top:
//!
//! * [`sim`] — deterministic picosecond event engine and bandwidth links,
//! * [`mem`] — URAM / on-board DRAM / host-DRAM memory models,
//! * [`pcie`] — TLP-level fabric with peer-to-peer routing and an IOMMU,
//! * [`nvme`] — spec-faithful NVMe queues/PRPs on a calibrated
//!   990 PRO-class SSD model,
//! * [`net`] — 100 G Ethernet with IEEE 802.3x PAUSE flow control,
//! * [`fpga`] — AXI4-Stream and a TaPaSCo-style platform shell,
//! * [`core`] — **the paper's contribution**: the NVMe Streamer with
//!   on-the-fly PRP synthesis and in-order retirement,
//! * [`spdk`] — the host-CPU polling baseline,
//! * [`apps`] — the Sec 6 image-classification case study,
//! * [`trace`] — deterministic tracing, metrics and Perfetto export,
//! * [`faults`] — seed-driven fault campaigns across the net/PCIe/NVMe
//!   layers, with streamer retry/recovery accounting.
//!
//! ## Quickstart
//!
//! ```
//! use snacc::apps::system::{SnaccSystem, SystemConfig};
//! use snacc::core::config::StreamerVariant;
//!
//! // Bring up host + TaPaSCo shell + SNAcc plugin + SSD.
//! let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
//!
//! // A user PE writes 8 KiB at byte address 4096: address beat, data
//! // beat with TLAST, then a response token reports the bytes written.
//! let ports = sys.streamer.ports();
//! ports.write(&mut sys.en, 4096, [vec![7u8; 8192]]);
//! assert_eq!(ports.response(&mut sys.en), 8192);
//!
//! // The bytes really are on the simulated SSD's media.
//! let media = sys.nvme.with(|d| d.nand_mut().media_mut().read_vec(4096, 8192));
//! assert_eq!(media, vec![7u8; 8192]);
//! ```

pub use snacc_apps as apps;
pub use snacc_core as core;
pub use snacc_faults as faults;
pub use snacc_fpga as fpga;
pub use snacc_mem as mem;
pub use snacc_net as net;
pub use snacc_nvme as nvme;
pub use snacc_pcie as pcie;
pub use snacc_sim as sim;
pub use snacc_spdk as spdk;
pub use snacc_trace as trace;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
    pub use snacc_apps::system::{SnaccSystem, SystemConfig};
    pub use snacc_core::config::{RetirementMode, RetryPolicy, StreamerConfig, StreamerVariant};
    pub use snacc_core::streamer::{encode_read_cmd, StreamerHandle, UserPorts};
    pub use snacc_faults::FaultPlan;
    pub use snacc_fpga::axis::{self, StreamBeat};
    pub use snacc_sim::{Engine, Payload, SimDuration, SimTime};
}
