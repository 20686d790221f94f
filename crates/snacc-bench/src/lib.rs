//! # snacc-bench — the paper's evaluation, regenerated
//!
//! One regenerator per table and figure of the SNAcc paper (Sec 5–6),
//! each as a binary printing the same rows/series the paper reports:
//!
//! | binary          | paper artifact | metric |
//! |-----------------|----------------|--------|
//! | `fig4a`         | Fig 4a | sequential R/W bandwidth, 1 GB, per variant + SPDK |
//! | `fig4b`         | Fig 4b | random 4 KiB bandwidth, 1 GB total, QD 64 |
//! | `fig4c`         | Fig 4c | single 4 KiB access latency |
//! | `table1`        | Table 1 | FPGA resource utilisation per variant |
//! | `fig6`          | Fig 6 | case-study bandwidth, five configurations |
//! | `fig7`          | Fig 7 | PCIe traffic per configuration |
//! | `ext_multi_ssd` | Sec 7 | multi-SSD write scaling |
//! | `ext_ooo`       | Sec 7 | out-of-order retirement on random reads |
//! | `ext_gen5`      | Sec 7 | PCIe Gen5 SSD projection |
//! | `ext_qd_sweep`  | Sec 5.2 note | SPDK random read vs queue depth |
//! | `ext_flowctl`   | Sec 4.7 | Ethernet flow control losslessness |
//!
//! The library half hosts the shared workload drivers plus the
//! deterministic sweep pool ([`sweep`]): binaries declare their job grid
//! and fan independent simulations across `--jobs N` worker threads with
//! byte-identical output at any worker count.

pub mod report;
pub mod sweep;
pub mod telemetry;
pub mod workloads;

pub use report::{publish, BenchRecord};
pub use telemetry::Telemetry;
