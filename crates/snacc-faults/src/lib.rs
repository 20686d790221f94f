//! # snacc-faults — deterministic fault injection for SNAcc campaigns
//!
//! Real network-to-storage pipelines fail in layered ways: links drop
//! frames, PCIe completions time out, SSDs return transient error
//! statuses or stall on internal housekeeping. This crate turns those
//! failure modes into *reproducible experiments*: a [`FaultPlan`]
//! describes what to break (which layer, at what rate, inside which time
//! window) and a master seed; applying the plan installs seeded
//! injectors into the layer models. Because every injector draws from
//! [`snacc_sim::SimRng`] streams derived from the plan seed — never from
//! wall time — two runs of the same plan over the same workload are
//! event-for-event identical, down to the exported trace bytes.
//!
//! A campaign is one field of the system description,
//! `snacc_apps::system::SystemConfig::faults`, and callers do not apply
//! it by hand: `SnaccSystem::bring_up` takes the streamer's retry policy
//! from the plan and, after the host driver's bring-up, calls
//! [`FaultPlan::apply_nvme`] then [`FaultPlan::apply_fabric`]; the
//! case-study front calls [`FaultPlan::apply_mac`] on its capture link.
//!
//! The layers:
//!
//! * **NVMe** ([`FaultPlan::apply_nvme`]) — I/O commands complete with an
//!   injected error status (transient Data Transfer Error by default, or
//!   a fatal LBA Out of Range) or are delayed by latency spikes. This is
//!   the layer the streamer's bounded-retry machinery
//!   ([`snacc_core::config::RetryPolicy`]) recovers from.
//! * **PCIe** ([`FaultPlan::apply_fabric`]) — bulk non-posted reads abort
//!   with completion timeouts, and a degradation window adds fixed
//!   latency to every bulk TLP. Control traffic (doorbells, CQEs, SQE
//!   fetches) is never faulted.
//! * **Ethernet** ([`FaultPlan::apply_mac`]) — data frames vanish or
//!   arrive corrupted (FCS drop), and PAUSE storms from a misbehaving
//!   peer throttle the link. Ethernet has no retransmit, so these are
//!   absorbed as *graceful degradation* and show up in MAC counters.
//!
//! Plans live in files (see `plans/` at the repository root) using a
//! small TOML subset ([`minitoml`]); [`FaultPlan::load`] reads one. The
//! campaign playbook in `EXPERIMENTS.md` walks through the three shipped
//! plans.

#![deny(missing_docs)]

pub mod minitoml;
pub mod plan;

pub use plan::{FaultPlan, NetFaultSpec, NvmeFaultSpec, PauseStormSpec, PcieFaultSpec, PlanError};
