//! Full-system builders.
//!
//! Everything the paper's testbed contains, assembled in one call:
//! EPYC-class host (memory + IOMMU), Alveo U280 shell with the SNAcc
//! streamer, a 990 PRO-class SSD, and optionally a second FPGA acting as
//! the 100 G traffic source plus an A100-class GPU.

use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_core::hostinit::SnaccHostDriver;
use snacc_core::streamer::StreamerHandle;
use snacc_faults::FaultPlan;
use snacc_fpga::tapasco::TapascoShell;
use snacc_mem::{AddrRange, HostMemory};
use snacc_nvme::{NvmeDeviceHandle, NvmeProfile};
use snacc_pcie::{Iommu, PcieFabric, HOST_NODE};
use snacc_sim::Engine;
use snacc_spdk::{SpdkConfig, SpdkNvme};
use std::cell::RefCell;
use std::rc::Rc;

/// Canonical fabric addresses used by all experiments.
pub mod layout {
    /// TaPaSCo BAR0 base.
    pub const SHELL_BAR: u64 = 0x4_0000_0000;
    /// NVMe controller BAR0 base.
    pub const NVME_BAR: u64 = 0x8_0000_0000;
    /// Host physical memory window.
    pub const HOST_SPAN: u64 = 8 << 30;
    /// Dedicated notifying host range for an SPDK completion queue.
    pub const SPDK_CQ: u64 = 0x9_0000_0000;
}

/// System construction parameters. Every SNAcc system runs behind an
/// enforcing IOMMU, the paper's setup.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Streamer configuration (variant, retirement and retry policy).
    pub streamer: StreamerConfig,
    /// SSD profile.
    pub nvme: NvmeProfile,
    /// Simulation seed (tR jitter, workload addresses).
    pub seed: u64,
    /// A fault campaign to run under. Bring-up takes the streamer's retry
    /// policy from it and, once the host driver is done, installs its
    /// NVMe and PCIe injectors, so admin commands and queue setup never
    /// fault; the case study puts its Ethernet faults on the capture link.
    pub faults: Option<FaultPlan>,
}

impl SystemConfig {
    /// The paper's setup for a given streamer variant.
    pub fn snacc(variant: StreamerVariant) -> Self {
        SystemConfig {
            streamer: StreamerConfig::snacc(variant),
            nvme: NvmeProfile::samsung_990pro(),
            seed: 0x5aacc,
            faults: None,
        }
    }
}

/// A fully brought-up node with a SNAcc streamer.
pub struct SnaccSystem {
    /// The event engine.
    pub en: Engine,
    /// The PCIe fabric.
    pub fabric: Rc<RefCell<PcieFabric>>,
    /// Host DRAM.
    pub hostmem: Rc<RefCell<HostMemory>>,
    /// The TaPaSCo shell.
    pub shell: TapascoShell,
    /// The SNAcc streamer.
    pub streamer: StreamerHandle,
    /// The SSD.
    pub nvme: NvmeDeviceHandle,
    /// What every SSD added by [`SnaccSystem::attach_ssd`] is built from,
    /// and the fault campaign the case study reads.
    pub(crate) cfg: SystemConfig,
    /// SSDs on the shell, each with its own streamer instance.
    ssds: u64,
}

/// The host side every system shares: a fabric (enforcing IOMMU or
/// passthrough) with host DRAM mapped over [`layout::HOST_SPAN`].
fn host_node(enforce_iommu: bool) -> (Rc<RefCell<PcieFabric>>, Rc<RefCell<HostMemory>>) {
    let mut fabric = PcieFabric::new();
    if enforce_iommu {
        fabric.set_iommu(Iommu::new());
    }
    let hostmem = Rc::new(RefCell::new(HostMemory::default()));
    fabric.map_region(
        HOST_NODE,
        AddrRange::new(0, layout::HOST_SPAN),
        hostmem.clone(),
    );
    (Rc::new(RefCell::new(fabric)), hostmem)
}

/// SSD `i` of a SNAcc system with its own streamer instance on the
/// shell, brought up by the host driver.
fn add_ssd(
    en: &mut Engine,
    fabric: &Rc<RefCell<PcieFabric>>,
    hostmem: &Rc<RefCell<HostMemory>>,
    shell: &mut TapascoShell,
    cfg: &SystemConfig,
    i: u64,
) -> (StreamerHandle, NvmeDeviceHandle) {
    let streamer = StreamerHandle::instantiate(shell, cfg.streamer.clone());
    let bar = layout::NVME_BAR + (i << 28);
    let nvme = NvmeDeviceHandle::attach(fabric.clone(), bar, cfg.nvme.clone(), cfg.seed + i);
    let mut driver = SnaccHostDriver::new(fabric.clone(), hostmem.clone(), nvme.clone());
    driver.bring_up(en, &streamer, 1).expect("SNAcc bring-up");
    (streamer, nvme)
}

impl SnaccSystem {
    /// Build and bring up the complete system, under `cfg.faults` if set.
    pub fn bring_up(mut cfg: SystemConfig) -> SnaccSystem {
        if let Some(plan) = &cfg.faults {
            cfg.streamer.retry = plan.retry;
        }
        let mut en = Engine::new();
        let (fabric, hostmem) = host_node(true);
        let mut shell = TapascoShell::new(fabric.clone(), layout::SHELL_BAR);
        let (streamer, nvme) = add_ssd(&mut en, &fabric, &hostmem, &mut shell, &cfg, 0);
        if let Some(plan) = &cfg.faults {
            plan.apply_nvme(&nvme);
            plan.apply_fabric(&mut fabric.borrow_mut());
        }
        SnaccSystem {
            en,
            fabric,
            hostmem,
            shell,
            streamer,
            nvme,
            cfg,
            ssds: 1,
        }
    }

    /// Put one more SSD, with its own streamer instance, on this system's
    /// shell (the multi-SSD extension, Sec 7), configured as SSD 0 was;
    /// a fault campaign's injectors stay on SSD 0.
    /// The brought-up SSD is SSD 0; SSD `i` sits at `NVME_BAR + (i << 28)`
    /// with seed `cfg.seed + i`. The caller owns the returned handles.
    ///
    /// # Panics
    ///
    /// On an on-board DRAM system: the shell has one DRAM controller and
    /// one second BAR, which SSD 0's streamer already holds (Sec 5.2).
    pub fn attach_ssd(&mut self) -> (StreamerHandle, NvmeDeviceHandle) {
        assert_ne!(
            self.cfg.streamer.variant,
            StreamerVariant::OnboardDram,
            "one on-board DRAM streamer per shell: attach_ssd needs URAM or host DRAM"
        );
        let i = self.ssds;
        self.ssds += 1;
        add_ssd(
            &mut self.en,
            &self.fabric,
            &self.hostmem,
            &mut self.shell,
            &self.cfg,
            i,
        )
    }

    /// Payload bytes transferred over PCIe so far (Fig 7 metric: one
    /// count per transaction, so P2P = 1×, host staging = 2×).
    pub fn pcie_bytes(&self) -> u64 {
        self.fabric.borrow().total_payload_bytes()
    }

    /// Reset PCIe traffic meters (e.g. after bring-up, before the
    /// measured phase).
    pub fn reset_pcie_meters(&mut self) {
        self.fabric.borrow_mut().reset_meters();
    }
}

/// Build a host-only system (no shell/streamer) for SPDK baselines.
pub struct HostSystem {
    /// The event engine.
    pub en: Engine,
    /// The PCIe fabric (passthrough IOMMU: SPDK uses VFIO with full
    /// mappings of its pinned pool).
    pub fabric: Rc<RefCell<PcieFabric>>,
    /// Host DRAM.
    pub hostmem: Rc<RefCell<HostMemory>>,
    /// The SSD.
    pub nvme: NvmeDeviceHandle,
}

impl HostSystem {
    /// Build the host + SSD node.
    pub fn bring_up(nvme_profile: NvmeProfile, seed: u64) -> HostSystem {
        let (fabric, hostmem) = host_node(false);
        let nvme = NvmeDeviceHandle::attach(fabric.clone(), layout::NVME_BAR, nvme_profile, seed);
        HostSystem {
            en: Engine::new(),
            fabric,
            hostmem,
            nvme,
        }
    }

    /// An SPDK driver that owns the SSD: created, then initialised with
    /// its completion queue at [`layout::SPDK_CQ`].
    pub fn spdk(&mut self, cfg: SpdkConfig) -> SpdkNvme {
        let spdk = SpdkNvme::new(
            self.fabric.clone(),
            self.hostmem.clone(),
            self.nvme.clone(),
            cfg,
        );
        spdk.init(&mut self.en, layout::SPDK_CQ).expect("SPDK init");
        spdk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_bring_up() {
        for v in StreamerVariant::all() {
            let sys = SnaccSystem::bring_up(SystemConfig::snacc(v));
            assert_eq!(sys.streamer.variant(), v);
            assert!(sys.pcie_bytes() > 0, "bring-up used the bus");
        }
    }

    #[test]
    fn meters_reset() {
        let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
        assert!(sys.pcie_bytes() > 0);
        sys.reset_pcie_meters();
        assert_eq!(sys.pcie_bytes(), 0);
    }

    #[test]
    fn host_system_brings_up() {
        let h = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 1);
        assert_eq!(h.nvme.bar0_base(), layout::NVME_BAR);
    }
}
