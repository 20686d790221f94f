//! Host-side initialisation (paper Sec 4.6).
//!
//! SNAcc deliberately keeps NVMe *initialisation* on the host: it runs
//! once, is not performance-critical, and keeping the admin queue on the
//! host preserves debuggability. This driver performs the paper's
//! bring-up sequence over real simulated MMIO and admin commands:
//!
//! 1. configure the admin queue (in host memory) and enable the
//!    controller,
//! 2. Identify controller + namespace,
//! 3. create the I/O submission/completion queues **pointing into the
//!    FPGA BAR** (the streamer's SQ FIFO and CQ reorder buffer),
//! 4. program the streamer with the controller's doorbell addresses,
//! 5. allocate and install pinned host buffers (host-DRAM variant),
//! 6. grant the IOMMU permissions both directions need (the SSD's access
//!    to the admin structures is granted when the driver allocates them).
//!
//! Initialisation drives the engine to quiescence between steps — it is
//! the only active initiator at bring-up time.

use crate::config::StreamerVariant;
use crate::streamer::{NvmeStreamer, StreamerHandle};
use snacc_mem::{AddrRange, HostMemory};
use snacc_nvme::queue::{CqRing, SqRing};
use snacc_nvme::spec::{self, AdminOpcode, Cqe, Sqe, Status};
use snacc_nvme::NvmeDeviceHandle;
use snacc_pcie::{PcieFabric, HOST_NODE};
use snacc_sim::Engine;
use std::cell::RefCell;
use std::rc::Rc;

/// Driver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// Controller did not become ready.
    NotReady,
    /// An admin command failed.
    AdminFailed(Status),
}

/// Identify results the driver extracts.
#[derive(Debug, Clone, Copy)]
pub struct NamespaceInfo {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Logical block size.
    pub lba_bytes: u64,
}

const ADMIN_QD: u16 = 32;

/// The SNAcc host driver.
pub struct SnaccHostDriver {
    fabric: Rc<RefCell<PcieFabric>>,
    hostmem: Rc<RefCell<HostMemory>>,
    nvme: NvmeDeviceHandle,
    admin_sq: SqRing,
    admin_cq: CqRing,
    ident_buf: u64,
}

impl SnaccHostDriver {
    /// Create the driver; allocates admin queue memory from the pinned
    /// pool and grants the SSD IOMMU access to it. Host memory must
    /// already be mapped on the fabric at its physical addresses.
    pub fn new(
        fabric: Rc<RefCell<PcieFabric>>,
        hostmem: Rc<RefCell<HostMemory>>,
        nvme: NvmeDeviceHandle,
    ) -> Self {
        let admin = {
            let mut hm = hostmem.borrow_mut();
            [
                hm.alloc_pinned(ADMIN_QD as u64 * spec::SQE_BYTES),
                hm.alloc_pinned(ADMIN_QD as u64 * spec::CQE_BYTES),
                hm.alloc_pinned(4096),
            ]
        };
        // The SSD fetches admin commands and writes completions and
        // identify data here.
        for seg in admin.iter().flat_map(|b| b.segments()) {
            fabric.borrow_mut().iommu_mut().grant(nvme.node(), *seg);
        }
        let [asq, acq, ident] = admin.map(|b| b.segments()[0].base);
        SnaccHostDriver {
            fabric,
            hostmem,
            nvme,
            admin_sq: SqRing::new(asq, ADMIN_QD),
            admin_cq: CqRing::new(acq, ADMIN_QD),
            ident_buf: ident,
        }
    }

    /// The managed device.
    pub fn nvme(&self) -> &NvmeDeviceHandle {
        &self.nvme
    }

    fn reg_write32(&self, en: &mut Engine, off: u64, v: u32) {
        self.fabric
            .borrow_mut()
            .write_u32(en, HOST_NODE, self.nvme.bar0_base() + off, v)
            .expect("BAR0 reachable");
    }

    fn reg_write64(&self, en: &mut Engine, off: u64, v: u64) {
        self.fabric
            .borrow_mut()
            .write(en, HOST_NODE, self.nvme.bar0_base() + off, &v.to_le_bytes())
            .expect("BAR0 reachable");
    }

    fn reg_read32(&self, en: &mut Engine, off: u64) -> u32 {
        self.fabric
            .borrow_mut()
            .read_u32(en, HOST_NODE, self.nvme.bar0_base() + off)
            .expect("BAR0 reachable")
    }

    /// Step 1: admin queue + controller enable.
    pub fn init_controller(&mut self, en: &mut Engine) -> Result<(), DriverError> {
        let aqa = ((ADMIN_QD as u32 - 1) << 16) | (ADMIN_QD as u32 - 1);
        self.reg_write32(en, spec::regs::AQA, aqa);
        self.reg_write64(en, spec::regs::ASQ, self.admin_sq.base());
        self.reg_write64(en, spec::regs::ACQ, self.admin_cq.base());
        self.reg_write32(en, spec::regs::CC, spec::cc::EN);
        en.run();
        let csts = self.reg_read32(en, spec::regs::CSTS);
        if csts & spec::csts::RDY == 0 {
            return Err(DriverError::NotReady);
        }
        Ok(())
    }

    /// Submit one admin command and wait for its completion.
    pub fn run_admin(&mut self, en: &mut Engine, mut sqe: Sqe) -> Result<Cqe, DriverError> {
        sqe.cid = self.admin_sq.tail();
        {
            let mut hm = self.hostmem.borrow_mut();
            hm.store_mut()
                .write(self.admin_sq.tail_addr(), &sqe.encode());
        }
        let tail = self.admin_sq.advance_tail();
        self.reg_write32(en, spec::regs::sq_tail_doorbell(0), tail as u32);
        en.run();
        let raw = {
            let mut hm = self.hostmem.borrow_mut();
            hm.store_mut().read_vec(self.admin_cq.head_addr(), 16)
        };
        let Ok(cqe) = Cqe::decode(&raw) else {
            return Err(DriverError::NotReady);
        };
        if cqe.phase != self.admin_cq.expected_phase() {
            return Err(DriverError::NotReady);
        }
        self.admin_cq.consume();
        self.admin_sq.update_head(cqe.sq_head);
        if cqe.status != Status::Success {
            return Err(DriverError::AdminFailed(cqe.status));
        }
        Ok(cqe)
    }

    /// Step 2: Identify namespace (capacity / LBA size).
    pub fn identify(&mut self, en: &mut Engine) -> Result<NamespaceInfo, DriverError> {
        // Identify controller (sanity: model string present).
        let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
        s.prp1 = self.ident_buf;
        s.cdw[0] = 0x01;
        self.run_admin(en, s)?;
        // Identify namespace.
        let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
        s.prp1 = self.ident_buf;
        s.cdw[0] = 0x00;
        self.run_admin(en, s)?;
        let data = {
            let mut hm = self.hostmem.borrow_mut();
            hm.store_mut().read_vec(self.ident_buf, 256)
        };
        let nsze = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let lbaf0 = u32::from_le_bytes(data[128..132].try_into().unwrap());
        let lbads = (lbaf0 >> 16) & 0xFF;
        Ok(NamespaceInfo {
            capacity_bytes: nsze << lbads,
            lba_bytes: 1 << lbads,
        })
    }

    /// Step 3: create an I/O queue pair at explicit (FPGA BAR) addresses.
    pub fn create_io_queues(
        &mut self,
        en: &mut Engine,
        qid: u16,
        sq: AddrRange,
        sq_entries: u16,
        cq: AddrRange,
        cq_entries: u16,
    ) -> Result<(), DriverError> {
        let mut c = Sqe::new(AdminOpcode::CreateIoCq as u8, 0);
        c.prp1 = cq.base;
        c.cdw[0] = (qid as u32) | (((cq_entries - 1) as u32) << 16);
        c.cdw[1] = 1; // physically contiguous
        self.run_admin(en, c)?;
        let mut s = Sqe::new(AdminOpcode::CreateIoSq as u8, 0);
        s.prp1 = sq.base;
        s.cdw[0] = (qid as u32) | (((sq_entries - 1) as u32) << 16);
        s.cdw[1] = 1 | ((qid as u32) << 16);
        self.run_admin(en, s)?;
        Ok(())
    }

    /// Steps 3–6 for a streamer instance: queues into the FPGA BAR, IOMMU
    /// grants, pinned buffers (host variant), doorbell programming over
    /// the control window, enable.
    pub fn setup_streamer(
        &mut self,
        en: &mut Engine,
        streamer: &StreamerHandle,
        qid: u16,
    ) -> Result<(), DriverError> {
        let w = streamer.windows();
        // Ring sizes come from the streamer's configuration — the BAR
        // windows are page-rounded and would overstate the depth.
        let sq_entries = streamer.sq_entries();
        let cq_entries = streamer.sq_entries();

        // IOMMU: the SSD must reach the streamer's windows; the FPGA must
        // reach the SSD's doorbells.
        {
            let mut fab = self.fabric.borrow_mut();
            let ssd = self.nvme.node();
            let fpga = {
                // The streamer's windows are owned by the FPGA node.
                fab.owner_of(w.sq.base).expect("sq window mapped")
            };
            for r in [w.sq, w.cq, w.prp, w.rd_data, w.wr_data] {
                fab.iommu_mut().grant(ssd, r);
            }
            fab.iommu_mut().grant(
                fpga,
                AddrRange::new(self.nvme.bar0_base(), snacc_nvme::device::BAR0_SIZE),
            );
        }

        // Host-DRAM variant: allocate + install pinned buffers and grant
        // both devices access to them.
        if streamer.variant() == StreamerVariant::HostDram {
            let (rd, wr) = {
                let mut hm = self.hostmem.borrow_mut();
                (hm.alloc_pinned(64 << 20), hm.alloc_pinned(64 << 20))
            };
            {
                let mut fab = self.fabric.borrow_mut();
                let ssd = self.nvme.node();
                let fpga = fab.owner_of(w.sq.base).expect("mapped");
                for seg in rd.segments().iter().chain(wr.segments()) {
                    fab.iommu_mut().grant(ssd, *seg);
                    fab.iommu_mut().grant(fpga, *seg);
                }
            }
            streamer.install_host_buffers(rd, wr);
        }

        self.create_io_queues(en, qid, w.sq, sq_entries, w.cq, cq_entries)?;

        // Program the streamer over its control window (real MMIO).
        let sq_db = self.nvme.sq_doorbell_addr(qid);
        let cq_db = self.nvme.cq_doorbell_addr(qid);
        {
            let mut fab = self.fabric.borrow_mut();
            fab.write(
                en,
                HOST_NODE,
                w.ctrl.base + NvmeStreamer::CTRL_SQ_DB,
                &sq_db.to_le_bytes(),
            )
            .expect("ctrl reachable");
            fab.write(
                en,
                HOST_NODE,
                w.ctrl.base + NvmeStreamer::CTRL_CQ_DB,
                &cq_db.to_le_bytes(),
            )
            .expect("ctrl reachable");
            fab.write(
                en,
                HOST_NODE,
                w.ctrl.base + NvmeStreamer::CTRL_ENABLE,
                &1u64.to_le_bytes(),
            )
            .expect("ctrl reachable");
        }
        en.run();
        Ok(())
    }

    /// Full bring-up: controller init, identify, streamer setup on `qid`.
    pub fn bring_up(
        &mut self,
        en: &mut Engine,
        streamer: &StreamerHandle,
        qid: u16,
    ) -> Result<NamespaceInfo, DriverError> {
        self.init_controller(en)?;
        let info = self.identify(en)?;
        // Request I/O queues (Set Features, Number of Queues).
        let mut s = Sqe::new(AdminOpcode::SetFeatures as u8, 0);
        s.cdw[0] = 0x07;
        s.cdw[1] = 0x0001_0001;
        self.run_admin(en, s)?;
        self.setup_streamer(en, streamer, qid)?;
        Ok(info)
    }
}
