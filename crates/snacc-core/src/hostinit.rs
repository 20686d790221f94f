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
//! The admin handshake itself is [`AdminQueue`], which the SPDK driver
//! shares; this driver adds what is SNAcc-specific.
//!
//! Initialisation drives the engine to quiescence between steps — it is
//! the only active initiator at bring-up time.

use crate::config::StreamerVariant;
use crate::streamer::{NvmeStreamer, StreamerHandle};
use snacc_mem::{AddrRange, HostMemory};
use snacc_nvme::admin::{AdminError, AdminQueue, NamespaceInfo};
use snacc_nvme::queue::{CqRing, SqRing};
use snacc_nvme::spec::{self, AdminOpcode, Sqe};
use snacc_nvme::NvmeDeviceHandle;
use snacc_pcie::{PcieFabric, HOST_NODE};
use snacc_sim::{Engine, Payload};
use std::cell::RefCell;
use std::rc::Rc;

/// The SNAcc host driver.
pub struct SnaccHostDriver {
    fabric: Rc<RefCell<PcieFabric>>,
    hostmem: Rc<RefCell<HostMemory>>,
    nvme: NvmeDeviceHandle,
    admin: AdminQueue,
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
        let admin = AdminQueue::new(&mut hostmem.borrow_mut(), nvme.bar0_base());
        // The SSD fetches admin commands and writes completions and
        // identify data here.
        for region in admin.regions() {
            fabric.borrow_mut().iommu_mut().grant(nvme.node(), region);
        }
        SnaccHostDriver {
            fabric,
            hostmem,
            nvme,
            admin,
        }
    }

    /// The managed device.
    pub fn nvme(&self) -> &NvmeDeviceHandle {
        &self.nvme
    }

    /// Step 1: admin queue + controller enable, then CSTS.RDY.
    pub fn init_controller(&mut self, en: &mut Engine) -> Result<(), AdminError> {
        self.admin.enable(en, &self.fabric);
        let csts = self
            .fabric
            .borrow_mut()
            .read_u32(en, HOST_NODE, self.nvme.bar0_base() + spec::regs::CSTS)
            .expect("BAR0 reachable");
        if csts & spec::csts::RDY == 0 {
            return Err(AdminError::NotReady);
        }
        Ok(())
    }

    /// Step 2: Identify controller, then namespace (capacity / LBA size).
    pub fn identify(&mut self, en: &mut Engine) -> Result<NamespaceInfo, AdminError> {
        let (fabric, hostmem) = (&self.fabric, &self.hostmem);
        self.admin.identify_controller(en, fabric, hostmem)?;
        self.admin.identify_namespace(en, fabric, hostmem)
    }

    /// Steps 3–6 for a streamer instance: queues into the FPGA BAR, IOMMU
    /// grants, pinned buffers (host variant), doorbell programming over
    /// the control window, enable.
    pub fn setup_streamer(
        &mut self,
        en: &mut Engine,
        streamer: &StreamerHandle,
        qid: u16,
    ) -> Result<(), AdminError> {
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

        self.admin.create_io_queue_pair(
            en,
            &self.fabric,
            &self.hostmem,
            qid,
            &SqRing::new(w.sq.base, sq_entries),
            &CqRing::new(w.cq.base, cq_entries),
        )?;

        // Program the streamer over its control window (real MMIO).
        let sq_db = self.nvme.sq_doorbell_addr(qid);
        let cq_db = self.nvme.cq_doorbell_addr(qid);
        {
            let now = en.now();
            let mut fab = self.fabric.borrow_mut();
            fab.write(
                en,
                now,
                HOST_NODE,
                w.ctrl.base + NvmeStreamer::CTRL_SQ_DB,
                Payload::from(sq_db.to_le_bytes()),
            )
            .expect("ctrl reachable");
            fab.write(
                en,
                now,
                HOST_NODE,
                w.ctrl.base + NvmeStreamer::CTRL_CQ_DB,
                Payload::from(cq_db.to_le_bytes()),
            )
            .expect("ctrl reachable");
            fab.write(
                en,
                now,
                HOST_NODE,
                w.ctrl.base + NvmeStreamer::CTRL_ENABLE,
                Payload::from(1u64.to_le_bytes()),
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
    ) -> Result<NamespaceInfo, AdminError> {
        self.init_controller(en)?;
        let info = self.identify(en)?;
        // Request I/O queues (Set Features, Number of Queues).
        let mut s = Sqe::new(AdminOpcode::SetFeatures as u8, 0);
        s.cdw[0] = 0x07;
        s.cdw[1] = 0x0001_0001;
        self.admin.run(en, &self.fabric, &self.hostmem, s)?;
        self.setup_streamer(en, streamer, qid)?;
        Ok(info)
    }
}
