//! The host side of the NVMe admin queue.
//!
//! Every host of the simulated SSD sets the controller up with the same
//! handshake: the SNAcc host driver (paper Sec 4.6), the SPDK baseline
//! and the device tests. [`AdminQueue`] is that handshake, written once:
//! admin queues and the Identify page in pinned host memory, AQA / ASQ /
//! ACQ / CC.EN over BAR0, one command at a time with its completion's
//! phase and status checked, and the I/O queue-pair creation commands.
//!
//! The queue holds no shared handle to the fabric or to host memory:
//! callers pass both per call, so a driver keeps whatever ownership it
//! needs (a weak fabric back-edge, say) and no borrow is held while the
//! engine runs.

use crate::queue::{CqRing, SqRing};
use crate::spec::{self, AdminOpcode, Cqe, Sqe, Status};
use snacc_mem::{AddrRange, HostMemory};
use snacc_pcie::{PcieFabric, HOST_NODE};
use snacc_sim::{Engine, Payload};
use std::cell::RefCell;

/// Admin SQ and CQ depth.
pub const ENTRIES: u16 = 32;

/// Why an admin command did not succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminError {
    /// No completion arrived: the controller is not enabled, or not ready.
    NotReady,
    /// The controller completed the command with an error status.
    Failed(Status),
}

/// Namespace geometry from Identify Namespace.
#[derive(Debug, Clone, Copy)]
pub struct NamespaceInfo {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Logical block size.
    pub lba_bytes: u64,
}

/// One controller's admin queue pair plus its 4 KiB Identify page.
pub struct AdminQueue {
    bar0: u64,
    sq: SqRing,
    cq: CqRing,
    ident: u64,
    /// Completions consumed since the CQ head doorbell was last written.
    unacked: u16,
}

impl AdminQueue {
    /// Allocate the admin SQ, the admin CQ and the Identify page, in that
    /// order, from `hostmem`'s pinned pool, for the controller whose BAR0
    /// sits at `bar0`.
    pub fn new(hostmem: &mut HostMemory, bar0: u64) -> Self {
        let mut pinned = |bytes| hostmem.alloc_pinned(bytes).segments()[0].base;
        let sq = pinned(ENTRIES as u64 * spec::SQE_BYTES);
        let cq = pinned(ENTRIES as u64 * spec::CQE_BYTES);
        let ident = pinned(spec::NVME_PAGE);
        AdminQueue {
            bar0,
            sq: SqRing::new(sq, ENTRIES),
            cq: CqRing::new(cq, ENTRIES),
            ident,
            unacked: 0,
        }
    }

    /// The pinned pages the controller reads commands from and writes
    /// completions and Identify data to (what an IOMMU must let it reach).
    pub fn regions(&self) -> [AddrRange; 3] {
        [self.sq.base(), self.cq.base(), self.ident].map(|b| AddrRange::new(b, spec::NVME_PAGE))
    }

    fn reg_write(&self, en: &mut Engine, fabric: &RefCell<PcieFabric>, off: u64, bytes: &[u8]) {
        let now = en.now();
        fabric
            .borrow_mut()
            .write(en, now, HOST_NODE, self.bar0 + off, Payload::from(bytes))
            .expect("BAR0 reachable");
    }

    /// Program AQA, ASQ and ACQ, set CC.EN, and run the engine until the
    /// writes have landed.
    pub fn enable(&self, en: &mut Engine, fabric: &RefCell<PcieFabric>) {
        let qsize = ENTRIES as u32 - 1;
        self.reg_write(
            en,
            fabric,
            spec::regs::AQA,
            &(qsize << 16 | qsize).to_le_bytes(),
        );
        self.reg_write(en, fabric, spec::regs::ASQ, &self.sq.base().to_le_bytes());
        self.reg_write(en, fabric, spec::regs::ACQ, &self.cq.base().to_le_bytes());
        self.reg_write(en, fabric, spec::regs::CC, &spec::cc::EN.to_le_bytes());
        en.run();
    }

    /// Execute one admin command: post it, ring the SQ tail doorbell, run
    /// the engine dry, and check the completion's phase and status. The
    /// command id is the queue's. Once half the CQ is consumed but not yet
    /// acknowledged, the CQ head doorbell tells the controller so.
    pub fn run(
        &mut self,
        en: &mut Engine,
        fabric: &RefCell<PcieFabric>,
        hostmem: &RefCell<HostMemory>,
        mut sqe: Sqe,
    ) -> Result<Cqe, AdminError> {
        sqe.cid = self.sq.tail();
        hostmem
            .borrow_mut()
            .store_mut()
            .write(self.sq.tail_addr(), &sqe.encode());
        let tail = self.sq.advance_tail() as u32;
        self.reg_write(
            en,
            fabric,
            spec::regs::sq_tail_doorbell(0),
            &tail.to_le_bytes(),
        );
        en.run();
        let raw = hostmem
            .borrow_mut()
            .store_mut()
            .read_vec(self.cq.head_addr(), spec::CQE_BYTES as usize);
        let cqe = match Cqe::decode(&raw) {
            Ok(cqe) if cqe.phase == self.cq.expected_phase() => cqe,
            _ => return Err(AdminError::NotReady),
        };
        let head = self.cq.consume() as u32;
        self.sq.update_head(cqe.sq_head);
        self.unacked += 1;
        if self.unacked >= ENTRIES / 2 {
            self.reg_write(
                en,
                fabric,
                spec::regs::cq_head_doorbell(0),
                &head.to_le_bytes(),
            );
            self.unacked = 0;
        }
        match cqe.status {
            Status::Success => Ok(cqe),
            status => Err(AdminError::Failed(status)),
        }
    }

    fn identify(
        &mut self,
        en: &mut Engine,
        fabric: &RefCell<PcieFabric>,
        hostmem: &RefCell<HostMemory>,
        cns: u32,
    ) -> Result<(), AdminError> {
        let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
        s.prp1 = self.ident;
        s.cdw[0] = cns;
        self.run(en, fabric, hostmem, s).map(drop)
    }

    /// Identify Controller (CNS 1) into the Identify page.
    pub fn identify_controller(
        &mut self,
        en: &mut Engine,
        fabric: &RefCell<PcieFabric>,
        hostmem: &RefCell<HostMemory>,
    ) -> Result<(), AdminError> {
        self.identify(en, fabric, hostmem, 0x01)
    }

    /// Identify Namespace (CNS 0): capacity and LBA size of namespace 1.
    pub fn identify_namespace(
        &mut self,
        en: &mut Engine,
        fabric: &RefCell<PcieFabric>,
        hostmem: &RefCell<HostMemory>,
    ) -> Result<NamespaceInfo, AdminError> {
        self.identify(en, fabric, hostmem, 0x00)?;
        let data = hostmem.borrow_mut().store_mut().read_vec(self.ident, 256);
        let nsze = u64::from_le_bytes(data[0..8].try_into().expect("8 bytes"));
        let lbaf0 = u32::from_le_bytes(data[128..132].try_into().expect("4 bytes"));
        let lbads = (lbaf0 >> 16) & 0xFF;
        Ok(NamespaceInfo {
            capacity_bytes: nsze << lbads,
            lba_bytes: 1 << lbads,
        })
    }

    /// Create I/O queue pair `qid` over the physically contiguous rings
    /// `sq` and `cq`: Create I/O CQ first, then Create I/O SQ bound to it.
    pub fn create_io_queue_pair(
        &mut self,
        en: &mut Engine,
        fabric: &RefCell<PcieFabric>,
        hostmem: &RefCell<HostMemory>,
        qid: u16,
        sq: &SqRing,
        cq: &CqRing,
    ) -> Result<(), AdminError> {
        let qid = qid as u32;
        let mut c = Sqe::new(AdminOpcode::CreateIoCq as u8, 0);
        c.prp1 = cq.base();
        c.cdw[0] = qid | ((cq.entries() as u32 - 1) << 16);
        c.cdw[1] = 1; // physically contiguous
        self.run(en, fabric, hostmem, c)?;
        let mut s = Sqe::new(AdminOpcode::CreateIoSq as u8, 0);
        s.prp1 = sq.base();
        s.cdw[0] = qid | ((sq.entries() as u32 - 1) << 16);
        s.cdw[1] = 1 | (qid << 16);
        self.run(en, fabric, hostmem, s).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NvmeDeviceHandle, NvmeProfile};
    use std::rc::Rc;

    const BAR0: u64 = 0x8_0000_0000;

    struct Rig {
        en: Engine,
        fabric: Rc<RefCell<PcieFabric>>,
        hostmem: Rc<RefCell<HostMemory>>,
        admin: AdminQueue,
    }

    /// A controller on a fabric with host memory mapped over the pinned
    /// pool; not yet enabled.
    fn rig() -> Rig {
        let mut fabric = PcieFabric::new();
        let hostmem = Rc::new(RefCell::new(HostMemory::default()));
        fabric.map_region(HOST_NODE, AddrRange::new(0, 8 << 30), hostmem.clone());
        let fabric = Rc::new(RefCell::new(fabric));
        NvmeDeviceHandle::attach(fabric.clone(), BAR0, NvmeProfile::samsung_990pro(), 1);
        let admin = AdminQueue::new(&mut hostmem.borrow_mut(), BAR0);
        Rig {
            en: Engine::new(),
            fabric,
            hostmem,
            admin,
        }
    }

    impl Rig {
        fn run(&mut self, sqe: Sqe) -> Result<Cqe, AdminError> {
            self.admin
                .run(&mut self.en, &self.fabric, &self.hostmem, sqe)
        }
    }

    #[test]
    fn forty_admin_commands_on_one_controller() {
        // More than the 32-entry CQ holds: the controller defers a CQE
        // once 32 are unacknowledged, so the CQ head doorbell must flow.
        let mut r = rig();
        r.admin.enable(&mut r.en, &r.fabric);
        for i in 0..40 {
            let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
            s.prp1 = r.admin.ident;
            s.cdw[0] = 0x01;
            let cqe = r.run(s).unwrap_or_else(|e| panic!("command {i}: {e:?}"));
            assert_eq!(cqe.cid, i % ENTRIES);
        }
    }

    #[test]
    fn failing_command_reports_its_status() {
        let mut r = rig();
        r.admin.enable(&mut r.en, &r.fabric);
        let err = r.run(Sqe::new(0x7f, 0));
        assert_eq!(err.unwrap_err(), AdminError::Failed(Status::InvalidOpcode));
        // The queue stays usable.
        let info = r
            .admin
            .identify_namespace(&mut r.en, &r.fabric, &r.hostmem)
            .expect("identify");
        assert_eq!(info.lba_bytes, 512);
    }

    #[test]
    fn controller_never_enabled_is_not_ready() {
        let mut r = rig();
        let err = r
            .admin
            .identify_controller(&mut r.en, &r.fabric, &r.hostmem);
        assert_eq!(err, Err(AdminError::NotReady));
    }
}
