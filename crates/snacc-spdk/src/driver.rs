//! The SPDK-style polling NVMe driver.
//!
//! Queue memory, payload slabs and stored PRP-list pages all live in
//! pinned host memory; the controller fetches everything over its host
//! link. Completions are reaped out of order — any completed command
//! frees its slot immediately — which is exactly the behaviour that wins
//! the random-read comparison in Fig 4b.
//!
//! **Latency note.** The paper measures 57 µs for a single 4 KiB read via
//! SPDK while SNAcc's URAM variant measures 34 µs on the *same SSD*
//! (Fig 4c). The SSD model reconciles this with its warm/cold read
//! mechanism (`snacc-nvme::nand`): SNAcc's latency benchmark reads the
//! data it just wrote (pSLC-resident, ~30 µs tR) while the SPDK figure
//! matches a cold TLC read (~54 µs tR). `host_path_latency` remains
//! available as an explicit ablation knob and defaults to zero.

use crate::cpu::CpuCore;
use snacc_mem::hostmem::PinnedBuffer;
use snacc_mem::{AddrRange, HostMemory};
use snacc_nvme::prp::PrpListBuilder;
use snacc_nvme::queue::{CqRing, SqRing};
use snacc_nvme::spec::{self, AdminOpcode, Cqe, IoOpcode, Sqe, Status};
use snacc_nvme::NvmeDeviceHandle;
use snacc_pcie::target::NotifyTarget;
use snacc_pcie::{PcieFabric, HOST_NODE};
use snacc_sim::bytes::Payload;
use snacc_sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// I/O direction of a submitted command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// NVM read.
    Read,
    /// NVM write.
    Write,
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct SpdkConfig {
    /// Maximum commands in flight (the paper benchmarks QD 64).
    pub queue_depth: u16,
    /// I/O queue ring entries.
    pub io_entries: u16,
    /// Per-command transfer limit (split larger requests).
    pub max_cmd_bytes: u64,
    /// CPU cost to build + submit one command.
    pub submit_overhead: SimDuration,
    /// CPU cost to reap one completion.
    pub reap_overhead: SimDuration,
    /// Calibrated pipelined host-path latency adder (see module docs).
    pub host_path_latency: SimDuration,
}

impl Default for SpdkConfig {
    fn default() -> Self {
        SpdkConfig {
            queue_depth: 64,
            io_entries: 256,
            max_cmd_bytes: 1 << 20,
            submit_overhead: SimDuration::from_ns(300),
            reap_overhead: SimDuration::from_ns(200),
            host_path_latency: SimDuration::ZERO,
        }
    }
}

impl SpdkConfig {
    /// Same driver with a different queue depth (Fig 4b QD sweep).
    pub fn with_queue_depth(qd: u16) -> Self {
        SpdkConfig {
            queue_depth: qd,
            io_entries: (qd * 4).max(64),
            ..Default::default()
        }
    }
}

/// Information passed to the completion hook.
#[derive(Clone, Copy, Debug)]
pub struct CompletionInfo {
    /// Command id.
    pub cid: u16,
    /// Completed successfully?
    pub ok: bool,
    /// Direction.
    pub kind: IoKind,
    /// Bytes transferred.
    pub bytes: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// User-visible completion time.
    pub completed: SimTime,
}

/// Driver statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpdkStats {
    /// Commands submitted.
    pub submitted: u64,
    /// Commands completed.
    pub completed: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Error completions.
    pub errors: u64,
}

struct Inflight {
    kind: IoKind,
    bytes: u64,
    slot: usize,
    submitted: SimTime,
}

type CompletionHook = Box<dyn FnMut(&mut Engine, CompletionInfo)>;

struct Inner {
    cfg: SpdkConfig,
    fabric: Rc<RefCell<PcieFabric>>,
    hostmem: Rc<RefCell<HostMemory>>,
    nvme: NvmeDeviceHandle,
    cpu: CpuCore,
    // Admin.
    admin_sq: SqRing,
    admin_cq: CqRing,
    ident_buf: u64,
    // I/O queue (qid 1) in host memory.
    io_sq: SqRing,
    io_cq: CqRing,
    cq_mem: Option<Rc<RefCell<NotifyTarget>>>,
    cq_base: u64,
    // Payload slabs: one per queue slot, each physically contiguous.
    slabs: Vec<PinnedBuffer>,
    free_slots: Vec<usize>,
    // Stored PRP-list pages: one per queue slot.
    list_pages: Vec<u64>,
    next_cid: u16,
    inflight: HashMap<u16, Inflight>,
    hook: Option<CompletionHook>,
    reaping: bool,
    stats: SpdkStats,
}

/// The SPDK-style driver handle.
#[derive(Clone)]
pub struct SpdkNvme {
    inner: Rc<RefCell<Inner>>,
}

/// Driver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpdkError {
    /// All queue slots are busy.
    QueueFull,
    /// Request exceeds the per-command limit.
    TooLarge,
    /// Admin phase failed.
    AdminFailed(Status),
    /// Controller did not come up.
    NotReady,
}

impl SpdkNvme {
    /// Create the driver: allocates admin queues, per-slot payload slabs
    /// and PRP-list pages from pinned host memory. Host memory must be
    /// mapped on the fabric; the caller is responsible for IOMMU grants
    /// covering the pinned region (SPDK requires root / VFIO for the same
    /// reason, Sec 6.3).
    pub fn new(
        fabric: Rc<RefCell<PcieFabric>>,
        hostmem: Rc<RefCell<HostMemory>>,
        nvme: NvmeDeviceHandle,
        cfg: SpdkConfig,
    ) -> Self {
        let qd = cfg.queue_depth as usize;
        let (admin_sq, admin_cq, ident, io_sq_base, slabs, list_pages) = {
            let mut hm = hostmem.borrow_mut();
            let asq = hm.alloc_pinned(32 * spec::SQE_BYTES).segments()[0].base;
            let acq = hm.alloc_pinned(32 * spec::CQE_BYTES).segments()[0].base;
            let ident = hm.alloc_pinned(4096).segments()[0].base;
            let io_sq = hm
                .alloc_pinned(cfg.io_entries as u64 * spec::SQE_BYTES)
                .segments()[0]
                .base;
            let slabs: Vec<PinnedBuffer> = (0..qd)
                .map(|_| hm.alloc_pinned(cfg.max_cmd_bytes))
                .collect();
            let lists: Vec<u64> = (0..qd)
                .map(|_| hm.alloc_pinned(4096).segments()[0].base)
                .collect();
            (asq, acq, ident, io_sq, slabs, lists)
        };
        let inner = Inner {
            admin_sq: SqRing::new(admin_sq, 32),
            admin_cq: CqRing::new(admin_cq, 32),
            ident_buf: ident,
            io_sq: SqRing::new(io_sq_base, cfg.io_entries),
            io_cq: CqRing::new(0, cfg.io_entries), // base set at init
            cq_mem: None,
            cq_base: 0,
            free_slots: (0..qd).rev().collect(),
            slabs,
            list_pages,
            next_cid: 0,
            inflight: HashMap::new(),
            hook: None,
            reaping: false,
            stats: SpdkStats::default(),
            cpu: CpuCore::new("spdk-reactor"),
            cfg,
            fabric,
            hostmem,
            nvme,
        };
        SpdkNvme {
            inner: Rc::new(RefCell::new(inner)),
        }
    }

    fn reg_write32(&self, en: &mut Engine, off: u64, v: u32) {
        let (fabric, bar) = {
            let i = self.inner.borrow();
            (i.fabric.clone(), i.nvme.bar0_base())
        };
        fabric
            .borrow_mut()
            .write_u32(en, HOST_NODE, bar + off, v)
            .expect("BAR0 reachable");
    }

    fn reg_write64(&self, en: &mut Engine, off: u64, v: u64) {
        let (fabric, bar) = {
            let i = self.inner.borrow();
            (i.fabric.clone(), i.nvme.bar0_base())
        };
        fabric
            .borrow_mut()
            .write(en, HOST_NODE, bar + off, &v.to_le_bytes())
            .expect("BAR0 reachable");
    }

    fn run_admin(&self, en: &mut Engine, mut sqe: Sqe) -> Result<Cqe, SpdkError> {
        let (addr, tail) = {
            let mut i = self.inner.borrow_mut();
            sqe.cid = i.admin_sq.tail();
            let addr = i.admin_sq.tail_addr();
            i.hostmem
                .borrow_mut()
                .store_mut()
                .write(addr, &sqe.encode());
            (addr, i.admin_sq.advance_tail())
        };
        let _ = addr;
        self.reg_write32(en, spec::regs::sq_tail_doorbell(0), tail as u32);
        en.run();
        let mut i = self.inner.borrow_mut();
        let head_addr = i.admin_cq.head_addr();
        let raw = i.hostmem.borrow_mut().store_mut().read_vec(head_addr, 16);
        let Ok(cqe) = Cqe::decode(&raw) else {
            return Err(SpdkError::NotReady);
        };
        if cqe.phase != i.admin_cq.expected_phase() {
            return Err(SpdkError::NotReady);
        }
        i.admin_cq.consume();
        i.admin_sq.update_head(cqe.sq_head);
        if cqe.status != Status::Success {
            return Err(SpdkError::AdminFailed(cqe.status));
        }
        Ok(cqe)
    }

    /// Bring the controller up and create the I/O queue pair. The CQ is a
    /// dedicated pinned host range so the simulated reactor "polls" it
    /// (write-notification models the poll hit).
    pub fn init(&self, en: &mut Engine, cq_phys_base: u64) -> Result<(), SpdkError> {
        {
            let mut i = self.inner.borrow_mut();
            i.cpu.claim(en.now());
        }
        // Admin queue + enable.
        let (asq, acq, entries) = {
            let i = self.inner.borrow();
            (i.admin_sq.base(), i.admin_cq.base(), 32u32)
        };
        self.reg_write32(en, spec::regs::AQA, ((entries - 1) << 16) | (entries - 1));
        self.reg_write64(en, spec::regs::ASQ, asq);
        self.reg_write64(en, spec::regs::ACQ, acq);
        self.reg_write32(en, spec::regs::CC, spec::cc::EN);
        en.run();

        // Identify (exercises the admin data path).
        let ident = self.inner.borrow().ident_buf;
        let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
        s.prp1 = ident;
        s.cdw[0] = 0x01;
        self.run_admin(en, s)?;

        // Map the CQ as a notifying host range.
        let (entries_io, fabric) = {
            let i = self.inner.borrow();
            (i.cfg.io_entries, i.fabric.clone())
        };
        let cq_mem = Rc::new(RefCell::new(NotifyTarget::new(
            "spdk-cq",
            SimDuration::from_ns(90),
        )));
        fabric.borrow_mut().map_region(
            HOST_NODE,
            AddrRange::new(cq_phys_base, entries_io as u64 * spec::CQE_BYTES),
            cq_mem.clone(),
        );
        {
            let me = self.clone();
            cq_mem
                .borrow_mut()
                .set_hook(Box::new(move |en, _off, _data, arrival| {
                    let me2 = me.clone();
                    let delay = me.inner.borrow().cfg.host_path_latency;
                    en.schedule_at(arrival.max(en.now()) + delay, move |en| {
                        me2.reap(en);
                    });
                }));
        }
        {
            let mut i = self.inner.borrow_mut();
            i.cq_mem = Some(cq_mem);
            i.cq_base = cq_phys_base;
            i.io_cq = CqRing::new(cq_phys_base, entries_io);
        }

        // Create the I/O queue pair.
        let (sq_base, io_entries) = {
            let i = self.inner.borrow();
            (i.io_sq.base(), i.cfg.io_entries)
        };
        let mut c = Sqe::new(AdminOpcode::CreateIoCq as u8, 0);
        c.prp1 = cq_phys_base;
        c.cdw[0] = 1 | (((io_entries - 1) as u32) << 16);
        c.cdw[1] = 1;
        self.run_admin(en, c)?;
        let mut s = Sqe::new(AdminOpcode::CreateIoSq as u8, 0);
        s.prp1 = sq_base;
        s.cdw[0] = 1 | (((io_entries - 1) as u32) << 16);
        s.cdw[1] = 1 | (1 << 16);
        self.run_admin(en, s)?;
        Ok(())
    }

    /// Install the completion hook.
    pub fn set_completion_hook(&self, hook: impl FnMut(&mut Engine, CompletionInfo) + 'static) {
        self.inner.borrow_mut().hook = Some(Box::new(hook));
    }

    /// Is a queue slot available?
    pub fn can_submit(&self) -> bool {
        let i = self.inner.borrow();
        !i.free_slots.is_empty() && !i.io_sq.is_full()
    }

    /// Commands currently in flight.
    pub fn inflight(&self) -> usize {
        self.inner.borrow().inflight.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SpdkStats {
        self.inner.borrow().stats
    }

    /// Occupancy of the reactor core (1.0 while polling).
    pub fn cpu_occupancy(&self, start: SimTime, now: SimTime) -> f64 {
        self.inner.borrow().cpu.occupancy(start, now)
    }

    /// Useful CPU work consumed so far.
    pub fn cpu_busy(&self) -> SimDuration {
        self.inner.borrow().cpu.busy_total()
    }

    /// Submit a read of `len` bytes at byte address `addr`. Data lands in
    /// the slot's slab; fetch it with [`take_read_data`](Self::take_read_data)
    /// after completion.
    pub fn submit_read(&self, en: &mut Engine, addr: u64, len: u64) -> Result<u16, SpdkError> {
        self.submit(en, IoKind::Read, addr, len, None)
    }

    /// Submit a write of a payload window at byte address `addr`. The slab
    /// staging retains the window zero-copy — lazy pattern/fill payloads
    /// stay lazy all the way into the functional media.
    pub fn submit_write_payload(
        &self,
        en: &mut Engine,
        addr: u64,
        data: Payload,
    ) -> Result<u16, SpdkError> {
        let len = data.len() as u64;
        self.submit(en, IoKind::Write, addr, len, Some(data))
    }

    fn submit(
        &self,
        en: &mut Engine,
        kind: IoKind,
        addr: u64,
        len: u64,
        data: Option<Payload>,
    ) -> Result<u16, SpdkError> {
        assert!(
            addr.is_multiple_of(512) && len.is_multiple_of(512),
            "LBA alignment"
        );
        let (cid, tail, submit_done) = {
            let mut i = self.inner.borrow_mut();
            if len > i.cfg.max_cmd_bytes {
                return Err(SpdkError::TooLarge);
            }
            if i.free_slots.is_empty() || i.io_sq.is_full() {
                return Err(SpdkError::QueueFull);
            }
            let slot = i.free_slots.pop().expect("checked");
            let cid = i.next_cid;
            i.next_cid = i.next_cid.wrapping_add(1) % 4096;

            // Zero-copy: the application's data is already in the pinned
            // slab (functionally: copy it there now, costless like a
            // producer writing in place).
            let slab_base = i.slabs[slot].segments()[0].base;
            if let Some(d) = data {
                i.hostmem
                    .borrow_mut()
                    .store_mut()
                    .write_payload(slab_base, d);
            }

            // Build PRPs with a *stored* list page when needed.
            let pages = snacc_sim::ceil_div(len, 4096);
            let page_addrs: Vec<u64> = (0..pages).map(|p| slab_base + p * 4096).collect();
            let mut builder = PrpListBuilder::new(vec![i.list_pages[slot]]);
            let hm = i.hostmem.clone();
            let (prp1, prp2) = builder.build(&page_addrs, |a, bytes| {
                hm.borrow_mut().store_mut().write(a, bytes);
            });

            let opcode = match kind {
                IoKind::Read => IoOpcode::Read,
                IoKind::Write => IoOpcode::Write,
            };
            let mut sqe = Sqe::io(opcode, cid, addr / 512, (len / 512 - 1) as u16);
            sqe.prp1 = prp1;
            sqe.prp2 = prp2;
            let sq_addr = i.io_sq.tail_addr();
            i.hostmem
                .borrow_mut()
                .store_mut()
                .write(sq_addr, &sqe.encode());
            let tail = i.io_sq.advance_tail();

            // Submission costs CPU time; the doorbell rings when the CPU
            // work retires.
            let now = en.now();
            let cost = i.cfg.submit_overhead;
            let done = i.cpu.book(now, cost);
            i.inflight.insert(
                cid,
                Inflight {
                    kind,
                    bytes: len,
                    slot,
                    submitted: now,
                },
            );
            i.stats.submitted += 1;
            (cid, tail, done)
        };
        // Ring the doorbell once the CPU finished the submission work.
        let me = self.clone();
        en.schedule_at(submit_done, move |en| {
            me.reg_write32(en, spec::regs::sq_tail_doorbell(1), tail as u32);
        });
        Ok(cid)
    }

    /// Copy a completed read's data out of its (already recycled-safe)
    /// slab. Call from the completion hook.
    pub fn take_read_data(&self, cid_slot: usize, len: usize) -> Vec<u8> {
        let i = self.inner.borrow();
        let base = i.slabs[cid_slot].segments()[0].base;
        let out = i.hostmem.borrow_mut().store_mut().read_vec(base, len);
        out
    }

    /// Slot index of an inflight command (needed to read a slab before
    /// the hook returns).
    pub fn slot_of(&self, cid: u16) -> Option<usize> {
        self.inner.borrow().inflight.get(&cid).map(|f| f.slot)
    }

    /// Reap all newly visible completions (poll hit).
    fn reap(&self, en: &mut Engine) {
        if self.inner.borrow().reaping {
            return;
        }
        self.inner.borrow_mut().reaping = true;
        let mut callbacks: Vec<CompletionInfo> = Vec::new();
        let mut reaped = 0u32;
        loop {
            let mut i = self.inner.borrow_mut();
            let head_addr = i.io_cq.head_addr();
            let raw = {
                let cq = i.cq_mem.as_ref().expect("initialised").clone();
                let off = head_addr - i.cq_base;
                let mut m = cq.borrow_mut();
                m.mem_mut().read_vec(off, 16)
            };
            let Ok(cqe) = Cqe::decode(&raw) else {
                break;
            };
            if cqe.phase != i.io_cq.expected_phase() {
                break;
            }
            i.io_cq.consume();
            let entries = i.io_sq.entries();
            i.io_sq.update_head(cqe.sq_head % entries);
            reaped += 1;
            let now = en.now();
            let reap_cost = i.cfg.reap_overhead;
            let done = i.cpu.book(now, reap_cost);
            if let Some(fl) = i.inflight.remove(&cqe.cid) {
                // Out-of-order slot recycling: any completion frees its
                // slot immediately.
                i.free_slots.push(fl.slot);
                let ok = cqe.status == Status::Success;
                i.stats.completed += 1;
                if ok {
                    match fl.kind {
                        IoKind::Read => i.stats.read_bytes += fl.bytes,
                        IoKind::Write => i.stats.write_bytes += fl.bytes,
                    }
                } else {
                    i.stats.errors += 1;
                }
                callbacks.push(CompletionInfo {
                    cid: cqe.cid,
                    ok,
                    kind: fl.kind,
                    bytes: fl.bytes,
                    submitted: fl.submitted,
                    completed: done,
                });
            }
        }
        self.inner.borrow_mut().reaping = false;
        if reaped > 0 {
            // CQ head doorbell (posted MMIO).
            let head = self.inner.borrow().io_cq.head();
            self.reg_write32(en, spec::regs::cq_head_doorbell(1), head as u32);
        }
        // Invoke user callbacks with no inner borrow held.
        for info in callbacks {
            let hook = {
                let mut i = self.inner.borrow_mut();
                i.hook.take()
            };
            if let Some(mut h) = hook {
                h(en, info);
                let mut i = self.inner.borrow_mut();
                if i.hook.is_none() {
                    i.hook = Some(h);
                }
            }
        }
    }

    /// Stop the reactor (releases the core).
    pub fn shutdown(&self, en: &mut Engine) {
        self.inner.borrow_mut().cpu.release(en.now());
    }
}
