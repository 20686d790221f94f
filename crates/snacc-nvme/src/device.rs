//! The NVMe controller model.
//!
//! This is a *behavioural* controller: it exposes the spec register file
//! on BAR0, fetches real 64-byte SQEs out of queue memory over the PCIe
//! fabric (wherever that memory lives — host DRAM for SPDK, the streamer's
//! on-FPGA FIFO for SNAcc), resolves PRPs (fetching list pages over the
//! fabric, which is what drives SNAcc's on-the-fly PRP synthesis), moves
//! payload data with a credit-windowed fetch engine, accesses the NAND
//! backend, and writes back real 16-byte CQEs.
//!
//! The two fetch-credit pools (host vs peer-to-peer) model the controller
//! behaviour the paper inferred with an ILA: "the read accesses employed
//! by the NVMe controller to retrieve the data to be written do not occur
//! frequently enough to sustain a higher bandwidth" (Sec 5.2).
//!
//! Every command ends in `finish`: admin and I/O, success and error
//! alike schedule their CQE write through it.

use crate::nand::NandBackend;
use crate::profile::NvmeProfile;
use crate::prp::{walk_prps, PrpError, PrpSeg};
use crate::queue::CqWriter;
use crate::spec::{self, Cqe, IoOpcode, Sqe, Status, LBA_BYTES, NVME_PAGE, SQE_BYTES};
use snacc_mem::AddrRange;
use snacc_pcie::{MmioTarget, NodeId, PcieFabric, HOST_NODE};
use snacc_sim::{Engine, Payload, SimDuration, SimRng, SimTime};
use snacc_trace as trace;
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

/// BAR0 window size (register file + doorbells).
pub const BAR0_SIZE: u64 = 0x4000;

/// Latency of a BAR0 register access at the controller.
const REG_LATENCY: SimDuration = SimDuration::from_ns(80);
/// I/O queue pairs granted by Set Features (Number of Queues).
const MAX_IO_QUEUES: u32 = 16;
/// Maximum entries per queue (CAP.MQES + 1).
const MAX_QUEUE_ENTRIES: u64 = 1024;
/// SQEs the controller fetches per burst read.
const SQE_FETCH_BURST: u16 = 8;
/// Extra per-fetch issue delay while the program engine is in its slow
/// state (controller DMA shares resources with NAND folding).
const FETCH_STALL_LO: SimDuration = SimDuration::from_ns(80);
/// Fixed per-fetch issue overhead on peer-to-peer fetches (request
/// scheduling in the controller's P2P path — the paper's observed "read
/// accesses ... do not occur frequently enough").
const FETCH_OVERHEAD_P2P: SimDuration = SimDuration::from_ns(42);

/// Aggregate device statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NvmeStats {
    /// Completed admin commands.
    pub admin_cmds: u64,
    /// Completed read commands.
    pub read_cmds: u64,
    /// Completed write commands.
    pub write_cmds: u64,
    /// Bytes delivered by reads.
    pub read_bytes: u64,
    /// Bytes accepted by writes.
    pub write_bytes: u64,
    /// Commands completed with error status.
    pub errors: u64,
}

/// Deterministic I/O fault injection knobs (installed by a fault plan —
/// see the `snacc-faults` crate). All randomness comes from the seeded
/// [`SimRng`], drawn in event order, so same-seed runs inject identical
/// faults at identical simulated times.
#[derive(Clone, Debug)]
pub struct IoFaultConfig {
    /// Probability an I/O command completes immediately with
    /// [`IoFaultConfig::error_status`] instead of executing.
    pub error_rate: f64,
    /// Status injected command errors complete with (default:
    /// `DataTransferError`, the transient status retry policies act on).
    pub error_status: Status,
    /// Probability an I/O command is delayed by
    /// [`IoFaultConfig::latency_spike`] before executing.
    pub latency_spike_rate: f64,
    /// Extra latency added by a spike.
    pub latency_spike: SimDuration,
    /// Only inject inside this simulated-time window (`None` = always).
    pub window: Option<(SimTime, SimTime)>,
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
}

impl IoFaultConfig {
    /// A flaky-SSD preset: `rate` command errors, no latency spikes.
    pub fn error_only(rate: f64, seed: u64) -> Self {
        IoFaultConfig {
            error_rate: rate,
            error_status: Status::DataTransferError,
            latency_spike_rate: 0.0,
            latency_spike: SimDuration::from_us(0),
            window: None,
            seed,
        }
    }
}

/// Injected-fault tallies (the device's `faults.nvme.*` registry
/// counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoFaultStats {
    /// Commands forced to complete with the configured error status.
    pub errors: u64,
    /// Commands delayed by a latency spike.
    pub spikes: u64,
}

struct IoFaultState {
    cfg: IoFaultConfig,
    rng: SimRng,
    /// `faults.nvme.*` in the current metrics registry.
    errors: trace::CounterHandle,
    spikes: trace::CounterHandle,
}

impl IoFaultState {
    /// Draw what to inject into I/O command `cmd` now: nothing (`None`),
    /// a latency spike that delays it (`Some(Ok(spike))`), or an error
    /// status it completes with at once (`Some(Err(status))`). An
    /// injection is marked on the device's trace `track`.
    fn draw(&mut self, en: &Engine, track: &str, cmd: Cmd) -> Option<Result<SimDuration, Status>> {
        let now = en.now();
        if !self.cfg.window.is_none_or(|(a, b)| now >= a && now < b) {
            return None;
        }
        let cfg = &self.cfg;
        let (name, injected) = if cfg.error_rate > 0.0 && self.rng.gen_bool(cfg.error_rate) {
            self.errors.inc();
            ("fault.cmd_error", Err(cfg.error_status))
        } else if cfg.latency_spike_rate > 0.0 && self.rng.gen_bool(cfg.latency_spike_rate) {
            self.spikes.inc();
            ("fault.latency_spike", Ok(cfg.latency_spike))
        } else {
            return None;
        };
        if trace::enabled() {
            let args = [("qid", cmd.qid as u64), ("cid", cmd.cid as u64)];
            trace::instant(en, track, name, &args);
        }
        Some(injected)
    }
}

/// One fetch-credit pool: at most `window` data fetches in flight, each
/// issued `overhead` after it gets its credit.
struct FetchPool {
    window: usize,
    overhead: SimDuration,
    /// Completion times of the fetches in flight, oldest first.
    ring: VecDeque<SimTime>,
}

impl FetchPool {
    fn new(window: usize, overhead: SimDuration) -> Self {
        FetchPool {
            window,
            overhead,
            ring: VecDeque::new(),
        }
    }

    /// When a fetch ready at `t` issues: once the oldest fetches in
    /// flight have freed a credit, plus the pool's overhead.
    fn issue_at(&mut self, mut t: SimTime) -> SimTime {
        while self.ring.len() >= self.window {
            let freed = self.ring.pop_front().expect("non-empty ring");
            t = t.max(freed);
        }
        t + self.overhead
    }
}

struct QueuePair {
    sq_base: u64,
    sq_entries: u16,
    sq_head: u16,
    sq_tail: u16,
    cq_base: u64,
    cq_entries: u16,
    cq: CqWriter,
    /// CQEs written but not yet acknowledged via the CQ head doorbell.
    cq_outstanding: u16,
    /// Last CQ head value the consumer reported.
    cq_head_shadow: u16,
    /// Completions deferred because the CQ ring is full (consumer
    /// overrun protection — a real controller must not overwrite
    /// unacknowledged CQEs).
    pending_cqes: VecDeque<CqeOut>,
    pumping: bool,
}

/// The command a completion answers.
#[derive(Clone, Copy)]
struct Cmd {
    qid: u16,
    cid: u16,
    /// The command's SQE→CQE trace span; it closes when the CQE lands.
    span: trace::SpanId,
    /// The CQE's command-specific result dword.
    result: u32,
}

impl Cmd {
    fn new(qid: u16, sqe: &Sqe) -> Self {
        Cmd {
            qid,
            cid: sqe.cid,
            span: trace::SpanId::NONE,
            result: 0,
        }
    }
}

/// A completion in flight towards the CQ.
#[derive(Clone, Copy)]
struct CqeOut {
    cmd: Cmd,
    status: Status,
}

impl QueuePair {
    fn new(sq_base: u64, sq_entries: u16, cq_base: u64, cq_entries: u16) -> Self {
        QueuePair {
            sq_base,
            sq_entries,
            sq_head: 0,
            sq_tail: 0,
            cq_base,
            cq_entries,
            cq: CqWriter::new(cq_entries),
            cq_outstanding: 0,
            cq_head_shadow: 0,
            pending_cqes: VecDeque::new(),
            pumping: false,
        }
    }

    fn cq_full(&self) -> bool {
        self.cq_outstanding >= self.cq_entries
    }
}

/// The controller state. Use through [`NvmeDeviceHandle`].
pub struct NvmeDevice {
    node: NodeId,
    /// Trace track of the controller's spans and marks (`nvme.n<node>`).
    track: String,
    /// Back-edge to the fabric that owns this device (through its BAR0
    /// mapping).
    fabric: Weak<RefCell<PcieFabric>>,
    nand: NandBackend,
    /// Model string reported by Identify.
    model: &'static str,
    // Registers.
    cc: u32,
    csts: u32,
    aqa: u32,
    asq: u64,
    acq: u64,
    /// qid → queue pair; 0 is the admin queue.
    queues: BTreeMap<u16, QueuePair>,
    /// Pending CQ creations awaiting their SQ (qid → (base, entries)).
    pending_cqs: BTreeMap<u16, (u64, u16)>,
    /// Data-fetch credits towards host memory and towards peer devices.
    host_fetch: FetchPool,
    p2p_fetch: FetchPool,
    stats: NvmeStats,
    /// Optional fault injector (None = pristine device).
    faults: Option<IoFaultState>,
    /// Cached Identify pages (built once; the contents depend only on the
    /// profile and NAND capacity, both fixed after construction).
    ident_ctrl: OnceCell<Payload>,
    ident_ns: OnceCell<Payload>,
}

impl NvmeDevice {
    /// The fabric and this device's node on it, to issue transactions.
    fn port(&self) -> (Rc<RefCell<PcieFabric>>, NodeId) {
        let fabric = self
            .fabric
            .upgrade()
            .expect("nvme device -> fabric: the fabric was dropped");
        (fabric, self.node)
    }

    /// The credit pool a data fetch from host memory (`host`) or from a
    /// peer device draws on.
    fn fetch_pool(&mut self, host: bool) -> &mut FetchPool {
        if host {
            &mut self.host_fetch
        } else {
            &mut self.p2p_fetch
        }
    }

    /// Direct access to the storage backend (pre-population, verification).
    pub fn nand_mut(&mut self) -> &mut NandBackend {
        &mut self.nand
    }

    fn identify_controller(&self) -> Payload {
        self.ident_ctrl
            .get_or_init(|| {
                let mut d = vec![0u8; NVME_PAGE as usize];
                d[0..2].copy_from_slice(&0x144du16.to_le_bytes()); // VID (Samsung)
                let sn = b"SNACCSIM0001        ";
                d[4..4 + sn.len()].copy_from_slice(sn);
                let mn = self.model.as_bytes();
                let n = mn.len().min(40);
                d[24..24 + n].copy_from_slice(&mn[..n]);
                d[64..72].copy_from_slice(b"1.0     "); // FR
                d[77] = 0; // MDTS: unlimited (the streamer self-limits at 1 MiB)
                d[512] = 0x66; // SQES: 64 B
                d[513] = 0x44; // CQES: 16 B
                d[516..520].copy_from_slice(&1u32.to_le_bytes()); // NN = 1 namespace
                Payload::from_vec(d)
            })
            .clone()
    }

    fn identify_namespace(&self) -> Payload {
        self.ident_ns
            .get_or_init(|| {
                let mut d = vec![0u8; NVME_PAGE as usize];
                let nsze = crate::nand::CAPACITY_BYTES / LBA_BYTES;
                d[0..8].copy_from_slice(&nsze.to_le_bytes()); // NSZE
                d[8..16].copy_from_slice(&nsze.to_le_bytes()); // NCAP
                d[16..24].copy_from_slice(&nsze.to_le_bytes()); // NUSE
                d[26] = 0; // FLBAS: format 0
                           // LBAF0: LBADS = 9 (512 B blocks).
                let lbaf0: u32 = 9 << 16;
                d[128..132].copy_from_slice(&lbaf0.to_le_bytes());
                Payload::from_vec(d)
            })
            .clone()
    }
}

/// Shared handle to an attached NVMe device.
#[derive(Clone)]
pub struct NvmeDeviceHandle {
    inner: Rc<RefCell<NvmeDevice>>,
    bar0_base: u64,
    node: NodeId,
}

struct NvmeBar0 {
    dev: Rc<RefCell<NvmeDevice>>,
}

impl MmioTarget for NvmeBar0 {
    fn read(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let d = self.dev.borrow();
        let value: u64 = match offset {
            // MQES (15:0) = max entries - 1; TO (31:24); DSTRD (35:32)=0;
            // CSS bit 37 (NVM command set); MPSMIN 0 (4 KiB pages).
            spec::regs::CAP => (MAX_QUEUE_ENTRIES - 1) | (0x20 << 24) | (1 << 37),
            spec::regs::VS => 0x0001_0400, // 1.4
            spec::regs::CC => d.cc as u64,
            spec::regs::CSTS => d.csts as u64,
            spec::regs::AQA => d.aqa as u64,
            spec::regs::ASQ => d.asq,
            spec::regs::ACQ => d.acq,
            _ => 0,
        };
        let mut out = vec![0u8; len];
        let n = len.min(8);
        out[..n].copy_from_slice(&value.to_le_bytes()[..n]);
        (Payload::from_vec(out), REG_LATENCY)
    }

    fn write(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        let mut buf = [0u8; 8];
        let n = data.len().min(8);
        buf[..n].copy_from_slice(&data[..n]);
        let v64 = u64::from_le_bytes(buf);
        let v32 = v64 as u32;
        // Doorbell side effects are scheduled only after the device borrow
        // is released (SL006): the scheduled closures re-borrow `self.dev`.
        let mut pump_q: Option<u16> = None;
        let mut flush_q: Option<u16> = None;
        let mut d = self.dev.borrow_mut();
        match offset {
            spec::regs::CC => {
                let was_enabled = d.cc & spec::cc::EN != 0;
                d.cc = v32;
                if !was_enabled && v32 & spec::cc::EN != 0 {
                    // Controller enable: materialise the admin queue pair.
                    let asqs = (d.aqa & 0xFFF) as u16 + 1;
                    let acqs = ((d.aqa >> 16) & 0xFFF) as u16 + 1;
                    let qp = QueuePair::new(d.asq, asqs, d.acq, acqs);
                    d.queues.insert(0, qp);
                    d.csts |= spec::csts::RDY;
                } else if was_enabled && v32 & spec::cc::EN == 0 {
                    // Controller reset.
                    d.queues.clear();
                    d.pending_cqs.clear();
                    d.csts &= !spec::csts::RDY;
                }
            }
            spec::regs::AQA => d.aqa = v32,
            spec::regs::ASQ => d.asq = v64,
            spec::regs::ACQ => d.acq = v64,
            o if o >= spec::regs::DOORBELL_BASE => {
                let idx = (o - spec::regs::DOORBELL_BASE) / spec::regs::DOORBELL_STRIDE;
                let qid = (idx / 2) as u16;
                if idx.is_multiple_of(2) {
                    // SQ tail doorbell: takes effect when the posted write
                    // reaches the controller.
                    if let Some(q) = d.queues.get_mut(&qid) {
                        q.sq_tail = (v32 as u16) % q.sq_entries;
                        pump_q = Some(qid);
                    }
                } else {
                    // CQ head doorbell: consumer progress frees CQ slots;
                    // flush any deferred completions.
                    if let Some(q) = d.queues.get_mut(&qid) {
                        // The consumer reports its new head; everything up
                        // to it is acknowledged. It acks monotonically, so
                        // the delta follows from the reported value.
                        let new_head = (v32 as u16) % q.cq_entries;
                        let old = q.cq_head_shadow;
                        let delta = (new_head + q.cq_entries - old) % q.cq_entries;
                        q.cq_head_shadow = new_head;
                        q.cq_outstanding = q.cq_outstanding.saturating_sub(delta);
                        if !q.pending_cqes.is_empty() {
                            flush_q = Some(qid);
                        }
                    }
                }
            }
            _ => {}
        }
        drop(d);
        if let Some(qid) = pump_q {
            let rc = self.dev.clone();
            en.schedule_at(arrival.max(en.now()), move |en| pump_queue(rc, en, qid));
        }
        if let Some(qid) = flush_q {
            let rc = self.dev.clone();
            en.schedule_at(arrival.max(en.now()), move |en| {
                flush_pending_cqes(&rc, en, qid);
            });
        }
        REG_LATENCY
    }
}

impl NvmeDeviceHandle {
    /// Attach a new device to the fabric, mapping BAR0 at `bar0_base`.
    pub fn attach(
        fabric: Rc<RefCell<PcieFabric>>,
        bar0_base: u64,
        profile: NvmeProfile,
        seed: u64,
    ) -> Self {
        let node = fabric.borrow_mut().add_device("nvme-ssd", profile.link);
        let dev = Rc::new(RefCell::new(NvmeDevice {
            node,
            track: format!("nvme.n{}", node.0),
            fabric: Rc::downgrade(&fabric),
            nand: NandBackend::new(profile.nand, seed),
            model: profile.model,
            cc: 0,
            csts: 0,
            aqa: 0,
            asq: 0,
            acq: 0,
            queues: BTreeMap::new(),
            pending_cqs: BTreeMap::new(),
            host_fetch: FetchPool::new(profile.fetch_window_host, SimDuration::ZERO),
            p2p_fetch: FetchPool::new(profile.fetch_window_p2p, FETCH_OVERHEAD_P2P),
            stats: NvmeStats::default(),
            faults: None,
            ident_ctrl: OnceCell::new(),
            ident_ns: OnceCell::new(),
        }));
        let bar = Rc::new(RefCell::new(NvmeBar0 { dev: dev.clone() }));
        fabric
            .borrow_mut()
            .map_region(node, AddrRange::new(bar0_base, BAR0_SIZE), bar);
        NvmeDeviceHandle {
            inner: dev,
            bar0_base,
            node,
        }
    }

    /// The device's fabric node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// BAR0 base address on the fabric.
    pub fn bar0_base(&self) -> u64 {
        self.bar0_base
    }

    /// Fabric address of the SQ tail doorbell for `qid`.
    pub fn sq_doorbell_addr(&self, qid: u16) -> u64 {
        self.bar0_base + spec::regs::sq_tail_doorbell(qid)
    }

    /// Fabric address of the CQ head doorbell for `qid`.
    pub fn cq_doorbell_addr(&self, qid: u16) -> u64 {
        self.bar0_base + spec::regs::cq_head_doorbell(qid)
    }

    /// A non-owning reference to the device state (to check that a
    /// dropped system released it).
    pub fn downgrade(&self) -> Weak<RefCell<NvmeDevice>> {
        Rc::downgrade(&self.inner)
    }

    /// Run a closure over the device state.
    pub fn with<R>(&self, f: impl FnOnce(&mut NvmeDevice) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NvmeStats {
        self.inner.borrow().stats
    }

    /// Install (or replace) the I/O fault injector. The injector forks a
    /// private RNG stream from `cfg.seed`; nothing else in the model
    /// consumes it, so enabling faults perturbs only faulted commands.
    pub fn install_faults(&self, cfg: IoFaultConfig) {
        let rng = SimRng::new(cfg.seed);
        self.inner.borrow_mut().faults = Some(IoFaultState {
            cfg,
            rng,
            errors: trace::metric_counter("faults.nvme.cmd_errors"),
            spikes: trace::metric_counter("faults.nvme.latency_spikes"),
        });
    }

    /// Tallies of injected faults (zeros when no injector is installed).
    pub fn fault_stats(&self) -> IoFaultStats {
        self.inner
            .borrow()
            .faults
            .as_ref()
            .map(|f| IoFaultStats {
                errors: f.errors.get(),
                spikes: f.spikes.get(),
            })
            .unwrap_or_default()
    }
}

/// Fetch a burst of SQEs and dispatch them; reschedules itself while
/// entries remain.
fn pump_queue(rc: Rc<RefCell<NvmeDevice>>, en: &mut Engine, qid: u16) {
    let (fabric, node, addr, count) = {
        let mut d = rc.borrow_mut();
        let Some(q) = d.queues.get_mut(&qid) else {
            return;
        };
        if q.pumping || q.sq_head == q.sq_tail {
            return;
        }
        q.pumping = true;
        let avail = (q.sq_tail + q.sq_entries - q.sq_head) % q.sq_entries;
        let till_wrap = q.sq_entries - q.sq_head;
        let count = avail.min(till_wrap).min(SQE_FETCH_BURST);
        let addr = q.sq_base + q.sq_head as u64 * SQE_BYTES;
        q.sq_head = (q.sq_head + count) % q.sq_entries;
        let (fabric, node) = d.port();
        (fabric, node, addr, count)
    };
    let now = en.now();
    let fetched = fabric
        .borrow_mut()
        .read(en, now, node, addr, count as u64 * SQE_BYTES);
    let Ok((buf, t)) = fetched else {
        // SQ memory unreachable: controller would assert CFS; we just
        // stop pumping this queue.
        if let Some(q) = rc.borrow_mut().queues.get_mut(&qid) {
            q.pumping = false;
        }
        return;
    };
    // Decode now rather than in the event: a fetched window held until
    // the commands run would pin the SQ ring's buffer and defeat the
    // host's in-place SQE writes. Chunks are exactly 64 bytes, so decode
    // cannot fail; a malformed fetch is dropped, never a panic.
    let sqes: Vec<Sqe> = buf
        .chunks(SQE_BYTES as usize)
        .filter_map(|b| Sqe::decode(b).ok())
        .collect();
    en.schedule_at(t, move |en| {
        for sqe in sqes {
            if qid == 0 {
                exec_admin(&rc, en, sqe);
            } else {
                exec_io(&rc, en, qid, sqe);
            }
        }
        if let Some(q) = rc.borrow_mut().queues.get_mut(&qid) {
            q.pumping = false;
        }
        pump_queue(rc, en, qid);
    });
}

/// Complete `cmd` with `status` no earlier than `at`: the one way every
/// command ends. The CQE write is an event at `at`, so completions book
/// the wire in true time order — a command that finishes earlier gets its
/// CQE out earlier, regardless of submission order.
fn finish(rc: &Rc<RefCell<NvmeDevice>>, en: &mut Engine, cmd: Cmd, at: SimTime, status: Status) {
    let out = CqeOut { cmd, status };
    let rc2 = rc.clone();
    en.schedule_at(at.max(en.now()), move |en| complete_now(&rc2, en, out));
}

/// Perform the CQE write at the current time, deferring when the CQ ring
/// has no acknowledged space.
fn complete_now(rc: &Rc<RefCell<NvmeDevice>>, en: &mut Engine, out: CqeOut) {
    let (fabric, node, addr, cqe) = {
        let mut d = rc.borrow_mut();
        let Some(q) = d.queues.get_mut(&out.cmd.qid) else {
            return;
        };
        if q.cq_full() {
            q.pending_cqes.push_back(out);
            return;
        }
        q.cq_outstanding += 1;
        let (slot, phase) = q.cq.next_slot();
        debug_assert!(slot < q.cq_entries);
        let cqe = Cqe {
            result: out.cmd.result,
            sq_head: q.sq_head,
            sq_id: out.cmd.qid,
            cid: out.cmd.cid,
            phase,
            status: out.status,
        };
        let addr = q.cq_base + slot as u64 * spec::CQE_BYTES;
        if out.status != Status::Success {
            d.stats.errors += 1;
        }
        let (fabric, node) = d.port();
        (fabric, node, addr, cqe)
    };
    let now = en.now();
    // Completion writes are small posted writes; failure here means the CQ
    // was unmapped (a fatal host bug) — drop it, consumers will time out.
    let arrival = fabric
        .borrow_mut()
        .write(en, now, node, addr, Payload::from(cqe.encode()));
    if let Ok(arrival) = arrival {
        // The command's SQE→CQE span closes when the CQE lands.
        trace::end_at(arrival, out.cmd.span);
        // Pin the event clock to the completion so `Engine::run` covers the
        // full command lifetime even when nobody is hooked on the CQ.
        en.schedule_at(arrival, |_| {});
    }
}

/// Write deferred completions now that the consumer freed CQ slots.
fn flush_pending_cqes(rc: &Rc<RefCell<NvmeDevice>>, en: &mut Engine, qid: u16) {
    loop {
        let next = {
            let mut d = rc.borrow_mut();
            let Some(q) = d.queues.get_mut(&qid) else {
                return;
            };
            if q.cq_full() {
                return;
            }
            q.pending_cqes.pop_front()
        };
        let Some(out) = next else {
            return;
        };
        complete_now(rc, en, out);
    }
}

fn exec_admin(rc: &Rc<RefCell<NvmeDevice>>, en: &mut Engine, sqe: Sqe) {
    use crate::spec::AdminOpcode as A;
    let mut cmd = Cmd::new(0, &sqe);
    if trace::enabled() {
        let args = [("cid", sqe.cid as u64), ("opc", sqe.opcode as u64)];
        cmd.span = trace::begin(en, &rc.borrow().track, "nvme.admin", &args);
    }
    let mut status = Status::Success;
    // Admin processing time, unless the command moves data.
    let mut t_done = en.now() + SimDuration::from_us(1);
    // Queue commands name their queue and its size (0's based) in CDW10.
    let qid = (sqe.cdw[0] & 0xFFFF) as u16;
    let entries = ((sqe.cdw[0] >> 16) as u16).wrapping_add(1);

    if sqe.opcode == A::Identify as u8 {
        let data = match sqe.cdw[0] & 0xFF {
            0x01 => Some(rc.borrow().identify_controller()),
            0x00 => Some(rc.borrow().identify_namespace()),
            _ => None,
        };
        if let Some(data) = data {
            let (fabric, node) = rc.borrow().port();
            let now = en.now();
            let w = fabric.borrow_mut().write(en, now, node, sqe.prp1, data);
            match w {
                Ok(t) => t_done = t,
                Err(_) => status = Status::DataTransferError,
            }
        } else {
            status = Status::InvalidField;
        }
    } else if sqe.opcode == A::CreateIoCq as u8 {
        if qid == 0 || entries < 2 || sqe.prp1 == 0 {
            status = Status::InvalidField;
        } else {
            rc.borrow_mut().pending_cqs.insert(qid, (sqe.prp1, entries));
        }
    } else if sqe.opcode == A::CreateIoSq as u8 {
        let cqid = ((sqe.cdw[1] >> 16) & 0xFFFF) as u16;
        let mut d = rc.borrow_mut();
        match d.pending_cqs.get(&cqid).copied() {
            Some((cq_base, cq_entries)) if qid != 0 && entries >= 2 && sqe.prp1 != 0 => {
                let qp = QueuePair::new(sqe.prp1, entries, cq_base, cq_entries);
                d.queues.insert(qid, qp);
            }
            _ => status = Status::InvalidField,
        }
    } else if sqe.opcode == A::DeleteIoSq as u8 {
        rc.borrow_mut().queues.remove(&qid);
    } else if sqe.opcode == A::DeleteIoCq as u8 {
        rc.borrow_mut().pending_cqs.remove(&qid);
    } else if sqe.opcode == A::SetFeatures as u8 || sqe.opcode == A::GetFeatures as u8 {
        if sqe.cdw[0] & 0xFF == 0x07 {
            // Number of queues: grant what the controller supports.
            let n = MAX_IO_QUEUES - 1;
            cmd.result = n | (n << 16);
        }
    } else {
        status = Status::InvalidOpcode;
    }

    rc.borrow_mut().stats.admin_cmds += 1;
    finish(rc, en, cmd, t_done, status);
}

/// Resolve a command's PRPs, fetching list pages over the fabric.
/// Returns `(segments, time PRP resolution finished)` or an error status.
fn resolve_prps(
    fabric: &RefCell<PcieFabric>,
    node: NodeId,
    en: &mut Engine,
    sqe: &Sqe,
    byte_len: u64,
) -> Result<(Vec<PrpSeg>, SimTime), Status> {
    let mut t_prp = en.now();
    let walk = walk_prps(sqe.prp1, sqe.prp2, byte_len, |list_addr| {
        let now = en.now();
        match fabric
            .borrow_mut()
            .read(en, now, node, list_addr, NVME_PAGE)
        {
            Ok((p, t)) => {
                t_prp = t_prp.max(t);
                Ok(p)
            }
            // Abort the walk at the failed fetch — parsing the stale
            // page would issue further bogus reads.
            Err(_) => Err(PrpError::FetchFailed(list_addr)),
        }
    });
    match walk {
        Ok(segs) => Ok((segs, t_prp)),
        // Transport failure is transient (retryable); a malformed PRP
        // chain is a host bug and stays fatal.
        Err(PrpError::FetchFailed(_)) => Err(Status::DataTransferError),
        Err(_) => Err(Status::InvalidField),
    }
}

/// I/O dispatch with the fault injector in front: a seeded draw decides
/// whether this command errors out immediately, is delayed by a latency
/// spike, or proceeds untouched into [`exec_io_inner`].
fn exec_io(rc: &Rc<RefCell<NvmeDevice>>, en: &mut Engine, qid: u16, sqe: Sqe) {
    let cmd = Cmd::new(qid, &sqe);
    // Flushes and malformed opcodes are never faulted — only real I/O.
    let is_io = IoOpcode::from_u8(sqe.opcode).is_some_and(|o| o != IoOpcode::Flush);
    let injected = {
        let mut guard = rc.borrow_mut();
        let d = &mut *guard;
        match &mut d.faults {
            Some(f) if is_io => f.draw(en, &d.track, cmd),
            _ => None,
        }
    };
    match injected {
        None => exec_io_inner(rc, en, cmd, sqe),
        // A rejected command still takes a controller turnaround.
        Some(Err(status)) => finish(rc, en, cmd, en.now() + SimDuration::from_us(1), status),
        Some(Ok(spike)) => {
            let rc2 = rc.clone();
            en.schedule_in(spike, move |en| exec_io_inner(&rc2, en, cmd, sqe));
        }
    }
}

fn exec_io_inner(rc: &Rc<RefCell<NvmeDevice>>, en: &mut Engine, mut cmd: Cmd, sqe: Sqe) {
    let now = en.now();
    let Some(op) = IoOpcode::from_u8(sqe.opcode) else {
        return finish(rc, en, cmd, now, Status::InvalidOpcode);
    };

    // SQE→CQE lifetime span: opens when execution starts, closes in
    // `complete_now` when the CQE write lands.
    if trace::enabled() {
        let name = match op {
            IoOpcode::Read => "nvme.read",
            IoOpcode::Write => "nvme.write",
            IoOpcode::Flush => "nvme.flush",
        };
        let args = [
            ("qid", cmd.qid as u64),
            ("cid", cmd.cid as u64),
            ("slba", sqe.slba()),
            ("len", sqe.byte_len()),
        ];
        cmd.span = trace::begin(en, &rc.borrow().track, name, &args);
    }

    if op == IoOpcode::Flush {
        let t = rc.borrow_mut().nand.flush(now);
        return finish(rc, en, cmd, t, Status::Success);
    }

    let byte_addr = sqe.slba() * LBA_BYTES;
    let byte_len = sqe.byte_len();
    let in_bounds = rc.borrow().nand.in_bounds(byte_addr, byte_len);
    if !in_bounds {
        return finish(rc, en, cmd, now, Status::LbaOutOfRange);
    }

    let (fabric, node) = rc.borrow().port();
    let (segs, t_prp) = match resolve_prps(&fabric, node, en, &sqe, byte_len) {
        Ok(x) => x,
        Err(status) => return finish(rc, en, cmd, now, status),
    };

    // PRP list pages were fetched over the fabric (SNAcc's on-the-fly
    // PRP synthesis feeds exactly these fetches) — worth its own span.
    if trace::enabled() && t_prp > now {
        let args = [("segs", segs.len() as u64)];
        trace::span_between(&rc.borrow().track, "nvme.prp_fetch", now, t_prp, &args);
    }

    if op == IoOpcode::Read {
        // Media first; delivery is scheduled at media-ready time so
        // that commands book the return link in *completion* order —
        // this is what lets fast commands overtake slow ones and
        // produces genuinely out-of-order CQEs. The media hands back a
        // zero-copy payload view; lazy fill/pattern segments are never
        // materialised on this path.
        let (data, t_media) = rc
            .borrow_mut()
            .nand
            .read_payload(t_prp, byte_addr, byte_len);
        if trace::enabled() {
            let args = [("bytes", byte_len)];
            trace::span_between(&rc.borrow().track, "nand.read", t_prp, t_media, &args);
        }
        let rc2 = rc.clone();
        en.schedule_at(t_media.max(en.now()), move |en| {
            // Aggregate controller read-out cap, booked in completion
            // order (we are at the command's media-ready event).
            let (t_ready, spread) = {
                let mut d = rc2.borrow_mut();
                let spread = d.nand.config().channel_bandwidth.time_for(byte_len);
                (d.nand.book_readout(en.now(), byte_len), spread)
            };
            // Posted data writes overlap the read-out: segment k is
            // issued when read-out makes it available. Commands book
            // in t_media event order and the read-out serialisation
            // keeps their windows disjoint, so wire bookings stay
            // time-ordered across commands. Spreading (rather than
            // batching at read-out end) keeps target-memory
            // arbitration smooth — critical for the on-board-DRAM
            // variant where the PE drain shares the DDR4 bus.
            let readout_start = t_ready - spread;
            let now = en.now();
            let mut t = t_ready;
            let mut off = 0usize;
            let mut status = Status::Success;
            let n_segs = segs.len() as u64;
            for (k, seg) in segs.iter().enumerate() {
                let chunk = data.slice(off..off + seg.len as usize);
                let issue = readout_start + spread * (k as u64 + 1) / n_segs.max(1);
                let r = fabric
                    .borrow_mut()
                    .write(en, issue.max(now), node, seg.addr, chunk);
                match r {
                    Ok(done) => t = t.max(done),
                    Err(_) => {
                        status = Status::DataTransferError;
                        break;
                    }
                }
                off += seg.len as usize;
            }
            if status == Status::Success {
                let mut d = rc2.borrow_mut();
                d.stats.read_cmds += 1;
                d.stats.read_bytes += byte_len;
            }
            finish(&rc2, en, cmd, t, status);
        });
    } else {
        // Credit-windowed data fetch, then cache admission. Fetched
        // segments stay zero-copy payload windows end-to-end: the
        // fabric hands back views of the source buffer's segment
        // store and the media retains them as-is.
        let mut parts: Vec<Payload> = Vec::with_capacity(segs.len());
        let mut t_issue = t_prp;
        let mut t_data = t_prp;
        for seg in &segs {
            // Which credit pool does this segment draw from?
            let host = fabric.borrow().owner_of(seg.addr) == Some(HOST_NODE);
            {
                let mut d = rc.borrow_mut();
                let in_lo = d.nand.in_lo_state();
                t_issue = d.fetch_pool(host).issue_at(t_issue);
                if in_lo {
                    t_issue += FETCH_STALL_LO;
                }
            }
            let r = fabric
                .borrow_mut()
                .read(en, t_issue.max(en.now()), node, seg.addr, seg.len);
            let Ok((chunk, done)) = r else {
                return finish(rc, en, cmd, t_data, Status::DataTransferError);
            };
            parts.push(chunk);
            t_data = t_data.max(done);
            rc.borrow_mut().fetch_pool(host).ring.push_back(done);
        }
        // Cache admission happens when the data has arrived; the CQE
        // is posted at admission time (volatile write cache). Both are
        // event-scheduled so completion writes book the link in true
        // time order across commands.
        let random_hint = byte_len <= 16384;
        let rc2 = rc.clone();
        en.schedule_at(t_data.max(en.now()), move |en| {
            let t_admit = {
                let mut d = rc2.borrow_mut();
                d.stats.write_cmds += 1;
                d.stats.write_bytes += byte_len;
                d.nand.write_parts(en.now(), byte_addr, parts, random_hint)
            };
            if trace::enabled() {
                let args = [("bytes", byte_len)];
                let track = &rc2.borrow().track;
                trace::span_between(track, "nand.write", en.now(), t_admit, &args);
            }
            finish(&rc2, en, cmd, t_admit, Status::Success);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::{AdminError, AdminQueue};
    use crate::queue::{CqRing, SqRing};
    use crate::spec::AdminOpcode;
    use snacc_mem::HostMemory;

    /// A controller driven through the shared admin queue, with raw
    /// register pokes for the I/O queues and busy-waits by draining the
    /// engine.
    struct TestRig {
        en: Engine,
        fabric: Rc<RefCell<PcieFabric>>,
        hostmem: Rc<RefCell<HostMemory>>,
        dev: NvmeDeviceHandle,
        admin: AdminQueue,
    }

    const BAR0: u64 = 0x8_0000_0000;

    impl TestRig {
        fn new() -> Self {
            let mut fabric = PcieFabric::new();
            let hostmem = Rc::new(RefCell::new(HostMemory::default()));
            // Map 8 GiB of host physical address space at 0 (the admin
            // queue sits in the pinned pool at 4 GiB).
            fabric.map_region(HOST_NODE, AddrRange::new(0, 8 << 30), hostmem.clone());
            let fabric = Rc::new(RefCell::new(fabric));
            let dev =
                NvmeDeviceHandle::attach(fabric.clone(), BAR0, NvmeProfile::samsung_990pro(), 7);
            let admin = AdminQueue::new(&mut hostmem.borrow_mut(), BAR0);
            TestRig {
                en: Engine::new(),
                fabric,
                hostmem,
                dev,
                admin,
            }
        }

        fn reg_write32(&mut self, off: u64, v: u32) {
            self.fabric
                .borrow_mut()
                .write_u32(&mut self.en, HOST_NODE, BAR0 + off, v)
                .unwrap();
        }

        fn enable(&mut self) {
            self.admin.enable(&mut self.en, &self.fabric);
            assert!(self.dev.with(|d| d.csts & spec::csts::RDY != 0));
        }

        fn submit_admin(&mut self, sqe: Sqe) -> Result<Cqe, AdminError> {
            self.admin
                .run(&mut self.en, &self.fabric, &self.hostmem, sqe)
        }

        fn create_io_queues(&mut self, qid: u16, sq: u64, cq: u64, entries: u16) {
            let (sq, cq) = (SqRing::new(sq, entries), CqRing::new(cq, entries));
            self.admin
                .create_io_queue_pair(&mut self.en, &self.fabric, &self.hostmem, qid, &sq, &cq)
                .expect("I/O queue pair created");
        }

        /// Post `sqe` in slot `tail - 1` of the I/O SQ at 0x30_0000 and
        /// ring qid 1's doorbell with `tail`.
        fn submit_io(&mut self, sqe: &Sqe, tail: u32) {
            self.hostmem
                .borrow_mut()
                .store_mut()
                .write(0x30_0000 + (tail as u64 - 1) * 64, &sqe.encode());
            self.reg_write32(spec::regs::sq_tail_doorbell(1), tail);
        }

        /// The CQE in slot `slot` of the I/O CQ at 0x31_0000.
        fn io_cqe(&self, slot: u64) -> Cqe {
            let at = 0x31_0000 + slot * 16;
            let raw = self.hostmem.borrow_mut().store_mut().read_vec(at, 16);
            Cqe::decode(&raw).expect("CQE decodes")
        }
    }

    #[test]
    fn controller_enable_sets_ready() {
        let mut r = TestRig::new();
        r.enable();
    }

    #[test]
    fn identify_controller_returns_data() {
        let mut r = TestRig::new();
        r.enable();
        let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
        s.prp1 = 0x20_0000;
        s.cdw[0] = 0x01;
        let cqe = r.submit_admin(s).expect("identify");
        assert_eq!(cqe.status, Status::Success);
        // The admin queue numbers commands by SQ slot.
        assert_eq!(cqe.cid, 0);
        assert!(cqe.phase);
        let data = r.hostmem.borrow_mut().store_mut().read_vec(0x20_0000, 64);
        assert_eq!(&data[0..2], &0x144du16.to_le_bytes());
        assert!(std::str::from_utf8(&data[24..44])
            .unwrap()
            .contains("990 PRO"));
    }

    #[test]
    fn identify_namespace_capacity() {
        let mut r = TestRig::new();
        r.enable();
        let mut s = Sqe::new(AdminOpcode::Identify as u8, 0);
        s.prp1 = 0x21_0000;
        s.cdw[0] = 0x00;
        assert_eq!(r.submit_admin(s).map(|c| c.status), Ok(Status::Success));
        let d = r.hostmem.borrow_mut().store_mut().read_vec(0x21_0000, 8);
        let nsze = u64::from_le_bytes(d.try_into().unwrap());
        assert_eq!(nsze, 2_000_000_000_000 / 512);
    }

    #[test]
    fn invalid_admin_opcode_errors() {
        let mut r = TestRig::new();
        r.enable();
        let s = Sqe::new(0x7f, 0);
        let err = r.submit_admin(s).unwrap_err();
        assert_eq!(err, AdminError::Failed(Status::InvalidOpcode));
        assert_eq!(r.dev.stats().errors, 1);
    }

    #[test]
    fn io_write_read_roundtrip() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);

        // Write 8 KiB at LBA 1000 from a host buffer.
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7) as u8).collect();
        r.hostmem
            .borrow_mut()
            .store_mut()
            .write(0x40_0000, &payload);
        let mut w = Sqe::io(IoOpcode::Write, 1, 1000, 15); // 16 blocks
        w.prp1 = 0x40_0000;
        w.prp2 = 0x40_1000;
        r.submit_io(&w, 1);
        r.en.run();
        let cqe = r.io_cqe(0);
        assert_eq!(cqe.status, Status::Success);
        assert_eq!(cqe.sq_id, 1);

        // Read it back into a different buffer.
        let mut rd = Sqe::io(IoOpcode::Read, 2, 1000, 15);
        rd.prp1 = 0x50_0000;
        rd.prp2 = 0x50_1000;
        r.submit_io(&rd, 2);
        r.en.run();
        let cqe2 = r.io_cqe(1);
        assert_eq!(cqe2.status, Status::Success);
        let got = r.hostmem.borrow_mut().store_mut().read_vec(0x50_0000, 8192);
        assert_eq!(got, payload);
        let st = r.dev.stats();
        assert_eq!(st.read_cmds, 1);
        assert_eq!(st.write_cmds, 1);
        assert_eq!(st.read_bytes, 8192);
    }

    #[test]
    fn lba_out_of_range_rejected() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        let cap_lbas = 2_000_000_000_000 / 512;
        let mut w = Sqe::io(IoOpcode::Write, 5, cap_lbas, 0);
        w.prp1 = 0x40_0000;
        r.submit_io(&w, 1);
        r.en.run();
        let cqe = r.io_cqe(0);
        assert_eq!(cqe.status, Status::LbaOutOfRange);
    }

    #[test]
    fn flush_completes() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        let f = Sqe::io(IoOpcode::Flush, 7, 0, 0);
        r.submit_io(&f, 1);
        r.en.run();
        let cqe = r.io_cqe(0);
        assert_eq!(cqe.status, Status::Success);
    }

    #[test]
    fn write_latency_under_9us() {
        // Fig 4c shape: a single 4 KiB write completes in < 9 µs.
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        let start = r.en.now();
        let mut w = Sqe::io(IoOpcode::Write, 1, 0, 7); // 4 KiB
        w.prp1 = 0x40_0000;
        r.submit_io(&w, 1);
        let end = r.en.run();
        let us = end.since(start).as_us_f64();
        assert!(us < 9.0, "4 KiB write took {us} µs");
    }

    #[test]
    fn cold_read_latency_in_tlc_band() {
        // Never-written LBAs read at cold TLC latency (~51–60 µs).
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        let start = r.en.now();
        let mut rd = Sqe::io(IoOpcode::Read, 1, 5000, 7);
        rd.prp1 = 0x40_0000;
        r.submit_io(&rd, 1);
        let end = r.en.run();
        let us = end.since(start).as_us_f64();
        assert!(us > 50.0 && us < 65.0, "cold 4 KiB read took {us} µs");
    }

    #[test]
    fn warm_read_latency_in_pslc_band() {
        // Freshly written LBAs read at warm pSLC latency (~27–36 µs).
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        r.dev.with(|d| {
            let buf = Payload::from_vec(vec![7u8; 4096]);
            d.nand_mut()
                .write_parts(SimTime::ZERO, 5000 * 512, vec![buf], true);
        });
        let start = r.en.now();
        let mut rd = Sqe::io(IoOpcode::Read, 1, 5000, 7);
        rd.prp1 = 0x40_0000;
        r.submit_io(&rd, 1);
        let end = r.en.run();
        let us = end.since(start).as_us_f64();
        assert!(us > 26.0 && us < 42.0, "warm 4 KiB read took {us} µs");
    }

    #[test]
    fn controller_reset_clears_queues() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        r.reg_write32(spec::regs::CC, 0);
        r.en.run();
        assert!(!r.dev.with(|d| d.csts & spec::csts::RDY != 0));
        assert!(r.dev.with(|d| d.queues.is_empty()));
    }

    /// A page-aligned fabric address nothing is mapped at (between host
    /// memory and BAR0).
    const UNMAPPED: u64 = 0x4_0000_0000;

    #[test]
    fn invalid_io_opcode_completes_with_invalid_opcode() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        r.submit_io(&Sqe::new(0x7f, 9), 1);
        r.en.run();
        let cqe = r.io_cqe(0);
        assert_eq!((cqe.cid, cqe.status), (9, Status::InvalidOpcode));
        assert_eq!(r.dev.stats().errors, 1);
    }

    #[test]
    fn unmapped_prp_list_page_is_a_transfer_error() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        // 16 KiB spans four pages, so PRP2 points at a list page.
        let mut w = Sqe::io(IoOpcode::Write, 3, 0, 31);
        w.prp1 = 0x40_0000;
        w.prp2 = UNMAPPED;
        r.submit_io(&w, 1);
        r.en.run();
        assert_eq!(r.io_cqe(0).status, Status::DataTransferError);
        assert_eq!(r.dev.stats().write_cmds, 0);
    }

    #[test]
    fn read_into_unmapped_page_is_a_transfer_error() {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        let mut rd = Sqe::io(IoOpcode::Read, 4, 5000, 7);
        rd.prp1 = UNMAPPED;
        r.submit_io(&rd, 1);
        r.en.run();
        assert_eq!(r.io_cqe(0).status, Status::DataTransferError);
        let st = r.dev.stats();
        assert_eq!((st.read_cmds, st.read_bytes, st.errors), (0, 0, 1));
    }

    #[test]
    fn full_cq_defers_completions_until_the_head_doorbell() {
        let mut r = TestRig::new();
        r.enable();
        // Eight SQ slots over a four-slot CQ.
        let (sq, cq) = (SqRing::new(0x30_0000, 8), CqRing::new(0x31_0000, 4));
        r.admin
            .create_io_queue_pair(&mut r.en, &r.fabric, &r.hostmem, 1, &sq, &cq)
            .expect("I/O queue pair created");
        for cid in 1..=6u16 {
            let f = Sqe::io(IoOpcode::Flush, cid, 0, 0);
            let at = 0x30_0000 + (cid as u64 - 1) * 64;
            r.hostmem.borrow_mut().store_mut().write(at, &f.encode());
        }
        r.reg_write32(spec::regs::sq_tail_doorbell(1), 6);
        r.en.run();
        let slots = |r: &TestRig| -> Vec<(u16, bool)> {
            (0..4)
                .map(|s| r.io_cqe(s))
                .map(|c| (c.cid, c.phase))
                .collect()
        };
        // Nothing acknowledged: CIDs 5 and 6 wait for CQ space.
        assert_eq!(slots(&r), [(1, true), (2, true), (3, true), (4, true)]);
        // The consumer frees two slots; the deferred CQEs land there in
        // order, with the phase bit of the ring's second pass.
        r.reg_write32(spec::regs::cq_head_doorbell(1), 2);
        r.en.run();
        assert_eq!(slots(&r), [(5, false), (6, false), (3, true), (4, true)]);
    }

    /// Run one 4 KiB write on a fresh controller, with `faults` installed
    /// if given; returns its CQE and the time the run ends (the CQE
    /// write's arrival).
    fn lone_write(faults: Option<IoFaultConfig>) -> (Cqe, SimTime) {
        let mut r = TestRig::new();
        r.enable();
        r.create_io_queues(1, 0x30_0000, 0x31_0000, 64);
        if let Some(cfg) = faults {
            r.dev.install_faults(cfg);
        }
        let mut w = Sqe::io(IoOpcode::Write, 1, 0, 7);
        w.prp1 = 0x40_0000;
        r.submit_io(&w, 1);
        let end = r.en.run();
        (r.io_cqe(0), end)
    }

    #[test]
    fn fatal_injected_error_completes_with_lba_out_of_range() {
        let cfg = IoFaultConfig {
            error_status: Status::LbaOutOfRange,
            ..IoFaultConfig::error_only(1.0, 3)
        };
        let (cqe, _) = lone_write(Some(cfg));
        assert_eq!(cqe.status, Status::LbaOutOfRange);
    }

    #[test]
    fn latency_spike_delays_a_lone_cqe_by_the_spike() {
        let spike = SimDuration::from_us(50);
        let cfg = IoFaultConfig {
            latency_spike_rate: 1.0,
            latency_spike: spike,
            ..IoFaultConfig::error_only(0.0, 3)
        };
        let (clean, clean_end) = lone_write(None);
        let (spiked, spiked_end) = lone_write(Some(cfg));
        assert_eq!(clean.status, Status::Success);
        assert_eq!(spiked.status, Status::Success);
        assert_eq!(spiked_end, clean_end + spike);
    }
}
