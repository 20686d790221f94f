//! The NVMe Streamer IP (paper Sec 4.1–4.4, Fig 1).
//!
//! User PEs see four AXI4-Stream interfaces:
//!
//! * **read command** (①a): one 16-byte beat = `(nvme byte address, length)`;
//! * **read data** (⑥a): the data, TLAST on the final beat of the request;
//! * **write** (①b): an 8-byte address beat followed by data beats, length
//!   implied by TLAST;
//! * **write response** (⑥b): one 8-byte token (bytes written) per
//!   completed write transfer.
//!
//! Internally the streamer splits requests at 1 MB (Sec 4.2), allocates
//! contiguous 4 KiB-aligned buffer regions, writes real SQEs into its SQ
//! FIFO (a BAR window the SSD fetches from, ②), synthesises PRP lists
//! on-the-fly when the controller reads them (③, Sec 4.4), lets the SSD
//! move payload data directly to/from the buffer memory (④), receives
//! CQEs into its reorder buffer (⑤), and retires commands in order,
//! streaming read data to the PE and recycling buffer space (⑥).

use crate::config::{
    StreamerConfig, StreamerVariant, CMD_ISSUE_LATENCY, COMPLETION_LATENCY, MAX_CMD_BYTES,
    QUEUE_DEPTH, STREAM_CHUNK,
};
use crate::prpgen::{PrpMapping, PrpRegFile, RegFilePrpWindow, UramPrpWindow};
use crate::ring::{Region, RingAllocator};
use crate::rob::CommandRob;
use snacc_fpga::axis::{self, AxisChannel, StreamBeat};
use snacc_fpga::tapasco::TapascoShell;
use snacc_mem::hostmem::PinnedBuffer;
use snacc_mem::{AddrRange, UramModel, URAM_BYTES};
use snacc_nvme::queue::{CqRing, SqRing};
use snacc_nvme::spec::{self, Cqe, IoOpcode, Sqe};
use snacc_pcie::target::{MmioTarget, ScratchTarget};
use snacc_pcie::{NodeId, PcieFabric};
use snacc_sim::bytes::Payload;
use snacc_sim::{Engine, SimDuration, SimTime};
use snacc_trace::{self as trace, CounterHandle, HistogramHandle};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

const PAGE: u64 = 4096;
const LBA: u64 = 512;

/// The four user-side AXI4-Stream interfaces (Sec 4.1).
#[derive(Clone)]
pub struct UserPorts {
    /// ①a — read commands: 16-byte beats `(address: u64, length: u64)` LE.
    pub rd_cmd: Rc<RefCell<AxisChannel>>,
    /// ⑥a — read data, TLAST per completed read request.
    pub rd_data: Rc<RefCell<AxisChannel>>,
    /// ①b — write stream: 8-byte address beat, then data, TLAST ends.
    pub wr_in: Rc<RefCell<AxisChannel>>,
    /// ⑥b — write responses: 8-byte token (bytes written).
    pub wr_resp: Rc<RefCell<AxisChannel>>,
}

/// Encode a read command beat.
pub fn encode_read_cmd(addr: u64, len: u64) -> StreamBeat {
    let mut d = Vec::with_capacity(16);
    d.extend_from_slice(&addr.to_le_bytes());
    d.extend_from_slice(&len.to_le_bytes());
    StreamBeat::last(d)
}

/// Which buffer pool a command draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BufKind {
    Read,
    Write,
}

/// One buffer pool's memory (Sec 4.3).
#[derive(Clone)]
enum Buffer {
    /// FPGA-local memory (URAM, or an on-board DRAM window): the target
    /// the fabric maps at device address `base`.
    Local {
        mem: Rc<RefCell<dyn MmioTarget>>,
        base: u64,
    },
    /// Pinned host DRAM, reached over the fabric; `None` until the host
    /// driver installs it (Sec 4.6).
    Host(Option<PinnedBuffer>),
}

impl Buffer {
    /// Device-visible address of buffer offset `offset`.
    fn dev_addr(&self, offset: u64) -> u64 {
        match self {
            Buffer::Local { base, .. } => base + offset,
            Buffer::Host(pinned) => pinned_of(pinned).phys_addr(offset),
        }
    }
}

/// The installed pinned host buffer.
fn pinned_of(pinned: &Option<PinnedBuffer>) -> &PinnedBuffer {
    pinned.as_ref().expect("host buffers installed")
}

/// One NVMe command, from the split that queues it to its retirement:
/// the pending queue and the ROB hold the same record, and a replay
/// rebuilds its SQE from it (the buffer region, and a write's data, are
/// untouched by a failed attempt).
#[derive(Clone, Copy, Debug)]
struct Cmd {
    kind: BufKind,
    /// NVMe byte address.
    nvme_addr: u64,
    /// Command bytes: the user's for a read, LBA-padded for a write.
    len: u64,
    /// Buffer region (a read allocates its own at issue).
    region: Region,
    /// Open trace span (inert when tracing is off).
    span: trace::SpanId,
    /// First-issue time, for the retirement-latency histogram.
    issued_at: SimTime,
    /// Completed retry attempts (0 = the first issue is in flight).
    attempts: u32,
    /// A read segment that ends the user transfer (emit TLAST).
    last_of_xfer: bool,
    /// A write segment's transfer.
    xfer_id: u64,
}

impl Cmd {
    fn new(kind: BufKind, nvme_addr: u64, len: u64) -> Self {
        Cmd {
            kind,
            nvme_addr,
            len,
            region: Region { offset: 0, len: 0 },
            span: trace::SpanId::NONE,
            issued_at: SimTime::ZERO,
            attempts: 0,
            last_of_xfer: false,
            xfer_id: 0,
        }
    }
}

/// Write-stream accumulation state.
struct WriteAccum {
    next_addr: u64,
    region: Option<(Region, u64)>,
    xfer_id: u64,
    carry: Option<StreamBeat>,
}

/// State of an in-progress read-data stream-out. Buffer reads are
/// pipelined (a hardware streamer prefetches ahead of the AXIS output),
/// so several chunks can be in flight while beats are pushed in order.
struct ReadStream {
    cmd: Cmd,
    /// The command completed successfully; a given-up read streams zeros.
    ok: bool,
    /// Bytes whose buffer reads have been issued.
    issued: u64,
    /// Bytes delivered to the PE.
    delivered: u64,
    waiting_space: bool,
    /// Outstanding buffer reads.
    inflight: u32,
}

/// Stream-out prefetch depth.
const STREAM_PREFETCH: u32 = 4;

/// Per-write-transfer bookkeeping for response tokens.
struct XferState {
    id: u64,
    outstanding_segments: u64,
    sealed: bool,
    bytes: u64,
}

/// Streamer telemetry, backed by the metrics registry under the scope
/// `streamer.n<node>.*`. Handles are cheap `Rc` clones shared with the
/// registry, so values read here (`handle.get()`) are live, and the same
/// numbers appear in `--metrics-json` snapshots.
#[derive(Clone)]
pub struct StreamerMetrics {
    /// NVMe commands issued.
    pub cmds_issued: CounterHandle,
    /// Read commands issued.
    pub read_cmds: CounterHandle,
    /// Write commands issued.
    pub write_cmds: CounterHandle,
    /// Payload bytes streamed to the PE.
    pub bytes_to_pe: CounterHandle,
    /// Payload bytes accepted from the PE.
    pub bytes_from_pe: CounterHandle,
    /// Commands completed with error status.
    pub errors: CounterHandle,
    /// Doorbell writes issued over PCIe.
    pub doorbells: CounterHandle,
    /// Write-response tokens emitted.
    pub responses: CounterHandle,
    /// process_cq invocations (diagnostic).
    pub cq_events: CounterHandle,
    /// CQEs consumed (diagnostic).
    pub cqes_consumed: CounterHandle,
    /// Per-command issue→retire latency in microseconds.
    pub cmd_latency_us: HistogramHandle,
    /// Retries scheduled for transiently failed commands.
    pub retries: CounterHandle,
    /// Commands that completed successfully after at least one retry.
    pub recovered: CounterHandle,
    /// Commands abandoned with an error status (fatal status, retries
    /// exhausted, or retries disabled) — the reported-loss counter.
    pub gave_up: CounterHandle,
    /// Command timeouts detected (only when `RetryPolicy::cmd_timeout`
    /// is configured).
    pub timeouts: CounterHandle,
    /// First-issue → successful-completion latency (µs) of commands that
    /// needed at least one retry.
    pub retry_latency_us: HistogramHandle,
}

impl StreamerMetrics {
    fn new(scope: &str) -> Self {
        let c = |leaf: &str| trace::metric_counter(&format!("{scope}.{leaf}"));
        StreamerMetrics {
            cmds_issued: c("cmds_issued"),
            read_cmds: c("read_cmds"),
            write_cmds: c("write_cmds"),
            bytes_to_pe: c("bytes_to_pe"),
            bytes_from_pe: c("bytes_from_pe"),
            errors: c("errors"),
            doorbells: c("doorbells"),
            responses: c("responses"),
            cq_events: c("cq_events"),
            cqes_consumed: c("cqes_consumed"),
            cmd_latency_us: trace::metric_histogram(&format!("{scope}.cmd_latency_us")),
            retries: c("retries"),
            recovered: c("recovered"),
            gave_up: c("gave_up"),
            timeouts: c("timeouts"),
            retry_latency_us: trace::metric_histogram(&format!("{scope}.retry_latency_us")),
        }
    }
}

/// Device-visible window addresses of an instantiated streamer.
#[derive(Clone, Copy, Debug)]
pub struct WindowMap {
    /// Control register window.
    pub ctrl: AddrRange,
    /// SQ FIFO window (the SSD fetches SQEs here).
    pub sq: AddrRange,
    /// CQ window (the SSD writes CQEs here).
    pub cq: AddrRange,
    /// Data window for reads (a 1-byte placeholder for the host variant).
    pub rd_data: AddrRange,
    /// Data window for writes (URAM: same as `rd_data`).
    pub wr_data: AddrRange,
    /// PRP synthesis window.
    pub prp: AddrRange,
}

/// The streamer state. Use through [`StreamerHandle`].
pub struct NvmeStreamer {
    cfg: StreamerConfig,
    /// Back-edge to the fabric that maps the streamer's windows.
    fabric: Weak<RefCell<PcieFabric>>,
    node: NodeId,
    ports: UserPorts,
    /// Read and write buffer memory (URAM: one pool, both the same).
    rd_buf: Buffer,
    wr_buf: Buffer,
    rd_ring: RingAllocator,
    wr_ring: Option<RingAllocator>,
    rob: CommandRob<Cmd>,
    sq: SqRing,
    sq_mem: Rc<RefCell<ScratchTarget>>,
    cq_mem: Rc<RefCell<ScratchTarget>>,
    cq_ring: CqRing,
    regfile: Option<Rc<RefCell<PrpRegFile>>>,
    windows: WindowMap,
    /// SSD SQ-tail doorbell address (programmed by the host driver).
    ssd_sq_doorbell: u64,
    /// SSD CQ-head doorbell address.
    ssd_cq_doorbell: u64,
    enabled: bool,
    pending: VecDeque<Cmd>,
    /// Replayed commands whose re-issue found the SQ full; drained when
    /// completions free slots.
    retry_q: VecDeque<u16>,
    accum: Option<WriteAccum>,
    next_xfer_id: u64,
    /// Open write transfers in id order: opened at the back, closed from
    /// the front, so the ids are consecutive.
    xfers: VecDeque<XferState>,
    active_stream: Option<ReadStream>,
    issuing: bool,
    wr_busy: bool,
    cq_busy: bool,
    metrics: StreamerMetrics,
    /// Trace track name (`streamer.n<node>`), shared with the metrics scope.
    track: String,
}

/// Shared handle to an instantiated streamer.
#[derive(Clone)]
pub struct StreamerHandle {
    inner: Rc<RefCell<NvmeStreamer>>,
}

impl StreamerHandle {
    /// Instantiate the streamer inside a TaPaSCo shell: allocates BAR
    /// windows, maps the SQ/CQ/PRP/data targets, creates the user-side
    /// channels and arms all pumps. The host driver must still configure
    /// doorbell addresses and (for the host-DRAM variant) install pinned
    /// buffers, then enable the IP.
    pub fn instantiate(shell: &mut TapascoShell, cfg: StreamerConfig) -> Self {
        let fabric = shell.fabric();
        let node = shell.node();

        let ctrl_w = shell.alloc_window(4096).expect("ctrl window");
        let sq_w = shell
            .alloc_window(cfg.sq_entries() as u64 * spec::SQE_BYTES)
            .expect("sq window");
        let cq_w = shell
            .alloc_window(cfg.sq_entries() as u64 * spec::CQE_BYTES)
            .expect("cq window");

        // Buffer windows (and URAM's PRP window), per variant.
        let (rd_buf, wr_buf, data_ws, uram_prp_w) = match cfg.variant {
            StreamerVariant::Uram => {
                // 8 MB window: 4 MB data + 4 MB PRP upper half (Fig 2).
                let win = shell.alloc_window(2 * URAM_BYTES).expect("uram window");
                let data_w = AddrRange::new(win.base, URAM_BYTES);
                let prp_w = AddrRange::new(win.base + URAM_BYTES, URAM_BYTES);
                let mem: Rc<RefCell<dyn MmioTarget>> =
                    Rc::new(RefCell::new(UramModel::new("snacc-uram")));
                shell.map_target(data_w, mem.clone());
                shell.map_target(
                    prp_w,
                    Rc::new(RefCell::new(UramPrpWindow::new(data_w.base))),
                );
                let buf = Buffer::Local {
                    mem,
                    base: data_w.base,
                };
                (buf.clone(), buf, Some((data_w, data_w)), Some(prp_w))
            }
            StreamerVariant::OnboardDram => {
                // Two 64 MB DRAM windows need the second BAR (Sec 4.5).
                let bar2_base = shell.bar0().base + (1 << 30);
                shell.add_second_bar(bar2_base, 256 << 20);
                if shell.dram().is_none() {
                    shell.attach_dram();
                }
                let (rd_w, rd_mem) = shell.map_dram_window(0, 64 << 20).expect("rd window");
                let (wr_w, wr_mem) = shell
                    .map_dram_window(64 << 20, 64 << 20)
                    .expect("wr window");
                (
                    Buffer::Local {
                        mem: rd_mem,
                        base: rd_w.base,
                    },
                    Buffer::Local {
                        mem: wr_mem,
                        base: wr_w.base,
                    },
                    Some((rd_w, wr_w)),
                    None,
                )
            }
            StreamerVariant::HostDram => (Buffer::Host(None), Buffer::Host(None), None, None),
        };
        // The DRAM variants synthesise PRP lists from a per-cid register
        // file (Sec 4.4).
        let (prp_w, regfile) = match uram_prp_w {
            Some(w) => (w, None),
            None => {
                let w = shell
                    .alloc_window(cfg.sq_entries() as u64 * PAGE)
                    .expect("prp window");
                let rf = PrpRegFile::new(cfg.sq_entries() as usize);
                shell.map_target(w, Rc::new(RefCell::new(RegFilePrpWindow::new(rf.clone()))));
                (w, Some(rf))
            }
        };
        // Host buffers live in host memory; placeholder data windows.
        let placeholder = AddrRange::new(prp_w.base, 1);
        let (rd_data_w, wr_data_w) = data_ws.unwrap_or((placeholder, placeholder));

        let sq_mem = Rc::new(RefCell::new(ScratchTarget::new(
            "snacc-sq-fifo",
            snacc_sim::SimDuration::from_ns(60),
        )));
        shell.map_target(sq_w, sq_mem.clone());
        let cq_mem = Rc::new(RefCell::new(ScratchTarget::new(
            "snacc-cq-rob",
            snacc_sim::SimDuration::from_ns(60),
        )));
        shell.map_target(cq_w, cq_mem.clone());

        let windows = WindowMap {
            ctrl: ctrl_w,
            sq: sq_w,
            cq: cq_w,
            rd_data: rd_data_w,
            wr_data: wr_data_w,
            prp: prp_w,
        };

        let ports = UserPorts {
            rd_cmd: AxisChannel::new("snacc.rd_cmd", 4096),
            rd_data: AxisChannel::new("snacc.rd_data", 4 * STREAM_CHUNK),
            wr_in: AxisChannel::new("snacc.wr_in", 4 * STREAM_CHUNK),
            wr_resp: AxisChannel::new("snacc.wr_resp", 4096),
        };

        let wr_ring =
            (cfg.write_buffer_bytes() > 0).then(|| RingAllocator::new(cfg.write_buffer_bytes()));
        let scope = format!("streamer.n{}", node.0);
        let metrics = StreamerMetrics::new(&scope);
        let streamer = Rc::new(RefCell::new(NvmeStreamer {
            rd_ring: RingAllocator::new(cfg.read_buffer_bytes()),
            wr_ring,
            rob: CommandRob::new(QUEUE_DEPTH, cfg.retirement),
            sq: SqRing::new(sq_w.base, cfg.sq_entries()),
            cq_ring: CqRing::new(cq_w.base, cfg.sq_entries()),
            sq_mem,
            cq_mem: cq_mem.clone(),
            regfile,
            windows,
            ssd_sq_doorbell: 0,
            ssd_cq_doorbell: 0,
            enabled: false,
            pending: VecDeque::new(),
            retry_q: VecDeque::new(),
            accum: None,
            next_xfer_id: 0,
            xfers: VecDeque::new(),
            active_stream: None,
            issuing: false,
            wr_busy: false,
            cq_busy: false,
            metrics,
            track: scope,
            cfg,
            fabric: Rc::downgrade(&fabric),
            node,
            ports: ports.clone(),
            rd_buf,
            wr_buf,
        }));

        // Every hook below sits on an object the streamer owns (or the
        // fabric owns), so it reaches back through a `Weak`.
        let me = Rc::downgrade(&streamer);
        // CQ write hook → completion processing (⑤).
        {
            let me = me.clone();
            cq_mem
                .borrow_mut()
                .set_hook(Box::new(move |en, _off, _data, arrival| {
                    let rc = upgrade(&me, "CQ window hook");
                    let t = arrival.max(en.now()) + COMPLETION_LATENCY;
                    en.schedule_at(t, move |en| process_cq(&rc, en));
                }));
        }
        // Control window: the host driver programs doorbell addresses and
        // the enable bit over MMIO (Sec 4.6).
        {
            let ctrl = Rc::new(RefCell::new(ScratchTarget::new(
                "snacc-ctrl",
                snacc_sim::SimDuration::from_ns(50),
            )));
            let me = me.clone();
            ctrl.borrow_mut()
                .set_hook(Box::new(move |en, off, data, _arr| {
                    let mut v = [0u8; 8];
                    let n = data.len().min(8);
                    v[..n].copy_from_slice(&data[..n]);
                    let rc = upgrade(&me, "control window hook");
                    ctrl_write(&rc, en, off, u64::from_le_bytes(v));
                }));
            shell.map_target(ctrl_w, ctrl);
        }
        // User-side hooks.
        {
            let m = me.clone();
            ports
                .rd_cmd
                .borrow_mut()
                .set_data_hook(move |en| accept_read_cmds(&upgrade(&m, "rd_cmd hook"), en));
            let m = me.clone();
            ports
                .wr_in
                .borrow_mut()
                .set_data_hook(move |en| pump_write_in(&upgrade(&m, "wr_in hook"), en));
            let m = me.clone();
            ports
                .rd_data
                .borrow_mut()
                .set_space_hook(move |en| resume_stream_out(&upgrade(&m, "rd_data hook"), en));
            ports
                .wr_resp
                .borrow_mut()
                .set_space_hook(move |en| finish_xfers(&upgrade(&me, "wr_resp hook"), en));
        }
        StreamerHandle { inner: streamer }
    }

    /// The user-side stream interfaces.
    pub fn ports(&self) -> UserPorts {
        self.inner.borrow().ports.clone()
    }

    /// Device-visible window map.
    pub fn windows(&self) -> WindowMap {
        self.inner.borrow().windows
    }

    /// The configured variant.
    pub fn variant(&self) -> StreamerVariant {
        self.inner.borrow().cfg.variant
    }

    /// Submission-queue ring entries (also the CQ depth).
    pub fn sq_entries(&self) -> u16 {
        self.inner.borrow().cfg.sq_entries()
    }

    /// Telemetry handles (live registry-backed counters — read with
    /// `handle.get()`).
    pub fn metrics(&self) -> StreamerMetrics {
        self.inner.borrow().metrics.clone()
    }

    /// Install the pinned host buffers (host-DRAM variant; the TaPaSCo
    /// kernel driver allocates them and programs the segment table,
    /// Sec 4.3/4.6).
    pub fn install_host_buffers(&self, rd: PinnedBuffer, wr: PinnedBuffer) {
        let mut s = self.inner.borrow_mut();
        assert!(
            matches!(s.rd_buf, Buffer::Host(_)),
            "install_host_buffers on a non-host variant"
        );
        s.rd_buf = Buffer::Host(Some(rd));
        s.wr_buf = Buffer::Host(Some(wr));
    }
}

impl NvmeStreamer {
    /// Control-register offset: enable/start.
    pub const CTRL_ENABLE: u64 = 0x00;
    /// Control-register offset: SSD SQ-tail doorbell address.
    pub const CTRL_SQ_DB: u64 = 0x08;
    /// Control-register offset: SSD CQ-head doorbell address.
    pub const CTRL_CQ_DB: u64 = 0x10;

    fn fabric(&self) -> Rc<RefCell<PcieFabric>> {
        self.fabric
            .upgrade()
            .expect("streamer -> fabric: the fabric was dropped")
    }

    fn buf(&self, kind: BufKind) -> &Buffer {
        match kind {
            BufKind::Read => &self.rd_buf,
            BufKind::Write => &self.wr_buf,
        }
    }

    /// The open write transfer `id`: ids in `xfers` are consecutive, so
    /// its index is its distance from the front.
    fn xfer_mut(&mut self, id: u64) -> &mut XferState {
        let first = self.xfers.front().expect("xfer tracked").id;
        let x = &mut self.xfers[(id - first) as usize];
        debug_assert_eq!(x.id, id);
        x
    }

    fn ring_mut(&mut self, kind: BufKind) -> &mut RingAllocator {
        match kind {
            BufKind::Read => &mut self.rd_ring,
            BufKind::Write => self.wr_ring.as_mut().unwrap_or(&mut self.rd_ring),
        }
    }

    /// ② Build `cmd`'s SQE under `cid`, set up its PRPs per variant
    /// (Sec 4.4), write it into the SQ FIFO slot and advance the tail.
    /// The caller must have checked `!self.sq.is_full()` and rings the
    /// doorbell with the returned tail.
    fn push_sqe(&mut self, en: &Engine, cid: u16, cmd: &Cmd) -> u16 {
        let op = match cmd.kind {
            BufKind::Read => IoOpcode::Read,
            BufKind::Write => IoOpcode::Write,
        };
        let mut sqe = Sqe::io(op, cid, cmd.nvme_addr / LBA, (cmd.len / LBA - 1) as u16);
        let (buf, offset) = (self.buf(cmd.kind), cmd.region.offset);
        let pages = snacc_sim::ceil_div(cmd.len, PAGE);
        sqe.prp1 = buf.dev_addr(offset);
        if pages == 2 {
            sqe.prp2 = buf.dev_addr(offset + PAGE);
        } else if pages > 2 {
            sqe.prp2 = match &self.regfile {
                None => UramPrpWindow::prp2_for(self.windows.prp.base, offset),
                Some(rf) => {
                    let mapping = match buf {
                        Buffer::Local { base, .. } => PrpMapping::Contig {
                            second_page: base + offset + PAGE,
                        },
                        Buffer::Host(pinned) => PrpMapping::Segmented {
                            pinned: pinned_of(pinned).clone(),
                            second_page_index: offset / PAGE + 1,
                        },
                    };
                    rf.borrow_mut().set(cid, mapping);
                    let slots = self.cfg.sq_entries() as usize;
                    RegFilePrpWindow::prp2_for(self.windows.prp.base, cid, slots)
                }
            };
        }
        // Write the SQE into the SQ FIFO (local IP memory).
        let slot_addr = self.sq.tail_addr() - self.windows.sq.base;
        self.sq_mem
            .borrow_mut()
            .mem_mut()
            .write(slot_addr, &sqe.encode());
        if pages > 2 && trace::enabled() {
            trace::instant(
                en,
                &self.track,
                "prp.setup",
                &[("cid", u64::from(cid)), ("pages", pages)],
            );
        }
        self.sq.advance_tail()
    }

    /// ⑥ Retire the ROB head: clear its PRP register-file entry, end its
    /// span, record its latency and free its buffer region.
    fn retire_head(&mut self, en: &Engine) -> Cmd {
        let (cid, _ok, cmd) = self.rob.retire_front();
        if let Some(rf) = &self.regfile {
            rf.borrow_mut().clear(cid);
        }
        trace::end(en, cmd.span);
        self.metrics
            .cmd_latency_us
            .record(en.now().since(cmd.issued_at).as_us_f64());
        self.ring_mut(cmd.kind).free_oldest(cmd.region);
        cmd
    }
}

/// Follow a hook's back-edge to the streamer; `edge` names the hook.
fn upgrade(me: &Weak<RefCell<NvmeStreamer>>, edge: &str) -> Rc<RefCell<NvmeStreamer>> {
    me.upgrade()
        .unwrap_or_else(|| panic!("streamer {edge} -> streamer: the streamer was dropped"))
}

/// Handle a control-register write (`value` already extracted from the
/// write data). Runs inside the fabric borrow — anything that re-enters
/// the fabric is deferred.
fn ctrl_write(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine, off: u64, value: u64) {
    match off {
        NvmeStreamer::CTRL_SQ_DB => {
            rc.borrow_mut().ssd_sq_doorbell = value;
        }
        NvmeStreamer::CTRL_CQ_DB => {
            rc.borrow_mut().ssd_cq_doorbell = value;
        }
        NvmeStreamer::CTRL_ENABLE => {
            rc.borrow_mut().enabled = value & 1 != 0;
            if value & 1 != 0 {
                let rc2 = rc.clone();
                en.schedule_now(move |en| {
                    accept_read_cmds(&rc2, en);
                    pump_write_in(&rc2, en);
                    try_issue(&rc2, en);
                });
            }
        }
        _ => {}
    }
}

/// The `kind` buffer plus the fabric path to it, taken out of the
/// streamer borrow.
fn buf_access(
    rc: &Rc<RefCell<NvmeStreamer>>,
    kind: BufKind,
) -> (Buffer, Rc<RefCell<PcieFabric>>, NodeId) {
    let s = rc.borrow();
    (s.buf(kind).clone(), s.fabric(), s.node)
}

/// Timed + functional buffer write (local datapath or host DMA) starting
/// now; returns when it is done. The backing store retains the payload
/// window zero-copy.
fn buf_write(
    rc: &Rc<RefCell<NvmeStreamer>>,
    en: &mut Engine,
    kind: BufKind,
    offset: u64,
    data: Payload,
) -> SimTime {
    let start = en.now();
    match buf_access(rc, kind) {
        (Buffer::Local { mem, .. }, _, _) => {
            start + mem.borrow_mut().write(en, start, offset, data)
        }
        (Buffer::Host(pinned), fabric, node) => {
            let mut t = start;
            for (phys, off, n) in pinned_of(&pinned).pieces(offset, data.len()) {
                t = fabric
                    .borrow_mut()
                    .write(en, t.max(en.now()), node, phys, data.slice(off..off + n))
                    .expect("host buffer reachable");
            }
            t
        }
    }
}

/// Timed + functional buffer read starting now: returns the buffered
/// bytes as a zero-copy payload view plus the completion time.
fn buf_read(
    rc: &Rc<RefCell<NvmeStreamer>>,
    en: &mut Engine,
    kind: BufKind,
    offset: u64,
    len: usize,
) -> (Payload, SimTime) {
    let start = en.now();
    match buf_access(rc, kind) {
        (Buffer::Local { mem, .. }, _, _) => {
            let (data, service) = mem.borrow_mut().read(en, start, offset, len);
            (data, start + service)
        }
        (Buffer::Host(pinned), fabric, node) => {
            let mut t = start;
            let mut parts: Vec<Payload> = Vec::new();
            for (phys, _, n) in pinned_of(&pinned).pieces(offset, len) {
                let (chunk, done) = fabric
                    .borrow_mut()
                    .read(en, t.max(en.now()), node, phys, n as u64)
                    .expect("host buffer reachable");
                parts.push(chunk);
                t = done;
            }
            (Payload::concat(&parts), t)
        }
    }
}

/// ①a — accept and split user read commands.
fn accept_read_cmds(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    loop {
        if !rc.borrow().enabled {
            return;
        }
        let ch = rc.borrow().ports.rd_cmd.clone();
        let Some(beat) = axis::pop(&ch, en) else {
            return;
        };
        assert!(beat.len() >= 16, "read command beat must be 16 bytes");
        let addr = u64::from_le_bytes(beat.data[0..8].try_into().unwrap());
        let len = u64::from_le_bytes(beat.data[8..16].try_into().unwrap());
        assert!(len > 0, "zero-length read");
        assert!(
            addr % LBA == 0 && len % LBA == 0,
            "reads must be LBA-aligned"
        );
        // Split at the 1 MB boundary (Sec 4.2).
        let mut s = rc.borrow_mut();
        let mut off = 0;
        while off < len {
            let n = MAX_CMD_BYTES.min(len - off);
            s.pending.push_back(Cmd {
                last_of_xfer: off + n == len,
                ..Cmd::new(BufKind::Read, addr + off, n)
            });
            off += n;
        }
        drop(s);
        try_issue(rc, en);
    }
}

/// ①b — accumulate the write stream into buffer memory; issue at 1 MB
/// boundaries and on TLAST.
fn pump_write_in(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    {
        let s = rc.borrow();
        if !s.enabled || s.wr_busy {
            return;
        }
    }
    // Take the next unit of work: a carried partial beat, or a fresh one.
    let beat = {
        let mut s = rc.borrow_mut();
        if let Some(acc) = &mut s.accum {
            acc.carry.take()
        } else {
            None
        }
    };
    let beat = match beat {
        Some(b) => b,
        None => {
            let ch = rc.borrow().ports.wr_in.clone();
            match axis::pop(&ch, en) {
                Some(b) => b,
                None => return,
            }
        }
    };

    // Header beat?
    {
        let mut s = rc.borrow_mut();
        if s.accum.is_none() {
            assert!(beat.len() >= 8, "write header beat must carry the address");
            let addr = u64::from_le_bytes(beat.data[0..8].try_into().unwrap());
            assert!(addr % LBA == 0, "write address must be LBA-aligned");
            let xfer_id = s.next_xfer_id;
            s.next_xfer_id += 1;
            s.xfers.push_back(XferState {
                id: xfer_id,
                outstanding_segments: 0,
                sealed: false,
                bytes: 0,
            });
            s.accum = Some(WriteAccum {
                next_addr: addr,
                region: None,
                xfer_id,
                carry: None,
            });
            if beat.last {
                // Empty write: respond immediately.
                let xid = xfer_id;
                s.accum = None;
                s.xfer_mut(xid).sealed = true;
                drop(s);
                finish_xfers(rc, en);
                pump_write_in(rc, en);
                return;
            }
            drop(s);
            pump_write_in(rc, en);
            return;
        }
    }

    // Data beat: ensure a region exists.
    let need_alloc = rc.borrow().accum.as_ref().unwrap().region.is_none();
    if need_alloc {
        let mut s = rc.borrow_mut();
        let region = s.ring_mut(BufKind::Write).alloc(MAX_CMD_BYTES);
        match region {
            Some(r) => {
                s.accum.as_mut().unwrap().region = Some((r, 0));
            }
            None => {
                // Buffer full: stash the beat; retirement will re-pump.
                s.accum.as_mut().unwrap().carry = Some(beat);
                return;
            }
        }
    }

    // How much of this beat fits in the current segment?
    let (region, filled) = {
        let s = rc.borrow();
        let acc = s.accum.as_ref().unwrap();
        let (r, f) = acc.region.unwrap();
        (r, f)
    };
    let space = region.len - filled;
    let take = (beat.len() as u64).min(space) as usize;
    let (chunk, leftover) = if take < beat.len() {
        let (head, tail) = beat.data.split_at(take);
        let rest = StreamBeat {
            data: tail,
            last: beat.last,
        };
        (head, Some(rest))
    } else {
        (beat.data, None)
    };
    let chunk_is_final = leftover.is_none() && beat.last;

    rc.borrow_mut().wr_busy = true;
    let chunk_len = chunk.len() as u64;
    let t_done = buf_write(rc, en, BufKind::Write, region.offset + filled, chunk);
    let rc2 = rc.clone();
    en.schedule_at(t_done.max(en.now()), move |en| {
        let mut issue_needed = false;
        {
            let mut s = rc2.borrow_mut();
            s.wr_busy = false;
            s.metrics.bytes_from_pe.add(chunk_len);
            let acc = s.accum.as_mut().unwrap();
            let (r, f) = acc.region.unwrap();
            let new_fill = f + chunk_len;
            acc.region = Some((r, new_fill));
            acc.carry = leftover;
            let seal = chunk_is_final || new_fill == r.len;
            if seal {
                let acc = s.accum.as_mut().unwrap();
                let nvme_addr = acc.next_addr;
                acc.next_addr += new_fill;
                let xfer_id = acc.xfer_id;
                acc.region = None;
                let final_now = chunk_is_final;
                // Shrink the 1 MB reservation to the actual fill.
                let padded = new_fill.div_ceil(PAGE) * PAGE;
                let shrunk = if padded < r.len {
                    s.ring_mut(BufKind::Write).shrink_last(r, padded)
                } else {
                    r
                };
                // Pad the command length to whole LBAs.
                let cmd_len = new_fill.div_ceil(LBA) * LBA;
                let x = s.xfer_mut(xfer_id);
                x.outstanding_segments += 1;
                x.bytes += new_fill;
                s.pending.push_back(Cmd {
                    region: shrunk,
                    xfer_id,
                    ..Cmd::new(BufKind::Write, nvme_addr, cmd_len)
                });
                if final_now {
                    s.xfer_mut(xfer_id).sealed = true;
                    s.accum = None;
                }
                issue_needed = true;
            }
        }
        if issue_needed {
            try_issue(&rc2, en);
        }
        pump_write_in(&rc2, en);
    });
}

/// ② — admit the next pending command: it needs a ROB slot, an SQ slot
/// and (for a read) a buffer region. One command per issue-pipeline slot.
fn try_issue(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    let cid = {
        let mut s = rc.borrow_mut();
        if !s.enabled || s.issuing || s.ssd_sq_doorbell == 0 {
            return;
        }
        let Some(&(mut cmd)) = s.pending.front() else {
            return;
        };
        if !s.rob.can_issue() || s.sq.is_full() {
            return;
        }
        // Reads allocate their buffer region at issue time.
        if cmd.kind == BufKind::Read {
            let Some(region) = s.rd_ring.alloc(cmd.len.div_ceil(PAGE) * PAGE) else {
                return;
            };
            cmd.region = region;
        }
        s.pending.pop_front();
        cmd.issued_at = en.now();
        if trace::enabled() {
            let name = match cmd.kind {
                BufKind::Read => "cmd.read",
                BufKind::Write => "cmd.write",
            };
            let args = [("nvme_addr", cmd.nvme_addr), ("len", cmd.len)];
            cmd.span = trace::begin(en, &s.track, name, &args);
        }
        s.metrics.cmds_issued.inc();
        match cmd.kind {
            BufKind::Read => s.metrics.read_cmds.inc(),
            BufKind::Write => s.metrics.write_cmds.inc(),
        }
        s.issuing = true;
        s.rob.issue(cmd)
    };
    submit(rc, en, cid);
    // Issue pipeline: next command after the issue latency.
    let rc2 = rc.clone();
    en.schedule_in(CMD_ISSUE_LATENCY, move |en| {
        rc2.borrow_mut().issuing = false;
        try_issue(&rc2, en);
    });
}

/// ② — submit ROB command `cid`, first issue and replay alike: write its
/// SQE into the SQ FIFO, ring the SSD doorbell (a P2P posted write) and
/// arm its timeout. The caller has checked that the SQ has a free slot.
fn submit(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine, cid: u16) {
    let (tail, doorbell, fabric, node, timeout, attempts) = {
        let mut s = rc.borrow_mut();
        let cmd = *s.rob.payload(cid).expect("submitted command is tracked");
        let tail = s.push_sqe(en, cid, &cmd);
        s.metrics.doorbells.inc();
        if trace::enabled() {
            if cmd.attempts == 0 {
                trace::instant(en, &s.track, "db.sq", &[("tail", u64::from(tail))]);
            } else {
                let args = [
                    ("cid", u64::from(cid)),
                    ("attempt", u64::from(cmd.attempts)),
                ];
                trace::instant(en, &s.track, "retry.reissue", &args);
            }
        }
        (
            tail,
            s.ssd_sq_doorbell,
            s.fabric(),
            s.node,
            s.cfg.retry.cmd_timeout,
            cmd.attempts,
        )
    };
    let _ = fabric
        .borrow_mut()
        .write_u32(en, node, doorbell, tail as u32);
    if let Some(after) = timeout {
        arm_cmd_timeout(rc, en, cid, attempts, after);
    }
}

/// ⑤ — drain new CQEs out of the CQ window memory.
fn process_cq(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    {
        let s = rc.borrow();
        if s.cq_busy {
            return;
        }
    }
    rc.borrow_mut().cq_busy = true;
    rc.borrow().metrics.cq_events.inc();
    let mut reaped = 0u32;
    loop {
        let cqe = {
            let mut s = rc.borrow_mut();
            let off = s.cq_ring.head_addr() - s.windows.cq.base;
            let raw = {
                let mut mem = s.cq_mem.borrow_mut();
                mem.mem_mut().read_vec(off, 16)
            };
            match Cqe::decode(&raw) {
                Ok(cqe) if cqe.phase == s.cq_ring.expected_phase() => {
                    s.cq_ring.consume();
                    Some(cqe)
                }
                // Wrong phase (nothing new) or malformed slot: stop reaping.
                _ => None,
            }
        };
        let Some(cqe) = cqe else {
            break;
        };
        reaped += 1;
        if trace::enabled() {
            let track = rc.borrow().track.clone();
            trace::instant(en, &track, "cqe", &[("cid", u64::from(cqe.cid))]);
        }
        let retry = {
            let mut s = rc.borrow_mut();
            s.metrics.cqes_consumed.inc();
            let head = cqe.sq_head % s.sq.entries();
            s.sq.update_head(head);
            handle_completion(&mut s, en, cqe.cid, cqe.status)
        };
        if let Some((new_cid, delay)) = retry {
            let rc2 = rc.clone();
            en.schedule_in(delay, move |en| reissue_cmd(&rc2, en, new_cid));
        }
    }
    rc.borrow_mut().cq_busy = false;
    if reaped > 0 {
        drain_retry_q(rc, en);
        // Update the SSD's CQ head doorbell (accounting traffic).
        let (fabric, node, db, head) = {
            let s = rc.borrow();
            (s.fabric(), s.node, s.ssd_cq_doorbell, s.cq_ring.head())
        };
        if db != 0 {
            if trace::enabled() {
                let track = rc.borrow().track.clone();
                trace::instant(en, &track, "db.cq", &[("head", u64::from(head))]);
            }
            let _ = fabric.borrow_mut().write_u32(en, node, db, head as u32);
        }
        try_retire(rc, en);
        try_issue(rc, en);
        pump_write_in(rc, en);
    }
}

/// ⑤ — resolve one completion against the ROB and the retry policy.
///
/// Success: mark complete (counting a recovery if the command had been
/// retried). Transient error with attempts left: re-arm the command under
/// a fresh cid via [`CommandRob::replay`] — it keeps its slot in the
/// retirement order, so in-order delivery survives — and return
/// `Some((new_cid, backoff))` for the caller to schedule the re-issue.
/// Otherwise: give up and retire with the error (a read streams zeros
/// whatever its buffer region holds, a write still answers the PE),
/// counting the loss in `gave_up`.
///
/// Runs with the streamer borrow held; must not schedule (SL006).
fn handle_completion(
    s: &mut NvmeStreamer,
    en: &mut Engine,
    cid: u16,
    status: spec::Status,
) -> Option<(u16, SimDuration)> {
    if status == spec::Status::Success {
        if let Some(cmd) = s.rob.payload(cid) {
            if cmd.attempts > 0 {
                s.metrics.recovered.inc();
                s.metrics
                    .retry_latency_us
                    .record(en.now().since(cmd.issued_at).as_us_f64());
                if trace::enabled() {
                    trace::instant(en, &s.track, "retry.recovered", &[("cid", u64::from(cid))]);
                }
            }
        }
        s.rob.complete(cid, true);
        return None;
    }
    s.metrics.errors.inc();
    let policy = s.cfg.retry;
    let attempts = match s.rob.payload(cid) {
        Some(cmd) => cmd.attempts,
        // Stale cid: a late CQE for a command already replayed or retired.
        None => return None,
    };
    if status.is_transient() && attempts < policy.max_retries {
        if let Some(rf) = &s.regfile {
            rf.borrow_mut().clear(cid);
        }
        let new_cid = s.rob.replay(cid).expect("payload checked above");
        let cmd = s.rob.payload_mut(new_cid).expect("just replayed");
        cmd.attempts += 1;
        let attempt = cmd.attempts;
        s.metrics.retries.inc();
        if trace::enabled() {
            trace::instant(
                en,
                &s.track,
                "retry.scheduled",
                &[
                    ("old_cid", u64::from(cid)),
                    ("cid", u64::from(new_cid)),
                    ("attempt", u64::from(attempt)),
                ],
            );
        }
        Some((new_cid, policy.backoff_for(attempt)))
    } else {
        s.metrics.gave_up.inc();
        if trace::enabled() {
            trace::instant(en, &s.track, "retry.gave_up", &[("cid", u64::from(cid))]);
        }
        s.rob.complete(cid, false);
        None
    }
}

/// Re-issue a replayed command once its backoff elapsed. The fresh cid
/// was assigned by [`CommandRob::replay`] at failure time. Replays bypass
/// the issue pipeline (`issuing`) — the model gives recovery a dedicated
/// slot, like the replay port of a hardware ROB — but still need a free
/// SQ slot; if the SQ is full the command parks in `retry_q` until
/// completions free space.
fn reissue_cmd(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine, cid: u16) {
    {
        let mut s = rc.borrow_mut();
        if s.rob.payload(cid).is_none() {
            return; // already given up on (e.g. a timeout raced the backoff)
        }
        if s.sq.is_full() {
            s.retry_q.push_back(cid);
            return;
        }
    }
    submit(rc, en, cid);
}

/// Drain parked replays once completions freed SQ slots.
fn drain_retry_q(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    loop {
        let cid = {
            let mut s = rc.borrow_mut();
            if s.sq.is_full() {
                return;
            }
            match s.retry_q.pop_front() {
                Some(c) => c,
                None => return,
            }
        };
        reissue_cmd(rc, en, cid);
    }
}

/// Arm a completion timeout for `(cid, attempts)`. A timer is stale — and
/// does nothing — if the command completed, retired, or was replayed
/// under a new cid in the meantime (the attempt count disambiguates cid
/// reuse). A live expiry is treated exactly like a transient-error CQE:
/// retry if the policy allows, give up otherwise.
fn arm_cmd_timeout(
    rc: &Rc<RefCell<NvmeStreamer>>,
    en: &mut Engine,
    cid: u16,
    attempts: u32,
    after: SimDuration,
) {
    let rc2 = rc.clone();
    en.schedule_in(after, move |en| {
        let retry = {
            let mut s = rc2.borrow_mut();
            let live = s.rob.payload(cid).is_some_and(|c| c.attempts == attempts)
                && s.rob.is_complete(cid) == Some(false);
            if !live {
                return;
            }
            s.metrics.timeouts.inc();
            if trace::enabled() {
                trace::instant(en, &s.track, "cmd.timeout", &[("cid", u64::from(cid))]);
            }
            // A lost command is indistinguishable from a transient
            // transport failure — run the same retry decision.
            handle_completion(&mut s, en, cid, spec::Status::DataTransferError)
        };
        match retry {
            Some((new_cid, delay)) => {
                let rc3 = rc2.clone();
                en.schedule_in(delay, move |en| reissue_cmd(&rc3, en, new_cid));
            }
            None => {
                // Gave up: the head may now be retirable.
                try_retire(&rc2, en);
                try_issue(&rc2, en);
                pump_write_in(&rc2, en);
            }
        }
    });
}

/// ⑥ — in-order retirement: writes free buffer + emit responses; reads
/// stream their data to the PE before freeing.
fn try_retire(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    loop {
        let mut s = rc.borrow_mut();
        if s.active_stream.is_some() {
            return; // a read is mid-stream; its completion resumes us
        }
        let Some((_, ok, &cmd)) = s.rob.front_ready() else {
            return;
        };
        match cmd.kind {
            BufKind::Write => {
                let cmd = s.retire_head(en);
                s.xfer_mut(cmd.xfer_id).outstanding_segments -= 1;
                drop(s);
                finish_xfers(rc, en);
                try_issue(rc, en);
                pump_write_in(rc, en);
            }
            BufKind::Read => {
                // Begin streaming the head read's data (retire when done).
                s.active_stream = Some(ReadStream {
                    cmd,
                    ok,
                    issued: 0,
                    delivered: 0,
                    waiting_space: false,
                    inflight: 0,
                });
                drop(s);
                stream_out_step(rc, en);
                if rc.borrow().active_stream.is_some() {
                    return; // still streaming asynchronously
                }
            }
        }
    }
}

/// Emit response tokens, in transfer order, for the leading write
/// transfers whose segments all retired. A response never overtakes an
/// earlier transfer's, so a consumer can match them to its writes by
/// order. Also the response channel's space hook: a token it refused
/// goes out once the consumer drains it.
fn finish_xfers(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    loop {
        let bytes = {
            let s = rc.borrow();
            match s.xfers.front() {
                Some(x) if x.sealed && x.outstanding_segments == 0 => x.bytes,
                _ => return,
            }
        };
        let ch = rc.borrow().ports.wr_resp.clone();
        let token = StreamBeat::last(bytes.to_le_bytes().to_vec());
        if !axis::push(&ch, en, token) {
            return; // response channel full; its space hook retries
        }
        let mut s = rc.borrow_mut();
        s.xfers.pop_front();
        s.metrics.responses.inc();
    }
}

/// Continue the active read stream-out: keep up to [`STREAM_PREFETCH`]
/// buffer reads in flight; beats are pushed in order as reads complete
/// (buffer resources serve FIFO, so completion order matches issue
/// order).
fn stream_out_step(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    loop {
        enum Next {
            Done,
            Wait,
            /// Buffer offset, bytes, TLAST, command succeeded.
            Issue(u64, u64, bool, bool),
        }
        let next = {
            let mut guard = rc.borrow_mut();
            let s = &mut *guard;
            let Some(st) = &mut s.active_stream else {
                return;
            };
            if st.delivered >= st.cmd.len {
                // Finished: retire the head read, free its buffer.
                s.retire_head(en);
                s.active_stream = None;
                Next::Done
            } else if st.issued < st.cmd.len && st.inflight < STREAM_PREFETCH {
                let chunk = STREAM_CHUNK.min(st.cmd.len - st.issued);
                // Reserve output space for everything in flight plus this
                // chunk so completed reads can always push their beat.
                let reserve = (st.inflight as u64 + 1) * STREAM_CHUNK;
                if !s.ports.rd_data.borrow().has_space(reserve as usize) {
                    st.waiting_space = true;
                    Next::Wait
                } else {
                    st.waiting_space = false;
                    st.inflight += 1;
                    let pos = st.issued;
                    st.issued += chunk;
                    let last = st.cmd.last_of_xfer && pos + chunk == st.cmd.len;
                    s.metrics.bytes_to_pe.add(chunk);
                    Next::Issue(st.cmd.region.offset + pos, chunk, last, st.ok)
                }
            } else {
                // Pipeline full (or all issued): completions drive progress.
                Next::Wait
            }
        };
        match next {
            Next::Done => {
                // Head retired; continue the retire loop and re-arm issue.
                try_retire(rc, en);
                try_issue(rc, en);
                return;
            }
            Next::Wait => return,
            Next::Issue(offset, chunk, last, ok) => {
                let (data, t) = buf_read(rc, en, BufKind::Read, offset, chunk as usize);
                // A given-up read streams zeros, not whatever its region
                // last held; the buffer read still paces the stream.
                let data = if ok {
                    data
                } else {
                    Payload::fill(0, chunk as usize)
                };
                let rc2 = rc.clone();
                en.schedule_at(t.max(en.now()), move |en| {
                    let ch = rc2.borrow().ports.rd_data.clone();
                    let pushed = axis::push(&ch, en, StreamBeat { data, last });
                    debug_assert!(pushed, "space was reserved at issue");
                    {
                        let mut s = rc2.borrow_mut();
                        if let Some(st) = &mut s.active_stream {
                            st.inflight -= 1;
                            st.delivered += chunk;
                        }
                    }
                    stream_out_step(&rc2, en);
                });
                // Loop: try to issue more prefetches right away.
            }
        }
    }
}

/// Resume a stream-out stalled on PE backpressure.
fn resume_stream_out(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    let waiting = rc
        .borrow()
        .active_stream
        .as_ref()
        .map(|s| s.waiting_space)
        .unwrap_or(false);
    if waiting {
        stream_out_step(rc, en);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instantiate(variant: StreamerVariant) -> (TapascoShell, WindowMap) {
        let fabric = Rc::new(RefCell::new(PcieFabric::new()));
        let mut shell = TapascoShell::new(fabric, 0x4_0000_0000);
        let s = StreamerHandle::instantiate(&mut shell, StreamerConfig::snacc(variant));
        (shell, s.windows())
    }

    #[test]
    fn uram_windows_fit_bar0() {
        let (shell, w) = instantiate(StreamerVariant::Uram);
        // 8 MB URAM window fits the existing BAR0 map (Sec 4.5).
        assert!(shell.bar0().contains_span(w.rd_data.base, w.rd_data.size));
        assert_eq!(w.rd_data.size, 4 << 20);
        assert_eq!(w.prp.size, 4 << 20);
    }

    #[test]
    fn onboard_variant_requires_second_bar() {
        let (shell, w) = instantiate(StreamerVariant::OnboardDram);
        // The 64 MB data windows cannot live in the 64 MB BAR0.
        assert!(!shell.bar0().contains(w.rd_data.base));
        assert_eq!(w.rd_data.size, 64 << 20);
        assert_eq!(w.wr_data.size, 64 << 20);
    }

    #[test]
    fn write_responses_leave_in_transfer_order() {
        let fabric = Rc::new(RefCell::new(PcieFabric::new()));
        let mut shell = TapascoShell::new(fabric, 0x4_0000_0000);
        let s =
            StreamerHandle::instantiate(&mut shell, StreamerConfig::snacc(StreamerVariant::Uram));
        let mut en = Engine::new();
        let resp = s.ports().wr_resp;
        let mut queued = 0;
        while axis::push(&resp, &mut en, StreamBeat::last(vec![0u8; 8])) {
            queued += 1;
        }
        // Two transfers of different lengths finish while the response
        // channel is full.
        for (id, bytes) in [(0, 4096u64), (1, 512)] {
            s.inner.borrow_mut().xfers.push_back(XferState {
                id,
                outstanding_segments: 0,
                sealed: true,
                bytes,
            });
        }
        finish_xfers(&s.inner, &mut en);
        for _ in 0..queued {
            axis::pop(&resp, &mut en).expect("queued token");
        }
        let drain = |en: &mut Engine| -> Vec<u64> {
            std::iter::from_fn(|| axis::pop(&resp, en))
                .map(|b| u64::from_le_bytes(b.data[..8].try_into().unwrap()))
                .collect()
        };
        // Draining the full channel wakes the streamer, which sends the
        // refused tokens on its own.
        assert_eq!(drain(&mut en), [4096, 512]);
        // A finished transfer (an empty write) waits behind an earlier
        // one that still has a segment in flight.
        for (id, outstanding_segments, bytes) in [(2, 1, 8192u64), (3, 0, 0)] {
            s.inner.borrow_mut().xfers.push_back(XferState {
                id,
                outstanding_segments,
                sealed: true,
                bytes,
            });
        }
        finish_xfers(&s.inner, &mut en);
        assert_eq!(drain(&mut en), []);
        s.inner.borrow_mut().xfer_mut(2).outstanding_segments = 0;
        finish_xfers(&s.inner, &mut en);
        assert_eq!(drain(&mut en), [8192, 0]);
    }
}
