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

use crate::config::{StreamerConfig, StreamerVariant};
use crate::prpgen::{PrpMapping, PrpRegFile, RegFilePrpWindow, UramPrpWindow};
use crate::ring::{Region, RingAllocator};
use crate::rob::CommandRob;
use snacc_fpga::axis::{self, AxisChannel, StreamBeat};
use snacc_fpga::tapasco::TapascoShell;
use snacc_mem::hostmem::PinnedBuffer;
use snacc_mem::{AddrRange, DramController, UramConfig, UramModel};
use snacc_nvme::queue::{CqRing, SqRing};
use snacc_nvme::spec::{self, Cqe, IoOpcode, Sqe};
use snacc_pcie::target::ScratchTarget;
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

/// Buffer placement backend.
enum BufferBackend {
    Uram {
        mem: Rc<RefCell<UramModel>>,
        /// Device-visible base of the 4 MB data window.
        dev_base: u64,
    },
    Dram {
        mem: Rc<RefCell<DramController>>,
        rd_local: u64,
        wr_local: u64,
        rd_dev: u64,
        wr_dev: u64,
    },
    Host {
        /// Installed by the host driver (Sec 4.6).
        rd_buf: Option<PinnedBuffer>,
        wr_buf: Option<PinnedBuffer>,
    },
}

/// Per-command ROB payload.
#[derive(Clone, Debug)]
enum CmdInfo {
    Read {
        region: Region,
        /// NVMe byte address, kept so a retry can rebuild the SQE.
        nvme_addr: u64,
        /// Bytes the user asked for in this segment.
        len: u64,
        /// This segment ends the user transfer (emit TLAST).
        last_of_xfer: bool,
        /// Open trace span (inert when tracing is off).
        span: trace::SpanId,
        /// First-issue time, for the retirement-latency histogram.
        issued_at: SimTime,
        /// Completed retry attempts (0 = the first issue is in flight).
        attempts: u32,
    },
    Write {
        region: Region,
        /// NVMe byte address, kept so a retry can rebuild the SQE.
        nvme_addr: u64,
        /// LBA-padded command length, kept so a retry can rebuild the SQE.
        len: u64,
        xfer_id: u64,
        /// Open trace span (inert when tracing is off).
        span: trace::SpanId,
        /// First-issue time, for the retirement-latency histogram.
        issued_at: SimTime,
        /// Completed retry attempts (0 = the first issue is in flight).
        attempts: u32,
    },
}

impl CmdInfo {
    fn attempts(&self) -> u32 {
        match self {
            CmdInfo::Read { attempts, .. } | CmdInfo::Write { attempts, .. } => *attempts,
        }
    }

    fn bump_attempts(&mut self) {
        match self {
            CmdInfo::Read { attempts, .. } | CmdInfo::Write { attempts, .. } => *attempts += 1,
        }
    }

    fn issued_at(&self) -> SimTime {
        match self {
            CmdInfo::Read { issued_at, .. } | CmdInfo::Write { issued_at, .. } => *issued_at,
        }
    }

    /// `(opcode, nvme_addr, len, kind, region)` for rebuilding the SQE at
    /// replay time. The buffer region (and, for writes, its data) is
    /// untouched by the failed attempt, so this is all a retry needs.
    fn reissue_parts(&self) -> (IoOpcode, u64, u64, BufKind, Region) {
        match *self {
            CmdInfo::Read {
                region,
                nvme_addr,
                len,
                ..
            } => (IoOpcode::Read, nvme_addr, len, BufKind::Read, region),
            CmdInfo::Write {
                region,
                nvme_addr,
                len,
                ..
            } => (IoOpcode::Write, nvme_addr, len, BufKind::Write, region),
        }
    }
}

/// A command waiting for a ROB slot / SQ slot / buffer region.
#[derive(Debug)]
enum PendingCmd {
    Read {
        nvme_addr: u64,
        len: u64,
        last_of_xfer: bool,
    },
    Write {
        nvme_addr: u64,
        len: u64,
        region: Region,
        xfer_id: u64,
    },
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
    region: Region,
    len: u64,
    /// Bytes whose buffer reads have been issued.
    issued: u64,
    /// Bytes delivered to the PE.
    delivered: u64,
    last_of_xfer: bool,
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
    /// Data window for reads (0-sized for the host variant).
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
    backend: BufferBackend,
    rd_ring: RingAllocator,
    wr_ring: Option<RingAllocator>,
    rob: CommandRob<CmdInfo>,
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
    pending: VecDeque<PendingCmd>,
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
            .alloc_window(cfg.sq_entries as u64 * spec::SQE_BYTES)
            .expect("sq window");
        let cq_w = shell
            .alloc_window(cfg.sq_entries as u64 * spec::CQE_BYTES)
            .expect("cq window");

        // Buffer windows + PRP window, per variant.
        let (backend, rd_data_w, wr_data_w, prp_w, regfile) = match cfg.variant {
            StreamerVariant::Uram => {
                // 8 MB window: 4 MB data + 4 MB PRP upper half (Fig 2).
                let win = shell.alloc_window(8 << 20).expect("uram window");
                let data_w = AddrRange::new(win.base, 4 << 20);
                let prp_w = AddrRange::new(win.base + (4 << 20), 4 << 20);
                let mem = Rc::new(RefCell::new(UramModel::new(
                    "snacc-uram",
                    UramConfig::snacc_default(),
                )));
                shell.map_target(data_w, mem.clone());
                shell.map_target(
                    prp_w,
                    Rc::new(RefCell::new(UramPrpWindow::new(data_w.base))),
                );
                (
                    BufferBackend::Uram {
                        mem,
                        dev_base: data_w.base,
                    },
                    data_w,
                    data_w,
                    prp_w,
                    None,
                )
            }
            StreamerVariant::OnboardDram => {
                // Two 64 MB DRAM windows need the second BAR (Sec 4.5).
                let bar2_base = shell.bar0().base + (1 << 30);
                shell.add_second_bar(bar2_base, 256 << 20);
                let mem = shell
                    .dram()
                    .unwrap_or_else(|| shell.attach_dram(snacc_mem::DramConfig::ddr4_u280()));
                let rd_w = shell.map_dram_window(0, 64 << 20).expect("rd window");
                let wr_w = shell
                    .map_dram_window(64 << 20, 64 << 20)
                    .expect("wr window");
                let prp_w = shell
                    .alloc_window(cfg.sq_entries as u64 * PAGE)
                    .expect("prp window");
                let rf = PrpRegFile::new(cfg.sq_entries as usize);
                shell.map_target(
                    prp_w,
                    Rc::new(RefCell::new(RegFilePrpWindow::new(rf.clone()))),
                );
                (
                    BufferBackend::Dram {
                        mem,
                        rd_local: 0,
                        wr_local: 64 << 20,
                        rd_dev: rd_w.base,
                        wr_dev: wr_w.base,
                    },
                    rd_w,
                    wr_w,
                    prp_w,
                    Some(rf),
                )
            }
            StreamerVariant::HostDram => {
                let prp_w = shell
                    .alloc_window(cfg.sq_entries as u64 * PAGE)
                    .expect("prp window");
                let rf = PrpRegFile::new(cfg.sq_entries as usize);
                shell.map_target(
                    prp_w,
                    Rc::new(RefCell::new(RegFilePrpWindow::new(rf.clone()))),
                );
                // Data windows live in host memory; zero-sized placeholders.
                let dummy = AddrRange::new(prp_w.base, 1);
                (
                    BufferBackend::Host {
                        rd_buf: None,
                        wr_buf: None,
                    },
                    dummy,
                    dummy,
                    prp_w,
                    Some(rf),
                )
            }
        };

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
            rd_data: AxisChannel::new("snacc.rd_data", 4 * cfg.stream_chunk),
            wr_in: AxisChannel::new("snacc.wr_in", 4 * cfg.stream_chunk),
            wr_resp: AxisChannel::new("snacc.wr_resp", 4096),
        };

        let wr_ring =
            (cfg.write_buffer_bytes() > 0).then(|| RingAllocator::new(cfg.write_buffer_bytes()));
        let scope = format!("streamer.n{}", node.0);
        let metrics = StreamerMetrics::new(&scope);
        let streamer = Rc::new(RefCell::new(NvmeStreamer {
            rd_ring: RingAllocator::new(cfg.read_buffer_bytes()),
            wr_ring,
            rob: CommandRob::new(cfg.queue_depth, cfg.retirement),
            sq: SqRing::new(sq_w.base, cfg.sq_entries),
            cq_ring: CqRing::new(cq_w.base, cfg.sq_entries),
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
            backend,
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
                    let t = arrival.max(en.now()) + rc.borrow().cfg.completion_latency;
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
                .set_space_hook(move |en| try_retire(&upgrade(&me, "wr_resp hook"), en));
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
        self.inner.borrow().cfg.sq_entries
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
        match &mut s.backend {
            BufferBackend::Host { rd_buf, wr_buf } => {
                *rd_buf = Some(rd);
                *wr_buf = Some(wr);
            }
            _ => panic!("install_host_buffers on a non-host variant"),
        }
    }

    /// Enable the IP (tests; normal path is the control window).
    pub fn enable(&self, en: &mut Engine) {
        self.inner.borrow_mut().enabled = true;
        let rc = self.inner.clone();
        en.schedule_now(move |en| {
            accept_read_cmds(&rc, en);
            pump_write_in(&rc, en);
            try_issue(&rc, en);
        });
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

    fn page_dev_addr(&self, kind: BufKind, offset: u64) -> u64 {
        match &self.backend {
            BufferBackend::Uram { dev_base, .. } => dev_base + offset,
            BufferBackend::Dram { rd_dev, wr_dev, .. } => match kind {
                BufKind::Read => rd_dev + offset,
                BufKind::Write => wr_dev + offset,
            },
            BufferBackend::Host { rd_buf, wr_buf } => {
                let b = match kind {
                    BufKind::Read => rd_buf,
                    BufKind::Write => wr_buf,
                };
                b.as_ref()
                    .expect("host buffers installed")
                    .phys_addr(offset)
            }
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

    /// ② (shared by first issue and replay re-issue): assign `cid`, set
    /// up PRPs per variant (Sec 4.4), write the SQE into the SQ FIFO slot
    /// and advance the tail. The caller must have checked
    /// `!self.sq.is_full()` and rings the doorbell with the returned tail.
    fn push_sqe(
        &mut self,
        en: &mut Engine,
        mut sqe: Sqe,
        cid: u16,
        kind: BufKind,
        region: Region,
        len: u64,
    ) -> u16 {
        sqe.cid = cid;
        // PRPs: on-the-fly schemes (Sec 4.4).
        let pages = snacc_sim::ceil_div(len, PAGE);
        sqe.prp1 = self.page_dev_addr(kind, region.offset);
        if pages == 2 {
            sqe.prp2 = self.page_dev_addr(kind, region.offset + PAGE);
        } else if pages > 2 {
            match self.cfg.variant {
                StreamerVariant::Uram => {
                    sqe.prp2 = UramPrpWindow::prp2_for(self.windows.prp.base, region.offset);
                }
                StreamerVariant::OnboardDram => {
                    let second = self.page_dev_addr(kind, region.offset + PAGE);
                    let slots = self.cfg.sq_entries as usize;
                    self.regfile.as_ref().unwrap().borrow_mut().set(
                        cid,
                        PrpMapping::Contig {
                            second_page: second,
                        },
                    );
                    sqe.prp2 = RegFilePrpWindow::prp2_for(self.windows.prp.base, cid, slots);
                }
                StreamerVariant::HostDram => {
                    let pinned = match (&self.backend, kind) {
                        (BufferBackend::Host { rd_buf, .. }, BufKind::Read) => {
                            rd_buf.as_ref().unwrap().clone()
                        }
                        (BufferBackend::Host { wr_buf, .. }, BufKind::Write) => {
                            wr_buf.as_ref().unwrap().clone()
                        }
                        _ => unreachable!(),
                    };
                    let slots = self.cfg.sq_entries as usize;
                    self.regfile.as_ref().unwrap().borrow_mut().set(
                        cid,
                        PrpMapping::Segmented {
                            pinned,
                            second_page_index: region.offset / PAGE + 1,
                        },
                    );
                    sqe.prp2 = RegFilePrpWindow::prp2_for(self.windows.prp.base, cid, slots);
                }
            }
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

/// Where a buffer access lands, resolved with the streamer borrow
/// released.
enum BufOp {
    Uram(Rc<RefCell<UramModel>>),
    Dram(Rc<RefCell<DramController>>, u64),
    Host(PinnedBuffer, Rc<RefCell<PcieFabric>>, NodeId),
}

fn buf_op(rc: &Rc<RefCell<NvmeStreamer>>, kind: BufKind) -> BufOp {
    let s = rc.borrow();
    match &s.backend {
        BufferBackend::Uram { mem, .. } => BufOp::Uram(mem.clone()),
        BufferBackend::Dram {
            mem,
            rd_local,
            wr_local,
            ..
        } => {
            let base = match kind {
                BufKind::Read => *rd_local,
                BufKind::Write => *wr_local,
            };
            BufOp::Dram(mem.clone(), base)
        }
        BufferBackend::Host { rd_buf, wr_buf } => {
            let b = match kind {
                BufKind::Read => rd_buf,
                BufKind::Write => wr_buf,
            };
            let pinned = b.as_ref().expect("host buffers installed").clone();
            BufOp::Host(pinned, s.fabric(), s.node)
        }
    }
}

/// Timed + functional buffer write (local datapath or host DMA). The
/// backing store retains the payload window zero-copy.
fn buf_write(
    rc: &Rc<RefCell<NvmeStreamer>>,
    en: &mut Engine,
    start: SimTime,
    kind: BufKind,
    offset: u64,
    data: Payload,
) -> SimTime {
    match buf_op(rc, kind) {
        BufOp::Uram(mem) => mem.borrow_mut().write_payload(start, offset, data),
        BufOp::Dram(mem, base) => mem.borrow_mut().write_payload(start, base + offset, data),
        BufOp::Host(pinned, fabric, node) => {
            let mut t = start;
            for (phys, off, n) in pinned.pieces(offset, data.len()) {
                t = fabric
                    .borrow_mut()
                    .write(en, t.max(en.now()), node, phys, data.slice(off..off + n))
                    .expect("host buffer reachable");
            }
            t
        }
    }
}

/// Timed + functional buffer read: returns the buffered bytes as a
/// zero-copy payload view plus the completion time.
fn buf_read_payload(
    rc: &Rc<RefCell<NvmeStreamer>>,
    en: &mut Engine,
    start: SimTime,
    kind: BufKind,
    offset: u64,
    len: usize,
) -> (Payload, SimTime) {
    match buf_op(rc, kind) {
        BufOp::Uram(mem) => mem.borrow_mut().read_payload(start, offset, len),
        BufOp::Dram(mem, base) => mem.borrow_mut().read_payload(start, base + offset, len),
        BufOp::Host(pinned, fabric, node) => {
            let mut t = start;
            let mut parts: Vec<Payload> = Vec::new();
            for (phys, _, n) in pinned.pieces(offset, len) {
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
        let max = s.cfg.max_cmd_bytes;
        let mut off = 0;
        while off < len {
            let n = max.min(len - off);
            s.pending.push_back(PendingCmd::Read {
                nvme_addr: addr + off,
                len: n,
                last_of_xfer: off + n == len,
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
        let max = s.cfg.max_cmd_bytes;
        let region = s.ring_mut(BufKind::Write).alloc(max);
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
    let t_done = buf_write(
        rc,
        en,
        en.now(),
        BufKind::Write,
        region.offset + filled,
        chunk,
    );
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
                s.pending.push_back(PendingCmd::Write {
                    nvme_addr,
                    len: cmd_len,
                    region: shrunk,
                    xfer_id,
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

/// ② — issue pending commands: ROB slot + SQ slot (+ read buffer region),
/// write the SQE into the SQ FIFO, ring the SSD doorbell.
fn try_issue(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine) {
    {
        let s = rc.borrow();
        if !s.enabled || s.issuing || s.ssd_sq_doorbell == 0 {
            return;
        }
    }
    // One command per issue-pipeline slot.
    let issue = {
        let mut s = rc.borrow_mut();
        if s.pending.is_empty() || !s.rob.can_issue() || s.sq.is_full() {
            None
        } else {
            // Reads allocate their buffer region at issue time.
            let front_ok = match s.pending.front().unwrap() {
                PendingCmd::Read { len, .. } => {
                    let padded = len.div_ceil(PAGE) * PAGE;
                    let region = s.rd_ring.alloc(padded);
                    region.map(Some)
                }
                PendingCmd::Write { .. } => Some(None),
            };
            match front_ok {
                None => None,
                Some(read_region) => {
                    let cmd = s.pending.pop_front().unwrap();
                    Some((cmd, read_region))
                }
            }
        }
    };
    let Some((cmd, read_region)) = issue else {
        return;
    };

    // Build the SQE.
    let (sqe_no_cid, info, kind, region, len) = {
        let issued_at = en.now();
        match cmd {
            PendingCmd::Read {
                nvme_addr,
                len,
                last_of_xfer,
            } => {
                let region = read_region.expect("read region allocated");
                let span = if trace::enabled() {
                    trace::begin(
                        en,
                        &rc.borrow().track,
                        "cmd.read",
                        &[("nvme_addr", nvme_addr), ("len", len)],
                    )
                } else {
                    trace::SpanId::NONE
                };
                let sqe = Sqe::io(IoOpcode::Read, 0, nvme_addr / LBA, (len / LBA - 1) as u16);
                (
                    sqe,
                    CmdInfo::Read {
                        region,
                        nvme_addr,
                        len,
                        last_of_xfer,
                        span,
                        issued_at,
                        attempts: 0,
                    },
                    BufKind::Read,
                    region,
                    len,
                )
            }
            PendingCmd::Write {
                nvme_addr,
                len,
                region,
                xfer_id,
            } => {
                let span = if trace::enabled() {
                    trace::begin(
                        en,
                        &rc.borrow().track,
                        "cmd.write",
                        &[("nvme_addr", nvme_addr), ("len", len)],
                    )
                } else {
                    trace::SpanId::NONE
                };
                let sqe = Sqe::io(IoOpcode::Write, 0, nvme_addr / LBA, (len / LBA - 1) as u16);
                (
                    sqe,
                    CmdInfo::Write {
                        region,
                        nvme_addr,
                        len,
                        xfer_id,
                        span,
                        issued_at,
                        attempts: 0,
                    },
                    BufKind::Write,
                    region,
                    len,
                )
            }
        }
    };

    let (tail, doorbell, fabric, node, delay, cid, timeout) = {
        let mut s = rc.borrow_mut();
        let cid = s.rob.issue(info);
        let tail = s.push_sqe(en, sqe_no_cid, cid, kind, region, len);
        s.metrics.cmds_issued.inc();
        match kind {
            BufKind::Read => s.metrics.read_cmds.inc(),
            BufKind::Write => s.metrics.write_cmds.inc(),
        }
        s.metrics.doorbells.inc();
        s.issuing = true;
        (
            tail,
            s.ssd_sq_doorbell,
            s.fabric(),
            s.node,
            s.cfg.cmd_issue_latency,
            cid,
            s.cfg.retry.cmd_timeout,
        )
    };

    if trace::enabled() {
        let track = rc.borrow().track.clone();
        trace::instant(en, &track, "db.sq", &[("tail", u64::from(tail))]);
    }
    // Ring the SSD doorbell (P2P posted write).
    let _ = fabric
        .borrow_mut()
        .write_u32(en, node, doorbell, tail as u32);
    if let Some(after) = timeout {
        arm_cmd_timeout(rc, en, cid, 0, after);
    }

    // Issue pipeline: next command after the issue latency.
    let rc2 = rc.clone();
    en.schedule_in(delay, move |en| {
        rc2.borrow_mut().issuing = false;
        try_issue(&rc2, en);
    });
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
/// Otherwise: give up and retire with the error (reads stream zeros,
/// writes still answer the PE), counting the loss in `gave_up`.
///
/// Runs with the streamer borrow held; must not schedule (SL006).
fn handle_completion(
    s: &mut NvmeStreamer,
    en: &mut Engine,
    cid: u16,
    status: spec::Status,
) -> Option<(u16, SimDuration)> {
    if status == spec::Status::Success {
        if let Some(info) = s.rob.payload(cid) {
            if info.attempts() > 0 {
                s.metrics.recovered.inc();
                s.metrics
                    .retry_latency_us
                    .record(en.now().since(info.issued_at()).as_us_f64());
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
        Some(i) => i.attempts(),
        // Stale cid: a late CQE for a command already replayed or retired.
        None => return None,
    };
    if status.is_transient() && attempts < policy.max_retries {
        if let Some(rf) = &s.regfile {
            rf.borrow_mut().clear(cid);
        }
        let new_cid = s.rob.replay(cid).expect("payload checked above");
        let info = s.rob.payload_mut(new_cid).expect("just replayed");
        info.bump_attempts();
        let attempt = info.attempts();
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
/// was assigned by [`CommandRob::replay`] at failure time; only the SQE
/// is rebuilt. Replays bypass the issue pipeline (`issuing`) — the model
/// gives recovery a dedicated slot, like the replay port of a hardware
/// ROB — but still need a free SQ slot; if the SQ is full the command
/// parks in `retry_q` until completions free space.
fn reissue_cmd(rc: &Rc<RefCell<NvmeStreamer>>, en: &mut Engine, cid: u16) {
    let out = {
        let mut s = rc.borrow_mut();
        let Some(info) = s.rob.payload(cid) else {
            return; // already given up on (e.g. a timeout raced the backoff)
        };
        let (op, nvme_addr, len, kind, region) = info.reissue_parts();
        let attempts = info.attempts();
        if s.sq.is_full() {
            s.retry_q.push_back(cid);
            return;
        }
        let sqe = Sqe::io(op, 0, nvme_addr / LBA, (len / LBA - 1) as u16);
        let tail = s.push_sqe(en, sqe, cid, kind, region, len);
        s.metrics.doorbells.inc();
        if trace::enabled() {
            trace::instant(
                en,
                &s.track,
                "retry.reissue",
                &[("cid", u64::from(cid)), ("attempt", u64::from(attempts))],
            );
        }
        (
            tail,
            s.ssd_sq_doorbell,
            s.fabric(),
            s.node,
            s.cfg.retry.cmd_timeout,
            attempts,
        )
    };
    let (tail, doorbell, fabric, node, timeout, attempts) = out;
    let _ = fabric
        .borrow_mut()
        .write_u32(en, node, doorbell, tail as u32);
    if let Some(after) = timeout {
        arm_cmd_timeout(rc, en, cid, attempts, after);
    }
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
            let live = s.rob.payload(cid).is_some_and(|i| i.attempts() == attempts)
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
        if rc.borrow().active_stream.is_some() {
            return; // a read is mid-stream; its completion resumes us
        }
        enum Next {
            Write,
            Read,
            None,
        }
        let next = {
            let s = rc.borrow();
            match s.rob.front_ready() {
                Some((_, _, CmdInfo::Write { .. })) => {
                    // Need response space before committing (tokens are
                    // emitted from retirement).
                    Next::Write
                }
                Some((_, _, CmdInfo::Read { .. })) => Next::Read,
                None => Next::None,
            }
        };
        match next {
            Next::None => return,
            Next::Write => {
                {
                    let mut s = rc.borrow_mut();
                    let (cid, _ok, info) = s.rob.retire_front();
                    if let Some(rf) = &s.regfile {
                        rf.borrow_mut().clear(cid);
                    }
                    let CmdInfo::Write {
                        region,
                        xfer_id,
                        span,
                        issued_at,
                        ..
                    } = info
                    else {
                        unreachable!()
                    };
                    trace::end(en, span);
                    s.metrics
                        .cmd_latency_us
                        .record(en.now().since(issued_at).as_us_f64());
                    s.ring_mut(BufKind::Write).free_oldest(region);
                    s.xfer_mut(xfer_id).outstanding_segments -= 1;
                }
                finish_xfers(rc, en);
                try_issue(rc, en);
                pump_write_in(rc, en);
            }
            Next::Read => {
                // Begin streaming the head read's data (retire when done).
                {
                    let mut s = rc.borrow_mut();
                    let (_cid, _ok, info) = s
                        .rob
                        .front_ready()
                        .map(|(c, o, i)| (c, o, i.clone()))
                        .expect("front ready");
                    let CmdInfo::Read {
                        region,
                        len,
                        last_of_xfer,
                        ..
                    } = info
                    else {
                        unreachable!()
                    };
                    s.active_stream = Some(ReadStream {
                        region,
                        len,
                        issued: 0,
                        delivered: 0,
                        last_of_xfer,
                        waiting_space: false,
                        inflight: 0,
                    });
                }
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
/// order.
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
            Issue(Region, u64, u64, bool, u64),
        }
        let next = {
            let mut s = rc.borrow_mut();
            let stream_chunk = s.cfg.stream_chunk;
            let rd_data = s.ports.rd_data.clone();
            let Some(st) = &mut s.active_stream else {
                return;
            };
            if st.delivered >= st.len {
                // Finished: retire the head read, free its buffer.
                let (cid, _ok, info) = s.rob.retire_front();
                if let Some(rf) = &s.regfile {
                    rf.borrow_mut().clear(cid);
                }
                let CmdInfo::Read {
                    region,
                    span,
                    issued_at,
                    ..
                } = info
                else {
                    unreachable!()
                };
                trace::end(en, span);
                s.metrics
                    .cmd_latency_us
                    .record(en.now().since(issued_at).as_us_f64());
                s.rd_ring.free_oldest(region);
                s.active_stream = None;
                Next::Done
            } else if st.issued < st.len && st.inflight < STREAM_PREFETCH {
                let chunk = stream_chunk.min(st.len - st.issued);
                // Reserve output space for everything in flight plus this
                // chunk so completed reads can always push their beat.
                let reserve = (st.inflight as u64 + 1) * stream_chunk;
                if !rd_data.borrow().has_space(reserve as usize) {
                    st.waiting_space = true;
                    Next::Wait
                } else {
                    st.waiting_space = false;
                    st.inflight += 1;
                    let pos = st.issued;
                    st.issued += chunk;
                    let out = Next::Issue(st.region, pos, chunk, st.last_of_xfer, st.len);
                    s.metrics.bytes_to_pe.add(chunk);
                    out
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
            Next::Issue(region, pos, chunk, last_of_xfer, total) => {
                let (data, t) = buf_read_payload(
                    rc,
                    en,
                    en.now(),
                    BufKind::Read,
                    region.offset + pos,
                    chunk as usize,
                );
                let is_last_beat = last_of_xfer && pos + chunk == total;
                let rc2 = rc.clone();
                en.schedule_at(t.max(en.now()), move |en| {
                    let ch = rc2.borrow().ports.rd_data.clone();
                    let beat = StreamBeat {
                        data,
                        last: is_last_beat,
                    };
                    let ok = axis::push(&ch, en, beat);
                    debug_assert!(ok, "space was reserved at issue");
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
        let tokens = |en: &mut Engine| -> Vec<u64> {
            finish_xfers(&s.inner, en);
            std::iter::from_fn(|| axis::pop(&resp, en))
                .map(|b| u64::from_le_bytes(b.data[..8].try_into().unwrap()))
                .collect()
        };
        assert_eq!(tokens(&mut en), [4096, 512]);
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
        assert_eq!(tokens(&mut en), []);
        s.inner.borrow_mut().xfer_mut(2).outstanding_segments = 0;
        assert_eq!(tokens(&mut en), [8192, 0]);
    }
}
