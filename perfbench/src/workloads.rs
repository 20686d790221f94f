//! The benchmark's workloads and the loops that run one configuration
//! of each.
//!
//! Every configuration brings up its own system, runs its measured phase,
//! checks what the simulator produced, reads the layers' public counters
//! and finally scrubs and drops the system. The loops talk to the simulator
//! only through public functions, via the timed wrappers of
//! [`crate::probe`].

use crate::probe::{self, timed, Probe};
use snacc_apps::images::{classify, downscale, generate_image, ImageFormat, NUM_CLASSES};
use snacc_apps::pipeline::{
    image_slot_bytes, CaseSink, CaseStudyConfig, DbController, ImageSender, RxBridge, StreamerSink,
    WakeHook,
};
use snacc_apps::spdk_ref::{finalize, GpuStage, SpdkSink};
use snacc_apps::system::{layout, HostSystem, SnaccSystem, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_core::streamer::{encode_read_cmd, StreamerMetrics};
use snacc_fpga::axis::{AxisChannel, StreamBeat};
use snacc_mem::AddrRange;
use snacc_net::frame::MacAddr;
use snacc_net::mac::{self, EthMac, MacConfig};
use snacc_nvme::{NvmeDeviceHandle, NvmeProfile};
use snacc_pcie::target::ScratchTarget;
use snacc_pcie::{NodeId, PcieFabric, PcieGen, PcieLinkConfig};
use snacc_sim::{Engine, Payload, SimDuration, SimRng};
use snacc_spdk::{SpdkConfig, SpdkNvme};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const GIB: u64 = 1 << 30;
const PAGE: u64 = 4096;
/// Extent the random workload addresses (pre-warmed for reads).
const RAND_SPAN: u64 = GIB;
/// Fill byte of pre-warmed extents; read data must come back as this.
const SEQ_FILL: u8 = 0xA5;
const RAND_FILL: u8 = 0x3C;
/// Queue depth of the random workload (the streamer's SQ is 64 deep).
const RAND_QD: u16 = 64;
/// GPU BAR window, as in the GPU reference configuration.
const GPU_BAR: u64 = 0xA_0000_0000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SeqStream,
    Rand4k,
    CaseStudy,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "seq_stream" => Some(Workload::SeqStream),
            "rand_4k" => Some(Workload::Rand4k),
            "case_study" => Some(Workload::CaseStudy),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqStream => "seq_stream",
            Workload::Rand4k => "rand_4k",
            Workload::CaseStudy => "case_study",
        }
    }

    /// The workload's configurations, in run order.
    pub fn configs(self) -> Vec<Spec> {
        use Spec::*;
        use StreamerVariant::*;
        match self {
            Workload::SeqStream => vec![
                Seq("uram_w", Uram, Dir::Write),
                Seq("uram_r", Uram, Dir::Read),
                Seq("host_w", HostDram, Dir::Write),
                Seq("dram_r", OnboardDram, Dir::Read),
            ],
            Workload::Rand4k => vec![
                RandStreamer("uram_rr", Uram, Dir::Read),
                RandStreamer("uram_rw", Uram, Dir::Write),
                RandStreamer("host_rw", HostDram, Dir::Write),
                RandSpdk("spdk_rr", Dir::Read),
                RandSpdk("spdk_rw", Dir::Write),
            ],
            Workload::CaseStudy => vec![
                CaseStreamer("cs_uram", Uram),
                CaseStreamer("cs_host", HostDram),
                CaseHost("cs_spdk", false),
                CaseHost("cs_gpu", true),
            ],
        }
    }

    /// What one simulated request is in this workload.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::SeqStream => "1 GiB transfer",
            Workload::Rand4k => "4 KiB command",
            Workload::CaseStudy => "image",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    Read,
    Write,
}

/// One configuration of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    /// 1 GiB streamer transfers, one at a time.
    Seq(&'static str, StreamerVariant, Dir),
    /// Random 4 KiB commands through the streamer ports.
    RandStreamer(&'static str, StreamerVariant, Dir),
    /// The same random commands through the SPDK host driver.
    RandSpdk(&'static str, Dir),
    /// Case study with the SNAcc streamer as the storage sink.
    CaseStreamer(&'static str, StreamerVariant),
    /// Case study through host staging and SPDK (`true`: with the GPU).
    CaseHost(&'static str, bool),
}

impl Spec {
    pub fn name(&self) -> &'static str {
        match *self {
            Spec::Seq(n, ..)
            | Spec::RandStreamer(n, ..)
            | Spec::RandSpdk(n, ..)
            | Spec::CaseStreamer(n, ..)
            | Spec::CaseHost(n, ..) => n,
        }
    }
}

/// Run lengths. The measured rounds use [`Size::full`]; the trace sample
/// uses [`Size::sample`] so a full simulated-time trace stays small.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Bytes per sequential configuration (whole GiB, or one transfer).
    pub seq_bytes: u64,
    /// 4 KiB commands per random configuration.
    pub rand_cmds: u64,
    /// Images per case-study configuration.
    pub images: u64,
}

impl Size {
    pub fn full() -> Size {
        Size {
            seq_bytes: 4 * GIB,
            rand_cmds: 64 << 10,
            images: 192,
        }
    }

    pub fn sample() -> Size {
        Size {
            seq_bytes: 64 << 20,
            rand_cmds: 1024,
            images: 4,
        }
    }

    pub fn ops(&self, w: Workload) -> u64 {
        match w {
            Workload::SeqStream => self.seq_bytes.div_ceil(GIB),
            Workload::Rand4k => self.rand_cmds,
            Workload::CaseStudy => self.images,
        }
    }
}

/// SplitMix64 finaliser: derives independent sub-seeds from `--seed`.
fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-run inputs derived from the seed, shared by every configuration.
pub struct Inputs {
    /// Simulation seed of every system (NAND read-latency jitter).
    pub sys_seed: u64,
    /// Byte address of the sequential transfers (GiB-aligned).
    pub seq_base: u64,
    /// The random workload's address stream (4 KiB-aligned).
    pub rand_addrs: Vec<u64>,
    /// Case study: the class the PE pipeline assigns to each ground-truth
    /// class, and sampled 4 KiB windows of each class's image body.
    pub class_of: Vec<u32>,
    pub class_windows: Vec<Vec<(u64, Vec<u8>)>>,
    /// Host seconds of generate_image + downscale + classify over the
    /// distinct classes.
    pub pe_replay_s: f64,
}

impl Inputs {
    pub fn new(w: Workload, seed: u64, size: Size) -> Inputs {
        let mut inputs = Inputs {
            sys_seed: mix(seed, 1),
            seq_base: (mix(seed, 2) % 16) * GIB,
            rand_addrs: Vec::new(),
            class_of: Vec::new(),
            class_windows: Vec::new(),
            pe_replay_s: 0.0,
        };
        match w {
            Workload::SeqStream => {}
            Workload::Rand4k => {
                let mut rng = SimRng::new(mix(seed, 3));
                inputs.rand_addrs = (0..size.rand_cmds)
                    .map(|_| rng.gen_range(RAND_SPAN / PAGE) * PAGE)
                    .collect();
            }
            Workload::CaseStudy => {
                let t = Instant::now();
                let fmt = ImageFormat::capture();
                let slot = fmt.bytes() as u64;
                for class in 0..NUM_CLASSES as u64 {
                    let (_, px) = generate_image(fmt, class);
                    let small = downscale(&px, fmt, ImageFormat::classify());
                    inputs
                        .class_of
                        .push(classify(&small, ImageFormat::classify()));
                    let windows = [0, slot / 2 / PAGE * PAGE, slot - PAGE]
                        .iter()
                        .map(|&o| (o, px[o as usize..(o + PAGE) as usize].to_vec()))
                        .collect();
                    inputs.class_windows.push(windows);
                }
                inputs.pe_replay_s = t.elapsed().as_secs_f64();
            }
        }
        inputs
    }

    /// Classifications an ideal run of `images` frames gets right.
    pub fn expected_correct(&self, images: u64) -> u64 {
        (0..images)
            .filter(|id| {
                let truth = (id % NUM_CLASSES as u64) as usize;
                self.class_of[truth] as usize == truth
            })
            .count() as u64
    }
}

/// Simulated outputs of one configuration that the references pin.
#[derive(Clone, Copy, Debug, Default)]
pub struct Signature {
    /// Simulated bandwidth of the measured phase, GB/s.
    pub gbps: f64,
    /// Engine events executed, bring-up included.
    pub events: u64,
    /// PCIe payload bytes of the measured phase (Fig 7 accounting).
    pub pcie_bytes: u64,
    /// NVMe bytes read plus written.
    pub nvme_bytes: u64,
    /// Case study: images classified, and classified correctly.
    pub classified: u64,
    pub correct: u64,
}

/// Per-layer counters read from the crates' public statistics.
#[derive(Default)]
pub struct Layer {
    pub nvme_cmds: u64,
    pub nvme_errors: u64,
    pub pcie_tlps: u64,
    /// Bytes the workload stored to (or read from) the SSD.
    pub stored_bytes: u64,
    pub core_cmds: u64,
    pub core_doorbells: u64,
    pub core_cqes: u64,
    pub core_cq_events: u64,
    pub core_lat_p50_us: f64,
    pub core_lat_p99_us: f64,
    pub net_tx_frames: u64,
    pub net_pauses: u64,
    pub net_rx_drops: u64,
    pub spdk_completed: u64,
    pub spdk_busy_share: Option<f64>,
    pub nand_segments: u64,
    pub nand_resident_pages: u64,
    pub host_segments: u64,
    pub host_resident_pages: u64,
}

/// Everything one configuration run produced.
pub struct Outcome {
    pub name: &'static str,
    pub ops: u64,
    /// Requests that completed without error.
    pub ops_ok: u64,
    pub wall_s: f64,
    pub setup_s: f64,
    pub prewarm_s: f64,
    pub sig: Signature,
    /// Failed checks; any entry fails every request of the configuration.
    pub errors: Vec<String>,
    pub rss_retained_mb: f64,
    pub layer: Layer,
    pub probe: Probe,
    /// Calibration factor for this configuration's host times: reference
    /// loop time at tuning over its time around this configuration.
    pub speed: f64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        if self.errors.is_empty() {
            self.ops - self.ops_ok.min(self.ops)
        } else {
            self.ops
        }
    }
}

/// Mutable state a configuration run fills in.
struct Run<'a> {
    inputs: &'a Inputs,
    size: Size,
    out: Outcome,
}

impl Run<'_> {
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.out.errors.push(msg());
        }
    }
}

impl Outcome {
    fn new(name: &'static str, traced: bool) -> Outcome {
        Outcome {
            name,
            ops: 0,
            ops_ok: 0,
            wall_s: 0.0,
            setup_s: 0.0,
            prewarm_s: 0.0,
            sig: Signature::default(),
            errors: Vec::new(),
            rss_retained_mb: 0.0,
            layer: Layer::default(),
            probe: Probe::new(traced),
            speed: 1.0,
        }
    }
}

/// Set-ups per configuration in a measured round: the measured one plus
/// repeats on throwaway systems.
const SETUPS: usize = 9;

/// Run one configuration. A panic inside the simulator fails the
/// configuration instead of ending the benchmark.
pub fn run_config(spec: Spec, inputs: &Inputs, size: Size, traced: bool) -> Outcome {
    // A fresh registry per configuration: the streamer's and the fabric's
    // metric handles then count this configuration only.
    snacc_trace::install_registry(snacc_trace::MetricsRegistry::new());
    let rss0 = probe::rss_mb();
    let mut run = Run {
        inputs,
        size,
        out: Outcome::new(spec.name(), traced),
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match spec {
        Spec::Seq(_, v, dir) => seq(&mut run, v, dir),
        Spec::RandStreamer(_, v, dir) => rand_streamer(&mut run, v, dir),
        Spec::RandSpdk(_, dir) => rand_spdk(&mut run, dir),
        Spec::CaseStreamer(_, v) => case_streamer(&mut run, v),
        Spec::CaseHost(_, gpu) => case_host(&mut run, gpu),
    }));
    run.out.rss_retained_mb = probe::rss_mb() - rss0;
    if let Err(e) = result {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        run.out.errors.push(format!("simulator panicked: {msg}"));
        run.out.ops_ok = 0;
    }
    run.out
}

/// [`run_config`] as a measured round runs it: bracketed by the
/// calibration reference, and with its set-up repeated on throwaway
/// systems (set-up is sub-millisecond; the configuration reports the
/// median of [`SETUPS`]).
pub fn measure_config(spec: Spec, inputs: &Inputs, size: Size, traced: bool) -> Outcome {
    let before = probe::reference_s();
    let mut out = run_config(spec, inputs, size, traced);
    if out.errors.is_empty() {
        let mut setups = vec![out.setup_s];
        setups.extend((1..SETUPS).map(|_| setup_again(spec, inputs, size)));
        out.setup_s = crate::metrics::quartiles(&setups).1;
    }
    out.speed = probe::REFERENCE_S / ((before + probe::reference_s()) / 2.0);
    out
}

/// Repeat a configuration's set-up on a throwaway system; its host time.
fn setup_again(spec: Spec, inputs: &Inputs, size: Size) -> f64 {
    let r = &mut Run {
        inputs,
        size,
        out: Outcome::new(spec.name(), false),
    };
    let (nvme, hostmem) = match spec {
        Spec::Seq(_, v, dir) => {
            let warm = seq_prewarm(r, dir);
            let sys = setup_snacc(r, v, warm);
            (sys.nvme, sys.hostmem)
        }
        Spec::RandStreamer(_, v, dir) => {
            let sys = setup_snacc(r, v, rand_prewarm(dir));
            (sys.nvme, sys.hostmem)
        }
        Spec::CaseStreamer(_, v) => {
            let sys = setup_snacc(r, v, None);
            (sys.nvme, sys.hostmem)
        }
        Spec::RandSpdk(_, dir) => {
            let (host, _) = setup_spdk(r, Some(RAND_QD), rand_prewarm(dir));
            (host.nvme, host.hostmem)
        }
        Spec::CaseHost(_, gpu) => {
            let (host, ..) = setup_case_host(r, gpu);
            (host.nvme, host.hostmem)
        }
    };
    scrub(&nvme, &hostmem);
    r.out.setup_s
}

/// Release a system's functional stores. The component graph is an
/// `Rc` cycle, so dropping the system alone does not free its media.
fn scrub(nvme: &NvmeDeviceHandle, hostmem: &RefCell<snacc_mem::HostMemory>) {
    nvme.with(|d| d.nand_mut().media_mut().clear());
    hostmem.borrow_mut().store_mut().clear();
}

/// An extent to pre-warm: `(addr, len, fill byte)`.
type Prewarm = Option<(u64, u64, u8)>;

fn seq_prewarm(run: &Run, dir: Dir) -> Prewarm {
    (dir == Dir::Read).then_some((run.inputs.seq_base, run.size.seq_bytes, SEQ_FILL))
}

fn rand_prewarm(dir: Dir) -> Prewarm {
    (dir == Dir::Read).then_some((0, RAND_SPAN, RAND_FILL))
}

/// Set-up of a SNAcc configuration: `SnaccSystem::bring_up` and the
/// optional `NandBackend::prewarm`, timed into `setup_s`.
fn setup_snacc(run: &mut Run, v: StreamerVariant, warm: Prewarm) -> SnaccSystem {
    let mut cfg = SystemConfig::snacc(v);
    cfg.seed = run.inputs.sys_seed;
    let t = Instant::now();
    let mut sys = SnaccSystem::bring_up(cfg);
    run.out.setup_s += t.elapsed().as_secs_f64();
    sys.reset_pcie_meters();
    prewarm(run, &sys.nvme, warm);
    sys
}

/// Set-up of an SPDK configuration: `HostSystem::bring_up`,
/// `SpdkNvme::init` and the optional prewarm.
fn setup_spdk(run: &mut Run, qd: Option<u16>, warm: Prewarm) -> (HostSystem, SpdkNvme) {
    let t = Instant::now();
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), run.inputs.sys_seed);
    let spdk = spdk_init(&mut host, qd);
    run.out.setup_s += t.elapsed().as_secs_f64();
    prewarm(run, &host.nvme, warm);
    (host, spdk)
}

fn spdk_init(host: &mut HostSystem, qd: Option<u16>) -> SpdkNvme {
    let cfg = qd.map_or_else(SpdkConfig::default, SpdkConfig::with_queue_depth);
    let spdk = SpdkNvme::new(
        host.fabric.clone(),
        host.hostmem.clone(),
        host.nvme.clone(),
        cfg,
    );
    spdk.init(&mut host.en, layout::SPDK_CQ).expect("SPDK init");
    host.en.run();
    spdk
}

fn prewarm(run: &mut Run, nvme: &NvmeDeviceHandle, warm: Prewarm) {
    let Some((addr, len, fill)) = warm else {
        return;
    };
    let t = Instant::now();
    nvme.with(|d| d.nand_mut().prewarm(addr, len, fill));
    let s = t.elapsed().as_secs_f64();
    run.out.prewarm_s += s;
    run.out.setup_s += s;
}

/// Counters shared by every configuration: engine, NVMe, PCIe, media.
fn read_common(
    run: &mut Run,
    en: &Engine,
    nvme: &NvmeDeviceHandle,
    fabric: &RefCell<PcieFabric>,
    hostmem: &RefCell<snacc_mem::HostMemory>,
) {
    let st = nvme.stats();
    let o = &mut run.out;
    o.sig.events = en.events_executed();
    o.sig.nvme_bytes = st.read_bytes + st.write_bytes;
    o.sig.pcie_bytes = fabric.borrow().total_payload_bytes();
    let l = &mut o.layer;
    l.nvme_cmds = st.read_cmds + st.write_cmds;
    l.nvme_errors = st.errors;
    l.pcie_tlps = snacc_trace::metric_meter("pcie.payload").ops();
    nvme.with(|d| {
        let m = d.nand_mut().media_mut();
        l.nand_segments = m.segment_count() as u64;
        l.nand_resident_pages = m.resident_pages() as u64;
    });
    let mut h = hostmem.borrow_mut();
    l.host_segments = h.store_mut().segment_count() as u64;
    l.host_resident_pages = h.store_mut().resident_pages() as u64;
}

fn read_streamer(run: &mut Run, m: &StreamerMetrics) {
    let l = &mut run.out.layer;
    l.core_cmds = m.cmds_issued.get();
    l.core_doorbells = m.doorbells.get();
    l.core_cqes = m.cqes_consumed.get();
    l.core_cq_events = m.cq_events.get();
    l.core_lat_p50_us = m.cmd_latency_us.quantile(0.5).unwrap_or(0.0);
    l.core_lat_p99_us = m.cmd_latency_us.quantile(0.99).unwrap_or(0.0);
    let (errors, gave_up) = (m.errors.get(), m.gave_up.get());
    run.check(errors == 0 && gave_up == 0, || {
        format!("streamer: {errors} commands completed in error, {gave_up} given up")
    });
}

fn check_nvme_bytes(run: &mut Run, at_least: u64) {
    let got = run.out.sig.nvme_bytes;
    run.check(got >= at_least, || {
        format!("NVMe moved {got} bytes, the workload needs {at_least}")
    });
    run.check(run.out.layer.nvme_errors == 0, || {
        "NVMe command errors".into()
    });
}

/// Compare sampled media pages against what the workload wrote there:
/// page `a` holds `Payload::pattern(a, ..)` bytes.
fn check_pattern_pages(run: &mut Run, nvme: &NvmeDeviceHandle, pages: &[u64]) {
    for &a in pages {
        let got = nvme.with(|d| d.nand_mut().media_mut().read_vec(a, PAGE as usize));
        let want = Payload::pattern(a, PAGE as usize);
        if got[..] != want[..] {
            run.check(false, || {
                format!("media page {a:#x} differs from the data written")
            });
            return;
        }
    }
}

/// Sequential streamer transfers (Fig 4a shape).
fn seq(run: &mut Run, v: StreamerVariant, dir: Dir) {
    let warm = seq_prewarm(run, dir);
    let mut sys = setup_snacc(run, v, warm);
    let base = run.inputs.seq_base;
    let total = run.size.seq_bytes;
    run.out.ops = total.div_ceil(GIB);
    let t = Instant::now();
    let t_sim = sys.en.now();
    let mut off = 0;
    while off < total {
        let n = GIB.min(total - off);
        let ok = match dir {
            Dir::Write => seq_write(&mut run.out.probe, &mut sys, base + off, n),
            Dir::Read => {
                let (got, bad) = seq_read(&mut run.out.probe, &mut sys, base + off, n);
                if bad {
                    run.check(false, || {
                        format!("read data differs from the {SEQ_FILL:#x} fill")
                    });
                }
                got == n
            }
        };
        run.out.probe.run(&mut sys.en);
        run.out.ops_ok += u64::from(ok);
        off += n;
    }
    let dt = sys.en.now().since(t_sim).as_secs_f64();
    run.out.wall_s = t.elapsed().as_secs_f64();
    run.out.sig.gbps = total as f64 / 1e9 / dt;
    run.out.layer.stored_bytes = total;
    if dir == Dir::Write {
        // 16 pages per GiB, spread over the extent.
        let pages: Vec<u64> = (0..16 * run.out.ops)
            .map(|i| base + (i * (total / PAGE) / (16 * run.out.ops)) * PAGE)
            .collect();
        check_pattern_pages(run, &sys.nvme, &pages);
    }
    read_common(run, &sys.en, &sys.nvme, &sys.fabric, &sys.hostmem);
    read_streamer(run, &sys.streamer.metrics());
    check_nvme_bytes(run, total);
    scrub(&sys.nvme, &sys.hostmem);
}

/// One write transfer: header beat, then 64 KiB pattern chunks; returns
/// whether the response token arrived.
fn seq_write(p: &mut Probe, sys: &mut SnaccSystem, addr: u64, len: u64) -> bool {
    let ports = sys.streamer.ports();
    let header = StreamBeat::mid(addr.to_le_bytes().to_vec());
    while !p.push(&ports.wr_in, &mut sys.en, header.clone()) {
        assert!(p.step(&mut sys.en), "stalled pushing write header");
    }
    let chunk = 64 << 10;
    let mut off = 0;
    while off < len {
        let n = chunk.min(len - off);
        // Byte `a` of the stream is pattern_byte(a, 0): any page of the
        // extent can be checked on its own afterwards.
        let beat = StreamBeat {
            data: Payload::pattern(addr + off, n as usize),
            last: off + n == len,
        };
        while !p.push(&ports.wr_in, &mut sys.en, beat.clone()) {
            assert!(p.step(&mut sys.en), "stalled pushing write data");
        }
        off += n;
    }
    loop {
        if p.pop(&ports.wr_resp, &mut sys.en).is_some() {
            return true;
        }
        assert!(p.step(&mut sys.en), "no write response");
    }
}

/// One read transfer; returns the bytes received and whether a sampled
/// beat differed from the pre-warmed fill.
fn seq_read(p: &mut Probe, sys: &mut SnaccSystem, addr: u64, len: u64) -> (u64, bool) {
    let ports = sys.streamer.ports();
    let cmd = encode_read_cmd(addr, len);
    while !p.push(&ports.rd_cmd, &mut sys.en, cmd.clone()) {
        assert!(p.step(&mut sys.en), "stalled pushing read cmd");
    }
    let (mut got, mut beats, mut bad) = (0u64, 0u64, false);
    while got < len {
        match p.pop(&ports.rd_data, &mut sys.en) {
            Some(beat) => {
                got += beat.len() as u64;
                if beats % 256 == 0 {
                    bad |= beat.data.iter().any(|&b| b != SEQ_FILL);
                }
                beats += 1;
                if beat.last {
                    break;
                }
            }
            None => assert!(p.step(&mut sys.en), "read data stalled"),
        }
    }
    (got, bad)
}

/// Every `n`-th address of the random stream, for read-back checks.
fn sampled(addrs: &[u64], n: usize) -> Vec<u64> {
    addrs.iter().step_by(n.max(1)).copied().collect()
}

/// Random 4 KiB commands through the streamer ports, QD 64 (Fig 4b).
fn rand_streamer(run: &mut Run, v: StreamerVariant, dir: Dir) {
    let mut sys = setup_snacc(run, v, rand_prewarm(dir));
    let addrs = &run.inputs.rand_addrs;
    let count = addrs.len() as u64;
    run.out.ops = count;
    let ports = sys.streamer.ports();
    let p = &mut run.out.probe;
    let t = Instant::now();
    let t_sim = sys.en.now();
    let (mut issued, mut done, mut bad) = (0u64, 0u64, false);
    match dir {
        Dir::Read => {
            while done < count {
                // Keep the command FIFO primed.
                while issued < count {
                    let cmd = encode_read_cmd(addrs[issued as usize], PAGE);
                    if !p.push(&ports.rd_cmd, &mut sys.en, cmd) {
                        break;
                    }
                    issued += 1;
                }
                match p.pop(&ports.rd_data, &mut sys.en) {
                    Some(beat) => {
                        if done % 512 == 0 {
                            bad |= beat.data.iter().any(|&b| b != RAND_FILL);
                        }
                        done += u64::from(beat.last);
                    }
                    None => assert!(p.step(&mut sys.en), "random read stalled"),
                }
            }
        }
        Dir::Write => {
            while done < count {
                if issued < count && ports.wr_in.borrow().has_space(PAGE as usize + 8) {
                    let addr = addrs[issued as usize];
                    let hdr = StreamBeat::mid(addr.to_le_bytes().to_vec());
                    if p.push(&ports.wr_in, &mut sys.en, hdr) {
                        let data = StreamBeat::last(Payload::pattern(addr, PAGE as usize));
                        let ok = p.push(&ports.wr_in, &mut sys.en, data);
                        assert!(ok, "space was checked for header and payload");
                        issued += 1;
                        continue;
                    }
                }
                if p.pop(&ports.wr_resp, &mut sys.en).is_some() {
                    done += 1;
                } else {
                    assert!(p.step(&mut sys.en), "random write stalled");
                }
            }
        }
    }
    p.run(&mut sys.en);
    let dt = sys.en.now().since(t_sim).as_secs_f64();
    run.out.wall_s = t.elapsed().as_secs_f64();
    run.out.ops_ok = done;
    run.out.sig.gbps = (count * PAGE) as f64 / 1e9 / dt;
    run.out.layer.stored_bytes = count * PAGE;
    if bad {
        run.check(false, || {
            format!("read data differs from the {RAND_FILL:#x} fill")
        });
    }
    if dir == Dir::Write {
        let pages = sampled(&run.inputs.rand_addrs, 256);
        check_pattern_pages(run, &sys.nvme, &pages);
    }
    read_common(run, &sys.en, &sys.nvme, &sys.fabric, &sys.hostmem);
    read_streamer(run, &sys.streamer.metrics());
    check_nvme_bytes(run, count * PAGE);
    scrub(&sys.nvme, &sys.hostmem);
}

/// The same random command stream through SPDK: a closed loop in which
/// each completion submits the next command.
fn rand_spdk(run: &mut Run, dir: Dir) {
    let (mut host, spdk) = setup_spdk(run, Some(RAND_QD), rand_prewarm(dir));
    let addrs = Rc::new(run.inputs.rand_addrs.clone());
    let count = addrs.len() as u64;
    run.out.ops = count;
    let on = run.out.probe.on;
    let submit_hist = run.out.probe.submit.clone();
    let submit = move |spdk: &SpdkNvme, en: &mut Engine, addr: u64| {
        timed(on, &submit_hist, || match dir {
            Dir::Read => spdk.submit_read(en, addr, PAGE),
            Dir::Write => {
                spdk.submit_write_payload(en, addr, Payload::pattern(addr, PAGE as usize))
            }
        })
        .is_ok()
    };
    let issued = Rc::new(RefCell::new(0u64));
    let ok_done = Rc::new(RefCell::new(0u64));
    {
        let (spdk2, issued2, ok2, a2, submit2) = (
            spdk.clone(),
            issued.clone(),
            ok_done.clone(),
            addrs.clone(),
            submit.clone(),
        );
        spdk.set_completion_hook(move |en, info| {
            *ok2.borrow_mut() += u64::from(info.ok);
            let mut i = issued2.borrow_mut();
            if *i < count && submit2(&spdk2, en, a2[*i as usize]) {
                *i += 1;
            }
        });
    }
    let t = Instant::now();
    let t_sim = host.en.now();
    while *issued.borrow() < count.min(u64::from(RAND_QD)) {
        let i = *issued.borrow();
        assert!(
            submit(&spdk, &mut host.en, addrs[i as usize]),
            "priming submit"
        );
        *issued.borrow_mut() += 1;
    }
    run.out.probe.run(&mut host.en);
    let dt = host.en.now().since(t_sim).as_secs_f64();
    run.out.wall_s = t.elapsed().as_secs_f64();
    let st = spdk.stats();
    run.out.ops_ok = (*ok_done.borrow()).min(st.completed - st.errors);
    run.out.sig.gbps = (count * PAGE) as f64 / 1e9 / dt;
    run.out.layer.stored_bytes = count * PAGE;
    run.out.layer.spdk_completed = st.completed;
    run.out.layer.spdk_busy_share = Some(spdk.cpu_occupancy(t_sim, host.en.now()));
    if dir == Dir::Write {
        let pages = sampled(&addrs, 256);
        check_pattern_pages(run, &host.nvme, &pages);
    }
    read_common(run, &host.en, &host.nvme, &host.fabric, &host.hostmem);
    check_nvme_bytes(run, count * PAGE);
    scrub(&host.nvme, &host.hostmem);
}

/// Times the sink's calls into the streamer's write port. In the case
/// study the `axis::push` calls are made by the database controller, which
/// owns the sink the benchmark hands it; this wrapper is that sink.
struct TimedSink {
    inner: StreamerSink,
    probe: Rc<RefCell<Probe>>,
}

/// The probe is not borrowed across the call: a push can run hooks that
/// reach the sink again.
fn time_push(probe: &RefCell<Probe>, f: impl FnOnce() -> bool) -> bool {
    if !probe.borrow().on {
        return f();
    }
    let t = Instant::now();
    let ok = f();
    let mut p = probe.borrow_mut();
    p.push.record_since(t);
    p.push_calls += 1;
    p.push_refused += u64::from(!ok);
    ok
}

impl CaseSink for TimedSink {
    fn begin(&mut self, en: &mut Engine, addr: u64, len: u64) -> bool {
        time_push(&self.probe, || self.inner.begin(en, addr, len))
    }

    fn push(&mut self, en: &mut Engine, data: Payload, last: bool) -> bool {
        time_push(&self.probe, || self.inner.push(en, data, last))
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn set_wake(&mut self, wake: WakeHook) {
        self.inner.set_wake(wake);
    }
}

type Ctl<S> = Rc<RefCell<DbController<S>>>;
type Mac = Rc<RefCell<EthMac>>;

/// Wire the case-study front (100 G link, RX bridge, database controller
/// with the classification tee, image sender) over `sink`, exactly as the
/// library's front does, keeping the MAC handles for their statistics.
fn case_front<S: CaseSink + 'static>(
    en: &mut Engine,
    cfg: CaseStudyConfig,
    sink: S,
) -> (Ctl<S>, Mac, Mac) {
    let tx = EthMac::new(
        "tx-fpga",
        MacAddr::from_index(1),
        MacConfig::eth_100g(),
        101,
    );
    let rx = EthMac::new(
        "rx-fpga",
        MacAddr::from_index(2),
        MacConfig::eth_100g(),
        102,
    );
    mac::connect(&tx, &rx);
    let rx_ch = AxisChannel::new("rx-stream", 256 << 10);
    RxBridge::install(en, rx.clone(), rx_ch.clone());
    let ctl = DbController::start(en, cfg.clone(), rx_ch, sink);
    ImageSender::start(en, tx.clone(), MacAddr::from_index(2), cfg);
    (ctl, tx, rx)
}

fn case_cfg(run: &Run) -> CaseStudyConfig {
    CaseStudyConfig {
        images: run.size.images,
        ..Default::default()
    }
}

/// Checks shared by every case-study backend: every image persisted and
/// classified, records and sampled image bytes read back from media.
fn case_finish<S: CaseSink + 'static>(
    run: &mut Run,
    ctl: &Ctl<S>,
    macs: (&Mac, &Mac),
    nvme: &NvmeDeviceHandle,
    cfg: &CaseStudyConfig,
    elapsed: SimDuration,
) {
    let images = cfg.images;
    let c = ctl.borrow();
    let image_bytes = c.images_stored * ImageFormat::capture().bytes() as u64;
    let correct = c.records.iter().filter(|r| r.class == r.truth).count() as u64;
    run.out.ops = images;
    run.out.ops_ok = c.images_stored.min(c.records.len() as u64);
    run.out.sig.gbps = image_bytes as f64 / 1e9 / elapsed.as_secs_f64();
    run.out.sig.classified = c.records.len() as u64;
    run.out.sig.correct = correct;
    run.out.layer.stored_bytes = image_bytes;
    let (begun, done) = (c.transfers_begun(), c.sink_completed());
    run.check(begun == done, || {
        format!("{done} of {begun} transfers persisted")
    });
    let want = run.inputs.expected_correct(images);
    run.check(correct == want, || {
        format!("{correct} images classified correctly, expected {want}")
    });
    let class_ok = c
        .records
        .iter()
        .enumerate()
        .all(|(i, r)| r.id == i as u64 && r.truth == (r.id % NUM_CLASSES as u64) as u32);
    run.check(class_ok, || {
        "classification records out of order or mislabelled".into()
    });
    // Sampled windows of every 31st image slot against generate_image.
    let slot = image_slot_bytes(ImageFormat::capture());
    for id in (0..c.images_stored).step_by(31) {
        let class = (id % NUM_CLASSES as u64) as usize;
        for (off, want) in &run.inputs.class_windows[class] {
            let addr = cfg.image_table + id * slot + off;
            let got = nvme.with(|d| d.nand_mut().media_mut().read_vec(addr, PAGE as usize));
            if got != *want {
                run.out
                    .errors
                    .push(format!("image {id} differs on media at offset {off}"));
                break;
            }
        }
    }
    let (tx, rx) = (macs.0.borrow().stats(), macs.1.borrow().stats());
    let l = &mut run.out.layer;
    l.net_tx_frames = tx.tx_frames;
    l.net_pauses = rx.pauses_sent;
    l.net_rx_drops = rx.rx_drops;
    run.check(rx.rx_drops == 0, || {
        format!("{} frames dropped at the receive MAC", rx.rx_drops)
    });
}

/// Case study with the SNAcc streamer as the storage sink.
fn case_streamer(run: &mut Run, v: StreamerVariant) {
    let mut sys = setup_snacc(run, v, None);
    let cfg = case_cfg(run);
    let sink_probe = Rc::new(RefCell::new(Probe::new(run.out.probe.on)));
    let t = Instant::now();
    let start = sys.en.now();
    let sink = TimedSink {
        inner: StreamerSink::new(&mut sys.en, sys.streamer.ports()),
        probe: sink_probe.clone(),
    };
    let (ctl, tx, rx) = case_front(&mut sys.en, cfg.clone(), sink);
    run.out.probe.run(&mut sys.en);
    let elapsed = sys.en.now().since(start);
    run.out.wall_s = t.elapsed().as_secs_f64();
    run.out.probe.merge(&sink_probe.borrow());
    case_finish(run, &ctl, (&tx, &rx), &sys.nvme, &cfg, elapsed);
    read_common(run, &sys.en, &sys.nvme, &sys.fabric, &sys.hostmem);
    read_streamer(run, &sys.streamer.metrics());
    check_nvme_bytes(run, run.out.layer.stored_bytes);
    scrub(&sys.nvme, &sys.hostmem);
}

/// Set-up of a host-staging case-study configuration: the host system,
/// the accelerator FPGA (or NIC plus A100) on the fabric, SPDK init.
fn setup_case_host(run: &mut Run, gpu: bool) -> (HostSystem, SpdkNvme, NodeId, Option<NodeId>) {
    let t = Instant::now();
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), run.inputs.sys_seed);
    let (nic, gpu_node) = {
        let mut fab = host.fabric.borrow_mut();
        if gpu {
            let nic = fab.add_device("alveo-nic", PcieLinkConfig::alveo_u280());
            let g = fab.add_device("a100", PcieLinkConfig::new(PcieGen::Gen4, 16));
            let bar = Rc::new(RefCell::new(ScratchTarget::new(
                "a100-hbm-window",
                SimDuration::from_ns(250),
            )));
            fab.map_region(g, AddrRange::new(GPU_BAR, 256 << 20), bar);
            (nic, Some(g))
        } else {
            (
                fab.add_device("alveo-u280", PcieLinkConfig::alveo_u280()),
                None,
            )
        }
    };
    let spdk = spdk_init(&mut host, None);
    run.out.setup_s += t.elapsed().as_secs_f64();
    host.fabric.borrow_mut().reset_meters();
    (host, spdk, nic, gpu_node)
}

/// Case study through host staging and SPDK; with `gpu`, the GPU
/// reference (NIC-only FPGA, classification on an A100 after H2D).
fn case_host(run: &mut Run, gpu: bool) {
    let (mut host, spdk, nic, gpu_node) = setup_case_host(run, gpu);
    let cfg = case_cfg(run);
    let t = Instant::now();
    let start = host.en.now();
    let (fabric, hostmem) = (host.fabric.clone(), host.hostmem.clone());
    let (sink, front_cfg) = match gpu_node {
        None => (
            SpdkSink::new(&mut host.en, fabric, hostmem, nic, spdk.clone()),
            cfg.clone(),
        ),
        Some(gpu_node) => {
            let model = snacc_apps::gpu::GpuModel::default();
            let stage = GpuStage {
                gpu_node,
                gpu_bar: GPU_BAR,
                downscale_cost: model.downscale_cost,
                kernel_per_image: model.kernel_per_image,
                batch_overhead: model.batch_overhead,
                h2d_bytes_per_image: ImageFormat::classify().bytes() as u64,
                d2h_bytes_per_image: 16,
                cpu: snacc_spdk::CpuCore::new("gpu-pipeline"),
            };
            let sink = SpdkSink::with_gpu(&mut host.en, fabric, hostmem, nic, spdk.clone(), stage);
            // Classification happens on the GPU: the FPGA front's
            // classifier stage is a zero-cost pass-through.
            let mut front = cfg.clone();
            front.classifier_fps = 1e12;
            front.classifier_fifo = usize::MAX / 2;
            (sink, front)
        }
    };
    let handle = sink.clone();
    let (ctl, tx, rx) = case_front(&mut host.en, front_cfg, sink);
    run.out.probe.run(&mut host.en);
    // Drive the staged remainder to the SSD.
    finalize(&handle, &mut host.en);
    let end = host.en.now();
    run.out.wall_s = t.elapsed().as_secs_f64();
    case_finish(run, &ctl, (&tx, &rx), &host.nvme, &cfg, end.since(start));
    let st = spdk.stats();
    run.out.layer.spdk_completed = st.completed;
    run.out.layer.spdk_busy_share = Some(spdk.cpu_occupancy(start, end));
    read_common(run, &host.en, &host.nvme, &host.fabric, &host.hostmem);
    check_nvme_bytes(run, run.out.layer.stored_bytes);
    scrub(&host.nvme, &host.hostmem);
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacc_apps::gpu::{run_gpu_case_study, GpuModel};
    use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyReport};
    use snacc_apps::spdk_ref::run_spdk_case_study;

    /// The media read-back check is not vacuous: one flipped byte in a
    /// sampled page fails it.
    #[test]
    fn media_check_catches_a_corrupted_page() {
        let size = Size::sample();
        let inputs = Inputs::new(Workload::Rand4k, 1, size);
        let mut run = Run {
            inputs: &inputs,
            size,
            out: Outcome::new("check", false),
        };
        let sys = setup_snacc(&mut run, StreamerVariant::Uram, None);
        let pages = [0x1000u64, 0x5000];
        sys.nvme.with(|d| {
            for &a in &pages {
                let data = Payload::pattern(a, PAGE as usize);
                d.nand_mut().media_mut().write_payload(a, data);
            }
        });
        check_pattern_pages(&mut run, &sys.nvme, &pages);
        assert!(run.out.errors.is_empty(), "{:?}", run.out.errors);
        let bad = !snacc_sim::bytes::pattern_byte(0x5000, 17);
        sys.nvme
            .with(|d| d.nand_mut().media_mut().write(0x5000 + 17, &[bad]));
        check_pattern_pages(&mut run, &sys.nvme, &pages);
        assert_eq!(run.out.errors.len(), 1);
        scrub(&sys.nvme, &sys.hostmem);
    }

    /// The benchmark wires the case-study front itself (to hold the MAC
    /// handles and time the sink); it must simulate exactly what the
    /// library's front does.
    #[test]
    fn case_front_matches_the_library() {
        let w = Workload::CaseStudy;
        let size = Size::sample();
        let inputs = Inputs::new(w, 3, size);
        let cfg = CaseStudyConfig {
            images: size.images,
            ..Default::default()
        };
        let library = |spec: &Spec| -> CaseStudyReport {
            match *spec {
                Spec::CaseStreamer(_, v) => {
                    let mut c = SystemConfig::snacc(v);
                    c.seed = inputs.sys_seed;
                    run_snacc_case_study(&mut SnaccSystem::bring_up(c), cfg.clone())
                }
                Spec::CaseHost(_, false) => run_spdk_case_study(cfg.clone(), inputs.sys_seed),
                Spec::CaseHost(_, true) => {
                    run_gpu_case_study(cfg.clone(), GpuModel::default(), inputs.sys_seed)
                }
                _ => unreachable!("case-study configurations only"),
            }
        };
        for spec in w.configs() {
            let ours = run_config(spec, &inputs, size, true);
            assert!(ours.errors.is_empty(), "{}: {:?}", spec.name(), ours.errors);
            let lib = library(&spec);
            let s = ours.sig;
            assert_eq!(
                s.gbps.to_bits(),
                lib.bandwidth_gbps.to_bits(),
                "{}",
                spec.name()
            );
            assert_eq!(s.pcie_bytes, lib.pcie_bytes, "{}", spec.name());
            assert_eq!((s.classified, s.correct), (lib.classified, lib.correct));
            assert!(ours.layer.net_tx_frames > 0 && ours.layer.net_rx_drops == 0);
        }
    }
}
