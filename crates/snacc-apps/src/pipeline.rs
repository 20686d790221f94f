//! The FPGA case-study pipeline (paper Fig 5).
//!
//! Dataflow: 100 G Ethernet RX → RX bridge → database controller, which
//! tees the stream: original image bytes go to the storage sink, while
//! the classification path (downscaler PE → FINN-style classifier PE)
//! produces one record per image; records are packed into 4 KiB pages
//! and stored alongside the images. Backpressure propagates from the
//! storage sink all the way to the Ethernet sender via 802.3x PAUSE.
//!
//! The same pipeline front drives three storage backends through
//! [`CaseSink`]: the SNAcc streamer (autonomous, Sec 6.1 "FPGA"), the
//! SPDK host path ([`crate::spdk_ref`]), and — with a different front —
//! the GPU reference ([`crate::gpu`]).

use crate::images::{
    class_body, class_image, classify, content_key, Downscaler, ImageFormat, ImageHeader,
    HEADER_BYTES, IMAGE_MAGIC, NUM_CLASSES,
};
use snacc_core::streamer::{encode_write_addr, UserPorts};
use snacc_faults::FaultPlan;
use snacc_fpga::axis::{self, AxisChannel, StreamBeat};
use snacc_mem::HostMemory;
use snacc_net::frame::MacAddr;
use snacc_net::mac::{self, EthMac, MacConfig};
use snacc_net::traffic::FrameSender;
use snacc_nvme::NvmeDeviceHandle;
use snacc_sim::{Engine, Payload, PayloadQueue, SimDuration, SimTime};
use snacc_trace as trace;
use std::cell::RefCell;
use std::rc::Rc;

/// Case-study parameters.
#[derive(Clone, Debug)]
pub struct CaseStudyConfig {
    /// Number of frames to stream (the paper uses 16384).
    pub images: u64,
    /// Classifier throughput in frames/s (FINN MobileNet-V1 class).
    pub classifier_fps: f64,
    /// Classifier input FIFO depth in images.
    pub classifier_fifo: usize,
    /// SSD byte address of the image table.
    pub image_table: u64,
}

/// SSD byte address of the classification-record table: the 1 TB mark,
/// far from the image table.
pub const RECORD_TABLE: u64 = 1 << 40;
/// Ethernet frame payload (jumbo frames on the capture link).
pub const FRAME_PAYLOAD: usize = 8192;

impl Default for CaseStudyConfig {
    fn default() -> Self {
        CaseStudyConfig {
            images: 16384,
            classifier_fps: 3000.0,
            classifier_fifo: 4,
            image_table: 0,
        }
    }
}

/// Bytes reserved per image in the image table (page-aligned slot).
pub fn image_slot_bytes(fmt: ImageFormat) -> u64 {
    (fmt.bytes() as u64).div_ceil(4096) * 4096
}

/// A classification record (16 B, 256 per table page).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassRecord {
    /// Frame id.
    pub id: u64,
    /// Predicted class.
    pub class: u32,
    /// Ground truth (carried for verification).
    pub truth: u32,
}

impl ClassRecord {
    /// Encode to the 16-byte table format.
    pub fn encode(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[0..8].copy_from_slice(&self.id.to_le_bytes());
        b[8..12].copy_from_slice(&self.class.to_le_bytes());
        b[12..16].copy_from_slice(&self.truth.to_le_bytes());
        b
    }

    /// Decode from the table format.
    pub fn decode(b: &[u8]) -> ClassRecord {
        ClassRecord {
            id: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            class: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            truth: u32::from_le_bytes(b[12..16].try_into().unwrap()),
        }
    }
}

/// Shared wake callback installed into a [`CaseSink`].
pub type WakeHook = Rc<RefCell<dyn FnMut(&mut Engine)>>;

/// Storage backend abstraction for the database controller.
pub trait CaseSink {
    /// Begin a write transfer of `len` bytes at SSD address `addr`.
    /// Returns `false` when the sink cannot accept a new transfer yet.
    fn begin(&mut self, en: &mut Engine, addr: u64, len: u64) -> bool;
    /// Push payload bytes of the current transfer (`last` closes it).
    /// Returns `false` on backpressure — retry after a wake.
    fn push(&mut self, en: &mut Engine, data: Payload, last: bool) -> bool;
    /// Transfers fully persisted.
    fn completed(&self) -> u64;
    /// Install the wake callback (sink has space again / made progress).
    fn set_wake(&mut self, wake: WakeHook);
}

/// [`CaseSink`] over the SNAcc streamer's user ports.
pub struct StreamerSink {
    ports: UserPorts,
    responses: Rc<RefCell<u64>>,
}

impl StreamerSink {
    /// Wrap the streamer's write interfaces.
    pub fn new(_en: &mut Engine, ports: UserPorts) -> Self {
        let responses = Rc::new(RefCell::new(0u64));
        let r2 = responses.clone();
        let resp_ch = Rc::downgrade(&ports.wr_resp);
        // Popping responses can re-arm the streamer's retirement (its
        // space hook), which may push more responses — defer through the
        // event queue so the hook never re-enters itself.
        ports.wr_resp.borrow_mut().set_data_hook(move |en| {
            let ch = resp_ch
                .upgrade()
                .expect("wr_resp hook -> wr_resp: the channel was dropped");
            let r = r2.clone();
            en.schedule_now(move |en| {
                while axis::pop(&ch, en).is_some() {
                    *r.borrow_mut() += 1;
                }
            });
        });
        StreamerSink { ports, responses }
    }
}

impl Drop for StreamerSink {
    /// The streamer outlives the sink: take the sink's hooks off its
    /// ports so later users of the ports see neither the dead controller's
    /// wake nor responses swallowed by the sink's counter.
    fn drop(&mut self) {
        self.ports.wr_in.borrow_mut().set_space_hook(|_| {});
        self.ports.wr_resp.borrow_mut().set_data_hook(|_| {});
    }
}

impl CaseSink for StreamerSink {
    fn begin(&mut self, en: &mut Engine, addr: u64, _len: u64) -> bool {
        axis::push(&self.ports.wr_in, en, encode_write_addr(addr, false))
    }

    fn push(&mut self, en: &mut Engine, data: Payload, last: bool) -> bool {
        axis::push(&self.ports.wr_in, en, StreamBeat { data, last })
    }

    fn completed(&self) -> u64 {
        *self.responses.borrow()
    }

    fn set_wake(&mut self, wake: WakeHook) {
        let w = wake.clone();
        self.ports
            .wr_in
            .borrow_mut()
            .set_space_hook(move |en| (w.borrow_mut())(en));
    }
}

/// The database controller + classification path, driving a [`CaseSink`].
pub struct DbController<S: CaseSink> {
    cfg: CaseStudyConfig,
    rx: Rc<RefCell<AxisChannel>>,
    sink: S,
    inbuf: PayloadQueue,
    state: DbState,
    /// Image segments accumulated for the classification tee — shared
    /// windows of the stream payloads, not copies.
    tee: Vec<Payload>,
    /// Images queued at the classifier (bounded FIFO).
    classifier_queue: usize,
    classifier_free_at: SimTime,
    /// Packed records awaiting a page flush.
    record_page: Vec<u8>,
    /// Record pages flushed to the record table.
    pub record_pages_written: u64,
    /// Total bytes consumed from the RX stream (diagnostic).
    taken_total: u64,
    /// Header resynchronisations performed (lossy campaigns).
    resyncs: u64,
    /// Bytes discarded while hunting for the next header magic.
    bytes_skipped: u64,
    /// The capture link loses frames ([`FaultPlan::loses_frames`]): on a
    /// header desync, scan forward to the next image magic instead of
    /// panicking, since a lossless link that desyncs is a model bug.
    lossy_link: bool,
    /// Totals.
    pub images_stored: u64,
    pub records: Vec<ClassRecord>,
    transfers_begun: u64,
    busy: bool,
}

enum DbState {
    Header,
    /// (header, remaining payload bytes, transfer begun?)
    Image(ImageHeader, u64, bool),
    /// Pending record-page flush of this many bytes.
    FlushRecords(Option<Vec<u8>>),
    /// Frame loss desynced the stream: scan for the next header magic.
    Resync,
}

impl<S: CaseSink + 'static> DbController<S> {
    /// Build the controller and arm its hooks.
    pub fn start(
        _en: &mut Engine,
        cfg: CaseStudyConfig,
        rx: Rc<RefCell<AxisChannel>>,
        sink: S,
    ) -> Rc<RefCell<DbController<S>>> {
        let ctl = Rc::new(RefCell::new(DbController {
            cfg,
            rx: rx.clone(),
            inbuf: PayloadQueue::new(),
            state: DbState::Header,
            tee: Vec::new(),
            classifier_queue: 0,
            classifier_free_at: SimTime::ZERO,
            record_page: Vec::new(),
            record_pages_written: 0,
            taken_total: 0,
            resyncs: 0,
            bytes_skipped: 0,
            lossy_link: false,
            images_stored: 0,
            records: Vec::new(),
            transfers_begun: 0,
            busy: false,
            sink,
        }));
        // Hooks: new RX data and sink space both re-pump. Both hooks can
        // fire while the controller is mid-step (its own pops/pushes
        // trigger them), so they defer through the event queue instead of
        // re-entering synchronously.
        // The controller owns `rx` and the sink, so both hooks reach it
        // through a `Weak`.
        let repump = |edge: &'static str| {
            let me = Rc::downgrade(&ctl);
            move |en: &mut Engine| {
                let c = me
                    .upgrade()
                    .unwrap_or_else(|| panic!("{edge} -> controller: the controller was dropped"));
                en.schedule_now(move |en| Self::pump(&c, en));
            }
        };
        rx.borrow_mut().set_data_hook(repump("rx data hook"));
        let wake: WakeHook = Rc::new(RefCell::new(repump("sink wake hook")));
        ctl.borrow_mut().sink.set_wake(wake);
        ctl
    }

    /// Transfers handed to the sink.
    pub fn transfers_begun(&self) -> u64 {
        self.transfers_begun
    }

    /// Completed transfers at the sink.
    pub fn sink_completed(&self) -> u64 {
        self.sink.completed()
    }

    fn refill(&mut self, en: &mut Engine, want: usize) {
        while self.inbuf.len() < want {
            let beat = {
                let rx = self.rx.clone();
                axis::pop(&rx, en)
            };
            match beat {
                Some(b) => self.inbuf.push_back(b.data),
                None => break,
            }
        }
    }

    fn take(&mut self, n: usize) -> Payload {
        self.taken_total += n as u64;
        self.inbuf.take(n)
    }

    /// Drive the state machine as far as currently possible.
    pub fn pump(rc: &Rc<RefCell<DbController<S>>>, en: &mut Engine) {
        if rc.borrow().busy {
            return;
        }
        rc.borrow_mut().busy = true;
        loop {
            let progressed = Self::step(rc, en);
            if !progressed {
                break;
            }
        }
        rc.borrow_mut().busy = false;
    }

    /// One state-machine step; returns whether progress was made.
    fn step(rc: &Rc<RefCell<DbController<S>>>, en: &mut Engine) -> bool {
        // Classifier completion is scheduled only after the controller
        // borrow is released (SL006): the scheduled closure re-borrows.
        let mut classify_done: Option<SimTime> = None;
        let mut c = rc.borrow_mut();
        let progressed = match &mut c.state {
            DbState::Header => {
                // Backpressure point: do not start a new image while the
                // classifier FIFO is full.
                if c.classifier_queue >= c.cfg.classifier_fifo {
                    return false;
                }
                c.refill(en, HEADER_BYTES);
                if c.inbuf.len() < HEADER_BYTES {
                    return false;
                }
                let hdr_bytes = c.take(HEADER_BYTES);
                let fmt = ImageFormat::capture();
                let decoded = ImageHeader::decode(&hdr_bytes);
                // A bad magic — or a magic-shaped run of pixels with an
                // impossible length — means the byte stream lost frames.
                let valid = decoded.is_some_and(|h| h.len as usize == fmt.bytes());
                if !valid {
                    if !c.lossy_link {
                        panic!(
                            "header desync after {} images ({} record pages): taken={} expect={} bytes {:02x?}",
                            c.images_stored,
                            c.record_pages_written,
                            c.taken_total,
                            c.images_stored * (fmt.bytes() as u64 + HEADER_BYTES as u64)
                                + HEADER_BYTES as u64,
                            &hdr_bytes[..]
                        );
                    }
                    // Skip one byte and hunt for the next real header.
                    c.resyncs += 1;
                    trace::metric_counter("faults.pipeline.resyncs").inc();
                    c.bytes_skipped += 1;
                    let rest = hdr_bytes.slice(1..HEADER_BYTES);
                    c.inbuf.push_front(rest);
                    c.state = DbState::Resync;
                    return true;
                }
                let hdr = decoded.expect("validated above");
                c.tee.clear();
                c.state = DbState::Image(hdr, hdr.len as u64, false);
                true
            }
            DbState::Image(hdr, remaining, begun) => {
                let hdr = *hdr;
                if !*begun {
                    let slot = image_slot_bytes(ImageFormat::capture());
                    let addr = c.cfg.image_table + hdr.id * slot;
                    let len = hdr.len as u64;
                    if !c.sink.begin(en, addr, len) {
                        return false;
                    }
                    let DbState::Image(_, _, begun) = &mut c.state else {
                        unreachable!()
                    };
                    *begun = true;
                    c.transfers_begun += 1;
                    return true;
                }
                // Forward up to 16 KiB of payload.
                let rem = *remaining;
                c.refill(en, 16384.min(rem as usize));
                let n = (c.inbuf.len() as u64).min(rem).min(16384);
                if n == 0 {
                    return false;
                }
                let chunk = c.take(n as usize);
                let last = n == rem;
                if !c.sink.push(en, chunk.clone(), last) {
                    // Refused: put the segment back (front) and retry later.
                    c.inbuf.push_front(chunk);
                    return false;
                }
                // Tee: share the segment with the classification path.
                c.tee.push(chunk);
                let DbState::Image(_, remaining, _) = &mut c.state else {
                    unreachable!()
                };
                *remaining -= n;
                if *remaining > 0 {
                    return true;
                }
                // Image complete: classify (tee path) and store the record.
                c.images_stored += 1;
                c.classifier_queue += 1;
                let tee = std::mem::take(&mut c.tee);
                let key = content_key(&tee, hdr.len as usize);
                // An intact image is its class's table image: same key.
                let known = class_image(hdr.truth)
                    .filter(|e| e.key == key)
                    .map(|e| e.class);
                let class = known.unwrap_or_else(|| {
                    // Damaged content (a fault campaign): stream the tee's
                    // parts through the downscaler. A part of a lazy class
                    // body materialises that body, once per thread;
                    // generating its bytes per image instead would cost
                    // more than it keeps.
                    let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
                    let mut small = Downscaler::new(cap, cls);
                    for part in &tee {
                        small.feed(part.as_slice());
                    }
                    classify(&small.finish(), cls)
                });
                drop(tee);
                // The classifier PE finishes one image per 1/fps.
                let svc = SimDuration::from_us_f64(1e6 / c.cfg.classifier_fps);
                let start = c.classifier_free_at.max(en.now());
                c.classifier_free_at = start + svc;
                classify_done = Some(c.classifier_free_at);
                let rec = ClassRecord {
                    id: hdr.id,
                    class,
                    truth: hdr.truth,
                };
                c.records.push(rec);
                c.record_page.extend_from_slice(&rec.encode());
                if c.record_page.len() >= 4096 {
                    let page = std::mem::take(&mut c.record_page);
                    c.state = DbState::FlushRecords(Some(page));
                } else {
                    c.state = DbState::Header;
                }
                true
            }
            DbState::FlushRecords(page) => {
                let data = page.take().expect("flush pending");
                let addr = RECORD_TABLE + c.record_pages_written * 4096;
                if !c.sink.begin(en, addr, data.len() as u64) {
                    let DbState::FlushRecords(p) = &mut c.state else {
                        unreachable!()
                    };
                    *p = Some(data);
                    return false;
                }
                c.transfers_begun += 1;
                let ok = c.sink.push(en, Payload::from_vec(data), true);
                assert!(ok, "record page push after begin must fit");
                c.record_pages_written += 1;
                c.state = DbState::Header;
                true
            }
            DbState::Resync => {
                // Discard bytes until the next header magic, scanning the
                // staged segments in place.
                c.refill(en, 64 << 10);
                let avail = c.inbuf.len();
                if avail < 4 {
                    return false;
                }
                match c.inbuf.find(&IMAGE_MAGIC.to_le_bytes()) {
                    Some(p) => {
                        c.bytes_skipped += p as u64;
                        c.inbuf.skip(p);
                        c.state = DbState::Header;
                    }
                    None => {
                        // Keep the last 3 bytes: a magic may straddle
                        // them and the next refill.
                        c.bytes_skipped += (avail - 3) as u64;
                        c.inbuf.skip(avail - 3);
                    }
                }
                true
            }
        };
        drop(c);
        if let Some(at) = classify_done {
            let rc2 = rc.clone();
            en.schedule_at(at, move |en| {
                rc2.borrow_mut().classifier_queue -= 1;
                Self::pump(&rc2, en);
            });
        }
        progressed
    }
}

/// The Ethernet image source: a second FPGA streaming frames at line rate
/// (paper Sec 6.1: "sent by another FPGA as transmitter in our setup").
pub struct ImageSender;

impl ImageSender {
    /// Send `cfg.images` images from `mac_rc` to `dst`, each a fresh
    /// header and its class table's body, so frames after the first are
    /// zero-copy windows of the body.
    pub fn start(en: &mut Engine, mac_rc: Rc<RefCell<EthMac>>, dst: MacAddr, cfg: CaseStudyConfig) {
        let mut ids = 0..cfg.images;
        FrameSender::start(en, &mac_rc, dst, FRAME_PAYLOAD, move || {
            let id = ids.next()?;
            let class = (id % NUM_CLASSES as u64) as u32;
            // The generator keys its pattern (and truth) on id % classes,
            // so the table body is bit-identical to generate_image(id).
            let body = class_body(class);
            let hdr = ImageHeader {
                id,
                len: body.len() as u32,
                truth: class,
            };
            Some((Payload::from(hdr.encode()), body))
        });
    }
}

/// RX bridge: MAC frames → AXIS byte stream, with backpressure (frames
/// stay in the MAC RX buffer — and eventually PAUSE the sender — when the
/// pipeline stalls).
pub struct RxBridge;

impl RxBridge {
    /// Install the bridge between `mac` and `out`.
    pub fn install(_en: &mut Engine, mac_rc: Rc<RefCell<EthMac>>, out: Rc<RefCell<AxisChannel>>) {
        // The MAC and the channel own the bridge through their hooks.
        let (m, o) = (Rc::downgrade(&mac_rc), Rc::downgrade(&out));
        let pump = Rc::new(RefCell::new(move |en: &mut Engine| {
            let m = m.upgrade().expect("rx bridge -> MAC: the MAC was dropped");
            let o = o
                .upgrade()
                .expect("rx bridge -> channel: the channel was dropped");
            loop {
                let len = match m.borrow().rx_peek_bytes() {
                    Some(l) => l as usize,
                    None => return,
                };
                if !o.borrow().has_space(len) {
                    return;
                }
                let Some(frame) = mac::pop_frame(&m, en) else {
                    return;
                };
                let ok = axis::push(&o, en, StreamBeat::mid(frame.payload));
                debug_assert!(ok);
            }
        }));
        let p1 = pump.clone();
        mac_rc
            .borrow_mut()
            .set_rx_hook(move |en| (p1.borrow_mut())(en));
        let p2 = pump.clone();
        out.borrow_mut()
            .set_space_hook(move |en| (p2.borrow_mut())(en));
    }
}

/// Results of a case-study run.
#[derive(Clone, Debug)]
pub struct CaseStudyReport {
    /// Images persisted.
    pub images: u64,
    /// Payload bytes persisted (images only).
    pub image_bytes: u64,
    /// Wall simulated time from first frame to last persisted transfer.
    pub elapsed: SimDuration,
    /// Storage bandwidth (image payload / elapsed) in GB/s.
    pub bandwidth_gbps: f64,
    /// Frames per second.
    pub fps: f64,
    /// Classifications matching ground truth.
    pub correct: u64,
    /// Total classifications.
    pub classified: u64,
    /// PCIe bytes moved during the run (Fig 7 metric; caller resets
    /// meters before the run).
    pub pcie_bytes: u64,
    /// Header resynchronisations under frame loss (0 when lossless).
    pub resyncs: u64,
    /// Bytes discarded while resynchronising (0 when lossless).
    pub bytes_skipped: u64,
    /// Bytes the SSD's NAND media holds in materialised buffers when the
    /// run finishes ([`snacc_mem::SegmentMemory::backing_bytes`]).
    pub nand_backing_bytes: u64,
    /// The same gauge for host memory.
    pub host_backing_bytes: u64,
}

/// The two MACs of the capture link (sender side, receiver side). The
/// image sender and the RX bridge hang off their hooks, so the front
/// lives as long as the caller holds these.
pub type CaptureLink = [Rc<RefCell<EthMac>>; 2];

/// Wire the common pipeline front (100 G link, RX bridge, database
/// controller + classification path, image sender) over an arbitrary
/// storage sink. A fault plan's Ethernet faults (loss, corruption, PAUSE
/// storms) go onto the receive MAC before traffic starts; if the plan
/// loses frames, the controller resyncs on a desynced stream. The caller
/// keeps the returned link alive, runs the engine and builds the report.
pub fn run_case_study_front<S: CaseSink + 'static>(
    en: &mut Engine,
    cfg: CaseStudyConfig,
    sink: S,
    plan: Option<&FaultPlan>,
) -> (Rc<RefCell<DbController<S>>>, CaptureLink) {
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
    if let Some(n) = plan.and_then(|p| p.net) {
        mac::install_faults(&rx, en, n);
    }
    let rx_ch = AxisChannel::new("rx-stream", 256 << 10);
    RxBridge::install(en, rx.clone(), rx_ch.clone());
    let ctl = DbController::start(en, cfg.clone(), rx_ch, sink);
    ctl.borrow_mut().lossy_link = plan.is_some_and(FaultPlan::loses_frames);
    ImageSender::start(en, tx.clone(), MacAddr::from_index(2), cfg);
    (ctl, [tx, rx])
}

impl<S: CaseSink + 'static> DbController<S> {
    /// The report of a finished run: `elapsed` from the first frame to the
    /// last persisted transfer, the PCIe bytes moved meanwhile, and the
    /// backing gauges of the SSD's NAND and of host memory. Unless the
    /// capture link loses frames, every image must have been stored and
    /// every transfer persisted; under loss the report counts what landed.
    pub(crate) fn report(
        &self,
        elapsed: SimDuration,
        pcie_bytes: u64,
        nvme: &NvmeDeviceHandle,
        hostmem: &RefCell<HostMemory>,
    ) -> CaseStudyReport {
        if !self.lossy_link {
            assert_eq!(self.images_stored, self.cfg.images);
            assert_eq!(
                self.sink_completed(),
                self.transfers_begun,
                "all transfers must persist"
            );
        }
        let image_bytes = self.images_stored * ImageFormat::capture().bytes() as u64;
        CaseStudyReport {
            images: self.images_stored,
            image_bytes,
            elapsed,
            bandwidth_gbps: image_bytes as f64 / 1e9 / elapsed.as_secs_f64(),
            fps: self.images_stored as f64 / elapsed.as_secs_f64(),
            correct: self.records.iter().filter(|r| r.class == r.truth).count() as u64,
            classified: self.records.len() as u64,
            pcie_bytes,
            resyncs: self.resyncs,
            bytes_skipped: self.bytes_skipped,
            nand_backing_bytes: nvme.with(|d| d.nand_mut().media_mut().backing_bytes()),
            host_backing_bytes: hostmem.borrow_mut().store_mut().backing_bytes(),
        }
    }
}

/// Run the SNAcc (FPGA) configuration of the case study on a brought-up
/// system, under the system's fault campaign if it has one. Returns the
/// report; the SSD contents can be verified by the caller.
pub fn run_snacc_case_study(
    sys: &mut crate::system::SnaccSystem,
    cfg: CaseStudyConfig,
) -> CaseStudyReport {
    sys.reset_pcie_meters();
    let start = sys.en.now();
    let sink = StreamerSink::new(&mut sys.en, sys.streamer.ports());
    let plan = sys.cfg.faults.as_ref();
    let (ctl, _link) = run_case_study_front(&mut sys.en, cfg, sink, plan);
    sys.en.run();
    let elapsed = sys.en.now().since(start);
    let report = ctl
        .borrow()
        .report(elapsed, sys.pcie_bytes(), &sys.nvme, &sys.hostmem);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::images::generate_image;
    use crate::system::{SnaccSystem, SystemConfig};
    use snacc_core::config::StreamerVariant;

    #[test]
    fn record_roundtrip() {
        let r = ClassRecord {
            id: 7,
            class: 3,
            truth: 3,
        };
        assert_eq!(ClassRecord::decode(&r.encode()), r);
    }

    #[test]
    fn lossy_case_study_degrades_gracefully() {
        // 0.2% frame loss on the capture link; the controller resyncs on
        // the image magic instead of panicking, and the report counts
        // what actually landed.
        let plan = FaultPlan::parse("seed = 9\n[net]\ndrop_rate = 0.002").unwrap();
        let mut sys = SnaccSystem::bring_up(SystemConfig {
            faults: Some(plan),
            ..SystemConfig::snacc(StreamerVariant::Uram)
        });
        let cfg = CaseStudyConfig {
            images: 4,
            ..Default::default()
        };
        let report = run_snacc_case_study(&mut sys, cfg);
        assert!(
            report.resyncs > 0,
            "seeded plan must drop frames: {report:?}"
        );
        assert!(report.bytes_skipped > 0);
        assert!(report.images < 4, "loss must cost images: {report:?}");
    }

    #[test]
    fn pause_storm_case_study_completes() {
        // The storm's default start (0) counts from when the front installs
        // it, a few microseconds in, so its first PAUSE is not in the past.
        // It only throttles the link: every image still lands.
        let plan = FaultPlan::parse("seed = 1\n[net]\npause_storm_count = 3").unwrap();
        let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
        let cfg = CaseStudyConfig {
            images: 4,
            ..Default::default()
        };
        let sink = StreamerSink::new(&mut sys.en, sys.streamer.ports());
        let (ctl, [tx, _rx]) = run_case_study_front(&mut sys.en, cfg, sink, Some(&plan));
        sys.en.run();
        assert_eq!(ctl.borrow().images_stored, 4);
        assert!(tx.borrow().stats().pauses_received >= 3);
    }

    #[test]
    fn flaky_ssd_case_study_recovers() {
        // The shipped flaky-SSD plan: transient NVMe errors under a
        // 3-attempt retry policy. Every injected error is either retried
        // or given up — and with 5% error over a short run, recovery
        // should be total.
        let mut sys = SnaccSystem::bring_up(SystemConfig {
            faults: Some(
                FaultPlan::load(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../plans/flaky_ssd.toml"
                ))
                .expect("shipped plan parses"),
            ),
            ..SystemConfig::snacc(StreamerVariant::Uram)
        });
        let cfg = CaseStudyConfig {
            images: 4,
            ..Default::default()
        };
        let report = run_snacc_case_study(&mut sys, cfg);
        assert_eq!(report.images, 4);
        let faults = sys.nvme.fault_stats().errors;
        let m = sys.streamer.metrics();
        assert!(faults > 0, "plan must inject");
        assert_eq!(
            faults,
            m.retries.get() + m.gave_up.get(),
            "every injected fault is retried or given up"
        );
        assert!(m.recovered.get() > 0, "retries must recover commands");
    }

    #[test]
    fn back_to_back_case_studies_on_one_thread_agree() {
        // The second run finds the class table the first one built; what
        // it stores and reports must not change.
        let run = || {
            let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
            let cfg = CaseStudyConfig {
                images: 6,
                ..Default::default()
            };
            sys.reset_pcie_meters();
            let start = sys.en.now();
            let sink = StreamerSink::new(&mut sys.en, sys.streamer.ports());
            let (ctl, _link) = run_case_study_front(&mut sys.en, cfg, sink, None);
            sys.en.run();
            let elapsed = sys.en.now().since(start);
            let c = ctl.borrow();
            let report = c.report(elapsed, sys.pcie_bytes(), &sys.nvme, &sys.hostmem);
            (c.records.clone(), format!("{report:?}"))
        };
        let first = run();
        assert_eq!(first.0.len(), 6);
        assert_eq!(run(), first);
    }

    #[test]
    fn small_case_study_end_to_end() {
        let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
        let cfg = CaseStudyConfig {
            images: 8,
            ..Default::default()
        };
        let report = run_snacc_case_study(&mut sys, cfg.clone());
        assert_eq!(report.images, 8);
        assert_eq!(report.classified, 8);
        assert!(report.correct >= 5, "classifier accuracy {report:?}");
        assert!(report.bandwidth_gbps > 1.0, "{report:?}");
        // Verify an image really landed in the database.
        let slot = image_slot_bytes(ImageFormat::capture());
        let (_, px) = generate_image(ImageFormat::capture(), 3);
        let got = sys.nvme.with(|d| {
            d.nand_mut()
                .media_mut()
                .read_vec(cfg.image_table + 3 * slot, 64)
        });
        assert_eq!(&got[..], &px[..64]);
    }
}
