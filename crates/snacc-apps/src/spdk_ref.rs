//! The SPDK reference configuration (paper Sec 6.1, "SPDK").
//!
//! "We maintain the image classification accelerator on the FPGA but
//! transfer the image and classification data to host memory, allowing
//! the host software to handle writing to the NVMe SSD ... we process the
//! incoming data in batches — e.g., 32 images. Using double buffering,
//! this approach enables us to overlap image classification with data
//! transfers from FPGA to host memory and from the host to the NVMe
//! device."
//!
//! [`SpdkSink`] implements the storage backend: the FPGA DMAs transfer
//! data into one of two pinned staging buffers; when a buffer fills, the
//! host reactor flushes it to the SSD through the SPDK driver while the
//! other buffer fills.

use crate::pipeline::{run_case_study_front, CaseSink, CaseStudyConfig, CaseStudyReport, WakeHook};
use crate::system::{layout, HostSystem};
use snacc_mem::hostmem::PinnedBuffer;
use snacc_mem::HostMemory;
use snacc_pcie::{NodeId, PcieFabric, PcieLinkConfig};
use snacc_sim::{Engine, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Staging buffer size (≈ 3.5 batches of 9 MB images).
const STAGE_BYTES: u64 = 32 << 20;

struct StagedTransfer {
    ssd_addr: u64,
    stage_off: u64,
    len: u64,
}

struct Buffer {
    pinned: PinnedBuffer,
    fill: u64,
    staged: Vec<StagedTransfer>,
    flushing: bool,
}

/// Optional GPU stage applied to each sealed buffer before the SPDK
/// flush (the Sec 6.1 "GPU" configuration): CPU downscale, H2D transfer,
/// kernel execution, D2H of classifications, per-batch sync overhead.
pub struct GpuStage {
    /// The GPU's fabric node.
    pub gpu_node: NodeId,
    /// Scratch window in the GPU's BAR for input batches.
    pub gpu_bar: u64,
    /// Host CPU cost to downscale one image.
    pub downscale_cost: snacc_sim::SimDuration,
    /// Kernel time per image (batched inference).
    pub kernel_per_image: snacc_sim::SimDuration,
    /// Per-batch synchronisation overhead (framework + launch).
    pub batch_overhead: snacc_sim::SimDuration,
    /// Downscaled image size moved host → GPU.
    pub h2d_bytes_per_image: u64,
    /// Classification bytes moved GPU → host.
    pub d2h_bytes_per_image: u64,
    /// Host pipeline core (separate from the SPDK reactor).
    pub cpu: snacc_spdk::CpuCore,
}

struct Inner {
    fabric: Rc<RefCell<PcieFabric>>,
    hostmem: Rc<RefCell<HostMemory>>,
    fpga: NodeId,
    spdk: snacc_spdk::SpdkNvme,
    buffers: [Buffer; 2],
    filling: usize,
    /// Optional GPU stage; buffers may only flush once their batch has
    /// been through it.
    gpu: Option<GpuStage>,
    gpu_ready: [bool; 2],
    /// Current open transfer: (ssd_addr, buffer idx, bytes so far).
    current: Option<(u64, usize, u64)>,
    /// Commands in flight per buffer flush.
    flush_cmds: [u64; 2],
    /// Flush queue of commands not yet submitted: (buf, ssd_addr, off, len).
    submit_queue: VecDeque<(usize, u64, u64, u64)>,
    completed_transfers: u64,
    /// Transfers whose last command hasn't completed yet per buffer.
    pending_transfer_counts: [u64; 2],
    wake: Option<WakeHook>,
}

/// [`CaseSink`] that routes through host memory + SPDK. Cloning yields a
/// second handle to the same sink (used to finalise flushes after the
/// controller took ownership).
#[derive(Clone)]
pub struct SpdkSink {
    inner: Rc<RefCell<Inner>>,
}

impl SpdkSink {
    /// Build the sink on a host system; `fpga` is the accelerator's
    /// fabric node (source of the staging DMA writes).
    pub fn new(
        en: &mut Engine,
        fabric: Rc<RefCell<PcieFabric>>,
        hostmem: Rc<RefCell<HostMemory>>,
        fpga: NodeId,
        spdk: snacc_spdk::SpdkNvme,
    ) -> SpdkSink {
        let buffers = {
            let mk_buf = || {
                let pinned = hostmem.borrow_mut().alloc_pinned(STAGE_BYTES);
                Buffer {
                    pinned,
                    fill: 0,
                    staged: Vec::new(),
                    flushing: false,
                }
            };
            [mk_buf(), mk_buf()]
        };
        let inner = Rc::new(RefCell::new(Inner {
            fabric,
            hostmem,
            fpga,
            spdk: spdk.clone(),
            buffers,
            filling: 0,
            gpu: None,
            gpu_ready: [true, true],
            current: None,
            flush_cmds: [0, 0],
            submit_queue: VecDeque::new(),
            completed_transfers: 0,
            pending_transfer_counts: [0, 0],
            wake: None,
        }));
        let i2 = inner.clone();
        spdk.set_completion_hook(move |en, _info| {
            Inner::on_spdk_complete(&i2, en);
        });
        let _ = en;
        SpdkSink { inner }
    }

    /// Same sink with a GPU stage in front of each batch flush.
    pub fn with_gpu(
        en: &mut Engine,
        fabric: Rc<RefCell<PcieFabric>>,
        hostmem: Rc<RefCell<HostMemory>>,
        fpga: NodeId,
        spdk: snacc_spdk::SpdkNvme,
        gpu: GpuStage,
    ) -> SpdkSink {
        let s = Self::new(en, fabric, hostmem, fpga, spdk);
        {
            let mut i = s.inner.borrow_mut();
            i.gpu = Some(gpu);
            i.gpu_ready = [true, true];
        }
        s
    }
}

impl Inner {
    /// Seal the filling buffer and start flushing it.
    fn seal_and_flush(rc: &Rc<RefCell<Inner>>, en: &mut Engine) {
        {
            let mut i = rc.borrow_mut();
            let idx = i.filling;
            if i.buffers[idx].fill == 0 || i.buffers[idx].flushing {
                return;
            }
            i.buffers[idx].flushing = true;
            i.pending_transfer_counts[idx] = i.buffers[idx].staged.len() as u64;
            // Queue the commands: split transfers at 1 MB.
            let staged = std::mem::take(&mut i.buffers[idx].staged);
            for t in &staged {
                let mut off = 0;
                while off < t.len {
                    let n = (1u64 << 20).min(t.len - off);
                    i.submit_queue
                        .push_back((idx, t.ssd_addr + off, t.stage_off + off, n));
                    off += n;
                }
            }
            i.buffers[idx].staged = staged;
            // Switch filling to the other buffer (double buffering).
            i.filling = 1 - idx;
            if i.gpu.is_some() {
                i.gpu_ready[idx] = false;
            }
        }
        let (needs_gpu, sealed_idx) = {
            let i = rc.borrow();
            (i.gpu.is_some(), i.filling ^ 1)
        };
        if needs_gpu {
            Self::run_gpu_stage(rc, en, sealed_idx);
        }
        Self::drain_submit_queue(rc, en);
    }

    /// The GPU batch pipeline for buffer `idx`: CPU downscale → H2D →
    /// kernel → D2H → sync overhead, then the SPDK flush may proceed.
    fn run_gpu_stage(rc: &Rc<RefCell<Inner>>, en: &mut Engine, idx: usize) {
        let (t_cpu, gpu_node, gpu_bar, h2d, d2h, kernel, overhead, imgs) = {
            let mut i = rc.borrow_mut();
            let imgs = i.buffers[idx]
                .staged
                .iter()
                .filter(|t| t.len > 4096)
                .count() as u64;
            let g = i.gpu.as_mut().expect("gpu stage configured");
            let now = en.now();
            let t_cpu = g.cpu.book(now, g.downscale_cost * imgs.max(1));
            (
                t_cpu,
                g.gpu_node,
                g.gpu_bar,
                g.h2d_bytes_per_image * imgs,
                g.d2h_bytes_per_image * imgs,
                g.kernel_per_image * imgs,
                g.batch_overhead,
                imgs,
            )
        };
        let _ = imgs;
        let rc2 = rc.clone();
        en.schedule_at(t_cpu, move |en| {
            // H2D: downscaled batch to the GPU (host-initiated write). The
            // batch contents are not modelled, so a lazy zero window
            // carries its length.
            let fabric = rc2.borrow().fabric.clone();
            let batch = snacc_sim::Payload::fill(0, h2d.max(1) as usize);
            let now = en.now();
            let t_h2d = fabric
                .borrow_mut()
                .write_payload_at(en, now, snacc_pcie::HOST_NODE, gpu_bar, batch)
                .expect("gpu BAR mapped");
            let rc3 = rc2.clone();
            en.schedule_at(t_h2d.max(en.now()) + kernel, move |en| {
                // D2H: classifications back, then the sync overhead.
                let fabric = rc3.borrow().fabric.clone();
                let mut back = vec![0u8; d2h.max(1) as usize];
                let t_d2h = fabric
                    .borrow_mut()
                    .read(en, snacc_pcie::HOST_NODE, gpu_bar, &mut back)
                    .expect("gpu BAR mapped");
                let _ = gpu_node;
                let rc4 = rc3.clone();
                en.schedule_at(t_d2h.max(en.now()) + overhead, move |en| {
                    rc4.borrow_mut().gpu_ready[idx] = true;
                    Inner::drain_submit_queue(&rc4, en);
                });
            });
        });
    }

    fn drain_submit_queue(rc: &Rc<RefCell<Inner>>, en: &mut Engine) {
        loop {
            let item = {
                let i = rc.borrow();
                if !i.spdk.can_submit() {
                    return;
                }
                match i.submit_queue.front() {
                    Some(&x) if i.gpu_ready[x.0] => x,
                    _ => return,
                }
            };
            let (buf, ssd_addr, stage_off, len) = item;
            let submit = {
                let i = rc.borrow();
                let base = i.buffers[buf].pinned.phys_addr(stage_off);
                // The staged extent, as a view of the windows the DMA left
                // in host memory.
                let data = i
                    .hostmem
                    .borrow_mut()
                    .store_mut()
                    .read_payload(base, len as usize);
                i.spdk.submit_write_payload(en, ssd_addr, data)
            };
            match submit {
                Ok(_) => {
                    let mut i = rc.borrow_mut();
                    i.submit_queue.pop_front();
                    i.flush_cmds[buf] += 1;
                }
                Err(_) => return,
            }
        }
    }

    fn on_spdk_complete(rc: &Rc<RefCell<Inner>>, en: &mut Engine) {
        // Figure out which buffer this belonged to: commands complete in
        // rough order; we decrement the oldest flushing buffer.
        let wake = {
            let mut i = rc.borrow_mut();
            let idx = (0..2).find(|&b| i.buffers[b].flushing && i.flush_cmds[b] > 0);
            if let Some(b) = idx {
                i.flush_cmds[b] -= 1;
                if i.flush_cmds[b] == 0 && i.submit_queue.iter().all(|&(q, ..)| q != b) {
                    // Buffer fully persisted.
                    i.completed_transfers += i.pending_transfer_counts[b];
                    i.pending_transfer_counts[b] = 0;
                    i.buffers[b].fill = 0;
                    i.buffers[b].staged.clear();
                    i.buffers[b].flushing = false;
                }
            }
            i.wake.clone()
        };
        Self::drain_submit_queue(rc, en);
        if let Some(w) = wake {
            (w.borrow_mut())(en);
        }
    }
}

impl CaseSink for SpdkSink {
    fn begin(&mut self, en: &mut Engine, addr: u64, len: u64) -> bool {
        let mut i = self.inner.borrow_mut();
        assert!(i.current.is_none(), "previous transfer still open");
        let idx = i.filling;
        if i.buffers[idx].flushing || i.buffers[idx].fill + len > STAGE_BYTES {
            // Need to rotate; if the other buffer is still flushing we
            // must wait (double buffering limit).
            if i.buffers[idx].fill + len > STAGE_BYTES && !i.buffers[idx].flushing {
                drop(i);
                Inner::seal_and_flush(&self.inner, en);
                i = self.inner.borrow_mut();
                let idx = i.filling;
                if i.buffers[idx].flushing || i.buffers[idx].fill + len > STAGE_BYTES {
                    return false;
                }
            } else {
                return false;
            }
        }
        let idx = i.filling;
        let off = i.buffers[idx].fill;
        i.buffers[idx].staged.push(StagedTransfer {
            ssd_addr: addr,
            stage_off: off,
            len,
        });
        i.current = Some((addr, idx, 0));
        let _ = off;
        true
    }

    fn push(&mut self, en: &mut Engine, data: snacc_sim::Payload, last: bool) -> bool {
        let (idx, stage_off, fabric, fpga, phys_chunks) = {
            let i = self.inner.borrow();
            let (_, idx, written) = i.current.expect("begin first");
            let t = i.buffers[idx].staged.last().expect("staged");
            let stage_off = t.stage_off + written;
            // Resolve physical pieces for the DMA (may cross segments).
            let mut chunks = Vec::new();
            let mut off = 0u64;
            while off < data.len() as u64 {
                let logical = stage_off + off;
                let phys = i.buffers[idx].pinned.phys_addr(logical);
                let seg_end = i.buffers[idx]
                    .pinned
                    .segments()
                    .iter()
                    .find(|s| s.contains(phys))
                    .expect("in segment")
                    .end();
                let n = (seg_end - phys).min(data.len() as u64 - off);
                chunks.push((phys, off as usize, n as usize));
                off += n;
            }
            (idx, stage_off, i.fabric.clone(), i.fpga, chunks)
        };
        let _ = stage_off;
        // FPGA → host staging DMA (timed + functional); host memory
        // retains the pushed windows.
        for (phys, off, n) in phys_chunks {
            let now = en.now();
            fabric
                .borrow_mut()
                .write_payload_at(en, now, fpga, phys, data.slice(off..off + n))
                .expect("staging reachable");
        }
        let mut i = self.inner.borrow_mut();
        let (_, _, written) = i.current.as_mut().expect("open");
        *written += data.len() as u64;
        let add = data.len() as u64;
        i.buffers[idx].fill += add;
        if last {
            i.current = None;
        }
        drop(i);
        if last {
            // Opportunistic flush when the buffer is reasonably full.
            let should = {
                let i = self.inner.borrow();
                let idx = i.filling;
                i.buffers[idx].fill + (10 << 20) > STAGE_BYTES
            };
            if should {
                Inner::seal_and_flush(&self.inner, en);
            }
        }
        true
    }

    fn completed(&self) -> u64 {
        self.inner.borrow().completed_transfers
    }

    fn set_wake(&mut self, wake: WakeHook) {
        self.inner.borrow_mut().wake = Some(wake);
    }
}

/// Flush any remaining staged data (end of run).
pub fn finalize(sink_inner: &SpdkSink, en: &mut Engine) {
    Inner::seal_and_flush(&sink_inner.inner, en);
    en.run();
    // The other buffer may still hold data.
    Inner::seal_and_flush(&sink_inner.inner, en);
    en.run();
}

/// Run the SPDK configuration of the case study.
pub fn run_spdk_case_study(cfg: CaseStudyConfig, seed: u64) -> CaseStudyReport {
    let mut host = HostSystem::bring_up(snacc_nvme::NvmeProfile::samsung_990pro(), seed);
    // The accelerator FPGA is on the fabric as a NIC/compute card.
    let fpga = host
        .fabric
        .borrow_mut()
        .add_device("alveo-u280", PcieLinkConfig::alveo_u280());
    let spdk = snacc_spdk::SpdkNvme::new(
        host.fabric.clone(),
        host.hostmem.clone(),
        host.nvme.clone(),
        snacc_spdk::SpdkConfig::default(),
    );
    spdk.init(&mut host.en, layout::SPDK_CQ).expect("spdk init");
    host.en.run();
    host.fabric.borrow_mut().reset_meters();
    let start = host.en.now();

    let sink = SpdkSink::new(
        &mut host.en,
        host.fabric.clone(),
        host.hostmem.clone(),
        fpga,
        spdk.clone(),
    );
    let sink_handle = sink.clone();
    let (ctl, _sender) = run_case_study_front(&mut host.en, cfg.clone(), sink);
    host.en.run();
    // Drive remaining staged data to the SSD.
    finalize(&sink_handle, &mut host.en);
    let end = host.en.now();
    let c = ctl.borrow();
    assert_eq!(c.images_stored, cfg.images);
    assert_eq!(c.sink_completed(), c.transfers_begun());
    let image_bytes = cfg.images * crate::images::ImageFormat::capture().bytes() as u64;
    let elapsed = end.since(start);
    let correct = c.records.iter().filter(|r| r.class == r.truth).count() as u64;
    let occupancy = spdk.cpu_occupancy(SimTime::ZERO, end);
    assert!(occupancy > 0.99, "SPDK core must be pegged: {occupancy}");
    let pcie_bytes = host.fabric.borrow().total_payload_bytes();
    // Release functional stores (Rc cycles outlive `host`).
    host.nvme.with(|d| d.nand_mut().media_mut().clear());
    host.hostmem.borrow_mut().store_mut().clear();
    CaseStudyReport {
        images: c.images_stored,
        image_bytes,
        elapsed,
        bandwidth_gbps: image_bytes as f64 / 1e9 / elapsed.as_secs_f64(),
        fps: c.images_stored as f64 / elapsed.as_secs_f64(),
        correct,
        classified: c.records.len() as u64,
        pcie_bytes,
        resyncs: c.resyncs(),
        bytes_skipped: c.bytes_skipped(),
    }
}
