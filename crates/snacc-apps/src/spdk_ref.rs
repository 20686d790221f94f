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

use crate::gpu::GpuModel;
use crate::pipeline::{run_case_study_front, CaseSink, CaseStudyConfig, CaseStudyReport, WakeHook};
use crate::system::HostSystem;
use snacc_mem::hostmem::PinnedBuffer;
use snacc_mem::HostMemory;
use snacc_pcie::{NodeId, PcieFabric, PcieLinkConfig};
use snacc_sim::{Engine, SimTime};
use snacc_spdk::{SpdkConfig, SpdkNvme};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

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
    /// Back-edge to the fabric the staging DMA crosses.
    fabric: Weak<RefCell<PcieFabric>>,
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
        _en: &mut Engine,
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
            fabric: Rc::downgrade(&fabric),
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
        // The sink owns the driver, so the driver's hook reaches back
        // through a `Weak`.
        let me = Rc::downgrade(&inner);
        spdk.set_completion_hook(move |en, _info| {
            let me = me
                .upgrade()
                .expect("spdk completion hook -> sink: the sink was dropped");
            Inner::on_spdk_complete(&me, en);
        });
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
    fn fabric(&self) -> Rc<RefCell<PcieFabric>> {
        self.fabric
            .upgrade()
            .expect("staging sink -> fabric: the fabric was dropped")
    }

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
        let (t_cpu, gpu_bar, h2d, d2h, kernel, overhead) = {
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
                g.gpu_bar,
                g.h2d_bytes_per_image * imgs,
                g.d2h_bytes_per_image * imgs,
                g.kernel_per_image * imgs,
                g.batch_overhead,
            )
        };
        let rc2 = rc.clone();
        en.schedule_at(t_cpu, move |en| {
            // H2D: downscaled batch to the GPU (host-initiated write). The
            // batch contents are not modelled, so a lazy zero window
            // carries its length.
            let fabric = rc2.borrow().fabric();
            let batch = snacc_sim::Payload::fill(0, h2d.max(1) as usize);
            let now = en.now();
            let t_h2d = fabric
                .borrow_mut()
                .write(en, now, snacc_pcie::HOST_NODE, gpu_bar, batch)
                .expect("gpu BAR mapped");
            let rc3 = rc2.clone();
            en.schedule_at(t_h2d.max(en.now()) + kernel, move |en| {
                // D2H: classifications back, then the sync overhead.
                let fabric = rc3.borrow().fabric();
                let now = en.now();
                let (_, t_d2h) = fabric
                    .borrow_mut()
                    .read(en, now, snacc_pcie::HOST_NODE, gpu_bar, d2h.max(1))
                    .expect("gpu BAR mapped");
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
                // The staged extent, as the list of windows the DMA left
                // in host memory: extents spanning several backings (a
                // header window next to a cached body) reach the media
                // without a concatenated copy.
                let parts = i
                    .hostmem
                    .borrow_mut()
                    .store_mut()
                    .read_payload_parts(base, len as usize);
                i.spdk.submit_write_parts(en, ssd_addr, &parts)
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
        let stage_off = i.buffers[idx].fill;
        i.buffers[idx].staged.push(StagedTransfer {
            ssd_addr: addr,
            stage_off,
            len,
        });
        i.current = Some((addr, idx, 0));
        true
    }

    fn push(&mut self, en: &mut Engine, data: snacc_sim::Payload, last: bool) -> bool {
        let (idx, fabric, fpga, pieces) = {
            let i = self.inner.borrow();
            let (_, idx, written) = i.current.expect("begin first");
            let t = i.buffers[idx].staged.last().expect("staged");
            // Physical pieces for the DMA (may cross segments).
            let pieces = i.buffers[idx]
                .pinned
                .pieces(t.stage_off + written, data.len());
            (idx, i.fabric(), i.fpga, pieces)
        };
        // FPGA → host staging DMA (timed + functional); host memory
        // retains the pushed windows.
        for (phys, off, n) in pieces {
            let now = en.now();
            fabric
                .borrow_mut()
                .write(en, now, fpga, phys, data.slice(off..off + n))
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

/// Wire a host-staging backend onto a brought-up host system: the
/// accelerator FPGA on the fabric (with `gpu`, the NIC-FPGA and an A100
/// instead), an initialised SPDK driver, and the staging sink. Returns the
/// driver, the sink and the configuration for the pipeline front: with the
/// GPU the FPGA does not classify, so its classifier stage becomes a
/// zero-cost pass-through (the records are the same, produced host-side
/// after D2H).
pub fn attach_host_staging(
    host: &mut HostSystem,
    cfg: &CaseStudyConfig,
    gpu: Option<&GpuModel>,
) -> (SpdkNvme, SpdkSink, CaseStudyConfig) {
    let (fpga, stage) = {
        let mut fab = host.fabric.borrow_mut();
        match gpu {
            None => (
                fab.add_device("alveo-u280", PcieLinkConfig::alveo_u280()),
                None,
            ),
            Some(model) => {
                let (nic, gpu_node) = crate::gpu::attach_gpu(&mut fab);
                (nic, Some(model.stage(gpu_node)))
            }
        }
    };
    let spdk = host.spdk(SpdkConfig::default());
    let (fabric, hostmem) = (host.fabric.clone(), host.hostmem.clone());
    let mut front = cfg.clone();
    let sink = match stage {
        Some(stage) => {
            front.classifier_fps = 1e12;
            front.classifier_fifo = usize::MAX / 2;
            SpdkSink::with_gpu(&mut host.en, fabric, hostmem, fpga, spdk.clone(), stage)
        }
        None => SpdkSink::new(&mut host.en, fabric, hostmem, fpga, spdk.clone()),
    };
    (spdk, sink, front)
}

/// Run the SPDK configuration of the case study.
pub fn run_spdk_case_study(cfg: CaseStudyConfig, seed: u64) -> CaseStudyReport {
    let mut host = HostSystem::bring_up(snacc_nvme::NvmeProfile::samsung_990pro(), seed);
    run_host_case_study(&mut host, cfg, None)
}

/// The host-staging case study on a brought-up host system: the SPDK
/// reference, or with `gpu` the GPU reference ([`crate::gpu`]).
pub fn run_host_case_study(
    host: &mut HostSystem,
    cfg: CaseStudyConfig,
    gpu: Option<&GpuModel>,
) -> CaseStudyReport {
    let (spdk, sink, front) = attach_host_staging(host, &cfg, gpu);
    host.fabric.borrow_mut().reset_meters();
    let start = host.en.now();
    let (ctl, _link) = run_case_study_front(&mut host.en, front, sink.clone(), None);
    host.en.run();
    // Drive remaining staged data to the SSD.
    finalize(&sink, &mut host.en);
    let end = host.en.now();
    let occupancy = spdk.cpu_occupancy(SimTime::ZERO, end);
    assert!(
        occupancy > 0.99,
        "the host core must be pegged: {occupancy}"
    );
    let pcie_bytes = host.fabric.borrow().total_payload_bytes();
    let report = ctl
        .borrow()
        .report(end.since(start), pcie_bytes, &host.nvme, &host.hostmem);
    report
}
