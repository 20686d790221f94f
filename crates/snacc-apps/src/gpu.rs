//! The GPU reference configuration (paper Sec 6.1, "GPU").
//!
//! "We perform image classification on an NVIDIA A100 GPU ... other CPU
//! threads manage data transfers between the NIC, for which we use our
//! FPGA, host DRAM, GPU, and NVMe SSD ... This solution incurs more PCIe
//! traffic since the downscaled images must be transferred to the GPU,
//! and the classifications must be retrieved from it." GPUDirect Storage
//! was not usable with PyTorch, so storage writes go through SPDK from
//! host memory — exactly the structure modelled here.
//!
//! Data path: Ethernet → NIC-FPGA → host staging (1×) → [CPU downscale]
//! → GPU (H2D of 224×224 batches) → host (D2H records) → SSD (fetches
//! from host, 1×) — the most PCIe traffic of all configurations (Fig 7).

use crate::pipeline::{CaseStudyConfig, CaseStudyReport};
use crate::spdk_ref::{run_host_case_study, GpuStage};
use crate::system::HostSystem;
use snacc_mem::AddrRange;
use snacc_pcie::target::ScratchTarget;
use snacc_pcie::{NodeId, PcieFabric, PcieGen, PcieLinkConfig};
use snacc_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// GPU model parameters (A100 + PyTorch batch pipeline).
#[derive(Clone, Debug)]
pub struct GpuModel {
    /// Host CPU cost to downscale one 9 MB frame (vectorised).
    pub downscale_cost: SimDuration,
    /// Batched MobileNet-V1 inference time per image on the A100.
    pub kernel_per_image: SimDuration,
    /// Per-batch framework synchronisation overhead (launch, Python/C++
    /// boundary, stream sync).
    pub batch_overhead: SimDuration,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            downscale_cost: SimDuration::from_us(300),
            kernel_per_image: SimDuration::from_us(100),
            batch_overhead: SimDuration::from_us(3000),
        }
    }
}

impl GpuModel {
    /// The host-side GPU stage of the staging sink, for the A100 at
    /// `gpu_node`.
    pub fn stage(&self, gpu_node: NodeId) -> GpuStage {
        GpuStage {
            gpu_node,
            gpu_bar: GPU_BAR,
            downscale_cost: self.downscale_cost,
            kernel_per_image: self.kernel_per_image,
            batch_overhead: self.batch_overhead,
            h2d_bytes_per_image: crate::images::ImageFormat::classify().bytes() as u64,
            d2h_bytes_per_image: 16,
            cpu: snacc_spdk::CpuCore::new("gpu-pipeline"),
        }
    }
}

/// GPU BAR window base on the fabric.
const GPU_BAR: u64 = 0xA_0000_0000;

/// Put the NIC-FPGA and the A100 (Gen4 ×16, with its BAR window) on the
/// fabric; returns their nodes.
pub(crate) fn attach_gpu(fab: &mut PcieFabric) -> (NodeId, NodeId) {
    let nic = fab.add_device("alveo-nic", PcieLinkConfig::alveo_u280());
    let gpu = fab.add_device("a100", PcieLinkConfig::new(PcieGen::Gen4, 16));
    let bar = Rc::new(RefCell::new(ScratchTarget::new(
        "a100-hbm-window",
        SimDuration::from_ns(250),
    )));
    fab.map_region(gpu, AddrRange::new(GPU_BAR, 256 << 20), bar);
    (nic, gpu)
}

/// Run the GPU configuration of the case study.
pub fn run_gpu_case_study(cfg: CaseStudyConfig, model: GpuModel, seed: u64) -> CaseStudyReport {
    let mut host = HostSystem::bring_up(snacc_nvme::NvmeProfile::samsung_990pro(), seed);
    run_host_case_study(&mut host, cfg, Some(&model))
}
