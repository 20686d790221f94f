//! Byte integrity of the host-staging backends of the case study: the SPDK
//! sink, and the same sink behind the GPU stage. The FPGA → host staging
//! DMA, the flush read and the SPDK submit all carry payload windows; what
//! lands on NAND must be exactly the generated images and the record page.

use snacc_apps::images::{generate_image, ImageFormat};
use snacc_apps::pipeline::{
    image_slot_bytes, run_case_study_front, CaseSink, CaseStudyConfig, ClassRecord,
};
use snacc_apps::spdk_ref::{finalize, GpuStage, SpdkSink};
use snacc_apps::system::{layout, HostSystem};
use snacc_mem::AddrRange;
use snacc_nvme::NvmeProfile;
use snacc_pcie::target::ScratchTarget;
use snacc_pcie::{PcieGen, PcieLinkConfig};
use snacc_sim::{Payload, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

const IMAGES: u64 = 4;
const GPU_BAR: u64 = 0xA_0000_0000;

/// Wire the sink as `run_spdk_case_study` (or, with `gpu`,
/// `run_gpu_case_study`) does, stream [`IMAGES`] images, then check the
/// NAND contents before anything is scrubbed.
fn check_host_staging(gpu: bool) {
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 1);
    let (fpga, gpu_node) = {
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
    let spdk = snacc_spdk::SpdkNvme::new(
        host.fabric.clone(),
        host.hostmem.clone(),
        host.nvme.clone(),
        snacc_spdk::SpdkConfig::default(),
    );
    spdk.init(&mut host.en, layout::SPDK_CQ).expect("spdk init");
    host.en.run();

    let cfg = CaseStudyConfig {
        images: IMAGES,
        ..Default::default()
    };
    let mut front_cfg = cfg.clone();
    let (fabric, hostmem) = (host.fabric.clone(), host.hostmem.clone());
    let sink = match gpu_node {
        None => SpdkSink::new(&mut host.en, fabric, hostmem, fpga, spdk),
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
            front_cfg.classifier_fps = 1e12;
            front_cfg.classifier_fifo = usize::MAX / 2;
            SpdkSink::with_gpu(&mut host.en, fabric, hostmem, fpga, spdk, stage)
        }
    };
    let mut handle = sink.clone();
    let (ctl, _sender) = run_case_study_front(&mut host.en, front_cfg, sink);
    host.en.run();

    // The controller flushes a record page every 256 records, so this
    // run's records are still in its open page: flush that page through
    // the same sink, as the controller's record flush does.
    let records = {
        let c = ctl.borrow();
        assert_eq!(c.images_stored, IMAGES);
        assert_eq!(c.record_pages_written(), 0);
        c.records.clone()
    };
    let mut page = vec![0u8; 4096];
    for (i, r) in records.iter().enumerate() {
        page[i * 16..(i + 1) * 16].copy_from_slice(&r.encode());
    }
    assert!(handle.begin(&mut host.en, cfg.record_table, 4096));
    assert!(handle.push(&mut host.en, Payload::from_vec(page.clone()), true));
    finalize(&handle, &mut host.en);
    let c = ctl.borrow();
    assert_eq!(c.sink_completed(), c.transfers_begun() + 1);

    let fmt = ImageFormat::capture();
    let slot = image_slot_bytes(fmt);
    for id in 0..IMAGES {
        let (_, want) = generate_image(fmt, id);
        let got = host.nvme.with(|d| {
            d.nand_mut()
                .media_mut()
                .read_vec(cfg.image_table + id * slot, want.len())
        });
        assert!(got == want, "image {id} differs on media (gpu: {gpu})");
    }
    let got = host.nvme.with(|d| {
        d.nand_mut()
            .media_mut()
            .read_vec(cfg.record_table, page.len())
    });
    assert_eq!(got, page, "record page differs on media (gpu: {gpu})");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(ClassRecord::decode(&got[i * 16..(i + 1) * 16]), *r);
        assert_eq!(r.id, i as u64);
    }
}

#[test]
fn spdk_sink_lands_images_and_records_byte_exact() {
    check_host_staging(false);
}

#[test]
fn gpu_stage_sink_lands_images_and_records_byte_exact() {
    check_host_staging(true);
}
