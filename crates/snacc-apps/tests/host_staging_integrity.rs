//! Byte integrity of the host-staging backends of the case study: the SPDK
//! sink, and the same sink behind the GPU stage. The FPGA → host staging
//! DMA, the flush read and the SPDK submit all carry payload windows; what
//! lands on NAND must be exactly the generated images and the record page,
//! and the NAND store must hold those bytes as windows of the sender's
//! cached class bodies rather than as copies.

use snacc_apps::gpu::GpuModel;
use snacc_apps::images::{generate_image, ImageFormat, NUM_CLASSES};
use snacc_apps::pipeline::{
    image_slot_bytes, run_case_study_front, CaseSink, CaseStudyConfig, ClassRecord, RECORD_TABLE,
};
use snacc_apps::spdk_ref::{attach_host_staging, finalize};
use snacc_apps::system::HostSystem;
use snacc_nvme::NvmeProfile;
use snacc_sim::Payload;

const IMAGES: u64 = 4;

/// Materialised NAND bytes allowed per image beyond the cached class
/// bodies. The capture path copies where the sender's header/body seam
/// frame meets the body (the seam frame itself, or the controller's
/// forward chunk around it), and the device copies each 4 KiB page it
/// fetches across a seam between windows. This run holds 13 pages: 3 per
/// image plus the record page.
const SLACK_PAGES_PER_IMAGE: u64 = 4;

/// Wire the backend as `run_spdk_case_study` (or, with `gpu`,
/// `run_gpu_case_study`) does, stream [`IMAGES`] images, then check the
/// NAND contents.
fn check_host_staging(gpu: bool) {
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 1);
    let cfg = CaseStudyConfig {
        images: IMAGES,
        ..Default::default()
    };
    let model = GpuModel::default();
    let (_spdk, mut handle, front_cfg) =
        attach_host_staging(&mut host, &cfg, gpu.then_some(&model));
    let (ctl, _link) = run_case_study_front(&mut host.en, front_cfg, handle.clone(), None);
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
    assert!(handle.begin(&mut host.en, RECORD_TABLE, 4096));
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
    let got = host
        .nvme
        .with(|d| d.nand_mut().media_mut().read_vec(RECORD_TABLE, page.len()));
    assert_eq!(got, page, "record page differs on media (gpu: {gpu})");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(ClassRecord::decode(&got[i * 16..(i + 1) * 16]), *r);
        assert_eq!(r.id, i as u64);
    }

    // Residency: staged extents spanning several windows reach NAND as
    // part lists, so the store references the class bodies themselves.
    // A concatenating path keeps a copy of every such extent instead.
    let classes = IMAGES.min(NUM_CLASSES as u64);
    let bodies = classes * fmt.bytes() as u64;
    let held = host.nvme.with(|d| d.nand_mut().media_mut().backing_bytes());
    let slack = IMAGES * SLACK_PAGES_PER_IMAGE * 4096;
    assert!(
        (bodies..=bodies + slack).contains(&held),
        "NAND holds {held} B in materialised buffers; class bodies are {bodies} B, \
         allowed slack {slack} B (gpu: {gpu})"
    );
}

#[test]
fn spdk_sink_lands_images_and_records_byte_exact() {
    check_host_staging(false);
}

#[test]
fn gpu_stage_sink_lands_images_and_records_byte_exact() {
    check_host_staging(true);
}
