//! The paper's Sec 6 case study, end to end: images stream in over
//! 100 G Ethernet, are classified on the FPGA, and land — together with
//! their classification records — in a database on the SSD, all without
//! host involvement.
//!
//! Run with: `cargo run --release --example image_pipeline [-- <images>]`

use snacc::apps::images::{generate_image, ImageFormat};
use snacc::apps::pipeline::{image_slot_bytes, ClassRecord, RECORD_TABLE};
use snacc::prelude::*;

fn main() {
    let images: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::HostDram));
    let cfg = CaseStudyConfig {
        images,
        ..Default::default()
    };
    println!(
        "streaming {images} × {} B frames over simulated 100 G Ethernet...",
        ImageFormat::capture().bytes()
    );
    let report = run_snacc_case_study(&mut sys, cfg.clone());

    println!(
        "stored {} images ({:.2} GB) in {:.1} ms simulated time",
        report.images,
        report.image_bytes as f64 / 1e9,
        report.elapsed.as_secs_f64() * 1e3,
    );
    println!(
        "bandwidth {:.2} GB/s ({:.0} frames/s), classification accuracy {}/{}",
        report.bandwidth_gbps, report.fps, report.correct, report.classified
    );
    println!(
        "PCIe traffic: {:.2} bytes on the bus per stored byte",
        report.pcie_bytes as f64 / report.image_bytes as f64
    );

    // Verify database contents directly on the simulated media: one image
    // and its classification record.
    let probe = images / 2;
    let slot = image_slot_bytes(ImageFormat::capture());
    let (_, expect) = generate_image(ImageFormat::capture(), probe);
    let media = sys.nvme.with(|d| {
        d.nand_mut()
            .media_mut()
            .read_vec(cfg.image_table + probe * slot, 4096)
    });
    assert_eq!(&media[..], &expect[..4096], "image table verified");
    // Records flush in 4 KiB pages of 256; only flushed pages are on media.
    let flushed_records = (images / 256) * 256;
    if probe < flushed_records {
        let rec_raw = sys.nvme.with(|d| {
            d.nand_mut()
                .media_mut()
                .read_vec(RECORD_TABLE + probe * 16, 16)
        });
        let rec = ClassRecord::decode(&rec_raw);
        assert_eq!(rec.id, probe);
        println!(
            "db probe: image {probe} ok; record = id {} class {} (truth {})",
            rec.id, rec.class, rec.truth
        );
    } else {
        println!("db probe: image {probe} ok (its record page is still buffering on-FPGA)");
    }
}
