//! Workspace-level integration tests: full-system flows spanning every
//! crate through the `snacc` facade.

use snacc::mem::fnv1a;
use snacc::nvme::NvmeProfile;
use snacc::prelude::*;
use snacc::sim::SimRng;

fn write_and_verify(variant: StreamerVariant, len: usize, addr: u64) {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(variant));
    let ports = sys.streamer.ports();
    let mut rng = SimRng::new(addr ^ len as u64);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    axis::push(
        &ports.wr_in,
        &mut sys.en,
        StreamBeat::mid(addr.to_le_bytes().to_vec()),
    );
    for (i, chunk) in data.chunks(64 << 10).enumerate() {
        let last = (i + 1) * (64 << 10) >= len;
        while !axis::push(
            &ports.wr_in,
            &mut sys.en,
            StreamBeat {
                data: chunk.into(),
                last,
            },
        ) {
            assert!(sys.en.step());
        }
    }
    sys.en.run();
    assert!(axis::pop(&ports.wr_resp, &mut sys.en).is_some());
    let media = sys
        .nvme
        .with(|d| d.nand_mut().media_mut().read_vec(addr, len));
    assert_eq!(fnv1a(&media), fnv1a(&data));
    // Read back through the other direction.
    axis::push(
        &ports.rd_cmd,
        &mut sys.en,
        encode_read_cmd(addr, len as u64),
    );
    let mut back = Vec::new();
    loop {
        match axis::pop(&ports.rd_data, &mut sys.en) {
            Some(b) => {
                let done = b.last;
                back.extend_from_slice(&b.data);
                if done {
                    break;
                }
            }
            None => assert!(sys.en.step()),
        }
    }
    assert_eq!(fnv1a(&back), fnv1a(&data));
}

#[test]
fn facade_roundtrip_all_variants() {
    for v in StreamerVariant::all() {
        write_and_verify(v, 2 << 20, 1 << 20);
    }
}

#[test]
fn ooo_extension_roundtrip() {
    let cfg = SystemConfig {
        streamer: StreamerConfig::snacc_ooo(StreamerVariant::Uram),
        nvme: NvmeProfile::samsung_990pro(),
        seed: 5,
        faults: None,
    };
    let mut sys = SnaccSystem::bring_up(cfg);
    let ports = sys.streamer.ports();
    // 32 scattered 4 KiB writes then scattered reads, all must verify.
    let mut rng = SimRng::new(8);
    let addrs: Vec<u64> = (0..32).map(|_| rng.gen_range(1 << 16) * 4096).collect();
    for (i, &a) in addrs.iter().enumerate() {
        let payload = vec![i as u8 + 1; 4096];
        axis::push(
            &ports.wr_in,
            &mut sys.en,
            StreamBeat::mid(a.to_le_bytes().to_vec()),
        );
        while !axis::push(&ports.wr_in, &mut sys.en, StreamBeat::last(payload.clone())) {
            assert!(sys.en.step());
        }
        sys.en.run();
    }
    while axis::pop(&ports.wr_resp, &mut sys.en).is_some() {}
    for &a in &addrs {
        // Last write to a colliding address wins; recompute expectation
        // from the address order.
        let expect = addrs.iter().rposition(|&x| x == a).unwrap() as u8 + 1;
        axis::push(&ports.rd_cmd, &mut sys.en, encode_read_cmd(a, 4096));
        let mut page = Vec::new();
        loop {
            match axis::pop(&ports.rd_data, &mut sys.en) {
                Some(b) => {
                    let done = b.last;
                    page.extend_from_slice(&b.data);
                    if done {
                        break;
                    }
                }
                None => assert!(sys.en.step()),
            }
        }
        assert!(page.iter().all(|&b| b == expect), "addr {a:#x}");
    }
}

#[test]
fn case_study_small_run_via_facade() {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::HostDram));
    let report = run_snacc_case_study(
        &mut sys,
        CaseStudyConfig {
            images: 6,
            ..Default::default()
        },
    );
    assert_eq!(report.images, 6);
    assert!(report.bandwidth_gbps > 0.5);
    assert!(report.correct >= 4, "{report:?}");
}

#[test]
fn spdk_and_streamer_agree_on_media_state() {
    // Write via the streamer, read via SPDK: both drivers speak the same
    // spec to the same device model.
    use snacc::apps::system::layout;
    use snacc::spdk::{SpdkConfig, SpdkNvme};
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let ports = sys.streamer.ports();
    let data = vec![0xEEu8; 64 << 10];
    axis::push(
        &ports.wr_in,
        &mut sys.en,
        StreamBeat::mid(8192u64.to_le_bytes().to_vec()),
    );
    while !axis::push(&ports.wr_in, &mut sys.en, StreamBeat::last(data.clone())) {
        assert!(sys.en.step());
    }
    sys.en.run();

    let spdk = SpdkNvme::new(
        sys.fabric.clone(),
        sys.hostmem.clone(),
        sys.nvme.clone(),
        SpdkConfig::default(),
    );
    // The streamer owns qid 1; SPDK would normally own the controller —
    // here it attaches alongside for verification reads. Grant its pinned
    // buffers to the SSD.
    sys.fabric.borrow_mut().iommu_mut().grant(
        sys.nvme.node(),
        snacc::mem::AddrRange::new(0x1_0000_0000, 1 << 30),
    );
    // Reset the controller first (the streamer's session ends — this is
    // a destructive handover, acceptable in the test), then re-init.
    sys.fabric
        .borrow_mut()
        .write_u32(
            &mut sys.en,
            snacc::pcie::HOST_NODE,
            sys.nvme.bar0_base() + 0x14,
            0,
        )
        .unwrap();
    sys.en.run();
    spdk.init(&mut sys.en, layout::SPDK_CQ).expect("init");
    sys.en.run();
    let cid = spdk.submit_read(&mut sys.en, 8192, 64 << 10).unwrap();
    let slot = spdk.slot_of(cid).unwrap();
    sys.en.run();
    let back = spdk.take_read_data(slot, 64 << 10);
    assert_eq!(back, data);
}

#[test]
fn ethernet_to_storage_is_lossless_under_backpressure() {
    use snacc::net::frame::MacAddr;
    use snacc::net::mac::{self, EthMac, MacConfig};
    use snacc::net::traffic::{pattern_byte, StreamSender};
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let ports = sys.streamer.ports();
    let tx = EthMac::new("src", MacAddr::from_index(1), MacConfig::eth_100g(), 31);
    let rx = EthMac::new("dst", MacAddr::from_index(2), MacConfig::eth_100g(), 32);
    mac::connect(&tx, &rx);
    let total: u64 = 32 << 20;
    let _sender = StreamSender::start(tx.clone(), &mut sys.en, MacAddr::from_index(2), 8192, total);
    // Forward the byte stream into one big storage append.
    let hdr = StreamBeat::mid(0u64.to_le_bytes().to_vec());
    axis::push(&ports.wr_in, &mut sys.en, hdr);
    let mut moved = 0u64;
    while moved < total {
        if let Some(f) = mac::pop_frame(&rx, &mut sys.en) {
            let n = f.payload.len() as u64;
            let last = moved + n >= total;
            let mut beat = Some(StreamBeat {
                data: f.payload,
                last,
            });
            while let Some(b) = beat.take() {
                if !axis::push(&ports.wr_in, &mut sys.en, b.clone()) {
                    beat = Some(b);
                    assert!(sys.en.step());
                }
            }
            moved += n;
        } else {
            assert!(sys.en.step(), "stream stalled");
        }
    }
    sys.en.run();
    assert_eq!(rx.borrow().stats().rx_drops, 0, "flow control must hold");
    // Verify a slice of the stored stream against the source pattern.
    let probe = 11u64 << 20;
    let media = sys
        .nvme
        .with(|d| d.nand_mut().media_mut().read_vec(probe, 8192));
    for (i, &b) in media.iter().enumerate() {
        assert_eq!(b, pattern_byte(probe + i as u64));
    }
}
