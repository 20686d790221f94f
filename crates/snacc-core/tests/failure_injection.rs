//! Failure injection: IOMMU revocation, bad commands, error completions.

use snacc_apps::system::{layout, HostSystem, SnaccSystem, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_core::streamer::encode_read_cmd;
use snacc_fpga::axis::{self, StreamBeat};
use snacc_mem::AddrRange;
use snacc_nvme::admin::AdminQueue;
use snacc_nvme::queue::{CqRing, SqRing};
use snacc_nvme::spec::{regs, IoOpcode, Sqe, Status};
use snacc_nvme::NvmeProfile;
use snacc_pcie::HOST_NODE;

const NVME_BAR: u64 = layout::NVME_BAR;

fn build(variant: StreamerVariant) -> SnaccSystem {
    let mut cfg = SystemConfig::snacc(variant);
    cfg.seed = 3;
    SnaccSystem::bring_up(cfg)
}

#[test]
fn iommu_revocation_produces_error_completions() {
    let SnaccSystem {
        mut en,
        fabric,
        streamer,
        nvme,
        ..
    } = build(StreamerVariant::Uram);
    // Revoke the SSD's *data-window* grants mid-flight (queues stay
    // reachable, as in a real IOMMU misconfiguration of one mapping):
    // data fetches fault and the device reports Data Transfer Error —
    // but the streamer still retires the command and answers the PE.
    let w = streamer.windows();
    {
        let mut fab = fabric.borrow_mut();
        fab.iommu_mut().revoke_all(nvme.node());
        for r in [w.sq, w.cq, w.prp] {
            fab.iommu_mut().grant(nvme.node(), r);
        }
        fab.iommu_mut()
            .grant(nvme.node(), AddrRange::new(0x1_0000_0000, 1 << 20));
    }
    let ports = streamer.ports();
    axis::push(
        &ports.wr_in,
        &mut en,
        StreamBeat::mid(0u64.to_le_bytes().to_vec()),
    );
    axis::push(&ports.wr_in, &mut en, StreamBeat::last(vec![1u8; 8192]));
    en.run();
    // Response token still arrives (protocol liveness under errors).
    assert!(axis::pop(&ports.wr_resp, &mut en).is_some());
    assert!(
        streamer.metrics().errors.get() > 0,
        "error must be surfaced"
    );
    assert!(fabric.borrow_mut().iommu_mut().faults() > 0);
}

#[test]
fn read_after_revocation_still_streams() {
    // Read path: the SSD cannot deliver data (posted writes fault), the
    // CQE carries an error, and the streamer streams buffer contents
    // (zeros) so the PE protocol never wedges.
    let SnaccSystem {
        mut en,
        fabric,
        streamer,
        nvme,
        ..
    } = build(StreamerVariant::Uram);
    let w = streamer.windows();
    {
        let mut fab = fabric.borrow_mut();
        fab.iommu_mut().revoke_all(nvme.node());
        for r in [w.sq, w.cq, w.prp] {
            fab.iommu_mut().grant(nvme.node(), r);
        }
    }
    let ports = streamer.ports();
    axis::push(&ports.rd_cmd, &mut en, encode_read_cmd(0, 8192));
    let mut got = 0;
    loop {
        match axis::pop(&ports.rd_data, &mut en) {
            Some(b) => {
                got += b.len();
                if b.last {
                    break;
                }
            }
            None => {
                if !en.step() {
                    break;
                }
            }
        }
    }
    assert_eq!(got, 8192, "full (zeroed) stream despite the fault");
    assert!(streamer.metrics().errors.get() > 0);
}

#[test]
fn device_rejects_misaligned_prp_list_entries() {
    // Speak to the controller directly with a corrupt PRP2 (unaligned):
    // the command completes with Invalid Field, not a hang.
    let HostSystem {
        mut en,
        fabric,
        hostmem,
        ..
    } = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 9);
    // Admin bring-up, then an I/O queue pair in host memory.
    let mut admin = AdminQueue::new(&mut hostmem.borrow_mut(), NVME_BAR);
    admin.enable(&mut en, &fabric);
    let io_sq = 0x20_0000u64;
    let io_cq = 0x21_0000u64;
    let (sq, cq) = (SqRing::new(io_sq, 64), CqRing::new(io_cq, 64));
    admin
        .create_io_queue_pair(&mut en, &fabric, &hostmem, 1, &sq, &cq)
        .expect("I/O queue pair created");

    // A 12 KiB write whose PRP2 (list pointer) is misaligned.
    let mut w = Sqe::io(IoOpcode::Write, 7, 0, 23);
    w.prp1 = 0x40_0000;
    w.prp2 = 0x40_1003; // not 8-byte aligned
    hostmem.borrow_mut().store_mut().write(io_sq, &w.encode());
    fabric
        .borrow_mut()
        .write_u32(&mut en, HOST_NODE, NVME_BAR + regs::sq_tail_doorbell(1), 1)
        .unwrap();
    en.run();
    let raw = hostmem.borrow_mut().store_mut().read_vec(io_cq, 16);
    let cqe = snacc_nvme::spec::Cqe::decode(&raw).expect("CQE decodes");
    assert_eq!(cqe.cid, 7);
    assert_eq!(cqe.status, Status::InvalidField);
}

#[test]
fn out_of_bounds_read_reports_lba_range_error() {
    let SnaccSystem {
        mut en,
        fabric: _fabric,
        streamer,
        nvme,
        ..
    } = build(StreamerVariant::Uram);
    let cap = snacc_nvme::nand::CAPACITY_BYTES;
    let ports = streamer.ports();
    axis::push(&ports.rd_cmd, &mut en, encode_read_cmd(cap, 4096));
    let mut done = false;
    while !done {
        match axis::pop(&ports.rd_data, &mut en) {
            Some(b) => done = b.last,
            None => {
                if !en.step() {
                    break;
                }
            }
        }
    }
    assert!(done, "stream must terminate even on an OOB command");
    assert!(streamer.metrics().errors.get() > 0);
    assert_eq!(nvme.stats().errors, 1);
}
