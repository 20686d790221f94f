//! Dropping a system frees it. Ownership in the component graph runs only
//! downward from the handles a caller holds; every edge back up (to the
//! fabric, into the component that owns a hooked object, between MAC
//! peers) is a `Weak`. So once the caller's handles are gone, the fabric,
//! host memory and the SSD — with their multi-GiB functional stores — are
//! gone too.

use snacc_apps::gpu::GpuModel;
use snacc_apps::pipeline::{
    run_case_study_front, run_snacc_case_study, CaseStudyConfig, StreamerSink,
};
use snacc_apps::spdk_ref::run_host_case_study;
use snacc_apps::system::{layout, HostSystem, SnaccSystem, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_core::streamer::{encode_read_cmd, StreamerHandle};
use snacc_fpga::axis::{self, AxisChannel};
use snacc_mem::HostMemory;
use snacc_nvme::{NvmeDevice, NvmeDeviceHandle, NvmeProfile};
use snacc_pcie::PcieFabric;
use snacc_sim::{Engine, Payload};
use snacc_spdk::SpdkConfig;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

/// Weak references to what a dropped system must release.
struct Probes {
    fabric: Weak<RefCell<PcieFabric>>,
    hostmem: Weak<RefCell<HostMemory>>,
    ssds: Vec<Weak<RefCell<NvmeDevice>>>,
    /// A streamer owns its user ports, so a port outlives it only if
    /// something still holds the streamer (or the port).
    streamer_ports: Vec<Weak<RefCell<AxisChannel>>>,
}

impl Probes {
    fn new(
        fabric: &Rc<RefCell<PcieFabric>>,
        hostmem: &Rc<RefCell<HostMemory>>,
        ssds: &[&NvmeDeviceHandle],
        streamers: &[&StreamerHandle],
    ) -> Probes {
        Probes {
            fabric: Rc::downgrade(fabric),
            hostmem: Rc::downgrade(hostmem),
            ssds: ssds.iter().map(|n| n.downgrade()).collect(),
            streamer_ports: streamers
                .iter()
                .map(|s| Rc::downgrade(&s.ports().wr_in))
                .collect(),
        }
    }

    fn of_snacc(sys: &SnaccSystem) -> Probes {
        Probes::new(&sys.fabric, &sys.hostmem, &[&sys.nvme], &[&sys.streamer])
    }

    fn of_host(host: &HostSystem) -> Probes {
        Probes::new(&host.fabric, &host.hostmem, &[&host.nvme], &[])
    }

    fn assert_freed(&self, what: &str) {
        assert!(self.fabric.upgrade().is_none(), "{what}: fabric leaked");
        assert!(
            self.hostmem.upgrade().is_none(),
            "{what}: host memory leaked"
        );
        for (i, ssd) in self.ssds.iter().enumerate() {
            assert!(ssd.upgrade().is_none(), "{what}: SSD {i} leaked");
        }
        for (i, port) in self.streamer_ports.iter().enumerate() {
            assert!(port.upgrade().is_none(), "{what}: streamer {i} leaked");
        }
    }
}

/// One write and one read-back through the streamer ports, so every
/// hook has fired and the media holds data.
fn write_and_read(sys: &mut SnaccSystem) {
    let ports = sys.streamer.ports();
    let en = &mut sys.en;
    ports.write(en, 0x1000, [Payload::pattern(0x1000, 8192)]);
    en.run();
    assert!(ports.poll_response(en).is_some(), "write response");
    let got: usize = ports.read(en, 0x1000, 8192).iter().map(Payload::len).sum();
    en.run();
    assert_eq!(got, 8192, "read back");
}

fn small_case_study() -> CaseStudyConfig {
    CaseStudyConfig {
        images: 2,
        ..Default::default()
    }
}

#[test]
fn snacc_system_frees_itself_for_every_variant() {
    for v in StreamerVariant::all() {
        let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(v));
        write_and_read(&mut sys);
        let probes = Probes::of_snacc(&sys);
        drop(sys);
        probes.assert_freed(&format!("{v:?}"));
    }
}

/// Every variant that can stream to several SSDs (the shell has one
/// on-board DRAM controller).
#[test]
fn multi_ssd_system_frees_itself() {
    for v in [StreamerVariant::Uram, StreamerVariant::HostDram] {
        let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(v));
        let (s1, n1) = sys.attach_ssd();
        let (s2, n2) = sys.attach_ssd();
        assert_eq!(n1.bar0_base(), layout::NVME_BAR + (1 << 28));
        assert_eq!(n2.bar0_base(), layout::NVME_BAR + (2 << 28));
        assert_eq!(s2.variant(), v);
        write_and_read(&mut sys);
        let probes = Probes::new(
            &sys.fabric,
            &sys.hostmem,
            &[&sys.nvme, &n1, &n2],
            &[&sys.streamer, &s1, &s2],
        );
        drop((sys, s1, n1, s2, n2));
        probes.assert_freed(&format!("multi-SSD {v:?}"));
    }
}

#[test]
fn host_system_and_spdk_free_themselves() {
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 1);
    let spdk = host.spdk(SpdkConfig::default());
    let done = Rc::new(RefCell::new(0));
    let d2 = done.clone();
    spdk.set_completion_hook(move |_: &mut Engine, _| *d2.borrow_mut() += 1);
    spdk.submit_write_payload(&mut host.en, 0, Payload::fill(7, 1 << 20))
        .expect("submit");
    host.en.run();
    assert_eq!(*done.borrow(), 1);
    let probes = Probes::of_host(&host);
    drop((host, spdk));
    probes.assert_freed("host + SPDK");
}

#[test]
fn snacc_case_study_leaves_nothing_behind() {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let report = run_snacc_case_study(&mut sys, small_case_study());
    assert_eq!(report.images, 2);
    // The streamer outlives the case study's controller and stays usable.
    write_and_read(&mut sys);
    let probes = Probes::of_snacc(&sys);
    drop(sys);
    probes.assert_freed("SNAcc case study");
}

/// The case-study front — capture link, image sender (and its image
/// cache), RX bridge, database controller — is owned by the controller
/// and link handles alone.
#[test]
fn case_study_front_frees_itself() {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let sink = StreamerSink::new(&mut sys.en, sys.streamer.ports());
    let (ctl, link) = run_case_study_front(&mut sys.en, small_case_study(), sink, None);
    sys.en.run();
    assert_eq!(ctl.borrow().images_stored, 2);
    let front = Rc::downgrade(&ctl);
    let macs = link.each_ref().map(Rc::downgrade);
    let probes = Probes::of_snacc(&sys);
    drop((sys, ctl, link));
    assert!(front.upgrade().is_none(), "controller leaked");
    assert!(macs.iter().all(|m| m.upgrade().is_none()), "MAC leaked");
    probes.assert_freed("case-study front");
}

#[test]
fn host_staging_case_studies_leave_nothing_behind() {
    let model = GpuModel::default();
    for (what, gpu) in [("SPDK", None), ("GPU", Some(&model))] {
        let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 7);
        let report = run_host_case_study(&mut host, small_case_study(), gpu);
        assert_eq!(report.images, 2, "{what}");
        let probes = Probes::of_host(&host);
        drop(host);
        probes.assert_freed(what);
    }
}

#[test]
#[should_panic(expected = "one on-board DRAM streamer per shell")]
fn onboard_dram_system_takes_one_ssd() {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::OnboardDram));
    sys.attach_ssd();
}

/// A hook whose owner is gone fails loudly, naming the edge.
#[test]
#[should_panic(expected = "streamer rd_cmd hook -> streamer: the streamer was dropped")]
fn hook_of_a_dropped_streamer_panics() {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let ports = sys.streamer.ports();
    let mut en = std::mem::take(&mut sys.en);
    drop(sys);
    axis::push(&ports.rd_cmd, &mut en, encode_read_cmd(0, 4096));
}
