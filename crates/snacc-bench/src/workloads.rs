//! Shared workload drivers for the evaluation binaries.

use snacc_apps::gpu::{run_gpu_case_study, GpuModel};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig, CaseStudyReport};
use snacc_apps::spdk_ref::run_spdk_case_study;
use snacc_apps::system::{HostSystem, SnaccSystem, SystemConfig};
use snacc_core::config::{StreamerVariant, STREAM_CHUNK};
use snacc_core::streamer::{encode_read_cmd, encode_write_addr};
use snacc_faults::FaultPlan;
use snacc_fpga::axis::{self, StreamBeat};
use snacc_nvme::NvmeProfile;
use snacc_sim::{Payload, SimDuration};
use snacc_spdk::SpdkConfig;

/// Arm the periodic telemetry probe: every 100 µs of simulated time,
/// sample the streamer's byte counters and the user-channel occupancies
/// into counter tracks (line plots in Perfetto — the backpressure
/// picture). No-op when tracing is disabled. The probe chain dies when
/// the event queue drains, so callers re-arm per measurement window.
pub fn arm_streamer_probe(sys: &mut SnaccSystem) {
    if !snacc_trace::enabled() {
        return;
    }
    let m = sys.streamer.metrics();
    let ports = sys.streamer.ports();
    snacc_trace::probe::arm(&mut sys.en, SimDuration::from_us(100), move |en| {
        snacc_trace::counter(
            en,
            "probe.streamer",
            "bytes_to_pe",
            m.bytes_to_pe.get() as f64,
        );
        snacc_trace::counter(
            en,
            "probe.streamer",
            "bytes_from_pe",
            m.bytes_from_pe.get() as f64,
        );
        snacc_trace::counter(
            en,
            "probe.axis",
            "rd_data_occ",
            ports.rd_data.borrow().occupancy() as f64,
        );
        snacc_trace::counter(
            en,
            "probe.axis",
            "wr_in_occ",
            ports.wr_in.borrow().occupancy() as f64,
        );
    });
}

/// The I/O direction of a benchmark run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Sequential/random reads.
    Read,
    /// Sequential/random writes.
    Write,
}

/// Fig 4's backends, labelled as Fig 4a–c are: the three streamer
/// variants, then the SPDK baseline (`None`).
const FIG4_BACKENDS: [(&str, Option<StreamerVariant>); 4] = [
    ("URAM", Some(StreamerVariant::Uram)),
    ("On-board DRAM", Some(StreamerVariant::OnboardDram)),
    ("Host DRAM", Some(StreamerVariant::HostDram)),
    ("SPDK", None),
];

/// Fig 4's eight rows in the figures' order, every backend reading and
/// then every backend writing; a row's label is the backend's followed by
/// `suffix[0]` for a read and `suffix[1]` for a write.
pub fn fig4_rows(suffix: [&str; 2]) -> Vec<(String, Dir, Option<StreamerVariant>)> {
    [(Dir::Read, suffix[0]), (Dir::Write, suffix[1])]
        .into_iter()
        .flat_map(|(dir, suffix)| {
            FIG4_BACKENDS
                .into_iter()
                .map(move |(backend, variant)| (format!("{backend} {suffix}"), dir, variant))
        })
        .collect()
}

/// One `dir` transfer of `len` bytes at `addr` through the streamer's
/// user ports: a write streams pattern data in 64 KiB beats, each a lazy
/// pattern segment of its own, and waits for the response; a read drains
/// (and discards) its data stream.
fn transfer(sys: &mut SnaccSystem, dir: Dir, addr: u64, len: u64) {
    let ports = sys.streamer.ports();
    match dir {
        Dir::Write => {
            let beats = (0..len)
                .step_by(STREAM_CHUNK as usize)
                .map(|off| Payload::pattern(addr + off, STREAM_CHUNK.min(len - off) as usize));
            ports.write(&mut sys.en, addr, beats);
            ports.response(&mut sys.en);
        }
        Dir::Read => {
            ports.push_read(&mut sys.en, addr, len);
            assert_eq!(ports.receive_with(&mut sys.en, drop), len);
        }
    }
}

/// Fault-campaign accounting gathered after a faulted run: injections at
/// each layer against what the streamer did about them.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultSummary {
    /// NVMe command errors injected by the device.
    pub nvme_errors: u64,
    /// NVMe latency spikes injected by the device.
    pub nvme_spikes: u64,
    /// PCIe completion timeouts injected by the fabric.
    pub pcie_timeouts: u64,
    /// Bulk TLPs slowed inside a degradation window.
    pub pcie_degraded: u64,
    /// Failed completions observed by the streamer.
    pub streamer_errors: u64,
    /// Streamer command timeouts fired.
    pub streamer_timeouts: u64,
    /// Streamer retry attempts.
    pub retries: u64,
    /// Commands that completed after at least one retry.
    pub recovered: u64,
    /// Commands abandoned after exhausting the retry budget.
    pub gave_up: u64,
}

impl FaultSummary {
    /// The accounting counters of a faulted system. The streamer's and the
    /// injectors' counters live in the current metrics registry, so they
    /// count this system only when it was built in a registry of its own,
    /// as every sweep job is (see [`crate::sweep`]).
    pub fn from_system(sys: &SnaccSystem) -> FaultSummary {
        let nvme = sys.nvme.fault_stats();
        let pcie = sys.fabric.borrow().fault_stats();
        let m = sys.streamer.metrics();
        FaultSummary {
            nvme_errors: nvme.errors,
            nvme_spikes: nvme.spikes,
            pcie_timeouts: pcie.timeouts,
            pcie_degraded: pcie.degraded,
            streamer_errors: m.errors.get(),
            streamer_timeouts: m.timeouts.get(),
            retries: m.retries.get(),
            recovered: m.recovered.get(),
            gave_up: m.gave_up.get(),
        }
    }

    /// Injections that surface as failed commands at the streamer (spikes
    /// and degradation only add latency).
    pub fn injected_failures(&self) -> u64 {
        self.nvme_errors + self.pcie_timeouts
    }

    /// Whether every failure was retried or given up. Without a command
    /// timeout each injected failure is one failed completion, so
    /// `injected == retries + gave_up` (DESIGN §12). A timeout adds
    /// failures of its own and can overtake an injected one, whose late
    /// completion the streamer then ignores; so with one, it is the
    /// failures the streamer saw, timeouts included, that must balance.
    pub fn accounted(&self, cmd_timeout: bool) -> bool {
        let failures = if cmd_timeout {
            self.streamer_errors
        } else {
            self.injected_failures()
        };
        failures == self.retries + self.gave_up
    }
}

impl std::fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} (nvme {} + pcie {}), spikes {}, degraded {}, \
             seen {}, timeouts {}, retries {}, recovered {}, gave_up {}",
            self.injected_failures(),
            self.nvme_errors,
            self.pcie_timeouts,
            self.nvme_spikes,
            self.pcie_degraded,
            self.streamer_errors,
            self.streamer_timeouts,
            self.retries,
            self.recovered,
            self.gave_up,
        )
    }
}

/// Put a finished case-study configuration's residency gauges into the
/// metrics registry, so `--metrics-json` reports them as
/// `mem.<config>.nand_backing_bytes` and `mem.<config>.host_backing_bytes`.
/// `<config>` is `label` lower-cased, with every run of other characters
/// folded to `_` ("FPGA (On-board DRAM)" becomes `fpga_on_board_dram`).
fn record_backing_bytes(label: &str, report: &CaseStudyReport) {
    let config = label
        .to_ascii_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    for (store, bytes) in [
        ("nand", report.nand_backing_bytes),
        ("host", report.host_backing_bytes),
    ] {
        snacc_trace::metric_counter(&format!("mem.{config}.{store}_backing_bytes")).add(bytes);
    }
}

/// Where a case-study configuration stores the image stream (Sec 6.1).
#[derive(Clone, Copy)]
pub enum CaseStudyBackend {
    /// SNAcc on the FPGA, buffering in the variant's memory.
    Fpga(StreamerVariant),
    /// The SPDK reference: the host moves the data to storage.
    Spdk,
    /// The GPU reference: the FPGA is a NIC, the GPU classifies.
    Gpu,
}

/// The case study's five configurations, labelled as Fig 6 and Fig 7 are.
pub const CASE_STUDIES: [(&str, CaseStudyBackend); 5] = [
    ("FPGA (URAM)", CaseStudyBackend::Fpga(StreamerVariant::Uram)),
    (
        "FPGA (On-board DRAM)",
        CaseStudyBackend::Fpga(StreamerVariant::OnboardDram),
    ),
    (
        "FPGA (Host DRAM)",
        CaseStudyBackend::Fpga(StreamerVariant::HostDram),
    ),
    ("SPDK", CaseStudyBackend::Spdk),
    ("GPU", CaseStudyBackend::Gpu),
];

/// Run one case-study configuration as a sweep job: run `cfg` on
/// `backend` (an FPGA backend under `plan`'s faults) and record its
/// residency gauges under `label`.
/// Returns the report, and an FPGA backend's fault accounting when it
/// ran under a plan.
pub fn run_case_study(
    label: &str,
    backend: CaseStudyBackend,
    cfg: CaseStudyConfig,
    plan: Option<&FaultPlan>,
) -> (CaseStudyReport, Option<FaultSummary>) {
    let (report, faults) = match backend {
        CaseStudyBackend::Fpga(v) => {
            let mut sys = SnaccSystem::bring_up(SystemConfig {
                faults: plan.cloned(),
                ..SystemConfig::snacc(v)
            });
            let report = run_snacc_case_study(&mut sys, cfg);
            (report, plan.map(|_| FaultSummary::from_system(&sys)))
        }
        CaseStudyBackend::Spdk => (run_spdk_case_study(cfg, 7), None),
        CaseStudyBackend::Gpu => (run_gpu_case_study(cfg, GpuModel::default(), 7), None),
    };
    record_backing_bytes(label, &report);
    (report, faults)
}

/// Sequential bandwidth through the streamer (Fig 4a): transfers `total`
/// bytes in 1 GB requests on a system brought up from `cfg`, reporting
/// per-GiB bandwidths (the paper's alternating write behaviour shows up
/// as distinct per-GiB values) and the fault accounting of the transfers.
pub fn snacc_seq_bandwidth(cfg: SystemConfig, dir: Dir, total: u64) -> (Vec<f64>, FaultSummary) {
    let mut sys = SnaccSystem::bring_up(cfg);
    if dir == Dir::Read {
        // Pre-populate media (cold data still hits the channel ceiling).
        sys.nvme.with(|d| d.nand_mut().prewarm(0, total, 0xA5));
    }
    let gib = 1u64 << 30;
    let mut rates = Vec::new();
    let mut off = 0u64;
    while off < total {
        let n = gib.min(total - off);
        arm_streamer_probe(&mut sys);
        let t0 = sys.en.now();
        transfer(&mut sys, dir, off, n);
        sys.en.run();
        let dt = sys.en.now().since(t0).as_secs_f64();
        rates.push(n as f64 / 1e9 / dt);
        off += n;
    }
    (rates, FaultSummary::from_system(&sys))
}

/// Random 4 KiB bandwidth through the streamer (Fig 4b): `total` bytes in
/// 4 KiB requests at random offsets within a pre-warmed 1 GiB extent, on a
/// system brought up from `cfg`.
pub fn snacc_rand_bandwidth(cfg: SystemConfig, dir: Dir, total: u64, seed: u64) -> f64 {
    let mut sys = SnaccSystem::bring_up(cfg);
    let span = 1u64 << 30;
    sys.nvme.with(|d| d.nand_mut().prewarm(0, span, 0x3C));
    let mut rng = snacc_sim::SimRng::new(seed);
    let count = total / 4096;
    let ports = sys.streamer.ports();
    arm_streamer_probe(&mut sys);
    let t0 = sys.en.now();
    match dir {
        Dir::Read => {
            let mut issued = 0u64;
            let mut received = 0u64;
            while received < total {
                // Keep the command FIFO primed.
                while issued < count {
                    let addr = rng.gen_range(span / 4096) * 4096;
                    let cmd = encode_read_cmd(addr, 4096);
                    if axis::push(&ports.rd_cmd, &mut sys.en, cmd) {
                        issued += 1;
                    } else {
                        break;
                    }
                }
                match axis::pop(&ports.rd_data, &mut sys.en) {
                    Some(beat) => received += beat.len() as u64,
                    None => assert!(sys.en.step(), "random read stalled"),
                }
            }
        }
        Dir::Write => {
            let mut done = 0u64;
            let mut issued = 0u64;
            // One shared 4 KiB page; per-request clones are Rc bumps.
            let payload = Payload::pattern(0, 4096);
            while done < count {
                if issued < count && ports.wr_in.borrow().has_space(4096 + 8) {
                    let addr = rng.gen_range(span / 4096) * 4096;
                    if axis::push(&ports.wr_in, &mut sys.en, encode_write_addr(addr, false)) {
                        let ok = axis::push(
                            &ports.wr_in,
                            &mut sys.en,
                            StreamBeat::last(payload.clone()),
                        );
                        assert!(ok, "space was checked for header+payload");
                        issued += 1;
                        continue;
                    }
                }
                if ports.poll_response(&mut sys.en).is_some() {
                    done += 1;
                } else {
                    assert!(sys.en.step(), "random write stalled");
                }
            }
        }
    }
    sys.en.run();
    let dt = sys.en.now().since(t0).as_secs_f64();
    total as f64 / 1e9 / dt
}

/// Single 4 KiB access latency through the streamer (Fig 4c), averaged
/// over `trials` serial accesses. Reads are pre-warmed (the benchmark
/// reads what it wrote, as the paper's setup does).
pub fn snacc_latency_us(variant: StreamerVariant, dir: Dir, trials: u32, seed: u64) -> f64 {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(variant));
    let span = 256u64 << 20;
    sys.nvme.with(|d| d.nand_mut().prewarm(0, span, 0x7E));
    let mut rng = snacc_sim::SimRng::new(seed);
    let mut sum = 0.0;
    for _ in 0..trials {
        let addr = rng.gen_range(span / 4096) * 4096;
        arm_streamer_probe(&mut sys);
        let t0 = sys.en.now();
        transfer(&mut sys, dir, addr, 4096);
        sys.en.run();
        sum += sys.en.now().since(t0).as_us_f64();
    }
    sum / trials as f64
}

/// An SPDK host baseline run: sequential or random, closed loop at the
/// configured queue depth. Returns GB/s.
pub fn spdk_bandwidth(dir: Dir, random: bool, total: u64, qd: u16, seed: u64) -> f64 {
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), seed);
    let spdk = host.spdk(SpdkConfig::with_queue_depth(qd));
    let span = 1u64 << 30;
    if dir == Dir::Read {
        host.nvme.with(|d| d.nand_mut().prewarm(0, span, 0x11));
    }
    let cmd: u64 = if random { 4096 } else { 1 << 20 };
    let count = total / cmd;
    let mut rng = snacc_sim::SimRng::new(seed ^ 0x77);
    // Closed loop: completions trigger replacement submissions.
    let issued = std::rc::Rc::new(std::cell::RefCell::new(0u64));
    let spdk2 = spdk.downgrade();
    let issued2 = issued.clone();
    let mut addrs: Vec<u64> = Vec::with_capacity(count as usize);
    for i in 0..count {
        let a = if random {
            rng.gen_range(span / cmd) * cmd
        } else {
            (i * cmd) % span
        };
        addrs.push(a);
    }
    let addrs = std::rc::Rc::new(addrs);
    let a2 = addrs.clone();
    // One shared lazy pattern segment: per-command submits clone an Rc
    // instead of copying `cmd` bytes.
    let payload = Payload::pattern(0, cmd as usize);
    let pay2 = payload.clone();
    spdk.set_completion_hook(move |en, _info| {
        let mut i = issued2.borrow_mut();
        if *i < count {
            let addr = a2[*i as usize];
            let spdk2 = spdk2.upgrade();
            let r = match dir {
                Dir::Read => spdk2.submit_read(en, addr, cmd),
                Dir::Write => spdk2.submit_write_payload(en, addr, pay2.clone()),
            };
            if r.is_ok() {
                *i += 1;
            }
        }
    });
    let t0 = host.en.now();
    {
        let mut i = issued.borrow_mut();
        while *i < count.min(qd as u64) {
            let addr = addrs[*i as usize];
            match dir {
                Dir::Read => spdk.submit_read(&mut host.en, addr, cmd).expect("prime"),
                Dir::Write => spdk
                    .submit_write_payload(&mut host.en, addr, payload.clone())
                    .expect("prime"),
            };
            *i += 1;
        }
    }
    host.en.run();
    let st = spdk.stats();
    assert_eq!(st.completed, count, "all commands must finish");
    let dt = host.en.now().since(t0).as_secs_f64();
    total as f64 / 1e9 / dt
}

/// Per-GiB sequential bandwidth series for SPDK (alternation visibility).
pub fn spdk_seq_series(dir: Dir, total: u64, seed: u64) -> Vec<f64> {
    let gib = 1u64 << 30;
    let mut out = Vec::new();
    // One long-lived system; measure GiB windows back to back.
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), seed);
    let spdk = host.spdk(SpdkConfig::default());
    if dir == Dir::Read {
        host.nvme.with(|d| d.nand_mut().prewarm(0, total, 0x22));
    }
    let payload = Payload::pattern(0, 1 << 20);
    let mut off = 0u64;
    while off < total {
        let end = (off + gib).min(total);
        let t0 = host.en.now();
        let mut cur = off;
        // Closed loop within the window at QD 64 via polling steps.
        let done = std::rc::Rc::new(std::cell::RefCell::new(0u64));
        let d2 = done.clone();
        spdk.set_completion_hook(move |_, _| *d2.borrow_mut() += 1);
        let window_cmds = (end - off) / (1 << 20);
        while *done.borrow() < window_cmds {
            while cur < end && spdk.can_submit() {
                match dir {
                    Dir::Read => spdk.submit_read(&mut host.en, cur, 1 << 20).map(|_| ()),
                    Dir::Write => spdk
                        .submit_write_payload(&mut host.en, cur, payload.clone())
                        .map(|_| ()),
                }
                .expect("submit");
                cur += 1 << 20;
            }
            if !host.en.step() && *done.borrow() < window_cmds {
                panic!("SPDK window stalled");
            }
        }
        let dt = host.en.now().since(t0).as_secs_f64();
        out.push((end - off) as f64 / 1e9 / dt);
        off = end;
    }
    out
}

/// Single-access SPDK latency (Fig 4c). Reads target *cold* addresses —
/// see the warm/cold discussion in `snacc-nvme::nand`.
pub fn spdk_latency_us(dir: Dir, trials: u32, seed: u64) -> f64 {
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), seed);
    let spdk = host.spdk(SpdkConfig::default());
    let lat = std::rc::Rc::new(std::cell::RefCell::new(SimDuration::ZERO));
    let l2 = lat.clone();
    spdk.set_completion_hook(move |_, info| {
        *l2.borrow_mut() = info.completed.since(info.submitted);
    });
    let mut rng = snacc_sim::SimRng::new(seed);
    let payload = Payload::pattern(0, 4096);
    let mut sum = 0.0;
    for _ in 0..trials {
        let addr = (40 << 30) + rng.gen_range(1 << 18) * 4096;
        match dir {
            Dir::Read => spdk.submit_read(&mut host.en, addr, 4096).expect("submit"),
            Dir::Write => spdk
                .submit_write_payload(&mut host.en, addr, payload.clone())
                .expect("submit"),
        };
        host.en.run();
        sum += lat.borrow().as_us_f64();
    }
    sum / trials as f64
}
