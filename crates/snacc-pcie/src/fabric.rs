//! The PCIe fabric: topology, routing, and transaction timing.
//!
//! Topology is a star: every device has one full-duplex link to the root
//! complex (which also fronts host memory). Transactions:
//!
//! * host → device (MMIO, doorbells): down-link of the target,
//! * device → host (DMA): up-link of the requester,
//! * device → device (peer-to-peer): up-link of the requester, a root
//!   complex forwarding hop, and the down-link of the target —
//!
//! with TLP header overhead charged per packet and the IOMMU checked for
//! every device-initiated access. All byte movement is functional: the
//! registered [`MmioTarget`] really receives/produces the bytes.

use crate::config::PcieLinkConfig;
use crate::iommu::Iommu;
use crate::target::MmioTarget;
use crate::tlp::{wire_bytes, READ_REQUEST_BYTES};

/// Payloads at or below this size ride as interleaved control TLPs
/// (doorbells, CQEs, SQE fetches) — they pay wire time and latency but do
/// not queue behind bulk data windows.
pub const CTRL_TLP_BYTES: u64 = 512;
use snacc_mem::{AddrRange, AddressMap};
use snacc_sim::{Engine, Payload, SharedLink, SimDuration, SimRng, SimTime};
use snacc_trace as trace;
use snacc_trace::MeterHandle;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A node on the fabric. `HOST_NODE` is the root complex / host CPU side;
/// devices are numbered from 1 in registration order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// The host / root-complex node.
pub const HOST_NODE: NodeId = NodeId(0);

/// Errors a fabric transaction can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcieError {
    /// The IOMMU denied a device-initiated access.
    IommuFault {
        /// Requesting node.
        requester: NodeId,
        /// Faulting address.
        addr: u64,
    },
    /// No mapped range covers the requested span.
    Unmapped {
        /// Requested address.
        addr: u64,
        /// Requested length.
        len: u64,
    },
    /// Requester and target are the same node — local accesses must not be
    /// routed over the fabric (this is a model-wiring bug).
    LocalAccess,
    /// The completion for a non-posted read never arrived (injected
    /// fault; see [`PcieFaultConfig`]). A transient condition — callers
    /// with a retry policy may re-issue the transaction.
    CompletionTimeout {
        /// Requesting node.
        requester: NodeId,
        /// Address of the timed-out read.
        addr: u64,
    },
}

impl fmt::Display for PcieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcieError::IommuFault { requester, addr } => {
                write!(f, "IOMMU fault: node {requester:?} at {addr:#x}")
            }
            PcieError::Unmapped { addr, len } => {
                write!(f, "unmapped PCIe access at {addr:#x} (+{len})")
            }
            PcieError::LocalAccess => write!(f, "local access routed over fabric"),
            PcieError::CompletionTimeout { requester, addr } => {
                write!(f, "completion timeout: node {requester:?} at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for PcieError {}

/// Transactions below this size are never faulted: doorbells (4 B), CQEs
/// (16 B), and SQE fetches stay reliable so an injected fault can only
/// hit data movement, where the NVMe/streamer recovery path handles it.
pub const FAULT_MIN_BYTES: u64 = 4096;

/// Fault-injection configuration for the fabric (see
/// [`PcieFabric::install_faults`]). Two independent mechanisms:
///
/// * **Completion timeouts** — a seeded draw aborts eligible non-posted
///   reads with [`PcieError::CompletionTimeout`]. Posted writes are never
///   timed out (they have no completion to lose), matching real PCIe.
/// * **Link degradation** — every eligible transaction *issued* inside
///   the window pays a fixed extra latency. Deterministic: no RNG draw,
///   so it perturbs timing without consuming randomness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PcieFaultConfig {
    /// Probability that an eligible non-posted read times out.
    pub timeout_rate: f64,
    /// Restrict timeout draws to `[start, end)` (`None` = whole run).
    pub window: Option<(SimTime, SimTime)>,
    /// Link-degradation window `[start, end)` (`None` = off).
    pub degrade_window: Option<(SimTime, SimTime)>,
    /// Extra latency per degraded transaction.
    pub degrade_extra: SimDuration,
    /// Seed for the timeout draws.
    pub seed: u64,
}

/// Counters kept by the fabric fault injector (its `faults.pcie.*`
/// registry counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcieFaultStats {
    /// Non-posted reads aborted with a completion timeout.
    pub timeouts: u64,
    /// Transactions that paid the link-degradation latency.
    pub degraded: u64,
}

struct PcieFaultState {
    cfg: PcieFaultConfig,
    rng: SimRng,
    /// `faults.pcie.*` in the current metrics registry.
    timeouts: trace::CounterHandle,
    degraded: trace::CounterHandle,
}

/// Decoded MMIO route: (offset within the window, owning node, target).
type DecodedTarget = (u64, NodeId, Rc<RefCell<dyn MmioTarget>>);

struct DeviceLink {
    name: String,
    /// Device → root complex.
    up: SharedLink,
    /// Root complex → device.
    down: SharedLink,
}

struct MapEntry {
    node: NodeId,
    target: Rc<RefCell<dyn MmioTarget>>,
}

/// The star-topology PCIe fabric.
pub struct PcieFabric {
    devices: Vec<DeviceLink>,
    map: AddressMap<MapEntry>,
    iommu: Iommu,
    /// Root-complex forwarding latency for peer-to-peer hops.
    rc_forward: SimDuration,
    /// Payload bytes per *transaction* (counted once, not per link) — the
    /// paper's Fig 7 "data transfers over the PCIe bus" metric, kept as
    /// `pcie.payload` in the current metrics registry.
    payload_meter: MeterHandle,
    /// Fault injector, absent in normal operation.
    faults: Option<PcieFaultState>,
}

impl Default for PcieFabric {
    fn default() -> Self {
        Self::new()
    }
}

impl PcieFabric {
    /// An empty fabric with a passthrough IOMMU. Call
    /// [`set_iommu`](Self::set_iommu) to install an enforcing one.
    pub fn new() -> Self {
        PcieFabric {
            devices: Vec::new(),
            map: AddressMap::new(),
            iommu: Iommu::passthrough(),
            rc_forward: SimDuration::from_ns(100),
            payload_meter: trace::metric_meter("pcie.payload"),
            faults: None,
        }
    }

    /// Install (or replace) the fault injector. Its windows show as
    /// `window.pcie_timeouts` and `window.pcie_degrade` trace spans.
    pub fn install_faults(&mut self, cfg: PcieFaultConfig) {
        if trace::enabled() {
            if let Some((a, b)) = cfg.window {
                trace::span_between("faults", "window.pcie_timeouts", a, b, &[]);
            }
            if let Some((a, b)) = cfg.degrade_window {
                trace::span_between("faults", "window.pcie_degrade", a, b, &[]);
            }
        }
        self.faults = Some(PcieFaultState {
            rng: SimRng::new(cfg.seed),
            cfg,
            timeouts: trace::metric_counter("faults.pcie.completion_timeouts"),
            degraded: trace::metric_counter("faults.pcie.degraded_tlps"),
        });
    }

    /// Snapshot of the injector's counters (zeros if none installed).
    pub fn fault_stats(&self) -> PcieFaultStats {
        self.faults
            .as_ref()
            .map(|f| PcieFaultStats {
                timeouts: f.timeouts.get(),
                degraded: f.degraded.get(),
            })
            .unwrap_or_default()
    }

    /// Draw a completion timeout for an eligible read issued at `start`.
    fn draw_timeout(&mut self, en: &mut Engine, start: SimTime, len: u64, addr: u64) -> bool {
        if len < FAULT_MIN_BYTES {
            return false;
        }
        let Some(f) = &mut self.faults else {
            return false;
        };
        let in_window = f.cfg.window.is_none_or(|(a, b)| start >= a && start < b);
        if !in_window || !f.rng.chance(f.cfg.timeout_rate) {
            return false;
        }
        f.timeouts.inc();
        if trace::enabled() {
            trace::instant(
                en,
                "pcie.faults",
                "fault.completion_timeout",
                &[("addr", addr), ("len", len)],
            );
        }
        true
    }

    /// Apply the degradation window to a transaction issued at `start`
    /// that would otherwise complete at `t`.
    fn degrade(&mut self, start: SimTime, len: u64, t: SimTime) -> SimTime {
        if len < FAULT_MIN_BYTES {
            return t;
        }
        let Some(f) = &mut self.faults else {
            return t;
        };
        let Some((a, b)) = f.cfg.degrade_window else {
            return t;
        };
        if start >= a && start < b {
            f.degraded.inc();
            t + f.cfg.degrade_extra
        } else {
            t
        }
    }

    /// Install an IOMMU (replaces the current one).
    pub fn set_iommu(&mut self, iommu: Iommu) {
        self.iommu = iommu;
    }

    /// Mutable access to the IOMMU (for grants).
    pub fn iommu_mut(&mut self) -> &mut Iommu {
        &mut self.iommu
    }

    /// Attach a device with the given link; returns its node id.
    pub fn add_device(&mut self, name: impl Into<String>, cfg: PcieLinkConfig) -> NodeId {
        let name = name.into();
        let hop = SimDuration::from_ns(200);
        let up = SharedLink::new(format!("{name}.up"), cfg.bandwidth(), hop);
        let down = SharedLink::new(format!("{name}.down"), cfg.bandwidth(), hop);
        self.devices.push(DeviceLink { name, up, down });
        NodeId(self.devices.len())
    }

    /// Map an address range owned by `node` to a target.
    pub fn map_region(
        &mut self,
        node: NodeId,
        range: AddrRange,
        target: Rc<RefCell<dyn MmioTarget>>,
    ) {
        self.map.insert(range, MapEntry { node, target });
    }

    /// Which node owns the mapping that covers `addr`, if any.
    pub fn owner_of(&self, addr: u64) -> Option<NodeId> {
        self.map.decode(addr).map(|(_, e)| e.node)
    }

    /// Payload bytes transferred over the bus, counted once per
    /// transaction — the paper's Fig 7 metric ("data transfers over the
    /// PCIe bus"): a P2P move is one transfer, staging through host
    /// memory is two. Read from the `pcie.payload` meter, so it counts
    /// this fabric only when no other fabric shares its metrics registry.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload_meter.bytes()
    }

    /// Reset all byte meters (e.g. after warm-up).
    pub fn reset_meters(&mut self) {
        for d in &mut self.devices {
            d.up.reset_meter();
            d.down.reset_meter();
        }
        self.payload_meter.reset();
    }

    /// A non-posted read issued at `start` (≥ now): `requester` reads
    /// `len` bytes at fabric address `addr`. Returns the bytes, as the
    /// target hands them out (a zero-copy view of a memory's segment
    /// store), and the time the last completion byte reaches the
    /// requester.
    pub fn read(
        &mut self,
        en: &mut Engine,
        start: SimTime,
        requester: NodeId,
        addr: u64,
        len: u64,
    ) -> Result<(Payload, SimTime), PcieError> {
        debug_assert!(start >= en.now());
        let (offset, target_node, target) = self.route(requester, addr, len)?;
        if self.draw_timeout(en, start, len, addr) {
            return Err(PcieError::CompletionTimeout { requester, addr });
        }
        let wire = wire_bytes(len);
        let small = len <= CTRL_TLP_BYTES;
        self.payload_meter.record(len);

        // Request phase: a header-only TLP towards the target (control
        // traffic: interleaves, never queues behind bulk data).
        let t = self.hop(start, requester, target_node, READ_REQUEST_BYTES, true);
        let (data, service) = target.borrow_mut().read(en, t, offset, len as usize);
        // Completion phase: the data flows back to the requester.
        let t = self.hop(t + service, target_node, requester, wire, small);
        let done = self.degrade(start, len, t);
        if !small && trace::enabled() {
            trace::span_between(
                &self.track(requester, target_node),
                "tlp.read",
                start,
                done,
                &[("addr", addr), ("len", len)],
            );
        }
        Ok((data, done))
    }

    /// A posted write issued at `start` (≥ now): `requester` writes `data`
    /// at fabric address `addr`; the target retains or copies the payload.
    /// Returns the time the target has absorbed the data.
    pub fn write(
        &mut self,
        en: &mut Engine,
        start: SimTime,
        requester: NodeId,
        addr: u64,
        data: Payload,
    ) -> Result<SimTime, PcieError> {
        debug_assert!(start >= en.now());
        let len = data.len() as u64;
        let (offset, target_node, target) = self.route(requester, addr, len)?;
        let wire = wire_bytes(len);
        let small = len <= CTRL_TLP_BYTES;
        self.payload_meter.record(len);

        let t = self.hop(start, requester, target_node, wire, small);
        let service = target.borrow_mut().write(en, t, offset, data);
        let done = self.degrade(start, len, t + service);
        if !small && trace::enabled() {
            trace::span_between(
                &self.track(requester, target_node),
                "tlp.write",
                start,
                done,
                &[("addr", addr), ("len", len)],
            );
        }
        Ok(done)
    }

    /// Check the IOMMU, decode the target and refuse local accesses.
    fn route(
        &mut self,
        requester: NodeId,
        addr: u64,
        len: u64,
    ) -> Result<DecodedTarget, PcieError> {
        if requester != HOST_NODE && !self.iommu.check(requester, addr, len) {
            return Err(PcieError::IommuFault { requester, addr });
        }
        let (range, entry) = self
            .map
            .decode_span(addr, len)
            .ok_or(PcieError::Unmapped { addr, len })?;
        if requester == entry.node {
            return Err(PcieError::LocalAccess);
        }
        Ok((range.offset_of(addr), entry.node, entry.target.clone()))
    }

    /// Carry `wire` bytes from `src` to `dst` starting at `t`: the
    /// source's up-link, the root-complex hop of a peer-to-peer move, and
    /// the destination's down-link. Small transfers interleave; bulk data
    /// queues on the links.
    fn hop(&mut self, mut t: SimTime, src: NodeId, dst: NodeId, wire: u64, small: bool) -> SimTime {
        let book = |l: &mut SharedLink, t| {
            if small {
                l.transfer_interleaved(t, wire)
            } else {
                l.transfer(t, wire)
            }
        };
        if src != HOST_NODE {
            t = book(&mut self.devices[src.0 - 1].up, t);
        }
        if src != HOST_NODE && dst != HOST_NODE {
            t += self.rc_forward;
        }
        if dst != HOST_NODE {
            t = book(&mut self.devices[dst.0 - 1].down, t);
        }
        t
    }

    /// The trace track of a bulk transaction's span (control TLPs would
    /// swamp the trace): the device taking part, or the requester of a
    /// peer-to-peer move.
    fn track(&self, requester: NodeId, target: NodeId) -> String {
        let dev = if requester != HOST_NODE {
            requester
        } else {
            target
        };
        format!("pcie.{}", self.devices[dev.0 - 1].name)
    }

    /// Convenience: 32-bit register read issued now (host driver MMIO).
    pub fn read_u32(
        &mut self,
        en: &mut Engine,
        requester: NodeId,
        addr: u64,
    ) -> Result<u32, PcieError> {
        let now = en.now();
        let (p, _) = self.read(en, now, requester, addr, 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&p);
        Ok(u32::from_le_bytes(b))
    }

    /// Convenience: 32-bit register write issued now (host driver MMIO /
    /// doorbells).
    pub fn write_u32(
        &mut self,
        en: &mut Engine,
        requester: NodeId,
        addr: u64,
        value: u32,
    ) -> Result<SimTime, PcieError> {
        let now = en.now();
        self.write(en, now, requester, addr, Payload::from(value.to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PcieLinkConfig;
    use crate::target::ScratchTarget;

    fn scratch(name: &str) -> Rc<RefCell<ScratchTarget>> {
        Rc::new(RefCell::new(ScratchTarget::new(
            name,
            SimDuration::from_ns(50),
        )))
    }

    fn setup() -> (Engine, PcieFabric, NodeId, NodeId) {
        let mut fab = PcieFabric::new();
        let fpga = fab.add_device("fpga", PcieLinkConfig::alveo_u280());
        let ssd = fab.add_device("ssd", PcieLinkConfig::nvme_gen4_x4());
        (Engine::new(), fab, fpga, ssd)
    }

    /// `len` bytes of `byte`, as a fresh payload.
    fn bytes(byte: u8, len: usize) -> Payload {
        Payload::from_vec(vec![byte; len])
    }

    #[test]
    fn host_to_device_write_read() {
        let (mut en, mut fab, fpga, _) = setup();
        let t = scratch("bar0");
        fab.map_region(fpga, AddrRange::new(0x10_0000, 0x1000), t.clone());
        let now = en.now();
        fab.write(&mut en, now, HOST_NODE, 0x10_0010, Payload::from(b"ping"))
            .unwrap();
        let (out, _) = fab.read(&mut en, now, HOST_NODE, 0x10_0010, 4).unwrap();
        assert_eq!(out, b"ping"[..]);
    }

    /// Bytes moved over a device's link (both directions).
    fn link_bytes(fab: &PcieFabric, node: NodeId) -> u64 {
        let d = &fab.devices[node.0 - 1];
        d.up.bytes_transferred() + d.down.bytes_transferred()
    }

    #[test]
    fn p2p_routes_through_both_links() {
        let (mut en, mut fab, fpga, ssd) = setup();
        let t = scratch("fpga-mem");
        fab.map_region(fpga, AddrRange::new(0x20_0000, 0x1000), t);
        // SSD reads 512 B from FPGA BAR.
        let (_, done) = fab
            .read(&mut en, SimTime::ZERO, ssd, 0x20_0000, 512)
            .unwrap();
        assert!(done > SimTime::ZERO);
        // Both device links saw traffic.
        assert!(link_bytes(&fab, ssd) > 0);
        assert!(link_bytes(&fab, fpga) > 0);
        // FPGA link carried the completion data upstream.
        assert!(link_bytes(&fab, fpga) >= 512);
    }

    #[test]
    fn unmapped_access_fails() {
        let (mut en, mut fab, _, _) = setup();
        let e = fab.read(&mut en, SimTime::ZERO, HOST_NODE, 0xdead_0000, 4);
        assert!(matches!(e, Err(PcieError::Unmapped { .. })));
    }

    #[test]
    fn iommu_blocks_ungranted_p2p() {
        let (mut en, mut fab, fpga, ssd) = setup();
        fab.set_iommu(Iommu::new());
        let t = scratch("fpga-mem");
        fab.map_region(fpga, AddrRange::new(0x20_0000, 0x1000), t);
        let e = fab.read(&mut en, SimTime::ZERO, ssd, 0x20_0000, 8);
        assert!(matches!(e, Err(PcieError::IommuFault { .. })));
        let e = fab.write(&mut en, SimTime::ZERO, ssd, 0x20_0000, bytes(1, 8));
        assert!(matches!(e, Err(PcieError::IommuFault { .. })));
        // After a grant it works.
        fab.iommu_mut()
            .grant(ssd, AddrRange::new(0x20_0000, 0x1000));
        fab.write(&mut en, SimTime::ZERO, ssd, 0x20_0000, bytes(1, 8))
            .unwrap();
        let (out, _) = fab.read(&mut en, SimTime::ZERO, ssd, 0x20_0000, 8).unwrap();
        assert_eq!(out, vec![1u8; 8]);
        // Host accesses bypass the IOMMU.
        fab.write(
            &mut en,
            SimTime::ZERO,
            HOST_NODE,
            0x20_0000,
            Payload::from(b"x"),
        )
        .unwrap();
    }

    #[test]
    fn local_access_rejected() {
        let (mut en, mut fab, fpga, _) = setup();
        let t = scratch("fpga-mem");
        fab.map_region(fpga, AddrRange::new(0x0, 0x1000), t);
        let e = fab.read(&mut en, SimTime::ZERO, fpga, 0x0, 4);
        assert_eq!(e, Err(PcieError::LocalAccess));
    }

    #[test]
    fn bandwidth_serialises_on_narrow_link() {
        // Two 64 KiB host→SSD writes serialise on the SSD's Gen4 x4 link.
        let (mut en, mut fab, _, ssd) = setup();
        let t = scratch("ssd-buf");
        fab.map_region(ssd, AddrRange::new(0x80_0000, 0x2_0000), t);
        let buf = Payload::fill(0, 65536);
        let t1 = fab
            .write(&mut en, SimTime::ZERO, HOST_NODE, 0x80_0000, buf.clone())
            .unwrap();
        let t2 = fab
            .write(&mut en, SimTime::ZERO, HOST_NODE, 0x80_0000, buf)
            .unwrap();
        let d1 = t1.since(SimTime::ZERO).as_ns();
        let d2 = t2.since(SimTime::ZERO).as_ns();
        // Second transfer takes roughly twice as long end-to-end.
        assert!(d2 as f64 > 1.8 * d1 as f64, "d1={d1} d2={d2}");
    }

    #[test]
    fn wire_overhead_counted_in_link_bytes() {
        let (mut en, mut fab, fpga, _) = setup();
        let t = scratch("bar");
        fab.map_region(fpga, AddrRange::new(0x0, 0x10000), t);
        fab.write(
            &mut en,
            SimTime::ZERO,
            HOST_NODE,
            0x0,
            Payload::fill(0, 4096),
        )
        .unwrap();
        // 4096 B at MPS 512 → 8 packets → 8 × 24 B headers.
        assert_eq!(link_bytes(&fab, fpga), 4096 + 8 * 24);
    }

    #[test]
    fn u32_register_helpers() {
        let (mut en, mut fab, fpga, _) = setup();
        let t = scratch("regs");
        fab.map_region(fpga, AddrRange::new(0x1000, 0x100), t);
        fab.write_u32(&mut en, HOST_NODE, 0x1004, 0xabcd_1234)
            .unwrap();
        assert_eq!(
            fab.read_u32(&mut en, HOST_NODE, 0x1004).unwrap(),
            0xabcd_1234
        );
    }

    #[test]
    fn injected_timeouts_spare_control_traffic() {
        let (mut en, mut fab, fpga, _) = setup();
        let t = scratch("bar");
        fab.map_region(fpga, AddrRange::new(0x0, 0x10000), t);
        fab.install_faults(PcieFaultConfig {
            timeout_rate: 1.0,
            seed: 7,
            ..Default::default()
        });
        // A doorbell-sized read is never faulted.
        assert!(fab.read_u32(&mut en, HOST_NODE, 0x0).is_ok());
        // A bulk read times out every time at rate 1.0.
        let e = fab.read(&mut en, SimTime::ZERO, HOST_NODE, 0x0, 8192);
        assert!(matches!(e, Err(PcieError::CompletionTimeout { .. })));
        assert_eq!(fab.fault_stats().timeouts, 1);
        // Posted writes have no completion to lose.
        fab.write(&mut en, SimTime::ZERO, HOST_NODE, 0x0, bytes(3, 8192))
            .unwrap();
        assert_eq!(fab.fault_stats().timeouts, 1);
        // Clearing the injector restores normal service.
        fab.faults = None;
        let (out, _) = fab
            .read(&mut en, SimTime::ZERO, HOST_NODE, 0x0, 8192)
            .unwrap();
        assert_eq!(out, vec![3u8; 8192]);
    }

    #[test]
    fn degradation_window_slows_bulk_transfers() {
        let (mut en, mut fab, fpga, _) = setup();
        let t = scratch("bar");
        fab.map_region(fpga, AddrRange::new(0x0, 0x10000), t);
        let buf = bytes(0, 8192);
        let clean = fab
            .write(&mut en, SimTime::ZERO, HOST_NODE, 0x0, buf.clone())
            .unwrap();
        let (_, clean_read) = fab
            .read(&mut en, SimTime::ZERO, HOST_NODE, 0x0, 8192)
            .unwrap();
        let win = (SimTime::ZERO, SimTime::ZERO + SimDuration::from_us(1000));
        fab.install_faults(PcieFaultConfig {
            degrade_window: Some(win),
            degrade_extra: SimDuration::from_us(5),
            ..Default::default()
        });
        let t1 = fab
            .write(&mut en, SimTime::ZERO, HOST_NODE, 0x0, buf)
            .unwrap();
        // The degraded transfer finishes at least `degrade_extra` after
        // the point the clean repeat would have (the wire time itself is
        // well under 5 µs for 8 KiB on this link).
        assert!(
            t1.since(clean) >= SimDuration::from_us(5),
            "{t1:?} vs {clean:?}"
        );
        assert_eq!(fab.fault_stats().degraded, 1);
        // Reads in the window pay it too.
        let (_, r) = fab
            .read(&mut en, SimTime::ZERO, HOST_NODE, 0x0, 8192)
            .unwrap();
        assert!(
            r.since(clean_read) >= SimDuration::from_us(5),
            "{r:?} vs {clean_read:?}"
        );
        assert_eq!(fab.fault_stats().degraded, 2);
        // Control-sized traffic is untouched even inside the window.
        fab.write_u32(&mut en, HOST_NODE, 0x0, 1).unwrap();
        assert_eq!(fab.fault_stats().degraded, 2);
    }

    #[test]
    fn gen5_link_is_faster() {
        let mut fab = PcieFabric::new();
        let g4 = fab.add_device("g4", PcieLinkConfig::nvme_gen4_x4());
        let mut en = Engine::new();
        fab.map_region(g4, AddrRange::new(0x0, 0x100000), scratch("t4"));
        let buf = Payload::fill(0, 1 << 20);
        let a = fab
            .write(&mut en, SimTime::ZERO, HOST_NODE, 0x0, buf.clone())
            .unwrap();
        // A fresh fabric and engine for a clean comparison.
        let mut en2 = Engine::new();
        let mut fab2 = PcieFabric::new();
        let g5 = fab2.add_device("g5", PcieLinkConfig::nvme_gen5_x4());
        fab2.map_region(g5, AddrRange::new(0x0, 0x100000), scratch("t5"));
        let b = fab2
            .write(&mut en2, SimTime::ZERO, HOST_NODE, 0x0, buf)
            .unwrap();
        assert!(b < a, "gen5 {b} should beat gen4 {a}");
    }
}
