//! Memory-mapped targets.
//!
//! Anything reachable over the fabric — host DRAM, an FPGA BAR window
//! backed by URAM or on-board DRAM, an NVMe controller's register file —
//! implements [`MmioTarget`]. Targets are *passive*: they move bytes and
//! return a service latency. Side effects that must re-enter the fabric
//! (e.g. a doorbell write triggering command fetch) are deferred via the
//! engine handle.

use snacc_mem::{DramController, HostMemory, SegmentMemory, UramModel};
use snacc_sim::bytes::Payload;
use snacc_sim::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A memory-mapped region reachable through the PCIe fabric. Bytes cross
/// it only as [`Payload`]s: memory-backed targets hand out and retain
/// zero-copy windows of their segment store, and synthesising targets
/// (register files, PRP windows) build a fresh payload per read.
pub trait MmioTarget {
    /// Serve a read of `len` bytes at `offset` within the region.
    /// `arrival` is when the request reaches the target; the returned
    /// duration is the service latency before the completion data starts
    /// back.
    fn read(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration);

    /// Absorb a write of `data` at `offset`. Returns the service latency.
    fn write(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration;
}

/// Host DRAM, mapped at host-physical address 0: a window offset is the
/// absolute address.
impl MmioTarget for HostMemory {
    fn read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let (p, done) = self.read_payload(arrival, offset, len);
        (p, done.since(arrival))
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        self.write_payload(arrival, offset, data).since(arrival)
    }
}

/// A URAM buffer behind an FPGA BAR window based at its address 0.
impl MmioTarget for UramModel {
    fn read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let (p, done) = self.read_payload(arrival, offset, len);
        (p, done.since(arrival))
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        self.write_payload(arrival, offset, data).since(arrival)
    }
}

/// An on-board DRAM window exposed through an FPGA BAR.
pub struct DramTarget {
    dram: Rc<RefCell<DramController>>,
    /// Offset of this window within the DRAM address space.
    window_base: u64,
}

impl DramTarget {
    /// Map `dram` starting at `window_base` within the channel.
    pub fn new(dram: Rc<RefCell<DramController>>, window_base: u64) -> Self {
        DramTarget { dram, window_base }
    }
}

impl MmioTarget for DramTarget {
    fn read(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        let mut d = self.dram.borrow_mut();
        let (p, done) = d.read_payload(arrival, self.window_base + offset, len);
        (p, done.since(arrival))
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        let mut d = self.dram.borrow_mut();
        let done = d.write_payload(arrival, self.window_base + offset, data);
        done.since(arrival)
    }
}

/// Callback a [`ScratchTarget`] invokes on each write:
/// `(engine, region offset, written bytes, arrival + latency)`. The hook
/// runs while the target (and typically the fabric) is borrowed — it must
/// not re-enter either; schedule an event for anything that does.
pub type WriteHook = Box<dyn FnMut(&mut Engine, u64, &[u8], SimTime)>;

/// A plain memory region with fixed service latency: register files,
/// queue FIFOs, completion queues and test windows. An optional write
/// hook makes it the simulation stand-in for "a poller notices new
/// bytes": NVMe completion queues use it so consumers (the streamer's
/// reorder buffer, the SPDK reactor) wake without dense polling events;
/// consumers add their own reaction latency to model polling granularity.
///
/// A small write (a CQE, a doorbell, a register) arrives as a fresh
/// payload that nothing else holds; the segment store copies it in place
/// when one segment it holds alone covers the span, so a ring rewritten
/// slot by slot keeps one segment per ring.
pub struct ScratchTarget {
    name: String,
    mem: SegmentMemory,
    latency: SimDuration,
    hook: Option<WriteHook>,
}

impl ScratchTarget {
    /// Create with a fixed access latency and no hook.
    pub fn new(name: impl Into<String>, latency: SimDuration) -> Self {
        ScratchTarget {
            name: name.into(),
            mem: SegmentMemory::new(),
            latency,
            hook: None,
        }
    }

    /// The region's name, as given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Install (or replace) the write hook.
    pub fn set_hook(&mut self, hook: WriteHook) {
        self.hook = Some(hook);
    }

    /// Functional access to the backing store.
    pub fn mem_mut(&mut self) -> &mut SegmentMemory {
        &mut self.mem
    }
}

impl MmioTarget for ScratchTarget {
    fn read(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        (self.mem.read_payload(offset, len), self.latency)
    }

    fn write(
        &mut self,
        en: &mut Engine,
        arrival: SimTime,
        offset: u64,
        data: Payload,
    ) -> SimDuration {
        // The hook cannot reach this borrowed target, so running it before
        // the window is stored is indistinguishable from running it after.
        if let Some(hook) = &mut self.hook {
            hook(en, offset, &data, arrival + self.latency);
        }
        self.mem.write_payload(offset, data);
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_roundtrip() {
        let mut en = Engine::new();
        let mut t = ScratchTarget::new("regs", SimDuration::from_ns(50));
        let lat = t.write(&mut en, SimTime::ZERO, 0x10, Payload::from(b"abcd"));
        assert_eq!(lat, SimDuration::from_ns(50));
        let (out, _) = t.read(&mut en, SimTime::ZERO, 0x10, 4);
        assert_eq!(out, b"abcd"[..]);
    }

    #[test]
    fn scratch_hook_fires_once_per_write() {
        let mut en = Engine::new();
        let mut t = ScratchTarget::new("cq", SimDuration::from_ns(60));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let log = seen.clone();
        t.set_hook(Box::new(move |_en, off, data, at| {
            log.borrow_mut().push((off, data.to_vec(), at));
        }));
        let arrival = SimTime::ZERO + SimDuration::from_ns(1000);
        let done = arrival + SimDuration::from_ns(60);
        t.write(&mut en, arrival, 0x10, Payload::from(b"cqe0"));
        t.write(&mut en, arrival, 0x20, Payload::from_vec(b"cqe1".to_vec()));
        assert_eq!(
            *seen.borrow(),
            [
                (0x10, b"cqe0".to_vec(), done),
                (0x20, b"cqe1".to_vec(), done)
            ]
        );
        assert_eq!(t.mem_mut().read_vec(0x20, 4), b"cqe1");
    }

    #[test]
    fn scratch_payload_writes_stay_lazy() {
        let mut en = Engine::new();
        let mut t = ScratchTarget::new("bar", SimDuration::from_ns(250));
        t.write(&mut en, SimTime::ZERO, 0, Payload::fill(0xab, 1 << 20));
        let (p, _) = t.read(&mut en, SimTime::ZERO, 4096, 8);
        assert_eq!(p, vec![0xab; 8]);
        assert_eq!(t.mem_mut().backing_bytes(), 0);
    }

    #[test]
    fn uram_model_moves_bytes() {
        let mut en = Engine::new();
        let mut u = UramModel::new("u");
        u.write(&mut en, SimTime::ZERO, 4096, Payload::from(b"hello"));
        let (out, _) = u.read(&mut en, SimTime::ZERO, 4096, 5);
        assert_eq!(out, b"hello"[..]);
        assert_eq!(u.bytes_written(), 5);
    }

    #[test]
    fn dram_target_applies_window_base() {
        let mut en = Engine::new();
        let dram = Rc::new(RefCell::new(DramController::new("d")));
        let mut t = DramTarget::new(dram.clone(), 0x100_0000);
        t.write(&mut en, SimTime::ZERO, 0, Payload::from(b"xy"));
        let got = dram.borrow_mut().store_mut().read_vec(0x100_0000, 2);
        assert_eq!(got, b"xy");
    }

    #[test]
    fn hostmem_absolute_addresses() {
        let mut en = Engine::new();
        let mut mem = HostMemory::default();
        mem.write(&mut en, SimTime::ZERO, 0x5000, Payload::from(b"zz"));
        assert_eq!(mem.store_mut().read_vec(0x5000, 2), b"zz");
    }
}
