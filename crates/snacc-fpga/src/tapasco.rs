//! TaPaSCo-style platform shell.
//!
//! TaPaSCo (paper Sec 2.1) generates the platform infrastructure around
//! user PEs — PCIe endpoint, address map, status core — into which
//! features like SNAcc's NVMe subsystem are added. [`TapascoShell`]
//! models the device side: one 64 MB BAR (Sec 4.5), window allocation for
//! subsystems, an optional second BAR for large on-board DRAM windows,
//! the status core, and on-board DRAM attachment.
//!
//! The host reaches the status core and the DRAM windows with plain
//! fabric reads and writes.

use snacc_mem::{AddrRange, DramController};
use snacc_pcie::target::{DramTarget, ScratchTarget};
use snacc_pcie::{MmioTarget, NodeId, PcieFabric, PcieLinkConfig};
use snacc_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// Status-core magic word (identifies a SNAcc-sim bitstream).
pub const STATUS_MAGIC: u32 = 0x534E_4143; // "SNAC"
/// Shell design version reported by the status core.
pub const SHELL_VERSION: u32 = 0x0001_0000;
/// BAR0 size generated by TaPaSCo (Sec 4.5).
pub const BAR0_SIZE: u64 = 64 << 20;
/// Size of the status-core window.
const STATUS_WINDOW: u64 = 4096;

/// Shell configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShellError {
    /// BAR0 (and BAR2, if present) cannot fit the requested window; add a
    /// second BAR (paper Sec 4.5).
    BarExhausted {
        /// Requested window size.
        requested: u64,
    },
}

/// The TaPaSCo platform shell on the FPGA.
pub struct TapascoShell {
    fabric: Rc<RefCell<PcieFabric>>,
    node: NodeId,
    bar0: AddrRange,
    bar0_cursor: u64,
    bar2: Option<AddrRange>,
    bar2_cursor: u64,
    dram: Option<Rc<RefCell<DramController>>>,
}

impl TapascoShell {
    /// Instantiate the shell: attaches the FPGA to the fabric and maps
    /// BAR0 with the status core in its first window.
    pub fn new(fabric: Rc<RefCell<PcieFabric>>, bar0_base: u64) -> Self {
        let node = fabric
            .borrow_mut()
            .add_device("alveo-u280", PcieLinkConfig::alveo_u280());
        let bar0 = AddrRange::new(bar0_base, BAR0_SIZE);
        let status = Rc::new(RefCell::new(ScratchTarget::new(
            "tapasco-status",
            SimDuration::from_ns(50),
        )));
        {
            let mut s = status.borrow_mut();
            s.mem_mut().write_u32(0x00, STATUS_MAGIC);
            s.mem_mut().write_u32(0x04, SHELL_VERSION);
            s.mem_mut().write_u32(0x08, 0); // PE count
            s.mem_mut().write_u32(0x0C, 300); // design clock MHz
        }
        fabric
            .borrow_mut()
            .map_region(node, AddrRange::new(bar0_base, STATUS_WINDOW), status);
        TapascoShell {
            fabric,
            node,
            bar0,
            bar0_cursor: bar0_base + STATUS_WINDOW,
            bar2: None,
            bar2_cursor: 0,
            dram: None,
        }
    }

    /// The FPGA's fabric node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared fabric handle.
    pub fn fabric(&self) -> Rc<RefCell<PcieFabric>> {
        self.fabric.clone()
    }

    /// BAR0 range.
    pub fn bar0(&self) -> AddrRange {
        self.bar0
    }

    /// Allocate an address window for a subsystem, 4 KiB-aligned, from
    /// BAR0 first, then BAR2.
    pub fn alloc_window(&mut self, size: u64) -> Result<AddrRange, ShellError> {
        let size = size.div_ceil(4096) * 4096;
        if self.bar0_cursor + size <= self.bar0.end() {
            let r = AddrRange::new(self.bar0_cursor, size);
            self.bar0_cursor += size;
            return Ok(r);
        }
        if let Some(bar2) = self.bar2 {
            if self.bar2_cursor + size <= bar2.end() {
                let r = AddrRange::new(self.bar2_cursor, size);
                self.bar2_cursor += size;
                return Ok(r);
            }
        }
        Err(ShellError::BarExhausted { requested: size })
    }

    /// Add the second BAR needed once a design maps more than BAR0 can
    /// hold (e.g. a 64 MB on-board DRAM window next to the 8 MB URAM
    /// window; Sec 4.5).
    pub fn add_second_bar(&mut self, base: u64, size: u64) {
        assert!(self.bar2.is_none(), "BAR2 already present");
        let r = AddrRange::new(base, size);
        assert!(!r.overlaps(&self.bar0), "BAR2 overlaps BAR0");
        self.bar2 = Some(r);
        self.bar2_cursor = base;
    }

    /// Map a target into an allocated window.
    pub fn map_target(&mut self, range: AddrRange, target: Rc<RefCell<dyn MmioTarget>>) {
        self.fabric
            .borrow_mut()
            .map_region(self.node, range, target);
    }

    /// Attach the on-board DRAM channel (single controller; Sec 5.2 notes
    /// TaPaSCo's current limit of one).
    pub fn attach_dram(&mut self) -> Rc<RefCell<DramController>> {
        assert!(self.dram.is_none(), "TaPaSCo supports one DRAM controller");
        let d = Rc::new(RefCell::new(DramController::new("u280-ddr4")));
        self.dram = Some(d.clone());
        d
    }

    /// The attached DRAM controller, if any.
    pub fn dram(&self) -> Option<Rc<RefCell<DramController>>> {
        self.dram.clone()
    }

    /// Expose a DRAM window through the BAR for host/peer access; returns
    /// the window and the target mapped there, which on-FPGA logic uses to
    /// reach the same bytes.
    pub fn map_dram_window(
        &mut self,
        window_base_in_dram: u64,
        size: u64,
    ) -> Result<(AddrRange, Rc<RefCell<DramTarget>>), ShellError> {
        let dram = self.dram.clone().expect("attach_dram first");
        let range = self.alloc_window(size)?;
        let target = Rc::new(RefCell::new(DramTarget::new(dram, window_base_in_dram)));
        self.map_target(range, target.clone());
        Ok((range, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snacc_pcie::HOST_NODE;
    use snacc_sim::{Engine, Payload, SimTime};

    const BAR0: u64 = 0x4_0000_0000;

    fn shell() -> (Engine, TapascoShell) {
        let fabric = Rc::new(RefCell::new(PcieFabric::new()));
        (Engine::new(), TapascoShell::new(fabric, BAR0))
    }

    /// The host reads the status core's `(magic, version, pe_count)`
    /// words over fabric MMIO.
    fn enumerate(en: &mut Engine, sh: &TapascoShell) -> (u32, u32, u32) {
        let fabric = sh.fabric();
        let mut fab = fabric.borrow_mut();
        let mut word = |off| fab.read_u32(en, HOST_NODE, BAR0 + off).unwrap();
        (word(0), word(4), word(8))
    }

    #[test]
    fn status_core_enumerates() {
        let (mut en, sh) = shell();
        assert_eq!(enumerate(&mut en, &sh), (STATUS_MAGIC, SHELL_VERSION, 0));
    }

    #[test]
    fn window_allocation_within_bar0() {
        let (_, mut sh) = shell();
        let a = sh.alloc_window(8 << 20).unwrap();
        let b = sh.alloc_window(1000).unwrap(); // rounds to 4 KiB
        assert_eq!(b.size, 4096);
        assert!(!a.overlaps(&b));
        assert!(sh.bar0().contains_span(a.base, a.size));
    }

    #[test]
    fn bar_exhaustion_and_second_bar() {
        let (_, mut sh) = shell();
        // Fill BAR0 (64 MB minus the status window).
        sh.alloc_window(60 << 20).unwrap();
        let err = sh.alloc_window(16 << 20).unwrap_err();
        assert!(matches!(err, ShellError::BarExhausted { .. }));
        // Add BAR2 and retry — the paper's >8 MB DRAM window case.
        sh.add_second_bar(BAR0 + (1 << 30), 256 << 20);
        let w = sh.alloc_window(128 << 20).unwrap();
        assert_eq!(w.size, 128 << 20);
    }

    #[test]
    fn dram_window_roundtrip_over_fabric() {
        let (mut en, mut sh) = shell();
        let dram = sh.attach_dram();
        let (w, _) = sh.map_dram_window(0, 1 << 20).unwrap();
        let data: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        let fabric = sh.fabric();
        let mut fab = fabric.borrow_mut();
        let payload = Payload::from(&data[..]);
        fab.write(&mut en, SimTime::ZERO, HOST_NODE, w.base, payload)
            .unwrap();
        let (back, _) = fab
            .read(&mut en, SimTime::ZERO, HOST_NODE, w.base, 65536)
            .unwrap();
        assert_eq!(back, data);
        // Data really lives in the DRAM model.
        assert_eq!(
            dram.borrow_mut().store_mut().read_vec(0, 16),
            data[..16].to_vec()
        );
    }
}
