//! On-the-fly PRP synthesis (paper Sec 4.4, Figures 2 and 3).
//!
//! The streamer never stores PRP lists: because each command's buffer is
//! contiguous and starts at a 4 KiB boundary, the n-th PRP entry is
//! `first_page + n × 4096`. When the NVMe controller reads a "PRP list
//! page", the streamer synthesises the entries combinationally from the
//! requested address:
//!
//! * **URAM scheme (Fig 2)** — the 4 MB data window is decode-doubled to
//!   8 MB; bit 22 of PRP2 selects the upper half, where a read at offset
//!   `o` returns entries `data_base + o + k × 4096`.
//! * **Register-file scheme (Fig 3)** — the DRAM variants keep PRP lists
//!   in a separate small window indexed by the low bits of the command
//!   id; a register file holds each active command's second-page address.
//!   The host-DRAM flavour additionally walks the pinned-buffer segment
//!   table, since a 64 MB buffer is stitched from 4 MB pieces (Sec 4.3).

use snacc_mem::hostmem::PinnedBuffer;
use snacc_pcie::MmioTarget;
use snacc_sim::{Engine, Payload, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Page size used throughout.
const PAGE: u64 = 4096;

/// `len` bytes of little-endian PRP entries, entry `i` being `entry(i)`
/// (a trailing partial entry keeps its low bytes).
fn entries(len: usize, mut entry: impl FnMut(u64) -> u64) -> Payload {
    let mut out = vec![0u8; len];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&entry(i as u64).to_le_bytes()[..chunk.len()]);
    }
    Payload::from_vec(out)
}

/// The URAM scheme's upper-half window: synthesises PRP entries for the
/// data window starting at device address `data_dev_base`.
pub struct UramPrpWindow {
    data_dev_base: u64,
    latency: SimDuration,
    /// Synthesised list-page reads served (each would otherwise have been
    /// a stored-list memory fetch).
    pub reads_served: u64,
}

impl UramPrpWindow {
    /// Create the window for a data region mapped at `data_dev_base`.
    pub fn new(data_dev_base: u64) -> Self {
        UramPrpWindow {
            data_dev_base,
            latency: SimDuration::from_ns(20),
            reads_served: 0,
        }
    }

    /// PRP2 value for a command whose buffer starts at `region_offset`
    /// within the data window, given this PRP window is mapped at
    /// `prp_win_base` (= data base + 4 MB, i.e. bit 22 set).
    pub fn prp2_for(prp_win_base: u64, region_offset: u64) -> u64 {
        prp_win_base + region_offset + PAGE
    }
}

impl MmioTarget for UramPrpWindow {
    fn read(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        self.reads_served += 1;
        // Entry k of the synthesised page at `offset` is the device
        // address of data page (offset + k·4096).
        let base_entry = self.data_dev_base + (offset / PAGE) * PAGE;
        let first_index = (offset % PAGE) / 8;
        let page = entries(len, |i| base_entry + (first_index + i) * PAGE);
        (page, self.latency)
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        _offset: u64,
        _data: Payload,
    ) -> SimDuration {
        // The PRP window is read-only; writes are silently dropped, as a
        // BAR decode to a read-only region would be.
        self.latency
    }
}

/// Per-command register-file entry (Fig 3): how to compute the command's
/// PRP entries.
#[derive(Clone, Debug)]
pub enum PrpMapping {
    /// Contiguous device-visible buffer: entry k = `second_page + k·4096`.
    Contig {
        /// Device address of the command's second data page.
        second_page: u64,
    },
    /// Host pinned buffer stitched from ≤ 4 MB segments: entry k is the
    /// physical address of logical page `second_page_index + k`.
    Segmented {
        /// The pinned buffer's segment table.
        pinned: PinnedBuffer,
        /// Logical page index (within the pinned buffer) of the command's
        /// second data page.
        second_page_index: u64,
    },
}

/// The register file shared between the streamer (writes at issue) and
/// the PRP window target (reads on NVMe-controller fetches).
pub struct PrpRegFile {
    entries: Vec<Option<PrpMapping>>,
}

impl PrpRegFile {
    /// A register file with one slot per low-cid value.
    pub fn new(slots: usize) -> Rc<RefCell<PrpRegFile>> {
        Rc::new(RefCell::new(PrpRegFile {
            entries: vec![None; slots],
        }))
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Install the mapping for `cid` (indexed by its low bits).
    pub fn set(&mut self, cid: u16, mapping: PrpMapping) {
        let idx = cid as usize % self.entries.len();
        self.entries[idx] = Some(mapping);
    }

    /// Clear the mapping for `cid`.
    pub fn clear(&mut self, cid: u16) {
        let idx = cid as usize % self.entries.len();
        self.entries[idx] = None;
    }

    /// Compute entry `k` for slot `idx`; `None` if the slot is idle or the
    /// page is out of range.
    pub fn entry(&self, idx: usize, k: u64) -> Option<u64> {
        match self.entries.get(idx)?.as_ref()? {
            PrpMapping::Contig { second_page } => Some(second_page + k * PAGE),
            PrpMapping::Segmented {
                pinned,
                second_page_index,
            } => {
                let page = second_page_index + k;
                (page < pinned.pages()).then(|| pinned.page_addr(page))
            }
        }
    }
}

/// The register-file scheme's PRP window target: slot `i` occupies page
/// `i` of the window.
pub struct RegFilePrpWindow {
    regfile: Rc<RefCell<PrpRegFile>>,
    latency: SimDuration,
    /// Synthesised list-page reads served.
    pub reads_served: u64,
}

impl RegFilePrpWindow {
    /// Wrap a shared register file.
    pub fn new(regfile: Rc<RefCell<PrpRegFile>>) -> Self {
        RegFilePrpWindow {
            regfile,
            latency: SimDuration::from_ns(25),
            reads_served: 0,
        }
    }

    /// PRP2 value for `cid` given the window is mapped at `prp_win_base`.
    pub fn prp2_for(prp_win_base: u64, cid: u16, slots: usize) -> u64 {
        prp_win_base + (cid as u64 % slots as u64) * PAGE
    }
}

impl MmioTarget for RegFilePrpWindow {
    fn read(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        offset: u64,
        len: usize,
    ) -> (Payload, SimDuration) {
        self.reads_served += 1;
        let idx = (offset / PAGE) as usize;
        let first_index = (offset % PAGE) / 8;
        let rf = self.regfile.borrow();
        let page = entries(len, |i| rf.entry(idx, first_index + i).unwrap_or(0));
        (page, self.latency)
    }

    fn write(
        &mut self,
        _en: &mut Engine,
        _arrival: SimTime,
        _offset: u64,
        _data: Payload,
    ) -> SimDuration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snacc_mem::HostMemory;
    use snacc_nvme::prp::walk_prps;

    fn read_window(t: &mut dyn MmioTarget, addr: u64) -> Payload {
        let mut en = Engine::new();
        t.read(&mut en, SimTime::ZERO, addr, 4096).0
    }

    #[test]
    fn uram_scheme_entries_are_consecutive() {
        let data_base = 0x8000_0000u64;
        let prp_base = data_base + (4 << 20);
        let mut w = UramPrpWindow::new(data_base);
        let region_offset = 0x30_0000u64; // command buffer at 3 MB
        let prp2 = UramPrpWindow::prp2_for(prp_base, region_offset);
        assert_eq!(prp2, prp_base + region_offset + 4096);
        // Window target offset of the synthesised page.
        let off = prp2 - prp_base;
        let page = read_window(&mut w, off);
        for k in 0..256u64 {
            let e = u64::from_le_bytes(page[(k as usize) * 8..][..8].try_into().unwrap());
            assert_eq!(e, data_base + region_offset + 4096 + k * 4096);
        }
        assert_eq!(w.reads_served, 1);
    }

    #[test]
    fn uram_scheme_matches_walker_reference() {
        // Walking (prp1, prp2) through the synthesised window must produce
        // the same page list a stored PRP list would.
        let data_base = 0x8000_0000u64;
        let prp_base = data_base + (4 << 20);
        let w = Rc::new(RefCell::new(UramPrpWindow::new(data_base)));
        let region_offset = 0x10_0000u64;
        let len = 1u64 << 20; // 256 pages
        let prp1 = data_base + region_offset;
        let prp2 = UramPrpWindow::prp2_for(prp_base, region_offset);
        let segs = walk_prps(prp1, prp2, len, |list_addr| {
            assert!(list_addr >= prp_base);
            Ok(read_window(&mut *w.borrow_mut(), list_addr - prp_base))
        })
        .unwrap();
        assert_eq!(segs.len(), 256);
        for (k, s) in segs.iter().enumerate() {
            assert_eq!(s.addr, data_base + region_offset + k as u64 * 4096);
            assert_eq!(s.len, 4096);
        }
    }

    #[test]
    fn regfile_contig_scheme() {
        let rf = PrpRegFile::new(64);
        let data_base = 0x9000_0000u64;
        rf.borrow_mut().set(
            70, // low bits → slot 6
            PrpMapping::Contig {
                second_page: data_base + 4096,
            },
        );
        let mut w = RegFilePrpWindow::new(rf);
        let page = read_window(&mut w, 6 * 4096);
        for k in 0..255u64 {
            let e = u64::from_le_bytes(page[(k as usize) * 8..][..8].try_into().unwrap());
            assert_eq!(e, data_base + 4096 + k * 4096);
        }
    }

    #[test]
    fn regfile_idle_slot_reads_zero() {
        let rf = PrpRegFile::new(64);
        let mut w = RegFilePrpWindow::new(rf);
        let page = read_window(&mut w, 0);
        assert!(page.iter().all(|&b| b == 0));
    }

    #[test]
    fn segmented_scheme_crosses_pinned_segments() {
        // A 9 MB pinned buffer has 3 physical segments; a command whose
        // pages straddle the 4 MB boundary must get non-contiguous
        // entries that follow the segment table.
        let mut host = HostMemory::default();
        let pinned = host.alloc_pinned(9 << 20);
        assert_eq!(pinned.segments().len(), 3);
        let rf = PrpRegFile::new(64);
        // Command buffer at logical page 1022 (4 KiB before the 4 MB
        // boundary at page 1024), second page = 1023.
        rf.borrow_mut().set(
            0,
            PrpMapping::Segmented {
                pinned: pinned.clone(),
                second_page_index: 1023,
            },
        );
        let mut w = RegFilePrpWindow::new(rf);
        let page = read_window(&mut w, 0);
        let e0 = u64::from_le_bytes(page[0..8].try_into().unwrap());
        let e1 = u64::from_le_bytes(page[8..16].try_into().unwrap());
        assert_eq!(e0, pinned.page_addr(1023)); // last page of segment 0
        assert_eq!(e1, pinned.page_addr(1024)); // first page of segment 1
        assert_eq!(e1, pinned.segments()[1].base);
    }

    proptest! {
        /// URAM synthesis is exactly arithmetic: for arbitrary region
        /// offsets and entry indices, entry k = data_base + off + 4096(k+1).
        #[test]
        fn uram_entries_arithmetic(region_page in 0u64..1023, k in 0u64..510) {
            let data_base = 0x4000_0000u64;
            let prp_base = data_base + (4 << 20);
            let mut w = UramPrpWindow::new(data_base);
            let off = region_page * 4096;
            let prp2 = UramPrpWindow::prp2_for(prp_base, off);
            let page = read_window(&mut w, prp2 - prp_base);
            let e = u64::from_le_bytes(page[(k as usize)*8..][..8].try_into().unwrap());
            prop_assert_eq!(e, data_base + off + 4096 * (k + 1));
        }

        /// The segmented mapping always agrees with the pinned buffer's
        /// own page table.
        #[test]
        fn segmented_matches_pinned_table(
            second in 0u64..4000,
            k in 0u64..256,
        ) {
            let mut host = HostMemory::default();
            let pinned = host.alloc_pinned(17 << 20); // 4352 pages
            let rf = PrpRegFile::new(8);
            rf.borrow_mut().set(3, PrpMapping::Segmented {
                pinned: pinned.clone(),
                second_page_index: second,
            });
            let got = rf.borrow().entry(3, k);
            let page = second + k;
            if page < pinned.pages() {
                prop_assert_eq!(got, Some(pinned.page_addr(page)));
            } else {
                prop_assert_eq!(got, None);
            }
        }
    }
}
