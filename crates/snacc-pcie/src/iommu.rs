//! IOMMU permission model.
//!
//! Device-initiated accesses (DMA and peer-to-peer) pass through the host
//! IOMMU. SNAcc requires explicit grants so the FPGA and the NVMe
//! controller may reach each other's address ranges (paper Sec 4). We model
//! the permission check (grant table per requester) and expose a
//! passthrough mode corresponding to `iommu=off` — the paper verified that
//! disabling the IOMMU did not change bandwidth, and the same holds here
//! because translation cost is negligible at transaction granularity.

use crate::fabric::NodeId;
use snacc_mem::AddrRange;

/// The IOMMU: per-requester allowed ranges, or passthrough.
///
/// Grants are indexed by requester node number. Each requester remembers
/// the grant its last allowed access fell in and tries it before scanning
/// the rest, so a stream of TLPs into one buffer costs one range check
/// each. Every answer, and so the fault count, is the one a scan of all
/// the requester's grants gives.
#[derive(Default)]
pub struct Iommu {
    passthrough: bool,
    /// Grants by `NodeId.0`.
    grants: Vec<Grants>,
    faults: u64,
}

/// One requester's grants and the index of the last one hit.
#[derive(Default)]
struct Grants {
    ranges: Vec<AddrRange>,
    last_hit: usize,
}

impl Grants {
    fn allow(&mut self, addr: u64, len: u64) -> bool {
        let hit = |r: &AddrRange| r.contains_span(addr, len);
        if self.ranges.get(self.last_hit).is_some_and(hit) {
            return true;
        }
        match self.ranges.iter().position(hit) {
            Some(i) => {
                self.last_hit = i;
                true
            }
            None => false,
        }
    }
}

impl Iommu {
    /// An enforcing IOMMU with no grants yet.
    pub fn new() -> Self {
        Iommu::default()
    }

    /// A disabled IOMMU (all accesses allowed).
    pub fn passthrough() -> Self {
        Iommu {
            passthrough: true,
            ..Iommu::default()
        }
    }

    /// Grant `requester` access to `range`.
    pub fn grant(&mut self, requester: NodeId, range: AddrRange) {
        if self.grants.len() <= requester.0 {
            self.grants.resize_with(requester.0 + 1, Grants::default);
        }
        self.grants[requester.0].ranges.push(range);
    }

    /// Revoke all grants for `requester`.
    pub fn revoke_all(&mut self, requester: NodeId) {
        if let Some(g) = self.grants.get_mut(requester.0) {
            *g = Grants::default();
        }
    }

    /// Number of faults recorded so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Check whether `requester` may access `[addr, addr+len)`. Records a
    /// fault on denial.
    pub fn check(&mut self, requester: NodeId, addr: u64, len: u64) -> bool {
        if self.passthrough {
            return true;
        }
        let ok = self
            .grants
            .get_mut(requester.0)
            .is_some_and(|g| g.allow(addr, len));
        if !ok {
            self.faults += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: usize) -> NodeId {
        NodeId(n)
    }

    #[test]
    fn deny_by_default() {
        let mut io = Iommu::new();
        assert!(!io.check(node(1), 0x1000, 8));
        assert_eq!(io.faults(), 1);
    }

    #[test]
    fn grant_allows_span() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0x1000, 0x1000));
        assert!(io.check(node(1), 0x1000, 0x1000));
        assert!(io.check(node(1), 0x1800, 0x100));
        // Straddling the grant edge is denied.
        assert!(!io.check(node(1), 0x1f00, 0x200));
        // Other requesters are denied.
        assert!(!io.check(node(2), 0x1000, 8));
    }

    #[test]
    fn passthrough_allows_everything() {
        let mut io = Iommu::passthrough();
        assert!(io.check(node(9), 0xdead_0000, 4096));
        assert_eq!(io.faults(), 0);
    }

    #[test]
    fn revoke_removes_access() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0, 4096));
        assert!(io.check(node(1), 0, 8));
        io.revoke_all(node(1));
        assert!(!io.check(node(1), 0, 8));
    }

    #[test]
    fn multiple_grants_checked() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0, 4096));
        io.grant(node(1), AddrRange::new(1 << 30, 4096));
        assert!(io.check(node(1), (1 << 30) + 100, 8));
        assert!(!io.check(node(1), 1 << 20, 8));
    }

    #[test]
    fn answers_match_a_scan_of_all_grants() {
        // Overlapping and adjacent grants for several requesters, revoked
        // now and then, against the plain scan the IOMMU must agree with.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut io = Iommu::new();
        let mut model: Vec<Vec<AddrRange>> = vec![Vec::new(); 5];
        let mut model_faults = 0;
        for _ in 0..50_000 {
            let n = (next() % 5) as usize;
            match next() % 100 {
                0 => {
                    io.revoke_all(node(n));
                    model[n].clear();
                }
                1..=4 => {
                    // Grants on a 4 KiB grid: neighbours often touch.
                    let base = (next() % 64) * 0x1000;
                    let r = AddrRange::new(base, (1 + next() % 8) * 0x1000);
                    io.grant(node(n), r);
                    model[n].push(r);
                }
                _ => {
                    let addr = next() % (80 * 0x1000);
                    let len = next() % (3 * 0x1000);
                    let want = model[n].iter().any(|r| r.contains_span(addr, len));
                    model_faults += u64::from(!want);
                    assert_eq!(io.check(node(n), addr, len), want, "{n} {addr:#x}+{len:#x}");
                }
            }
        }
        assert_eq!(io.faults(), model_faults);
        // An unknown requester past every granted one is denied.
        assert!(!io.check(node(40), 0, 8));
    }
}
