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
use std::collections::HashMap;

/// The IOMMU: per-requester allowed ranges, or passthrough.
#[derive(Default)]
pub struct Iommu {
    passthrough: bool,
    grants: HashMap<NodeId, Vec<AddrRange>>,
    faults: u64,
}

impl Iommu {
    /// An enforcing IOMMU with no grants yet.
    pub fn new() -> Self {
        Iommu {
            passthrough: false,
            grants: HashMap::new(),
            faults: 0,
        }
    }

    /// A disabled IOMMU (all accesses allowed).
    pub fn passthrough() -> Self {
        Iommu {
            passthrough: true,
            grants: HashMap::new(),
            faults: 0,
        }
    }

    /// Grant `requester` access to `range`.
    pub fn grant(&mut self, requester: NodeId, range: AddrRange) {
        self.grants.entry(requester).or_default().push(range);
    }

    /// Revoke all grants for `requester`.
    pub fn revoke_all(&mut self, requester: NodeId) {
        self.grants.remove(&requester);
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
            .get(&requester)
            .map(|ranges| ranges.iter().any(|r| r.contains_span(addr, len)))
            .unwrap_or(false);
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
}
