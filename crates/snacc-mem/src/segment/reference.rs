//! The segment store as an ordered map of payloads with one backward walk
//! per write and no cursors: the layout oracle for [`super::SegmentMemory`].
//! Its layout after any op sequence is the layout the store must keep.

use crate::hostmem::PAGE_4K;
use snacc_sim::bytes::{Payload, LAZY_BACKING_MAX};
use std::collections::{BTreeMap, HashMap};

#[derive(Default)]
pub struct Reference {
    segs: BTreeMap<u64, Payload>,
}

impl Reference {
    pub fn layout(&self) -> Vec<(u64, usize)> {
        self.segs.iter().map(|(&s, seg)| (s, seg.len())).collect()
    }

    /// The segment stored at `start`, if one starts there.
    pub fn segment(&self, start: u64) -> Option<&Payload> {
        self.segs.get(&start)
    }

    /// The distinct pages the segments touch: sorted and disjoint, a
    /// segment shares at most its first page, with the one before it.
    pub fn resident_pages(&self) -> usize {
        let (mut pages, mut last) = (0, None);
        for (&s, seg) in &self.segs {
            let (first, end) = (s / PAGE_4K, (s + seg.len() as u64 - 1) / PAGE_4K);
            pages += (end - first + 1) as usize - usize::from(last == Some(first));
            last = Some(end);
        }
        pages
    }

    /// The lengths of the distinct owned buffers the segments hold.
    pub fn backing_bytes(&self) -> u64 {
        let buffers: HashMap<_, _> = self
            .segs
            .values()
            .filter_map(Payload::owned_backing)
            .collect();
        buffers.values().map(|&len| len as u64).sum()
    }

    pub fn write(&mut self, addr: u64, data: &[u8]) {
        if !data.is_empty() && !self.write_owned(addr, data) {
            self.insert_segment(addr, Payload::from(data));
        }
    }

    pub fn write_payload(&mut self, addr: u64, data: Payload) {
        if !(data.is_unique() && self.write_owned(addr, &data)) {
            self.insert_segment(addr, data);
        }
    }

    /// Bytes nothing else holds land in place, or, when shorter than a
    /// page, as a new buffer of the pages they touch: the bytes before
    /// them, then them, then the bytes after.
    fn write_owned(&mut self, addr: u64, data: &[u8]) -> bool {
        if self.write_in_place(addr, data) {
            return true;
        }
        if data.is_empty() || data.len() >= PAGE_4K as usize {
            return false;
        }
        let end = addr + data.len() as u64;
        let lo = addr / PAGE_4K * PAGE_4K;
        let hi = end.div_ceil(PAGE_4K) * PAGE_4K;
        let mut page = Vec::new();
        for p in self.gather_parts(lo, (addr - lo) as usize) {
            page.extend_from_slice(p.as_slice());
        }
        page.extend_from_slice(data);
        for p in self.gather_parts(end, (hi - end) as usize) {
            page.extend_from_slice(p.as_slice());
        }
        self.insert_segment(lo, Payload::from_vec(page));
        true
    }

    fn write_in_place(&mut self, addr: u64, data: &[u8]) -> bool {
        let end = addr + data.len() as u64;
        let Some((&s, seg)) = self.segs.range_mut(..=addr).next_back() else {
            return false;
        };
        s + seg.len() as u64 >= end && seg.overwrite_unique((addr - s) as usize, data)
    }

    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        if len == 0 {
            return;
        }
        let chunk = LAZY_BACKING_MAX as u64;
        let backing = Payload::fill(byte, chunk.min(len) as usize);
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let chunk_end = ((cur / chunk) + 1) * chunk;
            let n = chunk_end.min(end) - cur;
            self.insert_segment(cur, backing.slice(0..n as usize));
            cur += n;
        }
    }

    pub fn read_payload(&mut self, addr: u64, len: usize) -> Payload {
        if len == 0 {
            return Payload::empty();
        }
        if let Some(p) = self.covering(addr, len) {
            return p;
        }
        let parts = self.gather_parts(addr, len);
        match parts.len() {
            1 => parts.into_iter().next().expect("len checked"),
            _ => Payload::concat(&parts),
        }
    }

    pub fn clear(&mut self) {
        self.segs.clear();
    }

    fn covering(&self, addr: u64, len: usize) -> Option<Payload> {
        let end = addr + len as u64;
        let (&s, seg) = self.segs.range(..=addr).next_back()?;
        (s + seg.len() as u64 >= end).then(|| seg.slice((addr - s) as usize..(end - s) as usize))
    }

    fn gather_parts(&self, addr: u64, len: usize) -> Vec<Payload> {
        if len == 0 {
            return Vec::new();
        }
        let end = addr + len as u64;
        let mut parts = Vec::new();
        let mut cur = addr;
        if let Some((&s, seg)) = self.segs.range(..addr).next_back() {
            let seg_end = s + seg.len() as u64;
            if seg_end > addr {
                let from = (addr - s) as usize;
                let to = (seg_end.min(end) - s) as usize;
                parts.push(seg.slice(from..to));
                cur = seg_end.min(end);
            }
        }
        for (&s, seg) in self.segs.range(addr..end) {
            if cur >= end {
                break;
            }
            if s > cur {
                parts.push(Payload::fill(0, (s.min(end) - cur) as usize));
                cur = s.min(end);
                if cur >= end {
                    break;
                }
            }
            let seg_end = s + seg.len() as u64;
            let to = (seg_end.min(end) - s) as usize;
            parts.push(seg.slice(0..to));
            cur = seg_end.min(end);
        }
        if cur < end {
            parts.push(Payload::fill(0, (end - cur) as usize));
        }
        parts
    }

    /// The single backward walk the store's general write path keeps.
    fn insert_segment(&mut self, addr: u64, data: Payload) {
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        let mut merged = data;
        let mut covered: Vec<u64> = Vec::new();
        let mut tail: Option<Payload> = None;
        let mut take_succ = false;
        let mut unplaced = None;
        {
            let mut succ: Option<&Payload> = None;
            let mut at_addr: Option<&mut Payload> = None;
            let mut pred: Option<&mut Payload> = None;
            for (&s, seg) in self.segs.range_mut(..=end).rev() {
                if s == end {
                    succ = Some(seg);
                    continue;
                }
                let seg_end = s + seg.len() as u64;
                if seg_end <= addr {
                    if seg_end == addr {
                        pred = Some(seg);
                    }
                    break;
                }
                if seg_end > end {
                    tail = Some(seg.slice((end - s) as usize..seg.len()));
                }
                if s < addr {
                    *seg = seg.slice(0..(addr - s) as usize);
                    pred = Some(seg);
                    break;
                }
                if s == addr {
                    at_addr = Some(seg);
                } else {
                    covered.push(s);
                }
            }
            let joined_pred = match pred.as_deref() {
                Some(p) if p.joins(&merged) => {
                    merged = Payload::concat(&[p.clone(), merged]);
                    true
                }
                _ => false,
            };
            if let Some(n) = tail.as_ref().or(succ).filter(|n| merged.joins(n)) {
                merged = Payload::concat(&[merged, n.clone()]);
                take_succ = tail.take().is_none();
            }
            match (pred, at_addr) {
                (Some(p), at_addr) if joined_pred => {
                    *p = merged;
                    if at_addr.is_some() {
                        covered.push(addr);
                    }
                }
                (_, Some(slot)) => *slot = merged,
                _ => unplaced = Some(merged),
            }
        }
        for s in covered {
            self.segs.remove(&s);
        }
        if take_succ {
            self.segs.remove(&end);
        }
        if let Some(t) = tail {
            self.segs.insert(end, t);
        }
        if let Some(m) = unplaced {
            self.segs.insert(addr, m);
        }
    }
}
