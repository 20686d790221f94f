//! The segment store as an ordered map of payloads with one backward walk
//! per write and no cursors: the layout oracle for [`super::SegmentMemory`].
//! Its layout after any op sequence is the layout the store must keep.

use super::{COALESCE_SEGS, COALESCE_WINDOW, FILL_CHUNK};
use crate::hostmem::PAGE_4K;
use snacc_sim::bytes::Payload;
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Default)]
pub struct Reference {
    segs: BTreeMap<u64, Payload>,
    window_starts: HashMap<u64, u32>,
}

impl Reference {
    pub fn layout(&self) -> Vec<(u64, usize)> {
        self.segs.iter().map(|(&s, seg)| (s, seg.len())).collect()
    }

    /// The segment stored at `start`, if one starts there.
    pub fn segment(&self, start: u64) -> Option<&Payload> {
        self.segs.get(&start)
    }

    pub fn resident_pages(&self) -> usize {
        let mut pages = 0usize;
        let mut last_counted: Option<u64> = None;
        for (&start, seg) in &self.segs {
            let first = start / PAGE_4K;
            let last = (start + seg.len() as u64 - 1) / PAGE_4K;
            let first = match last_counted {
                Some(lc) if first <= lc => lc + 1,
                _ => first,
            };
            if first <= last {
                pages += (last - first + 1) as usize;
                last_counted = Some(last);
            }
        }
        pages
    }

    pub fn backing_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        self.segs
            .values()
            .filter_map(Payload::owned_backing)
            .filter(|&(id, _)| seen.insert(id))
            .map(|(_, len)| len as u64)
            .sum()
    }

    pub fn write(&mut self, addr: u64, data: &[u8]) {
        if !data.is_empty() && !self.write_in_place(addr, data) {
            self.write_payload(addr, Payload::from(data));
        }
    }

    pub fn write_payload(&mut self, addr: u64, data: Payload) {
        if data.is_unique() && self.write_in_place(addr, &data) {
            return;
        }
        self.insert_segment(addr, data);
        self.maybe_coalesce(addr);
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
        let backing = Payload::fill(byte, FILL_CHUNK.min(len) as usize);
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let chunk_end = ((cur / FILL_CHUNK) + 1) * FILL_CHUNK;
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
        self.window_starts.clear();
    }

    fn put(&mut self, start: u64, seg: Payload) {
        if self.segs.insert(start, seg).is_none() {
            *self
                .window_starts
                .entry(start / COALESCE_WINDOW)
                .or_insert(0) += 1;
        }
    }

    fn take(&mut self, start: u64) {
        if self.segs.remove(&start).is_none() {
            return;
        }
        let win = start / COALESCE_WINDOW;
        match self.window_starts.get_mut(&win) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.window_starts.remove(&win);
            }
        }
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
            let joined_pred = match pred.as_deref().and_then(|p| p.try_join(&merged)) {
                Some(j) => {
                    merged = j;
                    true
                }
                None => false,
            };
            if let Some(j) = tail.as_ref().or(succ).and_then(|n| merged.try_join(n)) {
                merged = j;
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
            self.take(s);
        }
        if take_succ {
            self.take(end);
        }
        if let Some(t) = tail {
            self.put(end, t);
        }
        if let Some(m) = unplaced {
            self.put(addr, m);
        }
    }

    fn maybe_coalesce(&mut self, addr: u64) {
        let win = addr / COALESCE_WINDOW;
        match self.window_starts.get(&win) {
            Some(&n) if n as usize > COALESCE_SEGS => {}
            _ => return,
        }
        let win_start = win * COALESCE_WINDOW;
        let win_end = win_start + COALESCE_WINDOW;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for (&s, seg) in self.segs.range(win_start..win_end).take(COALESCE_SEGS + 1) {
            lo = lo.min(s);
            hi = hi.max((s + seg.len() as u64).min(win_end));
        }
        if lo >= hi {
            return;
        }
        let mut buf = Vec::with_capacity((hi - lo) as usize);
        for p in self.gather_parts(lo, (hi - lo) as usize) {
            buf.extend_from_slice(p.as_slice());
        }
        self.insert_segment(lo, Payload::from_vec(buf));
    }
}
