//! The storage backend behind the NVMe controller.
//!
//! Mechanisms (all calibrated in [`crate::profile`]):
//!
//! * **Dies + channel budget** — media is striped page-wise across NAND
//!   dies; each die serves one page read at a time with ~tR latency, and
//!   read data shares an aggregate channel budget. Sequential reads hit the
//!   channel ceiling (6.9 GB/s on a 990 PRO-class drive); random 4 KiB
//!   reads are die-latency bound, and die collisions create the latency
//!   variance that SNAcc's in-order retirement turns into head-of-line
//!   blocking (paper Sec 5.2, Fig 4b).
//! * **pSLC program-rate state machine** — the drive programs NAND at one
//!   of two sustained rates, toggling after each state block. This is the
//!   mechanism behind the paper's write bandwidth "alternating between
//!   5.90 GB/s and 6.24 GB/s without any intermediate values" (Fig 4a).
//! * **DRAM write cache** — writes complete into controller DRAM within a
//!   few microseconds (Fig 4c: all write latencies < 9 µs) and are
//!   programmed to NAND in the background; admission stalls only when the
//!   cache fills, which couples sustained write bandwidth to the program
//!   rate.

use snacc_mem::SegmentMemory;
use snacc_sim::bytes::Payload;
use snacc_sim::{Bandwidth, SharedLink, SimDuration, SimRng, SimTime};
use std::collections::{HashMap, VecDeque};

/// NAND / controller backend parameters.
#[derive(Clone, Debug)]
pub struct NandConfig {
    /// Number of independent NAND dies.
    pub dies: usize,
    /// NAND page size (striping and read granularity).
    pub page_bytes: u64,
    /// Die read latency (tR) bounds for **warm** data (still resident in
    /// the pSLC cache region); jittered uniformly per page read.
    pub read_latency_min: SimDuration,
    /// Upper warm tR bound.
    pub read_latency_max: SimDuration,
    /// Die read latency bounds for **cold** data (folded to TLC). Reading
    /// never-written or long-ago-written LBAs pays this — the mechanism
    /// behind the paper's 57 µs SPDK read latency vs 34 µs for SNAcc
    /// reading its freshly written benchmark data (Fig 4c).
    pub read_latency_cold_min: SimDuration,
    /// Upper cold tR bound.
    pub read_latency_cold_max: SimDuration,
    /// Bytes of the most recent writes considered pSLC-resident (warm).
    pub pslc_window_bytes: u64,
    /// Aggregate controller read-out bandwidth (the sequential-read
    /// ceiling). Booked by the *delivery* path via
    /// [`NandBackend::book_readout`] so concurrent commands contend in
    /// true completion-time order.
    pub channel_bandwidth: Bandwidth,
    /// Independent NAND channels (dies are distributed round-robin).
    pub channels: usize,
    /// Per-channel transfer bandwidth.
    pub per_channel_bandwidth: Bandwidth,
    /// Per-command controller processing overhead (serialised).
    pub cmd_overhead: SimDuration,
    /// Sustained NAND program rate in the fast cache state.
    pub program_hi: Bandwidth,
    /// Sustained NAND program rate in the slow (folding) state.
    pub program_lo: Bandwidth,
    /// Bytes programmed in one state before toggling to the other.
    pub program_state_block: u64,
    /// Controller DRAM write-cache capacity.
    pub write_cache_bytes: u64,
    /// Latency to admit a write into the DRAM cache.
    pub cache_admit_latency: SimDuration,
    /// Program-rate derating for random (4 KiB) writes (FTL mapping cost).
    pub random_write_derate: f64,
    /// Namespace capacity in bytes.
    pub capacity_bytes: u64,
}

/// The two-state pSLC program-rate machine.
#[derive(Clone, Debug)]
struct ProgramEngine {
    free_at: SimTime,
    hi: Bandwidth,
    lo: Bandwidth,
    in_lo: bool,
    bytes_into_state: u64,
    block: u64,
}

impl ProgramEngine {
    fn new(hi: Bandwidth, lo: Bandwidth, block: u64) -> Self {
        ProgramEngine {
            free_at: SimTime::ZERO,
            hi,
            lo,
            in_lo: false,
            bytes_into_state: 0,
            block,
        }
    }

    /// Book `bytes` of programming no earlier than `t`; returns program
    /// completion time. Crosses state boundaries mid-booking when needed.
    fn book(&mut self, t: SimTime, bytes: u64, derate: f64) -> SimTime {
        let mut cur = t.max(self.free_at);
        let mut remaining = bytes;
        while remaining > 0 {
            let left_in_state = self.block - self.bytes_into_state;
            let take = remaining.min(left_in_state);
            let rate = if self.in_lo { self.lo } else { self.hi }.scaled(derate);
            cur += rate.time_for(take);
            self.bytes_into_state += take;
            remaining -= take;
            if self.bytes_into_state == self.block {
                self.in_lo = !self.in_lo;
                self.bytes_into_state = 0;
            }
        }
        self.free_at = cur;
        cur
    }
}

/// The storage backend: functional media + timing model.
pub struct NandBackend {
    cfg: NandConfig,
    media: SegmentMemory,
    die_free: Vec<SimTime>,
    channels: Vec<SharedLink>,
    readout: SharedLink,
    cmd_free: SimTime,
    program: ProgramEngine,
    /// (program completion, bytes) queue for cache-occupancy accounting.
    cache_queue: VecDeque<(SimTime, u64)>,
    cache_occupancy: u64,
    /// pSLC residency: 1 MiB block → write sequence number.
    warm_blocks: HashMap<u64, u64>,
    write_seq: u64,
    rng: SimRng,
    /// Total bytes read from media.
    pub media_reads: u64,
    /// Total bytes written to media.
    pub media_writes: u64,
}

impl NandBackend {
    /// Create a backend with the given config and RNG seed (tR jitter).
    pub fn new(cfg: NandConfig, seed: u64) -> Self {
        let channels = (0..cfg.channels)
            .map(|i| {
                SharedLink::new(
                    format!("nand.ch{i}"),
                    cfg.per_channel_bandwidth,
                    SimDuration::ZERO,
                )
            })
            .collect();
        let readout = SharedLink::new("nand.readout", cfg.channel_bandwidth, SimDuration::ZERO);
        let program = ProgramEngine::new(cfg.program_hi, cfg.program_lo, cfg.program_state_block);
        NandBackend {
            die_free: vec![SimTime::ZERO; cfg.dies],
            channels,
            readout,
            cmd_free: SimTime::ZERO,
            program,
            cache_queue: VecDeque::new(),
            cache_occupancy: 0,
            warm_blocks: HashMap::new(),
            write_seq: 0,
            rng: SimRng::new(seed ^ 0x5a5a_1234),
            media_reads: 0,
            media_writes: 0,
            media: SegmentMemory::new(),
            cfg,
        }
    }

    /// Backend configuration.
    pub fn config(&self) -> &NandConfig {
        &self.cfg
    }

    /// Is the program engine currently in the slow (folding) state? The
    /// controller derates its host-data fetch pacing in this state — the
    /// coupling that makes the SNAcc URAM / on-board-DRAM write bandwidth
    /// alternate in step with the program rate.
    pub fn in_lo_state(&self) -> bool {
        self.program.in_lo
    }

    /// Namespace capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// Is the byte span `[addr, addr+len)` within the namespace?
    pub fn in_bounds(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len)
            .map(|end| end <= self.cfg.capacity_bytes)
            .unwrap_or(false)
    }

    /// Direct functional media access (tests, pre-population).
    pub fn media_mut(&mut self) -> &mut SegmentMemory {
        &mut self.media
    }

    /// Pre-populate an extent with fill data and mark it pSLC-resident,
    /// without disturbing any timing state — benchmark preconditioning
    /// (the paper's random-read benchmark reads data its own write phase
    /// placed in the drive's cache region). The fill lands as lazy shared
    /// segments: O(len / 1 MiB) metadata, no bytes allocated until read.
    pub fn prewarm(&mut self, addr: u64, len: u64, fill: u8) {
        self.media.fill(addr, len, fill);
        self.mark_warm(addr, len);
    }

    fn book_cmd(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.cmd_free);
        self.cmd_free = start + self.cfg.cmd_overhead;
        self.cmd_free
    }

    fn die_of(&self, byte_addr: u64) -> usize {
        ((byte_addr / self.cfg.page_bytes) % self.cfg.dies as u64) as usize
    }

    const WARM_BLOCK: u64 = 1 << 20;

    /// Is the 1 MiB block containing `addr` still pSLC-resident?
    pub fn is_warm(&self, addr: u64) -> bool {
        match self.warm_blocks.get(&(addr / Self::WARM_BLOCK)) {
            Some(&seq) => {
                self.write_seq.saturating_sub(seq) * Self::WARM_BLOCK <= self.cfg.pslc_window_bytes
            }
            None => false,
        }
    }

    fn mark_warm(&mut self, addr: u64, len: u64) {
        let first = addr / Self::WARM_BLOCK;
        let last = (addr + len.max(1) - 1) / Self::WARM_BLOCK;
        for b in first..=last {
            self.warm_blocks.insert(b, self.write_seq);
        }
        self.write_seq += snacc_sim::ceil_div(len, Self::WARM_BLOCK);
    }

    fn tr_jitter(&mut self, warm: bool) -> SimDuration {
        let (lo, hi) = if warm {
            (self.cfg.read_latency_min, self.cfg.read_latency_max)
        } else {
            (
                self.cfg.read_latency_cold_min,
                self.cfg.read_latency_cold_max,
            )
        };
        let base = self.rng.gen_duration_between(lo, hi);
        // Occasional long tail: the read collides with a program/erase
        // the die cannot suspend. These tails are what in-order
        // retirement amplifies into the paper's Fig 4b deficit.
        if self.rng.gen_bool(0.03) {
            base * 4
        } else {
            base
        }
    }

    /// Read `len` bytes of media starting at byte address `addr` as a
    /// zero-copy [`Payload`] view, plus the time the last byte is
    /// available in controller SRAM (ready for
    /// [`book_readout`](Self::book_readout) and delivery). The payload
    /// shares the stored segments' backings (lazy prewarm fill stays lazy
    /// end-to-end).
    pub fn read_payload(&mut self, now: SimTime, addr: u64, len: u64) -> (Payload, SimTime) {
        assert!(self.in_bounds(addr, len), "media read OOB");
        let p = self.media.read_payload(addr, len as usize);
        self.media_reads += len;
        let t0 = self.book_cmd(now);
        // Page-wise: each page read occupies its die for tR, then moves
        // over its NAND channel into controller SRAM.
        let mut done = t0;
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let page_end = (cur / self.cfg.page_bytes + 1) * self.cfg.page_bytes;
            let n = page_end.min(end) - cur;
            let die = self.die_of(cur);
            let warm = self.is_warm(cur);
            let tr = self.tr_jitter(warm);
            let die_ready = self.die_free[die].max(t0) + tr;
            self.die_free[die] = die_ready;
            let ch = die % self.cfg.channels;
            let moved = self.channels[ch].transfer(die_ready, n);
            done = done.max(moved);
            cur += n;
        }
        (p, done)
    }

    /// Book the aggregate controller read-out path for `bytes` starting at
    /// `now`. Call this from the delivery event (i.e. at the command's
    /// actual media-ready time) so commands contend in completion order —
    /// this link is the device's sequential-read ceiling.
    pub fn book_readout(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.readout.transfer(now, bytes)
    }

    /// Write `parts` (in address order, back-to-back from `addr`) as media
    /// segments; the media keeps the payload windows, so lazy synthetic
    /// data is never materialised. Returns the time the write is admitted
    /// to the DRAM cache (= when the CQE may be posted, volatile write
    /// cache on). `random_hint` applies the FTL derate for small scattered
    /// writes.
    pub fn write_parts(
        &mut self,
        now: SimTime,
        addr: u64,
        parts: Vec<Payload>,
        random_hint: bool,
    ) -> SimTime {
        let len: u64 = parts.iter().map(|p| p.len() as u64).sum();
        assert!(self.in_bounds(addr, len), "media write OOB");
        let mut off = 0u64;
        for p in parts {
            let n = p.len() as u64;
            self.media.write_payload(addr + off, p);
            off += n;
        }
        self.media_writes += len;
        self.mark_warm(addr, len);
        let t0 = self.book_cmd(now);

        // Free cache space whose programming has finished by t0.
        while let Some(&(end, bytes)) = self.cache_queue.front() {
            if end <= t0 {
                self.cache_occupancy -= bytes;
                self.cache_queue.pop_front();
            } else {
                break;
            }
        }

        // If the cache cannot hold this write, admission waits for enough
        // queued programming to retire.
        let mut t_admit = t0;
        while self.cache_occupancy + len > self.cfg.write_cache_bytes {
            let (end, bytes) = self
                .cache_queue
                .pop_front()
                .expect("cache over-committed with empty queue");
            self.cache_occupancy -= bytes;
            t_admit = t_admit.max(end);
        }

        let derate = if random_hint {
            self.cfg.random_write_derate
        } else {
            1.0
        };
        let prog_end = self.program.book(t_admit, len, derate);
        self.cache_queue.push_back((prog_end, len));
        self.cache_occupancy += len;
        t_admit + self.cfg.cache_admit_latency
    }

    /// Flush: returns when all cached data is programmed.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        now.max(self.program.free_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NandConfig {
        NandConfig {
            dies: 32,
            page_bytes: 16384,
            read_latency_min: SimDuration::from_us(26),
            read_latency_max: SimDuration::from_us(30),
            read_latency_cold_min: SimDuration::from_us(52),
            read_latency_cold_max: SimDuration::from_us(57),
            pslc_window_bytes: 100 << 30,
            channel_bandwidth: Bandwidth::gb_per_s(6.9),
            channels: 8,
            per_channel_bandwidth: Bandwidth::gb_per_s(1.2),
            cmd_overhead: SimDuration::from_ns(500),
            program_hi: Bandwidth::gb_per_s(6.24),
            program_lo: Bandwidth::gb_per_s(5.90),
            program_state_block: 1 << 30,
            write_cache_bytes: 64 << 20,
            cache_admit_latency: SimDuration::from_us(2),
            random_write_derate: 0.85,
            capacity_bytes: 2_000_000_000_000,
        }
    }

    #[test]
    fn functional_roundtrip() {
        let mut n = NandBackend::new(cfg(), 1);
        let data = vec![0x77u8; 8192];
        n.write_parts(
            SimTime::ZERO,
            123 * 512,
            vec![Payload::from(&data[..])],
            false,
        );
        let (out, _) = n.read_payload(SimTime::ZERO, 123 * 512, 8192);
        assert_eq!(out, data);
    }

    #[test]
    fn sequential_read_hits_readout_ceiling() {
        let mut n = NandBackend::new(cfg(), 2);
        // Read 256 MiB sequentially in 1 MiB commands; each command's
        // read-out is booked at its media-ready time (as the device does).
        let total: u64 = 256 << 20;
        let mut done = SimTime::ZERO;
        for i in 0..(total >> 20) {
            let (_, media) = n.read_payload(SimTime::ZERO, i << 20, 1 << 20);
            done = n.book_readout(media, 1 << 20);
        }
        let gbps = total as f64 / 1e9 / done.as_secs_f64();
        assert!(
            (gbps - 6.9).abs() < 0.25,
            "sequential read should be read-out-bound: {gbps} GB/s"
        );
    }

    #[test]
    fn small_reads_on_distinct_channels_do_not_serialise() {
        let mut n = NandBackend::new(cfg(), 2);
        // A cold page on die 0 then a warm page on die 1: the second must
        // not wait behind the first (independent dies and channels).
        n.write_parts(
            SimTime::ZERO,
            16384,
            vec![Payload::from_vec(vec![1u8; 4096])],
            true,
        );
        // Cold address in a different 1 MiB warm-block, die and channel.
        let (_, t_cold) = n.read_payload(SimTime::ZERO, 10 << 20, 4096);
        let (_, t_warm) = n.read_payload(SimTime::ZERO, 16384, 4096);
        assert!(
            t_warm < t_cold,
            "warm {t_warm} should beat cold {t_cold} despite later submission"
        );
    }

    #[test]
    fn cold_read_latency_in_tlc_band() {
        let mut n = NandBackend::new(cfg(), 3);
        let (_, done) = n.read_payload(SimTime::ZERO, 512 * 99991, 4096);
        let us = done.as_us_f64();
        assert!(us > 52.0 && us < 59.0, "{us} µs");
    }

    #[test]
    fn warm_read_latency_in_pslc_band() {
        let mut n = NandBackend::new(cfg(), 3);
        let addr = 512 * 99991;
        let t = n.write_parts(
            SimTime::ZERO,
            addr,
            vec![Payload::from_vec(vec![1u8; 4096])],
            true,
        );
        assert!(n.is_warm(addr));
        let (_, done) = n.read_payload(t, addr, 4096);
        let us = done.since(t).as_us_f64();
        assert!(us > 26.0 && us < 33.0, "{us} µs");
    }

    #[test]
    fn warmth_expires_beyond_pslc_window() {
        let mut small = cfg();
        small.pslc_window_bytes = 4 << 20;
        let mut n = NandBackend::new(small, 3);
        n.write_parts(
            SimTime::ZERO,
            0,
            vec![Payload::from_vec(vec![1u8; 4096])],
            true,
        );
        assert!(n.is_warm(0));
        // Write 8 MB elsewhere: the first block folds out of the window.
        let chunk = Payload::from_vec(vec![0u8; 1 << 20]);
        for i in 1..9u64 {
            n.write_parts(SimTime::ZERO, i << 20, vec![chunk.clone()], false);
        }
        assert!(!n.is_warm(0));
        assert!(n.is_warm(8 << 20));
    }

    #[test]
    fn die_collisions_create_variance() {
        let mut n = NandBackend::new(cfg(), 4);
        // Two reads hitting the same die serialise.
        let addr = 0u64; // die 0
        let (_, first) = n.read_payload(SimTime::ZERO, addr, 4096);
        let (_, second) = n.read_payload(SimTime::ZERO, addr + 512, 4096); // same page → same die
        assert!(second.as_us_f64() > first.as_us_f64() + 20.0);
    }

    #[test]
    fn write_admission_is_fast_when_cache_empty() {
        let mut n = NandBackend::new(cfg(), 5);
        let done = n.write_parts(
            SimTime::ZERO,
            0,
            vec![Payload::from_vec(vec![0u8; 4096])],
            true,
        );
        assert!(done.as_us_f64() < 5.0, "{}", done.as_us_f64());
    }

    #[test]
    fn sustained_writes_alternate_program_rates() {
        let mut n = NandBackend::new(cfg(), 6);
        // Write 4 GiB; measure per-GiB bandwidth — must alternate between
        // ~6.24 and ~5.90 with no intermediate values.
        let chunk = Payload::from_vec(vec![0u8; 1 << 20]);
        let mut rates = Vec::new();
        let mut t_prev = SimTime::ZERO;
        for g in 0..4u64 {
            let mut done = t_prev;
            for i in 0..1024u64 {
                done = n.write_parts(done, (g * 1024 + i) << 20, vec![chunk.clone()], false);
            }
            // Bandwidth limited by cache drain once the cache is full:
            // measure the program engine via flush.
            let flushed = n.flush(done);
            let gib = (1u64 << 30) as f64;
            let secs = flushed.since(t_prev).as_secs_f64();
            rates.push(gib / 1e9 / secs);
            t_prev = flushed;
        }
        // First GiB programs at hi rate, second at lo, etc.
        assert!((rates[0] - 6.24).abs() < 0.15, "{rates:?}");
        assert!((rates[1] - 5.90).abs() < 0.15, "{rates:?}");
        assert!((rates[2] - 6.24).abs() < 0.15, "{rates:?}");
        assert!((rates[3] - 5.90).abs() < 0.15, "{rates:?}");
    }

    #[test]
    fn cache_full_stalls_admission() {
        let mut small = cfg();
        small.write_cache_bytes = 4 << 20;
        let mut n = NandBackend::new(small, 7);
        let chunk = Payload::from_vec(vec![0u8; 1 << 20]);
        // Filling the 4 MB cache is fast; the 5th MB must wait for
        // programming (~1 MB / 6.24 GB/s ≈ 160 µs).
        let mut done = SimTime::ZERO;
        for i in 0..4 {
            done = n.write_parts(done, i << 20, vec![chunk.clone()], false);
        }
        assert!(done.as_us_f64() < 20.0, "{}", done.as_us_f64());
        let stalled = n.write_parts(done, 4 << 20, vec![chunk.clone()], false);
        assert!(
            stalled.since(done).as_us_f64() > 100.0,
            "admission should stall on a full cache: {}",
            stalled.since(done).as_us_f64()
        );
    }

    #[test]
    fn random_write_derate_applies() {
        // Issue all writes back-to-back (deep queue); sustained rate is the
        // derated program rate once the cache fills.
        let mut n = NandBackend::new(cfg(), 8);
        let chunk = Payload::from_vec(vec![0u8; 4096]);
        let count = 64 << 8; // 64 MiB of 4 KiB writes
        let mut done = SimTime::ZERO;
        for i in 0..count {
            done = done.max(n.write_parts(SimTime::ZERO, i * 4096, vec![chunk.clone()], true));
        }
        let flushed = n.flush(done);
        let gbps = (count * 4096) as f64 / 1e9 / flushed.as_secs_f64();
        // ~0.85 × 6.24 ≈ 5.3 GB/s.
        assert!(gbps < 5.6 && gbps > 4.9, "{gbps}");
    }

    #[test]
    fn lo_state_flag_tracks_blocks() {
        let mut n = NandBackend::new(cfg(), 9);
        assert!(!n.in_lo_state());
        let chunk = Payload::from_vec(vec![0u8; 1 << 20]);
        let mut t = SimTime::ZERO;
        for i in 0..1024u64 {
            t = n.write_parts(t, i << 20, vec![chunk.clone()], false);
        }
        // Exactly one state block (1 GiB) programmed → now in lo state.
        assert!(n.in_lo_state());
    }

    #[test]
    fn bounds_checked() {
        let n = NandBackend::new(cfg(), 10);
        assert!(n.in_bounds(0, 4096));
        assert!(!n.in_bounds(n.capacity_bytes(), 1));
        assert!(!n.in_bounds(u64::MAX, 2));
    }
}
