//! Streamer configuration.

use snacc_sim::SimDuration;

/// Where the NVMe payload data buffer lives (paper Sec 4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamerVariant {
    /// 4 MiB of on-die UltraRAM, shared between reads and writes.
    Uram,
    /// 64 MiB read + 64 MiB write buffers in FPGA on-board DRAM.
    OnboardDram,
    /// 64 MiB read + 64 MiB write buffers in pinned host DRAM.
    HostDram,
}

impl StreamerVariant {
    /// Short label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            StreamerVariant::Uram => "URAM",
            StreamerVariant::OnboardDram => "On-board DRAM",
            StreamerVariant::HostDram => "Host DRAM",
        }
    }

    /// All three variants, in the paper's presentation order.
    pub fn all() -> [StreamerVariant; 3] {
        [
            StreamerVariant::Uram,
            StreamerVariant::OnboardDram,
            StreamerVariant::HostDram,
        ]
    }
}

/// Command retirement policy (paper Sec 4.2 vs the Sec 7 extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetirementMode {
    /// The paper's shipped design: completions may arrive out of order,
    /// but commands retire (and new commands issue) strictly in order.
    InOrder,
    /// Sec 7 extension: issue slots are recycled as soon as a command
    /// completes; data is still delivered to the PE in order.
    OutOfOrder,
}

/// Bounded-retry policy for commands that complete with a *transient*
/// error status (see `snacc_nvme::spec::Status::is_transient`).
///
/// Disabled by default ([`RetryPolicy::disabled`]): a failed command is
/// then retired with its error status exactly as before this policy
/// existed, so happy-path runs are event-for-event identical. Fault
/// campaigns enable it to exercise the recovery path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issue a transiently failed command at most this many times
    /// before giving up (0 = retries off).
    pub max_retries: u32,
    /// Base backoff before the first retry; attempt `n` waits
    /// `backoff << n` of *simulated* time (exponential, deterministic).
    pub backoff: SimDuration,
    /// Declare a command lost if no CQE arrives within this window and
    /// retry it. `None` (the default) schedules no timeout events at all
    /// — pending timers would otherwise stretch `Engine::run` end times
    /// and skew bandwidth figures.
    pub cmd_timeout: Option<SimDuration>,
}

impl RetryPolicy {
    /// No retries, no timeouts — the pre-fault-injection behaviour.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: SimDuration::from_ns(0),
            cmd_timeout: None,
        }
    }

    /// A sensible campaign default: 3 attempts, 10 µs base backoff.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: SimDuration::from_us(10),
            cmd_timeout: None,
        }
    }

    /// Is any retry behaviour enabled?
    pub fn enabled(&self) -> bool {
        self.max_retries > 0 || self.cmd_timeout.is_some()
    }

    /// Backoff before retry attempt `attempt` (1-based): `backoff <<
    /// (attempt - 1)`, with the doubling capped at 2^20× so pathological
    /// retry counts cannot overflow the picosecond clock.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        self.backoff * (1u64 << attempt.saturating_sub(1).min(20))
    }
}

/// Maximum commands in flight (the paper's 64).
pub const QUEUE_DEPTH: u16 = 64;
/// Commands are split at this boundary (the paper's 1 MB; Sec 4.2).
pub const MAX_CMD_BYTES: u64 = 1 << 20;
/// Chunk size for streaming between buffer memory and the user PE.
pub const STREAM_CHUNK: u64 = 64 << 10;
/// Per-command issue pipeline latency (at the 300 MHz shell clock).
pub const CMD_ISSUE_LATENCY: SimDuration = SimDuration::from_ns(100);
/// Completion-processing latency per CQE.
pub const COMPLETION_LATENCY: SimDuration = SimDuration::from_ns(50);

/// Full streamer configuration.
#[derive(Clone, Debug)]
pub struct StreamerConfig {
    /// Buffer placement variant.
    pub variant: StreamerVariant,
    /// Submission-queue ring entries (≥ [`QUEUE_DEPTH`]; larger helps the
    /// out-of-order extension).
    pub sq_entries: u16,
    /// Retirement policy.
    pub retirement: RetirementMode,
    /// Retry/timeout policy for transiently failed commands (disabled by
    /// default — fault campaigns opt in).
    pub retry: RetryPolicy,
}

impl StreamerConfig {
    /// The paper's configuration for a given variant.
    pub fn snacc(variant: StreamerVariant) -> Self {
        StreamerConfig {
            variant,
            sq_entries: 64,
            retirement: RetirementMode::InOrder,
            retry: RetryPolicy::disabled(),
        }
    }

    /// Sec 7 out-of-order extension on top of a variant.
    pub fn snacc_ooo(variant: StreamerVariant) -> Self {
        StreamerConfig {
            retirement: RetirementMode::OutOfOrder,
            sq_entries: 256,
            ..Self::snacc(variant)
        }
    }

    /// Data-buffer capacity for reads (shared pool size for URAM).
    pub fn read_buffer_bytes(&self) -> u64 {
        match self.variant {
            StreamerVariant::Uram => 4 << 20,
            StreamerVariant::OnboardDram | StreamerVariant::HostDram => 64 << 20,
        }
    }

    /// Data-buffer capacity for writes (0 for URAM: shared with reads).
    pub fn write_buffer_bytes(&self) -> u64 {
        match self.variant {
            StreamerVariant::Uram => 0,
            StreamerVariant::OnboardDram | StreamerVariant::HostDram => 64 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = StreamerConfig::snacc(StreamerVariant::Uram);
        assert_eq!(QUEUE_DEPTH, 64);
        assert_eq!(MAX_CMD_BYTES, 1 << 20);
        assert_eq!(STREAM_CHUNK, 64 << 10);
        assert_eq!(CMD_ISSUE_LATENCY, SimDuration::from_ns(100));
        assert_eq!(COMPLETION_LATENCY, SimDuration::from_ns(50));
        assert_eq!(c.retirement, RetirementMode::InOrder);
        assert_eq!(c.read_buffer_bytes(), 4 << 20);
        assert_eq!(c.write_buffer_bytes(), 0);
    }

    #[test]
    fn dram_variants_have_split_buffers() {
        for v in [StreamerVariant::OnboardDram, StreamerVariant::HostDram] {
            let c = StreamerConfig::snacc(v);
            assert_eq!(c.read_buffer_bytes(), 64 << 20);
            assert_eq!(c.write_buffer_bytes(), 64 << 20);
        }
    }

    #[test]
    fn ooo_extension_deepens_sq() {
        let c = StreamerConfig::snacc_ooo(StreamerVariant::Uram);
        assert_eq!(c.retirement, RetirementMode::OutOfOrder);
        assert!(c.sq_entries > QUEUE_DEPTH);
    }

    #[test]
    fn retry_policy_defaults_and_backoff() {
        let c = StreamerConfig::snacc(StreamerVariant::Uram);
        assert!(!c.retry.enabled(), "retries must default off");
        let p = RetryPolicy::standard();
        assert!(p.enabled());
        assert_eq!(p.backoff_for(1), SimDuration::from_us(10));
        assert_eq!(p.backoff_for(2), SimDuration::from_us(20));
        assert_eq!(p.backoff_for(3), SimDuration::from_us(40));
        // The doubling is capped, not overflowing.
        let _ = p.backoff_for(200);
    }

    #[test]
    fn labels() {
        assert_eq!(StreamerVariant::Uram.label(), "URAM");
        assert_eq!(StreamerVariant::all().len(), 3);
    }
}
