//! Per-variant resource composition (paper Table 1).
//!
//! Each streamer variant is composed from the costed blocks in
//! `snacc_fpga::resources::blocks`; the totals approximate Table 1 of the
//! paper (the `table1` benchmark prints model vs paper side by side).

use crate::config::{StreamerConfig, StreamerVariant, QUEUE_DEPTH};
use snacc_fpga::resources::{blocks, ResourceUsage};

/// Control/status registers + doorbell write master shared by all
/// variants.
fn control_and_doorbell() -> ResourceUsage {
    ResourceUsage {
        lut: 960,
        ff: 432,
        ..Default::default()
    }
}

/// Resource usage of a streamer configuration.
pub fn streamer_resources(cfg: &StreamerConfig) -> ResourceUsage {
    let qd = QUEUE_DEPTH as u64;
    // Common core: 4 user stream endpoints, queue logic, reorder buffer,
    // splitter, control.
    let mut total = ResourceUsage::default();
    for _ in 0..4 {
        total += blocks::axis_endpoint();
    }
    total += blocks::nvme_queue_logic(cfg.sq_entries() as u64);
    total += blocks::reorder_buffer(qd);
    total += blocks::splitter();
    total += control_and_doorbell();
    match cfg.variant {
        StreamerVariant::Uram => {
            total += blocks::prp_calc_uram();
            total += blocks::uram_buffer(cfg.read_buffer_bytes());
        }
        StreamerVariant::OnboardDram => {
            total += blocks::prp_calc_regfile(qd);
            // Two AXI masters (data in, NVMe-facing out) + burst combining
            // + staging FIFOs, plus the reserved DRAM itself.
            total += blocks::axi4_master();
            total += blocks::axi4_master();
            total += blocks::burst_combiner();
            total += blocks::staging_fifo();
            total += blocks::staging_fifo();
            total += ResourceUsage {
                dram_bytes: cfg.read_buffer_bytes() + cfg.write_buffer_bytes(),
                ..Default::default()
            };
        }
        StreamerVariant::HostDram => {
            total += blocks::prp_calc_regfile(qd);
            total += blocks::segment_table(32);
            total += blocks::axi4_master();
            total += blocks::staging_fifo();
            total += blocks::staging_fifo();
            total += ResourceUsage {
                host_dram_bytes: cfg.read_buffer_bytes() + cfg.write_buffer_bytes(),
                ..Default::default()
            };
        }
    }
    total
}

/// Paper Table 1 reference values for comparison printing.
pub fn paper_table1(variant: StreamerVariant) -> ResourceUsage {
    match variant {
        StreamerVariant::Uram => ResourceUsage {
            lut: 7260,
            ff: 8388,
            bram36: 0.0,
            uram_bytes: 4 << 20,
            ..Default::default()
        },
        StreamerVariant::OnboardDram => ResourceUsage {
            lut: 14063,
            ff: 16487,
            bram36: 24.0,
            dram_bytes: 128 << 20,
            ..Default::default()
        },
        StreamerVariant::HostDram => ResourceUsage {
            lut: 12228,
            ff: 13373,
            bram36: 17.5,
            host_dram_bytes: 128 << 20,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamerConfig;

    fn rel_err(model: f64, paper: f64) -> f64 {
        (model - paper).abs() / paper
    }

    #[test]
    fn uram_variant_close_to_table1() {
        let m = streamer_resources(&StreamerConfig::snacc(StreamerVariant::Uram));
        let p = paper_table1(StreamerVariant::Uram);
        assert!(rel_err(m.lut as f64, p.lut as f64) < 0.15, "{m:?}");
        assert!(rel_err(m.ff as f64, p.ff as f64) < 0.15, "{m:?}");
        assert_eq!(m.uram_bytes, 4 << 20);
        assert_eq!(m.bram36, 0.0);
    }

    #[test]
    fn dram_variants_close_to_table1() {
        for v in [StreamerVariant::OnboardDram, StreamerVariant::HostDram] {
            let m = streamer_resources(&StreamerConfig::snacc(v));
            let p = paper_table1(v);
            assert!(rel_err(m.lut as f64, p.lut as f64) < 0.15, "{v:?} {m:?}");
            assert!(rel_err(m.ff as f64, p.ff as f64) < 0.15, "{v:?} {m:?}");
            assert!(m.bram36 > 0.0);
            assert_eq!(m.uram_bytes, 0);
        }
    }

    #[test]
    fn ordering_matches_paper() {
        // URAM variant is the leanest in LUT/FF; on-board DRAM the
        // heaviest (Table 1 discussion).
        let u = streamer_resources(&StreamerConfig::snacc(StreamerVariant::Uram));
        let d = streamer_resources(&StreamerConfig::snacc(StreamerVariant::OnboardDram));
        let h = streamer_resources(&StreamerConfig::snacc(StreamerVariant::HostDram));
        assert!(u.lut < h.lut && h.lut < d.lut);
        assert!(u.ff < h.ff && h.ff < d.ff);
    }

    #[test]
    fn dram_reservation_reported() {
        let d = streamer_resources(&StreamerConfig::snacc(StreamerVariant::OnboardDram));
        assert_eq!(d.dram_bytes, 128 << 20);
        let h = streamer_resources(&StreamerConfig::snacc(StreamerVariant::HostDram));
        assert_eq!(h.host_dram_bytes, 128 << 20);
    }
}
