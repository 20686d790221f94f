//! Table 1 — FPGA resource utilisation of the NVMe Streamer variants:
//! compositional model vs the paper's synthesis results.

use snacc_bench::{publish, BenchRecord, Telemetry};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_core::resources::{paper_table1, streamer_resources};
use snacc_fpga::resources::DeviceResources;

fn main() {
    let telemetry = Telemetry::from_args();
    let dev = DeviceResources::alveo_u280();
    let mut records = Vec::new();
    for v in StreamerVariant::all() {
        let m = streamer_resources(&StreamerConfig::snacc(v));
        let p = paper_table1(v);
        records.push(BenchRecord::new(
            "table1",
            &format!("{} LUT", v.label()),
            m.lut as f64,
            Some(p.lut as f64),
            "LUTs",
        ));
        records.push(BenchRecord::new(
            "table1",
            &format!("{} FF", v.label()),
            m.ff as f64,
            Some(p.ff as f64),
            "FFs",
        ));
        records.push(BenchRecord::new(
            "table1",
            &format!("{} BRAM", v.label()),
            m.bram36,
            Some(p.bram36),
            "RAMB36",
        ));
        records.push(BenchRecord::new(
            "table1",
            &format!("{} URAM", v.label()),
            m.uram_bytes as f64 / (1 << 20) as f64,
            Some(p.uram_bytes as f64 / (1 << 20) as f64),
            "MB",
        ));
        println!(
            "{:<14}: LUT {:>6} ({:.1}%)  FF {:>6} ({:.1}%)  BRAM {:>5.1} ({:.1}%)  URAM {:.1} MB ({:.1}%)  DRAM {} MB",
            v.label(), m.lut, dev.lut_pct(&m), m.ff, dev.ff_pct(&m),
            m.bram36, dev.bram_pct(&m),
            m.uram_bytes as f64 / (1 << 20) as f64, dev.uram_pct(&m),
            (m.dram_bytes + m.host_dram_bytes) >> 20,
        );
    }
    publish(
        "Table 1 — NVMe Streamer resource utilisation (model vs paper)",
        &records,
    );
    telemetry.finish();
}
