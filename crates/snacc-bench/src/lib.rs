//! # snacc-bench — the paper's evaluation, regenerated
//!
//! One regenerator per table and figure of the SNAcc paper (Sec 5–6),
//! each as a binary printing the same rows/series the paper reports:
//!
//! | binary          | paper artifact | metric |
//! |-----------------|----------------|--------|
//! | `fig4a`         | Fig 4a | sequential R/W bandwidth, 1 GB, per variant + SPDK |
//! | `fig4b`         | Fig 4b | random 4 KiB bandwidth, 1 GB total, QD 64 |
//! | `fig4c`         | Fig 4c | single 4 KiB access latency |
//! | `table1`        | Table 1 | FPGA resource utilisation per variant |
//! | `fig6`          | Fig 6 | case-study bandwidth, five configurations |
//! | `fig7`          | Fig 7 | PCIe traffic per configuration |
//! | `ext_multi_ssd` | Sec 7 | multi-SSD write scaling |
//! | `ext_ooo`       | Sec 7 | out-of-order retirement on random reads |
//! | `ext_gen5`      | Sec 7 | PCIe Gen5 SSD projection |
//! | `ext_qd_sweep`  | Sec 5.2 note | SPDK random read vs queue depth |
//! | `ext_flowctl`   | Sec 4.7 | Ethernet flow control losslessness |
//!
//! The library half hosts the shared workload drivers plus the
//! deterministic sweep pool ([`sweep`]): binaries declare their job grid
//! and fan independent simulations across `--jobs N` worker threads with
//! byte-identical output at any worker count.

pub mod report;
pub mod sweep;
pub mod telemetry;
pub mod workloads;

pub use report::{publish, BenchRecord};
pub use telemetry::Telemetry;

/// Whether the size switch `name` (`SNACC_QUICK` or `SNACC_FULL`) is on:
/// unset is off and `1` is on. Any other value prints `error: …` and exits
/// with status 2, as a bad flag does.
pub fn size_switch(name: &str) -> bool {
    parse_switch(name, std::env::var_os(name)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn parse_switch(name: &str, value: Option<std::ffi::OsString>) -> Result<bool, String> {
    match value {
        None => Ok(false),
        Some(v) if v == "1" => Ok(true),
        Some(v) => Err(format!(
            "{name} must be unset or 1, got `{}`",
            v.to_string_lossy()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_switch;

    #[test]
    fn a_size_switch_is_unset_or_1() {
        assert_eq!(parse_switch("SNACC_QUICK", None), Ok(false));
        assert_eq!(parse_switch("SNACC_QUICK", Some("1".into())), Ok(true));
        for bad in ["0", "", "true", "yes", " 1"] {
            let err = parse_switch("SNACC_FULL", Some(bad.into())).unwrap_err();
            assert_eq!(err, format!("SNACC_FULL must be unset or 1, got `{bad}`"));
        }
    }
}
