//! Fig 4a — sequential NVMe bandwidth (1 GB transfers): SNAcc URAM /
//! on-board DRAM / host DRAM vs SPDK, read and write. Write bandwidth is
//! reported as the paper's alternating lo/hi pair.

use snacc_apps::system::SystemConfig;
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::{fig4_rows, snacc_seq_bandwidth, spdk_seq_series, Dir};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};

fn minmax(series: &[f64]) -> (f64, f64) {
    let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = series.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

fn main() {
    let telemetry = Telemetry::from_args();
    // 3 GiB spans both program-rate states (1 GiB state blocks) while
    // keeping the functional media resident within small-machine RAM;
    // SNACC_QUICK drops to 2 GiB. The first write window is warm-up (the
    // SSD's 64 MB cache absorbs it) and is excluded from the lo/hi pair.
    let total: u64 = if size_switch("SNACC_QUICK") {
        2 << 30
    } else {
        3 << 30
    };

    // Paper GB/s and the write rows' paper lo, in `fig4_rows` order.
    let paper = [
        (6.9, None),
        (6.9, None),
        (6.9, None),
        (6.9, None),
        (5.6, Some(5.32)),
        (4.8, Some(4.6)),
        (6.24, Some(5.90)),
        (6.24, Some(5.90)),
    ];
    let plan = telemetry.fault_plan();
    let work: Vec<sweep::Job<'_, BenchRecord>> = fig4_rows(["seq-r", "seq-w"])
        .into_iter()
        .zip(paper)
        .map(|((label, dir, variant), (paper_hi, paper_lo))| {
            Box::new(move |log: &mut JobOutput| {
                log.eprintln(format!("[fig4a] running {label}..."));
                let mut series = match variant {
                    Some(v) => {
                        let cfg = SystemConfig {
                            faults: plan.cloned(),
                            ..SystemConfig::snacc(v)
                        };
                        let (series, faults) = snacc_seq_bandwidth(cfg, dir, total);
                        if plan.is_some() {
                            log.eprintln(format!("[fig4a] {label} faults: {faults}"));
                        }
                        series
                    }
                    // The SPDK baseline has no streamer; campaigns target
                    // the SNAcc rows only.
                    None => spdk_seq_series(dir, total, 42),
                };
                if dir == Dir::Write && series.len() > 1 {
                    series.remove(0); // cache-fill warm-up window
                }
                let (lo, hi) = minmax(&series);
                log.eprintln(format!("[fig4a] {label}: {series:?}"));
                let mut r = BenchRecord::new("fig4a", &label, hi, Some(paper_hi), "GB/s");
                if dir == Dir::Write {
                    r = r.with_lo(lo);
                    if let Some(pl) = paper_lo {
                        // Encode the paper's lo in the label for the table.
                        r.label = format!("{label} (paper lo {pl})");
                    }
                }
                r
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);

    publish("Fig 4a — sequential bandwidth (GB/s)", &records);
    telemetry.finish();
}
