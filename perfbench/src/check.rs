//! Exact references for the simulated outputs of each configuration.
//!
//! The simulator is deterministic, so for a recorded seed every pinned
//! value must match bit for bit. `references.json` holds them for the
//! default seed and one held-out seed; the run prints the signatures it
//! measured in the same format (the `signatures` key of its detail line),
//! so a change that alters simulated behaviour on purpose re-records them
//! by pasting that output.

use crate::workloads::Signature;
use serde_json::{Map, Value};

/// Seed used when `--seed` is not given; the held-out seed is recorded
/// but never used while the benchmark was tuned.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7;

const REFERENCES: &str = include_str!("../references.json");

pub fn to_json(sig: &Signature) -> Value {
    let mut m = Map::new();
    m.insert("gbps", Value::from(sig.gbps));
    m.insert("events", Value::from(sig.events));
    m.insert("pcie_bytes", Value::from(sig.pcie_bytes));
    m.insert("nvme_bytes", Value::from(sig.nvme_bytes));
    m.insert("classified", Value::from(sig.classified));
    m.insert("correct", Value::from(sig.correct));
    Value::Object(m)
}

pub fn from_json(v: &Value) -> Option<Signature> {
    let u = |k: &str| v.get(k).and_then(Value::as_u64);
    Some(Signature {
        gbps: v.get("gbps").and_then(Value::as_f64)?,
        events: u("events")?,
        pcie_bytes: u("pcie_bytes")?,
        nvme_bytes: u("nvme_bytes")?,
        classified: u("classified")?,
        correct: u("correct")?,
    })
}

/// The recorded signature of `config` for (`workload`, `seed`), if that
/// seed was recorded.
pub fn reference(workload: &str, seed: u64, config: &str) -> Option<Signature> {
    let doc = serde_json::from_str(REFERENCES).expect("references.json is valid JSON");
    doc.get(workload)?
        .get(&seed.to_string())?
        .get(config)
        .map(|v| from_json(v).expect("reference entry has every field"))
}

/// Field-by-field differences between a measured signature and its
/// reference; empty when they agree exactly.
pub fn compare(got: &Signature, want: &Signature) -> Vec<String> {
    // `{:?}` prints the shortest string that round-trips the f64.
    let u = |g: u64, w: u64| (g.to_string(), w.to_string());
    let fields = [
        (
            "GB/s",
            (format!("{:?}", got.gbps), format!("{:?}", want.gbps)),
        ),
        ("events", u(got.events, want.events)),
        ("PCIe bytes", u(got.pcie_bytes, want.pcie_bytes)),
        ("NVMe bytes", u(got.nvme_bytes, want.nvme_bytes)),
        ("classified", u(got.classified, want.classified)),
        ("correct", u(got.correct, want.correct)),
    ];
    fields
        .into_iter()
        .filter(|(_, (g, w))| g != w)
        .map(|(name, (g, w))| format!("{name} {g} differs from the reference {w}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{run_config, Inputs, Size, Workload};

    #[test]
    fn references_cover_default_and_held_out_seeds() {
        for w in [Workload::SeqStream, Workload::Rand4k, Workload::CaseStudy] {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                for spec in w.configs() {
                    let r = reference(w.name(), seed, spec.name());
                    assert!(r.is_some(), "{} seed {seed} {}", w.name(), spec.name());
                }
            }
        }
        assert!(reference("seq_stream", 2, "uram_w").is_none());
    }

    #[test]
    fn perturbed_reference_is_caught() {
        // A real (short) simulated run, checked against itself and then
        // against references perturbed one field at a time.
        let w = Workload::Rand4k;
        let size = Size::sample();
        let inputs = Inputs::new(w, DEFAULT_SEED, size);
        let spec = w.configs()[1];
        let out = run_config(spec, &inputs, size, false);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let sig = out.sig;
        assert!(sig.events > 0 && sig.nvme_bytes > 0 && sig.gbps > 0.0);
        let again = run_config(spec, &inputs, size, false).sig;
        assert!(
            compare(&again, &sig).is_empty(),
            "the simulator is deterministic"
        );

        let perturbations: [fn(&mut Signature); 6] = [
            |s| s.gbps = f64::from_bits(s.gbps.to_bits() + 1),
            |s| s.events += 1,
            |s| s.pcie_bytes -= 1,
            |s| s.nvme_bytes += 4096,
            |s| s.classified += 1,
            |s| s.correct += 1,
        ];
        for perturb in perturbations {
            let mut want = sig;
            perturb(&mut want);
            assert_eq!(compare(&sig, &want).len(), 1, "{want:?} must be caught");
        }
    }

    #[test]
    fn signatures_round_trip_through_json() {
        let sig = Signature {
            gbps: 5.706_912_345_678_9,
            events: 94_229,
            pcie_bytes: 4_312_104_960,
            nvme_bytes: 4_294_967_296,
            classified: 3,
            correct: 2,
        };
        let text = serde_json::to_string(&to_json(&sig));
        let back = from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert!(compare(&back, &sig).is_empty());
    }
}
