//! Transaction-layer packet accounting.
//!
//! We do not materialise individual TLPs as events (a 147 GB case study
//! would produce billions); instead transfers are *accounted* at TLP
//! granularity: a payload of N bytes costs `N + ceil(N/MAX_PAYLOAD) ×
//! header` wire bytes. Read requests and completion headers are charged
//! the same way.

/// TLP header + framing bytes per packet (3-4 DW header + LCRC + framing).
pub const TLP_HEADER_BYTES: u64 = 24;

/// A read request TLP is header-only.
pub const READ_REQUEST_BYTES: u64 = TLP_HEADER_BYTES;

/// Maximum TLP payload size (MPS) in bytes, the same on every link.
pub const MAX_PAYLOAD: u64 = 512;

/// Wire bytes for a posted write / completion stream of `payload` bytes
/// chunked at [`MAX_PAYLOAD`].
pub fn wire_bytes(payload: u64) -> u64 {
    if payload == 0 {
        return TLP_HEADER_BYTES;
    }
    let packets = snacc_sim::ceil_div(payload, MAX_PAYLOAD);
    payload + packets * TLP_HEADER_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_only_for_empty() {
        assert_eq!(wire_bytes(0), TLP_HEADER_BYTES);
    }

    #[test]
    fn single_packet() {
        assert_eq!(wire_bytes(512), 512 + 24);
    }

    #[test]
    fn multi_packet() {
        assert_eq!(wire_bytes(4096), 4096 + 8 * 24);
        assert_eq!(wire_bytes(513), 513 + 2 * 24);
    }

    #[test]
    fn efficiency_reasonable() {
        // 512 B MPS → ~95.5 % efficiency on bulk data.
        let eff = 4096.0 / wire_bytes(4096) as f64;
        assert!(eff > 0.95 && eff < 0.96, "{eff}");
    }
}
