//! Synthetic image stream.
//!
//! The paper streams 16384 images totalling 147 GB over 100 G Ethernet
//! (Sec 6.2) — exactly 9 MB per frame, i.e. 2048×1536 RGB. We generate
//! deterministic images with real pixel structure (smooth gradients plus
//! a class-dependent pattern) so the downscaler and classifier operate on
//! meaningful data and classifications are reproducible.
//!
//! Every frame of a class carries the same bytes, so each thread keeps one
//! class-image table: per class the body ([`class_body`]), its content key
//! and its class, generated (or taken from [`fill_class_table`]) and
//! classified once, and shared by every configuration the thread runs.

use snacc_sim::{Payload, SimRng};
use std::cell::OnceCell;

/// The case-study capture format: 2048×1536, 3 bytes/pixel = 9 MiB·0.9…
/// exactly 9,437,184 B; 16384 frames = 147.0 GB as in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageFormat {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl ImageFormat {
    /// The paper's capture resolution.
    pub fn capture() -> Self {
        ImageFormat {
            width: 2048,
            height: 1536,
        }
    }

    /// The classifier input resolution (MobileNet-V1).
    pub fn classify() -> Self {
        ImageFormat {
            width: 224,
            height: 224,
        }
    }

    /// Payload bytes (RGB).
    pub fn bytes(&self) -> usize {
        self.width as usize * self.height as usize * 3
    }
}

/// On-wire image header (precedes the pixel payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHeader {
    /// Frame sequence number.
    pub id: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Ground-truth class baked into the pattern (for verification).
    pub truth: u32,
}

/// Header magic.
pub const IMAGE_MAGIC: u32 = 0x534E_4949; // "SNII"
/// Encoded header size.
pub const HEADER_BYTES: usize = 20;

impl ImageHeader {
    /// Encode to wire format.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..4].copy_from_slice(&IMAGE_MAGIC.to_le_bytes());
        b[4..12].copy_from_slice(&self.id.to_le_bytes());
        b[12..16].copy_from_slice(&self.len.to_le_bytes());
        b[16..20].copy_from_slice(&self.truth.to_le_bytes());
        b
    }

    /// Decode; `None` if the magic doesn't match.
    pub fn decode(b: &[u8]) -> Option<ImageHeader> {
        if b.len() < HEADER_BYTES {
            return None;
        }
        let magic = u32::from_le_bytes(b[0..4].try_into().unwrap());
        if magic != IMAGE_MAGIC {
            return None;
        }
        Some(ImageHeader {
            id: u64::from_le_bytes(b[4..12].try_into().unwrap()),
            len: u32::from_le_bytes(b[12..16].try_into().unwrap()),
            truth: u32::from_le_bytes(b[16..20].try_into().unwrap()),
        })
    }
}

/// Number of classes the synthetic pattern encodes.
pub const NUM_CLASSES: u32 = 10;

/// Generate frame `id`: a gradient background with a class-dependent
/// block pattern (the class is `id % NUM_CLASSES`). Fully deterministic.
pub fn generate_image(fmt: ImageFormat, id: u64) -> (ImageHeader, Vec<u8>) {
    let truth = (id % NUM_CLASSES as u64) as u32;
    let mut px = vec![0u8; fmt.bytes()];
    // Noise is keyed by class so frames of one class are bit-identical —
    // the class table holds one body per class and the sender patches
    // headers.
    let mut rng = SimRng::new(truth as u64 ^ 0x1417_beef);
    let w = fmt.width as usize;
    let h = fmt.height as usize;
    // Class pattern: vertical bands whose period depends on the class.
    // Periods stay resolvable after the 2048→224 downscale.
    let period = 24 + truth as usize * 20;
    let bands: Vec<u16> = (0..w)
        .map(|x| {
            if (x / period).is_multiple_of(2) {
                200
            } else {
                40
            }
        })
        .collect();
    for (y, row) in px.chunks_exact_mut(w * 3).enumerate() {
        let grad = (255 * y / h) as u16;
        for (p, &band) in row.chunks_exact_mut(3).zip(&bands) {
            let noise = (rng.next_u64() & 0x0f) as u16;
            p[0] = (band + noise).min(255) as u8;
            p[1] = (grad + noise).min(255) as u8;
            p[2] = ((band + grad) / 2 + noise).min(255) as u8;
        }
    }
    let hdr = ImageHeader {
        id,
        len: px.len() as u32,
        truth,
    };
    (hdr, px)
}

/// Box-filter downscale RGB `src` (`from`) to `to` — the "scale the
/// images down to 224×224 pixels" PE of Fig 5, with real arithmetic.
pub fn downscale(src: &[u8], from: ImageFormat, to: ImageFormat) -> Vec<u8> {
    assert_eq!(src.len(), from.bytes());
    let (fw, fh) = (from.width as usize, from.height as usize);
    let (tw, th) = (to.width as usize, to.height as usize);
    let mut out = vec![0u8; to.bytes()];
    for ty in 0..th {
        let y0 = ty * fh / th;
        let y1 = ((ty + 1) * fh / th).max(y0 + 1);
        for tx in 0..tw {
            let x0 = tx * fw / tw;
            let x1 = ((tx + 1) * fw / tw).max(x0 + 1);
            let mut acc = [0u32; 3];
            let n = ((y1 - y0) * (x1 - x0)) as u32;
            for y in y0..y1 {
                for x in x0..x1 {
                    let o = (y * fw + x) * 3;
                    acc[0] += src[o] as u32;
                    acc[1] += src[o + 1] as u32;
                    acc[2] += src[o + 2] as u32;
                }
            }
            let o = (ty * tw + tx) * 3;
            out[o] = (acc[0] / n) as u8;
            out[o + 1] = (acc[1] / n) as u8;
            out[o + 2] = (acc[2] / n) as u8;
        }
    }
    out
}

/// The classifier: fixed-point band-period features + a deterministic
/// decision rule. Operates on the 224×224 downscaled image and recovers
/// the band period (and thus the class) the generator baked in. This is
/// the functional stand-in for the FINN MobileNet-V1 PE — small but real
/// arithmetic over every pixel.
pub fn classify(img: &[u8], fmt: ImageFormat) -> u32 {
    assert_eq!(img.len(), fmt.bytes());
    let w = fmt.width as usize;
    let h = fmt.height as usize;
    // Threshold the red channel and count bright/dark transitions along
    // rows; the mean band width recovers the pattern period.
    let mut transitions: u64 = 0;
    let mut rows: u64 = 0;
    for y in (0..h).step_by(4) {
        rows += 1;
        let row = y * w * 3;
        let mut prev_bright = img[row] >= 120;
        for x in 1..w {
            let bright = img[row + x * 3] >= 120;
            if bright != prev_bright {
                transitions += 1;
            }
            prev_bright = bright;
        }
    }
    if transitions == 0 {
        return 0;
    }
    // Each band is one run: per row there are capture_width / period
    // transitions, independent of the downscale factor.
    let capture_width = 2048u64;
    let period = capture_width * rows / transitions;
    // Invert period = 24 + 20·class.
    let class = (period.saturating_sub(24) + 10) / 20;
    (class as u32).min(NUM_CLASSES - 1)
}

/// Cheap content key of an image (samples it): the class table and the
/// database controller's memo key images by it. Walks the segments in
/// place — hashing never concatenates them. The
/// sample points and hash are identical to running FNV over every
/// `step`-th byte of the flat image.
pub(crate) fn content_key(segs: &[Payload], total: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let step = (total / 512).max(1);
    let mut next = 0usize; // next flat index to sample
    let mut base = 0usize; // flat index of the current segment's start
    for seg in segs {
        let end = base + seg.len();
        let s = seg.as_slice();
        while next < end {
            h ^= s[next - base] as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            next += step;
        }
        base = end;
    }
    h ^ total as u64
}

/// One class's entry in the class-image table.
#[derive(Clone, Debug)]
pub(crate) struct ClassImage {
    /// The capture body every frame of the class carries
    /// (`generate_image(capture, class).1`).
    pub(crate) body: Payload,
    /// The body's content key, as the database controller keys a received
    /// image.
    pub(crate) key: u64,
    /// The class the downscaler and classifier PEs assign the body.
    pub(crate) class: u32,
}

impl ClassImage {
    fn new(body: Payload) -> ClassImage {
        let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
        ClassImage {
            key: content_key(std::slice::from_ref(&body), body.len()),
            class: classify(&downscale(&body, cap, cls), cls),
            body,
        }
    }
}

thread_local! {
    /// This thread's class-image table, indexed by class; an entry is
    /// built on the first use of its class. It is per thread because the
    /// simulation crates stay free of synchronisation; a multi-threaded
    /// caller shares one set of bodies through [`fill_class_table`].
    static CLASS_TABLE: [OnceCell<ClassImage>; NUM_CLASSES as usize] =
        const { [const { OnceCell::new() }; NUM_CLASSES as usize] };
}

/// The table entry of `class`, built over `body()` unless it is built
/// already; `None` for a class past [`NUM_CLASSES`].
fn entry(class: u32, body: impl FnOnce() -> Payload) -> Option<ClassImage> {
    CLASS_TABLE.with(|t| {
        let cell = t.get(class as usize)?;
        Some(cell.get_or_init(|| ClassImage::new(body())).clone())
    })
}

/// The table entry of `class`, generating and classifying its image on
/// this thread's first use of the class. `None` for a class past
/// [`NUM_CLASSES`].
pub(crate) fn class_image(class: u32) -> Option<ClassImage> {
    entry(class, || {
        Payload::from_vec(generate_image(ImageFormat::capture(), u64::from(class)).1)
    })
}

/// The capture body of `class`: every call returns a window of the same
/// buffer. Panics for a class past [`NUM_CLASSES`].
pub fn class_body(class: u32) -> Payload {
    class_image(class)
        .unwrap_or_else(|| panic!("class {class} out of range"))
        .body
}

/// Build this thread's table over bodies that live for the whole process
/// (`bodies[c]` is class `c`'s capture body, as [`generate_image`] makes
/// it), so the thread generates none; it still classifies them. Entries
/// the thread built already are kept: their bytes are the same.
pub fn fill_class_table(bodies: &[&'static [u8]]) {
    assert_eq!(bodies.len(), NUM_CLASSES as usize, "one body per class");
    for (class, &body) in (0..).zip(bodies) {
        entry(class, || Payload::from_static(body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = ImageHeader {
            id: 42,
            len: 9_437_184,
            truth: 7,
        };
        assert_eq!(ImageHeader::decode(&h.encode()), Some(h));
        assert_eq!(ImageHeader::decode(&[0u8; HEADER_BYTES]), None);
    }

    #[test]
    fn capture_format_matches_paper_totals() {
        let f = ImageFormat::capture();
        assert_eq!(f.bytes(), 9_437_184);
        // 16384 frames ≈ 147 GB as reported in Sec 6.2.
        let total = f.bytes() as u64 * 16384;
        assert!((total as f64 / 1e9 - 154.6).abs() < 1.0 || total / 1_000_000_000 == 154);
        // (The paper's "147 GB" is 16384 × 9 MB read as GiB-ish; we match
        // the frame count and size exactly.)
    }

    #[test]
    fn generation_is_deterministic() {
        let (h1, p1) = generate_image(ImageFormat::capture(), 5);
        let (h2, p2) = generate_image(ImageFormat::capture(), 5);
        assert_eq!(h1, h2);
        assert_eq!(p1, p2);
        assert_eq!(h1.truth, 5);
    }

    #[test]
    fn class_bodies_match_a_per_pixel_loop() {
        // The generator's pixel rule written out per pixel: any change in
        // the bytes of a class body fails here.
        let fmt = ImageFormat::capture();
        let (w, h) = (fmt.width as usize, fmt.height as usize);
        for class in 0..NUM_CLASSES {
            let mut rng = SimRng::new(class as u64 ^ 0x1417_beef);
            let period = 24 + class as usize * 20;
            let mut want = vec![0u8; fmt.bytes()];
            for y in 0..h {
                for x in 0..w {
                    let o = (y * w + x) * 3;
                    let band: u16 = if (x / period).is_multiple_of(2) {
                        200
                    } else {
                        40
                    };
                    let grad = (255 * y / h) as u16;
                    let noise = (rng.next_u64() & 0x0f) as u16;
                    want[o] = (band + noise).min(255) as u8;
                    want[o + 1] = (grad + noise).min(255) as u8;
                    want[o + 2] = ((band + grad) / 2 + noise).min(255) as u8;
                }
            }
            let (_, got) = generate_image(fmt, class as u64);
            assert!(got == want, "class {class} body changed");
        }
    }

    #[test]
    fn downscale_shrinks_and_averages() {
        let from = ImageFormat {
            width: 16,
            height: 16,
        };
        let to = ImageFormat {
            width: 4,
            height: 4,
        };
        let src = vec![100u8; from.bytes()];
        let out = downscale(&src, from, to);
        assert_eq!(out.len(), to.bytes());
        assert!(out.iter().all(|&v| v == 100));
    }

    #[test]
    fn classifier_recovers_ground_truth() {
        let cap = ImageFormat::capture();
        let cls = ImageFormat::classify();
        let mut correct = 0;
        let n = 20;
        for id in 0..n {
            let (hdr, px) = generate_image(cap, id);
            let small = downscale(&px, cap, cls);
            let got = classify(&small, cls);
            if got == hdr.truth {
                correct += 1;
            }
        }
        // The tiny model needn't be perfect — MobileNet-V1 isn't either —
        // but it must be far above chance (10 classes).
        assert!(correct >= n * 6 / 10, "only {correct}/{n} correct");
    }

    #[test]
    fn class_table_body_is_the_generated_image() {
        // Byte for byte the generator's body, and every call a window of
        // one buffer.
        let (_, px) = generate_image(ImageFormat::capture(), 4);
        let a = class_body(4);
        assert!(a == px, "class 4 body differs from generate_image");
        let b = class_body(4);
        assert!(a.owned_backing().is_some());
        assert_eq!(a.owned_backing(), b.owned_backing());
        assert!(class_image(NUM_CLASSES).is_none());
    }

    #[test]
    fn class_table_entry_is_what_the_pipeline_computes() {
        let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
        let e = class_image(6).expect("class 6");
        assert_eq!(e.class, classify(&downscale(&e.body, cap, cls), cls));
        // The key of the body received as 8 KiB frames is the table's.
        let frames: Vec<Payload> = (0..e.body.len())
            .step_by(8192)
            .map(|o| e.body.slice(o..e.body.len().min(o + 8192)))
            .collect();
        assert_eq!(content_key(&frames, e.body.len()), e.key);
    }

    #[test]
    fn filled_table_holds_the_static_bodies() {
        // Each test runs on a thread of its own, so this table starts
        // empty: filling it makes every entry a window of the given bytes.
        let bytes = ImageFormat::capture().bytes();
        let flat: &'static [u8] = Box::leak(vec![0u8; bytes].into_boxed_slice());
        fill_class_table(&[flat; NUM_CLASSES as usize]);
        let e = class_image(2).expect("class 2");
        assert_eq!(
            e.body.owned_backing(),
            Some((flat.as_ptr() as usize, bytes))
        );
        assert!(!e.body.is_unique());
        let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
        assert_eq!(e.class, classify(&downscale(flat, cap, cls), cls));
    }
}
