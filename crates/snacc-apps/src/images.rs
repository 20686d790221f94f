//! Synthetic image stream.
//!
//! The paper streams 16384 images totalling 147 GB over 100 G Ethernet
//! (Sec 6.2) — exactly 9 MB per frame, i.e. 2048×1536 RGB. We generate
//! deterministic images with real pixel structure (smooth gradients plus
//! a class-dependent pattern) so the downscaler and classifier operate on
//! meaningful data and classifications are reproducible.
//!
//! A pixel's bytes are a pure function of (class, offset): the noise is
//! SplitMix64, which is counter-based, so `image_bytes` writes any
//! window of a class body without generating what comes before it. Every
//! frame of a class carries the same bytes, so each thread keeps one
//! class-image table: per class the body ([`class_body`]), its content key
//! and its class, built once and shared by every configuration the thread
//! runs. The body is a lazy [`Payload::generated`] segment: frames, NAND
//! segments and media reads are windows of it or copy out of it, and a
//! fault-free run never materialises it. The class comes from one fused
//! pass that generates a row at a time into the streaming [`Downscaler`].

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

/// Seed of a class's pixel noise, xor-ed with the class.
const NOISE_SEED: u64 = 0x1417_beef;

/// Generate frame `id`: a gradient background with a class-dependent
/// block pattern (the class is `id % NUM_CLASSES`). Fully deterministic.
pub fn generate_image(fmt: ImageFormat, id: u64) -> (ImageHeader, Vec<u8>) {
    let truth = (id % NUM_CLASSES as u64) as u32;
    let mut px = vec![0u8; fmt.bytes()];
    image_bytes(fmt, truth, 0, &mut px);
    let hdr = ImageHeader {
        id,
        len: px.len() as u32,
        truth,
    };
    (hdr, px)
}

/// Write bytes `[off, off + out.len())` of `class`'s image body into
/// `out`. A window that cuts a pixel is generated in whole pixels and
/// copied out.
pub(crate) fn image_bytes(fmt: ImageFormat, class: u32, off: usize, out: &mut [u8]) {
    assert!(off + out.len() <= fmt.bytes(), "window past the image");
    if off.is_multiple_of(3) && out.len().is_multiple_of(3) {
        return pixels(fmt, class, off / 3, out);
    }
    let first = off / 3;
    let mut whole = vec![0u8; ((off + out.len()).div_ceil(3) - first) * 3];
    pixels(fmt, class, first, &mut whole);
    let from = off - first * 3;
    out.copy_from_slice(&whole[from..from + out.len()]);
}

/// Write `class`'s pixels from pixel `first` on (row-major, RGB) into
/// `out`, which holds whole pixels. Pixel `p` takes draw `p` of the
/// class's SplitMix64 noise stream, which is keyed by class so that frames
/// of one class are bit-identical; the first draw is reached by a skip,
/// so a window costs only its own pixels.
fn pixels(fmt: ImageFormat, class: u32, first: usize, mut out: &mut [u8]) {
    let (w, h) = (fmt.width as usize, fmt.height as usize);
    let mut rng = SimRng::new(u64::from(class) ^ NOISE_SEED);
    rng.skip(first as u64);
    // Class pattern: vertical bands whose period depends on the class.
    // Periods stay resolvable after the 2048→224 downscale.
    let period = 24 + class as usize * 20;
    let mut p = first;
    while !out.is_empty() {
        let (y, x) = (p / w, p % w);
        let grad = (255 * y / h) as u16;
        let band: u16 = if (x / period).is_multiple_of(2) {
            200
        } else {
            40
        };
        // The pixels to the end of this band, the row or the window.
        let n = (period - x % period).min(w - x).min(out.len() / 3);
        let (run, rest) = std::mem::take(&mut out).split_at_mut(n * 3);
        for px in run.chunks_exact_mut(3) {
            let noise = (rng.next_u64() & 0x0f) as u16;
            px[0] = (band + noise).min(255) as u8;
            px[1] = (grad + noise).min(255) as u8;
            px[2] = ((band + grad) / 2 + noise).min(255) as u8;
        }
        p += n;
        out = rest;
    }
}

/// Streaming box-filter downscale: the "scale the images down to 224×224
/// pixels" PE of Fig 5, fed the source bytes in order in pieces of any
/// size. It keeps a sum per source column and channel: each source row
/// adds into them, and the last row of an output row's box sums them
/// over each output pixel's columns and emits the row. A row cut between
/// pieces is gathered in a row buffer; rows inside a piece are read in
/// place.
pub struct Downscaler {
    from: ImageFormat,
    /// Source columns `[x0, x1)` of each output column's box.
    cols: Vec<(usize, usize)>,
    /// Source rows `[y0, y1)` of each output row's box.
    rows: Vec<(usize, usize)>,
    /// Per source column and channel: the sum of the current output row's
    /// box rows so far.
    sums: Vec<u32>,
    /// The bytes of a source row cut between pieces.
    carry: Vec<u8>,
    /// The next source row.
    y: usize,
    /// The next output row.
    ty: usize,
    out: Vec<u8>,
}

/// Each target pixel's source box along one axis: `[i·from/to, (i+1)·from/to)`,
/// at least one source pixel wide. Along a shrinking axis the boxes tile
/// the source; along a growing one each is a single source pixel and
/// every source pixel is some box's. So every source row belongs in the
/// column sums of the next output row, and boxes that share a row share
/// it whole.
fn boxes(from: u32, to: u32) -> Vec<(usize, usize)> {
    let (f, t) = (from as usize, to as usize);
    (0..t)
        .map(|i| {
            let a = i * f / t;
            (a, ((i + 1) * f / t).max(a + 1))
        })
        .collect()
}

impl Downscaler {
    /// A downscaler from `from` to `to`, before its first source byte.
    pub fn new(from: ImageFormat, to: ImageFormat) -> Downscaler {
        Downscaler {
            from,
            cols: boxes(from.width, to.width),
            rows: boxes(from.height, to.height),
            sums: vec![0; from.width as usize * 3],
            carry: Vec::new(),
            y: 0,
            ty: 0,
            out: Vec::with_capacity(to.bytes()),
        }
    }

    /// Take the next source bytes, in order.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        let row_bytes = self.from.width as usize * 3;
        if !self.carry.is_empty() {
            let n = (row_bytes - self.carry.len()).min(bytes.len());
            self.carry.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if self.carry.len() < row_bytes {
                return;
            }
            let row = std::mem::take(&mut self.carry);
            self.add_row(&row);
            self.carry = row;
            self.carry.clear();
        }
        let mut rows = bytes.chunks_exact(row_bytes);
        for row in &mut rows {
            self.add_row(row);
        }
        self.carry.extend_from_slice(rows.remainder());
    }

    /// Add source row `self.y` into the column sums, and emit each output
    /// row whose box ends with it.
    fn add_row(&mut self, row: &[u8]) {
        assert!(
            self.y < self.from.height as usize,
            "more bytes than the image"
        );
        let y = self.y;
        self.y += 1;
        for (sum, &b) in self.sums.iter_mut().zip(row) {
            *sum += u32::from(b);
        }
        let first = self.ty;
        while let Some(&(y0, y1)) = self.rows.get(self.ty).filter(|&&(_, y1)| y1 == y + 1) {
            for &(x0, x1) in &self.cols {
                let mut acc = [0u32; 3];
                for px in self.sums[x0 * 3..x1 * 3].chunks_exact(3) {
                    acc[0] += px[0];
                    acc[1] += px[1];
                    acc[2] += px[2];
                }
                let n = ((y1 - y0) * (x1 - x0)) as u32;
                self.out.extend(acc.map(|a| (a / n) as u8));
            }
            self.ty += 1;
        }
        if self.ty > first {
            self.sums.fill(0);
        }
    }

    /// The downscaled image, once every source byte has been fed. Panics
    /// if the image was fed short.
    pub fn finish(self) -> Vec<u8> {
        assert!(
            self.y == self.from.height as usize && self.carry.is_empty(),
            "downscaler fed {} of {} rows",
            self.y,
            self.from.height
        );
        self.out
    }
}

/// Box-filter downscale RGB `src` (`from`) to `to`: the [`Downscaler`]
/// fed one slice.
pub fn downscale(src: &[u8], from: ImageFormat, to: ImageFormat) -> Vec<u8> {
    assert_eq!(src.len(), from.bytes());
    let mut d = Downscaler::new(from, to);
    d.feed(src);
    d.finish()
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

/// Cheap content key of an image, from about 512 sampled bytes. The
/// database controller takes a received image whose key equals its class's
/// table image key as that image, and classifies any other from its own
/// bytes; damage that misses every sample goes unseen. Walks the segments in
/// place and reads only the sampled bytes ([`Payload::byte_at`]), so
/// hashing neither concatenates the segments nor materialises a lazy one.
/// The sample points and hash are identical to running FNV over every
/// `step`-th byte of the flat image.
pub(crate) fn content_key(segs: &[Payload], total: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let step = (total / 512).max(1);
    let mut next = 0usize; // next flat index to sample
    let mut base = 0usize; // flat index of the current segment's start
    for seg in segs {
        let end = base + seg.len();
        while next < end {
            h ^= seg.byte_at(next - base) as u64;
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
    /// (`generate_image(capture, class).1`), generated lazily.
    pub(crate) body: Payload,
    /// The body's content key, as the database controller keys a received
    /// image.
    pub(crate) key: u64,
    /// The class the downscaler and classifier PEs assign the body.
    pub(crate) class: u32,
}

impl ClassImage {
    /// The entry of `class`. The body is a lazy [`Payload::generated`]
    /// segment; its key reads the sampled bytes, and its class comes from
    /// one pass that generates a row at a time into the streaming
    /// downscaler. No body is materialised.
    fn new(class: u32) -> ClassImage {
        let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
        let body = Payload::generated(cap.bytes(), move |off, out| {
            image_bytes(cap, class, off, out)
        });
        let mut row = vec![0u8; cap.width as usize * 3];
        let mut small = Downscaler::new(cap, cls);
        for at in (0..cap.bytes()).step_by(row.len()) {
            image_bytes(cap, class, at, &mut row);
            small.feed(&row);
        }
        ClassImage {
            key: content_key(std::slice::from_ref(&body), body.len()),
            class: classify(&small.finish(), cls),
            body,
        }
    }
}

thread_local! {
    /// This thread's class-image table, indexed by class; an entry is
    /// built on the first use of its class. It is per thread because
    /// `Payload` is single-threaded; an entry holds no body bytes, so a
    /// thread's table costs a few hundred bytes until a damaged image
    /// materialises a body.
    static CLASS_TABLE: [OnceCell<ClassImage>; NUM_CLASSES as usize] =
        const { [const { OnceCell::new() }; NUM_CLASSES as usize] };
}

/// The table entry of `class`, generating its lazy body and classifying
/// it on this thread's first use of the class. `None` for a class past
/// [`NUM_CLASSES`].
pub(crate) fn class_image(class: u32) -> Option<ClassImage> {
    CLASS_TABLE.with(|t| {
        let cell = t.get(class as usize)?;
        Some(cell.get_or_init(|| ClassImage::new(class)).clone())
    })
}

/// The capture body of `class`: every call returns the same lazy window.
/// Panics for a class past [`NUM_CLASSES`].
pub fn class_body(class: u32) -> Payload {
    class_image(class)
        .unwrap_or_else(|| panic!("class {class} out of range"))
        .body
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
        // Byte for byte the generator's body, lazy, and every call the
        // same window of one backing.
        let (_, px) = generate_image(ImageFormat::capture(), 4);
        let a = class_body(4);
        let b = class_body(4);
        assert!(format!("{a:?}").contains("generated"), "body is not lazy");
        assert!(a.owned_backing().is_none());
        assert!(a.same_window(&b));
        assert!(a == px, "class 4 body differs from generate_image");
        assert!(class_image(NUM_CLASSES).is_none());
    }

    #[test]
    fn class_table_entry_is_what_the_pipeline_computes() {
        let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
        let e = class_image(6).expect("class 6");
        // The key of the body received as 8 KiB frames is the table's.
        let frames: Vec<Payload> = (0..e.body.len())
            .step_by(8192)
            .map(|o| e.body.slice(o..e.body.len().min(o + 8192)))
            .collect();
        assert_eq!(content_key(&frames, e.body.len()), e.key);
        // Building the entry and keying frames left the body lazy.
        assert!(format!("{:?}", e.body).contains("generated"));
        assert_eq!(e.class, classify(&downscale(&e.body, cap, cls), cls));
    }

    #[test]
    fn streaming_downscale_equals_the_box_loop() {
        // The per-output-pixel box loop the streaming kernel replaced, on
        // formats that shrink, keep and grow each axis unevenly.
        fn box_loop(src: &[u8], from: ImageFormat, to: ImageFormat) -> Vec<u8> {
            let (fw, fh) = (from.width as usize, from.height as usize);
            let (tw, th) = (to.width as usize, to.height as usize);
            let mut out = vec![0u8; to.bytes()];
            for ty in 0..th {
                let y0 = ty * fh / th;
                let y1 = ((ty + 1) * fh / th).max(y0 + 1);
                for tx in 0..tw {
                    let x0 = tx * fw / tw;
                    let x1 = ((tx + 1) * fw / tw).max(x0 + 1);
                    let n = ((y1 - y0) * (x1 - x0)) as u32;
                    for c in 0..3 {
                        let mut acc = 0u32;
                        for y in y0..y1 {
                            for x in x0..x1 {
                                acc += src[(y * fw + x) * 3 + c] as u32;
                            }
                        }
                        out[(ty * tw + tx) * 3 + c] = (acc / n) as u8;
                    }
                }
            }
            out
        }
        let fmt = |width, height| ImageFormat { width, height };
        let cases = [
            (fmt(37, 23), fmt(5, 4)),
            (fmt(16, 16), fmt(16, 16)),
            (fmt(7, 5), fmt(11, 9)),
            (fmt(9, 4), fmt(4, 9)),
        ];
        let mut rng = SimRng::new(3);
        for (from, to) in cases {
            let mut src = vec![0u8; from.bytes()];
            rng.fill_bytes(&mut src);
            let want = box_loop(&src, from, to);
            assert_eq!(downscale(&src, from, to), want, "{from:?} -> {to:?}");
            // Fed in pieces of 1, 2, 3, ... bytes: the same output.
            let mut d = Downscaler::new(from, to);
            let (mut at, mut n) = (0, 1);
            while at < src.len() {
                let end = (at + n).min(src.len());
                d.feed(&src[at..end]);
                (at, n) = (end, n + 1);
            }
            assert_eq!(d.finish(), want, "{from:?} -> {to:?} in pieces");
        }
    }
}
