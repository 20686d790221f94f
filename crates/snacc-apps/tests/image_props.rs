//! Property tests of the lazily generated class images and the streaming
//! downscaler: any window of a class body reads exactly the bytes of
//! [`generate_image`], and a body fed to the [`Downscaler`] in any split
//! downscales to exactly what one flat slice does.

use proptest::prelude::*;
use snacc_apps::images::{
    class_body, downscale, generate_image, Downscaler, ImageFormat, NUM_CLASSES,
};
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    /// Flat class bodies from `generate_image`, built on first use.
    static FLAT: RefCell<HashMap<u32, Vec<u8>>> = RefCell::new(HashMap::new());
}

/// Bytes `[off, off + len)` of `class`'s flat body.
fn flat_window(class: u32, off: usize, len: usize) -> Vec<u8> {
    FLAT.with(|f| {
        f.borrow_mut()
            .entry(class)
            .or_insert_with(|| generate_image(ImageFormat::capture(), u64::from(class)).1)
            [off..off + len]
            .to_vec()
    })
}

proptest! {
    /// A window anywhere in a class body, of any length up to two rows,
    /// copies out and reads byte by byte as the same slice of the flat
    /// body, and leaves the body unmaterialised.
    #[test]
    fn class_body_windows_equal_generate_image(
        class in 0..NUM_CLASSES,
        at in any::<u64>(),
        len in 0usize..12_300,
    ) {
        let body = class_body(class);
        let len = len.min(body.len());
        let off = (at % (body.len() - len + 1) as u64) as usize;
        let want = flat_window(class, off, len);
        let w = body.slice(off..off + len);
        let mut got = vec![0u8; len];
        w.copy_to(&mut got);
        prop_assert!(got == want, "class {} window {}+{}", class, off, len);
        for i in [0, len / 2, len.saturating_sub(1)] {
            if i < len {
                prop_assert_eq!(w.byte_at(i), want[i]);
            }
        }
        prop_assert!(format!("{body:?}").contains("generated"));
    }

    /// Random source and target formats, random bytes, cut into random
    /// parts: the streamed result equals the one-slice `downscale`.
    #[test]
    fn split_bodies_downscale_like_flat_ones(
        dims in proptest::collection::vec(1u32..40, 4),
        seed in any::<u64>(),
        cuts in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let from = ImageFormat { width: dims[0], height: dims[1] };
        let to = ImageFormat { width: dims[2], height: dims[3] };
        let mut body = vec![0u8; from.bytes()];
        snacc_sim::SimRng::new(seed).fill_bytes(&mut body);
        let mut cuts: Vec<usize> =
            cuts.iter().map(|c| (c % (body.len() as u64 + 1)) as usize).collect();
        cuts.sort_unstable();
        let mut d = Downscaler::new(from, to);
        let mut start = 0;
        for &c in cuts.iter().chain([&body.len()]) {
            d.feed(&body[start..c]);
            start = c;
        }
        prop_assert_eq!(d.finish(), downscale(&body, from, to));
    }
}
