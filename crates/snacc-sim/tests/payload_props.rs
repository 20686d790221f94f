//! Property tests: [`Payload`] windowing operations are byte-equivalent
//! to the corresponding `Vec<u8>` operations, for arbitrary contents and
//! arbitrary (in-bounds) cut points — including slices of slices, so
//! offset composition is exercised, generated windows
//! ([`Payload::generated`]) against the same flat model,
//! [`PayloadQueue`] against a flat `VecDeque<u8>` model, and a pattern
//! stream cut into separately built windows against the one pattern.

use proptest::prelude::*;
use snacc_sim::bytes::{pattern_byte, LAZY_BACKING_MAX};
use snacc_sim::{Payload, PayloadQueue};
use std::rc::Rc;

/// A generated payload whose bytes are `flat`'s.
fn generated(flat: &[u8]) -> Payload {
    let flat: Rc<[u8]> = Rc::from(flat);
    Payload::generated(flat.len(), move |off, out| {
        out.copy_from_slice(&flat[off..off + out.len()])
    })
}

/// Whether `p`'s segment is still lazy: its debug form names the generator
/// only until it materialises.
fn unmaterialised(p: &Payload) -> bool {
    format!("{p:?}").starts_with("Payload::generated")
}

/// The length of the lazy backing behind `p`, from its debug form, or
/// `None` when `p` is a byte buffer or materialised.
fn lazy_backing_len(p: &Payload) -> Option<usize> {
    let dbg = format!("{p:?}");
    let (_, rest) = dbg.split_once("backing=")?;
    rest.trim_end_matches(')').parse().ok()
}

/// `p` holds bytes `[at, at + p.len())` of the pattern stream with `seed`:
/// a lazy window checked by origin and a few bytes, a copy byte by byte.
fn holds_stream(p: &Payload, seed: u64, at: usize) -> bool {
    let want = |i: usize| pattern_byte(seed, (at + i) as u64);
    match p.pattern_origin() {
        Some(o) => {
            o == seed.wrapping_add(at as u64)
                && [0, p.len() / 2, p.len().saturating_sub(1)]
                    .iter()
                    .all(|&i| p.is_empty() || p.byte_at(i) == want(i))
        }
        None => p.iter().enumerate().all(|(i, &b)| b == want(i)),
    }
}

proptest! {
    /// A pattern stream cut into windows that are each built on their
    /// own (some cut from a larger allocation) rejoins exactly: a
    /// `try_extend` fold joins until the next window would pass
    /// [`LAZY_BACKING_MAX`], `concat` is lazy up to it and copies past it,
    /// and a [`PayloadQueue`] fed the windows hands back the stream. No
    /// lazy backing a join builds is longer than the cap.
    #[test]
    fn separate_pattern_windows_rebuild_the_stream(
        seed in any::<u64>(),
        lens in proptest::collection::vec(1usize..=256 << 10, 1..10),
        pads in proptest::collection::vec(0usize..4096, 10),
        takes in proptest::collection::vec(1usize..=400 << 10, 1..12),
    ) {
        let mut windows = Vec::new();
        let mut at = 0usize;
        for (i, &len) in lens.iter().enumerate() {
            let origin = seed.wrapping_add(at as u64);
            let w = match pads[i] % 3 {
                0 => Payload::pattern(origin, len),
                pad => Payload::pattern(origin.wrapping_sub(pad as u64), len + 2 * pad)
                    .slice(pad..pad + len),
            };
            prop_assert!(lazy_backing_len(&w).is_some_and(|b| b <= LAZY_BACKING_MAX));
            windows.push(w);
            at += len;
        }
        let total = at;
        // A `try_extend` fold: refused only where the cap would be passed.
        let mut acc = windows[0].clone();
        let mut acc_at = 0usize;
        for w in &windows[1..] {
            let before = acc.len();
            if acc.try_extend(w) {
                prop_assert_eq!(acc.len(), before + w.len());
            } else {
                prop_assert!(before + w.len() > LAZY_BACKING_MAX);
                acc_at += before;
                acc = w.clone();
            }
            prop_assert!(holds_stream(&acc, seed, acc_at));
            prop_assert!(lazy_backing_len(&acc).is_some_and(|b| b <= LAZY_BACKING_MAX));
        }
        // `concat`: lazy within the cap, one copy past it.
        let all = Payload::concat(&windows);
        prop_assert_eq!(all.len(), total);
        prop_assert!(holds_stream(&all, seed, 0));
        prop_assert_eq!(all.pattern_origin().is_some(), total <= LAZY_BACKING_MAX || windows.len() == 1);
        // A queue fed the windows hands back the stream, take by take.
        let mut q = PayloadQueue::new();
        for w in &windows {
            q.push_back(w.clone());
        }
        let mut pos = 0usize;
        for &t in &takes {
            let n = t.min(q.len());
            let got = q.take(n);
            prop_assert_eq!(got.len(), n);
            prop_assert!(holds_stream(&got, seed, pos));
            prop_assert!(lazy_backing_len(&got).is_none_or(|b| b <= LAZY_BACKING_MAX));
            pos += n;
        }
    }
}

proptest! {
    /// `slice(a..b)` equals `&v[a..b]` for any in-bounds range, and a
    /// second slice composes like re-slicing the vector.
    #[test]
    fn slice_equals_vec_range(
        v in proptest::collection::vec(any::<u8>(), 0..300),
        cuts in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let p = Payload::from_vec(v.clone());
        let n = v.len() as u64;
        let (a, b) = (cuts[0] % (n + 1), cuts[1] % (n + 1));
        let (a, b) = (a.min(b) as usize, a.max(b) as usize);
        let s = p.slice(a..b);
        prop_assert_eq!(s.as_slice(), &v[a..b]);
        // Slice of a slice == re-slice of the vec.
        let m = (b - a) as u64;
        let (c, d) = (cuts[2] % (m + 1), cuts[3] % (m + 1));
        let (c, d) = (c.min(d) as usize, c.max(d) as usize);
        let ss = s.slice(c..d);
        prop_assert_eq!(ss.as_slice(), &v[a + c..a + d]);
    }

    /// `split_at(mid)` equals `slice::split_at`, and re-concatenating the
    /// halves reproduces the original bytes (zero-copy, same backing).
    #[test]
    fn split_then_concat_roundtrips(
        v in proptest::collection::vec(any::<u8>(), 0..300),
        cut in any::<u64>(),
    ) {
        let p = Payload::from_vec(v.clone());
        let mid = (cut % (v.len() as u64 + 1)) as usize;
        let (head, tail) = p.split_at(mid);
        let (vh, vt) = v.split_at(mid);
        prop_assert_eq!(head.as_slice(), vh);
        prop_assert_eq!(tail.as_slice(), vt);
        let joined = Payload::concat(&[head, tail]);
        prop_assert_eq!(joined.as_slice(), &v[..]);
    }

    /// `concat` of arbitrary (unrelated) parts equals `Vec` concatenation.
    #[test]
    fn concat_equals_vec_append(
        parts in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        let payloads: Vec<Payload> =
            parts.iter().map(|p| Payload::from_vec(p.clone())).collect();
        let flat: Vec<u8> = parts.concat();
        let joined = Payload::concat(&payloads);
        prop_assert_eq!(joined.as_slice(), &flat[..]);
    }

    /// Pattern segments materialise to exactly `pattern_byte(seed, i)`,
    /// and slicing before materialisation equals slicing after. A pattern
    /// window and every slice of it report `seed + offset` as their
    /// origin; bytes, fill and generated windows of the same bytes report
    /// none.
    #[test]
    fn pattern_windows_are_pure(
        seed in any::<u64>(),
        len in 0u64..500,
        cut in any::<u64>(),
        fill in any::<u8>(),
    ) {
        let flat: Vec<u8> = (0..len).map(|i| pattern_byte(seed, i)).collect();
        let p = Payload::pattern(seed, len as usize);
        let mid = (cut % (len + 1)) as usize;
        let (head, tail) = p.split_at(mid);
        prop_assert_eq!(p.pattern_origin(), Some(seed));
        prop_assert_eq!(head.pattern_origin(), Some(seed));
        prop_assert_eq!(tail.pattern_origin(), Some(seed.wrapping_add(mid as u64)));
        prop_assert_eq!(head.as_slice(), &flat[..mid]);
        prop_assert_eq!(tail.as_slice(), &flat[mid..]);
        prop_assert_eq!(p.as_slice(), &flat[..]);
        let origin = seed.wrapping_add(mid as u64);
        for (i, &b) in tail.iter().enumerate() {
            prop_assert_eq!(b, pattern_byte(0, origin.wrapping_add(i as u64)));
        }
        let bytes = Payload::from_vec(flat.clone());
        prop_assert_eq!(bytes.pattern_origin(), None);
        prop_assert_eq!(bytes.slice(mid..len as usize).pattern_origin(), None);
        prop_assert_eq!(Payload::fill(fill, len as usize).pattern_origin(), None);
        prop_assert_eq!(generated(&flat).pattern_origin(), None);
    }

    /// A [`PayloadQueue`] fed arbitrary segments and drained with
    /// arbitrary take sizes yields the same byte stream as a flat model.
    #[test]
    fn queue_equals_flat_stream(
        segs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80), 1..12),
        takes in proptest::collection::vec(1u64..100, 1..20),
    ) {
        let mut q = PayloadQueue::new();
        let mut model: Vec<u8> = Vec::new();
        for s in &segs {
            model.extend_from_slice(s);
            q.push_back(Payload::from_vec(s.clone()));
        }
        prop_assert_eq!(q.len(), model.len());
        let mut cursor = 0usize;
        for t in takes {
            let n = (t as usize).min(q.len());
            let got = q.take(n);
            prop_assert_eq!(got.as_slice(), &model[cursor..cursor + n]);
            cursor += n;
            if q.is_empty() {
                break;
            }
        }
    }

    /// Windows of a generated segment behave like windows over a `Vec`.
    /// Copy-out reads (`copy_to`, `byte_at`), slices of slices, splits
    /// that re-join zero-copy (by `concat` and `try_extend`, keeping the
    /// window's backing), `concat` with unrelated parts and a
    /// [`PayloadQueue`] fed its windows all match the flat model without
    /// materialising the segment. Then `as_slice` materialises it, and
    /// every read still matches. It reports no owned backing and is never
    /// unique.
    #[test]
    fn generated_windows_equal_vec_model(
        v in proptest::collection::vec(any::<u8>(), 0..300),
        other in proptest::collection::vec(any::<u8>(), 0..64),
        cuts in proptest::collection::vec(any::<u64>(), 4),
        takes in proptest::collection::vec(1u64..100, 1..8),
    ) {
        let p = generated(&v);
        prop_assert_eq!(p.owned_backing(), None);
        prop_assert!(!p.is_unique());
        let n = v.len() as u64;
        let (a, b) = (cuts[0] % (n + 1), cuts[1] % (n + 1));
        let (a, b) = (a.min(b) as usize, a.max(b) as usize);
        let m = (b - a) as u64;
        let c = (cuts[2] % (m + 1)) as usize;
        let s = p.slice(a..b);
        let ss = s.slice(c..b - a);
        let (head, tail) = s.split_at(c);
        let o = Payload::from_vec(other.clone());
        let mut flat = v[a..b].to_vec();
        flat.extend_from_slice(&other);
        flat.extend_from_slice(&v[a + c..b]);
        // Two passes over the same reads: lazy, then materialised.
        for lazy in [true, false] {
            let mut out = vec![0u8; b - a];
            s.copy_to(&mut out);
            prop_assert_eq!(&out[..], &v[a..b]);
            let mut out = vec![0u8; b - a - c];
            ss.copy_to(&mut out);
            prop_assert_eq!(&out[..], &v[a + c..b]);
            if b > a {
                let i = (cuts[3] % m) as usize;
                prop_assert_eq!(s.byte_at(i), v[a + i]);
            }
            // Adjacent windows join without copying, in either operation.
            prop_assert!(head.joins(&tail), "adjacent generated windows");
            prop_assert!(Payload::concat(&[head.clone(), tail.clone()]).same_window(&s));
            if !tail.is_empty() {
                prop_assert!(!tail.joins(&head));
            }
            // With an unrelated buffer, `concat` copies the parts out.
            prop_assert!(!s.joins(&o));
            let mixed = Payload::concat(&[s.clone(), o.clone(), tail.clone()]);
            prop_assert_eq!(mixed.as_slice(), &flat[..]);
            prop_assert!(mixed.owned_backing().is_some());
            // A queue fed its windows and the unrelated buffer.
            let mut q = PayloadQueue::new();
            for part in [&head, &o, &tail] {
                q.push_back(part.clone());
            }
            let mut model = [&v[a..a + c], &other[..], &v[a + c..b]].concat();
            for &t in &takes {
                let k = (t as usize).min(q.len());
                let got = q.take(k);
                prop_assert_eq!(got.len(), k);
                let mut out = vec![0u8; k];
                got.copy_to(&mut out);
                let want: Vec<u8> = model.drain(..k).collect();
                prop_assert_eq!(out, want);
            }
            prop_assert_eq!(unmaterialised(&p), lazy);
            // Materialise: every window reads the same bytes after.
            prop_assert_eq!(ss.as_slice(), &v[a + c..b]);
            prop_assert_eq!(p.as_slice(), &v[..]);
            prop_assert!(!unmaterialised(&p) && !p.is_unique());
        }
    }
}
