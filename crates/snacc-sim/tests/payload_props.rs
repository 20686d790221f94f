//! Property tests: [`Payload`] windowing operations are byte-equivalent
//! to the corresponding `Vec<u8>` operations, for arbitrary contents and
//! arbitrary (in-bounds) cut points — including slices of slices, so
//! offset composition is exercised, static windows
//! ([`Payload::from_static`]) against the same flat model, and
//! [`PayloadQueue`] against a flat `VecDeque<u8>` model.

use proptest::prelude::*;
use snacc_sim::bytes::pattern_byte;
use snacc_sim::{Payload, PayloadQueue};

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
    /// origin; bytes, fill and static windows of the same bytes report
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
        let bytes = Payload::from_vec(flat);
        prop_assert_eq!(bytes.pattern_origin(), None);
        prop_assert_eq!(bytes.slice(mid..len as usize).pattern_origin(), None);
        prop_assert_eq!(Payload::fill(fill, len as usize).pattern_origin(), None);
        prop_assert_eq!(Payload::from_static(b"static").pattern_origin(), None);
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

    /// Windows over static bytes behave like windows over a `Vec`:
    /// `as_slice`, slices of slices, splits that re-join zero-copy (by
    /// `concat` and `try_join`, keeping the backing), and `concat` with
    /// unrelated parts all match the flat model. They report their bytes
    /// as an owned backing and are never unique.
    #[test]
    fn static_windows_equal_vec_model(
        v in proptest::collection::vec(any::<u8>(), 0..300),
        other in proptest::collection::vec(any::<u8>(), 0..64),
        cuts in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let bytes: &'static [u8] = Box::leak(v.clone().into_boxed_slice());
        let p = Payload::from_static(bytes);
        prop_assert_eq!(p.as_slice(), &v[..]);
        prop_assert_eq!(p.owned_backing(), Some((bytes.as_ptr() as usize, v.len())));
        prop_assert!(!p.is_unique());
        let n = v.len() as u64;
        let (a, b) = (cuts[0] % (n + 1), cuts[1] % (n + 1));
        let (a, b) = (a.min(b) as usize, a.max(b) as usize);
        let s = p.slice(a..b);
        prop_assert_eq!(s.as_slice(), &v[a..b]);
        prop_assert_eq!(s.owned_backing(), p.owned_backing());
        let m = (b - a) as u64;
        let c = (cuts[2] % (m + 1)) as usize;
        let ss = s.slice(c..b - a);
        prop_assert_eq!(ss.as_slice(), &v[a + c..b]);
        // Adjacent windows join without copying, in either operation.
        let (head, tail) = s.split_at(c);
        let joined = head.try_join(&tail).expect("adjacent static windows");
        prop_assert_eq!(joined.as_slice(), &v[a..b]);
        prop_assert_eq!(joined.owned_backing(), p.owned_backing());
        let merged = Payload::concat(&[head.clone(), tail.clone()]);
        prop_assert_eq!(merged.as_slice(), &v[a..b]);
        prop_assert_eq!(merged.owned_backing(), p.owned_backing());
        if !tail.is_empty() {
            prop_assert!(tail.try_join(&head).is_none());
        }
        // A static window and an unrelated buffer concatenate by copy.
        let o = Payload::from_vec(other.clone());
        prop_assert!(s.try_join(&o).is_none());
        let mixed = Payload::concat(&[s.clone(), o, tail]);
        let mut flat = v[a..b].to_vec();
        flat.extend_from_slice(&other);
        flat.extend_from_slice(&v[a + c..b]);
        prop_assert_eq!(mixed.as_slice(), &flat[..]);
    }
}
