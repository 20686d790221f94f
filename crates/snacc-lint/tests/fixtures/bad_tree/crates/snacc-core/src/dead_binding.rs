// Fixture: SL009 (`let _ =` of a place hiding dead code). Not compiled —
// scanned by the lint integration tests.

pub fn shrink(ring: &mut Ring, shared: bool) {
    let _ = shared;
    ring.shrink();
}

pub fn fetch(q: &Queue) -> Vec<u8> {
    let (entries, base) = (q.entries, q.head);
    let _ = (entries, base);
    let mut buf = vec![0u8; 64];
    let _ = &mut buf;
    buf
}
