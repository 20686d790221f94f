// Fixture: SL010 with a field of the same name. Not compiled — scanned by
// the lint integration tests. `frames` is a field declared, read,
// destructured and initialised below, but the `pub fn frames` accessor
// has no caller: field syntax is no use of a function.

pub struct Counter {
    frames: u64,
}

impl Counter {
    pub fn frames(&self) -> u64 {
        self.frames
    }

    fn merged(&self, other: Counter) -> Counter {
        let Counter { frames: n } = other;
        Counter { frames: n + self.frames }
    }
}
