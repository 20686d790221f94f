// Fixture: SL010 with a caller only in test code. Not compiled — scanned
// by the lint integration tests. `tested_only` is called from the test
// module below and nowhere else, so nothing that ships calls it.

pub fn tested_only() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::tested_only(), 3);
    }
}
