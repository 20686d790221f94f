// Fixture: SL010 (a `pub fn` nothing calls). Not compiled — scanned by
// the lint integration tests. `orphan_helper` is also named in this
// comment and in a string below; neither counts as a use.

pub fn orphan_helper() -> u32 {
    7
}

pub fn describe(n: u32) -> String {
    format!("orphan_helper returned {}", describe_inner(n))
}

fn describe_inner(n: u32) -> u32 {
    n
}
