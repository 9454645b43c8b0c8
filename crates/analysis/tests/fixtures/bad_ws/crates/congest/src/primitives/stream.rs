//! Fixture: hash-order iteration in a primitive whose streams the
//! faulty executor replays.

pub fn pending() -> std::collections::HashSet<u32> {
    Default::default()
}
