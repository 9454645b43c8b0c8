//! Fixture: the former executor-core path, whose `unsafe` is flagged
//! like any other file's.

pub fn poke(p: *mut u32) {
    unsafe {
        *p = 2;
    }
}
