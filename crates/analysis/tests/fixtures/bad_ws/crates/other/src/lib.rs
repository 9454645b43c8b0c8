//! Fixture: `unsafe` with a SAFETY comment. The comment does not save
//! it: no file may use `unsafe`.

pub fn touch(p: *mut u32) {
    // SAFETY: p is valid — but no file may use `unsafe`.
    unsafe {
        *p = 1;
    }
}

pub fn use_widget() -> u32 {
    widget_fn()
}
