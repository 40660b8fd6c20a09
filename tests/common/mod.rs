//! A counting global allocator for the `*_alloc` tests.
//!
//! A test binary that declares `mod common;` installs [`CountingAlloc`] as
//! its global allocator.  It wraps the system allocator and counts the
//! `alloc` and `realloc` calls a closure passed to [`counted`] makes on the
//! calling thread.  The count is per thread and runs only inside
//! [`counted`]: the test harness's own threads allocate at times of their
//! choosing, and a harness allocation landing inside a counted region used
//! to fail these tests under CPU contention.  The code they measure runs on
//! the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations counted on this thread, or `None` outside [`counted`].
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    if let Some(n) = COUNT.get() {
        COUNT.set(Some(n + 1));
    }
}

struct CountingAlloc;

// SAFETY: defers every operation to the system allocator unchanged; the
// counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.set(Some(0));
    let out = f();
    let n = COUNT.take().expect("counted regions do not nest");
    (out, n)
}
