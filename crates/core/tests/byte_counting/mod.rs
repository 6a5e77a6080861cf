//! A byte-counting global allocator for the block-memory tests: every
//! byte any thread of the test process asks the allocator for (frees are
//! not subtracted), so a bound on [`bytes_during`] is a bound on what a
//! call allocated, transients included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

/// `f`'s result and the bytes allocated while it ran.
pub fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}
