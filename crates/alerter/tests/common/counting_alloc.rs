//! A global allocator that counts, per thread, the allocations made and
//! the bytes live, for the tests that budget them. A test binary installs
//! it with
//!
//! ```ignore
//! #[path = "common/counting_alloc.rs"]
//! mod counting_alloc;
//!
//! #[global_allocator]
//! static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;
//! ```
//!
//! Counts are per thread, so tests running in parallel do not disturb
//! each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (a block freed on
    /// another thread than the one that allocated it skews both).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocator call that changed this thread's live bytes by
/// `grown`, counting it as an allocation when `counted`.
fn record(grown: i64, counted: bool) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + u64::from(counted)));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + grown;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// The system allocator, counting every allocation and reallocation made
/// on the current thread and tracking its live bytes.
pub(crate) struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. Counting touches only const-initialized
// thread-local `Cell`s, which never allocate and have no destructor, so it
// cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, true);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` and returns its result with the allocations it made.
#[allow(dead_code)] // each test binary uses one of the two measures
pub(crate) fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the most bytes it held live at
/// once, over what was live when it started.
#[allow(dead_code)] // each test binary uses one of the two measures
pub(crate) fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start).max(0) as u64)
}
