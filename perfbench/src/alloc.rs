//! A counting global allocator for the benchmark binary.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`;
//! the library only defines it, so tests linking the library keep the
//! system allocator and read zero counts. Counting is off until
//! [`count`] switches it on around a measured call, so the untraced
//! end-to-end runs pay one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting allocations and requested bytes
/// while [`count`] is running. A `realloc` counts as one allocation of
/// its new size.
pub struct CountingAlloc;

fn note(size: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` obligations are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made during one [`count`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Runs `f` with counting on and returns its result with the
/// allocations it made (on every thread). Calls must not nest.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    ENABLED.store(true, Relaxed);
    let r = f();
    ENABLED.store(false, Relaxed);
    let n = AllocCount {
        allocs: ALLOCS.load(Relaxed) - a0,
        bytes: BYTES.load(Relaxed) - b0,
    };
    (r, n)
}
