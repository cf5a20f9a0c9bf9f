//! A peak-tracking, allocation-counting global allocator.
//!
//! The paper reports RAM (+VRAM) per system; our stand-in is live-heap peak
//! during a run, measured by wrapping the system allocator. The wrapper also
//! keeps a monotonic count of allocation calls, which the allocs/row
//! regression gate reads before/after a run to compute allocations per row.
//! Binaries and test targets opt in with `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The metering allocator.
pub struct MeteredAlloc;

// SAFETY: delegates to the system allocator; bookkeeping is atomic.
unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Resets the peak to the current live size.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last reset, in bytes.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Current live heap, in bytes.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Monotonic count of allocation calls since process start.
///
/// Subtract two readings to count the allocations a region performed:
/// `let before = alloc_count(); work(); let n = alloc_count() - before;`
pub fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}
