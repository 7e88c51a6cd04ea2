//! A counting `#[global_allocator]` harness.
//!
//! The allocation-free signal path (FFT planner + per-worker scratch
//! arenas) claims that a warm receiver timestamps frames without
//! touching the heap. That claim is cheap to regress silently —
//! one stray `collect()` in a helper brings the allocations back with no
//! test failing — so the `zero_alloc` integration test installs this
//! allocator and pins the count to **zero** per steady-state frame.
//!
//! Install it in a test or bench binary with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//! ```
//!
//! and bracket the region of interest with [`CountingAllocator::snapshot`].
//! Counters are process-global and lock-free (relaxed atomics): exact
//! when the measured region is single-threaded, which is what the
//! steady-state test arranges.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that counts every allocation.
///
/// `alloc`, `alloc_zeroed` and growing/shrinking `realloc` each count as
/// one allocation event; `dealloc` counts separately. The interesting
/// metric for the zero-allocation pin is [`CountingAllocator::allocations`]
/// staying flat across a region.
pub struct CountingAllocator {
    allocations: AtomicU64,
    deallocations: AtomicU64,
    bytes_allocated: AtomicU64,
}

/// A point-in-time reading of the counters, for deltas over a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events (alloc + alloc_zeroed + realloc) so far.
    pub allocations: u64,
    /// Deallocation events so far.
    pub deallocations: u64,
    /// Total bytes requested from the system allocator so far.
    pub bytes_allocated: u64,
}

impl CountingAllocator {
    /// Creates the allocator (const, so it can be a `static`).
    pub const fn new() -> Self {
        CountingAllocator {
            allocations: AtomicU64::new(0),
            deallocations: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
        }
    }

    /// Allocation events so far.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Deallocation events so far.
    pub fn deallocations(&self) -> u64 {
        self.deallocations.load(Ordering::Relaxed)
    }

    /// Total bytes requested so far.
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Reads all counters at once.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations(),
            deallocations: self.deallocations(),
            bytes_allocated: self.bytes_allocated(),
        }
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl AllocSnapshot {
    /// Allocation events between this snapshot and a later one.
    pub fn allocations_since(&self, later: &AllocSnapshot) -> u64 {
        later.allocations - self.allocations
    }
}

// SAFETY: delegates every operation to `System`; the counters are
// side-effect-only bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
