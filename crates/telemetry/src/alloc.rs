//! A counting global allocator for allocations-per-epoch accounting.
//!
//! The ROADMAP's scale-harness item wants an allocations/epoch figure
//! in every `BENCH_*.json` so the planned allocation-free pump has a
//! trajectory to beat. Scenario binaries opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: presto_telemetry::alloc::CountingAlloc =
//!     presto_telemetry::alloc::CountingAlloc;
//! ```
//!
//! (presto-bench's scenario binaries do so through its
//! `install_counting_alloc!` macro) and read [`allocation_count`]
//! before/after the measured phase. The counters are relaxed atomics —
//! cheap enough to leave on for a whole scenario run — and the type
//! delegates straight to the system allocator, so behavior is
//! otherwise unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-delegating allocator that counts allocations and bytes.
pub struct CountingAlloc;

/// Folds a live-byte reading into the high-water mark.
///
/// Relaxed `fetch_max` keeps the mark monotone; under concurrent
/// allocation the reading itself may be momentarily stale, so the mark
/// is a proxy for peak RSS, not an exact accounting — which is all the
/// BENCH export needs.
fn note_live(live: u64) {
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: `GlobalAlloc`'s contract has two halves, and this impl satisfies
// both by construction:
//
// 1. *Allocator correctness* — every method forwards its arguments verbatim
//    to [`System`] and returns `System`'s result unmodified. No pointer is
//    created, offset, cached, or retired here, and no layout is altered, so
//    the memory this type hands out is exactly the memory `System` hands
//    out: `alloc` returns either null or a block valid for `layout`,
//    `dealloc`/`realloc` pass the caller's `(ptr, layout)` pair straight
//    through, and the caller's obligations (matching layout on free,
//    non-zero sizes) transfer 1:1 onto `System`, which upholds them.
//
// 2. *No reentrant allocation, no panics, no TLS* — a `GlobalAlloc` method
//    must not itself allocate (infinite recursion), unwind, or touch
//    thread-local state that may be torn down during thread exit. The only
//    added work is `fetch_add`/`fetch_sub`/`fetch_max(Relaxed)` on four
//    `static` process-lifetime atomics: lock-free, allocation-free,
//    panic-free, and TLS-free (`note_live` is a plain fn over a `static`,
//    not TLS, and cannot unwind). Relaxed ordering is sound because the
//    counters are monotone-or-approximate telemetry read after the
//    measured phase completes — they impose no synchronization edge that
//    correctness depends on.
//
// `dealloc` deliberately does not decrement `ALLOCATIONS`/`ALLOCATED_BYTES`:
// those report cumulative allocation traffic (allocations/epoch). Live-heap
// size is tracked separately in `LIVE_BYTES` (decremented on free), whose
// running maximum `PEAK_BYTES` is the peak-RSS proxy the BENCH exports use.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE_BYTES
            .fetch_add(layout.size() as u64, Ordering::Relaxed)
            .wrapping_add(layout.size() as u64);
        note_live(live);
        // SAFETY: caller obligations (`layout` has non-zero size) are
        // forwarded unchanged from our own caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `self.alloc`/`self.realloc`, which
        // delegate to `System`, so it is a `System` block with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // Model realloc as free(old) + alloc(new) for live accounting.
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE_BYTES
            .fetch_add(new_size as u64, Ordering::Relaxed)
            .wrapping_add(new_size as u64);
        note_live(live);
        // SAFETY: as in `dealloc`, `ptr` is a live `System` block matching
        // `layout`, and `new_size` obligations forward from our caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made since process start (0 unless the binary
/// installed [`CountingAlloc`]).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested from the heap since process start.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes currently live on the heap (allocated minus freed). A relaxed
/// approximation under concurrency; exact in single-threaded scenario
/// binaries.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start — the
/// peak-RSS proxy the BENCH exports report (0 unless the binary
/// installed [`CountingAlloc`]).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}
