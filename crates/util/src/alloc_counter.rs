//! A counting global allocator for allocation-regression tests and
//! benchmark reports.
//!
//! The simulator's hot loop is contractually allocation-free in steady
//! state (see DESIGN.md §"Performance engineering"); this module provides
//! the measurement half of that contract. Installing [`CountingAlloc`] as
//! the `#[global_allocator]` of a test or bench binary makes every heap
//! allocation tick a process-wide counter that [`alloc_count`] reads, and
//! a counter of the allocating thread that [`thread_alloc_count`] reads:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: orinoco_util::alloc_counter::CountingAlloc =
//!     orinoco_util::alloc_counter::CountingAlloc;
//!
//! let before = orinoco_util::alloc_counter::thread_alloc_count();
//! hot_loop();
//! assert_eq!(orinoco_util::alloc_counter::thread_alloc_count(), before);
//! ```
//!
//! Use the per-thread count when the measured code runs on the calling
//! thread: concurrent tests in the same binary then cannot leak their
//! allocations into each other's windows. Use the process-wide count when
//! the measured work runs on other threads (server workers, pools).
//!
//! The counters are always compiled in (relaxed atomics and a
//! const-initialised thread-local — far below measurement noise) but only
//! advance in binaries that actually install the allocator, so the library
//! itself imposes no policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TRAP: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

/// A `GlobalAlloc` that forwards to [`System`] and counts every
/// allocation and reallocation (frees are not counted — the contract under
/// test is "no new heap traffic", and a free implies a prior allocation).
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters are relaxed atomics
// with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRAP.swap(false, Ordering::SeqCst) {
            panic!("heap allocation of {} bytes while trapped", layout.size());
        }
        count(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRAP.swap(false, Ordering::SeqCst) {
            panic!("heap reallocation to {new_size} bytes while trapped");
        }
        count(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Arms (or disarms) the allocation trap: the **next** allocation or
/// reallocation panics with a backtrace pointing at the allocation site,
/// then the trap disarms itself (so the panic machinery can allocate
/// freely). A debugging aid for hunting stray allocations that
/// [`alloc_count`] detects — not for use in committed assertions.
pub fn trap_on_next_alloc(enable: bool) {
    TRAP.store(enable, Ordering::SeqCst);
}

/// Total heap allocations (including reallocations) observed so far.
/// Always zero unless the binary installed [`CountingAlloc`].
#[must_use]
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap allocations (including reallocations) made so far by the calling
/// thread. Always zero unless the binary installed [`CountingAlloc`].
#[must_use]
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Total bytes requested by those allocations.
#[must_use]
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}
