//! A counting global allocator for allocation-regression tests.
//!
//! The simulator's hot loop is contractually allocation-free in steady
//! state (see DESIGN.md §"Performance engineering"); this module provides
//! the measurement half of that contract. Installing [`CountingAlloc`] as
//! the `#[global_allocator]` of a test binary makes every heap allocation
//! tick a counter of the allocating thread that [`thread_alloc_count`]
//! reads:
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
//! The count is per thread, so concurrent tests in the same binary cannot
//! leak their allocations into each other's windows.
//!
//! The counter is always compiled in (a const-initialised thread-local —
//! far below measurement noise) but only advances in binaries that
//! actually install the allocator, so the library itself imposes no
//! policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static TRAP: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

/// A `GlobalAlloc` that forwards to [`System`] and counts every
/// allocation and reallocation (frees are not counted — the contract under
/// test is "no new heap traffic", and a free implies a prior allocation).
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the thread-local counter and the
// trap flag have no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRAP.swap(false, Ordering::SeqCst) {
            panic!("heap allocation of {} bytes while trapped", layout.size());
        }
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRAP.swap(false, Ordering::SeqCst) {
            panic!("heap reallocation to {new_size} bytes while trapped");
        }
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Arms (or disarms) the allocation trap: the **next** allocation or
/// reallocation panics with a backtrace pointing at the allocation site,
/// then the trap disarms itself (so the panic machinery can allocate
/// freely). A debugging aid for hunting stray allocations that
/// [`thread_alloc_count`] detects — not for use in committed assertions.
pub fn trap_on_next_alloc(enable: bool) {
    TRAP.store(enable, Ordering::SeqCst);
}

/// Heap allocations (including reallocations) made so far by the calling
/// thread. Always zero unless the binary installed [`CountingAlloc`].
#[must_use]
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}
