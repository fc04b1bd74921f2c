//! The benchmark binary's own counting allocator: `alloc.count` is the
//! number of allocations the program's code makes while it runs in-process
//! under the trace. The server process of the end-to-end run is a separate
//! binary and never sees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    // Per thread and not atomic: the in-process replay is single-threaded,
    // and `plan_miss` allocates a million times a cycle — a locked
    // increment on each would slow the replay it is measuring.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the GlobalAlloc contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's layout obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the calling thread so far; diff two readings.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
