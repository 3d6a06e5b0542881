//! Instrumented global allocator: counts every heap allocation of the
//! binary that installs it, so a "zero steady-state allocation" claim can
//! be asserted live rather than read from a report.
//!
//! * [`CountingAlloc`] — a zero-dependency [`GlobalAlloc`] wrapper around
//!   the system allocator. Installing it is opt-in per binary, and the one
//!   binary that does is the `alloc_steadystate` test suite:
//!
//!   ```ignore
//!   #[global_allocator]
//!   static ALLOC: dronet_obs::CountingAlloc = dronet_obs::CountingAlloc::new();
//!   ```
//!
//!   It keeps atomic totals of allocations and allocated bytes, and the
//!   live and peak byte counts.
//! * [`AllocScope`] — an RAII region marker that snapshots the *current
//!   thread's* allocation counters at construction and reports the delta.
//!   Scopes nest: each sees its own deltas plus those of any inner scope,
//!   because the counters are monotonic.
//! * [`stats`] — the process-wide totals.
//!
//! When no `CountingAlloc` is installed every query returns zeros and
//! [`installed`] is `false`.
#![allow(unsafe_code)] // the one place in the workspace that implements GlobalAlloc

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static INSTALLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised Cells: accessing them never allocates, which makes
    // them safe to touch from inside the global allocator, and u64 has no
    // destructor so no TLS dtor registration happens either.
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    let bytes = size as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    // try_with: during thread teardown the TLS slot is gone; global totals
    // above still see the event.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_BYTES.try_with(|c| c.set(c.get() + bytes));
}

/// Instrumented [`GlobalAlloc`] delegating to [`System`].
///
/// See the [module docs](self) for the install snippet and what it records.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new wrapper (const so it can initialise a `#[global_allocator]`
    /// static).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: delegates every allocation verbatim to `System`, which upholds the
// GlobalAlloc contract; the bookkeeping around the delegation only touches
// atomics and const-initialised thread-locals, neither of which can allocate
// or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new > old {
                let grow = new - old;
                TOTAL_BYTES.fetch_add(grow, Ordering::Relaxed);
                let live = LIVE_BYTES.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
                let _ = TL_BYTES.try_with(|c| c.set(c.get() + grow));
            } else {
                LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
            }
            // Every successful realloc is one allocation event for the
            // calling thread, moved or grown in place or shrunk: a scope
            // that must see zero allocations sees none of them either.
            let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        p
    }
}

/// Whether a [`CountingAlloc`] is installed in this binary (detected on the
/// first counted allocation, which in practice happens before `main`).
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Point-in-time copy of the process-wide allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total successful allocations (`alloc` + `alloc_zeroed`).
    pub allocs: u64,
    /// Cumulative bytes ever allocated (realloc growth included).
    pub total_bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

/// Snapshots the process-wide allocator counters (all zero when no
/// [`CountingAlloc`] is installed).
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        total_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Allocation delta observed by an [`AllocScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Allocations performed by this thread inside the scope.
    pub allocs: u64,
    /// Bytes allocated by this thread inside the scope (realloc growth
    /// included, frees not subtracted — this measures allocator *pressure*).
    pub bytes: u64,
}

/// RAII marker measuring this thread's allocations over a region.
///
/// Construction snapshots the thread-local counters; [`AllocScope::delta`]
/// reports what accumulated since. Scopes nest naturally — an outer scope's
/// delta includes every inner scope's, because the underlying counters are
/// monotonic. With no [`CountingAlloc`] installed all deltas are zero.
///
/// Only allocations made *by the constructing thread* are attributed; work
/// fanned out to other threads shows up in the process-wide [`stats`]
/// instead.
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start_allocs: u64,
    start_bytes: u64,
}

impl AllocScope {
    /// Opens a scope at the current thread-local counter values.
    pub fn begin() -> Self {
        AllocScope {
            start_allocs: TL_ALLOCS.try_with(Cell::get).unwrap_or(0),
            start_bytes: TL_BYTES.try_with(Cell::get).unwrap_or(0),
        }
    }

    /// Allocations and bytes this thread accumulated since [`begin`](Self::begin).
    pub fn delta(&self) -> AllocDelta {
        AllocDelta {
            allocs: TL_ALLOCS
                .try_with(Cell::get)
                .unwrap_or(0)
                .saturating_sub(self.start_allocs),
            bytes: TL_BYTES
                .try_with(Cell::get)
                .unwrap_or(0)
                .saturating_sub(self.start_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_allocator_reports_zero_deltas() {
        // The unit-test binary does not install CountingAlloc, so scopes and
        // stats must read as inert. (Installed-path behaviour is covered by
        // the `alloc_steadystate` integration suite, which has its own
        // binary with the allocator installed.)
        let scope = AllocScope::begin();
        let _v: Vec<u8> = Vec::with_capacity(4096);
        assert_eq!(scope.delta(), AllocDelta::default());
        assert!(!installed());
        assert_eq!(stats().allocs, 0);
    }
}
