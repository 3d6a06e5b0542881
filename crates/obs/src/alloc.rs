//! Instrumented global allocator: process-wide heap telemetry with
//! per-region attribution.
//!
//! PR 4's `ActivationPool` fix for the >32 MiB glibc mmap pathology was
//! found by *manual* diagnosis; this module makes allocator behaviour a
//! first-class observable so the next pathology — and the "zero
//! steady-state allocation" contract of the planned arena executor — can be
//! watched and regression-gated.
//!
//! * [`CountingAlloc`] — a zero-dependency [`GlobalAlloc`] wrapper around
//!   the system allocator. Installing it is opt-in per binary:
//!
//!   ```ignore
//!   #[global_allocator]
//!   static ALLOC: dronet_obs::CountingAlloc = dronet_obs::CountingAlloc::new();
//!   ```
//!
//!   It maintains atomic alloc/dealloc/realloc counts, live and peak bytes,
//!   a power-of-two size-class histogram and a counter for allocations at or
//!   above the 32 MiB glibc dynamic mmap threshold (each of those is a
//!   fresh `mmap`/page-fault storm — exactly the pathology the
//!   `ActivationPool` exists to prevent).
//! * [`AllocScope`] — an RAII region marker that snapshots the *current
//!   thread's* allocation counters at construction and reports the delta,
//!   used by `nn::profile` for per-layer allocs/bytes-per-forward and by
//!   the detector stage spans. Scopes nest: each sees its own deltas plus
//!   those of any inner scope, because the counters are monotonic.
//! * [`stats`] / [`stats_json`] — process-wide totals, the `alloc` member
//!   of the server's `/debug/vars`.
//!
//! When no `CountingAlloc` is installed every query returns zeros and
//! [`installed`] is `false`, so instrumented call sites can stay
//! unconditional: the disabled cost is one relaxed atomic load.
#![allow(unsafe_code)] // the one place in the workspace that implements GlobalAlloc

use crate::json::{to_json, JsonWriter, ToJson};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of power-of-two size classes tracked by the allocator histogram.
///
/// Class `i` counts allocations with `size <= 2^i` bytes (and larger than
/// `2^(i-1)`); the last class is an overflow bucket for anything bigger.
pub const SIZE_CLASS_COUNT: usize = 33;

/// Allocation size at which glibc's dynamic mmap threshold tops out: requests
/// at or above this come from fresh `mmap` regions that are unmapped on free,
/// so every allocation pays a page-fault storm on first touch.
pub const MMAP_THRESHOLD_BYTES: usize = 32 * 1024 * 1024;

static INSTALLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SIZE_CLASSES: [AtomicU64; SIZE_CLASS_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)] // template for array init
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; SIZE_CLASS_COUNT]
};

thread_local! {
    // Const-initialised Cells: accessing them never allocates, which makes
    // them safe to touch from inside the global allocator, and u64 has no
    // destructor so no TLS dtor registration happens either.
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Size class index for an allocation of `size` bytes.
pub fn size_class(size: usize) -> usize {
    if size <= 1 {
        return 0;
    }
    let class = (usize::BITS - (size - 1).leading_zeros()) as usize;
    class.min(SIZE_CLASS_COUNT - 1)
}

fn note_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    let bytes = size as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    SIZE_CLASSES[size_class(size)].fetch_add(1, Ordering::Relaxed);
    if size >= MMAP_THRESHOLD_BYTES {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    // try_with: during thread teardown the TLS slot is gone; global totals
    // above still see the event.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = TL_BYTES.try_with(|c| c.set(c.get() + bytes));
}

fn note_dealloc(size: usize) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
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
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
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
            if new_size >= MMAP_THRESHOLD_BYTES && layout.size() < MMAP_THRESHOLD_BYTES {
                LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            // A realloc that moved is an allocation event for attribution.
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
    /// Total deallocations.
    pub deallocs: u64,
    /// Total reallocations.
    pub reallocs: u64,
    /// Cumulative bytes ever allocated (realloc growth included).
    pub total_bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Allocations at or above [`MMAP_THRESHOLD_BYTES`].
    pub large_allocs: u64,
    /// Allocation counts per power-of-two size class; class `i` holds
    /// allocations of `2^(i-1) < size <= 2^i` bytes.
    pub size_classes: [u64; SIZE_CLASS_COUNT],
}

/// Snapshots the process-wide allocator counters (all zero when no
/// [`CountingAlloc`] is installed).
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        reallocs: REALLOCS.load(Ordering::Relaxed),
        total_bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        large_allocs: LARGE_ALLOCS.load(Ordering::Relaxed),
        size_classes: std::array::from_fn(|i| SIZE_CLASSES[i].load(Ordering::Relaxed)),
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

impl Default for AllocScope {
    fn default() -> Self {
        Self::begin()
    }
}

/// [`stats`] as a JSON object, with `installed` as a 0/1 flag.
pub fn stats_json() -> String {
    JsonWriter::render(|w| stats().write_json(w))
}

// The counters plus the process-wide `installed` flag, which is what makes
// an all-zero snapshot readable.
to_json!(AllocStats => |s, w| crate::json_object!(w, "installed" => installed(),
    "allocs" => s.allocs, "deallocs" => s.deallocs, "reallocs" => s.reallocs,
    "total_bytes" => s.total_bytes, "live_bytes" => s.live_bytes, "peak_bytes" => s.peak_bytes,
    "large_allocs" => s.large_allocs, "size_classes" => &s.size_classes[..]));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_is_monotone_and_bounded() {
        let mut prev = 0usize;
        for size in [0usize, 1, 2, 3, 4, 1023, 1024, 1025, 1 << 20, usize::MAX] {
            let c = size_class(size);
            assert!(c >= prev, "class not monotone at {size}");
            assert!(c < SIZE_CLASS_COUNT);
            prev = c;
        }
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(1025), 11);
    }

    #[test]
    fn uninstalled_allocator_reports_zero_deltas() {
        // The unit-test binary does not install CountingAlloc, so scopes and
        // stats must read as inert. (Installed-path behaviour is covered by
        // the `alloc_steadystate` integration suite, which has its own
        // binary with the allocator installed.)
        let scope = AllocScope::begin();
        let _v: Vec<u8> = Vec::with_capacity(4096);
        assert_eq!(scope.delta(), AllocDelta::default());
        let json = crate::JsonValue::parse(&stats_json()).unwrap();
        assert_eq!(json.get("installed").and_then(|v| v.as_u64()), Some(0));
    }
}
