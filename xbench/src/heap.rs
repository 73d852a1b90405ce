//! A heap meter that can be switched off. `load.stream` reports the
//! shredder's peak heap against its memory budget, which needs a
//! counting allocator; but counters every thread updates on every
//! allocation cost the two-connection phase of `serve.point` 3.3 times
//! its throughput when measured, so the meter counts only between
//! [`start`] and [`stop`], and only `load.stream`'s traced run, where
//! one thread allocates, calls them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

// Statistics only: none of these publishes other data.
static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

pub struct Meter;

fn count(delta: isize) {
    if ON.load(Relaxed) {
        let now = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call is passed to `System` unchanged; the counters
// never influence what is allocated or freed.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Start counting from zero: the peak is the growth over what was live
/// at this call, and memory freed that was allocated before it counts
/// below zero, never above.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting; the most the heap grew since [`start`], in bytes.
pub fn stop() -> usize {
    ON.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as usize
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_is_growth_since_start_and_off_means_uncounted() {
        // Other tests allocate on other threads while this one counts,
        // so only a lower bound on the peak is exact.
        let before = vec![1u8; 1 << 20];
        super::start();
        let held = vec![2u8; 3 << 20];
        drop(std::hint::black_box(held));
        drop(std::hint::black_box(before));
        let peak = super::stop();
        assert!(peak >= 3 << 20, "peak {peak}");
        let uncounted = vec![3u8; 64 << 20];
        drop(std::hint::black_box(uncounted));
        assert!(super::stop() < 64 << 20);
    }
}
