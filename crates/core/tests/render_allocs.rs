//! The render loop allocates nothing per row: rows are borrowed column
//! slices, names are borrowed from the target shape, joins are
//! addressed by target node, and one output buffer grows in place. So
//! once a snapshot is warm (columns resolved, analysis cached), a
//! document twice as large renders with the same number of heap
//! allocations, give or take the output buffer's own growth. Counts
//! both the sequential driver ([`render_snapshot`]) and the slice
//! renderer the engine's query path runs ([`render_parallel_snapshot`]
//! on one thread), and checks the output against the B+tree oracle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xmorph_core::render::{render_snapshot, RenderOptions};
use xmorph_core::{
    render_parallel_snapshot, Engine, Guard, ParallelOptions, ShredOptions, Snapshot,
};
use xmorph_datagen::XmarkConfig;
use xmorph_pagestore::Store;

thread_local! {
    /// Allocations (fresh or resized) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, counting every allocation and reallocation per thread, so
/// tests running beside this one do not disturb its counts.
struct Counting;

// SAFETY: delegates to `System`, only bumping a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What a warm render of `MUTATE site` costs on an XMark document of
/// `factor`, by both drivers, and the output of the sequential one.
struct Run {
    sequential: u64,
    slice: u64,
    xml: String,
    oracle: String,
}

fn run(factor: f64) -> Run {
    let xml = XmarkConfig::with_factor(factor).generate();
    let engine = Engine::shred(Store::in_memory(), &xml, &ShredOptions::default()).unwrap();
    let snap = engine.snapshot();
    let analysis = snap
        .analysis(&Guard::parse("MUTATE site").unwrap())
        .unwrap();
    let target = &analysis.target;
    let opts = RenderOptions::default();
    let popts = ParallelOptions {
        threads: 1,
        render: opts.clone(),
    };
    let render = |snap: &Snapshot| render_snapshot(snap, target, &opts).unwrap();
    let render_slice = |snap: &Snapshot| render_parallel_snapshot(snap, target, &popts).unwrap();
    // Warm: resolve every column and join plan the render touches.
    let warm = render(&snap);
    assert_eq!(render_slice(&snap), warm);
    let (xml, sequential) = allocations(|| render(&snap));
    let (sliced, slice) = allocations(|| render_slice(&snap));
    assert_eq!(sliced, xml);
    let oracle = render_snapshot(
        &snap,
        target,
        &RenderOptions {
            pipelined: false,
            ..RenderOptions::default()
        },
    )
    .unwrap();
    Run {
        sequential,
        slice,
        xml,
        oracle,
    }
}

#[test]
fn render_allocations_do_not_grow_with_the_document() {
    let small = run(0.02);
    let large = run(0.04);
    let elements = large.xml.matches('<').count() - small.xml.matches('<').count();
    assert!(elements > 1000, "the larger document adds {elements} tags");
    // Only the output buffer's growth may scale, and it doubles. The
    // rest is per edge of the target shape (a cursor's first group),
    // and the larger document's shape has about 50 more types; one
    // allocation per row would add thousands.
    for (driver, s, l) in [
        ("sequential", small.sequential, large.sequential),
        ("slice", small.slice, large.slice),
    ] {
        assert!(
            l <= s + 64,
            "{driver} render: {s} allocations at factor 0.02, {l} at 0.04 \
             ({elements} more tags)"
        );
    }
    assert_eq!(small.xml, small.oracle);
    assert_eq!(large.xml, large.oracle);
}
