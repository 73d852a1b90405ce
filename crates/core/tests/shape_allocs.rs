//! The adorned shape is a handful of flat arrays: one record per type,
//! one name arena, one child index. So cloning a shape (each structural
//! write does, at its next snapshot publication) makes the same number
//! of heap allocations whatever its type count, and a chain of types
//! costs memory linear in its depth — no type holds its root path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xmorph_core::model::shape::ShapeBuilder;
use xmorph_core::AdornedShape;
use xmorph_datagen::XmarkConfig;
use xmorph_xml::dom::Document;

thread_local! {
    /// Allocations (fresh or resized) made by this thread, and the
    /// bytes they asked for.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| {
        let (allocs, total) = n.get();
        n.set((allocs + 1, total + bytes as u64));
    });
}

/// `System`, counting every allocation and reallocation per thread, so
/// tests running beside this one do not disturb its counts.
struct Counting;

// SAFETY: delegates to `System`, only bumping a thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` that `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

/// One root with `width` distinct children, each with one child.
fn wide_shape(width: usize) -> AdornedShape {
    let mut b = ShapeBuilder::default();
    b.open("root");
    for i in 0..width {
        b.open(&format!("c{i}"));
        b.open("leaf");
        b.close();
        b.close();
    }
    b.close();
    b.finish()
}

#[test]
fn a_shape_clones_in_allocations_independent_of_its_type_count() {
    let xml = XmarkConfig::with_factor(0.2).generate();
    let xmark = AdornedShape::from_document(&Document::parse_str(&xml).unwrap());
    let wide = wide_shape(5_000);
    assert!(wide.types().len() > 10 * xmark.types().len());
    let (copy, (xmark_allocs, _)) = allocations(|| xmark.clone());
    assert_eq!(copy.to_bytes(), xmark.to_bytes());
    let (_, (wide_allocs, _)) = allocations(|| wide.clone());
    assert_eq!(xmark_allocs, wide_allocs);
    assert!(xmark_allocs <= 8, "{xmark_allocs} allocations per clone");
}

/// A chain `depth` elements deep, built through the streaming builder.
fn chain(depth: usize) -> AdornedShape {
    let mut b = ShapeBuilder::default();
    for _ in 0..depth {
        b.open("a");
    }
    for _ in 0..depth {
        b.close();
    }
    b.finish()
}

#[test]
fn a_deep_chain_costs_memory_linear_in_its_depth() {
    let (shallow, (_, shallow_bytes)) = allocations(|| chain(2_000));
    let (deep, (_, deep_bytes)) = allocations(|| chain(4_000));
    assert_eq!(shallow.types().len(), 2_000);
    assert_eq!(deep.types().len(), 4_000);
    let ratio = deep_bytes as f64 / shallow_bytes as f64;
    assert!(
        ratio <= 2.5,
        "{deep_bytes} B at depth 4000 vs {shallow_bytes} B at 2000: {ratio:.2}x"
    );
    let deepest = chain(8_000);
    let leaf = deepest.type_ids().last().unwrap();
    assert_eq!(deepest.types().depth(leaf), 7_999);
}
