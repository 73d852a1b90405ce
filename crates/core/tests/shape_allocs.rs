//! The adorned shape is a handful of flat arrays: one record per type,
//! one name arena, one child index. So cloning a shape (each structural
//! write does, at its next snapshot publication) makes the same number
//! of heap allocations whatever its type count, and a chain of types
//! costs memory linear in its depth — no type holds its root path. A
//! persisted shape decodes into the same arrays, in allocations that do
//! not grow per row and bytes that do not outgrow its blob.

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

/// A blob decodes into the shape's flat arrays, which grow by doubling:
/// a hundred times the rows costs a few more allocations, not one or
/// more per row.
#[test]
fn a_blob_decodes_without_an_allocation_per_row() {
    let small = wide_shape(50).to_bytes();
    let big = wide_shape(5_000).to_bytes();
    let (shape, (small_allocs, _)) = allocations(|| AdornedShape::from_bytes(&small).unwrap());
    assert_eq!(shape.types().len(), 101);
    let (shape, (big_allocs, _)) = allocations(|| AdornedShape::from_bytes(&big).unwrap());
    assert_eq!(shape.types().len(), 10_001);
    assert!(
        big_allocs <= small_allocs + 50,
        "{big_allocs} allocations for 10,001 rows, {small_allocs} for 101"
    );
}

/// A count or row length is never trusted before its bytes are read,
/// so a torn blob claiming 4 Gi rows, or a 4 GiB row, allocates in
/// proportion to the bytes it holds.
#[test]
fn a_torn_length_allocates_nothing_past_its_bytes() {
    let mut blob = wide_shape(500).to_bytes();
    blob[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let (shape, (_, bytes)) = allocations(|| AdornedShape::from_bytes(&blob));
    assert!(shape.is_none());
    assert!(
        bytes <= 16 * blob.len() as u64,
        "{bytes} B from a {} B blob",
        blob.len()
    );
    blob.extend_from_slice(&u32::MAX.to_le_bytes());
    blob.extend_from_slice(&[0; 64]);
    let (shape, (_, bytes)) = allocations(|| AdornedShape::from_bytes(&blob));
    assert!(shape.is_none());
    assert!(
        bytes <= 16 * blob.len() as u64,
        "{bytes} B from a {} B blob",
        blob.len()
    );
}
