//! Rendering a transformed shape to XML (§VII, Fig. 7).
//!
//! The target shape is walked top-down; at each shape edge the *closest
//! join* pairs a parent instance with the source instances of the child's
//! type that are closest to it. Because a type's instances all share one
//! Dewey depth, the join is a single prefix scan (see
//! [`crate::store::shredded::Snapshot::closest_children`]); output is
//! produced in document order and streamed. The read cost is linear in
//! the size of the output; the write cost is quadratic in the worst case
//! because snippets of source data may be duplicated — both exactly as
//! the paper states.

pub mod renderer;
pub mod xquery_view;

pub use renderer::{render, render_snapshot, render_to_writer, RenderOptions};
pub use xquery_view::{guard_to_xquery_view, ViewError};
