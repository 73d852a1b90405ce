//! The denotational shape-to-shape semantics ξ of §VI.
//!
//! *"The single most important thing to understand about a query guard is
//! that it specifies a shape"* — each guard construct is a function from
//! shapes to shapes. [`shape::Shape`] is the semantic domain: a forest of
//! semantic types, each remembering the source type it selects data from,
//! adorned with *predicted* cardinalities (Def. 7). [`eval`] interprets
//! algebra trees over it; rendering the resulting shape to XML is a
//! separate, later step (§VII), exactly as the paper's
//! `Ψ[[P]](G,S) = render(G, ξ[[P]](S))` prescribes.

pub mod eval;
pub mod parallel;
pub mod shape;

pub use eval::{eval_guard, DistOracle, EvalCtx, GuideOracle};
pub use parallel::{render_parallel, ParallelOptions};
pub use shape::{SId, Shape, ShapeNode};
