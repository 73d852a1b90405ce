//! # xmorph-core
//!
//! A full reproduction of **XMorph 2.0**, the shape-polymorphic XML
//! transformation language of *Querying XML Data: As You Shape It*
//! (Dyreson & Bhowmick, ICDE 2012).
//!
//! XMorph lets a query carry a *query guard*: a declarative description of
//! the shape the query needs. Evaluating the guard (1) transforms the
//! source data into that shape — whatever shape the source happens to have
//! — and (2) statically classifies whether the transformation potentially
//! loses or manufactures information, *before* touching the data.
//!
//! The crate mirrors the paper's architecture (Fig. 8):
//!
//! * [`model`] — the formal data model (§IV): root-path types, adorned
//!   shapes with cardinalities, the closest graph and `typeDistance`.
//! * [`lang`] — lexer, AST, and parser for the XMorph 2.0 surface syntax
//!   (§III): `MORPH`, `MUTATE`, `DROP`, `TRANSLATE`, `RESTRICT`, `NEW`,
//!   `CLONE`, `CHILDREN`/`[*]`, `DESCENDANTS`/`[**]`, `COMPOSE`/`|`, and
//!   the `CAST-*` / `TYPE-FILL` type-enforcement wrappers.
//! * [`algebra`] — the operator algebra programs compile to (§VIII).
//! * [`semantics`] — the denotational shape-to-shape semantics ξ (§VI).
//! * [`analysis`] — path cardinalities, the predicted adorned shape, and
//!   the information-loss theorems (§V): inclusive / non-additive checks
//!   and the narrowing/widening/strong/weak guard classification.
//! * [`store`] — the shredder and shredded document tables (`Nodes`,
//!   `TypeToSequence`, `AdornedShapes`) over `xmorph-pagestore`, plus the
//!   exact data-backed `typeDistance`.
//! * [`render`] — the Render algorithm (§VII): Dewey-prefix closest joins,
//!   streaming document-order output.
//! * [`guard`] — the high-level [`Guard`] API tying it all together.
//! * [`engine`] — the unified [`Engine`]/[`Session`] query surface the
//!   serving layer, the CLI, and the benchmarks all go through:
//!   [`QueryRequest::builder`] in, [`QueryResponse`] (XML + typing +
//!   per-query stats) out.
//!
//! ## Quickstart
//!
//! ```
//! use xmorph_core::{Engine, QueryRequest};
//!
//! // The paper's Figure 1(a): book-rooted data.
//! let data = "<data>\
//!   <book><title>X</title><author><name>Tim</name></author></book>\
//!   <book><title>Y</title><author><name>Tim</name></author></book>\
//! </data>";
//!
//! // One engine per open store; a query asking for author-rooted data.
//! let engine = Engine::from_xml(data).unwrap();
//! let req = QueryRequest::builder("MORPH author [ name book [ title ] ]").build();
//! let out = engine.query(&req).unwrap();
//! assert!(out.xml.contains("<name>Tim</name>"));
//! ```
//!
//! [`Guard`] remains the single-document, parse-once building block
//! underneath ([`Guard::apply_to_str`] etc. still work); [`Engine`] is
//! the surface services should hold.

pub mod algebra;
pub mod analysis;
pub mod engine;
pub mod error;
pub mod guard;
pub mod infer;
pub mod lang;
pub mod model;
pub mod render;
pub mod report;
pub mod semantics;
pub mod store;

pub use engine::{
    Engine, Mutation, MutationOutcome, QueryRequest, QueryRequestBuilder, QueryResponse,
    QueryStats, Session,
};
pub use error::{MorphError, MorphResult};
pub use guard::{Guard, GuardAnalysis, GuardOutput};
pub use model::card::{Card, CardMax};
pub use model::shape::AdornedShape;
pub use model::types::{TypeId, TypeTable};
pub use report::{GuardTyping, LabelReport, LossReport};
pub use semantics::parallel::{render_parallel, render_parallel_snapshot, ParallelOptions};
pub use store::mutate::MaintenanceStats;
// Re-exported because [`Mutation`] addresses vertices by Dewey number.
pub use store::shredded::{
    ColumnBytes, OpenOptions, ShredOptions, ShreddedDoc, Snapshot, TypeColumn,
};
pub use xmorph_xml::dewey::Dewey;

#[doc(hidden)]
pub use store::colseg::testing as colseg_testing;
