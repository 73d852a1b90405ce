//! The high-level query-guard API.
//!
//! A [`Guard`] is parsed once and reused across documents and queries —
//! "the same guard will be reused for many queries" (§I). Evaluating it
//! against a document runs the full pipeline of the paper's Fig. 8:
//! parse → algebra → type analysis (label report) → information-loss
//! check → shape generation → render.

use crate::algebra::{lower, optimize, Op};
use crate::analysis::analyze_loss;
use crate::error::{MorphError, MorphResult};
use crate::lang::ast::{Ast, CastMode};
use crate::lang::parse;
use crate::model::shape::AdornedShape;
use crate::model::types::TypeId;
use crate::render::{render_snapshot, RenderOptions};
use crate::report::{GuardTyping, LabelReport, LossReport};
use crate::semantics::eval::{eval_guard, DistOracle, EvalCtx};
use crate::semantics::shape::Shape;
use crate::store::shredded::{ShreddedDoc, Snapshot};
use xmorph_pagestore::Store;

/// A parsed, reusable query guard.
#[derive(Debug, Clone)]
pub struct Guard {
    source: String,
    ast: Ast,
    op: Op,
}

/// Everything the guard's *compile* phase produces — the paper stresses
/// this phase is cheap relative to rendering (§IX, Fig. 10).
#[derive(Debug, Clone)]
pub struct GuardAnalysis {
    /// The generated target shape (with predicted cardinalities).
    pub target: Shape,
    /// The label-to-type report.
    pub labels: LabelReport,
    /// The information-loss report, with the typing class.
    pub loss: LossReport,
    /// Which typing classes the guard's CAST wrappers admit.
    pub allowed: AllowedTypings,
}

impl GuardAnalysis {
    /// Would enforcement let this guard transform the data?
    pub fn permitted(&self) -> bool {
        self.allowed.permits(self.loss.typing)
    }

    /// Enforce the typing discipline: error unless permitted.
    pub(crate) fn enforce(&self) -> MorphResult<()> {
        if self.permitted() {
            Ok(())
        } else {
            Err(MorphError::Rejected {
                typing: self.loss.typing,
                allowed: self.allowed.describe(),
            })
        }
    }
}

/// The set of typing classes admitted by the guard's cast wrappers.
/// Strongly-typed guards are always admitted (§III: "By default only
/// strongly-typed guards are allowed").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllowedTypings {
    /// `CAST-NARROWING` present.
    pub narrowing: bool,
    /// `CAST-WIDENING` present.
    pub widening: bool,
    /// `CAST` present (weakly-typed allowed).
    pub weak: bool,
}

impl AllowedTypings {
    /// Does this admit the given class?
    pub fn permits(&self, typing: GuardTyping) -> bool {
        match typing {
            GuardTyping::Strong => true,
            GuardTyping::Narrowing => self.narrowing || self.weak,
            GuardTyping::Widening => self.widening || self.weak,
            GuardTyping::Weak => self.weak,
        }
    }

    fn describe(&self) -> &'static str {
        match (self.weak, self.narrowing, self.widening) {
            (true, _, _) => "any",
            (false, true, true) => "strongly-typed, narrowing, or widening",
            (false, true, false) => "strongly-typed or narrowing",
            (false, false, true) => "strongly-typed or widening",
            (false, false, false) => "strongly-typed",
        }
    }
}

/// The result of applying a guard: the transformed XML plus the analysis.
#[derive(Debug, Clone)]
pub struct GuardOutput {
    /// The rendered, transformed document.
    pub xml: String,
    /// The compile-phase analysis.
    pub analysis: GuardAnalysis,
}

fn collect_casts(op: &Op, allowed: &mut AllowedTypings) {
    match op {
        Op::Cast(CastMode::Weak, inner) => {
            allowed.weak = true;
            collect_casts(inner, allowed);
        }
        Op::Cast(CastMode::Narrowing, inner) => {
            allowed.narrowing = true;
            collect_casts(inner, allowed);
        }
        Op::Cast(CastMode::Widening, inner) => {
            allowed.widening = true;
            collect_casts(inner, allowed);
        }
        Op::TypeFill(inner) => collect_casts(inner, allowed),
        Op::Compose(a, b) => {
            collect_casts(a, allowed);
            collect_casts(b, allowed);
        }
        _ => {}
    }
}

impl Guard {
    /// Parse a guard program.
    pub fn parse(text: &str) -> MorphResult<Guard> {
        let ast = parse(text)?;
        let op = optimize(lower(&ast));
        Ok(Guard {
            source: text.to_string(),
            ast,
            op,
        })
    }

    /// The original program text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed AST.
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The lowered algebra.
    pub fn algebra(&self) -> &Op {
        &self.op
    }

    /// Which typing classes the guard's casts admit.
    pub fn allowed(&self) -> AllowedTypings {
        let mut allowed = AllowedTypings::default();
        collect_casts(&self.op, &mut allowed);
        allowed
    }

    /// Run the compile phase against a shredded document: evaluate ξ,
    /// produce both reports, but do not render. This is the cheap "is
    /// the data already in shape / can it be transformed safely?" check
    /// a query evaluator runs before each query. Reads the document
    /// through its current [`Snapshot`].
    pub fn analyze(&self, doc: &ShreddedDoc) -> MorphResult<GuardAnalysis> {
        self.analyze_snapshot(&doc.snapshot())
    }

    /// [`Guard::analyze`] against a pinned [`Snapshot`]: the same
    /// compile phase, but evaluated on the snapshot's frozen shape and
    /// columns so analysis and the render that follows read one epoch.
    /// Always computes afresh; [`Snapshot::analysis`] is the memoised
    /// form the query engine uses.
    pub fn analyze_snapshot(&self, snap: &Snapshot) -> MorphResult<GuardAnalysis> {
        self.analyze_with(snap.shape(), &Shape::from_adorned(snap.shape()), snap)
    }

    /// The compile phase proper: ξ over `src` (the source shape built
    /// from `adorned`) with `oracle` answering data distances, then the
    /// loss analysis against `adorned`'s instance counts.
    pub(crate) fn analyze_with(
        &self,
        adorned: &AdornedShape,
        src: &Shape,
        oracle: &dyn DistOracle,
    ) -> MorphResult<GuardAnalysis> {
        let mut ctx = EvalCtx::new(oracle);
        let target = eval_guard(&self.op, src, &mut ctx)?;
        let loss = analyze_loss(src, &target, |s| adorned.instance_count(TypeId(s as u32)));
        Ok(GuardAnalysis {
            target,
            labels: ctx.labels,
            loss,
            allowed: self.allowed(),
        })
    }

    /// Analyze, enforce the typing discipline, and render.
    pub fn apply(&self, doc: &ShreddedDoc) -> MorphResult<GuardOutput> {
        self.apply_with(doc, &RenderOptions::default())
    }

    /// [`Guard::apply`] with explicit render options.
    /// Analysis and render read one pinned [`Snapshot`].
    pub fn apply_with(&self, doc: &ShreddedDoc, opts: &RenderOptions) -> MorphResult<GuardOutput> {
        let snap = doc.snapshot();
        let analysis = self.analyze_snapshot(&snap)?;
        analysis.enforce()?;
        let xml = render_snapshot(&snap, &analysis.target, opts)?;
        Ok(GuardOutput { xml, analysis })
    }

    /// Convenience: shred `xml` into an ephemeral in-memory store and
    /// apply the guard.
    pub fn apply_to_str(&self, xml: &str) -> MorphResult<GuardOutput> {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml)?;
        self.apply(&doc)
    }

    /// Convenience: analyze against `xml` without rendering.
    pub fn analyze_str(&self, xml: &str) -> MorphResult<GuardAnalysis> {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml)?;
        self.analyze(&doc)
    }

    /// Measure the *actual* information loss of this guard on a concrete
    /// document (the paper's §X refinement of the four coarse loss
    /// kinds): per retained type, how many instances drop and how many
    /// duplicates are manufactured. Costs a full transformation.
    pub fn quantify(&self, doc: &ShreddedDoc) -> MorphResult<crate::analysis::QuantifiedLoss> {
        let analysis = self.analyze(doc)?;
        crate::analysis::quantify(doc, &analysis.target)
    }

    /// Does the data already have the requested shape? True when the
    /// guard's target shape is (a renaming-free copy of) a fragment of
    /// the source shape with identical parent/child edges — in that case
    /// a query could run on the source directly.
    pub fn data_already_in_shape(&self, doc: &ShreddedDoc) -> MorphResult<bool> {
        let snap = doc.snapshot();
        let src = Shape::from_adorned(snap.shape());
        let analysis = self.analyze_with(snap.shape(), &src, &*snap)?;
        Ok(shape_is_fragment(&analysis.target, &src))
    }
}

/// Is `target` structurally a fragment of `src` (every target edge is a
/// source edge between the same origins, names unchanged)?
fn shape_is_fragment(target: &Shape, src: &Shape) -> bool {
    target.preorder().into_iter().all(|n| {
        let node = &target.nodes[n];
        let Some(origin) = node.origin else {
            return false;
        };
        if node.name != src.nodes[origin].name || !node.filters.is_empty() {
            return false;
        }
        match node.parent {
            None => true,
            Some(p) => match target.nodes[p].origin {
                Some(po) => src.nodes[origin].parent == Some(po),
                None => false,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    const FIG1C: &str = "<data><author><name>Tim</name>\
        <book><title>X</title><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><publisher><name>V</name></publisher></book>\
        </author></data>";

    #[test]
    fn end_to_end_quickstart() {
        let guard = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
        let out = guard.apply_to_str(FIG1A).unwrap();
        assert!(out.xml.contains("<name>Tim</name>"));
        assert_eq!(out.analysis.loss.typing, GuardTyping::Strong);
    }

    #[test]
    fn default_enforcement_rejects_widening() {
        let guard = Guard::parse("MORPH author [ !title name publisher [ name ] ]").unwrap();
        let err = guard.apply_to_str(FIG1C).unwrap_err();
        match err {
            MorphError::Rejected { typing, .. } => assert_eq!(typing, GuardTyping::Widening),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cast_widening_admits_it() {
        let guard =
            Guard::parse("CAST-WIDENING MORPH author [ !title name publisher [ name ] ]").unwrap();
        let out = guard.apply_to_str(FIG1C).unwrap();
        assert_eq!(out.analysis.loss.typing, GuardTyping::Widening);
    }

    #[test]
    fn cast_weak_admits_everything() {
        let allowed = Guard::parse("CAST MORPH a").unwrap().allowed();
        assert!(allowed.permits(GuardTyping::Weak));
        assert!(allowed.permits(GuardTyping::Widening));
        assert!(allowed.permits(GuardTyping::Narrowing));
        assert!(allowed.permits(GuardTyping::Strong));
    }

    #[test]
    fn analysis_without_render() {
        let guard = Guard::parse("MORPH author [ name ]").unwrap();
        let analysis = guard.analyze_str(FIG1A).unwrap();
        assert_eq!(analysis.labels.resolutions.len(), 2);
        assert!(analysis.permitted());
    }

    #[test]
    fn mismatch_surfaces_as_error() {
        let guard = Guard::parse("MORPH nonexistent").unwrap();
        let err = guard.apply_to_str(FIG1A).unwrap_err();
        assert!(matches!(err, MorphError::TypeMismatch { .. }));
    }

    #[test]
    fn type_fill_rescues_mismatch() {
        let guard = Guard::parse("CAST TYPE-FILL MUTATE nonexistent [ author ]").unwrap();
        let out = guard.apply_to_str(FIG1A).unwrap();
        assert!(out.xml.contains("<nonexistent>"), "{}", out.xml);
    }

    #[test]
    fn data_already_in_shape_detection() {
        let guard = Guard::parse("MORPH book [ title ]").unwrap();
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        assert!(guard.data_already_in_shape(&doc).unwrap());
        // The author-rooted shape is NOT how FIG1A is arranged.
        let guard2 = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
        assert!(!guard2.data_already_in_shape(&doc).unwrap());
    }

    #[test]
    fn guard_reuse_across_instances() {
        // One guard, three differently-shaped sources, one result shape —
        // the paper's core pitch.
        let fig1b = "<data>\
            <publisher><name>W</name><book><title>X</title><author><name>Tim</name></author></book></publisher>\
            <publisher><name>V</name><book><title>Y</title><author><name>Tim</name></author></book></publisher>\
            </data>";
        let guard = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
        let a = guard.apply_to_str(FIG1A).unwrap().xml;
        let b = guard.apply_to_str(fig1b).unwrap().xml;
        let c = guard.apply_to_str(FIG1C).unwrap().xml;
        assert_eq!(a, b);
        // (c) groups the two books under one author element (the
        // grouping is in the source data) — same data, different
        // grouping, exactly as Fig. 2 describes.
        assert_eq!(c.matches("<author>").count(), 1);
        assert_eq!(c.matches("<title>").count(), 2);
        assert_eq!(a.matches("<author>").count(), 2);
    }

    #[test]
    fn rejected_error_is_explanatory() {
        let guard = Guard::parse("MORPH author [ !title name publisher [ name ] ]").unwrap();
        let err = guard.apply_to_str(FIG1C).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("widening"), "{msg}");
        assert!(msg.contains("CAST"), "{msg}");
    }
}
