//! The Render algorithm.
//!
//! Implements §VII's efficient strategy: closest joins are *pipelined
//! sort-merge* joins. Every type's instances are stored sorted in
//! document order, parents are visited in document order, so each target
//! edge keeps one monotone cursor ([`ClosestCursor`]) over the child
//! type's sequence — the whole transformation is a single pass over the
//! source lists, producing output in document order, streaming node by
//! node.
//!
//! The root level goes one step further: before any instance renders,
//! every direct source-backed edge of the root (element children,
//! attribute children, and RESTRICT filters) is resolved for the *whole*
//! root slice in one batched gallop pass over its child column
//! ([`Snapshot::closest_group_batch`]), so per-instance guard
//! evaluation and child joins at the top level become plain indexed
//! lookups into the precomputed groups. The parallel driver
//! ([`crate::semantics::parallel`]) gets this per partition: each
//! column-range slice builds its own batch. Deeper edges keep their
//! monotone cursors; output is byte-identical either way.

use crate::error::MorphResult;
use crate::model::types::TypeId;
use crate::semantics::shape::{SId, Shape};
use crate::store::shredded::{ClosestCursor, ShreddedDoc, Snapshot, TypeColumn};
use std::ops::Range;
use std::sync::Arc;
use xmorph_xml::dewey::Dewey;
use xmorph_xml::writer::StreamWriter;

/// Options controlling rendering.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Name of the synthetic document element wrapping the output
    /// (`None` emits the instance stream bare — only well-formed when
    /// exactly one instance renders).
    pub wrapper: Option<String>,
    /// Tag every rendered element with a `data-src` attribute holding
    /// its source Dewey number. Used by the theorem-validation tests to
    /// map output vertices back to source vertices.
    pub tag_source: bool,
    /// Use the pipelined sort-merge closest joins of §VII (default).
    /// `false` falls back to one B+tree prefix probe per parent — the
    /// naive strategy the paper's sort-merge remark improves on; kept
    /// for the ablation benchmark and cross-checking.
    pub pipelined: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            wrapper: Some("result".to_string()),
            tag_source: false,
            pipelined: true,
        }
    }
}

/// Where a rendered element anchors its closest joins: the nearest
/// enclosing *source-backed* instance, as its column row's Dewey
/// components.
#[derive(Clone, Copy)]
struct Anchor<'d> {
    row: &'d [u32],
    type_id: TypeId,
}

/// Render the target shape against a shredded document. Pins a
/// [`Snapshot`] for the duration, so the whole pass reads one epoch
/// even if a writer publishes new column versions mid-render.
pub fn render(doc: &ShreddedDoc, target: &Shape, opts: &RenderOptions) -> MorphResult<String> {
    render_snapshot(&doc.snapshot(), target, opts)
}

/// [`render`] against an explicitly pinned snapshot — the form the
/// engine's query path uses so one `QueryRequest` reads one epoch
/// across analysis and rendering.
pub fn render_snapshot(
    snap: &Snapshot,
    target: &Shape,
    opts: &RenderOptions,
) -> MorphResult<String> {
    let mut out = String::new();
    render_with(snap, target, opts, |chunk| {
        out.push_str(chunk);
        Ok(())
    })?;
    Ok(out)
}

/// Streaming render into an [`std::io::Write`] sink — the paper's §VIII
/// mitigation: "stream the transformed data into a streaming XQuery
/// evaluation engine". Output leaves the process in document order,
/// flushed after every root instance, so peak memory is one instance
/// subtree rather than the whole result.
pub fn render_to_writer(
    doc: &ShreddedDoc,
    target: &Shape,
    opts: &RenderOptions,
    sink: &mut dyn std::io::Write,
) -> MorphResult<()> {
    render_with(&doc.snapshot(), target, opts, |chunk| {
        sink.write_all(chunk.as_bytes())
            .map_err(|_| crate::error::MorphError::Internal("sink write failed"))
    })
}

/// Core render loop: emits chunks (one per root instance, plus the
/// wrapper tags) to `emit`.
fn render_with(
    doc: &Snapshot,
    target: &Shape,
    opts: &RenderOptions,
    mut emit: impl FnMut(&str) -> MorphResult<()>,
) -> MorphResult<()> {
    let mut renderer = Renderer::new(doc, target, opts, None);
    // One buffer serves every root instance: each is handed to `emit`
    // borrowed and the buffer cleared, keeping its capacity.
    let mut w = StreamWriter::with_capacity(4096);
    if let Some(wrapper) = &opts.wrapper {
        w.start(wrapper);
    }
    for &root in &target.roots {
        renderer.render_root_streaming(root, &mut w, &mut emit)?;
    }
    if opts.wrapper.is_some() {
        w.end();
    }
    emit(&w.finish())?;
    Ok(())
}

/// Render a contiguous run of one source-backed root's instances,
/// producing exactly the bytes the sequential renderer emits for those
/// instances (no wrapper). This is the unit of work of the parallel
/// driver in [`crate::semantics::parallel`]: the instance sequence of a
/// root type is split at group boundaries and each slice renders
/// independently against the same shredded document, so concatenating
/// the slices in order reproduces the sequential output byte for byte.
/// The slice is appended to `out`; on error `out` is left unspecified.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_root_slice(
    doc: &Snapshot,
    target: &Shape,
    opts: &RenderOptions,
    root: SId,
    root_type: TypeId,
    col: &TypeColumn,
    rows: Range<usize>,
    out: &mut String,
) -> MorphResult<()> {
    let batch = opts
        .pipelined
        .then(|| RootBatch::build(doc, target, root, root_type, col, rows.clone()));
    let mut renderer = Renderer::new(doc, target, opts, batch);
    // Every instance renders balanced, so the rows share one buffer,
    // the caller's, which grows in place: a large result is never
    // copied from a per-instance buffer into the output.
    let mut w = StreamWriter::appending(std::mem::take(out));
    for i in rows {
        if let Some(b) = renderer.root_batch.as_mut() {
            b.current = i;
        }
        renderer.render_instance(root, col.components(i), root_type, col.text(i), &mut w)?;
    }
    *out = w.finish();
    Ok(())
}

/// Render a NEW (non-source-backed) root once, as the sequential
/// renderer does. NEW roots instantiate per document, not per group, so
/// the parallel driver runs them on a single thread.
pub(crate) fn render_root_plain(
    doc: &Snapshot,
    target: &Shape,
    opts: &RenderOptions,
    root: SId,
) -> MorphResult<String> {
    let mut renderer = Renderer::new(doc, target, opts, None);
    let mut w = StreamWriter::with_capacity(4096);
    renderer.render_new(root, None, &mut w)?;
    Ok(w.finish())
}

/// A resolved closest-join group. The pipelined path hands back a row
/// range into the (shared) child column — nothing is copied per parent;
/// the ablation path carries the owned pairs its B+tree probe built.
enum Joined {
    Columnar(Arc<TypeColumn>, Range<usize>),
    Owned(Vec<(Dewey, String)>),
}

impl Joined {
    fn len(&self) -> usize {
        match self {
            Joined::Columnar(_, r) => r.len(),
            Joined::Owned(v) => v.len(),
        }
    }

    fn row(&self, i: usize) -> &[u32] {
        match self {
            Joined::Columnar(c, r) => c.components(r.start + i),
            Joined::Owned(v) => v[i].0.components(),
        }
    }

    fn text(&self, i: usize) -> &str {
        match self {
            Joined::Columnar(c, r) => c.text(r.start + i),
            Joined::Owned(v) => &v[i].1,
        }
    }
}

/// The batched closest-join groups of one root slice: for every direct
/// source-backed edge of the root node (element children, attribute
/// children, and RESTRICT filters), the child column and one
/// precomputed row range per root instance in the slice — produced by a
/// single forward gallop pass per edge before rendering starts. Each
/// target node appears at exactly one place in the shape tree, so an
/// edge in `groups` is only ever joined against a root-instance anchor,
/// and `current` (maintained by the root loops) names which one.
struct RootBatch {
    root_type: TypeId,
    /// Row index of the first root instance in the slice.
    lo: usize,
    /// Row index of the instance currently rendering.
    current: usize,
    /// Per target node, indexed by [`SId`]: for a direct edge, the
    /// child column plus one group range per instance.
    #[allow(clippy::type_complexity)]
    groups: Vec<Option<(Arc<TypeColumn>, Vec<Range<usize>>)>>,
}

impl RootBatch {
    fn build(
        doc: &Snapshot,
        target: &Shape,
        root: SId,
        root_type: TypeId,
        col: &TypeColumn,
        rows: Range<usize>,
    ) -> RootBatch {
        let node = &target.nodes[root];
        let mut groups = vec![None; target.nodes.len()];
        for &c in node.children.iter().chain(node.filters.iter()) {
            if let Some(ct) = target.nodes[c].base {
                // Unrelated pairs stay absent: the per-instance paths
                // fall back to their cursor, which answers "no group"
                // the same way.
                groups[c] = doc.closest_group_batch(col, rows.clone(), root_type, ct);
            }
        }
        RootBatch {
            root_type,
            lo: rows.start,
            current: rows.start,
            groups,
        }
    }

    /// The precomputed group of edge `node` for the currently rendering
    /// instance, when `anchor` is that instance.
    fn group(&self, node: SId, anchor_type: TypeId) -> Option<(&Arc<TypeColumn>, Range<usize>)> {
        if anchor_type != self.root_type {
            return None;
        }
        let (col, ranges) = self.groups[node].as_ref()?;
        Some((col, ranges[self.current - self.lo].clone()))
    }
}

/// The join state of one target edge, kept in the slot of its child
/// node: the anchor type it was resolved for, and its cursor — or
/// `None` when the pair is unrelated in the data, so a miss is
/// resolved once too.
struct Edge {
    anchor_type: TypeId,
    cursor: Option<ClosestCursor>,
}

/// The render loop. Rows are borrowed component slices, names and
/// children are read through the borrowed target shape, and every join
/// is addressed by the child node's [`SId`], so rendering an instance
/// allocates nothing and hashes nothing.
struct Renderer<'a> {
    doc: &'a Snapshot,
    target: &'a Shape,
    opts: &'a RenderOptions,
    /// Per target node, indexed by [`SId`]: the join state of the edge
    /// into it, resolved on first use.
    cursors: Vec<Option<Edge>>,
    /// Batched groups for the root currently rendering (pipelined mode
    /// with a source-backed root only).
    root_batch: Option<RootBatch>,
}

impl<'a> Renderer<'a> {
    fn new(
        doc: &'a Snapshot,
        target: &'a Shape,
        opts: &'a RenderOptions,
        root_batch: Option<RootBatch>,
    ) -> Self {
        Renderer {
            doc,
            target,
            opts,
            cursors: target.nodes.iter().map(|_| None).collect(),
            root_batch,
        }
    }

    /// Render all instances of a root, draining the writer to `emit`
    /// after each instance so output streams in document order.
    fn render_root_streaming(
        &mut self,
        root: SId,
        w: &mut StreamWriter,
        emit: &mut impl FnMut(&str) -> MorphResult<()>,
    ) -> MorphResult<()> {
        match self.target.nodes[root].base {
            Some(t) => {
                let col = self.doc.column(t);
                self.root_batch = self
                    .opts
                    .pipelined
                    .then(|| RootBatch::build(self.doc, self.target, root, t, &col, 0..col.len()));
                for i in 0..col.len() {
                    if let Some(b) = self.root_batch.as_mut() {
                        b.current = i;
                    }
                    self.render_instance(root, col.components(i), t, col.text(i), w)?;
                    w.drain_to(&mut *emit)?;
                }
                self.root_batch = None;
            }
            None => {
                self.render_new(root, None, w)?;
                w.drain_to(&mut *emit)?;
            }
        }
        Ok(())
    }

    /// The closest-join group of target edge `node` under `anchor`:
    /// the root batch's precomputed group when there is one, otherwise
    /// the edge's cursor — advanced when anchors arrive in document
    /// order (`in_order`), probed afresh when they do not. `None` when
    /// the pair is unrelated in the data.
    fn group(
        &mut self,
        node: SId,
        anchor: Anchor<'_>,
        child_type: TypeId,
        in_order: bool,
    ) -> Option<(Arc<TypeColumn>, Range<usize>)> {
        if let Some((col, range)) = self
            .root_batch
            .as_ref()
            .and_then(|b| b.group(node, anchor.type_id))
        {
            return Some((Arc::clone(col), range));
        }
        let edge = self.cursors[node].get_or_insert_with(|| Edge {
            anchor_type: anchor.type_id,
            cursor: self.doc.closest_cursor(anchor.type_id, child_type),
        });
        if edge.anchor_type != anchor.type_id {
            // A target node sits at one place in the shape tree, so its
            // anchor type never changes; were it to, a probe still
            // answers correctly.
            return self
                .doc
                .closest_group_row(anchor.row, anchor.type_id, child_type);
        }
        let cursor = edge.cursor.as_mut()?;
        let range = if in_order {
            cursor.group_for_row(anchor.row)
        } else {
            cursor.probe_row(anchor.row)
        };
        Some((Arc::clone(cursor.column()), range))
    }

    /// Pull the closest children of `anchor` for target edge `node`.
    /// Returns an owned handle (the recursion below re-enters the
    /// cursors), but the group contents stay in the shared column.
    fn joined(&mut self, node: SId, anchor: Anchor<'_>, child_type: TypeId) -> MorphResult<Joined> {
        if !self.opts.pipelined {
            return Ok(Joined::Owned(self.doc.closest_children_btree(
                &Dewey::from_slice(anchor.row),
                anchor.type_id,
                child_type,
            )?));
        }
        Ok(match self.group(node, anchor, child_type, true) {
            Some((col, range)) => Joined::Columnar(col, range),
            None => Joined::Owned(Vec::new()),
        })
    }

    /// Render one instance of a source-backed target node.
    fn render_instance(
        &mut self,
        node: SId,
        row: &[u32],
        type_id: TypeId,
        text: &str,
        w: &mut StreamWriter,
    ) -> MorphResult<()> {
        let target = self.target;
        let tnode = &target.nodes[node];
        let anchor = Anchor { row, type_id };
        // RESTRICT: the instance must have a closest match for every
        // filter.
        for &f in &tnode.filters {
            if !self.passes_filter(f, anchor) {
                return Ok(());
            }
        }
        // An attribute type promoted to an element: strip the '@'.
        w.start(tnode.name.trim_start_matches('@'));
        // Attribute children first (they must precede content).
        for &c in &tnode.children {
            let child = &target.nodes[c];
            if !child.name.starts_with('@') {
                continue;
            }
            if let Some(ct) = child.base {
                let group = self.joined(c, anchor, ct)?;
                for i in 0..group.len() {
                    w.attr(child.name.trim_start_matches('@'), group.text(i));
                }
            }
        }
        if self.opts.tag_source {
            w.attr("data-src", &Dewey::from_slice(row).to_string());
        }
        w.text(text);
        for &c in &tnode.children {
            if !target.nodes[c].name.starts_with('@') {
                self.render_child(c, anchor, w)?;
            }
        }
        w.end();
        Ok(())
    }

    /// Render a child target node relative to an anchored parent
    /// instance.
    fn render_child(
        &mut self,
        node: SId,
        anchor: Anchor<'_>,
        w: &mut StreamWriter,
    ) -> MorphResult<()> {
        match self.target.nodes[node].base {
            Some(ct) => {
                let group = self.joined(node, anchor, ct)?;
                for i in 0..group.len() {
                    self.render_instance(node, group.row(i), ct, group.text(i), w)?;
                }
                Ok(())
            }
            None => self.render_new(node, Some(anchor), w),
        }
    }

    /// Render a NEW target node.
    ///
    /// Paper-guided interpretation (the paper leaves NEW rendering
    /// implicit; see DESIGN.md): a NEW node instantiates once per
    /// instance of its first source-backed child — "wraps each author in
    /// a scribe" — with the other children joined relative to that
    /// instance. With an enclosing anchor but no source-backed child, it
    /// instantiates once per parent instance; as a childless root it
    /// renders a single empty element.
    fn render_new(
        &mut self,
        node: SId,
        anchor: Option<Anchor<'_>>,
        w: &mut StreamWriter,
    ) -> MorphResult<()> {
        let target = self.target;
        let name = &target.nodes[node].name;
        let children = &target.nodes[node].children;
        let primary = children
            .iter()
            .copied()
            .find(|&c| target.nodes[c].base.is_some());
        match primary {
            Some(primary_child) => {
                let pt = target.nodes[primary_child]
                    .base
                    .expect("source-backed child");
                let instances = match anchor {
                    Some(a) => self.joined(primary_child, a, pt)?,
                    None => {
                        let col = self.doc.column(pt);
                        let n = col.len();
                        Joined::Columnar(col, 0..n)
                    }
                };
                for i in 0..instances.len() {
                    let row = instances.row(i);
                    w.start(name);
                    self.render_instance(primary_child, row, pt, instances.text(i), w)?;
                    let inner = Anchor { row, type_id: pt };
                    for &c in children {
                        if c != primary_child {
                            self.render_child(c, inner, w)?;
                        }
                    }
                    w.end();
                }
            }
            None => {
                // No source-backed child: one wrapper (per parent
                // instance — the caller already iterates parents).
                w.start(name);
                if let Some(a) = anchor {
                    for &c in children {
                        self.render_child(c, a, w)?;
                    }
                } else {
                    for &c in children {
                        if target.nodes[c].base.is_none() {
                            self.render_new(c, None, w)?;
                        }
                    }
                }
                w.end();
            }
        }
        Ok(())
    }

    /// Recursive RESTRICT filter check: some closest instance of the
    /// filter type exists and itself satisfies the filter's children.
    /// Root-level filters read their precomputed batch group; deeper
    /// filters probe through their edge's cursor without advancing it
    /// (they probe out of document order, so the pipelined sweep does
    /// not apply).
    fn passes_filter(&mut self, filter: SId, anchor: Anchor<'_>) -> bool {
        let fnode = &self.target.nodes[filter];
        let Some(ft) = fnode.base else {
            // A NEW filter can never match data.
            return false;
        };
        let Some((col, range)) = self.group(filter, anchor, ft, false) else {
            return false;
        };
        // A leaf filter passes on the group's first instance: a pure
        // existence test.
        range.into_iter().any(|i| {
            let inner = Anchor {
                row: col.components(i),
                type_id: ft,
            };
            fnode
                .children
                .iter()
                .chain(fnode.filters.iter())
                .all(|&g| self.passes_filter(g, inner))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::lower;
    use crate::lang::parse;
    use crate::semantics::eval::{eval_guard, EvalCtx};
    use xmorph_pagestore::Store;

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    const FIG1B: &str = "<data>\
        <publisher><name>W</name><book><title>X</title><author><name>Tim</name></author></book></publisher>\
        <publisher><name>V</name><book><title>Y</title><author><name>Tim</name></author></book></publisher>\
        </data>";

    fn run(guard: &str, xml: &str) -> String {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
        let src = Shape::from_adorned(doc.shape());
        let snap = doc.snapshot();
        let mut ctx = EvalCtx::new(&*snap);
        let op = lower(&parse(guard).unwrap());
        let tgt = eval_guard(&op, &src, &mut ctx).unwrap();
        render(&doc, &tgt, &RenderOptions::default()).unwrap()
    }

    #[test]
    fn paper_fig2_shape_from_fig1a() {
        // The §I guard on Fig 1(a): authors with their name and books.
        let out = run("MORPH author [ name book [ title ] ]", FIG1A);
        assert_eq!(
            out,
            "<result>\
             <author><name>Tim</name><book><title>X</title></book></author>\
             <author><name>Tim</name><book><title>Y</title></book></author>\
             </result>"
        );
    }

    #[test]
    fn fig1a_and_fig1b_transform_identically() {
        // "Data instances (a) and (b) are (logically) transformed to the
        // same instance" (§I, Fig. 2).
        let guard = "MORPH author [ name book [ title ] ]";
        assert_eq!(run(guard, FIG1A), run(guard, FIG1B));
    }

    #[test]
    fn morph_root_only() {
        let out = run("MORPH title", FIG1A);
        assert_eq!(out, "<result><title>X</title><title>Y</title></result>");
    }

    #[test]
    fn children_marker_renders_source_children() {
        let out = run("MORPH book [*]", FIG1A);
        assert!(
            out.contains("<book><title>X</title><author/><publisher/></book>"),
            "{out}"
        );
    }

    #[test]
    fn descendants_marker_renders_subtrees() {
        let out = run("MORPH book [**]", FIG1A);
        assert!(
            out.contains("<book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>"),
            "{out}"
        );
    }

    #[test]
    fn new_wraps_each_primary_child() {
        // "wraps each author in a scribe".
        let out = run("MORPH (NEW scribe) [ author [ name ] ]", FIG1A);
        assert_eq!(
            out,
            "<result>\
             <scribe><author><name>Tim</name></author></scribe>\
             <scribe><author><name>Tim</name></author></scribe>\
             </result>"
        );
    }

    #[test]
    fn restrict_filters_instances() {
        let xml =
            "<d><book><award>w</award><title>A</title></book><book><title>B</title></book></d>";
        let out = run(
            "CAST-NARROWING MORPH (RESTRICT book [ award ]) [ title ]",
            xml,
        );
        assert_eq!(out, "<result><book><title>A</title></book></result>");
    }

    #[test]
    fn restrict_shows_only_root_type() {
        // The filter type itself must not render.
        let xml = "<d><book><award>w</award><title>A</title></book></d>";
        let out = run("MORPH (RESTRICT book [ award ]) [ title ]", xml);
        assert!(!out.contains("award"), "{out}");
    }

    #[test]
    fn translate_renames_output_elements() {
        let out = run("MORPH author [ name ] | TRANSLATE author -> writer", FIG1A);
        assert!(out.contains("<writer><name>Tim</name></writer>"), "{out}");
        assert!(!out.contains("<author>"), "{out}");
    }

    #[test]
    fn widening_guard_duplicates_titles() {
        // §I Fig. 3 on instance (c): titles duplicated near publishers.
        let fig1c = "<data><author><name>Tim</name>\
            <book><title>X</title><publisher><name>W</name></publisher></book>\
            <book><title>Y</title><publisher><name>V</name></publisher></book>\
            </author></data>";
        let out = run(
            "CAST-WIDENING MORPH author [ !title name publisher [ name ] ]",
            fig1c,
        );
        // The single author gathers both titles and both publishers.
        assert_eq!(out.matches("<title>").count(), 2, "{out}");
        assert_eq!(out.matches("<publisher>").count(), 2, "{out}");
    }

    #[test]
    fn attribute_type_renders_as_attribute() {
        let xml = r#"<d><item id="7"><v>x</v></item><item id="8"><v>y</v></item></d>"#;
        let out = run("MORPH item [ @id v ]", xml);
        assert_eq!(
            out,
            r#"<result><item id="7"><v>x</v></item><item id="8"><v>y</v></item></result>"#
        );
    }

    #[test]
    fn attribute_promoted_to_element() {
        // Morphing the attribute type to the root renders it as an
        // element (the '@' is stripped).
        let xml = r#"<d><item id="7"/></d>"#;
        let out = run("MORPH @id", xml);
        assert_eq!(out, "<result><id>7</id></result>");
    }

    #[test]
    fn tag_source_option() {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let src = Shape::from_adorned(doc.shape());
        let snap = doc.snapshot();
        let mut ctx = EvalCtx::new(&*snap);
        let op = lower(&parse("MORPH title").unwrap());
        let tgt = eval_guard(&op, &src, &mut ctx).unwrap();
        let out = render(
            &doc,
            &tgt,
            &RenderOptions {
                wrapper: Some("r".into()),
                tag_source: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            out.contains(r#"<title data-src="1.1.1">X</title>"#),
            "{out}"
        );
    }

    #[test]
    fn text_content_is_escaped() {
        let xml = "<d><m>a &lt; b &amp; c</m></d>";
        let out = run("MORPH m", xml);
        assert!(out.contains("a &lt; b &amp; c"), "{out}");
    }

    #[test]
    fn streaming_render_matches_buffered() {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let src = Shape::from_adorned(doc.shape());
        let snap = doc.snapshot();
        let mut ctx = EvalCtx::new(&*snap);
        let op = lower(&parse("MORPH author [ name book [ title ] ]").unwrap());
        let tgt = eval_guard(&op, &src, &mut ctx).unwrap();
        let buffered = render(&doc, &tgt, &RenderOptions::default()).unwrap();
        let mut sink: Vec<u8> = Vec::new();
        render_to_writer(&doc, &tgt, &RenderOptions::default(), &mut sink).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), buffered);
    }

    #[test]
    fn streaming_render_empty_result() {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, "<d><a/></d>").unwrap();
        let src = Shape::from_adorned(doc.shape());
        let snap = doc.snapshot();
        let mut ctx = EvalCtx::new(&*snap);
        // RESTRICT that matches nothing yields an empty (self-closed)
        // wrapper.
        let op = lower(&parse("CAST MORPH a").unwrap());
        let tgt = eval_guard(&op, &src, &mut ctx).unwrap();
        let mut sink: Vec<u8> = Vec::new();
        render_to_writer(&doc, &tgt, &RenderOptions::default(), &mut sink).unwrap();
        let out = String::from_utf8(sink).unwrap();
        assert_eq!(out, "<result><a/></result>");
    }

    #[test]
    fn output_reparses_as_xml() {
        let out = run(
            "MORPH author [ name book [ title publisher [ name ] ] ]",
            FIG1B,
        );
        let doc = xmorph_xml::dom::Document::parse_str(&out).unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), "result");
    }

    #[test]
    fn duplicated_fragments_get_separate_cursors() {
        // Two books share a publisher name prefix group: rendering must
        // revisit the same child group for siblings (group cache) and
        // advance correctly across parents (monotone cursor).
        let xml = "<d>\
            <book><t>A</t><t>B</t><p>1</p></book>\
            <book><t>C</t><p>2</p></book>\
            <book><p>3</p></book>\
            </d>";
        let out = run("MORPH p [ t ]", xml);
        assert_eq!(
            out,
            "<result><p>1<t>A</t><t>B</t></p><p>2<t>C</t></p><p>3</p></result>"
        );
    }

    #[test]
    fn deep_join_chain_streams() {
        // A three-level chain exercises nested cursors on one pass.
        let xml = "<lib>\
            <shelf><row><slot>a</slot><slot>b</slot></row></shelf>\
            <shelf><row><slot>c</slot></row><row><slot>d</slot></row></shelf>\
            </lib>";
        let out = run("MORPH shelf [ row [ slot ] ]", xml);
        assert_eq!(
            out,
            "<result>\
             <shelf><row><slot>a</slot><slot>b</slot></row></shelf>\
             <shelf><row><slot>c</slot></row><row><slot>d</slot></row></shelf>\
             </result>"
        );
    }
}
