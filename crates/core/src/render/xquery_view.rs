//! Architecture #2 of §VIII: *"Render the query guard as an XQuery view
//! and use XQuery view rewriting to answer the query."*
//!
//! A guard whose target edges all navigate *downward* in the source shape
//! (each child's source type is a path descendant of its parent's) can be
//! compiled to an ordinary nested-FLWOR XQuery program over the original
//! document — no shredding, no closest joins. The paper's caveats hold
//! verbatim and are surfaced as errors here:
//!
//! * closest joins that move *across* or *up* the source shape (the
//!   interesting shape-polymorphic cases, e.g. hoisting `author` above
//!   `book` when books contain authors) are not expressible with
//!   child/descendant navigation — [`ViewError::NotNavigable`];
//! * "the source values must be teased apart and reconstructed to the
//!   target shape in the return clause piece-by-piece": interior target
//!   elements rebuild their content from constructors, so any *direct*
//!   text an interior source element carried is not reproduced (leaf
//!   values come through `string()`).
//!
//! The result is "a long, complex XQuery program" whose evaluation the
//! paper found at best modestly faster than physical transformation —
//! the `ablation` benchmark reproduces that comparison.

use crate::semantics::shape::{SId, Shape};
use crate::store::shredded::ShreddedDoc;
use std::fmt;

/// Why a guard could not be rendered as an XQuery view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// A target edge needs a closest join that plain downward navigation
    /// cannot express.
    NotNavigable {
        /// Dotted source type of the parent.
        parent: String,
        /// Dotted source type of the child.
        child: String,
    },
    /// A construct with no XQuery-view equivalent in this compiler.
    Unsupported(&'static str),
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::NotNavigable { parent, child } => write!(
                f,
                "target edge {parent} -> {child} requires a closest join; \
                 it cannot be navigated downward in the source (use the \
                 physical transformation instead)"
            ),
            ViewError::Unsupported(what) => {
                write!(f, "guard construct has no XQuery view: {what}")
            }
        }
    }
}

/// Compile a target shape into an XQuery view over `doc(doc_name)`.
/// Succeeds only for fully downward-navigable guards.
pub fn guard_to_xquery_view(
    doc: &ShreddedDoc,
    target: &Shape,
    doc_name: &str,
) -> Result<String, ViewError> {
    let mut body = String::new();
    for (i, &root) in target.roots.iter().enumerate() {
        if i > 0 {
            body.push(' ');
        }
        let mut var_counter = 0usize;
        body.push_str(&compile_root(
            doc,
            target,
            root,
            doc_name,
            &mut var_counter,
        )?);
    }
    Ok(format!("<result>{{{body}}}</result>"))
}

/// Relative downward path (source element names) from `parent` to
/// `child`, or `None` when child is not a strict path descendant.
fn relative_path(
    doc: &ShreddedDoc,
    parent: SId,
    child: SId,
    target: &Shape,
) -> Option<Vec<String>> {
    let pb = target.nodes[parent].base?;
    let mut cur = target.nodes[child].base?;
    let types = doc.types();
    let mut rel = Vec::new();
    while types.depth(cur) > types.depth(pb) {
        rel.push(types.name(cur).to_string());
        cur = types.parent(cur)?;
    }
    if cur != pb || rel.is_empty() {
        return None;
    }
    rel.reverse();
    Some(rel)
}

fn compile_root(
    doc: &ShreddedDoc,
    target: &Shape,
    root: SId,
    doc_name: &str,
    var_counter: &mut usize,
) -> Result<String, ViewError> {
    let node = &target.nodes[root];
    let Some(base) = node.base else {
        return Err(ViewError::Unsupported("NEW types"));
    };
    let path = doc.types().path(base).join("/");
    let var = fresh(var_counter);
    let condition = filter_condition(doc, target, root, &var)?;
    let inner = compile_element(doc, target, root, &var, var_counter)?;
    Ok(format!(
        "for ${var} in doc(\"{doc_name}\")/{path}{condition} return {inner}"
    ))
}

fn fresh(counter: &mut usize) -> String {
    let v = format!("v{counter}");
    *counter += 1;
    v
}

/// A ` where ...` clause for the node's RESTRICT filters (empty when
/// unfiltered). Only single-level navigable filters are expressible.
fn filter_condition(
    doc: &ShreddedDoc,
    target: &Shape,
    node: SId,
    var: &str,
) -> Result<String, ViewError> {
    if target.nodes[node].filters.is_empty() {
        return Ok(String::new());
    }
    let mut parts = Vec::new();
    for &f in &target.nodes[node].filters {
        let rel = relative_path(doc, node, f, target).ok_or_else(|| ViewError::NotNavigable {
            parent: target.nodes[node].name.clone(),
            child: target.nodes[f].name.clone(),
        })?;
        if !target.nodes[f].children.is_empty() || !target.nodes[f].filters.is_empty() {
            return Err(ViewError::Unsupported("nested RESTRICT filters"));
        }
        parts.push(format!("count(${var}/{}) > 0", rel.join("/")));
    }
    Ok(format!(" where {}", parts.join(" and ")))
}

/// Emit the element constructor for one bound target node.
fn compile_element(
    doc: &ShreddedDoc,
    target: &Shape,
    node: SId,
    var: &str,
    var_counter: &mut usize,
) -> Result<String, ViewError> {
    let shape_node = &target.nodes[node];
    if shape_node.name.starts_with('@') {
        return Err(ViewError::Unsupported(
            "attribute targets (constructors cannot build dynamic attributes)",
        ));
    }
    let mut content = String::new();
    if shape_node.children.is_empty() {
        // Leaf: the element's string value.
        content.push_str(&format!("{{string(${var})}}"));
    } else {
        for &c in &shape_node.children {
            let rel =
                relative_path(doc, node, c, target).ok_or_else(|| ViewError::NotNavigable {
                    parent: doc.types().dotted(shape_node.base.expect("bound node")),
                    child: target.nodes[c]
                        .base
                        .map(|b| doc.types().dotted(b))
                        .unwrap_or_else(|| target.nodes[c].name.clone()),
                })?;
            let child_var = fresh(var_counter);
            let condition = filter_condition(doc, target, c, &child_var)?;
            let inner = compile_element(doc, target, c, &child_var, var_counter)?;
            content.push_str(&format!(
                "{{for ${child_var} in ${var}/{}{condition} return {inner}}}",
                rel.join("/")
            ));
        }
    }
    Ok(format!(
        "<{}>{content}</{}>",
        shape_node.name, shape_node.name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Guard;
    use xmorph_pagestore::Store;
    use xmorph_xqlite::XqliteDb;

    const NESTED: &str = "<lib>\
        <shelf><book><title>A</title><author><name>X</name></author></book>\
               <book><title>B</title><author><name>Y</name></author></book></shelf>\
        <shelf><book><title>C</title><author><name>Z</name></author></book></shelf>\
        </lib>";

    fn view_for(guard: &str, xml: &str) -> Result<String, ViewError> {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
        let analysis = Guard::parse(guard).unwrap().analyze(&doc).unwrap();
        guard_to_xquery_view(&doc, &analysis.target, "doc.xml")
    }

    /// The two architectures must agree on downward-navigable guards.
    fn assert_equivalent(guard: &str, xml: &str) {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
        let parsed = Guard::parse(guard).unwrap();
        let analysis = parsed.analyze(&doc).unwrap();
        let physical = crate::render::render(
            &doc,
            &analysis.target,
            &crate::render::RenderOptions::default(),
        )
        .unwrap();
        let view = guard_to_xquery_view(&doc, &analysis.target, "doc.xml").unwrap();
        let db = XqliteDb::in_memory();
        db.store_document("doc.xml", xml).unwrap();
        let via_view = db.query(&view).unwrap();
        assert_eq!(via_view, physical, "guard {guard}\nview {view}");
    }

    #[test]
    fn navigable_guards_compile_and_agree() {
        assert_equivalent("MORPH shelf [ book [ title ] ]", NESTED);
        assert_equivalent("MORPH book [ title name ]", NESTED);
        assert_equivalent("CAST MORPH lib [ title ]", NESTED);
        assert_equivalent("MORPH author [ name ]", NESTED);
    }

    #[test]
    fn restrict_filters_compile_to_where() {
        let xml = "<d>\
            <book><award>w</award><title>A</title></book>\
            <book><title>B</title></book>\
            </d>";
        assert_equivalent("CAST MORPH (RESTRICT book [ award ]) [ title ]", xml);
        let view = view_for("CAST MORPH (RESTRICT book [ award ]) [ title ]", xml).unwrap();
        assert!(view.contains("where count("), "{view}");
    }

    #[test]
    fn upward_join_is_not_navigable() {
        // The §I headline guard: author hoisted above book. A view
        // cannot express this — exactly the paper's point about why the
        // physical transformation is the general architecture.
        let err = view_for("MORPH author [ name book.title ]", NESTED).unwrap_err();
        assert!(matches!(err, ViewError::NotNavigable { .. }), "{err}");
    }

    #[test]
    fn new_types_unsupported() {
        let err = view_for("MORPH (NEW x) [ book [ title ] ]", NESTED).unwrap_err();
        assert!(matches!(err, ViewError::Unsupported(_)), "{err}");
    }

    #[test]
    fn view_is_a_long_complex_program() {
        // "Rendering to XQuery often creates a long, complex XQuery
        // program" — one nested FLWOR per target edge.
        let view = view_for("MORPH shelf [ book [ title name ] ]", NESTED).unwrap();
        assert_eq!(view.matches("for $").count(), 4, "{view}");
    }

    #[test]
    fn error_messages_name_the_edge() {
        let err = view_for("MORPH title [ name ]", NESTED).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("closest join"), "{msg}");
    }
}
