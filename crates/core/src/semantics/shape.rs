//! The live semantic shape: a forest of semantic types.
//!
//! A semantic type is richer than a source type: clones are distinct
//! semantic types sharing a source type, `NEW` types have no source type
//! at all, `TRANSLATE` changes the rendered name without changing the
//! source binding, and `RESTRICT` demotes subtrees to instance filters.

use crate::model::card::Card;
use crate::model::shape::AdornedShape;
use crate::model::types::{label_matches, TypeId};
use std::fmt;

/// Index of a node within a [`Shape`] arena.
pub type SId = usize;

/// One semantic type in a shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeNode {
    /// The element name this node renders as.
    pub name: String,
    /// The source type whose instances populate this node (`None` for
    /// `NEW` / type-filled types).
    pub base: Option<TypeId>,
    /// The node of the *previous* shape this node was selected from. In a
    /// source shape, each node's origin is itself.
    pub origin: Option<SId>,
    /// Predicted cardinality of the edge from the parent (Def. 7);
    /// `1..1` for roots.
    pub card: Card,
    /// Parent in the forest (filters also point at their owner).
    pub parent: Option<SId>,
    /// Child nodes.
    pub children: Vec<SId>,
    /// RESTRICT filter subtree roots: instances of this node qualify only
    /// if they have a closest instance of each filter (checked
    /// recursively). Filters are not rendered.
    pub filters: Vec<SId>,
    /// True when the node was produced by `CLONE` (a distinct type whose
    /// data duplicates the original's).
    pub is_clone: bool,
    /// True when the node was produced by `NEW` or TYPE-FILL.
    pub is_new: bool,
}

impl ShapeNode {
    fn leaf(name: &str, base: Option<TypeId>, origin: Option<SId>) -> ShapeNode {
        ShapeNode {
            name: name.to_string(),
            base,
            origin,
            card: Card::one(),
            parent: None,
            children: Vec::new(),
            filters: Vec::new(),
            is_clone: false,
            is_new: false,
        }
    }
}

/// A forest of semantic types — the domain and codomain of ξ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shape {
    /// Node arena.
    pub nodes: Vec<ShapeNode>,
    /// Root nodes.
    pub roots: Vec<SId>,
    /// True when this shape *is* the source collection's shape, so
    /// closest distances can be answered exactly from the data.
    pub data_backed: bool,
}

impl Shape {
    /// An empty (under-construction) shape.
    pub fn new() -> Shape {
        Shape::default()
    }

    /// Lift an adorned source shape into the semantic domain. Node `i`
    /// corresponds to `TypeId(i)` (interning order puts parents first).
    pub fn from_adorned(adorned: &AdornedShape) -> Shape {
        let types = adorned.types();
        let mut shape = Shape {
            nodes: Vec::with_capacity(types.len()),
            roots: Vec::new(),
            data_backed: true,
        };
        for id in types.ids() {
            let mut node = ShapeNode::leaf(types.name(id), Some(id), Some(id.index()));
            node.card = adorned.card(id);
            node.parent = types.parent(id).map(|p| p.index());
            shape.nodes.push(node);
        }
        for id in types.ids() {
            match types.parent(id) {
                Some(p) => shape.nodes[p.index()].children.push(id.index()),
                None => shape.roots.push(id.index()),
            }
        }
        shape
    }

    /// Add a detached leaf node.
    pub fn add_leaf(&mut self, name: &str, base: Option<TypeId>, origin: Option<SId>) -> SId {
        let id = self.nodes.len();
        self.nodes.push(ShapeNode::leaf(name, base, origin));
        id
    }

    /// Attach `child` under `parent` with the given predicted
    /// cardinality. The child must currently be detached.
    pub fn attach(&mut self, parent: SId, child: SId, card: Card) {
        debug_assert!(self.nodes[child].parent.is_none());
        self.nodes[child].parent = Some(parent);
        self.nodes[child].card = card;
        self.nodes[parent].children.push(child);
    }

    /// Detach `child` from its parent (or from the root list).
    pub fn detach(&mut self, child: SId) {
        if let Some(p) = self.nodes[child].parent.take() {
            self.nodes[p].children.retain(|&c| c != child);
        }
        self.roots.retain(|&r| r != child);
    }

    /// Depth of a node (roots at 0), following parent links.
    pub fn depth(&self, n: SId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.nodes[cur].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Names from the root down to `n` (used for dotted-label matching).
    pub fn path_names(&self, n: SId) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            out.push(self.nodes[c].name.as_str());
            cur = self.nodes[c].parent;
        }
        out.reverse();
        out
    }

    /// Dotted path name of a node.
    pub fn dotted(&self, n: SId) -> String {
        self.path_names(n).join(".")
    }

    /// Nodes whose name matches a (possibly dotted) label, by the same
    /// suffix rule as [`crate::model::types::TypeTable::matching`].
    /// Filter nodes are excluded.
    pub fn matching_label(&self, label: &str) -> Vec<SId> {
        let filter_nodes = self.filter_node_set();
        let up = |n: SId| (self.nodes[n].name.as_str(), self.nodes[n].parent);
        (0..self.nodes.len())
            .filter(|&n| !filter_nodes[n] && label_matches(label, n, up))
            .collect()
    }

    /// Boolean mask of nodes living inside a filter subtree.
    fn filter_node_set(&self) -> Vec<bool> {
        let mut mask = vec![false; self.nodes.len()];
        for n in 0..self.nodes.len() {
            for &f in &self.nodes[n].filters {
                self.mark_subtree(f, &mut mask);
            }
        }
        mask
    }

    fn mark_subtree(&self, n: SId, mask: &mut [bool]) {
        mask[n] = true;
        for &c in &self.nodes[n].children {
            self.mark_subtree(c, mask);
        }
        for &f in &self.nodes[n].filters {
            self.mark_subtree(f, mask);
        }
    }

    /// True when `anc` is `node` or an ancestor of it.
    pub fn is_ancestor_or_self(&self, anc: SId, node: SId) -> bool {
        let mut cur = Some(node);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.nodes[c].parent;
        }
        false
    }

    /// The steps up from `a` and from `b` to their least common
    /// ancestor: the deeper node climbs to equal depth, then both climb
    /// together. Nodes in different trees meet at the virtual forest
    /// root, one step above each root.
    fn steps_to_lca(&self, a: SId, b: SId) -> (usize, usize) {
        let (da, db) = (self.depth(a), self.depth(b));
        let up = |n: SId, k: usize| (0..k).fold(n, |n, _| self.nodes[n].parent.unwrap());
        let (mut x, mut y) = (up(a, da.saturating_sub(db)), up(b, db.saturating_sub(da)));
        let mut k = 0;
        while x != y {
            match (self.nodes[x].parent, self.nodes[y].parent) {
                (Some(px), Some(py)) => (x, y, k) = (px, py, k + 1),
                _ => return (da + 1, db + 1),
            }
        }
        let m = da.min(db);
        (da - m + k, db - m + k)
    }

    /// Tree distance between two nodes. Nodes in different trees of the
    /// forest are related through the virtual forest root (the rendered
    /// document wrapper): distance = depth(a) + depth(b) + 2.
    pub fn tree_distance(&self, a: SId, b: SId) -> Option<usize> {
        let (up_a, up_b) = self.steps_to_lca(a, b);
        Some(up_a + up_b)
    }

    /// Path cardinality (Def. 6) between two nodes of this shape: `1..1`
    /// up from `a` to the least common ancestor, then the product of edge
    /// cardinalities down to `b`. Nodes in different trees relate through
    /// the virtual forest root, so `b`'s own root-edge cardinality (the
    /// absolute instance count) joins the product.
    pub fn path_card(&self, a: SId, b: SId) -> Option<Card> {
        let (_, up_b) = self.steps_to_lca(a, b);
        let chain = std::iter::successors(Some(b), |&n| self.nodes[n].parent);
        Some(
            chain
                .take(up_b)
                .fold(Card::one(), |card, n| card.mul(self.nodes[n].card)),
        )
    }

    /// Deep-copy the subtree rooted at `n` (children and filters) into
    /// `dst`, mapping origins to the *source* ids in `self` when this
    /// shape is itself a source (`origin_is_self`), or propagating
    /// existing origins otherwise. Returns the new root id.
    pub fn copy_subtree_into(&self, n: SId, dst: &mut Shape, origin_is_self: bool) -> SId {
        let node = &self.nodes[n];
        let origin = if origin_is_self { Some(n) } else { node.origin };
        let new_id = dst.add_leaf(&node.name, node.base, origin);
        dst.nodes[new_id].card = node.card;
        dst.nodes[new_id].is_clone = node.is_clone;
        dst.nodes[new_id].is_new = node.is_new;
        for &c in &node.children {
            let cc = self.copy_subtree_into(c, dst, origin_is_self);
            dst.nodes[cc].parent = Some(new_id);
            let card = dst.nodes[cc].card;
            dst.nodes[new_id].children.push(cc);
            dst.nodes[cc].card = card;
        }
        for &f in &node.filters {
            let ff = self.copy_subtree_into(f, dst, origin_is_self);
            dst.nodes[ff].parent = Some(new_id);
            dst.nodes[new_id].filters.push(ff);
        }
        new_id
    }

    /// Duplicate a subtree *within* this shape (used when a fragment must
    /// attach under several equally-close parents, and by `CLONE` in
    /// `MUTATE`). The copy is detached.
    pub fn duplicate_subtree(&mut self, n: SId) -> SId {
        let node = self.nodes[n].clone();
        let new_id = self.add_leaf(&node.name, node.base, node.origin);
        self.nodes[new_id].card = node.card;
        self.nodes[new_id].is_clone = node.is_clone;
        self.nodes[new_id].is_new = node.is_new;
        for c in node.children {
            let cc = self.duplicate_subtree(c);
            self.nodes[cc].parent = Some(new_id);
            self.nodes[new_id].children.push(cc);
        }
        for f in node.filters {
            let ff = self.duplicate_subtree(f);
            self.nodes[ff].parent = Some(new_id);
            self.nodes[new_id].filters.push(ff);
        }
        new_id
    }

    /// Rebuild the arena keeping only nodes reachable from `roots`,
    /// preserving order. Returns the compacted shape.
    pub fn compact(&self, roots: &[SId]) -> Shape {
        let mut out = Shape {
            nodes: Vec::new(),
            roots: Vec::new(),
            data_backed: false,
        };
        for &r in roots {
            let new_root = self.copy_subtree_into(r, &mut out, false);
            out.roots.push(new_root);
        }
        out
    }

    /// Serialize this shape back to XMorph guard text — the *effective
    /// guard*: applying it reproduces exactly this shape on sources
    /// where its labels resolve the same way. Dotted labels are not
    /// reconstructed (the shape stores resolved names), so ambiguous
    /// sources may resolve differently; `RESTRICT` filters, `NEW` types,
    /// and `*`-free structure round-trip.
    pub fn to_guard(&self) -> String {
        fn item(shape: &Shape, n: SId, out: &mut String) {
            let node = &shape.nodes[n];
            if node.is_new {
                out.push_str("(NEW ");
                out.push_str(&node.name);
                out.push(')');
            } else if !node.filters.is_empty() {
                out.push_str("(RESTRICT ");
                out.push_str(&node.name);
                if !node.filters.is_empty() {
                    out.push_str(" [ ");
                    for (i, &f) in node.filters.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        item(shape, f, out);
                    }
                    out.push_str(" ]");
                }
                out.push(')');
            } else {
                out.push_str(&node.name);
            }
            if !node.children.is_empty() {
                out.push_str(" [ ");
                for (i, &c) in node.children.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    item(shape, c, out);
                }
                out.push_str(" ]");
            }
        }
        let mut out = String::from("MORPH ");
        for (i, &r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            item(self, r, &mut out);
        }
        out
    }

    /// All node ids in preorder from the roots (children before filters).
    pub fn preorder(&self) -> Vec<SId> {
        let mut out = Vec::new();
        let mut stack: Vec<SId> = self.roots.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Number of renderable (non-filter) nodes reachable from the roots.
    pub fn reachable_count(&self) -> usize {
        self.preorder().len()
    }
}

impl fmt::Display for Shape {
    /// Indented tree with predicted cardinalities and annotations.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(shape: &Shape, n: SId, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for _ in 0..depth {
                write!(f, "  ")?;
            }
            write!(f, "{}", shape.nodes[n].name)?;
            if depth > 0 {
                write!(f, " {}", shape.nodes[n].card)?;
            }
            if shape.nodes[n].is_new {
                write!(f, " (new)")?;
            }
            if shape.nodes[n].is_clone {
                write!(f, " (clone)")?;
            }
            if !shape.nodes[n].filters.is_empty() {
                write!(f, " (restricted)")?;
            }
            writeln!(f)?;
            for &c in &shape.nodes[n].children {
                rec(shape, c, depth + 1, f)?;
            }
            Ok(())
        }
        for &r in &self.roots {
            rec(self, r, 0, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmorph_xml::dom::Document;

    fn fig1a_shape() -> Shape {
        let doc = Document::parse_str(
            "<data>\
               <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
               <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
             </data>",
        )
        .unwrap();
        Shape::from_adorned(&AdornedShape::from_document(&doc))
    }

    fn find(shape: &Shape, dotted: &str) -> SId {
        let hits = shape.matching_label(dotted);
        assert_eq!(hits.len(), 1, "label {dotted} matched {hits:?}");
        hits[0]
    }

    #[test]
    fn from_adorned_mirrors_tree() {
        let s = fig1a_shape();
        assert_eq!(s.roots.len(), 1);
        assert!(s.data_backed);
        let data = s.roots[0];
        assert_eq!(s.nodes[data].name, "data");
        assert_eq!(s.nodes[data].children.len(), 1);
        let book = s.nodes[data].children[0];
        assert_eq!(s.nodes[book].card, Card::exactly(2));
    }

    #[test]
    fn label_matching_on_paths() {
        let s = fig1a_shape();
        // Two 'name' types: author.name and publisher.name.
        assert_eq!(s.matching_label("name").len(), 2);
        assert_eq!(s.matching_label("author.name").len(), 1);
        assert_eq!(s.matching_label("publisher.name").len(), 1);
        assert!(s.matching_label("editor").is_empty());
    }

    #[test]
    fn tree_distance_in_shape() {
        let s = fig1a_shape();
        let title = find(&s, "title");
        let pub_name = find(&s, "publisher.name");
        assert_eq!(s.tree_distance(title, pub_name), Some(3));
        assert_eq!(s.tree_distance(title, title), Some(0));
    }

    #[test]
    fn path_card_in_shape() {
        let s = fig1a_shape();
        let data = s.roots[0];
        let name = find(&s, "author.name");
        assert_eq!(s.path_card(data, name), Some(Card::exactly(2)));
        assert_eq!(s.path_card(name, data), Some(Card::one()));
    }

    /// `tree_distance` and `path_card` agree, on every ordered pair of
    /// nodes, with a reference that lists each node's ancestors and
    /// finds the first one the other node shares.
    #[test]
    fn distance_and_path_card_match_an_ancestor_list_reference() {
        use crate::algebra::lower;
        use crate::lang::parse;
        use crate::semantics::eval::{eval_guard, EvalCtx, GuideOracle};
        let xml = xmorph_datagen::XmarkConfig::with_factor(0.05).generate();
        let adorned = AdornedShape::from_document(&Document::parse_str(&xml).unwrap());
        let src = Shape::from_adorned(&adorned);
        let oracle = GuideOracle(adorned.types());
        let guard = "MORPH person [ name ] open_auction [ bidder ] category [ name ]";
        let op = lower(&parse(guard).unwrap());
        let tgt = eval_guard(&op, &src, &mut EvalCtx::new(&oracle)).unwrap();
        assert!(tgt.roots.len() >= 3, "{} roots", tgt.roots.len());
        for s in [&src, &tgt] {
            // Each node's ancestors, itself first and its root last.
            let up: Vec<Vec<SId>> = (0..s.nodes.len())
                .map(|n| std::iter::successors(Some(n), |&c| s.nodes[c].parent).collect())
                .collect();
            for a in 0..s.nodes.len() {
                for b in 0..s.nodes.len() {
                    // Steps from `b` up to the first ancestor `a` shares,
                    // and from `a` up to it; past the roots when none.
                    let (to_b, to_a) = match up[b].iter().position(|x| up[a].contains(x)) {
                        Some(j) => (j, up[a].iter().position(|&x| x == up[b][j]).unwrap()),
                        None => (up[b].len(), up[a].len()),
                    };
                    let card = up[b][..to_b]
                        .iter()
                        .fold(Card::one(), |c, &n| c.mul(s.nodes[n].card));
                    assert_eq!(s.tree_distance(a, b), Some(to_a + to_b), "{a} {b}");
                    assert_eq!(s.path_card(a, b), Some(card), "{a} {b}");
                }
            }
        }
    }

    #[test]
    fn attach_detach() {
        let mut s = Shape::new();
        let a = s.add_leaf("a", None, None);
        let b = s.add_leaf("b", None, None);
        s.roots.push(a);
        s.attach(a, b, Card::one());
        assert_eq!(s.depth(b), 1);
        s.detach(b);
        assert_eq!(s.nodes[a].children.len(), 0);
        assert_eq!(s.nodes[b].parent, None);
    }

    #[test]
    fn duplicate_subtree_is_deep() {
        let mut s = Shape::new();
        let a = s.add_leaf("a", None, None);
        let b = s.add_leaf("b", None, None);
        s.roots.push(a);
        s.attach(a, b, Card::one());
        let copy = s.duplicate_subtree(a);
        assert_ne!(copy, a);
        assert_eq!(s.nodes[copy].children.len(), 1);
        let copy_child = s.nodes[copy].children[0];
        assert_ne!(copy_child, b);
        assert_eq!(s.nodes[copy_child].name, "b");
    }

    #[test]
    fn compact_drops_garbage() {
        let mut s = Shape::new();
        let a = s.add_leaf("a", None, None);
        let _garbage = s.add_leaf("junk", None, None);
        let b = s.add_leaf("b", None, None);
        s.roots.push(a);
        s.attach(a, b, Card::one());
        let c = s.compact(&[a]);
        assert_eq!(c.nodes.len(), 2);
        assert_eq!(c.nodes[c.roots[0]].name, "a");
    }

    #[test]
    fn display_annotations() {
        let mut s = Shape::new();
        let a = s.add_leaf("a", None, None);
        s.roots.push(a);
        let n = s.add_leaf("n", None, None);
        s.nodes[n].is_new = true;
        s.attach(a, n, Card::one());
        let out = s.to_string();
        assert!(out.contains("n 1..1 (new)"), "{out}");
    }

    #[test]
    fn to_guard_round_trips_structure() {
        use crate::algebra::lower;
        use crate::lang::parse;
        use crate::model::shape::AdornedShape;
        use crate::semantics::eval::{eval_guard, EvalCtx, GuideOracle};

        let doc = Document::parse_str(
            "<data>\
             <book><title>X</title><author><name>T</name></author></book>\
             </data>",
        )
        .unwrap();
        let adorned = AdornedShape::from_document(&doc);
        let src = Shape::from_adorned(&adorned);
        let oracle = GuideOracle(adorned.types());

        for guard in [
            "MORPH author [ name book [ title ] ]",
            "MORPH (NEW scribe) [ author [ name ] ]",
            "MORPH (RESTRICT book [ author ]) [ title ]",
        ] {
            let mut ctx = EvalCtx::new(&oracle);
            let op = lower(&parse(guard).unwrap());
            let target = eval_guard(&op, &src, &mut ctx).unwrap();
            let emitted = target.to_guard();
            // The emitted guard parses and evaluates to the same shape.
            let mut ctx2 = EvalCtx::new(&oracle);
            let op2 = lower(&parse(&emitted).unwrap());
            let target2 = eval_guard(&op2, &src, &mut ctx2).unwrap();
            assert_eq!(
                target.to_string(),
                target2.to_string(),
                "{guard} -> {emitted}"
            );
        }
    }

    #[test]
    fn filters_hidden_from_label_matching() {
        let mut s = Shape::new();
        let a = s.add_leaf("a", None, None);
        s.roots.push(a);
        let f = s.add_leaf("secret", None, None);
        s.nodes[f].parent = Some(a);
        s.nodes[a].filters.push(f);
        assert!(s.matching_label("secret").is_empty());
    }
}
