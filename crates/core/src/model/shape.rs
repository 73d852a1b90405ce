//! Adorned shapes (Def. 3): the data guide of a collection, with each
//! parent/child type edge adorned by a cardinality range.
//!
//! A shape persists as one row per type ([`AdornedShape::type_row`]),
//! like the paper's `AdornedShapes` relation (Fig. 8). A shred writes
//! every row in one blob ([`AdornedShape::to_bytes`]); a mutation writes
//! the rows it changed; [`AdornedShape::apply_type_row`] decodes both.

use crate::model::card::{Card, CardMax};
use crate::model::types::{TypeId, TypeTable};
use std::collections::BTreeSet;
use std::fmt;
use xmorph_xml::dom::Document;

/// The four bytes that open a shape blob ([`AdornedShape::to_bytes`]).
/// A blob of the earlier path format opened with the length of its type
/// table, always shorter than the blob, so it never starts with these.
pub(crate) const SHAPE_BLOB_TAG: [u8; 4] = u32::MAX.to_le_bytes();

/// The adorned shape of a data collection: a forest over root-path types
/// where the edge into each type `u` carries `n..m` — the minimum and
/// maximum number of `u`-children under any parent instance.
#[derive(Debug, Clone)]
pub struct AdornedShape {
    types: TypeTable,
    /// Cardinality of the edge from `parent(t)` into `t` (indexed by
    /// `TypeId`). Root types carry `1..1`.
    edge_card: Vec<Card>,
    /// Instance count of each type in the collection.
    counts: Vec<u64>,
    /// Types whose card or count moved, or that were interned, since
    /// the last [`AdornedShape::clear_dirty`]: the rows a store must
    /// persist ([`AdornedShape::type_row`]).
    dirty: BTreeSet<TypeId>,
    /// Edits since this shape was built or loaded; see
    /// [`AdornedShape::edits`].
    edits: u64,
    /// While a mutation is in flight, the `(type, count, card)` each
    /// count or card edit overwrote, oldest first; see
    /// [`AdornedShape::begin_undo`].
    undo: Option<Vec<(TypeId, u64, Card)>>,
}

impl AdornedShape {
    /// Build the shape of a parsed document.
    pub fn from_document(doc: &Document) -> AdornedShape {
        let mut b = ShapeBuilder::default();
        if let Some(root) = doc.root_element() {
            build_rec(doc, root, &mut b);
        }
        b.finish()
    }

    /// The interned type table.
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// Cardinality of the edge from `t`'s parent into `t`.
    pub fn card(&self, t: TypeId) -> Card {
        self.edge_card[t.index()]
    }

    /// All types — the paper's `types(S)`.
    pub fn type_ids(&self) -> impl Iterator<Item = TypeId> {
        self.types.ids()
    }

    /// Number of instances of `t` in the collection.
    pub fn instance_count(&self, t: TypeId) -> u64 {
        self.counts[t.index()]
    }

    /// Total number of vertices in the collection.
    pub fn total_instances(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Override the cardinality of `t`'s incoming edge — used by tests to
    /// model hypotheticals (the paper's "suppose the name of an author is
    /// optional" example in §V-B).
    pub fn set_card(&mut self, t: TypeId, card: Card) {
        if self.edge_card[t.index()] != card {
            self.log_undo(t);
            self.edge_card[t.index()] = card;
            self.dirty.insert(t);
            self.edits += 1;
        }
    }

    /// Intern `name` as a child type of `parent`, growing the shape's
    /// parallel arrays when the type is new. A new type starts with
    /// `0..0` cardinality and zero instances — the mutation path widens
    /// the card as it counts the inserted instances, and `min` stays 0
    /// because every pre-existing parent instance lacks the new child.
    pub fn intern_child_type(&mut self, parent: TypeId, name: &str) -> TypeId {
        let id = self.types.intern_child(Some(parent), name);
        if id.index() == self.edge_card.len() {
            self.edge_card.push(Card::zero());
            self.counts.push(0);
            self.dirty.insert(id);
            self.edits += 1;
        }
        id
    }

    /// Adjust the instance count of `t` by `delta` (saturating at 0) —
    /// the mutation path's exact count maintenance.
    pub fn add_instances(&mut self, t: TypeId, delta: i64) {
        self.log_undo(t);
        let n = &mut self.counts[t.index()];
        *n = if delta < 0 {
            n.saturating_sub(delta.unsigned_abs())
        } else {
            n.saturating_add(delta as u64)
        };
        self.dirty.insert(t);
        self.edits += 1;
    }

    /// Types changed since the last [`AdornedShape::clear_dirty`], in
    /// id order — interned types included, so their ids stay dense.
    pub fn dirty_types(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.dirty.iter().copied()
    }

    /// How many edits ([`AdornedShape::set_card`] moving a card,
    /// [`AdornedShape::intern_child_type`] adding a type,
    /// [`AdornedShape::add_instances`]) this value has taken. Unlike the
    /// dirty set it never resets, so two readings that agree mean the
    /// shape has not changed in between.
    pub fn edits(&self) -> u64 {
        self.edits
    }

    /// Mark every type's row persisted.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Start logging the count and card every edit overwrites, so a
    /// mutation whose store transaction rolls back can put the shape
    /// back with [`AdornedShape::undo_edits`]. [`AdornedShape::end_undo`]
    /// keeps the edits.
    pub(crate) fn begin_undo(&mut self) {
        self.undo = Some(Vec::new());
    }

    /// Stop logging; the edits since [`AdornedShape::begin_undo`] stand.
    pub(crate) fn end_undo(&mut self) {
        self.undo = None;
    }

    /// Restore every count and card edited since
    /// [`AdornedShape::begin_undo`] and stop logging; false, restoring
    /// nothing, when no log was open. Types interned since stay, with
    /// no instances and a `0..0` card, and stay dirty, so the next
    /// commit persists them and type ids stay dense on disk.
    pub(crate) fn undo_edits(&mut self) -> bool {
        let Some(log) = self.undo.take() else {
            return false;
        };
        for (t, count, card) in log.into_iter().rev() {
            self.counts[t.index()] = count;
            self.edge_card[t.index()] = card;
        }
        true
    }

    fn log_undo(&mut self, t: TypeId) {
        if let Some(log) = &mut self.undo {
            log.push((t, self.counts[t.index()], self.edge_card[t.index()]));
        }
    }

    /// Path cardinality (Def. 6): from `t` to `s`, travel up from `t` to
    /// the least common ancestor (`1..1` per step) and multiply the edge
    /// cardinalities going down to `s`. Returns `None` when the two types
    /// share no root.
    pub fn path_card(&self, t: TypeId, s: TypeId) -> Option<Card> {
        let lca = self.types.lca(t, s)?;
        // Walk from `s` up to the LCA, multiplying edge cards.
        let mut card = Card::one();
        let mut cur = s;
        while cur != lca {
            card = card.mul(self.card(cur));
            cur = self.types.parent(cur).expect("below-LCA type has a parent");
        }
        Some(card)
    }

    /// Serialize: [`SHAPE_BLOB_TAG`], the type count (u32 LE), then
    /// every type's [`AdornedShape::type_row`] in id order, each after
    /// its length (u32 LE).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = SHAPE_BLOB_TAG.to_vec();
        out.extend_from_slice(&(self.types.len() as u32).to_le_bytes());
        for t in self.type_ids() {
            let row = self.type_row(t);
            out.extend_from_slice(&(row.len() as u32).to_le_bytes());
            out.extend_from_slice(&row);
        }
        out
    }

    /// Inverse of [`AdornedShape::to_bytes`]: each row applies to an
    /// empty shape as the next type id, by the same
    /// [`AdornedShape::apply_type_row`] that overlays a store's rows, so
    /// a row listed before its parent or a path listed twice is `None`,
    /// as are a missing tag, a missing row, a torn length and trailing
    /// bytes. Nothing is sized from a count or length before its bytes
    /// are read.
    pub fn from_bytes(bytes: &[u8]) -> Option<AdornedShape> {
        let (n, mut rest) = bytes
            .strip_prefix(&SHAPE_BLOB_TAG)?
            .split_first_chunk::<4>()?;
        let mut shape = Self::assemble(TypeTable::new(), Vec::new(), Vec::new());
        for t in 0..u32::from_le_bytes(*n) {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (row, tail) = tail.split_at_checked(u32::from_le_bytes(*len) as usize)?;
            shape.apply_type_row(TypeId(t), row)?;
            rest = tail;
        }
        rest.is_empty().then_some(shape)
    }

    /// One type's persisted row: the edge card (17 B), the instance
    /// count (8 B LE), the parent id (4 B LE, `u32::MAX` for a root) and
    /// the element name. A shape blob is these rows, and a mutation
    /// writes one per type it changed.
    pub fn type_row(&self, t: TypeId) -> Vec<u8> {
        let name = self.types.name(t);
        let mut out = Vec::with_capacity(29 + name.len());
        out.extend_from_slice(&self.edge_card[t.index()].to_bytes());
        out.extend_from_slice(&self.counts[t.index()].to_le_bytes());
        let parent = self.types.parent(t).map_or(u32::MAX, |p| p.0);
        out.extend_from_slice(&parent.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out
    }

    /// Apply a row written by [`AdornedShape::type_row`]. The row's path
    /// must name type `t`: an existing type, or the next one to intern,
    /// a root or under a parent already present (rows apply in ascending
    /// id order). `None` means the row does not fit this shape —
    /// corruption. Applying a row is no edit and leaves no type dirty.
    pub fn apply_type_row(&mut self, t: TypeId, row: &[u8]) -> Option<()> {
        let card = Card::from_bytes(row.get(..17)?)?;
        let count = u64::from_le_bytes(row.get(17..25)?.try_into().ok()?);
        let parent = u32::from_le_bytes(row.get(25..29)?.try_into().ok()?);
        let parent = (parent != u32::MAX).then_some(TypeId(parent));
        let name = std::str::from_utf8(&row[29..]).ok()?;
        let n = self.types.len();
        if t.index() < n {
            if self.types.parent(t) != parent || self.types.name(t) != name {
                return None;
            }
            self.edge_card[t.index()] = card;
            self.counts[t.index()] = count;
        } else if t.index() == n
            && parent.is_none_or(|p| p.index() < n)
            && self.types.intern_child(parent, name) == t
        {
            self.edge_card.push(card);
            self.counts.push(count);
        } else {
            return None;
        }
        Some(())
    }

    fn assemble(types: TypeTable, edge_card: Vec<Card>, counts: Vec<u64>) -> AdornedShape {
        AdornedShape {
            types,
            edge_card,
            counts,
            dirty: BTreeSet::new(),
            edits: 0,
            undo: None,
        }
    }
}

impl fmt::Display for AdornedShape {
    /// Pretty-print the shape tree with cardinalities, matching the
    /// paper's Figure 5 presentation, e.g.:
    /// ```text
    /// data
    ///   book 1..2
    ///     title 1..1
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Depth first, each type's children pushed in reverse.
        let mut stack: Vec<TypeId> = self.types.roots().iter().rev().copied().collect();
        while let Some(t) = stack.pop() {
            let (name, indent) = (self.types.name(t), 2 * self.types.depth(t));
            match self.types.parent(t) {
                None => writeln!(f, "{name}")?,
                Some(_) => writeln!(f, "{:indent$}{name} {}", "", self.card(t))?,
            }
            let at = stack.len();
            stack.extend(self.types.children(t));
            stack[at..].reverse();
        }
        Ok(())
    }
}

fn build_rec(doc: &Document, node: xmorph_xml::NodeId, b: &mut ShapeBuilder) {
    b.open(doc.name(node));
    for (attr, _) in doc.attrs(node) {
        b.attribute(attr);
    }
    for child in doc.children(node) {
        build_rec(doc, child, b);
    }
    b.close();
}

/// One open element: its type, and where its child counts start in
/// [`ShapeBuilder`]'s `child_counts`.
struct Frame {
    type_id: TypeId,
    first_child: usize,
}

#[derive(Default, Clone, Copy)]
struct EdgeStat {
    /// Number of parent instances with at least one such child.
    parents_with: u64,
    min_nonzero: u64,
    max: u64,
}

/// Event-driven shape builder: `open`/`attribute`/`close` mirror a SAX
/// stream. The same builder serves DOM construction and the streaming
/// shredder.
#[derive(Default)]
pub struct ShapeBuilder {
    types: TypeTable,
    stack: Vec<Frame>,
    /// `(child type, count)` per distinct child type of every open
    /// element, innermost last: an element's entries start at its
    /// frame's `first_child` and go when it closes.
    child_counts: Vec<(TypeId, u64)>,
    /// Per type id: where its count under the open parent sits in
    /// `child_counts`, if it is still there. A type has one parent
    /// type, and an open path never holds two instances of one type, so
    /// one slot per type suffices and no lookup hashes.
    count_slot: Vec<usize>,
    /// Per type id: edge statistics and instance count.
    edges: Vec<EdgeStat>,
    counts: Vec<u64>,
}

impl ShapeBuilder {
    /// Enter an element named `name`; returns its type.
    pub fn open(&mut self, name: &str) -> TypeId {
        let type_id = self.types.intern_child(self.current_type(), name);
        let i = type_id.index();
        if i >= self.counts.len() {
            self.count_slot.resize(i + 1, usize::MAX);
            self.edges.resize(i + 1, EdgeStat::default());
            self.counts.resize(i + 1, 0);
        }
        if let Some(frame) = self.stack.last() {
            // Entries from `first_child` on belong to this parent.
            let slot = self.count_slot[i];
            match self.child_counts.get_mut(slot) {
                Some((t, n)) if slot >= frame.first_child && *t == type_id => *n += 1,
                _ => {
                    self.count_slot[i] = self.child_counts.len();
                    self.child_counts.push((type_id, 1));
                }
            }
        }
        self.counts[i] += 1;
        self.stack.push(Frame {
            type_id,
            first_child: self.child_counts.len(),
        });
        type_id
    }

    /// Record an attribute vertex on the currently open element. Typed as
    /// a child with name `@attr` (paper §IV counts attributes as
    /// vertices).
    pub fn attribute(&mut self, name: &str) -> TypeId {
        let id = self.open(&format!("@{name}"));
        self.close();
        id
    }

    /// Leave the current element, folding its child counts into the edge
    /// statistics.
    pub fn close(&mut self) {
        let frame = self.stack.pop().expect("close without open");
        for &(child_type, count) in &self.child_counts[frame.first_child..] {
            let stat = &mut self.edges[child_type.index()];
            stat.parents_with += 1;
            stat.max = stat.max.max(count);
            stat.min_nonzero = if stat.parents_with == 1 {
                count
            } else {
                stat.min_nonzero.min(count)
            };
        }
        self.child_counts.truncate(frame.first_child);
    }

    /// Current type on top of the stack (for the shredder).
    pub fn current_type(&self) -> Option<TypeId> {
        self.stack.last().map(|f| f.type_id)
    }

    /// Finalize into an [`AdornedShape`]. Panics if elements remain open.
    pub fn finish(self) -> AdornedShape {
        assert!(self.stack.is_empty(), "finish() with open elements");
        let types = &self.types;
        let edge_card = types.ids().map(|id| match types.parent(id) {
            None => Card::one(),
            Some(parent) => {
                let stat = self.edges[id.index()];
                // When some parent instance lacks the child, the min is 0.
                let min = if stat.parents_with < self.counts[parent.index()] {
                    0
                } else {
                    stat.min_nonzero
                };
                Card::new(min, CardMax::Finite(stat.max))
            }
        });
        let edge_card = edge_card.collect();
        AdornedShape::assemble(self.types, edge_card, self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Figure 1(a).
    fn fig1a() -> Document {
        Document::parse_str(
            "<data>\
               <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
               <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
             </data>",
        )
        .unwrap()
    }

    /// Paper Figure 1(c): normalized, author-grouped.
    fn fig1c() -> Document {
        Document::parse_str(
            "<data>\
               <author><name>Tim</name>\
                 <book><title>X</title><publisher><name>W</name></publisher></book>\
                 <book><title>Y</title><publisher><name>V</name></publisher></book>\
               </author>\
             </data>",
        )
        .unwrap()
    }

    fn ty(shape: &AdornedShape, dotted: &str) -> TypeId {
        let path: Vec<String> = dotted.split('.').map(|s| s.to_string()).collect();
        shape
            .types()
            .lookup(&path)
            .unwrap_or_else(|| panic!("no type {dotted}"))
    }

    #[test]
    fn fig1a_shape_cards() {
        let shape = AdornedShape::from_document(&fig1a());
        // Two books under one data: 2..2.
        assert_eq!(shape.card(ty(&shape, "data.book")), Card::exactly(2));
        // Each book has exactly one title/author/publisher.
        assert_eq!(shape.card(ty(&shape, "data.book.title")), Card::one());
        assert_eq!(shape.card(ty(&shape, "data.book.author.name")), Card::one());
        assert_eq!(shape.instance_count(ty(&shape, "data.book")), 2);
    }

    #[test]
    fn fig1c_shape_cards() {
        let shape = AdornedShape::from_document(&fig1c());
        // One author, two books under it: 1..2? No — the single author has
        // exactly two books, so min = max = 2.
        assert_eq!(shape.card(ty(&shape, "data.author.book")), Card::exactly(2));
        assert_eq!(shape.card(ty(&shape, "data.author")), Card::one());
    }

    #[test]
    fn optional_child_gets_min_zero() {
        let doc = Document::parse_str("<d><a><x/></a><a/><a><x/><x/></a></d>").unwrap();
        let shape = AdornedShape::from_document(&doc);
        let x = ty(&shape, "d.a.x");
        // One of the three <a> parents has no <x>: min 0, max 2.
        assert_eq!(shape.card(x), Card::new(0, CardMax::Finite(2)));
    }

    #[test]
    fn attributes_become_typed_vertices() {
        let doc = Document::parse_str(r#"<d><a id="1"/><a id="2"/></d>"#).unwrap();
        let shape = AdornedShape::from_document(&doc);
        let at = ty(&shape, "d.a.@id");
        assert_eq!(shape.card(at), Card::one());
        assert_eq!(shape.instance_count(at), 2);
    }

    #[test]
    fn roots_and_children() {
        let shape = AdornedShape::from_document(&fig1a());
        assert_eq!(shape.types().roots().len(), 1);
        let data = shape.types().roots()[0];
        assert_eq!(shape.types().name(data), "data");
        let kids: Vec<&str> = shape
            .types()
            .children(data)
            .map(|c| shape.types().name(c))
            .collect();
        assert_eq!(kids, vec!["book"]);
    }

    #[test]
    fn path_card_down() {
        let shape = AdornedShape::from_document(&fig1a());
        let data = ty(&shape, "data");
        let name = ty(&shape, "data.book.author.name");
        // data → book (2..2) → author (1..1) → name (1..1) = 2..2.
        assert_eq!(shape.path_card(data, name), Some(Card::exactly(2)));
    }

    #[test]
    fn path_card_up_is_one() {
        let shape = AdornedShape::from_document(&fig1a());
        let name = ty(&shape, "data.book.author.name");
        let data = ty(&shape, "data");
        assert_eq!(shape.path_card(name, data), Some(Card::one()));
    }

    #[test]
    fn path_card_across() {
        let shape = AdornedShape::from_document(&fig1a());
        let title = ty(&shape, "data.book.title");
        let pubname = ty(&shape, "data.book.publisher.name");
        // LCA is book; down to publisher.name: 1..1 × 1..1 = 1..1.
        assert_eq!(shape.path_card(title, pubname), Some(Card::one()));
    }

    #[test]
    fn path_card_same_type() {
        let shape = AdornedShape::from_document(&fig1a());
        let title = ty(&shape, "data.book.title");
        assert_eq!(shape.path_card(title, title), Some(Card::one()));
    }

    #[test]
    fn serialization_round_trip() {
        let shape = AdornedShape::from_document(&fig1a());
        let back = AdornedShape::from_bytes(&shape.to_bytes()).unwrap();
        assert_eq!(back.types().len(), shape.types().len());
        for id in shape.type_ids() {
            assert_eq!(back.types().path(id), shape.types().path(id));
            assert_eq!(back.card(id), shape.card(id));
            assert_eq!(back.instance_count(id), shape.instance_count(id));
        }
        assert_eq!(back.types().roots(), shape.types().roots());
        assert_eq!(back.dirty_types().count(), 0);
    }

    /// A shape blob of one-instance types, paths in the order given,
    /// each row naming its parent by the parent path's place in `paths`.
    fn blob(paths: &[&[&str]]) -> Vec<u8> {
        let mut out = SHAPE_BLOB_TAG.to_vec();
        out.extend_from_slice(&(paths.len() as u32).to_le_bytes());
        for path in paths {
            let (name, up) = path.split_last().unwrap();
            let parent = paths
                .iter()
                .position(|&p| p == up)
                .map_or(u32::MAX, |i| i as u32);
            let mut row = Card::one().to_bytes().to_vec();
            row.extend_from_slice(&1u64.to_le_bytes());
            row.extend_from_slice(&parent.to_le_bytes());
            row.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(row.len() as u32).to_le_bytes());
            out.extend_from_slice(&row);
        }
        out
    }

    #[test]
    fn from_bytes_rejects_a_child_before_its_parent() {
        assert!(AdornedShape::from_bytes(&blob(&[&["a", "b"], &["a"]])).is_none());
        let shape = AdornedShape::from_bytes(&blob(&[&["a"], &["a", "b"]])).unwrap();
        assert_eq!(shape.types().dotted(TypeId(1)), "a.b");
    }

    #[test]
    fn from_bytes_rejects_a_repeated_path() {
        assert!(AdornedShape::from_bytes(&blob(&[&["a"], &["a"]])).is_none());
        assert!(AdornedShape::from_bytes(&blob(&[&["a"], &["a", "b"], &["a", "b"]])).is_none());
    }

    /// Every torn or lengthened copy of a real blob decodes to `None`,
    /// and a blob in the earlier path format is not a blob at all.
    #[test]
    fn from_bytes_rejects_every_prefix_and_an_extra_byte() {
        use xmorph_datagen::XmarkConfig;
        let xml = XmarkConfig::with_factor(0.05).generate();
        let bytes = AdornedShape::from_document(&Document::parse_str(&xml).unwrap()).to_bytes();
        assert!(AdornedShape::from_bytes(&bytes).is_some());
        for end in 0..bytes.len() {
            assert!(AdornedShape::from_bytes(&bytes[..end]).is_none(), "{end}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(AdornedShape::from_bytes(&longer).is_none());
        // A count, or a row length, that runs past the blob.
        let mut torn = bytes[..8].to_vec();
        torn.extend_from_slice(&u32::MAX.to_le_bytes());
        torn.extend_from_slice(&bytes[12..60]);
        assert!(AdornedShape::from_bytes(&torn).is_none());
        torn[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(AdornedShape::from_bytes(&torn).is_none());
    }

    /// A blob holds each type's name once, so a chain's blob grows
    /// linearly in its depth.
    #[test]
    fn a_deep_chain_blob_is_linear_in_its_depth() {
        let xml = format!("{}{}", "<a>".repeat(127), "</a>".repeat(127));
        let shape = AdornedShape::from_document(&Document::parse_str(&xml).unwrap());
        assert_eq!(shape.types().len(), 127);
        let bytes = shape.to_bytes();
        assert!(bytes.len() <= 5_000, "{} B", bytes.len());
        let back = AdornedShape::from_bytes(&bytes).unwrap();
        assert_eq!(back.types().depth(TypeId(126)), 126);
    }

    #[test]
    fn from_bytes_rejects_trailing_and_missing_bytes() {
        let bytes = AdornedShape::from_document(&fig1a()).to_bytes();
        assert!(AdornedShape::from_bytes(&bytes).is_some());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(AdornedShape::from_bytes(&longer).is_none());
        assert!(AdornedShape::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn type_rows_overlay_onto_the_base_blob() {
        let base = AdornedShape::from_document(&fig1a());
        let mut live = base.clone();
        let book = ty(&live, "data.book");
        let review = live.intern_child_type(book, "review");
        let stars = live.intern_child_type(review, "@stars");
        live.add_instances(review, 1);
        live.add_instances(stars, 1);
        live.set_card(review, Card::new(0, CardMax::Finite(1)));
        live.add_instances(book, -1);
        // An unchanged card is no edit.
        live.set_card(book, live.card(book));
        let dirty: Vec<TypeId> = live.dirty_types().collect();
        assert_eq!(dirty, [book, review, stars]);
        let mut back = AdornedShape::from_bytes(&base.to_bytes()).unwrap();
        for &t in &dirty {
            back.apply_type_row(t, &live.type_row(t)).unwrap();
        }
        assert_eq!(back.to_bytes(), live.to_bytes());
        assert!(back.types().children(book).eq(live.types().children(book)));
        assert_eq!(back.dirty_types().count(), 0);
        live.clear_dirty();
        assert_eq!(live.dirty_types().count(), 0);
        // Out-of-order rows, and rows whose path names another type,
        // are refused.
        let mut fresh = AdornedShape::from_bytes(&base.to_bytes()).unwrap();
        assert!(fresh.apply_type_row(stars, &live.type_row(stars)).is_none());
        assert!(fresh.apply_type_row(book, &live.type_row(review)).is_none());
    }

    #[test]
    fn display_is_indented_tree() {
        let shape = AdornedShape::from_document(&fig1a());
        let s = shape.to_string();
        assert!(s.starts_with("data\n"), "{s}");
        assert!(s.contains("  book 2..2\n"), "{s}");
        assert!(s.contains("    title 1..1\n"), "{s}");
    }

    #[test]
    fn builder_counts_instances() {
        let shape = AdornedShape::from_document(&fig1c());
        assert_eq!(shape.instance_count(ty(&shape, "data.author.book")), 2);
        assert_eq!(
            shape.instance_count(ty(&shape, "data.author.book.title")),
            2
        );
        // data(1) + author(1) + name(1) + book(2) + title(2) +
        // publisher(2) + publisher.name(2) = 11 vertices.
        assert_eq!(shape.total_instances(), 11);
    }

    /// FNV-1a64 of the shape blob, and of every type row in id order
    /// (each row's sum folded into one running sum).
    fn persisted_sums(shape: &AdornedShape) -> (u64, u64) {
        use xmorph_pagestore::checksum::{fnv1a64, fnv1a64_extend};
        let blob = fnv1a64(&shape.to_bytes());
        let rows = shape.type_ids().fold(fnv1a64(b""), |acc, t| {
            fnv1a64_extend(acc, &fnv1a64(&shape.type_row(t)).to_le_bytes())
        });
        (blob, rows)
    }

    /// The persisted shape bytes are a format. The row sums were taken
    /// from the `Vec<String>`-path type table this one replaced, and
    /// existing stores hold rows in that format, so they must not move.
    /// The blob sums were taken from the first writer of the row blob.
    #[test]
    fn persisted_bytes_known_answers() {
        use xmorph_datagen::{DblpConfig, NasaConfig, XmarkConfig};
        let docs = [
            ("fig1a", fig1a()),
            (
                "xmark-0.05",
                Document::parse_str(&XmarkConfig::with_factor(0.05).generate()).unwrap(),
            ),
            (
                "dblp",
                Document::parse_str(&DblpConfig::with_approx_bytes(200_000).generate()).unwrap(),
            ),
            (
                "nasa",
                Document::parse_str(&NasaConfig::with_approx_bytes(200_000).generate()).unwrap(),
            ),
        ];
        let got: Vec<(&str, usize, u64, u64)> = docs
            .iter()
            .map(|(name, doc)| {
                let shape = AdornedShape::from_document(doc);
                let (blob, rows) = persisted_sums(&shape);
                (*name, shape.types().len(), blob, rows)
            })
            .collect();
        let want: [(&str, usize, u64, u64); 4] = [
            ("fig1a", 7, 0x537c_a2a1_83a6_b317, 0xc51b_4000_67f9_ce45),
            (
                "xmark-0.05",
                519,
                0xfc6d_a8c7_6460_c5df,
                0x6d27_4e8e_c68c_087e,
            ),
            ("dblp", 55, 0x201f_9367_29b4_0caa, 0x3c65_4c8a_81ba_1e79),
            ("nasa", 47, 0x153a_81db_4fab_2068, 0x4747_4c8f_4b59_14ec),
        ];
        assert_eq!(got, want, "{got:#x?}");
    }
}
