//! Root-path types.
//!
//! The paper's default `typeOf` (§IV): *"the type is specified as a
//! concatenation of the names of the elements on the path from the data
//! root to the vertex"*. Two consequences this crate exploits everywhere:
//!
//! 1. Types form a tree — the data guide — because a type's parent is the
//!    type of its path minus the last name.
//! 2. Every instance of a type sits at the same depth, so the closest
//!    join can locate least common ancestors at a known Dewey level (§VII).
//!
//! The table stores that tree once: one fixed-size record per type, its
//! own name a slice of one arena. A path is a walk up the parents. The
//! table has no codec of its own: a store persists it as the adorned
//! shape's per-type rows (parent id and name,
//! [`crate::model::shape::AdornedShape::type_row`]), so decoding interns
//! one child per type.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Interned identifier of a type (an index into a [`TypeTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// No type: a root's parent, an end of a child list, an empty slot.
const NONE: u32 = u32::MAX;

fn link(id: u32) -> Option<TypeId> {
    (id != NONE).then_some(TypeId(id))
}

/// One node of the data guide. Children are linked in interning order.
#[derive(Debug, Clone, Copy)]
struct TypeRecord {
    parent: u32,
    /// Byte range of the name in the table's arena.
    name: (u32, u32),
    depth: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
}

const _: () = assert!(std::mem::size_of::<TypeRecord>() == 28);

/// Interning table of root-path types for one data collection.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    records: Vec<TypeRecord>,
    /// Every type's element name, back to back.
    names: String,
    /// Root types (single-name paths), in interning order.
    roots: Vec<TypeId>,
    /// The child index: type ids in open addressing by `(parent, name)`,
    /// read through the records, so a hit hashes the name once and
    /// allocates nothing. A power of two long, at most half full.
    slots: Vec<u32>,
    /// Names come from documents, so the index hashes with random keys:
    /// no input can pick names that all collide.
    hasher: RandomState,
}

impl TypeTable {
    /// Empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Number of distinct types.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no types are interned.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Intern the type for `path`, interning all ancestor paths too.
    pub fn intern(&mut self, path: &[String]) -> TypeId {
        let t = path
            .iter()
            .fold(None, |t, name| Some(self.intern_child(t, name)));
        t.expect("type path cannot be empty")
    }

    /// Intern a child type: the parent's path extended by `name`, or
    /// the root type `name` when `parent` is `None`.
    pub fn intern_child(&mut self, parent: Option<TypeId>, name: &str) -> TypeId {
        let parent = parent.map_or(NONE, |p| p.0);
        if 2 * (self.records.len() + 1) > self.slots.len() {
            self.slots = vec![NONE; (2 * self.slots.len()).max(16)];
            for t in self.ids() {
                let slot = self.slot(self.records[t.index()].parent, self.name(t));
                self.slots[slot] = t.0;
            }
        }
        let slot = self.slot(parent, name);
        if let Some(id) = link(self.slots[slot]) {
            return id;
        }
        let id = self.records.len() as u32;
        self.slots[slot] = id;
        let start = self.names.len() as u32;
        self.names.push_str(name);
        let mut record = TypeRecord {
            parent,
            name: (start, self.names.len() as u32),
            depth: 0,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
        };
        match link(parent) {
            None => self.roots.push(TypeId(id)),
            Some(p) => {
                let p = &mut self.records[p.index()];
                record.depth = p.depth + 1;
                match link(std::mem::replace(&mut p.last_child, id)) {
                    None => p.first_child = id,
                    Some(last) => self.records[last.index()].next_sibling = id,
                }
            }
        }
        self.records.push(record);
        TypeId(id)
    }

    /// The slot holding `(parent, name)`'s type, or the empty slot where
    /// it would go. Only the name is hashed; the parent id offsets it.
    fn slot(&self, parent: u32, name: &str) -> usize {
        let h = self.hasher.hash_one(name) ^ u64::from(parent).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut i = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        while let Some(t) = self.slots.get(i).and_then(|&t| link(t)) {
            if self.records[t.index()].parent == parent && self.name(t) == name {
                break;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
        i
    }

    /// The type `name` under `parent` (a root when `None`), if interned.
    fn find(&self, parent: Option<TypeId>, name: &str) -> Option<TypeId> {
        let slot = self.slot(parent.map_or(NONE, |p| p.0), name);
        link(*self.slots.get(slot)?)
    }

    /// Look up a type by its exact path.
    pub fn lookup(&self, path: &[String]) -> Option<TypeId> {
        path.iter()
            .try_fold(None, |t, name| self.find(t, name).map(Some))?
    }

    /// The root path of names for a type.
    pub fn path(&self, id: TypeId) -> Vec<String> {
        let up = std::iter::successors(Some(id), |&t| self.parent(t));
        let mut path: Vec<String> = up.map(|t| self.name(t).to_string()).collect();
        path.reverse();
        path
    }

    /// The element name of the type (last path segment).
    pub fn name(&self, id: TypeId) -> &str {
        let (start, end) = self.records[id.index()].name;
        &self.names[start as usize..end as usize]
    }

    /// The parent type (path minus last segment), or `None` for roots.
    pub fn parent(&self, id: TypeId) -> Option<TypeId> {
        link(self.records[id.index()].parent)
    }

    /// Child types of `id`, in interning order.
    pub fn children(&self, id: TypeId) -> impl Iterator<Item = TypeId> + '_ {
        let first = link(self.records[id.index()].first_child);
        std::iter::successors(first, |&c| link(self.records[c.index()].next_sibling))
    }

    /// Root types (single-name paths), in interning order — the
    /// paper's `roots(S)`.
    pub fn roots(&self) -> &[TypeId] {
        &self.roots
    }

    /// Depth of the type: roots are at depth 0. Equals the shared depth
    /// of every instance.
    pub fn depth(&self, id: TypeId) -> usize {
        self.records[id.index()].depth as usize
    }

    /// Dewey length of instances of this type (root instances have
    /// length 1).
    pub fn dewey_len(&self, id: TypeId) -> usize {
        self.depth(id) + 1
    }

    /// Dotted display name, e.g. `data.book.author`.
    pub fn dotted(&self, id: TypeId) -> String {
        self.path(id).join(".")
    }

    /// All type ids, in interning order.
    pub fn ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.records.len() as u32).map(TypeId)
    }

    /// Types matching a guard label (§VI): a bare label matches every
    /// type whose element name equals it; a dotted label such as
    /// `book.author` matches types whose path *ends with* those segments
    /// (the paper's disambiguation device).
    pub fn matching(&self, label: &str) -> Vec<TypeId> {
        self.ids()
            .filter(|&id| label_matches(label, id, |t| (self.name(t), self.parent(t))))
            .collect()
    }

    /// The least common ancestor of two types, or `None` when their
    /// roots differ. Interning is unique, so two types at one depth
    /// are equal exactly when their paths are.
    pub fn lca(&self, mut a: TypeId, mut b: TypeId) -> Option<TypeId> {
        while a != b {
            let (da, db) = (self.depth(a), self.depth(b));
            if da >= db {
                a = self.parent(a)?;
            }
            if db >= da {
                b = self.parent(b)?;
            }
        }
        Some(a)
    }

    /// Tree distance between the two types *in the data guide* — the
    /// lower bound on (and usual value of) the paper's `typeDistance`.
    /// The exact data-backed value lives on
    /// [`crate::store::shredded::Snapshot::type_distance_exact`].
    pub fn guide_distance(&self, a: TypeId, b: TypeId) -> Option<usize> {
        let l = self.depth(self.lca(a, b)?);
        Some(self.depth(a) + self.depth(b) - 2 * l)
    }
}

/// The dotted-suffix label rule of §VI, for any tree of named nodes:
/// `label`'s segments, read from the last, equal the names met walking
/// up from `node`. `up` gives a node's name and parent.
pub(crate) fn label_matches<'a, N>(
    label: &str,
    node: N,
    up: impl Fn(N) -> (&'a str, Option<N>),
) -> bool {
    let mut cur = Some(node);
    label.rsplit('.').all(|seg| match cur.take().map(&up) {
        Some((name, parent)) => {
            cur = parent;
            name == seg
        }
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = TypeTable::new();
        let a = t.intern(&p(&["data", "book"]));
        let b = t.intern(&p(&["data", "book"]));
        assert_eq!(a, b);
        assert_eq!(t.len(), 2); // data + data.book
    }

    #[test]
    fn ancestors_are_interned() {
        let mut t = TypeTable::new();
        let author = t.intern(&p(&["data", "book", "author"]));
        assert_eq!(t.depth(author), 2);
        let book = t.parent(author).unwrap();
        assert_eq!(t.name(book), "book");
        let data = t.parent(book).unwrap();
        assert_eq!(t.name(data), "data");
        assert_eq!(t.parent(data), None);
    }

    #[test]
    fn label_matching_bare_and_dotted() {
        let mut t = TypeTable::new();
        let book_author = t.intern(&p(&["d", "book", "author"]));
        let journal_author = t.intern(&p(&["d", "journal", "author"]));
        let both = t.matching("author");
        assert_eq!(both.len(), 2);
        assert_eq!(t.matching("book.author"), vec![book_author]);
        assert_eq!(t.matching("journal.author"), vec![journal_author]);
        assert!(t.matching("editor").is_empty());
    }

    #[test]
    fn guide_distance_examples() {
        let mut t = TypeTable::new();
        // Fig 1(a): data/book/{title, author/name, publisher/name}
        let title = t.intern(&p(&["data", "book", "title"]));
        let publisher = t.intern(&p(&["data", "book", "publisher"]));
        let author_name = t.intern(&p(&["data", "book", "author", "name"]));
        assert_eq!(t.guide_distance(title, publisher), Some(2));
        assert_eq!(t.guide_distance(publisher, author_name), Some(3));
        assert_eq!(t.guide_distance(title, title), Some(0));
        let book = t.parent(title).unwrap();
        assert_eq!(t.guide_distance(book, author_name), Some(2));
    }

    #[test]
    fn distance_none_for_disjoint_roots() {
        let mut t = TypeTable::new();
        let a = t.intern(&p(&["a", "x"]));
        let b = t.intern(&p(&["b", "y"]));
        assert_eq!(t.guide_distance(a, b), None);
    }

    #[test]
    fn serialization_round_trip_preserves_ids() {
        // The table persists inside the shape blob, so round-trip it
        // through the shape codec.
        use crate::model::shape::{AdornedShape, ShapeBuilder};
        let mut t = TypeTable::new();
        let ids: Vec<TypeId> = [
            p(&["data"]),
            p(&["data", "book"]),
            p(&["data", "book", "title"]),
            p(&["data", "book", "author"]),
        ]
        .iter()
        .map(|path| t.intern(path))
        .collect();
        let mut b = ShapeBuilder::default();
        b.open("data");
        b.open("book");
        b.open("title");
        b.close();
        b.open("author");
        b.close();
        b.close();
        b.close();
        let shape = b.finish();
        let back = AdornedShape::from_bytes(&shape.to_bytes()).unwrap();
        assert_eq!(back.types().len(), t.len());
        for id in ids {
            assert_eq!(back.types().path(id), t.path(id));
        }
    }

    #[test]
    fn dotted_name() {
        let mut t = TypeTable::new();
        let id = t.intern(&p(&["data", "book", "author"]));
        assert_eq!(t.dotted(id), "data.book.author");
    }

    #[test]
    fn children_and_roots_keep_interning_order() {
        let mut t = TypeTable::new();
        let b = t.intern(&p(&["r", "b"]));
        let a = t.intern(&p(&["r", "a"]));
        let x = t.intern(&p(&["x"]));
        let r = t.parent(a).unwrap();
        assert_eq!(t.children(r).collect::<Vec<_>>(), [b, a]);
        assert_eq!(t.children(a).count(), 0);
        assert_eq!(t.roots(), [r, x]);
        assert_eq!(t.lca(a, b), Some(r));
        assert_eq!(t.lca(a, x), None);
        assert_eq!(t.path(a), p(&["r", "a"]));
    }

    /// The child index answers by `(parent, name)`, so a parent with
    /// 50k distinct children interns in linear time.
    #[test]
    fn a_wide_parent_interns_in_linear_time() {
        let mut t = TypeTable::new();
        let root = t.intern_child(None, "root");
        let names: Vec<String> = (0..50_000).map(|i| format!("c{i}")).collect();
        let start = std::time::Instant::now();
        let ids: Vec<TypeId> = names
            .iter()
            .map(|n| t.intern_child(Some(root), n))
            .collect();
        for (n, &id) in names.iter().zip(&ids) {
            assert_eq!(t.intern_child(Some(root), n), id);
            assert_eq!(t.lookup(&[String::from("root"), n.clone()]), Some(id));
        }
        let elapsed = start.elapsed();
        assert!(t.children(root).eq(ids.iter().copied()));
        assert!(elapsed.as_secs() < 2, "took {elapsed:?}");
    }
}
