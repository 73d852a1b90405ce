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

use std::collections::HashMap;
use std::fmt;

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

#[derive(Debug, Clone)]
struct TypeInfo {
    /// Element names from the root, e.g. `["data", "book", "author"]`.
    path: Vec<String>,
    parent: Option<TypeId>,
}

/// Interning table of root-path types for one data collection.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    infos: Vec<TypeInfo>,
    by_path: HashMap<Vec<String>, TypeId>,
    /// Children of each type keyed by their last path name, indexed by
    /// the parent's `TypeId`. The shredder interns one type per element
    /// via [`TypeTable::intern_child`]; this index answers the hot
    /// already-interned case without cloning or hashing the full path.
    child_names: Vec<HashMap<String, TypeId>>,
    /// Root types (single-name paths) by name.
    root_names: HashMap<String, TypeId>,
}

impl TypeTable {
    /// Empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Number of distinct types.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True if no types are interned.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Intern the type for `path`, interning all ancestor paths too.
    pub fn intern(&mut self, path: &[String]) -> TypeId {
        assert!(!path.is_empty(), "type path cannot be empty");
        if let Some(&id) = self.by_path.get(path) {
            return id;
        }
        let parent = if path.len() > 1 {
            Some(self.intern(&path[..path.len() - 1]))
        } else {
            None
        };
        let id = TypeId(self.infos.len() as u32);
        self.infos.push(TypeInfo {
            path: path.to_vec(),
            parent,
        });
        self.by_path.insert(path.to_vec(), id);
        self.child_names.push(HashMap::new());
        let name = path.last().expect("non-empty path").clone();
        match parent {
            Some(p) => {
                self.child_names[p.index()].insert(name, id);
            }
            None => {
                self.root_names.insert(name, id);
            }
        }
        id
    }

    /// Intern a child type: the parent's path extended by `name`.
    pub fn intern_child(&mut self, parent: TypeId, name: &str) -> TypeId {
        if let Some(&id) = self.child_names[parent.index()].get(name) {
            return id;
        }
        let mut path = self.infos[parent.index()].path.clone();
        path.push(name.to_string());
        let id = TypeId(self.infos.len() as u32);
        self.infos.push(TypeInfo {
            path: path.clone(),
            parent: Some(parent),
        });
        self.by_path.insert(path, id);
        self.child_names.push(HashMap::new());
        self.child_names[parent.index()].insert(name.to_string(), id);
        id
    }

    /// Look up a type by its exact path.
    pub fn lookup(&self, path: &[String]) -> Option<TypeId> {
        self.by_path.get(path).copied()
    }

    /// The root path of names for a type.
    pub fn path(&self, id: TypeId) -> &[String] {
        &self.infos[id.index()].path
    }

    /// The element name of the type (last path segment).
    pub fn name(&self, id: TypeId) -> &str {
        self.infos[id.index()].path.last().expect("non-empty path")
    }

    /// The parent type (path minus last segment), or `None` for roots.
    pub fn parent(&self, id: TypeId) -> Option<TypeId> {
        self.infos[id.index()].parent
    }

    /// Depth of the type: roots are at depth 0. Equals the shared depth
    /// of every instance.
    pub fn depth(&self, id: TypeId) -> usize {
        self.infos[id.index()].path.len() - 1
    }

    /// Dewey length of instances of this type (root instances have
    /// length 1).
    pub fn dewey_len(&self, id: TypeId) -> usize {
        self.infos[id.index()].path.len()
    }

    /// Dotted display name, e.g. `data.book.author`.
    pub fn dotted(&self, id: TypeId) -> String {
        self.infos[id.index()].path.join(".")
    }

    /// All type ids, in interning order.
    pub fn ids(&self) -> impl Iterator<Item = TypeId> {
        (0..self.infos.len() as u32).map(TypeId)
    }

    /// Types matching a guard label (§VI): a bare label matches every
    /// type whose element name equals it; a dotted label such as
    /// `book.author` matches types whose path *ends with* those segments
    /// (the paper's disambiguation device).
    pub fn matching(&self, label: &str) -> Vec<TypeId> {
        let segments: Vec<&str> = label.split('.').collect();
        self.ids()
            .filter(|&id| {
                let path = self.path(id);
                path.len() >= segments.len()
                    && path[path.len() - segments.len()..]
                        .iter()
                        .zip(&segments)
                        .all(|(p, s)| p == s)
            })
            .collect()
    }

    /// Length of the common path prefix of two types (≥ 1 when both
    /// types come from the same rooted document; 0 when their roots
    /// differ).
    pub fn common_prefix_len(&self, a: TypeId, b: TypeId) -> usize {
        let pa = self.path(a);
        let pb = self.path(b);
        pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count()
    }

    /// Tree distance between the two types *in the data guide* — the
    /// lower bound on (and usual value of) the paper's `typeDistance`.
    /// The exact data-backed value lives on
    /// [`crate::store::shredded::Snapshot::type_distance_exact`].
    pub fn guide_distance(&self, a: TypeId, b: TypeId) -> Option<usize> {
        let l = self.common_prefix_len(a, b);
        if l == 0 {
            return None;
        }
        Some(self.path(a).len() + self.path(b).len() - 2 * l)
    }

    /// Serialize the table (paths only) for persistence.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.infos.len() as u32).to_le_bytes());
        for info in &self.infos {
            out.extend_from_slice(&(info.path.len() as u32).to_le_bytes());
            for seg in &info.path {
                out.extend_from_slice(&(seg.len() as u32).to_le_bytes());
                out.extend_from_slice(seg.as_bytes());
            }
        }
        out
    }

    /// Inverse of [`TypeTable::to_bytes`]. Interning order is preserved,
    /// so `TypeId`s remain stable across a save/load cycle.
    pub fn from_bytes(bytes: &[u8]) -> Option<TypeTable> {
        let mut table = TypeTable::new();
        let mut off = 0usize;
        let read_u32 = |bytes: &[u8], off: &mut usize| -> Option<u32> {
            let v = u32::from_le_bytes(bytes.get(*off..*off + 4)?.try_into().ok()?);
            *off += 4;
            Some(v)
        };
        let n = read_u32(bytes, &mut off)?;
        // Torn shape bytes must decode to `None`, not panic or balloon:
        // every entry and path segment costs at least 4 bytes, so a
        // count the remaining bytes cannot hold is corruption.
        if n as usize > bytes.len() / 4 {
            return None;
        }
        for _ in 0..n {
            let plen = read_u32(bytes, &mut off)? as usize;
            if plen == 0 || plen > (bytes.len() - off) / 4 {
                return None;
            }
            let mut path = Vec::with_capacity(plen);
            for _ in 0..plen {
                let slen = read_u32(bytes, &mut off)? as usize;
                let seg = std::str::from_utf8(bytes.get(off..off + slen)?).ok()?;
                off += slen;
                path.push(seg.to_string());
            }
            table.intern(&path);
        }
        Some(table)
    }
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
        let bytes = t.to_bytes();
        let t2 = TypeTable::from_bytes(&bytes).unwrap();
        assert_eq!(t2.len(), t.len());
        for id in ids {
            assert_eq!(t2.path(id), t.path(id));
        }
    }

    #[test]
    fn dotted_name() {
        let mut t = TypeTable::new();
        let id = t.intern(&p(&["data", "book", "author"]));
        assert_eq!(t.dotted(id), "data.book.author");
    }
}
