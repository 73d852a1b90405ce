//! The document mutation write path: in-place subtree insertion,
//! subtree deletion, and text updates on a [`ShreddedDoc`], with
//! incremental maintenance of every derived structure — the `typeseq`
//! tree, the adorned shape, and the per-type columns.
//!
//! Fig. 8's `Nodes` table has no tree of its own here: `typeseq` holds
//! each vertex once, and a Dewey number's type comes from a walk of the
//! shape over it ([`ShreddedDoc::node_type`]). Since all instances of a
//! type share one depth, every question the writer asks about a node's
//! children is one `typeseq` probe per child type of the node: the
//! occupant of a label, the last child ordinal, the ordinal gap before
//! a sibling. A subtree is one prefix range per descendant type, and
//! the walk descends only into types whose range held rows; a delete
//! removes each range with one [`Tree::delete_prefix`].
//!
//! The seed store was write-once: the only way to change a document
//! was a full re-shred, which bumped the store-wide column generation
//! (`meta["colgen"]`) and invalidated *every* persisted column
//! segment. This module pulls those assumptions apart:
//!
//! * **Dewey allocation is gap-aware.** Appending a child takes the
//!   next free ordinal. Inserting *before* a sibling takes the
//!   midpoint of the ordinal gap when one exists (deletes and earlier
//!   renumbers leave gaps), so sibling inserts usually renumber
//!   nothing. Only when the gap is exhausted does the insert fall back
//!   to a **local renumber**: the trailing siblings move to fresh
//!   ordinals strided by [`GAP_STRIDE`] above the current maximum —
//!   seeding the gaps that make the *next* insert in the same place
//!   cheap. Renumbering is local to one parent's child list; ancestors
//!   and the rest of the document keep their labels.
//! * **Column maintenance is per type.** A mutation touches a handful
//!   of types; each touched type gets a fresh *per-type* generation
//!   (`meta["tygen." + id]`) instead of the store-wide bump. A touched
//!   type whose [`TypeColumn`] is cached is updated in place by a
//!   sorted-run merge (document order, `prefix_range` and the
//!   `closest_*` joins stay correct); an uncached one is merely
//!   invalidated — its stale persisted segment is dropped and the
//!   column rebuilds lazily on next touch. The other ~500 types'
//!   columns and segments stay valid against the store-wide
//!   generation.
//! * **Shape maintenance is conservative-exact.** Instance counts are
//!   maintained exactly. Edge cardinalities only ever *widen*: an
//!   insert folds the new parent instance's child counts into each
//!   edge (and drags `min` to 0 for known child types the new instance
//!   lacks); a delete re-counts the affected parent's children of the
//!   deleted type and lowers `min` accordingly. Bounds never tighten
//!   on mutation, so every shape-level theorem that held before a
//!   mutation still holds after it.
//! * **Every cost is local.** The next ordinal is one seek per child
//!   type of the parent, sibling counts are per-leaf binary searches
//!   ([`Tree::count_prefix`]), and the shape persists as one small
//!   `meta["shape." ‖ type id]` row per type whose card or count moved
//!   (or that was interned), not as a rewrite of the whole shape. A
//!   structural mutation therefore costs O(log n + the rows it changes).
//!
//! [`Tree::count_prefix`]: xmorph_pagestore::Tree::count_prefix
//! [`Tree::delete_prefix`]: xmorph_pagestore::Tree::delete_prefix
//!
//! Mutations take `&mut self`: the borrow checker serializes writers
//! against readers on the same handle. Concurrent readers go through
//! [`Snapshot`] handles (see `ShreddedDoc::snapshot`), and every
//! public mutation here upholds the snapshot protocol: it takes the
//! shared writer gate for the span of its tree writes (excluding
//! snapshot lazy loads from torn ranges), copy-on-write pins the
//! pre-mutation column of every touched type into each live snapshot
//! *before* the first tree write, and bumps the document epoch +
//! per-type touched map when the deltas land. Snapshots already
//! handed out (an `Arc<TypeColumn>`, a [`ClosestCursor`]) keep
//! serving the pre-mutation state; re-acquire them after mutating.
//!
//! [`Snapshot`]: crate::store::shredded::Snapshot
//!
//! ```
//! use xmorph_core::ShreddedDoc;
//! use xmorph_pagestore::Store;
//!
//! let store = Store::in_memory();
//! let mut doc = ShreddedDoc::shred_str(&store, "<d><a>x</a></d>").unwrap();
//! doc.update_text(&"1.1".parse().unwrap(), "y").unwrap();
//! let inserted = doc.insert_subtree(&"1".parse().unwrap(), "<a>z</a>").unwrap();
//! assert_eq!(inserted.to_string(), "1.2");
//! let a = doc.types().lookup(&["d".into(), "a".into()]).unwrap();
//! let texts: Vec<String> = doc.scan_type(a).into_iter().map(|(_, t)| t).collect();
//! assert_eq!(texts, ["y", "z"]);
//! ```
//!
//! [`TypeColumn`]: crate::store::shredded::TypeColumn
//! [`ClosestCursor`]: crate::store::shredded::ClosestCursor

use crate::error::{MorphError, MorphResult, StoreOpExt};
use crate::model::card::{Card, CardMax};
use crate::model::shape::AdornedShape;
use crate::model::types::TypeId;
use crate::store::colseg;
use crate::store::shredded::{
    shape_row_key, tygen_key, typeseq_key, typeseq_key_into, ShreddedDoc, TypeColumn,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xmorph_pagestore::Txn;
use xmorph_xml::dewey::{decode_components_into, Dewey};
use xmorph_xml::reader::{XmlEvent, XmlReader};

/// Ordinal stride used when an insert-before exhausts its gap and the
/// trailing siblings renumber: consecutive renumbered siblings land
/// `GAP_STRIDE` apart, so the next few inserts in the same spot find
/// midpoints instead of renumbering again.
pub const GAP_STRIDE: u32 = 8;

/// Column-maintenance counters for one [`ShreddedDoc`] handle,
/// reported by [`ShreddedDoc::maintenance_stats`]. The interesting
/// ratio is `column_rebuilds` against the type count: per-type
/// generations keep a small mutation from re-decoding the whole
/// column cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Cached columns updated in place by a sorted-run merge.
    pub merged_columns: u64,
    /// Columns invalidated outright (uncached at mutation time); they
    /// rebuild lazily if and when next touched.
    pub invalidated_columns: u64,
    /// Full column decodes from the `typeseq` tree (loads without a
    /// usable persisted segment) since this handle opened, counting the
    /// loads of every snapshot it published.
    pub column_rebuilds: u64,
}

fn mutation_err(message: impl Into<String>) -> MorphError {
    MorphError::Mutation {
        message: message.into(),
    }
}

/// The net row change a mutation makes to one type's column, keyed by
/// Dewey component rows (fixed width per type, so plain lexicographic
/// order *is* document order).
///
/// Deltas accumulate in `ShreddedDoc::pending_deltas` until the column
/// is next read, so a burst of updates pays for one merge, not one per
/// update. Merging is idempotent over a base that already contains the
/// delta (adds replace same-key rows, removes of absent rows are
/// no-ops), which is what makes it safe to re-apply a pending delta
/// over a column freshly rebuilt from the already-mutated `typeseq`.
#[derive(Default)]
pub(in crate::store) struct TypeDelta {
    removed: BTreeSet<Vec<u32>>,
    added: BTreeMap<Vec<u32>, String>,
}

/// Fold a later mutation's delta into an accumulated one: per row key
/// the newest operation wins, so replaying the folded delta equals
/// replaying the two in order.
fn fold_delta(pending: &mut TypeDelta, delta: TypeDelta) {
    for k in delta.removed {
        pending.added.remove(&k);
        pending.removed.insert(k);
    }
    for (k, v) in delta.added {
        pending.removed.remove(&k);
        pending.added.insert(k, v);
    }
}

type Deltas = HashMap<TypeId, TypeDelta>;

fn delta_removed(deltas: &mut Deltas, t: TypeId, comps: Vec<u32>) {
    deltas.entry(t).or_default().removed.insert(comps);
}

fn delta_added(deltas: &mut Deltas, t: TypeId, comps: Vec<u32>, text: String) {
    deltas.entry(t).or_default().added.insert(comps, text);
}

/// Sorted-run merge of a column with a delta: rows stay in document
/// order, removed rows drop out, added rows splice in (an added row
/// with the key of a surviving row replaces it — the text-update
/// case). One linear pass; the result is always heap-backed.
pub(in crate::store) fn merged_column(old: &TypeColumn, delta: &TypeDelta) -> TypeColumn {
    let width = old.width();
    let mut comps: Vec<u32> = Vec::with_capacity(old.len() * width);
    let mut texts = String::new();
    let mut offsets: Vec<u32> = vec![0];
    {
        let mut emit = |row: &[u32], text: &str| {
            debug_assert_eq!(row.len(), width);
            comps.extend_from_slice(row);
            texts.push_str(text);
            offsets.push(texts.len() as u32);
        };
        let mut added = delta.added.iter().peekable();
        for i in 0..old.len() {
            let row = old.components(i);
            while added.peek().is_some_and(|(k, _)| k.as_slice() < row) {
                let (k, text) = added.next().unwrap();
                emit(k, text);
            }
            if added.peek().is_some_and(|(k, _)| k.as_slice() == row) {
                let (k, text) = added.next().unwrap();
                emit(k, text);
                continue;
            }
            if delta.removed.contains(row) {
                continue;
            }
            emit(row, old.text(i));
        }
        for (k, text) in added {
            emit(k, text);
        }
    }
    TypeColumn::from_parts(width, comps, offsets, texts)
}

/// The vertices a fragment shred produces, in shredder order.
type FragmentVertices = Vec<(TypeId, Dewey, String)>;

/// Ordinal of the depth-`depth` component of a Dewey key, when the key
/// is that deep.
fn component(key: &[u8], depth: usize) -> Option<u32> {
    let c = key.get(depth * 4..depth * 4 + 4)?;
    Some(u32::from_be_bytes(c.try_into().ok()?))
}

/// Read a whole fragment before anything changes, so a malformed one,
/// or one without exactly one root element, fails with the document
/// untouched.
fn parse_fragment(fragment: &str) -> MorphResult<Vec<XmlEvent>> {
    let mut reader = XmlReader::new(fragment);
    let mut events = Vec::new();
    let (mut depth, mut roots) = (0usize, 0usize);
    loop {
        let event = reader.next_event()?;
        match event {
            XmlEvent::StartElement { .. } => {
                roots += usize::from(depth == 0);
                depth += 1;
            }
            XmlEvent::EndElement { .. } => depth -= 1,
            XmlEvent::Eof => break,
            _ => {}
        }
        events.push(event);
    }
    match roots {
        0 => Err(mutation_err("fragment holds no element")),
        1 => Ok(events),
        _ => Err(mutation_err("fragment must have a single root element")),
    }
}

/// Shred a parsed fragment rooted at `root_dewey` whose root element
/// becomes a child of `parent_type`. Returns every vertex (elements
/// and attributes, in the shredder's order) plus the root's type, and
/// maintains the shape as it goes: new types intern, instance counts
/// bump, and the edges *inside* the fragment widen to cover each new
/// parent instance's child counts (including dragging `min` to 0 for
/// known child types a new instance lacks). The edge into the root
/// type itself is the caller's job — it depends on the insertion
/// parent's other children.
fn shred_fragment(
    shape: &mut AdornedShape,
    parent_type: TypeId,
    root_dewey: &Dewey,
    events: Vec<XmlEvent>,
) -> (FragmentVertices, TypeId) {
    struct Frame {
        dewey: Dewey,
        type_id: TypeId,
        next_ordinal: u32,
        text: String,
        child_counts: HashMap<TypeId, u64>,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut entries: Vec<(TypeId, Dewey, String)> = Vec::new();
    let mut root_type: Option<TypeId> = None;
    for event in events {
        match event {
            XmlEvent::StartElement { name, attrs } => {
                let (dewey, enclosing) = match stack.last_mut() {
                    Some(f) => {
                        f.next_ordinal += 1;
                        (f.dewey.child(f.next_ordinal), f.type_id)
                    }
                    None => (root_dewey.clone(), parent_type),
                };
                let type_id = shape.intern_child_type(enclosing, &name);
                if stack.is_empty() {
                    root_type = Some(type_id);
                }
                shape.add_instances(type_id, 1);
                if let Some(f) = stack.last_mut() {
                    *f.child_counts.entry(type_id).or_insert(0) += 1;
                }
                let mut frame = Frame {
                    dewey,
                    type_id,
                    next_ordinal: 0,
                    text: String::new(),
                    child_counts: HashMap::new(),
                };
                for (aname, avalue) in &attrs {
                    let at = shape.intern_child_type(type_id, &format!("@{aname}"));
                    shape.add_instances(at, 1);
                    frame.next_ordinal += 1;
                    let ad = frame.dewey.child(frame.next_ordinal);
                    entries.push((at, ad, avalue.clone()));
                    *frame.child_counts.entry(at).or_insert(0) += 1;
                }
                stack.push(frame);
            }
            XmlEvent::Text(t) => {
                if let Some(f) = stack.last_mut() {
                    f.text.push_str(&t);
                }
            }
            XmlEvent::EndElement { .. } => {
                let f = stack.pop().expect("balanced events");
                for ct in shape.types().children(f.type_id).collect::<Vec<_>>() {
                    let n = f.child_counts.get(&ct).copied().unwrap_or(0);
                    let old = shape.card(ct);
                    let widened = Card::new(old.min.min(n), old.max.max(CardMax::Finite(n)));
                    shape.set_card(ct, widened);
                }
                entries.push((f.type_id, f.dewey.clone(), f.text.trim().to_string()));
            }
            XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction { .. } | XmlEvent::Eof => {}
        }
    }
    let root_type = root_type.expect("parse_fragment admits only rooted fragments");
    (entries, root_type)
}

impl ShreddedDoc {
    /// Replace the direct text of the node at `dewey`. The text is
    /// trimmed, matching the shredder. The node's type, label, and
    /// subtree are untouched, so the shape does not change; only the
    /// one type's column is maintained.
    pub fn update_text(&mut self, dewey: &Dewey, text: &str) -> MorphResult<()> {
        self.undoable(|doc| doc.update_text_inner(dewey, text))
    }

    fn update_text_inner(&mut self, dewey: &Dewey, text: &str) -> MorphResult<()> {
        let t = self.node_type_required(dewey)?;
        let text = text.trim();
        // Snapshot protocol: exclude snapshot lazy loads for the span
        // of the tree writes, and pin the pre-mutation column into
        // every live snapshot before the first write lands.
        let shared = Arc::clone(&self.shared);
        let _gate = shared.gate.write().unwrap();
        self.cow_pin([t])?;
        // One logical mutation = one store transaction: the tree write
        // and the per-type maintenance land atomically, and an error
        // path rolls the lot back (the txn guard's Drop) before
        // anything in memory moved.
        let txn = self.store.begin().in_op("begin mutation transaction")?;
        self.typeseq
            .insert(&typeseq_key(t, dewey), text.as_bytes())
            .in_op("update tree \"typeseq\"")?;
        let mut deltas = Deltas::new();
        delta_added(
            &mut deltas,
            t,
            dewey.components().to_vec(),
            text.to_string(),
        );
        self.commit_mutation(txn, deltas, false)
    }

    /// Delete the node at `dewey` and its whole subtree; returns the
    /// number of vertices removed. Sibling labels are left alone — the
    /// ordinal gap this opens is exactly what later inserts use to
    /// avoid renumbering. The edge into the deleted root's type widens
    /// (`min` drops to the affected parent's remaining count, possibly
    /// zero); the document root itself cannot be deleted.
    pub fn delete_subtree(&mut self, dewey: &Dewey) -> MorphResult<u64> {
        self.undoable(|doc| doc.delete_subtree_inner(dewey))
    }

    fn delete_subtree_inner(&mut self, dewey: &Dewey) -> MorphResult<u64> {
        if dewey.len() <= 1 {
            return Err(mutation_err("cannot delete the document root"));
        }
        let root_type = self.node_type_required(dewey)?;
        let at = dewey.encode();
        let types = self.subtree_types(root_type, &at)?;
        let shared = Arc::clone(&self.shared);
        let _gate = shared.gate.write().unwrap();
        self.cow_pin(types.iter().copied())?;
        // A read error from here on rolls the transaction back whole.
        let txn = self.store.begin().in_op("begin mutation transaction")?;
        let mut deltas = Deltas::new();
        let mut removed = 0u64;
        let mut prefix = Vec::with_capacity(4 + at.len());
        for t in types {
            typeseq_key_into(&mut prefix, t, &at);
            let keys = self.typeseq.delete_prefix(&prefix);
            let keys = keys.in_op("delete from tree \"typeseq\"")?;
            for k in &keys {
                let mut comps = Vec::new();
                if decode_components_into(&k[4..], &mut comps) {
                    delta_removed(&mut deltas, t, comps);
                }
            }
            self.shape.add_instances(t, -(keys.len() as i64));
            removed += keys.len() as u64;
        }
        let parent = dewey.parent().expect("len > 1 has a parent");
        let remaining = self.count_children_of_type(root_type, &parent)?;
        let old = self.shape.card(root_type);
        self.shape
            .set_card(root_type, Card::new(old.min.min(remaining), old.max));
        self.persist_shape()?;
        self.commit_structural(txn, deltas)?;
        Ok(removed)
    }

    /// Parse `fragment` (one rooted element) and insert it as the
    /// *last* child of the node at `parent`; returns the new root's
    /// Dewey number. Appends take the next ordinal after the current
    /// maximum, so no existing label moves. New element names intern
    /// new types; shape counts and cardinalities maintain themselves
    /// conservatively (bounds only widen).
    pub fn insert_subtree(&mut self, parent: &Dewey, fragment: &str) -> MorphResult<Dewey> {
        self.undoable(|doc| doc.insert_subtree_inner(parent, fragment))
    }

    fn insert_subtree_inner(&mut self, parent: &Dewey, fragment: &str) -> MorphResult<Dewey> {
        let events = parse_fragment(fragment)?;
        let ptype = self.node_type_required(parent)?;
        let ord = self
            .max_child_ordinal(parent, ptype, None)?
            .checked_add(1)
            .ok_or_else(|| mutation_err("child ordinal space exhausted"))?;
        let shared = Arc::clone(&self.shared);
        let _gate = shared.gate.write().unwrap();
        let txn = self.store.begin().in_op("begin mutation transaction")?;
        let mut deltas = Deltas::new();
        let dewey = self.insert_fragment_at(parent, ptype, ord, events, &mut deltas)?;
        self.commit_structural(txn, deltas)?;
        Ok(dewey)
    }

    /// Parse `fragment` (one rooted element) and insert it immediately
    /// *before* the node at `sibling` (which must not be the document
    /// root); returns the new root's Dewey number. Gap-aware: when the
    /// ordinal gap before `sibling` is open (deletes and previous
    /// renumbers leave gaps), the new node takes the midpoint and
    /// nothing renumbers. When the gap is exhausted, `sibling` and the
    /// siblings after it move to fresh ordinals strided by
    /// [`GAP_STRIDE`] above the current maximum — a renumber local to
    /// this one child list that seeds gaps for the next insert.
    pub fn insert_subtree_before(&mut self, sibling: &Dewey, fragment: &str) -> MorphResult<Dewey> {
        self.undoable(|doc| doc.insert_subtree_before_inner(sibling, fragment))
    }

    fn insert_subtree_before_inner(
        &mut self,
        sibling: &Dewey,
        fragment: &str,
    ) -> MorphResult<Dewey> {
        let events = parse_fragment(fragment)?;
        let parent = sibling
            .parent()
            .ok_or_else(|| mutation_err("cannot insert before the document root"))?;
        let ptype = self.node_type_required(&parent)?;
        self.type_among(self.shape.types().children(ptype), &sibling.encode())?
            .ok_or_else(|| mutation_err(format!("no node {sibling}")))?;
        let b = *sibling.components().last().expect("non-root dewey");
        // The previous sibling's ordinal, or 0 when there is none.
        let a = self.max_child_ordinal(&parent, ptype, Some(b))?;
        let shared = Arc::clone(&self.shared);
        let _gate = shared.gate.write().unwrap();
        // Both arms — midpoint insert or local renumber + insert — are
        // a single logical mutation, so one transaction covers them.
        let txn = self.store.begin().in_op("begin mutation transaction")?;
        let mut deltas = Deltas::new();
        if b - a > 1 {
            let ord = a + (b - a) / 2;
            let dewey = self.insert_fragment_at(&parent, ptype, ord, events, &mut deltas)?;
            self.commit_structural(txn, deltas)?;
            return Ok(dewey);
        }
        // Only the renumber iterates, over the siblings it moves anyway.
        let tail = self.child_ordinals_from(&parent, ptype, b)?;
        let max = *tail.last().expect("sibling exists");
        let fresh = |slot: u32| -> MorphResult<u32> {
            slot.checked_mul(GAP_STRIDE)
                .and_then(|off| max.checked_add(off))
                .ok_or_else(|| mutation_err("child ordinal space exhausted"))
        };
        let insert_ord = fresh(1)?;
        for (i, &o) in tail.iter().enumerate() {
            let new_o = fresh(i as u32 + 2)?;
            self.renumber_child(&parent, ptype, o, new_o, &mut deltas)?;
        }
        let dewey = self.insert_fragment_at(&parent, ptype, insert_ord, events, &mut deltas)?;
        self.commit_structural(txn, deltas)?;
        Ok(dewey)
    }

    /// Re-persist the column segments of every type whose cached
    /// column has outrun its on-disk segment (mutations drop the stale
    /// segment immediately but defer the rewrite, so a burst of
    /// updates pays for one encode, not one per update). Returns the
    /// number of segments written; a no-op on in-memory stores.
    pub fn persist_dirty_columns(&mut self) -> MorphResult<usize> {
        if !self.store.is_persistent() {
            self.dirty.clear();
            self.bumped_since_persist.clear();
            return Ok(0);
        }
        // Segment rewrites race snapshot lazy loads the same way tree
        // writes do; hold the writer gate across the burst.
        let shared = Arc::clone(&self.shared);
        let _gate = shared.gate.write().unwrap();
        // Sorted, so the device sees the same write sequence on every
        // run — crash points in the fault-injection sweep stay
        // reproducible.
        let mut dirty: Vec<TypeId> = self.dirty.drain().collect();
        dirty.sort_by_key(|t| t.0);
        let mut written = 0usize;
        // The segment rewrites land atomically: a crash mid-burst must
        // not leave half the dirty types re-persisted. The commit has
        // to precede the flush — flushing blocks while a transaction
        // is open.
        let txn = self.store.begin().in_op("begin persist transaction")?;
        for t in dirty {
            let has = self.columns.read().unwrap().contains_key(&t)
                || self.pending_deltas.lock().unwrap().contains_key(&t);
            if has {
                // `try_column` settles any pending delta before serving.
                // A type whose column fails to load has no segment (its
                // first mutation dropped it), so it stays dirty for the
                // next persist rather than get an empty one.
                let Ok(col) = self.try_column(t) else {
                    self.dirty.insert(t);
                    continue;
                };
                let bytes = col.encode_segment(self.expected_generation(t));
                self.store
                    .put_segment(&colseg::segment_name(t), &bytes)
                    .in_op("rewrite column segment")?;
                written += 1;
            }
        }
        txn.commit().in_op("commit persist transaction")?;
        // Fresh segments are on their way to disk; the next mutation of
        // any type must bump its generation again to invalidate them.
        self.bumped_since_persist.clear();
        self.store.flush().in_op("flush column segments")?;
        Ok(written)
    }

    /// Column-maintenance counters for this handle (see
    /// [`MaintenanceStats`]).
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        MaintenanceStats {
            merged_columns: self.merged_columns.load(Ordering::Relaxed),
            invalidated_columns: self.invalidated_columns,
            column_rebuilds: self.shared.rebuilds.load(Ordering::Relaxed),
        }
    }

    fn node_type_required(&self, dewey: &Dewey) -> MorphResult<TypeId> {
        self.node_type(dewey)?
            .ok_or_else(|| mutation_err(format!("no node {dewey}")))
    }

    /// The `typeseq` key prefixes `c ‖ parent` of the child types `c`
    /// of `ptype` that have instances: a child of `parent` with type `c`
    /// has the key `c ‖ parent ‖ ordinal`.
    fn child_prefixes(&self, parent: &Dewey, ptype: TypeId) -> Vec<Vec<u8>> {
        let at = parent.encode();
        let children = self.shape.types().children(ptype);
        children
            .filter(|&c| self.shape.instance_count(c) > 0)
            .map(|c| {
                let mut prefix = Vec::with_capacity(8 + at.len());
                typeseq_key_into(&mut prefix, c, &at);
                prefix
            })
            .collect()
    }

    /// The greatest child ordinal of `parent` (of type `ptype`), or the
    /// greatest below `below` when given; 0 when there is none. One
    /// seek per child type.
    fn max_child_ordinal(
        &self,
        parent: &Dewey,
        ptype: TypeId,
        below: Option<u32>,
    ) -> MorphResult<u32> {
        let mut max = 0;
        for prefix in self.child_prefixes(parent, ptype) {
            let last = match below {
                None => self.typeseq.last_key_with_prefix(&prefix),
                Some(b) => {
                    let upper = [prefix.as_slice(), &b.to_be_bytes()].concat();
                    let last = self.typeseq.last_key_below(&upper);
                    last.map(|k| k.filter(|k| k.starts_with(&prefix)))
                }
            };
            let last = last.in_op("seek tree \"typeseq\"")?;
            if let Some(ord) = last.and_then(|k| component(&k[4..], parent.len())) {
                max = max.max(ord);
            }
        }
        Ok(max)
    }

    /// Child ordinals of `parent` (of type `ptype`) from `from` upward,
    /// ascending: one key-only range scan per child type.
    fn child_ordinals_from(
        &self,
        parent: &Dewey,
        ptype: TypeId,
        from: u32,
    ) -> MorphResult<Vec<u32>> {
        let mut out: Vec<u32> = Vec::new();
        for prefix in self.child_prefixes(parent, ptype) {
            let lo = [prefix.as_slice(), &from.to_be_bytes()].concat();
            let hi = [prefix.as_slice(), &u32::MAX.to_be_bytes()].concat();
            let mut scan = self.typeseq.range(lo..=hi);
            while let Some(k) = scan.next_key().in_op("scan tree \"typeseq\"")? {
                out.extend(component(&k[4..], parent.len()));
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// The types with rows in the subtree at the encoded Dewey `at`,
    /// whose root has type `root`: one count per descendant type, which
    /// buffers no leaf, descending only into types whose range held rows
    /// — a type with no instance under `at` has no descendant there.
    fn subtree_types(&self, root: TypeId, at: &[u8]) -> MorphResult<Vec<TypeId>> {
        let mut found = Vec::new();
        let mut pending = vec![root];
        let mut prefix = Vec::with_capacity(4 + at.len());
        while let Some(t) = pending.pop() {
            typeseq_key_into(&mut prefix, t, at);
            let rows = self.typeseq.count_prefix(&prefix);
            if t == root || rows.in_op("count tree \"typeseq\"")? > 0 {
                found.push(t);
                let children = self.shape.types().children(t);
                pending.extend(children.filter(|&c| self.shape.instance_count(c) > 0));
            }
        }
        Ok(found)
    }

    /// Children of `parent` with type `t` (their shared depth makes
    /// the `(type, parent-prefix)` probe exact), counted without
    /// materialising a key.
    fn count_children_of_type(&self, t: TypeId, parent: &Dewey) -> MorphResult<u64> {
        self.typeseq
            .count_prefix(&typeseq_key(t, parent))
            .in_op("count tree \"typeseq\"")
    }

    /// Move the subtree under `parent.child(old_ord)` to
    /// `parent.child(new_ord)`, rewriting one component in every key
    /// and folding the moves into `deltas`. The caller guarantees
    /// `new_ord` is unoccupied (renumber targets sit above the current
    /// maximum ordinal).
    fn renumber_child(
        &mut self,
        parent: &Dewey,
        ptype: TypeId,
        old_ord: u32,
        new_ord: u32,
        deltas: &mut Deltas,
    ) -> MorphResult<()> {
        let at = parent.child(old_ord).encode();
        let root = self
            .type_among(self.shape.types().children(ptype), &at)?
            .ok_or(MorphError::Internal("renumbered sibling vanished"))?;
        let types = self.subtree_types(root, &at)?;
        self.cow_pin(types.iter().copied())?;
        // The renumbered component's bytes in a `typeseq` key.
        let idx = 4 + parent.len() * 4;
        let mut prefix = Vec::with_capacity(4 + at.len());
        for t in types {
            typeseq_key_into(&mut prefix, t, &at);
            let moves = self.typeseq.scan_prefix(&prefix).entries();
            for (k, v) in moves.in_op("scan tree \"typeseq\"")? {
                let text = String::from_utf8(v)
                    .map_err(|_| MorphError::Internal("corrupt typeseq text"))?;
                let mut nk = k.clone();
                nk[idx..idx + 4].copy_from_slice(&new_ord.to_be_bytes());
                self.typeseq
                    .delete(&k)
                    .in_op("delete from tree \"typeseq\"")?;
                self.typeseq
                    .insert(&nk, text.as_bytes())
                    .in_op("insert into tree \"typeseq\"")?;
                let mut old_comps = Vec::new();
                let mut new_comps = Vec::new();
                if decode_components_into(&k[4..], &mut old_comps)
                    && decode_components_into(&nk[4..], &mut new_comps)
                {
                    delta_removed(deltas, t, old_comps);
                    delta_added(deltas, t, new_comps, text);
                }
            }
        }
        Ok(())
    }

    fn insert_fragment_at(
        &mut self,
        parent: &Dewey,
        parent_type: TypeId,
        ordinal: u32,
        events: Vec<XmlEvent>,
        deltas: &mut Deltas,
    ) -> MorphResult<Dewey> {
        let root_dewey = parent.child(ordinal);
        let occupant = self.type_among(
            self.shape.types().children(parent_type),
            &root_dewey.encode(),
        )?;
        if occupant.is_some() {
            return Err(mutation_err(format!("label {root_dewey} is occupied")));
        }
        let (entries, root_type) =
            shred_fragment(&mut self.shape, parent_type, &root_dewey, events);
        // Pin before the first tree write. Types the fragment merely
        // interned pin an empty column — harmless, since no snapshot's
        // frozen shape knows them. (Shape edits above don't need the
        // pin: snapshots hold their own `Arc` clone of the shape.)
        self.cow_pin(entries.iter().map(|(t, _, _)| *t))?;
        for (t, d, text) in &entries {
            self.typeseq
                .insert(&typeseq_key(*t, d), text.as_bytes())
                .in_op("insert into tree \"typeseq\"")?;
            delta_added(deltas, *t, d.components().to_vec(), text.clone());
        }
        // The edge into the inserted root's type: fold in this
        // parent's new child count. `min` only moves down (a fresh
        // type starts 0..0 and stays min-0 for the other parents that
        // lack it); `max` widens to cover this parent.
        let n_now = self.count_children_of_type(root_type, parent)?;
        let old = self.shape.card(root_type);
        self.shape.set_card(
            root_type,
            Card::new(old.min.min(n_now), old.max.max(CardMax::Finite(n_now))),
        );
        self.persist_shape()?;
        Ok(root_dewey)
    }

    /// Persist the shape rows of every dirty type — one small `meta` row
    /// each, inside the mutation's transaction — instead of rewriting
    /// the whole shape.
    fn persist_shape(&self) -> MorphResult<()> {
        for t in self.shape.dirty_types() {
            let row = self.shape.type_row(t);
            self.meta
                .insert(&shape_row_key(t), &row)
                .in_op("write adorned shape row")?;
        }
        Ok(())
    }

    /// Run one public mutation with the shape's undo log open. The
    /// store rolls a transaction back when the mutation fails before
    /// its commit; this puts back what the mutation had changed in
    /// memory by then — shape counts and cards, and the tree roots the
    /// handles cached — so the writer is never ahead of its store.
    /// [`ShreddedDoc::commit_mutation`] closes the log at the commit,
    /// so an error the commit itself returns undoes nothing.
    fn undoable<T>(&mut self, body: impl FnOnce(&mut Self) -> MorphResult<T>) -> MorphResult<T> {
        self.shape.begin_undo();
        let out = body(self);
        if out.is_err() && self.shape.undo_edits() {
            for tree in [&self.typeseq, &self.meta] {
                tree.reload_root();
            }
        }
        self.shape.end_undo();
        out
    }

    /// Commit a structural mutation ([`ShreddedDoc::commit_mutation`]),
    /// after which the shape rows it wrote are clean. A mutation that
    /// fails before its commit after interning a type leaves the type
    /// dirty, so the next commit persists it and interned type ids
    /// never skip one on disk.
    fn commit_structural(&mut self, txn: Txn, deltas: Deltas) -> MorphResult<()> {
        self.commit_mutation(txn, deltas, true)
    }

    /// Commit one mutation's per-type column maintenance with its
    /// transaction. Inside the transaction, every type first touched
    /// since the last persist gets a fresh per-type generation row and
    /// loses its stale persisted segment (so its extent returns to the
    /// store's free list). Only once the commit lands does the handle
    /// move: the epoch, the generations, and the deltas — a cached
    /// column's folds into the pending merge (and is marked dirty for a
    /// deferred segment rewrite), an uncached one is invalidated — and,
    /// for a structural mutation (`shape_rows`), the shape's dirty set.
    ///
    /// The store publishes the transaction in memory even when its
    /// commit returns an error (a failed log write or sync, not a
    /// rollback), so the handle moves either way and then reports the
    /// error.
    fn commit_mutation(&mut self, txn: Txn, deltas: Deltas, shape_rows: bool) -> MorphResult<()> {
        // First touch since the last persist pays the bump: a new
        // per-type generation, its meta write, and the drop of the
        // stale segment. Repeat touches skip all three — the segment
        // is already gone and the persisted tygen already fences it —
        // which is what keeps a burst of updates to one type at a
        // single tree write per update. Types go in id order, so a
        // mutation assigns the same generations and issues the same
        // writes on every run.
        let mut types: Vec<TypeId> = deltas.keys().copied().collect();
        types.sort_by_key(|t| t.0);
        let mut bumps: Vec<(TypeId, u64)> = Vec::new();
        for t in types {
            if self.bumped_since_persist.contains(&t) {
                continue;
            }
            let gen = self.next_gen + bumps.len() as u64;
            self.meta
                .insert(&tygen_key(t), &gen.to_le_bytes())
                .in_op("write per-type generation")?;
            if self.store.is_persistent() {
                self.store
                    .delete_segment(&colseg::segment_name(t))
                    .in_op("drop stale column segment")?;
            }
            bumps.push((t, gen));
        }
        self.shape.end_undo();
        let committed = txn.commit();
        if shape_rows {
            self.shape.clear_dirty();
        }
        if !deltas.is_empty() {
            // Publish the new epoch: snapshots published from here on
            // see the post-mutation state, and the touched map records
            // which epoch last moved each type (the staleness signal
            // snapshot republication and lazy loads check against —
            // per-type generations can't serve that role because
            // repeat touches between persists skip the bump).
            self.epoch += 1;
            let epoch = self.epoch;
            let mut touched = self.shared.touched.lock().unwrap();
            for t in deltas.keys() {
                touched.insert(*t, epoch);
            }
        }
        self.next_gen += bumps.len() as u64;
        let mut tygens = self.tygens.lock().unwrap();
        for (t, gen) in bumps {
            tygens.insert(t, gen);
            self.bumped_since_persist.insert(t);
        }
        drop(tygens);
        for (t, delta) in deltas {
            let cached = self.columns.read().unwrap().contains_key(&t);
            let mut pending = self.pending_deltas.lock().unwrap();
            if cached || pending.contains_key(&t) {
                // Defer the merge: fold the delta into the pending
                // buffer; the next column read pays for one merge over
                // the whole accumulated batch.
                fold_delta(pending.entry(t).or_default(), delta);
                self.dirty.insert(t);
            } else {
                self.invalidated_columns += 1;
            }
        }
        committed.in_op("commit mutation transaction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::shredded::OpenOptions;
    use xmorph_pagestore::Store;

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    fn shredded(xml: &str) -> (Store, ShreddedDoc) {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
        (store, doc)
    }

    fn ty(doc: &ShreddedDoc, dotted: &str) -> TypeId {
        let path: Vec<String> = dotted.split('.').map(str::to_string).collect();
        doc.types()
            .lookup(&path)
            .unwrap_or_else(|| panic!("no type {dotted}"))
    }

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn texts(doc: &ShreddedDoc, dotted: &str) -> Vec<String> {
        doc.scan_type(ty(doc, dotted))
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xmorph-mutate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn update_text_rewrites_both_tables_and_column() {
        let (_s, mut doc) = shredded(FIG1A);
        let title = ty(&doc, "data.book.title");
        doc.column(title); // cache it → merge path
        doc.update_text(&d("1.1.1"), "  Z  ").unwrap();
        assert_eq!(doc.node_text(&d("1.1.1")).unwrap().as_deref(), Some("Z"));
        assert_eq!(texts(&doc, "data.book.title"), ["Z", "Y"]);
        assert_eq!(doc.scan_type(title), doc.scan_type_btree(title).unwrap());
        let stats = doc.maintenance_stats();
        assert_eq!(stats.merged_columns, 1);
        assert_eq!(stats.invalidated_columns, 0);
    }

    #[test]
    fn update_text_on_uncached_column_invalidates_only_that_type() {
        let (_s, mut doc) = shredded(FIG1A);
        doc.update_text(&d("1.1.1"), "Z").unwrap();
        let stats = doc.maintenance_stats();
        assert_eq!(stats.merged_columns, 0);
        assert_eq!(stats.invalidated_columns, 1);
        assert_eq!(texts(&doc, "data.book.title"), ["Z", "Y"]);
    }

    #[test]
    fn update_text_missing_node_errors() {
        let (_s, mut doc) = shredded(FIG1A);
        assert!(matches!(
            doc.update_text(&d("1.9.9"), "x"),
            Err(MorphError::Mutation { .. })
        ));
    }

    #[test]
    fn delete_subtree_removes_descendants_and_widens_card() {
        let (_s, mut doc) = shredded(FIG1A);
        let author = ty(&doc, "data.book.author");
        let name = ty(&doc, "data.book.author.name");
        doc.column(name);
        let removed = doc.delete_subtree(&d("1.1.2")).unwrap();
        assert_eq!(removed, 2); // author + name
        assert_eq!(doc.instance_count(author), 1);
        assert_eq!(doc.instance_count(name), 1);
        assert_eq!(texts(&doc, "data.book.author.name"), ["Tim"]);
        assert_eq!(doc.scan_type(name), doc.scan_type_btree(name).unwrap());
        // Book 1.1 now has zero authors: the edge min must widen to 0.
        assert_eq!(doc.shape().card(author).min, 0);
        // The closest join no longer finds an author for book 1.1.
        let book = ty(&doc, "data.book");
        let snap = doc.snapshot();
        assert!(!snap.has_closest_child(&d("1.1"), book, author));
        assert!(snap.has_closest_child(&d("1.2"), book, author));
    }

    #[test]
    fn delete_root_is_rejected() {
        let (_s, mut doc) = shredded(FIG1A);
        assert!(matches!(
            doc.delete_subtree(&d("1")),
            Err(MorphError::Mutation { .. })
        ));
    }

    #[test]
    fn insert_subtree_appends_densely() {
        let (_s, mut doc) = shredded(FIG1A);
        let dewey = doc
            .insert_subtree(
                &d("1"),
                "<book><title>N</title><author><name>Ann</name></author></book>",
            )
            .unwrap();
        assert_eq!(dewey.to_string(), "1.3");
        assert_eq!(doc.instance_count(ty(&doc, "data.book")), 3);
        assert_eq!(texts(&doc, "data.book.title"), ["X", "Y", "N"]);
        assert_eq!(texts(&doc, "data.book.author.name"), ["Tim", "Tim", "Ann"]);
        // Shape stayed consistent: the new book lacks a publisher, so
        // that edge's min widened to 0.
        assert_eq!(doc.shape().card(ty(&doc, "data.book.publisher")).min, 0);
        let title = ty(&doc, "data.book.title");
        assert_eq!(doc.scan_type(title), doc.scan_type_btree(title).unwrap());
    }

    #[test]
    fn insert_subtree_interns_new_types_and_attrs() {
        let (_s, mut doc) = shredded(FIG1A);
        doc.insert_subtree(&d("1.1"), r#"<review stars="5">good</review>"#)
            .unwrap();
        let review = ty(&doc, "data.book.review");
        let stars = ty(&doc, "data.book.review.@stars");
        assert_eq!(doc.instance_count(review), 1);
        assert_eq!(texts(&doc, "data.book.review.@stars"), ["5"]);
        // New type under a 2-instance parent: the other book has none.
        assert_eq!(doc.shape().card(review).min, 0);
        assert_eq!(doc.shape().card(stars).min, 0);
        // The new type joins: the review's closest title is book 1's.
        let title = ty(&doc, "data.book.title");
        let (dewey, _) = doc.scan_type(review).remove(0);
        let joined = doc.snapshot().closest_children(&dewey, review, title);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].1, "X");
    }

    #[test]
    fn insert_before_uses_gap_left_by_delete() {
        let (_s, mut doc) = shredded(FIG1A);
        // Delete book 1.1 → ordinal 1 is free; insert before book 1.2
        // must land in the gap without renumbering 1.2.
        doc.delete_subtree(&d("1.1")).unwrap();
        let dewey = doc
            .insert_subtree_before(&d("1.2"), "<book><title>G</title></book>")
            .unwrap();
        assert_eq!(dewey.to_string(), "1.1");
        assert_eq!(texts(&doc, "data.book.title"), ["G", "Y"]);
    }

    #[test]
    fn insert_before_renumbers_locally_when_gap_exhausted() {
        let (_s, mut doc) = shredded(FIG1A);
        let dewey = doc
            .insert_subtree_before(&d("1.2"), "<book><title>M</title></book>")
            .unwrap();
        // No gap between books 1 and 2: the tail renumbers above the
        // old maximum with stride gaps, the insert lands before it.
        assert_eq!(dewey.to_string(), format!("1.{}", 2 + GAP_STRIDE));
        assert_eq!(texts(&doc, "data.book.title"), ["X", "M", "Y"]);
        let title = ty(&doc, "data.book.title");
        assert_eq!(doc.scan_type(title), doc.scan_type_btree(title).unwrap());
        // The renumbered book still joins its own title, not its
        // neighbour's.
        let publisher = ty(&doc, "data.book.publisher");
        let moved_book = doc.scan_type(ty(&doc, "data.book"))[2].0.clone();
        let second = doc.scan_type(publisher)[1].0.clone();
        let joined = doc.snapshot().closest_children(&second, publisher, title);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].1, "Y");
        assert!(moved_book.components()[1] > 2);
        // A second insert in the same place now finds a stride gap.
        let again = doc
            .insert_subtree_before(
                &doc.scan_type(ty(&doc, "data.book"))[2].0,
                "<book><title>m2</title></book>",
            )
            .unwrap();
        assert_eq!(texts(&doc, "data.book.title"), ["X", "M", "m2", "Y"]);
        assert!(again.components()[1] > GAP_STRIDE);
    }

    #[test]
    fn mutations_clear_distance_cache() {
        let (_s, mut doc) = shredded("<d><a><x>1</x></a><b>2</b></d>");
        let b = ty(&doc, "d.b");
        // x and b never co-occur below the root: distance via root = 3.
        let x = ty(&doc, "d.a.x");
        assert_eq!(doc.snapshot().type_distance_exact(x, b), Some(3));
        // Insert an x inside... a new b under a: now a holds both. A
        // structural write starts a new shape version, whose distance
        // cache starts empty.
        doc.insert_subtree(&d("1.1"), "<b>3</b>").unwrap();
        let ab = ty(&doc, "d.a.b");
        assert_eq!(doc.snapshot().type_distance_exact(x, ab), Some(2));
        // Deleting the only `d.b` must not serve the cached 3.
        assert_eq!(doc.snapshot().type_distance_exact(x, b), Some(3));
        doc.delete_subtree(&d("1.2")).unwrap();
        assert_eq!(doc.snapshot().type_distance_exact(x, b), None);
    }

    #[test]
    fn per_type_generation_staleness_is_scoped() {
        // Mutating one type must not invalidate other types' persisted
        // segments: a cold reopen still maps them, while the mutated
        // type's segment is gone and rebuilds from typeseq.
        let path = temp_path("scoped-gen.db");
        {
            let store = Store::create(&path).unwrap();
            let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            doc.update_text(&d("1.1.1"), "Z").unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        let title = ty(&doc, "data.book.title");
        let pub_name = ty(&doc, "data.book.publisher.name");
        assert_eq!(texts(&doc, "data.book.title"), ["Z", "Y"]);
        assert!(!doc.column(title).is_mapped(), "mutated segment dropped");
        assert_eq!(
            doc.column(pub_name).is_mapped(),
            store.supports_mmap(),
            "untouched segment must still serve"
        );
        assert!(doc.segment_fallbacks().is_empty(), "no stale fallback");
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_dirty_columns_restores_cold_open() {
        let path = temp_path("dirty-persist.db");
        {
            let store = Store::create(&path).unwrap();
            let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            let title = ty(&doc, "data.book.title");
            doc.column(title);
            doc.update_text(&d("1.1.1"), "Z").unwrap();
            assert_eq!(doc.persist_dirty_columns().unwrap(), 1);
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        let title = ty(&doc, "data.book.title");
        let col = doc.column(title);
        assert_eq!(col.is_mapped(), store.supports_mmap());
        assert_eq!(texts(&doc, "data.book.title"), ["Z", "Y"]);
        assert!(doc.segment_fallbacks().is_empty());
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reshred_supersedes_per_type_generations() {
        let path = temp_path("reshred-tygen.db");
        {
            let store = Store::create(&path).unwrap();
            let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            doc.update_text(&d("1.1.1"), "Z").unwrap();
            doc.insert_subtree(&d("1.1"), "<review>ok</review>")
                .unwrap();
            doc.delete_subtree(&d("1.2.3")).unwrap();
            let shape_rows =
                |doc: &ShreddedDoc| doc.meta.scan_prefix(b"shape.").entries().unwrap().len();
            assert!(
                shape_rows(&doc) > 0,
                "structural mutations write shape rows"
            );
            // Full re-shred: per-type overrides and shape rows must
            // clear, and the new store-wide generation must outrun them.
            let doc2 = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            assert_eq!(
                doc2.expected_generation(ty(&doc2, "data.book.title")),
                doc2.expected_generation(ty(&doc2, "data.book"))
            );
            assert_eq!(shape_rows(&doc2), 0, "a re-shred leaves no shape row");
            assert_eq!(doc2.meta.scan_prefix(b"tygen.").entries().unwrap().len(), 0);
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        assert_eq!(texts(&doc, "data.book.title"), ["X", "Y"]);
        assert!(doc
            .types()
            .lookup(&["data".into(), "book".into(), "review".into()])
            .is_none());
        assert_eq!(
            doc.shape().to_bytes(),
            ShreddedDoc::shred_str(&Store::in_memory(), FIG1A)
                .unwrap()
                .shape()
                .to_bytes()
        );
        assert!(doc.segment_fallbacks().is_empty());
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutated_doc_matches_fresh_shred_behaviourally() {
        let (_s, mut doc) = shredded(FIG1A);
        doc.update_text(&d("1.2.1"), "Y2").unwrap();
        doc.delete_subtree(&d("1.1.3")).unwrap();
        doc.insert_subtree(&d("1.2"), "<award>prize</award>")
            .unwrap();
        let fresh_xml = "<data>\
            <book><title>X</title><author><name>Tim</name></author></book>\
            <book><title>Y2</title><author><name>Tim</name></author><publisher><name>V</name></publisher><award>prize</award></book>\
            </data>";
        let (_s2, fresh) = shredded(fresh_xml);
        for id in fresh.types().ids() {
            let dotted = fresh.types().dotted(id);
            let mirror = ty(&doc, &dotted);
            assert_eq!(
                doc.scan_type(mirror)
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect::<Vec<_>>(),
                fresh
                    .scan_type(id)
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect::<Vec<_>>(),
                "type {dotted}"
            );
            assert_eq!(doc.instance_count(mirror), fresh.instance_count(id));
        }
        // Rendered guard output is byte-identical (the renderer is
        // untouched by the mutation machinery).
        let guard = crate::Guard::parse("MORPH book [ title author [ name ] ]").unwrap();
        assert_eq!(
            guard.apply(&doc).unwrap().xml,
            guard.apply(&fresh).unwrap().xml
        );
    }

    #[test]
    fn merge_and_rebuild_agree_after_mixed_mutations() {
        // Two docs, same mutations; one keeps every column hot (merge
        // path), the other evicts before each mutation (invalidate +
        // rebuild path). They must agree everywhere.
        let (_s1, mut hot) = shredded(FIG1A);
        let (_s2, mut cold) = shredded(FIG1A);
        for t in hot.types().ids().collect::<Vec<_>>() {
            hot.column(t);
        }
        let mutate = |doc: &mut ShreddedDoc| {
            doc.update_text(&d("1.1.1"), "new").unwrap();
            doc.delete_subtree(&d("1.2.2")).unwrap();
            doc.insert_subtree(&d("1.1"), "<award>w</award>").unwrap();
            doc.insert_subtree_before(&d("1.1.1"), "<isbn>i</isbn>")
                .unwrap();
        };
        mutate(&mut hot);
        cold.evict_columns();
        mutate(&mut cold);
        cold.evict_columns();
        for t in hot.types().ids().collect::<Vec<_>>() {
            assert_eq!(
                hot.scan_type(t),
                hot.scan_type_btree(t).unwrap(),
                "hot {t:?}"
            );
            assert_eq!(hot.scan_type(t), cold.scan_type(t), "hot vs cold {t:?}");
        }
        // Merges are deferred to the first read, so the counter is
        // checked after the scans settled the pending deltas.
        assert!(hot.maintenance_stats().merged_columns > 0);
    }

    #[test]
    fn batched_probes_agree_after_mutations() {
        // Delta folding must produce columns the batch kernel reads
        // exactly like the per-parent path — across merges, pending
        // deltas, and a persisted (v2-segment) cold reopen.
        let path = temp_path("batch-mutate.db");
        {
            let store = Store::create(&path).unwrap();
            let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            for t in doc.types().ids().collect::<Vec<_>>() {
                doc.column(t);
            }
            doc.update_text(&d("1.1.1"), "Z").unwrap();
            doc.insert_subtree(&d("1.2"), "<award>prize</award>")
                .unwrap();
            doc.delete_subtree(&d("1.1.3")).unwrap();
            let check = |doc: &ShreddedDoc| {
                let snap = doc.snapshot();
                for a in snap.types().ids().collect::<Vec<_>>() {
                    let parents: Vec<Dewey> =
                        snap.scan_type(a).into_iter().map(|(p, _)| p).collect();
                    for b in snap.types().ids().collect::<Vec<_>>() {
                        let Some((_, ranges)) = snap.closest_children_batch(&parents, a, b) else {
                            continue;
                        };
                        for (p, r) in parents.iter().zip(&ranges) {
                            let (_, want) = snap.closest_group(p, a, b).unwrap();
                            assert_eq!(*r, want, "batch group {p} {a:?}->{b:?}");
                        }
                    }
                }
            };
            check(&doc);
            doc.persist_dirty_columns().unwrap();
            store.close().unwrap();
            let store = Store::open(&path).unwrap();
            let doc = ShreddedDoc::open(&store).unwrap();
            check(&doc);
            assert!(doc.segment_fallbacks().is_empty());
            store.close().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_after_mutation_sees_updated_shape() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        doc.insert_subtree(&d("1"), "<book><title>N</title></book>")
            .unwrap();
        drop(doc);
        let doc = ShreddedDoc::open_with(&store, &OpenOptions::default()).unwrap();
        assert_eq!(doc.instance_count(ty(&doc, "data.book")), 3);
        assert_eq!(texts(&doc, "data.book.title"), ["X", "Y", "N"]);
    }

    #[test]
    fn malformed_fragment_leaves_the_document_untouched() {
        let (_store, mut doc) = shredded(FIG1A);
        let before = doc.shape().to_bytes();
        for bad in ["<newtag/><x/>", "<newtag><x></newtag>", "just text", ""] {
            assert!(doc.insert_subtree(&d("1.1"), bad).is_err(), "{bad:?}");
            // No gap before book 1.2: a renumber would precede the shred.
            assert!(doc.insert_subtree_before(&d("1.2"), bad).is_err());
        }
        assert_eq!(doc.shape().to_bytes(), before);
        assert_eq!(doc.shape().dirty_types().count(), 0);
        let books: Vec<Dewey> = doc
            .scan_type(ty(&doc, "data.book"))
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        assert_eq!(books, [d("1.1"), d("1.2")]);
    }

    /// A mutation that edits the shape and then fails before its commit
    /// leaves those types dirty; the next commit must persist them, or a
    /// later interned type would skip an id on disk and the store would
    /// no longer open.
    #[test]
    fn shape_edits_of_a_failed_mutation_persist_with_the_next_commit() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let book = ty(&doc, "data.book");
        // The shape state such a failure leaves behind.
        doc.shape.intern_child_type(book, "ghost");
        doc.insert_subtree(&d("1.1"), "<review>ok</review>")
            .unwrap();
        let live = doc.shape().to_bytes();
        drop(doc);
        let doc = ShreddedDoc::open_with(&store, &OpenOptions::default()).unwrap();
        assert_eq!(doc.shape().to_bytes(), live);
    }
}
