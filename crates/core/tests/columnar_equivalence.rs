//! The columnar read path — every query-time read runs on a pinned
//! `Snapshot` — must agree *exactly* with the B+tree-backed reference
//! implementations it replaced, on random documents:
//!
//! * `scan_type` (column walk) ≡ `scan_type_btree` (prefix scan);
//! * `type_distance_exact` (columnar sorted-merge co-occurrence) ≡
//!   `type_distance_btree` (key-scan sorted merge);
//! * `closest_children` (two binary searches on the column) ≡
//!   `closest_children_btree` (B+tree prefix probe), and
//!   `has_closest_child` ≡ non-emptiness of that group;
//! * a bulk-loaded shred and an incremental shred describe the same
//!   document;
//! * a cold reopen serving *persisted column segments* (mapped or
//!   copied) is byte-identical — scans, joins, and rendered guard
//!   output — to one that rebuilds every column from the B+tree.

//! * a document mutated in place (`insert_subtree` /
//!   `insert_subtree_before` / `delete_subtree` / `update_text`) is
//!   equivalent to a *fresh shred* of the correspondingly mutated XML —
//!   and byte-identical at the column level when the operation mix
//!   preserves dense Dewey labels (updates and appends only);
//! * after every mutation, `node_type` and `node_text` — a walk of the
//!   shape over `typeseq` — answer like the xmlkit DOM of the mutated
//!   XML for every vertex, and `None` for labels that name no vertex.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use xmorph_core::{Dewey, Guard, OpenOptions, ShredOptions, ShreddedDoc, TypeId};
use xmorph_pagestore::Store;
use xmorph_xml::dom::{Document, NodeId};

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("xmorph-coldopen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.db", SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// Random small library documents — same family as the theorem
/// validation suite: variable author counts, optional publisher and
/// award children, so type pairs cover ancestor/descendant, sibling,
/// cousin, and never-co-occurring relationships.
fn random_library() -> impl Strategy<Value = String> {
    let book = (0usize..3, proptest::bool::ANY, proptest::bool::ANY);
    proptest::collection::vec(book, 1..6).prop_map(|books| {
        let mut s = String::from("<lib>");
        for (i, (authors, has_pub, has_award)) in books.iter().enumerate() {
            s.push_str("<book>");
            s.push_str(&format!("<title>T{i}</title>"));
            for a in 0..*authors {
                s.push_str(&format!("<author><name>A{a}</name></author>"));
            }
            if *has_pub {
                s.push_str(&format!("<publisher><name>P{}</name></publisher>", i % 2));
            }
            if *has_award {
                s.push_str("<award>prize</award>");
            }
            s.push_str("</book>");
        }
        s.push_str("</lib>");
        s
    })
}

fn shred(xml: &str) -> (Store, ShreddedDoc) {
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
    (store, doc)
}

/// The insert-at-a-time reference shred (`bulk_load(false)`).
fn shred_incremental(xml: &str) -> (Store, ShreddedDoc) {
    let store = Store::in_memory();
    let opts = ShredOptions::builder().bulk_load(false);
    let doc = ShreddedDoc::shred_str_with(&store, xml, &opts).unwrap();
    (store, doc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn columnar_operations_match_btree_reference(xml in random_library()) {
        let (_s, doc) = shred(&xml);
        let snap = doc.snapshot();
        let types: Vec<TypeId> = doc.types().ids().collect();
        for &t in &types {
            prop_assert_eq!(snap.scan_type(t), doc.scan_type_btree(t).unwrap());
        }
        for &a in &types {
            for &b in &types {
                prop_assert_eq!(
                    snap.type_distance_exact(a, b),
                    doc.type_distance_btree(a, b).unwrap(),
                    "typeDistance({:?}, {:?})", a, b
                );
                for (parent, _) in snap.scan_type(a) {
                    let columnar = snap.closest_children(&parent, a, b);
                    let btree = snap.closest_children_btree(&parent, a, b).unwrap();
                    prop_assert_eq!(
                        snap.has_closest_child(&parent, a, b),
                        !btree.is_empty(),
                        "existence probe at {}", parent
                    );
                    prop_assert_eq!(columnar, btree, "join at {}", parent);
                }
            }
        }
    }

    #[test]
    fn bulk_and_incremental_shreds_describe_the_same_document(xml in random_library()) {
        let (_bs, bulk) = shred(&xml);
        let (_is, incremental) = shred_incremental(&xml);
        prop_assert_eq!(bulk.types().len(), incremental.types().len());
        let types: Vec<TypeId> = bulk.types().ids().collect();
        for &t in &types {
            prop_assert_eq!(bulk.scan_type(t), incremental.scan_type(t));
            prop_assert_eq!(bulk.instance_count(t), incremental.instance_count(t));
        }
        let (bulk, incremental) = (bulk.snapshot(), incremental.snapshot());
        for &a in &types {
            for &b in &types {
                prop_assert_eq!(
                    bulk.type_distance_exact(a, b),
                    incremental.type_distance_exact(a, b)
                );
            }
        }
    }

    #[test]
    fn cold_reopen_with_persisted_columns_is_byte_identical(xml in random_library()) {
        // Shred with column persistence into a file store, close, then
        // reopen twice: once serving persisted segments (mmap
        // preferred), once forced to rebuild lazily from the B+tree.
        let path = temp_path("prop");
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, &xml).unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let persisted = ShreddedDoc::open(&store).unwrap();
        let rebuilt =
            ShreddedDoc::open_with(&store, &OpenOptions::builder().persisted_columns(false))
                .unwrap();
        prop_assert!(persisted.segment_fallbacks().is_empty(),
            "persisted segments must validate: {:?}", persisted.segment_fallbacks());

        let types: Vec<TypeId> = persisted.types().ids().collect();
        for &t in &types {
            prop_assert_eq!(persisted.scan_type(t), rebuilt.scan_type(t));
        }
        let (persisted_snap, rebuilt_snap) = (persisted.snapshot(), rebuilt.snapshot());
        for &a in &types {
            for &b in &types {
                prop_assert_eq!(
                    persisted_snap.type_distance_exact(a, b),
                    rebuilt_snap.type_distance_exact(a, b)
                );
                for (parent, _) in persisted_snap.scan_type(a) {
                    prop_assert_eq!(
                        persisted_snap.closest_children(&parent, a, b),
                        rebuilt_snap.closest_children(&parent, a, b),
                        "join at {}", parent
                    );
                }
            }
        }
        // Rendered guard output — the end-to-end byte-identity check.
        // Some random documents lack authors/publishers, so a guard may
        // legitimately fail type-checking; both sides must then agree
        // on the error too.
        for guard in [
            "MORPH title",
            "MORPH author [ name ]",
            "MORPH book [ title author [ name ] ]",
            "CAST MORPH publisher [ title ]",
        ] {
            let g = Guard::parse(guard).unwrap();
            let a = g.apply(&persisted).map(|o| o.xml);
            let b = g.apply(&rebuilt).map(|o| o.xml);
            prop_assert_eq!(
                format!("{:?}", a),
                format!("{:?}", b),
                "guard {}", guard
            );
        }
        drop((persisted, rebuilt, store));
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// Mutation equivalence: a document mutated in place must describe the
// same collection as a fresh shred of the mutated XML. The reference is
// a "twin" document model — a plain tree mutated alongside the
// ShreddedDoc, then serialized and re-shredded from scratch.
// ---------------------------------------------------------------------

/// Reference tree: element name, attributes, *concatenated* direct text
/// (the shredder's view — placement of text among children does not
/// survive shredding), and element children in document order.
#[derive(Debug, Clone)]
struct TwinNode {
    name: String,
    attrs: Vec<(String, String)>,
    text: String,
    children: Vec<TwinNode>,
}

impl TwinNode {
    fn parse(xml: &str) -> TwinNode {
        use xmorph_xml::reader::{XmlEvent, XmlReader};
        let mut reader = XmlReader::new(xml);
        let mut stack: Vec<TwinNode> = Vec::new();
        let mut root = None;
        loop {
            match reader.next_event().expect("well-formed XML") {
                XmlEvent::StartElement { name, attrs } => stack.push(TwinNode {
                    name,
                    attrs,
                    text: String::new(),
                    children: Vec::new(),
                }),
                XmlEvent::Text(t) => {
                    if let Some(f) = stack.last_mut() {
                        f.text.push_str(&t);
                    }
                }
                XmlEvent::EndElement { .. } => {
                    let mut done = stack.pop().expect("balanced");
                    done.text = done.text.trim().to_string();
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(done),
                        None => root = Some(done),
                    }
                }
                XmlEvent::Eof => break,
                _ => {}
            }
        }
        root.expect("document has a root")
    }

    fn serialize(&self) -> String {
        let mut w = xmorph_xml::writer::StreamWriter::with_capacity(1 << 16);
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut xmorph_xml::writer::StreamWriter) {
        w.start(&self.name);
        for (k, v) in &self.attrs {
            w.attr(k, v);
        }
        w.text(&self.text);
        for c in &self.children {
            c.write(w);
        }
        w.end();
    }

    /// Child-index trail to the `n`-th instance (document order) of the
    /// element whose root path is `path`.
    fn locate(&self, path: &[String], depth: usize, n: &mut usize, trail: &mut Vec<usize>) -> bool {
        if self.name != path[depth] {
            return false;
        }
        if depth + 1 == path.len() {
            if *n == 0 {
                return true;
            }
            *n -= 1;
            return false;
        }
        for (i, c) in self.children.iter().enumerate() {
            trail.push(i);
            if c.locate(path, depth + 1, n, trail) {
                return true;
            }
            trail.pop();
        }
        false
    }

    fn node_mut(&mut self, trail: &[usize]) -> &mut TwinNode {
        let mut cur = self;
        for &i in trail {
            cur = &mut cur.children[i];
        }
        cur
    }
}

/// One XMark factor-0.01 base document, generated once per process.
fn xmark_base() -> &'static str {
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| xmorph_datagen::XmarkConfig::with_factor(0.01).generate())
}

const FRAGMENTS: &[&str] = &[
    r#"<note priority="high">check</note>"#,
    "<emph>hot</emph>",
    "<audit><who>qa</who><when>2002</when></audit>",
    "<status>open</status>",
];

const NEW_TEXTS: &[&str] = &["revised", "  padded  ", "", "Lorem ipsum dolor"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum OpKind {
    Update,
    Append,
    Delete,
    InsertBefore,
}

/// `(kind, type selector, instance selector)` — the selectors pick
/// modulo whatever is live when the op applies, so every generated op
/// resolves to a real target.
type Op = (OpKind, usize, usize);

fn ops_strategy(kinds: &'static [OpKind]) -> impl Strategy<Value = Vec<Op>> {
    let op =
        (0..kinds.len(), 0usize..1 << 30, 0usize..1 << 30).prop_map(|(k, a, b)| (kinds[k], a, b));
    proptest::collection::vec(op, 1..8)
}

/// Element types with live instances; `Delete`/`InsertBefore` also
/// exclude the root (those mutations are rejected on it).
fn live_targets(doc: &ShreddedDoc, allow_root: bool) -> Vec<TypeId> {
    doc.types()
        .ids()
        .filter(|&t| {
            let dotted = doc.types().dotted(t);
            doc.instance_count(t) > 0
                && !dotted.contains('@')
                && (allow_root || dotted.contains('.'))
        })
        .collect()
}

/// Apply one mutation to both the ShreddedDoc and its twin. The target
/// is addressed positionally — the `i`-th instance of a type path — so
/// both sides resolve it independently.
fn apply_op(doc: &mut ShreddedDoc, twin: &mut TwinNode, op: &Op) {
    let (kind, type_sel, inst_sel) = op;
    let targets = live_targets(doc, *kind == OpKind::Update || *kind == OpKind::Append);
    if targets.is_empty() {
        return;
    }
    let t = targets[type_sel % targets.len()];
    let path: Vec<String> = doc
        .types()
        .dotted(t)
        .split('.')
        .map(str::to_string)
        .collect();
    let rows = doc.scan_type(t);
    let idx = inst_sel % rows.len();
    let dewey = rows[idx].0.clone();
    let mut n = idx;
    let mut trail = Vec::new();
    assert!(
        twin.locate(&path, 0, &mut n, &mut trail),
        "twin lost instance {idx} of {}",
        path.join(".")
    );
    match kind {
        OpKind::Update => {
            let text = NEW_TEXTS[inst_sel % NEW_TEXTS.len()];
            doc.update_text(&dewey, text).unwrap();
            twin.node_mut(&trail).text = text.trim().to_string();
        }
        OpKind::Append => {
            let frag = FRAGMENTS[inst_sel % FRAGMENTS.len()];
            doc.insert_subtree(&dewey, frag).unwrap();
            twin.node_mut(&trail).children.push(TwinNode::parse(frag));
        }
        OpKind::Delete => {
            doc.delete_subtree(&dewey).unwrap();
            let (last, parent_trail) = trail.split_last().expect("non-root target");
            twin.node_mut(parent_trail).children.remove(*last);
        }
        OpKind::InsertBefore => {
            let frag = FRAGMENTS[inst_sel % FRAGMENTS.len()];
            doc.insert_subtree_before(&dewey, frag).unwrap();
            let (last, parent_trail) = trail.split_last().expect("non-root target");
            twin.node_mut(parent_trail)
                .children
                .insert(*last, TwinNode::parse(frag));
        }
    }
}

/// The behavioural comparison: every type path agrees on instance count
/// and document-ordered text sequence, the mutated document's columns
/// agree with its own B+tree, its conservative cards bound the fresh
/// exact ones, and a cast guard renders byte-identically.
fn assert_equivalent(doc: &ShreddedDoc, fresh: &ShreddedDoc) {
    for ft in fresh.types().ids() {
        let dotted = fresh.types().dotted(ft);
        let path: Vec<String> = dotted.split('.').map(str::to_string).collect();
        let dt = doc
            .types()
            .lookup(&path)
            .unwrap_or_else(|| panic!("mutated doc lost type {dotted}"));
        assert_eq!(
            doc.instance_count(dt),
            fresh.instance_count(ft),
            "count of {dotted}"
        );
        let doc_texts: Vec<String> = doc.scan_type(dt).into_iter().map(|(_, t)| t).collect();
        let fresh_texts: Vec<String> = fresh.scan_type(ft).into_iter().map(|(_, t)| t).collect();
        assert_eq!(doc_texts, fresh_texts, "texts of {dotted}");
        let (dc, fc) = (doc.shape().card(dt), fresh.shape().card(ft));
        assert!(
            dc.min <= fc.min && dc.max >= fc.max,
            "card of {dotted}: maintained {dc} must contain exact {fc}"
        );
    }
    for dt in doc.types().ids() {
        let dotted = doc.types().dotted(dt);
        let path: Vec<String> = dotted.split('.').map(str::to_string).collect();
        if fresh.types().lookup(&path).is_none() {
            assert_eq!(
                doc.instance_count(dt),
                0,
                "type {dotted} absent from fresh shred but live"
            );
        }
        assert_eq!(
            doc.scan_type(dt),
            doc.scan_type_btree(dt).unwrap(),
            "column vs btree for {dotted}"
        );
    }
    for guard in ["CAST MORPH person [ name ]", "CAST MORPH item [ name ]"] {
        let g = Guard::parse(guard).unwrap();
        assert_eq!(
            g.apply(doc).map(|o| o.xml).map_err(|e| e.to_string()),
            g.apply(fresh).map(|o| o.xml).map_err(|e| e.to_string()),
            "guard {guard}"
        );
    }
}

/// The vertices of a DOM subtree in document order — each element,
/// then its attributes (as `@name` children, which the shredder numbers
/// first), then its child elements — as (label path, trimmed direct
/// text; an attribute's value as is).
fn dom_vertices(
    dom: &Document,
    id: NodeId,
    path: &mut Vec<String>,
    out: &mut Vec<(Vec<String>, String)>,
) {
    path.push(dom.name(id).to_string());
    out.push((path.clone(), dom.direct_text(id).trim().to_string()));
    for (name, value) in dom.attrs(id) {
        path.push(format!("@{name}"));
        out.push((path.clone(), value.clone()));
        path.pop();
    }
    for c in dom.children(id) {
        dom_vertices(dom, c, path, out);
    }
    path.pop();
}

/// `node_type` and `node_text` against the xmlkit DOM of the twin. The
/// document's rows in Dewey order are the DOM's vertices in document
/// order, so the `i`-th label must name the `i`-th vertex's label-path
/// type and hold its text. Labels that name no vertex — one past a
/// vertex's last child, one level below a leaf, the root's next
/// sibling, and every ordinal inside a gap that a delete or a renumber
/// left — must be `None`.
fn assert_locates_like_dom(doc: &ShreddedDoc, twin: &TwinNode) {
    let dom = Document::parse_str(&twin.serialize()).expect("twin reparses");
    let mut want = Vec::new();
    dom_vertices(
        &dom,
        dom.root_element().expect("root"),
        &mut Vec::new(),
        &mut want,
    );
    let mut rows: Vec<(Dewey, TypeId)> = doc
        .types()
        .ids()
        .flat_map(|t| doc.scan_type(t).into_iter().map(move |(d, _)| (d, t)))
        .collect();
    rows.sort_by(|a, b| a.0.components().cmp(b.0.components()));
    assert_eq!(rows.len(), want.len(), "vertex count");
    for ((dewey, t), (path, text)) in rows.iter().zip(&want) {
        let dotted = path.join(".");
        assert_eq!(
            doc.types().lookup(path),
            Some(*t),
            "type of {dewey} is {dotted}"
        );
        assert_eq!(doc.node_type(dewey).unwrap(), Some(*t), "node_type {dewey}");
        assert_eq!(
            doc.node_text(dewey).unwrap().as_deref(),
            Some(text.as_str()),
            "node_text {dewey}"
        );
    }
    // Child ordinals per label: rows are sorted, so each child list
    // comes out ascending.
    let mut kids: std::collections::HashMap<&[u32], Vec<u32>> = Default::default();
    for (dewey, _) in &rows {
        let c = dewey.components();
        kids.entry(c).or_default();
        if let Some((&ord, parent)) = c.split_last() {
            kids.entry(parent).or_default().push(ord);
        }
    }
    let mut absent = vec![Dewey::from_components(vec![2])];
    for (label, ords) in &kids {
        if label.is_empty() {
            continue;
        }
        let at = |ord: u32| Dewey::from_components([*label, &[ord]].concat());
        absent.push(at(ords.last().map_or(1, |&m| m + 1)));
        let mut prev = 0;
        for &ord in ords {
            absent.extend((prev + 1..ord).map(at));
            prev = ord;
        }
    }
    for dewey in &absent {
        assert_eq!(
            doc.node_type(dewey).unwrap(),
            None,
            "node_type {dewey} names no vertex"
        );
        assert_eq!(
            doc.node_text(dewey).unwrap(),
            None,
            "node_text {dewey} names no vertex"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mutated_doc_equals_fresh_shred_of_mutated_xml(
        ops in ops_strategy(&[OpKind::Update, OpKind::Append, OpKind::Delete, OpKind::InsertBefore])
    ) {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, xmark_base()).unwrap();
        let mut twin = TwinNode::parse(xmark_base());
        for op in &ops {
            apply_op(&mut doc, &mut twin, op);
            assert_locates_like_dom(&doc, &twin);
        }
        let (_fs, fresh) = shred(&twin.serialize());
        assert_equivalent(&doc, &fresh);
    }

    #[test]
    fn update_and_append_mutations_are_column_byte_identical(
        ops in ops_strategy(&[OpKind::Update, OpKind::Append])
    ) {
        // Updates never move labels and appends allocate densely on a
        // freshly shredded document, so the mutated columns must be
        // *byte-identical* to a fresh shred's — same Dewey components,
        // same offsets, same text arena — type by type path.
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, xmark_base()).unwrap();
        let mut twin = TwinNode::parse(xmark_base());
        for op in &ops {
            apply_op(&mut doc, &mut twin, op);
        }
        let (_fs, fresh) = shred(&twin.serialize());
        assert_equivalent(&doc, &fresh);
        for ft in fresh.types().ids() {
            let dotted = fresh.types().dotted(ft);
            let path: Vec<String> = dotted.split('.').map(str::to_string).collect();
            let dt = doc.types().lookup(&path).unwrap();
            prop_assert!(
                *doc.column(dt) == *fresh.column(ft),
                "column bytes diverge for {}", dotted
            );
        }
    }
}

// ---------------------------------------------------------------------
// Column wire formats and the batched closest-join kernel.
// ---------------------------------------------------------------------

/// Short texts covering the empty string and multi-byte UTF-8, so the
/// roundtrip exercises arena offsets on non-trivial char boundaries.
const ARENA_TEXTS: &[&str] = &["", "a", "bc", "é", "€x", "déjà vu"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn colseg_v2_roundtrips_arbitrary_sorted_rows(
        width_sel in 0usize..5,
        raw in proptest::collection::vec(
            (proptest::collection::vec(0u32..1 << 20, 6), 0usize..1 << 30),
            0..48
        ),
    ) {
        use xmorph_core::colseg_testing::{decode_column, encode_column_v1, encode_column_v2};
        let width = width_sel + 1;
        let mut rows: Vec<(Vec<u32>, &str)> = raw
            .iter()
            .map(|(r, t)| (r[..width].to_vec(), ARENA_TEXTS[t % ARENA_TEXTS.len()]))
            .collect();
        rows.sort();
        let mut comps = Vec::new();
        let mut offsets = vec![0u32];
        let mut texts = String::new();
        for (r, t) in &rows {
            comps.extend_from_slice(r);
            texts.push_str(t);
            offsets.push(texts.len() as u32);
        }
        let generation = 42u64;
        // Both wire formats decode back to exactly the arrays encoded.
        let v2 = encode_column_v2(width, &comps, &offsets, &texts, generation);
        let (c2, o2, t2) = decode_column(&v2, width, generation).expect("v2 roundtrip");
        prop_assert_eq!(&c2, &comps);
        prop_assert_eq!(&o2, &offsets);
        prop_assert_eq!(&t2, &texts);
        let v1 = encode_column_v1(width, &comps, &offsets, &texts, generation);
        let (c1, o1, t1) = decode_column(&v1, width, generation).expect("v1 roundtrip");
        prop_assert_eq!(&c1, &comps);
        prop_assert_eq!(&o1, &offsets);
        prop_assert_eq!(&t1, &texts);
        // A stale generation or a damaged payload is an error, not a
        // panic or a wrong answer.
        prop_assert!(decode_column(&v2, width, generation + 1).is_err());
        let mut bad = v2.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        prop_assert!(decode_column(&bad, width, generation).is_err());
    }
}

/// The per-dataset batch check: on every generated corpus, batched
/// probes must agree elementwise with per-parent probes for every type
/// pair among the densest types (densest = most parents, i.e. the
/// probes the batch kernel actually amortizes).
fn assert_batch_matches_scalar(doc: &ShreddedDoc, label: &str) {
    let snap = doc.snapshot();
    let mut types: Vec<TypeId> = doc
        .types()
        .ids()
        .filter(|&t| doc.instance_count(t) > 0)
        .collect();
    types.sort_by_key(|&t| std::cmp::Reverse(doc.instance_count(t)));
    types.truncate(12);
    let mut related = 0usize;
    for &a in &types {
        let parents: Vec<_> = snap.scan_type(a).into_iter().map(|(d, _)| d).collect();
        for &b in &types {
            let Some((col, ranges)) = snap.closest_children_batch(&parents, a, b) else {
                for p in &parents {
                    assert!(
                        snap.closest_group(p, a, b).is_none(),
                        "{label}: scalar finds a group batch denies at {p}"
                    );
                }
                continue;
            };
            related += 1;
            assert_eq!(ranges.len(), parents.len());
            for (p, r) in parents.iter().zip(&ranges) {
                let (scol, want) = snap.closest_group(p, a, b).unwrap();
                assert_eq!(r.clone(), want, "{label}: group at {p} for {a:?}->{b:?}");
                assert_eq!(*col, *scol, "{label}: column identity for {a:?}->{b:?}");
                // And the materialized form agrees with the reference.
                let materialized: Vec<_> = r
                    .clone()
                    .map(|i| (col.dewey(i), col.text(i).to_string()))
                    .collect();
                assert_eq!(
                    materialized,
                    snap.closest_children(p, a, b),
                    "{label}: children at {p}"
                );
            }
        }
    }
    assert!(related > 0, "{label}: no related type pairs exercised");
}

#[test]
fn batched_probes_match_scalar_on_xmark_dblp_nasa() {
    for (label, xml) in [
        ("xmark", xmark_base().to_string()),
        (
            "dblp",
            xmorph_datagen::DblpConfig::with_approx_bytes(120_000).generate(),
        ),
        (
            "nasa",
            xmorph_datagen::NasaConfig::with_approx_bytes(120_000).generate(),
        ),
    ] {
        let (_s, doc) = shred(&xml);
        assert_batch_matches_scalar(&doc, label);
    }
}

#[test]
fn v1_segments_still_open_byte_identically() {
    // A store persisted by the previous (v1, uncompressed) format must
    // keep opening with zero fallbacks now that the write path emits
    // v2 — and serve byte-identical columns.
    let xml = xmark_base();
    let path = temp_path("v1-compat");
    {
        let store = Store::create(&path).unwrap();
        let doc = ShreddedDoc::shred_str_with(
            &store,
            xml,
            &ShredOptions::builder().persist_columns(false),
        )
        .unwrap();
        doc.persist_all_columns_v1().unwrap();
        store.close().unwrap();
    }
    let store = Store::open(&path).unwrap();
    let v1doc = ShreddedDoc::open(&store).unwrap();
    let (_fs, fresh) = shred(xml);
    for ft in fresh.types().ids() {
        let dotted = fresh.types().dotted(ft);
        let path: Vec<String> = dotted.split('.').map(str::to_string).collect();
        let vt = v1doc.types().lookup(&path).unwrap();
        assert!(
            *v1doc.column(vt) == *fresh.column(ft),
            "v1-opened column diverges for {dotted}"
        );
    }
    assert!(
        v1doc.segment_fallbacks().is_empty(),
        "v1 segments must validate: {:?}",
        v1doc.segment_fallbacks()
    );
    drop((v1doc, store));
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Bulk (external-sort) shred equivalence and abort atomicity: a bulk
// shred under any memory budget — ones forcing many, one, or zero
// spilled runs per stream, and none at all — must describe exactly the
// document the incremental reference shred does, down to rendered
// bytes and persisted column segments; and a shred that fails must
// leave nothing behind.
// ---------------------------------------------------------------------

/// Documents exercising the features the shredder must stream
/// faithfully — attributes, mixed content, CDATA, comments, deep
/// nesting — fat enough that the smallest budget spills several runs.
fn streaming_corpus() -> impl Strategy<Value = String> {
    let entry = (0u32..4, 0usize..3, proptest::bool::ANY, proptest::bool::ANY);
    (proptest::collection::vec(entry, 8..48), 2usize..6).prop_map(|(entries, depth)| {
        let mut s = String::from("<corpus version=\"1\">");
        for (i, (kind, attrs, cdata, mixed)) in entries.iter().enumerate() {
            s.push_str("<entry");
            for a in 0..*attrs {
                s.push_str(&format!(" a{a}=\"v{i}-{a}\""));
            }
            s.push('>');
            match kind {
                0 => s.push_str(&format!("plain text {i} padded to fatten the sorted runs")),
                1 => {
                    for _ in 0..depth {
                        s.push_str("<deep>");
                    }
                    s.push_str("bottom");
                    for _ in 0..depth {
                        s.push_str("</deep>");
                    }
                }
                2 => {
                    s.push_str("<!-- note -->");
                    s.push_str(&format!("<a>x{i}</a> tail {i} <b>y{i}</b> more"));
                }
                _ => s.push_str(&format!("<a>only {i}</a>")),
            }
            if *cdata {
                s.push_str("<![CDATA[raw <not-a-tag> & bytes]]>");
            }
            if *mixed {
                s.push_str(&format!(" trailing {i} <em>mix</em> end"));
            }
            s.push_str("</entry>");
        }
        s.push_str("</corpus>");
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streaming_shred_equals_in_memory_shred(
        xml in streaming_corpus(),
        // Budgets at the floor (many runs), mid (zero or one spill),
        // far above the corpus (never spills), and unset (unbounded).
        budget in prop_oneof![
            Just(Some(1usize)),
            Just(Some(16 * 1024)),
            Just(Some(1 << 20)),
            Just(None),
        ],
    ) {
        let (_is, inc) = shred_incremental(&xml);
        let st_store = Store::in_memory();
        let opts = match budget {
            Some(bytes) => ShredOptions::builder().memory_budget(bytes),
            None => ShredOptions::builder(),
        };
        let st = ShreddedDoc::shred_str_with(&st_store, &xml, &opts).unwrap();

        prop_assert_eq!(inc.shape().to_bytes(), st.shape().to_bytes());
        let types: Vec<TypeId> = inc.types().ids().collect();
        for &t in &types {
            prop_assert_eq!(inc.scan_type(t), st.scan_type(t));
            prop_assert_eq!(inc.scan_type_btree(t).unwrap(), st.scan_type_btree(t).unwrap());
            for (d, _) in inc.scan_type(t) {
                prop_assert_eq!(inc.node_text(&d).unwrap(), st.node_text(&d).unwrap());
                prop_assert_eq!(inc.node_type(&d).unwrap(), st.node_type(&d).unwrap());
            }
        }
        // No spill segments survive the shred.
        prop_assert!(st_store
            .segment_entries()
            .unwrap()
            .iter()
            .all(|(n, _)| !n.starts_with("__shredrun.")));

        // Rendered output — end-to-end byte identity (or identical
        // typing errors where a guard does not apply).
        for guard in ["MORPH entry", "MORPH deep", "MORPH entry [ a b ]"] {
            let g = Guard::parse(guard).unwrap();
            let a = g.apply(&inc).map(|o| o.xml);
            let b = g.apply(&st).map(|o| o.xml);
            prop_assert_eq!(format!("{:?}", a), format!("{:?}", b), "guard {}", guard);
        }
    }

    #[test]
    fn streaming_shred_persists_identical_segments_to_in_memory(xml in streaming_corpus()) {
        // The reference columns come from the incremental shred's
        // post-commit decode of `typeseq`; both bulk shreds build theirs
        // in the merge's column tee, spilling (budget 1) or not (unset).
        let p1 = temp_path("seg-inc");
        let p2 = temp_path("seg-ext");
        let p3 = temp_path("seg-unbounded");
        {
            let s1 = Store::create(&p1).unwrap();
            ShreddedDoc::shred_str_with(&s1, &xml, &ShredOptions::builder().bulk_load(false))
                .unwrap();
            let s2 = Store::create(&p2).unwrap();
            ShreddedDoc::shred_str_with(
                &s2,
                &xml,
                &ShredOptions::builder().memory_budget(1),
            )
            .unwrap();
            let s3 = Store::create(&p3).unwrap();
            ShreddedDoc::shred_str(&s3, &xml).unwrap();

            let mut names: Vec<String> =
                s1.segment_entries().unwrap().into_iter().map(|(n, _)| n).collect();
            prop_assert!(!names.is_empty());
            names.sort();
            for bulk in [&s2, &s3] {
                let mut names2: Vec<String> =
                    bulk.segment_entries().unwrap().into_iter().map(|(n, _)| n).collect();
                names2.sort();
                prop_assert_eq!(&names, &names2);
                for name in &names {
                    let a = s1.get_segment(name, false).unwrap().unwrap();
                    let b = bulk.get_segment(name, false).unwrap().unwrap();
                    prop_assert_eq!(&a[..], &b[..], "segment {} differs", name);
                }
            }
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        std::fs::remove_file(&p3).ok();
    }
}

/// Satellite regression: an incremental (`bulk_load(false)`) shred that
/// fails mid-document must roll its transaction back and leave the
/// store file byte-identical to the pre-shred image — no half-populated
/// trees, no stray catalog entries.
#[test]
fn failed_incremental_shred_rolls_back_cleanly() {
    let path = temp_path("abort");
    {
        let store = Store::create(&path).unwrap();
        ShreddedDoc::shred_str(&store, "<lib><book><title>X</title></book></lib>").unwrap();
        store.close().unwrap();
    }
    // Control open/close, to factor out any maintenance the store
    // performs on open regardless of the shred.
    {
        let store = Store::open(&path).unwrap();
        store.close().unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    {
        let store = Store::open(&path).unwrap();
        let res = ShreddedDoc::shred_str_with(
            &store,
            "<lib><book><title>Y</title>", // truncated mid-element
            &ShredOptions::builder().bulk_load(false),
        );
        assert!(res.is_err(), "truncated document must fail to shred");
        store.close().unwrap();
    }
    let after = std::fs::read(&path).unwrap();
    assert_eq!(
        before, after,
        "aborted shred must leave the store byte-identical"
    );
    std::fs::remove_file(&path).ok();
}

/// A failed streaming shred must clean up every spilled run segment.
#[test]
fn failed_streaming_shred_leaves_no_run_segments() {
    let store = Store::in_memory();
    let res = ShreddedDoc::shred_str_with(
        &store,
        "<corpus><entry>half", // parse fails after some entries spill
        &ShredOptions::builder().memory_budget(1),
    );
    assert!(res.is_err());
    assert!(store
        .segment_entries()
        .unwrap()
        .iter()
        .all(|(n, _)| !n.starts_with("__shredrun.")));
}

/// Every shred, bulk or incremental, clears the spill runs a crashed
/// earlier shred left behind: nothing else removes them, and vacuum
/// keeps them because they are live segments.
#[test]
fn every_shred_clears_stale_run_segments() {
    let no_runs = |store: &Store| {
        store
            .segment_entries()
            .unwrap()
            .iter()
            .all(|(n, _)| !n.starts_with("__shredrun."))
    };
    for opts in [
        ShredOptions::builder(),
        ShredOptions::builder().bulk_load(false),
    ] {
        let store = Store::in_memory();
        store
            .put_segment("__shredrun.t.0", b"left by a crash")
            .unwrap();
        assert!(!no_runs(&store));
        ShreddedDoc::shred_str_with(&store, "<lib><book>X</book></lib>", &opts).unwrap();
        assert!(no_runs(&store), "stale run survived a shred with {opts:?}");
    }
}
