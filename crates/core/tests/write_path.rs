//! The write path's persisted state and its cost in pages.
//!
//! * **Reopen ≡ live for the shape.** A mutation persists only the
//!   per-type shape rows it changed (`meta["shape." ‖ type id]`) over
//!   the base blob a shred wrote. After any seeded stream of updates,
//!   type-interning inserts, `min`-zeroing deletes and renumbering
//!   `insert_subtree_before`s on a file store, a cold open must rebuild
//!   a shape byte-identical to the live document's.
//! * **Old layout still opens.** A store whose blob holds the whole
//!   mutated shape and no rows — the layout before per-type rows — opens
//!   to the same shape.
//! * **No leak per write.** An insert or delete writes a few leaf pages,
//!   so 300 insert/delete pairs of `mixed.rw`'s shape grow the file by
//!   at most two pages per write.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use xmorph_core::{Dewey, ShreddedDoc, TypeId};
use xmorph_pagestore::Store;

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("xmorph-writepath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.db", SEQ.fetch_add(1, Ordering::Relaxed)))
}

const LIBRARY: &str = "<lib>\
    <book><title>A</title><author><name>N1</name></author><author><name>N2</name></author></book>\
    <book><title>B</title><author><name>N3</name></author><publisher><name>P</name></publisher></book>\
    <book><title>C</title><author><name>N4</name></author></book>\
    </lib>";

/// Fragments that intern new types (at any parent) as well as ones that
/// reuse the library's own.
const FRAGMENTS: &[&str] = &[
    r#"<review stars="4"><by>qa</by></review>"#,
    "<award>prize</award>",
    "<author><name>New</name></author>",
    "<book><title>D</title></book>",
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Update,
    Append,
    Delete,
    InsertBefore,
}

type Op = (Kind, usize, usize);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    const KINDS: [Kind; 4] = [Kind::Update, Kind::Append, Kind::Delete, Kind::InsertBefore];
    let op =
        (0..KINDS.len(), 0usize..1 << 20, 0usize..1 << 20).prop_map(|(k, a, b)| (KINDS[k], a, b));
    prop::collection::vec(op, 1..24)
}

/// Apply one op to a live instance picked by the selectors; ops with no
/// eligible target are skipped. Deletes and inserts-before never aim at
/// the root.
fn apply(doc: &mut ShreddedDoc, (kind, type_sel, inst_sel): Op) {
    let allow_root = matches!(kind, Kind::Update | Kind::Append);
    let targets: Vec<TypeId> = doc
        .types()
        .ids()
        .filter(|&t| {
            let dotted = doc.types().dotted(t);
            doc.instance_count(t) > 0
                && !dotted.contains('@')
                && (allow_root || dotted.contains('.'))
        })
        .collect();
    if targets.is_empty() {
        return;
    }
    let rows = doc.scan_type(targets[type_sel % targets.len()]);
    let at: Dewey = rows[inst_sel % rows.len()].0.clone();
    let frag = FRAGMENTS[inst_sel % FRAGMENTS.len()];
    match kind {
        Kind::Update => doc.update_text(&at, "changed").map(drop),
        Kind::Append => doc.insert_subtree(&at, frag).map(drop),
        Kind::Delete => doc.delete_subtree(&at).map(drop),
        Kind::InsertBefore => doc.insert_subtree_before(&at, frag).map(drop),
    }
    .unwrap();
}

/// Every type's maintained instance count matches its rows.
fn counts_match_rows(doc: &ShreddedDoc) {
    for t in doc.types().ids() {
        assert_eq!(
            doc.instance_count(t),
            doc.scan_type(t).len() as u64,
            "type {}",
            doc.types().dotted(t)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reopened_shape_is_byte_identical_to_live(ops in ops_strategy()) {
        let path = temp_path("reopen");
        let live = {
            let store = Store::create(&path).unwrap();
            let mut doc = ShreddedDoc::shred_str(&store, LIBRARY).unwrap();
            for &op in &ops {
                apply(&mut doc, op);
            }
            counts_match_rows(&doc);
            let live = doc.shape().to_bytes();
            store.close().unwrap();
            live
        };
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        prop_assert_eq!(doc.shape().to_bytes(), live);
        counts_match_rows(&doc);
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }
}

/// A renumbering insert-before, a type-interning append and a
/// `min`-zeroing delete, spelled out: the fixed-point of the proptest
/// above, easy to read when it fails.
#[test]
fn renumber_intern_and_delete_survive_reopen() {
    let path = temp_path("fixed");
    let live = {
        let store = Store::create(&path).unwrap();
        let mut doc = ShreddedDoc::shred_str(&store, LIBRARY).unwrap();
        // No gap before book 2: the tail renumbers.
        doc.insert_subtree_before(&"1.2".parse().unwrap(), FRAGMENTS[3])
            .unwrap();
        doc.insert_subtree(&"1.1".parse().unwrap(), FRAGMENTS[0])
            .unwrap();
        // Book 1.3's only author: that edge's min drops to 0.
        let book = doc.types().lookup(&["lib".into(), "book".into()]).unwrap();
        let last_book = doc.scan_type(book).last().unwrap().0.clone();
        doc.delete_subtree(&last_book.child(2)).unwrap();
        let live = doc.shape().to_bytes();
        store.close().unwrap();
        live
    };
    let store = Store::open(&path).unwrap();
    let doc = ShreddedDoc::open(&store).unwrap();
    assert_eq!(doc.shape().to_bytes(), live);
    let review = ["lib", "book", "review", "@stars"].map(String::from);
    assert!(doc.types().lookup(&review).is_some());
    drop((doc, store));
    std::fs::remove_file(&path).ok();
}

/// A failed type-interning insert, then a successful one: the failure
/// must not leave a hole in the interned ids that the next insert's
/// rows cannot bridge on reopen.
#[test]
fn failed_insert_then_interning_insert_survives_reopen() {
    let path = temp_path("failed-insert");
    let live = {
        let store = Store::create(&path).unwrap();
        let mut doc = ShreddedDoc::shred_str(&store, LIBRARY).unwrap();
        let book: Dewey = "1.1".parse().unwrap();
        assert!(doc.insert_subtree(&book, "<newtag/><x/>").is_err());
        doc.insert_subtree(&book, FRAGMENTS[1]).unwrap();
        let live = doc.shape().to_bytes();
        store.close().unwrap();
        live
    };
    let store = Store::open(&path).unwrap();
    let doc = ShreddedDoc::open(&store).unwrap();
    assert_eq!(doc.shape().to_bytes(), live);
    let newtag = ["lib", "book", "newtag"].map(String::from);
    assert!(doc.types().lookup(&newtag).is_none());
    counts_match_rows(&doc);
    drop((doc, store));
    std::fs::remove_file(&path).ok();
}

/// The layout before per-type rows: every mutation rewrote the whole
/// shape into `meta["shape"]` and no `shape.` row existed. Such a store
/// must open to the same shape.
#[test]
fn blob_only_store_opens_to_the_same_shape() {
    let path = temp_path("blob-only");
    let live = {
        let store = Store::create(&path).unwrap();
        let mut doc = ShreddedDoc::shred_str(&store, LIBRARY).unwrap();
        doc.insert_subtree(&"1.2".parse().unwrap(), FRAGMENTS[0])
            .unwrap();
        doc.delete_subtree(&"1.1.2".parse().unwrap()).unwrap();
        let live = doc.shape().to_bytes();
        // Rewrite the store into the old layout.
        let meta = store.open_tree("meta").unwrap();
        let rows = meta.scan_prefix(b"shape.").entries().unwrap();
        assert!(!rows.is_empty());
        for (k, _) in rows {
            meta.delete(&k).unwrap();
        }
        meta.insert(b"shape", &live).unwrap();
        store.close().unwrap();
        live
    };
    let store = Store::open(&path).unwrap();
    let doc = ShreddedDoc::open(&store).unwrap();
    assert_eq!(doc.shape().to_bytes(), live);
    counts_match_rows(&doc);
    drop((doc, store));
    std::fs::remove_file(&path).ok();
}

/// 300 insert/delete pairs of `mixed.rw`'s shape — a two-node person
/// appended under `people`, the oldest inserted person deleted — on a
/// file store. Each write used to abandon a whole-shape overflow chain
/// (17 pages at XMark 0.2); now the file grows only as the trees do.
#[test]
fn inserts_and_deletes_do_not_leak_pages() {
    let path = temp_path("leak");
    let xml = xmorph_datagen::XmarkConfig::with_factor(0.01).generate();
    let store = Store::create(&path).unwrap();
    let mut doc = ShreddedDoc::shred_str(&store, &xml).unwrap();
    let people_path = ["site", "people"].map(String::from);
    let people_t = doc.types().lookup(&people_path).unwrap();
    let people = doc.scan_type(people_t)[0].0.clone();
    let pairs = 300u64;
    let before = store.page_count();
    let mut inserted = std::collections::VecDeque::new();
    for k in 0..pairs {
        let at = doc
            .insert_subtree(&people, &format!("<person><name>NEW{k}</name></person>"))
            .unwrap();
        inserted.push_back(at);
        if k >= 4 {
            let oldest = inserted.pop_front().unwrap();
            doc.delete_subtree(&oldest).unwrap();
        }
    }
    while let Some(oldest) = inserted.pop_front() {
        doc.delete_subtree(&oldest).unwrap();
    }
    let grown = store.page_count() - before;
    assert!(
        grown <= 2 * 2 * pairs,
        "{grown} pages for {} writes",
        2 * pairs
    );
    counts_match_rows(&doc);
    store.close().unwrap();
    drop((doc, store));
    std::fs::remove_file(&path).ok();
}

/// A store holds `typeseq` and `meta` and no other tree: no shred
/// pipeline and no mutation keeps a second copy of the rows.
#[test]
fn shreds_and_mutations_keep_only_typeseq_and_meta() {
    use xmorph_core::ShredOptions;
    let trees = |store: &Store| {
        let mut names = store.tree_names();
        names.sort();
        names
    };
    let d = |s: &str| s.parse::<Dewey>().unwrap();
    for opts in [
        ShredOptions::builder().bulk_load(false),
        ShredOptions::builder(),
        ShredOptions::builder().memory_budget(1),
    ] {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str_with(&store, LIBRARY, &opts).unwrap();
        assert_eq!(trees(&store), ["meta", "typeseq"], "after the shred");
        doc.update_text(&d("1.1.1"), "Z").unwrap();
        doc.insert_subtree(&d("1.2"), FRAGMENTS[0]).unwrap();
        // No gap before book 1.2: the insert renumbers the tail.
        doc.insert_subtree_before(&d("1.2"), FRAGMENTS[3]).unwrap();
        doc.delete_subtree(&d("1.1")).unwrap();
        assert_eq!(trees(&store), ["meta", "typeseq"], "after the mutations");
        counts_match_rows(&doc);
    }
}
