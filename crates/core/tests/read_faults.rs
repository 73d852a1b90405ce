//! A read error on the write path is an error, never a short scan.
//!
//! `delete_subtree` and a renumbering `insert_subtree_before` both
//! collect the keys they will rewrite with a prefix scan before their
//! transaction writes. A scan that stopped quietly at an I/O error would
//! look like the end of the subtree, and the mutation would commit a
//! partial delete (orphaning the rest) or a partial renumber. The sweep
//! here fails one device read at a time, at every read index either
//! mutation issues, on a buffer pool small enough that its scans miss.
//! Every outcome must be one of two:
//!
//! * full success: the result and the stored trees equal the fault-free
//!   run's;
//! * a typed store error, with the stored trees and the persisted shape
//!   identical to the pre-mutation ones.
//!
//! Anything else is counted as a partial outcome, and there must be
//! none.

use xmorph_core::{Dewey, MorphError, MorphResult, ShreddedDoc};
use xmorph_pagestore::{FaultHandle, FaultScript, FaultStorage, Store};

/// A `lib` with one wide subtree (`lib.big`, 1,500 items of two nodes
/// each) for the delete and one long child list (`lib.list`, 600
/// entries) whose first child sits at ordinal 1, so an insert before
/// it finds no gap and renumbers every entry.
fn library_xml() -> String {
    let mut s = String::from("<lib><big>");
    for i in 0..1500 {
        s.push_str(&format!("<item><v>value {i}</v></item>"));
    }
    s.push_str("</big><list>");
    for i in 0..600 {
        s.push_str(&format!("<entry><k>key {i}</k></entry>"));
    }
    s.push_str("</list></lib>");
    s
}

/// Pages the buffer pool holds: far fewer than either tree spans.
const POOL_PAGES: usize = 16;

fn open_store(image: Vec<u8>, script: FaultScript) -> (Store, FaultHandle) {
    let (storage, handle) = FaultStorage::with_image(image, script);
    let store = Store::options()
        .capacity(POOL_PAGES)
        .shards(1)
        .with_storage(Box::new(storage))
        .expect("open store");
    (store, handle)
}

/// The flushed image of the freshly shredded library.
fn base_image() -> Vec<u8> {
    let (storage, handle) = FaultStorage::new(FaultScript::none());
    let store = Store::options()
        .capacity(POOL_PAGES)
        .shards(1)
        .with_storage(Box::new(storage))
        .expect("create store");
    ShreddedDoc::shred_str(&store, &library_xml()).expect("shred");
    store.close().expect("close");
    handle.image()
}

/// Everything a mutation may change, read back through the store: the
/// `nodes`, `typeseq` and `meta` trees entry by entry, and the shape a
/// cold open rebuilds from them.
fn state(store: &Store) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for name in ["nodes", "typeseq", "meta"] {
        let tree = store.open_tree(name).expect("open tree");
        let mut scan = tree.range(..);
        while let Some((k, v)) = scan.next_entry().expect("dump scan") {
            out.push(k);
            out.push(v);
        }
    }
    let cold = ShreddedDoc::open(store).expect("cold open");
    out.push(cold.shape().to_bytes());
    out
}

/// How one mutation under one injected read fault came out.
#[derive(Debug, Default)]
struct Tally {
    ok: usize,
    failed_clean: usize,
    partial: Vec<String>,
}

/// Run `op` once without faults to learn its result, post-state and
/// read span, then once per read index in that span with that one read
/// failing, classifying each outcome.
fn sweep<T: PartialEq + std::fmt::Debug>(
    name: &str,
    op: impl Fn(&mut ShreddedDoc) -> MorphResult<T>,
) -> Tally {
    let image = base_image();
    let (before_state, before_shape) = {
        let (store, _) = open_store(image.clone(), FaultScript::none());
        let doc = ShreddedDoc::open(&store).expect("open");
        (state(&store), doc.shape().to_bytes())
    };
    let (store, handle) = open_store(image.clone(), FaultScript::none());
    let mut doc = ShreddedDoc::open(&store).expect("open");
    let first = handle.reads();
    let want = op(&mut doc).expect("fault-free run succeeds");
    let last = handle.reads();
    let want_state = state(&store);
    assert!(last > first, "{name}: the mutation read nothing");

    let mut tally = Tally::default();
    for k in first..last {
        let (store, handle) = open_store(image.clone(), FaultScript::none().fail_read(k));
        let mut doc = ShreddedDoc::open(&store).expect("open before the fault");
        assert_eq!(handle.reads(), first, "{name}: open is deterministic");
        match op(&mut doc) {
            Ok(v) if v == want && state(&store) == want_state => tally.ok += 1,
            Err(MorphError::Store { .. }) if state(&store) == before_state =>
            {
                tally.failed_clean += 1
            }
            other => tally.partial.push(format!(
                "read {k}: {other:?}, live shape {}",
                if doc.shape().to_bytes() == before_shape { "unchanged" } else { "edited" }
            )),
        }
    }
    println!(
        "{name}: reads {first}..{last}: {} ok, {} clean errors, {} partial",
        tally.ok,
        tally.failed_clean,
        tally.partial.len()
    );
    tally
}

fn check(name: &str, tally: Tally) {
    assert!(
        tally.failed_clean > 0,
        "{name}: no injected read reached the mutation"
    );
    assert!(
        tally.partial.is_empty(),
        "{name}: {} partial outcomes: {:#?}",
        tally.partial.len(),
        tally.partial
    );
}

#[test]
fn delete_subtree_fails_whole_on_any_read_error() {
    // `lib.big` is Dewey 1.1: 3,001 vertices.
    let target = Dewey::from_components(vec![1, 1]);
    let tally = sweep("delete_subtree", |doc| doc.delete_subtree(&target));
    check("delete_subtree", tally);
}

#[test]
fn renumbering_insert_fails_whole_on_any_read_error() {
    // The first entry of `lib.list` (Dewey 1.2.1): no gap before it.
    let sibling = Dewey::from_components(vec![1, 2, 1]);
    let tally = sweep("insert_subtree_before", |doc| {
        doc.insert_subtree_before(&sibling, "<entry><k>first</k></entry>")
    });
    check("insert_subtree_before", tally);
}
