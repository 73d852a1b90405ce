//! End-to-end crash consistency: the full shred → flush → mutate →
//! vacuum → close pipeline replayed over [`FaultStorage`], crashing at
//! every sync-ordered write point, then reopened and queried.
//!
//! The invariants are the document-level counterparts of the pagestore
//! sweep's: a torn image either refuses to open with a typed error or
//! opens into a document whose every type scans, reads, and reports
//! fallbacks without panicking — persisted column segments that fail
//! validation fall back to a typeseq rebuild instead of serving
//! garbage or crashing. Between the post-shred flush and the vacuum,
//! where every mutation is one transaction, a reopened image is also
//! exact: each type's persisted shape count equals its rows, so the
//! shape rows and the trees land (or roll back) together.

use xmorph_core::{MorphError, MorphResult, OpenOptions, ShredOptions, ShreddedDoc};
use xmorph_pagestore::{FaultHandle, FaultScript, FaultStorage, Store, StoreError};

fn store_err(e: StoreError) -> MorphError {
    MorphError::Store {
        op: "crash harness".into(),
        source: e,
    }
}

/// Deterministic library document, big enough that shredding spills the
/// tiny buffer pool mid-parse.
fn library_xml() -> String {
    let mut s = String::from("<lib>");
    for i in 0..25 {
        s.push_str("<book>");
        s.push_str(&format!("<title>Title number {i}</title>"));
        for a in 0..(1 + i % 3) {
            s.push_str(&format!("<author><name>Author {a} of {i}</name></author>"));
        }
        if i % 2 == 0 {
            s.push_str(&format!(
                "<publisher><name>House {}</name></publisher>",
                i % 5
            ));
        }
        s.push_str("</book>");
    }
    s.push_str("</lib>");
    s
}

fn path(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|p| p.to_string()).collect()
}

#[derive(Default, Clone, Copy)]
struct Marks {
    flush_done: u64,
    vacuum_start: u64,
}

/// The workload: persisted-column shred, durability barrier, in-place
/// mutations (among them inserts that intern new types and a
/// multi-node delete), column re-persist, vacuum, close. Under an
/// injected crash every step must surface a [`MorphError`] — never
/// panic.
fn workload(
    storage: Box<dyn xmorph_pagestore::storage::Storage>,
    handle: Option<&FaultHandle>,
    marks: &mut Marks,
) -> MorphResult<()> {
    let store = Store::options()
        .capacity(16)
        .shards(1)
        .with_storage(storage)
        .map_err(store_err)?;
    let opts = ShredOptions::builder().persist_columns(true);
    let mut doc = ShreddedDoc::shred_str_with(&store, &library_xml(), &opts)?;
    store.flush().map_err(store_err)?;
    if let Some(h) = handle {
        marks.flush_done = h.writes();
    }

    let titles = doc
        .types()
        .lookup(&path(&["lib", "book", "title"]))
        .ok_or(MorphError::Internal("no title type"))?;
    let books = doc
        .types()
        .lookup(&path(&["lib", "book"]))
        .ok_or(MorphError::Internal("no book type"))?;
    let authors = doc
        .types()
        .lookup(&path(&["lib", "book", "author"]))
        .ok_or(MorphError::Internal("no author type"))?;
    let title_rows = doc.scan_type(titles);
    let book_rows = doc.scan_type(books);
    let author_rows = doc.scan_type(authors);
    if title_rows.len() < 4 || book_rows.len() < 4 || author_rows.is_empty() {
        // A crashed device can only truncate these scans (reads fall
        // back leniently); the fault-free run always passes this gate.
        return Err(MorphError::Internal("columns shorter than the document"));
    }
    doc.update_text(&title_rows[0].0, "Retitled")?;
    doc.delete_subtree(&title_rows[1].0)?;
    doc.insert_subtree(&book_rows[2].0, "<award>prize</award>")?;
    doc.insert_subtree(&book_rows[3].0, r#"<review stars="4"><by>qa</by></review>"#)?;
    // An author and its name: two vertices of two types.
    doc.delete_subtree(&author_rows[0].0)?;
    doc.persist_dirty_columns()?;
    if let Some(h) = handle {
        marks.vacuum_start = h.writes();
    }
    store.vacuum().map_err(store_err)?;
    store.close().map_err(store_err)?;
    Ok(())
}

/// Reopen a frozen crash image as a document and exercise every read
/// surface. Any outcome but a panic is within contract; columns must
/// validate or fall back. With `exact`, an image that opens must also
/// agree with itself: every type's shape count equals its row count.
fn check_reopened(image: Vec<u8>, crash_at: u64, exact: bool) {
    let (storage, _h) = FaultStorage::with_image(image, FaultScript::none());
    let store = match Store::options()
        .capacity(16)
        .with_storage(Box::new(storage))
    {
        Ok(s) => s,
        Err(_) => return,
    };
    let opts = OpenOptions::builder().persisted_columns(true);
    let doc = match ShreddedDoc::open_with(&store, &opts) {
        Ok(d) => d,
        Err(_) => return,
    };
    let types: Vec<_> = doc.types().ids().collect();
    for &t in &types {
        let rows = doc.scan_type(t);
        assert!(
            rows.len() as u64 <= 10_000,
            "crash@{crash_at}: type {t:?} scan exploded"
        );
        if exact {
            assert_eq!(
                doc.instance_count(t),
                rows.len() as u64,
                "crash@{crash_at}: shape count of {} disagrees with its rows",
                doc.types().dotted(t)
            );
        }
        for (dewey, _) in rows.iter().take(2) {
            // Ok, None, or a typed error — never a panic.
            let _ = doc.node_text(dewey);
            let _ = doc.node_type(dewey);
        }
    }
    for line in doc.segment_fallbacks() {
        assert!(
            line.contains(':'),
            "crash@{crash_at}: malformed fallback report {line:?}"
        );
    }
}

/// The tentpole at the document level: crash at every write index of
/// the shred/mutate/vacuum/close pipeline, reopen, query.
#[test]
fn document_pipeline_survives_crash_at_every_write() {
    let mut marks = Marks::default();
    let (storage, handle) = FaultStorage::new(FaultScript::none());
    workload(Box::new(storage), Some(&handle), &mut marks)
        .expect("fault-free pipeline must succeed");
    let total_writes = handle.writes();
    assert!(
        total_writes > 40,
        "pipeline too small to sweep ({total_writes} writes)"
    );
    assert!(marks.flush_done > 0 && marks.vacuum_start >= marks.flush_done);

    for k in 0..total_writes {
        let script = FaultScript::none().crash_at(k).torn_seed(0x5EED ^ k);
        let (storage, handle) = FaultStorage::new(script);
        let mut ignored = Marks::default();
        let res = workload(Box::new(storage), None, &mut ignored);
        assert!(
            res.is_err(),
            "crash@{k}: pipeline survived a crashed device"
        );
        let exact = (marks.flush_done..marks.vacuum_start).contains(&k);
        check_reopened(handle.image(), k, exact);
    }
}

/// Baseline: the fault-free image reopens with zero fallbacks and
/// serves exactly what a fresh shred of the mutated document would.
#[test]
fn clean_close_reopens_with_no_fallbacks() {
    let mut marks = Marks::default();
    let (storage, handle) = FaultStorage::new(FaultScript::none());
    workload(Box::new(storage), Some(&handle), &mut marks).unwrap();

    let (storage, _h) = FaultStorage::with_image(handle.image(), FaultScript::none());
    let store = Store::options().with_storage(Box::new(storage)).unwrap();
    let opts = OpenOptions::builder().persisted_columns(true);
    let doc = ShreddedDoc::open_with(&store, &opts).unwrap();
    let titles = doc
        .types()
        .lookup(&path(&["lib", "book", "title"]))
        .unwrap();
    let rows = doc.scan_type(titles);
    assert_eq!(rows[0].1, "Retitled");
    assert_eq!(rows.len(), 24, "one title was deleted from 25");
    assert!(
        doc.segment_fallbacks().is_empty(),
        "clean image must validate every column: {:?}",
        doc.segment_fallbacks()
    );
}

/// Satellite: a persisted column segment whose bytes are garbage is
/// reported in `segment_fallbacks` and served from a typeseq rebuild —
/// with exactly the same rows the persisted copy held.
#[test]
fn corrupt_column_segment_falls_back_to_rebuild() {
    let xml = library_xml();
    let (storage, handle) = FaultStorage::new(FaultScript::none());
    {
        let store = Store::options().with_storage(Box::new(storage)).unwrap();
        let opts = ShredOptions::builder().persist_columns(true);
        ShreddedDoc::shred_str_with(&store, &xml, &opts).unwrap();
        store.close().unwrap();
    }

    let (storage, _h) = FaultStorage::with_image(handle.image(), FaultScript::none());
    let store = Store::options().with_storage(Box::new(storage)).unwrap();
    let victims: Vec<String> = store
        .segment_names()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("col."))
        .collect();
    assert!(
        !victims.is_empty(),
        "persisted shred wrote no column segments"
    );
    for name in &victims {
        store.put_segment(name, b"not a column segment").unwrap();
    }

    let opts = OpenOptions::builder().persisted_columns(true);
    let doc = ShreddedDoc::open_with(&store, &opts).unwrap();
    let reference = {
        let clean = Store::in_memory();
        ShreddedDoc::shred_str(&clean, &xml).unwrap()
    };
    let types: Vec<_> = doc.types().ids().collect();
    for &t in &types {
        assert_eq!(doc.scan_type(t), reference.scan_type(t), "type {t:?}");
    }
    assert_eq!(
        doc.segment_fallbacks().len(),
        victims.len(),
        "every corrupted segment must be reported: {:?}",
        doc.segment_fallbacks()
    );
}
