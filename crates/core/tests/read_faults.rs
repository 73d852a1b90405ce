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
//!   identical to the pre-mutation ones, and a live writer that agrees
//!   with its store: its shape equals a cold open's, so does its render,
//!   and once one more insert commits, a cold reopen counts as many
//!   instances of every type as there are rows.
//!
//! Anything else is counted as a partial outcome, and there must be
//! none. A last sweep does the same to a spilling bulk shred, and one
//! more checks that a failed read of the column a mutation pins into a
//! live snapshot fails the mutation instead of emptying the snapshot.

use xmorph_core::render::{render, render_snapshot, RenderOptions};
use xmorph_core::{Dewey, Guard, MorphError, MorphResult, OpenOptions, ShredOptions, ShreddedDoc};
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
/// `typeseq` and `meta` trees entry by entry, and the shape a cold open
/// rebuilds from them.
fn state(store: &Store) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for name in ["typeseq", "meta"] {
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

/// The `lib.big.item` elements with their values, rendered.
fn render_items(doc: &ShreddedDoc) -> String {
    let guard = Guard::parse("MORPH item [ v ]").expect("parse guard");
    let target = guard.analyze(doc).expect("analyze guard").target;
    render(doc, &target, &RenderOptions::default()).expect("render")
}

/// What, if anything, the live writer still holds that its store rolled
/// back, checked after a mutation failed with a clean store error.
fn writer_ahead(store: &Store, doc: &mut ShreddedDoc) -> Option<String> {
    let cold = ShreddedDoc::open(store).expect("cold open");
    if doc.shape().to_bytes() != cold.shape().to_bytes() {
        return Some("the live shape differs from a cold open's".to_string());
    }
    if render_items(doc) != render_items(&cold) {
        return Some("the live render of lib.big.item differs from a cold open's".to_string());
    }
    drop(cold);
    // `lib.list` (Dewey 1.2), which no swept mutation deletes.
    let list = Dewey::from_components(vec![1, 2]);
    doc.insert_subtree(&list, "<entry><k>after</k></entry>")
        .expect("insert after the fault");
    let cold = ShreddedDoc::open(store).expect("cold reopen");
    for t in cold.shape().type_ids() {
        let rows = cold.scan_type(t).len() as u64;
        if cold.instance_count(t) != rows {
            return Some(format!(
                "after one more insert, a cold reopen counts {} instances of type {} over {rows} rows",
                cold.instance_count(t),
                t.0
            ));
        }
    }
    None
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
            Err(MorphError::Store { .. }) if state(&store) == before_state => {
                match writer_ahead(&store, &mut doc) {
                    None => tally.failed_clean += 1,
                    Some(why) => tally
                        .partial
                        .push(format!("read {k}: clean store error, but {why}")),
                }
            }
            other => tally.partial.push(format!(
                "read {k}: {other:?}, live shape {}",
                if doc.shape().to_bytes() == before_shape {
                    "unchanged"
                } else {
                    "edited"
                }
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

/// Every type's rows, read through the column cache.
fn all_rows(doc: &ShreddedDoc) -> Vec<Vec<(Dewey, String)>> {
    doc.shape().type_ids().map(|t| doc.scan_type(t)).collect()
}

/// Open without the persisted column segments, so every column load
/// decodes `typeseq`.
fn open_decoding(store: &Store) -> ShreddedDoc {
    ShreddedDoc::open_with(store, &OpenOptions::builder().persisted_columns(false)).expect("open")
}

#[test]
fn a_column_load_that_fails_to_read_is_not_cached() {
    let image = base_image();
    let (store, handle) = open_store(image.clone(), FaultScript::none());
    let doc = open_decoding(&store);
    let first = handle.reads();
    let want = all_rows(&doc);
    let last = handle.reads();
    assert!(last > first, "the column loads read nothing");

    let mut failed_loads = 0;
    for k in first..last {
        let (store, _) = open_store(image.clone(), FaultScript::none().fail_read(k));
        let doc = open_decoding(&store);
        all_rows(&doc);
        if !doc.segment_fallbacks().is_empty() {
            failed_loads += 1;
        }
        assert!(
            all_rows(&doc) == want,
            "read {k}: a column whose load failed still serves wrong rows"
        );
    }
    assert!(failed_loads > 0, "no injected read reached a column load");
}

/// The device op a write-path sweep fails.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Write,
    Sync,
}

impl Fault {
    fn count(self, handle: &FaultHandle) -> u64 {
        match self {
            Fault::Write => handle.writes(),
            Fault::Sync => handle.syncs(),
        }
    }

    fn script(self, i: u64) -> FaultScript {
        match self {
            Fault::Write => FaultScript::none().fail_write(i),
            Fault::Sync => FaultScript::none().fail_sync(i),
        }
    }
}

/// How one mutation under one injected write or sync fault came out.
/// A commit may report an error after the store has already published
/// the transaction in memory; `failed_committed` counts those, which
/// must leave the writer at the committed state, not the old one.
#[derive(Debug, Default)]
struct WriteTally {
    ok: usize,
    failed_rolled_back: usize,
    failed_committed: usize,
    partial: Vec<String>,
}

/// The first `lib.list.entry.k` (Dewey 1.2.1.1), which the write
/// sweeps update to bring a write-ahead log up to its group sync.
fn spare() -> Dewey {
    Dewey::from_components(vec![1, 2, 1, 1])
}

/// How many commits a freshly opened WAL store of `image` takes before
/// one of them appends and syncs the log: that many text updates of
/// [`spare`], with the next commit being the one that syncs.
fn commits_before_sync(image: &[u8]) -> usize {
    let (store, handle) = open_store(image.to_vec(), FaultScript::none());
    let mut doc = ShreddedDoc::open(&store).expect("open");
    let syncs = handle.syncs();
    for n in 0..4096 {
        doc.update_text(&spare(), "prelude")
            .expect("prelude update");
        if handle.syncs() > syncs {
            return n;
        }
    }
    panic!("4,096 commits never synced the log");
}

/// Like [`sweep`], but failing one device write (or sync) at a time
/// over the writes (or syncs) `op` issues. Updates elsewhere first
/// bring the store's write-ahead log up to its group sync, so the
/// mutation's commit is the one that appends and syncs the log, and
/// the faults land in the commit itself. The writer's columns are
/// loaded first, so a failed mutation that leaves a cached column
/// behind its store shows in the render.
fn write_sweep<T: PartialEq + std::fmt::Debug>(
    name: &str,
    fault: Fault,
    op: &impl Fn(&mut ShreddedDoc) -> MorphResult<T>,
) -> WriteTally {
    let image = base_image();
    let prelude = commits_before_sync(&image);
    let open = |script: FaultScript| {
        let (store, handle) = open_store(image.clone(), script);
        let mut doc = ShreddedDoc::open(&store).expect("open before the fault");
        for _ in 0..prelude {
            doc.update_text(&spare(), "prelude")
                .expect("prelude update");
        }
        render_items(&doc);
        (store, handle, doc)
    };
    let before_state = state(&open(FaultScript::none()).0);
    let (store, handle, mut doc) = open(FaultScript::none());
    let first = fault.count(&handle);
    let want = op(&mut doc).expect("fault-free run succeeds");
    let last = fault.count(&handle);
    let want_state = state(&store);

    let mut tally = WriteTally::default();
    for k in first..last {
        let (store, handle, mut doc) = open(fault.script(k));
        assert_eq!(fault.count(&handle), first, "{name}: open is deterministic");
        let outcome = op(&mut doc);
        let after = state(&store);
        match outcome {
            Ok(v) if v == want && after == want_state => tally.ok += 1,
            Err(MorphError::Store { .. }) if after == before_state || after == want_state => {
                match writer_ahead(&store, &mut doc) {
                    None if after == want_state => tally.failed_committed += 1,
                    None => tally.failed_rolled_back += 1,
                    Some(why) => tally
                        .partial
                        .push(format!("{fault:?} {k}: store error, but {why}")),
                }
            }
            other => tally.partial.push(format!(
                "{fault:?} {k}: {other:?}, store at {}",
                if after == before_state {
                    "the old state"
                } else if after == want_state {
                    "the new state"
                } else {
                    "neither state"
                }
            )),
        }
    }
    println!(
        "{name} ({fault:?}): ops {first}..{last}: {} ok, {} rolled back, \
         {} committed with an error, {} partial",
        tally.ok,
        tally.failed_rolled_back,
        tally.failed_committed,
        tally.partial.len()
    );
    tally
}

/// Sweep write faults, then sync faults; the commit-error path must be
/// among the outcomes.
fn check_write_faults<T: PartialEq + std::fmt::Debug>(
    name: &str,
    op: impl Fn(&mut ShreddedDoc) -> MorphResult<T>,
) {
    let mut committed = 0;
    let mut partial = Vec::new();
    for fault in [Fault::Write, Fault::Sync] {
        let tally = write_sweep(name, fault, &op);
        committed += tally.failed_committed;
        partial.extend(tally.partial);
    }
    assert!(
        partial.is_empty(),
        "{name}: {} partial outcomes: {partial:#?}",
        partial.len()
    );
    assert!(
        committed > 0,
        "{name}: no injected fault reached the commit"
    );
}

#[test]
fn update_text_write_faults_leave_the_writer_at_its_store() {
    // The first `lib.big.item.v` (Dewey 1.1.1.1).
    let target = Dewey::from_components(vec![1, 1, 1, 1]);
    check_write_faults("update_text", |doc| doc.update_text(&target, "changed"));
}

#[test]
fn delete_subtree_write_faults_leave_the_writer_at_its_store() {
    let target = Dewey::from_components(vec![1, 1]);
    check_write_faults("delete_subtree", |doc| doc.delete_subtree(&target));
}

/// A shred budget small enough that the sorted stream spills dozens of
/// runs at its 8 KiB half of the budget, and that `lib.big.item.v`'s
/// column outgrows that share, so the shred also builds it by the
/// per-type decode after the merge.
const SHRED_BUDGET: usize = 16 << 10;

fn fault_store(script: FaultScript) -> (Store, FaultHandle) {
    let (storage, handle) = FaultStorage::new(script);
    let store = Store::options()
        .capacity(POOL_PAGES)
        .shards(1)
        .with_storage(Box::new(storage))
        .expect("create store");
    (store, handle)
}

/// Every tree entry and every segment, by name, of a shredded store.
fn stored(store: &Store) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for name in ["typeseq", "meta"] {
        let tree = store.open_tree(name).expect("open tree");
        let mut scan = tree.range(..);
        while let Some((k, v)) = scan.next_entry().expect("dump scan") {
            out.push(k);
            out.push(v);
        }
    }
    let mut names: Vec<String> = store
        .segment_entries()
        .expect("list segments")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    names.sort();
    for name in names {
        let seg = store.get_segment(&name, false).expect("read segment");
        out.push(name.into_bytes());
        out.push(seg.expect("listed segment").to_vec());
    }
    out
}

fn shred_runs_left(store: &Store) -> usize {
    store
        .segment_entries()
        .expect("list segments")
        .iter()
        .filter(|(name, _)| name.starts_with("__shredrun."))
        .count()
}

#[test]
fn spilling_bulk_shred_fails_whole_on_any_read_error() {
    let xml = library_xml();
    let opts = ShredOptions::builder()
        .memory_budget(SHRED_BUDGET)
        .persist_columns(true);
    let (store, handle) = fault_store(FaultScript::none());
    let first = handle.reads();
    ShreddedDoc::shred_str_with(&store, &xml, &opts).expect("fault-free shred");
    let last = handle.reads();
    let want = stored(&store);
    assert!(last > first, "the shred read nothing back");

    let mut tally = Tally::default();
    for k in first..last {
        let (store, handle) = fault_store(FaultScript::none().fail_read(k));
        assert_eq!(handle.reads(), first, "store creation is deterministic");
        match ShreddedDoc::shred_str_with(&store, &xml, &opts) {
            Ok(_) if stored(&store) == want => tally.ok += 1,
            Err(MorphError::Store { .. }) if shred_runs_left(&store) == 0 => {
                tally.failed_clean += 1
            }
            other => tally.partial.push(format!(
                "read {k}: {:?}, {} shred runs left",
                other.map(|_| "ok, but the stored trees or segments differ"),
                shred_runs_left(&store)
            )),
        }
    }
    println!(
        "spilling shred: reads {first}..{last}: {} ok, {} clean errors, {} partial",
        tally.ok,
        tally.failed_clean,
        tally.partial.len()
    );
    check("spilling shred", tally);
}

#[test]
fn a_failed_snapshot_pin_fails_the_update_and_keeps_the_snapshot() {
    // Columns decode from `typeseq` (no persisted segments), so one
    // failed read can fail the load of the pre-mutation column that
    // the update pins into the live snapshot.
    let image = base_image();
    let target = Dewey::from_components(vec![1, 1, 1, 1]);
    let (store, _) = open_store(image.clone(), FaultScript::none());
    let doc = open_decoding(&store);
    let guard = Guard::parse("MORPH item [ v ]").expect("parse guard");
    let shape = guard.analyze(&doc).expect("analyze guard").target;
    let opts = RenderOptions::default();
    let before = render(&doc, &shape, &opts).expect("render");
    drop((doc, store));

    // A fresh snapshot of a fresh open holds no column, so the update
    // pins `lib.big.item.v` into it before writing.
    let run = |script: FaultScript| {
        let (store, handle) = open_store(image.clone(), script);
        let mut doc = open_decoding(&store);
        let snap = doc.snapshot();
        let first = handle.reads();
        let outcome = doc.update_text(&target, "changed");
        (doc, snap, outcome, first..handle.reads())
    };
    let (_, snap, outcome, reads) = run(FaultScript::none());
    outcome.expect("fault-free update");
    assert_eq!(render_snapshot(&snap, &shape, &opts).unwrap(), before);

    let mut failed = 0;
    for k in reads {
        let (doc, snap, outcome, _) = run(FaultScript::none().fail_read(k));
        assert_eq!(
            render_snapshot(&snap, &shape, &opts).unwrap(),
            before,
            "read {k}: the pinned snapshot lost its pre-mutation state ({outcome:?})"
        );
        if outcome.is_err() {
            failed += 1;
            assert_eq!(
                render(&doc, &shape, &opts).unwrap(),
                before,
                "read {k}: a failed update changed the document"
            );
        }
    }
    assert!(failed > 0, "no injected read failed the update");
}
