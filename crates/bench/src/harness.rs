//! Shared experiment drivers: each §IX experiment as a reusable function
//! so the figure binaries measure the same code paths.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use xmorph_core::render::{render, RenderOptions};
use xmorph_core::semantics::shape::Shape;
use xmorph_core::{Guard, ShreddedDoc};
use xmorph_pagestore::{IoStats, Store};
use xmorph_xqlite::XqliteDb;

/// Where an experiment's store lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// In memory — pure CPU cost, for micro measurements.
    Memory,
    /// A temp file — real device I/O, used by the figure binaries.
    TempFile,
}

/// A disposable store with shared I/O stats.
pub struct BenchStore {
    /// The store.
    pub store: Store,
    /// Its I/O counters.
    pub stats: IoStats,
    path: Option<PathBuf>,
}

impl BenchStore {
    /// Create a store of the given kind with a modest buffer pool (so
    /// larger-than-memory behaviour shows at laptop scale).
    pub fn create(kind: StoreKind, capacity: usize) -> BenchStore {
        let stats = IoStats::new();
        let options = Store::options().stats(stats.clone()).capacity(capacity);
        match kind {
            StoreKind::Memory => BenchStore {
                store: options.open_memory(),
                stats,
                path: None,
            },
            StoreKind::TempFile => {
                let dir = std::env::temp_dir().join("xmorph-bench");
                std::fs::create_dir_all(&dir).expect("create temp dir");
                let path = dir.join(format!(
                    "bench-{}-{:x}.db",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .unwrap()
                        .as_nanos()
                ));
                let store = options.create(&path).expect("create temp store");
                BenchStore {
                    store,
                    stats,
                    path: Some(path),
                }
            }
        }
    }

    /// Path of the backing file, when file-backed.
    pub fn path(&self) -> Option<&PathBuf> {
        self.path.as_ref()
    }
}

impl Drop for BenchStore {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Timings of one XMorph transformation run (the Fig. 10/14 measurement
/// decomposition).
#[derive(Debug, Clone)]
pub struct MorphRun {
    /// Input document size in bytes.
    pub input_bytes: usize,
    /// Time to shred the document into the store (reported separately in
    /// the paper — "the shredding is done once").
    pub shred: Duration,
    /// The XMorph *compile* phase: parse + ξ + loss analysis.
    pub compile: Duration,
    /// The render phase.
    pub render: Duration,
    /// Output size in bytes.
    pub output_bytes: usize,
    /// Output element count (for throughput plots).
    pub output_elements: usize,
    /// Distinct types in the source shape.
    pub types: usize,
}

/// Shred `xml` and run `guard` against it, timing each phase.
pub fn run_morph(xml: &str, guard_text: &str, kind: StoreKind) -> MorphRun {
    let bench_store = BenchStore::create(kind, 1024);
    let t0 = Instant::now();
    let doc = ShreddedDoc::shred_str(&bench_store.store, xml).expect("shred");
    bench_store.store.flush().expect("flush");
    let shred = t0.elapsed();

    let t1 = Instant::now();
    let guard = Guard::parse(guard_text).expect("parse guard");
    let analysis = guard.analyze(&doc).expect("analyze");
    let compile = t1.elapsed();

    let t2 = Instant::now();
    let output = render(&doc, &analysis.target, &RenderOptions::default()).expect("render");
    let render_time = t2.elapsed();

    let output_elements = count_open_tags(&output);

    MorphRun {
        input_bytes: xml.len(),
        shred,
        compile,
        render: render_time,
        output_bytes: output.len(),
        output_elements,
        types: doc.types().len(),
    }
}

/// Count opening tags (elements) in serialized XML: `<name` or `<name/>`,
/// excluding close tags.
fn count_open_tags(xml: &str) -> usize {
    let bytes = xml.as_bytes();
    let mut count = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'<' && i + 1 < bytes.len() && bytes[i + 1] != b'/' {
            count += 1;
        }
        i += 1;
    }
    count
}

/// A pre-shredded document for repeated transformations (Figs. 15/16 run
/// many guards over one shred).
pub struct PreparedDoc {
    /// Keeps the store (and temp file) alive.
    pub bench_store: BenchStore,
    /// The shredded document.
    pub doc: ShreddedDoc,
    /// Shred time.
    pub shred: Duration,
    /// Input size.
    pub input_bytes: usize,
}

/// Shred once for reuse.
pub fn prepare(xml: &str, kind: StoreKind) -> PreparedDoc {
    let bench_store = BenchStore::create(kind, 1024);
    let t0 = Instant::now();
    let doc = ShreddedDoc::shred_str(&bench_store.store, xml).expect("shred");
    bench_store.store.flush().expect("flush");
    PreparedDoc {
        bench_store,
        doc,
        shred: t0.elapsed(),
        input_bytes: xml.len(),
    }
}

/// One guard evaluation over a prepared doc: (compile, render, output
/// bytes, output elements).
pub fn run_guard_on(prep: &PreparedDoc, guard_text: &str) -> (Duration, Duration, usize, usize) {
    let t1 = Instant::now();
    let guard = Guard::parse(guard_text).expect("parse guard");
    let analysis = guard.analyze(&prep.doc).expect("analyze");
    let compile = t1.elapsed();
    let t2 = Instant::now();
    let output = render(&prep.doc, &analysis.target, &RenderOptions::default()).expect("render");
    let render_time = t2.elapsed();
    let elements = count_open_tags(&output);
    (compile, render_time, output.len(), elements)
}

/// The evaluated target shape of a guard over a prepared doc (for
/// inspecting predicted shapes in the binaries).
pub fn target_shape(prep: &PreparedDoc, guard_text: &str) -> Shape {
    let guard = Guard::parse(guard_text).expect("parse guard");
    guard.analyze(&prep.doc).expect("analyze").target
}

/// The baseline: store a document in the eXist-like DBMS and time the
/// paper's dump query `for $b in doc(..)/root return <data>{$b}</data>`.
/// eXist stores documents pre-parsed in document order, so this query is
/// its *best case* — "the timing is essentially that of reading the
/// document from disk to a String object" — which for our store is a
/// sequential chunk scan plus the wrapper, not a query-engine pass.
pub fn exist_dump(xml: &str, _root: &str, kind: StoreKind) -> (Duration, Duration, usize) {
    let bench_store = BenchStore::create(kind, 1024);
    let db = XqliteDb::new(bench_store.store.clone());
    let t0 = Instant::now();
    db.store_document("doc.xml", xml).expect("store");
    bench_store.store.flush().expect("flush");
    let load = t0.elapsed();
    let t1 = Instant::now();
    let body = db.load_document("doc.xml").expect("read").expect("present");
    let out = format!("<data>{body}</data>");
    let query = t1.elapsed();
    (load, query, out.len())
}

/// Run an arbitrary baseline query over a stored document.
pub fn exist_query(xml: &str, query: &str, kind: StoreKind) -> (Duration, usize) {
    let bench_store = BenchStore::create(kind, 1024);
    let db = XqliteDb::new(bench_store.store.clone());
    db.store_document("doc.xml", xml).expect("store");
    bench_store.store.flush().expect("flush");
    let t = Instant::now();
    let out = db.query(query).expect("query");
    (t.elapsed(), out.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmorph_datagen::XmarkConfig;

    #[test]
    fn run_morph_mutate_site() {
        let xml = XmarkConfig {
            factor: 0.002,
            ..Default::default()
        }
        .generate();
        let run = run_morph(&xml, "MUTATE site", StoreKind::Memory);
        assert!(run.output_bytes > 0);
        assert!(run.types > 50);
        assert!(run.output_elements > 10);
        // MUTATE site is the identity rearrangement: output carries the
        // same element structure (plus the <result> wrapper).
    }

    #[test]
    fn exist_dump_round_trips() {
        let xml = "<site><a>x</a></site>";
        let (_, _, out_len) = exist_dump(xml, "site", StoreKind::Memory);
        assert_eq!(out_len, "<data><site><a>x</a></site></data>".len());
    }

    #[test]
    fn prepared_doc_reuse() {
        let xml = XmarkConfig {
            factor: 0.002,
            ..Default::default()
        }
        .generate();
        let prep = prepare(&xml, StoreKind::Memory);
        let (c1, r1, b1, e1) = run_guard_on(&prep, "MORPH person [ name emailaddress ]");
        let (_, _, b2, _) = run_guard_on(&prep, "MORPH person [ name emailaddress ]");
        assert_eq!(b1, b2);
        assert!(e1 > 0);
        assert!(c1 > Duration::ZERO);
        assert!(r1 > Duration::ZERO);
    }

    #[test]
    fn temp_file_store_works_and_cleans_up() {
        let xml = "<r><a>1</a></r>";
        let path;
        {
            let prep = prepare(xml, StoreKind::TempFile);
            path = prep.bench_store.path().cloned().unwrap();
            assert!(path.exists());
            let (_, _, bytes, _) = run_guard_on(&prep, "MORPH a");
            assert!(bytes > 0);
        }
        assert!(!path.exists(), "temp store not removed");
    }

    #[test]
    fn count_open_tags_counts_elements() {
        assert_eq!(count_open_tags("<a><b/>text</a>"), 2);
        assert_eq!(count_open_tags("<a>1 &lt; 2</a>"), 1);
    }
}
