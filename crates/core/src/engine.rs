//! The unified query surface: [`Engine`] / [`Session`] /
//! [`QueryRequest`].
//!
//! There are several ways to run a guard — [`Guard::apply_to_str`],
//! [`Guard::apply_with`], the [`render_parallel`] free function, and
//! direct [`Snapshot`] probes — but everything that acts as a
//! *service* — the TCP server in `xmorph-server`, the `xmorph` CLI, the
//! scaling benchmarks — goes through one funnel:
//!
//! ```
//! use xmorph_core::{Engine, QueryRequest};
//!
//! let engine = Engine::from_xml(
//!     "<data><book><title>X</title><author><name>Tim</name></author></book></data>",
//! )?;
//! let req = QueryRequest::builder("MORPH author [ name book [ title ] ]")
//!     .threads(2)
//!     .stats(true)
//!     .build();
//! let resp = engine.query(&req)?;
//! assert!(resp.xml.contains("<name>Tim</name>"));
//! assert!(resp.stats.is_some());
//! # Ok::<(), xmorph_core::MorphError>(())
//! ```
//!
//! An [`Engine`] owns one open store and its shredded document and is
//! shared across threads (`Arc<Engine>` in the server). Queries pin a
//! copy-on-write [`Snapshot`] of the document and run against that one
//! epoch; [`Engine::mutate`] is the single-writer entry point that
//! publishes the next epoch — so the server serves writes concurrently
//! with reads, and no reader ever sees a half-applied mutation. A
//! [`Session`] is the cheap per-client layer on top: it caches parsed
//! guards by source text — "the same guard will be reused for many
//! queries" (§I) — so a client replaying its guard pays parsing once.
//! The compile phase is cached one level down, with the pinned
//! [`Snapshot`]'s frozen shape ([`Snapshot::analysis`]): every query of
//! the same guard text, from any session, reuses one analysis until a
//! write edits the shape. A text update keeps the cache; an insert or a
//! delete starts the next shape version with an empty one.
//!
//! Every query can opt into a [`QueryStats`] record: the compile/render
//! split the paper's Fig. 10 measures, plus the delta of the store's
//! I/O counters ([`Store::io_stats_snapshot`] before minus after) and
//! of the column-cache footprint — the pages and segments *this* query
//! touched, not store-lifetime aggregates.
//!
//! [`render_parallel`]: crate::semantics::parallel::render_parallel

use crate::error::{MorphError, MorphResult};
use crate::guard::Guard;
use crate::render::RenderOptions;
use crate::report::GuardTyping;
use crate::semantics::parallel::{render_parallel_snapshot, ParallelOptions};
use crate::store::shredded::{OpenOptions, ShredOptions, ShreddedDoc, Snapshot};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use xmorph_pagestore::{IoSnapshot, Store};
use xmorph_xml::dewey::Dewey;

/// One guard evaluation, described declaratively. Build with
/// [`QueryRequest::builder`]; the zero-configuration request (auto
/// thread count, `<result>` wrapper, no stats) is
/// `QueryRequest::builder(guard).build()`.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    guard: String,
    threads: usize,
    wrapper: Option<String>,
    collect_stats: bool,
    column_budget: Option<usize>,
}

impl QueryRequest {
    /// Start building a request for `guard` (XMorph surface syntax).
    pub fn builder(guard: impl Into<String>) -> QueryRequestBuilder {
        QueryRequestBuilder {
            req: QueryRequest {
                guard: guard.into(),
                threads: 0,
                wrapper: Some("result".to_string()),
                collect_stats: false,
                column_budget: None,
            },
        }
    }

    /// The guard program text.
    pub fn guard(&self) -> &str {
        &self.guard
    }

    /// Requested render parallelism (`0` = one worker per CPU).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a [`QueryStats`] record was requested.
    pub fn wants_stats(&self) -> bool {
        self.collect_stats
    }
}

/// Builder for [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryRequestBuilder {
    req: QueryRequest,
}

impl QueryRequestBuilder {
    /// Render worker threads: `0` (default) uses one per available
    /// CPU, `1` renders sequentially. Output is byte-identical at
    /// every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.req.threads = threads;
        self
    }

    /// Name of the synthetic wrapper element (default `result`).
    pub fn wrapper(mut self, name: impl Into<String>) -> Self {
        self.req.wrapper = Some(name.into());
        self
    }

    /// Emit the bare instance stream with no wrapper element.
    pub fn no_wrapper(mut self) -> Self {
        self.req.wrapper = None;
        self
    }

    /// Collect a [`QueryStats`] record for this query (default off —
    /// bracketing the I/O counters costs a few atomic loads).
    pub fn stats(mut self, on: bool) -> Self {
        self.req.collect_stats = on;
        self
    }

    /// Cap the document's column cache at `bytes` for this and
    /// subsequent queries (see [`ShreddedDoc::set_column_budget`] for
    /// the sharing semantics).
    pub fn column_budget(mut self, bytes: usize) -> Self {
        self.req.column_budget = Some(bytes);
        self
    }

    /// Finish the request.
    pub fn build(self) -> QueryRequest {
        self.req
    }
}

/// What one query actually cost, measured around its execution.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The compile phase: guard analysis and typing enforcement. On a
    /// cache hit ([`QueryStats::analysis_cached`]) the analysis is a
    /// lookup on the pinned snapshot; on a miss it is the full ξ
    /// evaluation + loss analysis. Parsing is excluded when a
    /// [`Session`] served a cached guard.
    pub compile: Duration,
    /// Whether the guard's analysis came from the pinned snapshot's
    /// cache ([`Snapshot::analysis`]) rather than being computed.
    pub analysis_cached: bool,
    /// The render phase (dominates; §IX, Fig. 10).
    pub render: Duration,
    /// Render worker threads actually used.
    pub threads: usize,
    /// Store I/O this query caused: pages read/written, cache
    /// hits/misses, device wait time — the delta of
    /// [`Store::io_stats_snapshot`] across the query. On a store
    /// served to concurrent clients, overlapping queries' deltas
    /// overlap too (the counters are store-wide).
    pub io: IoSnapshot,
    /// Bytes of column data (decoded heap + mapped segments) the query
    /// faulted into the column cache — nonzero exactly when it touched
    /// types whose columns were not yet resident.
    pub column_bytes_delta: u64,
    /// Bytes of column data live snapshots keep resident beyond the
    /// document's own cache ([`ShreddedDoc::snapshot_pinned_bytes`]),
    /// measured as the query finishes. The column-cache budget counts
    /// these as already spent, since evicting cache entries cannot
    /// free them.
    pub snapshot_pinned_bytes: u64,
}

/// The transformed document plus what producing it revealed.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The rendered XML.
    pub xml: String,
    /// The typing class the loss analysis assigned (§V) — the query
    /// ran, so this class was admitted by the guard's casts.
    pub typing: GuardTyping,
    /// Execution stats, present when the request opted in.
    pub stats: Option<QueryStats>,
}

/// One open store + shredded document behind the unified query surface.
///
/// Cheap to share: all query paths take `&self`, so wrap an `Engine` in
/// an `Arc` and hand clones to every connection handler. Writes go
/// through [`Engine::mutate`], also `&self`: internally the document
/// sits behind an `RwLock`, but a query holds the read lock only long
/// enough to pin a [`Snapshot`] — the analysis and render then run
/// entirely against that immutable epoch, so readers proceed at full
/// speed while a single writer mutates and publishes the next epoch.
///
/// Guard parses are cached per [`Session`]; guard analyses are cached
/// per shape version, so they are shared by every session reading a
/// snapshot of that version, survive text updates, and are dropped
/// with the version's last snapshot.
pub struct Engine {
    store: Store,
    doc: RwLock<ShreddedDoc>,
}

/// One document write, described declaratively for [`Engine::mutate`]
/// (and the server's `Update`/`Insert`/`Delete` opcodes).
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Replace the direct text of the node at `target`
    /// ([`ShreddedDoc::update_text`]).
    UpdateText {
        /// Dewey number of the node to retext.
        target: Dewey,
        /// New direct text (trimmed, matching the shredder).
        text: String,
    },
    /// Parse `xml` (one rooted element) and append it as the last
    /// child of `parent` ([`ShreddedDoc::insert_subtree`]).
    InsertSubtree {
        /// Dewey number of the insertion parent.
        parent: Dewey,
        /// The XML fragment to shred in.
        xml: String,
    },
    /// Insert `xml` immediately before the node at `sibling`
    /// ([`ShreddedDoc::insert_subtree_before`]).
    InsertBefore {
        /// Dewey number of the sibling to insert before.
        sibling: Dewey,
        /// The XML fragment to shred in.
        xml: String,
    },
    /// Delete the node at `target` and its whole subtree
    /// ([`ShreddedDoc::delete_subtree`]).
    DeleteSubtree {
        /// Dewey number of the subtree root to remove.
        target: Dewey,
    },
}

/// What an applied [`Mutation`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The text update landed.
    Updated,
    /// An insert landed; the new subtree root's Dewey number.
    Inserted(Dewey),
    /// A delete landed; the number of vertices removed.
    Deleted(u64),
}

impl Engine {
    /// Shred `xml` into a fresh in-memory store.
    pub fn from_xml(xml: &str) -> MorphResult<Engine> {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Shred `xml` into `store` with explicit shred options.
    pub fn shred(store: Store, xml: &str, opts: &ShredOptions) -> MorphResult<Engine> {
        let doc = ShreddedDoc::shred_str_with(&store, xml, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Shred a document file straight from disk into `store` without
    /// reading it into memory first: the parser keeps a bounded byte
    /// window, and the sort/load stage is an external sort that, with
    /// [`ShredOptions::memory_budget`] set, spills runs to temporary
    /// store segments instead of holding the entry set in memory —
    /// documents much larger than RAM shred in bounded space. Unset, the
    /// budget is unbounded and nothing spills.
    pub fn shred_path(store: Store, path: &Path, opts: &ShredOptions) -> MorphResult<Engine> {
        let doc = ShreddedDoc::shred_file_with(&store, path, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Shred a document pulled incrementally from any
    /// [`std::io::Read`] into `store`.
    pub fn shred_reader<R: std::io::Read>(
        store: Store,
        reader: R,
        opts: &ShredOptions,
    ) -> MorphResult<Engine> {
        let doc = ShreddedDoc::shred_reader_with(&store, reader, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Open an existing store file holding a shredded document.
    pub fn open_path(path: &Path) -> MorphResult<Engine> {
        let store = Store::open(path).map_err(|e| MorphError::Store {
            op: format!("open store {}", path.display()),
            source: e,
        })?;
        Self::open_store(store)
    }

    /// Open the shredded document in an already-open store.
    pub fn open_store(store: Store) -> MorphResult<Engine> {
        Self::open_store_with(store, &OpenOptions::default())
    }

    /// [`Engine::open_store`] with explicit open options.
    pub fn open_store_with(store: Store, opts: &OpenOptions) -> MorphResult<Engine> {
        let doc = ShreddedDoc::open_with(&store, opts)?;
        Ok(Engine::from_parts(store, doc))
    }

    /// Wrap an already-open store/document pair.
    pub fn from_parts(store: Store, doc: ShreddedDoc) -> Engine {
        Engine {
            store,
            doc: RwLock::new(doc),
        }
    }

    /// The underlying shredded document (read-only probes). Holding
    /// the returned guard blocks [`Engine::mutate`]; prefer
    /// [`Engine::snapshot`] for anything longer than a probe or two.
    pub fn doc(&self) -> RwLockReadGuard<'_, ShreddedDoc> {
        self.doc.read().unwrap()
    }

    /// Pin the current epoch: an immutable view every probe of which
    /// answers from the document state as of this call, regardless of
    /// concurrent [`Engine::mutate`] calls.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.doc.read().unwrap().snapshot()
    }

    /// The document epoch: bumps once per applied mutation.
    pub fn epoch(&self) -> u64 {
        self.doc.read().unwrap().epoch()
    }

    /// The underlying store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// A new session over this engine (per-client guard cache).
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            guards: HashMap::new(),
            queries: 0,
        }
    }

    /// Parse and run one query. Sessions amortize the parse; this
    /// entry point pays it every time.
    pub fn query(&self, req: &QueryRequest) -> MorphResult<QueryResponse> {
        let guard = Guard::parse(&req.guard)?;
        self.query_parsed(&guard, req)
    }

    /// Run an already-parsed guard under `req`'s execution knobs.
    ///
    /// The document read lock is held only long enough to pin a
    /// [`Snapshot`]; analysis and rendering then run lock-free against
    /// that one epoch, so a query never observes a half-applied
    /// mutation and never blocks the writer for its whole duration.
    /// The analysis comes from the snapshot's cache when this guard
    /// text already ran against the same shape version; enforcement
    /// runs every time.
    pub fn query_parsed(&self, guard: &Guard, req: &QueryRequest) -> MorphResult<QueryResponse> {
        let snap = {
            let doc = self.doc.read().unwrap();
            if let Some(bytes) = req.column_budget {
                doc.set_column_budget(Some(bytes));
            }
            doc.snapshot()
        };
        let before_io = req.collect_stats.then(|| self.store.io_stats_snapshot());
        let before_cols = req.collect_stats.then(|| snap.column_bytes().total());

        let t0 = Instant::now();
        let (analysis, analysis_cached) = snap.analysis_and_hit(guard)?;
        analysis.enforce()?;
        let compile = t0.elapsed();

        let threads = if req.threads > 0 {
            req.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let popts = ParallelOptions {
            threads,
            render: RenderOptions {
                wrapper: req.wrapper.clone(),
                ..Default::default()
            },
        };
        let t1 = Instant::now();
        let xml = render_parallel_snapshot(&snap, &analysis.target, &popts)?;
        let render = t1.elapsed();

        let stats = before_io.map(|before| QueryStats {
            compile,
            analysis_cached,
            render,
            threads,
            io: self.store.io_stats_snapshot().since(&before),
            column_bytes_delta: snap
                .column_bytes()
                .total()
                .saturating_sub(before_cols.unwrap_or(0)) as u64,
            snapshot_pinned_bytes: self.doc.read().unwrap().snapshot_pinned_bytes() as u64,
        });
        Ok(QueryResponse {
            xml,
            typing: analysis.loss.typing,
            stats,
        })
    }

    /// Apply one document write. Takes the document write lock for the
    /// mutation's duration; queries already running keep reading their
    /// pinned snapshots, and the next [`Engine::snapshot`] (or query)
    /// publishes the new epoch.
    pub fn mutate(&self, m: &Mutation) -> MorphResult<MutationOutcome> {
        let mut doc = self.doc.write().unwrap();
        match m {
            Mutation::UpdateText { target, text } => {
                doc.update_text(target, text)?;
                Ok(MutationOutcome::Updated)
            }
            Mutation::InsertSubtree { parent, xml } => {
                Ok(MutationOutcome::Inserted(doc.insert_subtree(parent, xml)?))
            }
            Mutation::InsertBefore { sibling, xml } => Ok(MutationOutcome::Inserted(
                doc.insert_subtree_before(sibling, xml)?,
            )),
            Mutation::DeleteSubtree { target } => {
                Ok(MutationOutcome::Deleted(doc.delete_subtree(target)?))
            }
        }
    }

    /// Shut the engine down: flush and close the store. Idempotent at
    /// the store layer; after this every further query fails with a
    /// typed store error.
    pub fn close(&self) -> MorphResult<()> {
        self.store.close().map_err(|e| MorphError::Store {
            op: "close store".to_string(),
            source: e,
        })
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("types", &self.doc().types().len())
            .field("persistent", &self.store.is_persistent())
            .finish()
    }
}

/// Per-client query state over a shared [`Engine`]: a cache of parsed
/// guards keyed by their source text. The server gives each connection
/// one session; single-program tools can use one session for their
/// whole run. Parses are cached here, per session; analyses are cached
/// with the pinned [`Snapshot`]'s shape version and shared across
/// sessions.
pub struct Session<'e> {
    engine: &'e Engine,
    guards: HashMap<String, Guard>,
    queries: u64,
}

impl<'e> Session<'e> {
    /// The engine this session queries.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Run one query, reusing the cached parse of its guard when this
    /// session has seen the text before. Parse failures are not
    /// cached (the client may resubmit a corrected guard).
    pub fn query(&mut self, req: &QueryRequest) -> MorphResult<QueryResponse> {
        if !self.guards.contains_key(req.guard()) {
            let parsed = Guard::parse(req.guard())?;
            self.guards.insert(req.guard().to_string(), parsed);
        }
        let guard = &self.guards[req.guard()];
        let resp = self.engine.query_parsed(guard, req);
        if resp.is_ok() {
            self.queries += 1;
        }
        resp
    }

    /// Distinct guards parsed and cached so far.
    pub fn cached_guards(&self) -> usize {
        self.guards.len()
    }

    /// Successfully served queries.
    pub fn queries_served(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author></book>\
        <book><title>Y</title><author><name>Ann</name></author></book>\
        </data>";

    #[test]
    fn engine_matches_guard_apply() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let guard = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
        let direct = guard.apply(&engine.doc()).unwrap().xml;
        for threads in [0usize, 1, 2, 4] {
            let req = QueryRequest::builder("MORPH author [ name book [ title ] ]")
                .threads(threads)
                .build();
            assert_eq!(engine.query(&req).unwrap().xml, direct, "threads={threads}");
        }
    }

    #[test]
    fn stats_opt_in() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let off = engine
            .query(&QueryRequest::builder("MORPH title").build())
            .unwrap();
        assert!(off.stats.is_none());
        let on = engine
            .query(&QueryRequest::builder("MORPH title").stats(true).build())
            .unwrap();
        let stats = on.stats.expect("stats requested");
        assert!(stats.threads >= 1);
    }

    #[test]
    fn no_wrapper_is_bare() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let resp = engine
            .query(
                &QueryRequest::builder("MORPH author [ name ]")
                    .no_wrapper()
                    .build(),
            )
            .unwrap();
        assert!(resp.xml.starts_with("<author>"), "{}", resp.xml);
    }

    #[test]
    fn session_caches_guard_parses() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let mut session = engine.session();
        let req = QueryRequest::builder("MORPH title").build();
        let a = session.query(&req).unwrap().xml;
        let b = session.query(&req).unwrap().xml;
        assert_eq!(a, b);
        assert_eq!(session.cached_guards(), 1);
        assert_eq!(session.queries_served(), 2);
        // A parse failure is surfaced and not cached.
        let bad = QueryRequest::builder("MORPH [[[").build();
        assert!(session.query(&bad).is_err());
        assert_eq!(session.cached_guards(), 1);
    }

    #[test]
    fn rejected_guard_reports_typed_error() {
        // Fig. 1(c): author-rooted data; dropping title while keeping
        // the book subtree is widening, which default enforcement
        // rejects (same case as the guard-level test).
        let fig1c = "<data><author><name>Tim</name>\
            <book><title>X</title><publisher><name>W</name></publisher></book>\
            <book><title>Y</title><publisher><name>V</name></publisher></book>\
            </author></data>";
        let engine = Engine::from_xml(fig1c).unwrap();
        let req = QueryRequest::builder("MORPH author [ !title name publisher [ name ] ]").build();
        match engine.query(&req) {
            Err(MorphError::Rejected { .. }) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn column_budget_applies_to_doc() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let req = QueryRequest::builder("MORPH title")
            .column_budget(1)
            .build();
        engine.query(&req).unwrap();
        assert_eq!(engine.doc().column_budget(), Some(1));
    }

    #[test]
    fn close_is_idempotent() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        engine.close().unwrap();
        engine.close().unwrap();
    }

    #[test]
    fn mutate_then_query_sees_new_epoch() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let req = QueryRequest::builder("MORPH title").build();
        assert!(engine.query(&req).unwrap().xml.contains("<title>X</title>"));
        let e0 = engine.epoch();
        let out = engine
            .mutate(&Mutation::UpdateText {
                target: "1.1.1".parse().unwrap(),
                text: "Z".to_string(),
            })
            .unwrap();
        assert_eq!(out, MutationOutcome::Updated);
        assert!(engine.epoch() > e0);
        let xml = engine.query(&req).unwrap().xml;
        assert!(xml.contains("<title>Z</title>"), "{xml}");
        assert!(!xml.contains("<title>X</title>"), "{xml}");
    }

    #[test]
    fn mutate_insert_and_delete_roundtrip() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let inserted = engine
            .mutate(&Mutation::InsertSubtree {
                parent: "1".parse().unwrap(),
                xml: "<book><title>N</title></book>".to_string(),
            })
            .unwrap();
        let MutationOutcome::Inserted(at) = inserted else {
            panic!("expected Inserted, got {inserted:?}");
        };
        assert_eq!(at.to_string(), "1.3");
        let req = QueryRequest::builder("MORPH title").build();
        assert!(engine.query(&req).unwrap().xml.contains("<title>N</title>"));
        let deleted = engine
            .mutate(&Mutation::DeleteSubtree { target: at })
            .unwrap();
        assert_eq!(deleted, MutationOutcome::Deleted(2)); // book + title
        assert!(!engine.query(&req).unwrap().xml.contains("<title>N</title>"));
    }

    #[test]
    fn pinned_snapshot_is_stable_across_mutations() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let snap = engine.snapshot();
        engine
            .mutate(&Mutation::UpdateText {
                target: "1.1.1".parse().unwrap(),
                text: "Z".to_string(),
            })
            .unwrap();
        let title = snap
            .types()
            .lookup(&["data".into(), "book".into(), "title".into()])
            .unwrap();
        let texts: Vec<String> = snap.scan_type(title).into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["X", "Y"]);
    }

    #[test]
    fn mutate_error_reports_and_leaves_doc_usable() {
        let engine = Engine::from_xml(FIG1A).unwrap();
        let err = engine.mutate(&Mutation::DeleteSubtree {
            target: "1".parse().unwrap(),
        });
        assert!(matches!(err, Err(MorphError::Mutation { .. })));
        let req = QueryRequest::builder("MORPH title").build();
        assert!(engine.query(&req).unwrap().xml.contains("<title>X</title>"));
    }
}
