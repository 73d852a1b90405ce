//! The public façade: a [`Store`] of named [`Tree`]s plus named raw
//! [`crate::segment`]s, configured through the [`StoreOptions`] builder.

use crate::btree::{BTree, BulkSource, RangeIter};
use crate::buffer::{BufferPool, DEFAULT_CAPACITY};
use crate::error::{StoreError, StoreResult};
use crate::pager::{FreeExtent, PageId, Pager, META_PAGE};
use crate::segment::{SegmentData, SegmentEntry, SEGMENT_CATALOG_TREE};
use crate::stats::{IoSnapshot, IoStats, StoreStats};
use crate::storage::{FileStorage, MemStorage, Storage};
use crate::PAGE_SIZE;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::ops::{Bound, RangeBounds};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Builder for a [`Store`]: buffer-pool capacity, shard count, shared
/// I/O stats, then one terminal call choosing the backing device. This
/// is the single construction path — the old
/// `in_memory_with`/`create_with`/`with_storage_sharded` constructor
/// family collapsed into it.
///
/// ```
/// use xmorph_pagestore::Store;
///
/// let store = Store::options().capacity(256).shards(4).open_memory();
/// assert!(store.shard_count() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct StoreOptions {
    capacity: usize,
    shards: Option<usize>,
    stats: IoStats,
    wal_pages: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            capacity: DEFAULT_CAPACITY,
            shards: None,
            stats: IoStats::new(),
            wal_pages: None,
        }
    }
}

impl StoreOptions {
    /// Fresh options with the defaults ([`DEFAULT_CAPACITY`] frames,
    /// CPU-count shards, private stats).
    pub fn new() -> StoreOptions {
        StoreOptions::default()
    }

    /// Buffer-pool frame capacity (total across shards).
    pub fn capacity(mut self, frames: usize) -> Self {
        self.capacity = frames;
        self
    }

    /// Explicit buffer-pool shard count (rounded to a power of two; see
    /// [`crate::buffer::BufferPool::with_shards`]). Default: CPU count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Share an external [`IoStats`] handle — the benchmark harness
    /// meters I/O through this.
    pub fn stats(mut self, stats: IoStats) -> Self {
        self.stats = stats;
        self
    }

    /// Size of the write-ahead-log region, in pages, reserved when a
    /// fresh persistent device is initialized (`0` disables the WAL;
    /// default [`crate::wal::DEFAULT_WAL_RECORD_PAGES`]). Existing
    /// devices keep whatever layout they were created with — this only
    /// affects creation.
    pub fn wal_pages(mut self, pages: u64) -> Self {
        self.wal_pages = Some(pages);
        self
    }

    /// Terminal: an ephemeral in-memory store.
    pub fn open_memory(self) -> Store {
        self.with_storage(Box::new(MemStorage::new()))
            .expect("in-memory store cannot fail")
    }

    /// Terminal: open (or create) a file-backed store at `path`.
    pub fn open(self, path: &Path) -> StoreResult<Store> {
        let storage = Box::new(FileStorage::open(path)?);
        let mut store = self.with_storage(storage)?;
        store.path = Some(Arc::new(path.to_path_buf()));
        Ok(store)
    }

    /// Terminal: create a fresh file-backed store at `path`, truncating
    /// any existing file.
    pub fn create(self, path: &Path) -> StoreResult<Store> {
        let storage = Box::new(FileStorage::create(path)?);
        let mut store = self.with_storage(storage)?;
        store.path = Some(Arc::new(path.to_path_buf()));
        Ok(store)
    }

    /// Terminal: wrap an arbitrary storage device.
    pub fn with_storage(self, storage: Box<dyn Storage>) -> StoreResult<Store> {
        let pager = match self.wal_pages {
            Some(pages) => Pager::with_wal_pages(storage, self.stats, pages)?,
            None => Pager::new(storage, self.stats)?,
        };
        let mut pool = match self.shards {
            Some(n) => BufferPool::with_shards(pager, self.capacity, n),
            None => BufferPool::new(pager, self.capacity),
        };
        // The pool only ever caches B+tree pages (meta and segment
        // extents bypass it), so every device load can be structurally
        // validated: a torn page becomes `StoreError::Corrupt` at load
        // instead of an out-of-bounds panic at first use.
        pool.set_page_check(crate::btree::validate_page);
        let store = Store {
            pool: Arc::new(pool),
            path: None,
            closed: Arc::new(AtomicBool::new(false)),
        };
        // Reconcile the persisted free list against live segment
        // extents: a torn shutdown between the free-list append and the
        // catalog delete in `delete_segment` can leave a freed extent
        // that a live segment still claims; handing it out again would
        // double-allocate those pages.
        let live = store.live_segment_extents()?;
        if !live.is_empty() {
            store.pool.reconcile_free_extents(&live);
        }
        Ok(store)
    }
}

/// An embedded key-value store holding named ordered trees — the
/// reproduction's stand-in for BerkeleyDB JE — plus named page-aligned
/// segments for bulk write-once blobs.
#[derive(Debug, Clone)]
pub struct Store {
    pool: Arc<BufferPool>,
    /// Backing file path, when file-backed (error context only).
    path: Option<Arc<PathBuf>>,
    /// Set by the first [`Store::close`]; shared by clones so a second
    /// close anywhere is a no-op.
    closed: Arc<AtomicBool>,
}

impl Store {
    /// Configure a store ([`StoreOptions`] builder).
    pub fn options() -> StoreOptions {
        StoreOptions::new()
    }

    /// An ephemeral in-memory store with default options.
    pub fn in_memory() -> Store {
        Store::options().open_memory()
    }

    /// Open (or create) a file-backed store at `path` with default
    /// options.
    pub fn open(path: &Path) -> StoreResult<Store> {
        Store::options().open(path)
    }

    /// Create a fresh file-backed store with default options,
    /// truncating any existing file.
    pub fn create(path: &Path) -> StoreResult<Store> {
        Store::options().create(path)
    }

    /// Number of shards in the underlying buffer pool.
    pub fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    /// Backing file path, when file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref().map(|p| p.as_path())
    }

    /// Open a named tree, creating it if absent.
    /// [`SEGMENT_CATALOG_TREE`] is reserved for the segment catalog.
    pub fn open_tree(&self, name: &str) -> StoreResult<Tree> {
        if name == SEGMENT_CATALOG_TREE {
            return Err(StoreError::NameTooLong(format!("{name} (reserved)")));
        }
        self.open_tree_raw(name)
    }

    fn open_tree_raw(&self, name: &str) -> StoreResult<Tree> {
        let root = match self.pool.tree_root(name) {
            Some(r) => r,
            None => {
                let t = BTree::create(&self.pool)?;
                self.pool.set_tree_root(name, t.root())?;
                t.root()
            }
        };
        Ok(Tree {
            pool: Arc::clone(&self.pool),
            name: name.to_string(),
            root: Arc::new(Mutex::new(root)),
        })
    }

    /// Names of all trees in the catalog (the reserved segment catalog
    /// excluded).
    pub fn tree_names(&self) -> Vec<String> {
        self.pool
            .tree_names()
            .into_iter()
            .filter(|n| n != SEGMENT_CATALOG_TREE)
            .collect()
    }

    // ---- segments ----

    /// Store `bytes` as the named segment: allocate a contiguous extent
    /// (reusing a freed one when it fits), write the data pages straight
    /// through to the device, *then* publish the catalog entry. The
    /// ordering means a crash can leave an unpublished (or stale) entry
    /// but never a published entry over unwritten pages; the entry
    /// itself becomes durable at the next [`Store::flush`]. Re-putting a
    /// name replaces its entry and returns the old extent to the free
    /// list — only after the new entry is published, so a crash in
    /// between can leak the old extent but never leave the catalog
    /// pointing at recycled pages.
    pub fn put_segment(&self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        let pages = bytes.len().div_ceil(PAGE_SIZE).max(1) as u64;
        let first = self.pool.allocate_extent(pages)?;
        self.pool.write_extent(first, bytes)?;
        let entry = SegmentEntry {
            first_page: first,
            pages,
            len: bytes.len() as u64,
        };
        let tree = self.open_tree_raw(SEGMENT_CATALOG_TREE)?;
        let old = tree.get(name.as_bytes())?;
        tree.insert(name.as_bytes(), &entry.encode())?;
        if let Some(old) = old.as_deref().and_then(SegmentEntry::decode) {
            self.pool.free_extent(old.first_page, old.pages);
        }
        Ok(())
    }

    /// Fetch a segment's bytes. `prefer_mmap` asks for a read-only OS
    /// mapping when the device supports one (file-backed unix stores);
    /// otherwise (or when mapping declines) the bytes are read into a
    /// heap buffer. Returns `Ok(None)` when no such segment exists and
    /// [`StoreError::SegmentInvalid`] when the catalog entry is present
    /// but unusable — malformed, or pointing outside the allocated page
    /// range, the signature of a torn shutdown.
    pub fn get_segment(&self, name: &str, prefer_mmap: bool) -> StoreResult<Option<SegmentData>> {
        // Don't create the catalog tree on a read path.
        if self.pool.tree_root(SEGMENT_CATALOG_TREE).is_none() {
            return Ok(None);
        }
        let tree = self.open_tree_raw(SEGMENT_CATALOG_TREE)?;
        let Some(value) = tree.get(name.as_bytes())? else {
            return Ok(None);
        };
        let invalid = |reason| StoreError::SegmentInvalid {
            name: name.to_string(),
            reason,
        };
        let entry = SegmentEntry::decode(&value).ok_or_else(|| invalid("malformed entry"))?;
        let byte_len =
            usize::try_from(entry.len).map_err(|_| invalid("length exceeds address space"))?;
        if entry.first_page < self.pool.first_data_page()
            || entry.len > entry.pages * PAGE_SIZE as u64
            || entry
                .first_page
                .checked_add(entry.pages)
                .is_none_or(|end| end > self.pool.page_count())
        {
            return Err(invalid("extent outside allocated pages"));
        }
        if prefer_mmap && byte_len > 0 {
            // A mapping failure on a valid store degrades to the heap
            // read below — which reports real device trouble — rather
            // than aborting the fetch.
            if let Ok(Some(map)) = self.pool.mmap_extent(entry.first_page, byte_len) {
                return Ok(Some(SegmentData::Mapped { map, len: byte_len }));
            }
        }
        Ok(Some(SegmentData::Heap(
            self.pool.read_extent(entry.first_page, byte_len)?,
        )))
    }

    /// Names of all stored segments.
    pub fn segment_names(&self) -> StoreResult<Vec<String>> {
        Ok(self
            .segment_entries()?
            .into_iter()
            .map(|(name, _)| name)
            .collect())
    }

    /// Every live segment's name and catalog entry, in name order
    /// (malformed entries are skipped — [`Store::get_segment`] reports
    /// those). The crash-consistency harness checks free-list overlap
    /// and extent bounds against this.
    pub fn segment_entries(&self) -> StoreResult<Vec<(String, SegmentEntry)>> {
        if self.pool.tree_root(SEGMENT_CATALOG_TREE).is_none() {
            return Ok(Vec::new());
        }
        let tree = self.open_tree_raw(SEGMENT_CATALOG_TREE)?;
        // Explicit `next_entry` loop: the `Iterator` sugar swallows scan
        // errors into an empty tail, and "no segments" is load-bearing
        // here (open-time reconcile skips entirely on an empty list and
        // could hand out pages a live segment still claims).
        let mut it = tree.scan_prefix(b"");
        let mut out = Vec::new();
        while let Some((k, v)) = it.next_entry()? {
            if let (Ok(name), Some(e)) = (String::from_utf8(k), SegmentEntry::decode(&v)) {
                out.push((name, e));
            }
        }
        Ok(out)
    }

    /// The pager's current free extents (`(first_page, pages)` runs,
    /// sorted by first page) — exposed for the crash harness's overlap
    /// checks.
    pub fn free_extents(&self) -> Vec<FreeExtent> {
        self.pool.free_extents()
    }

    /// Drop a segment, returning its extent to the free list so later
    /// allocations reuse the pages. Returns `true` if the segment
    /// existed. The free-list append happens *before* the catalog
    /// delete: if a torn shutdown persists only the append, open-time
    /// reconciliation sees the still-live catalog entry and drops the
    /// overlapping free extent, whereas the reverse order could leak the
    /// extent with no record of it anywhere.
    pub fn delete_segment(&self, name: &str) -> StoreResult<bool> {
        if self.pool.tree_root(SEGMENT_CATALOG_TREE).is_none() {
            return Ok(false);
        }
        let tree = self.open_tree_raw(SEGMENT_CATALOG_TREE)?;
        let Some(value) = tree.get(name.as_bytes())? else {
            return Ok(false);
        };
        if let Some(entry) = SegmentEntry::decode(&value) {
            self.pool.free_extent(entry.first_page, entry.pages);
        }
        tree.delete(name.as_bytes())
    }

    /// Every live segment's extent, straight from the catalog.
    fn live_segment_extents(&self) -> StoreResult<Vec<FreeExtent>> {
        Ok(self
            .segment_entries()?
            .into_iter()
            .map(|(_, e)| (e.first_page, e.pages))
            .collect())
    }

    /// True when [`Store::get_segment`] can return mapped bytes.
    pub fn supports_mmap(&self) -> bool {
        self.pool.supports_mmap()
    }

    /// True when the backing device outlives the process (file-backed),
    /// i.e. persisted auxiliary structures are worth writing.
    pub fn is_persistent(&self) -> bool {
        self.pool.is_persistent()
    }

    // ---- lifecycle ----

    /// Snapshot the cumulative I/O counters. Two snapshots bracket a
    /// unit of work; [`IoSnapshot::since`] yields the pages and cache
    /// traffic that work actually caused — the per-query attribution
    /// the serving layer reports in its stats frames. Counters are
    /// store-wide, so concurrent work on the same store shows up in
    /// overlapping deltas.
    pub fn io_stats_snapshot(&self) -> IoSnapshot {
        self.pool.io_snapshot()
    }

    /// Write back dirty pages and sync the device. On a WAL-backed
    /// store this also drains the pending group-commit batch and
    /// checkpoints (truncates) the log. Blocks while a transaction is
    /// open — do not call with an un-committed [`Txn`] on the same
    /// thread.
    pub fn flush(&self) -> StoreResult<()> {
        self.pool.flush()
    }

    /// Begin an atomic transaction. All tree writes, segment puts, and
    /// deletes through this store until the matching [`Txn::commit`]
    /// become visible and durable together: on a WAL-backed store the
    /// commit stages one log batch (fsynced at the group-commit
    /// window), and a crash before the batch is logged rolls the whole
    /// transaction back on reopen. Dropping the returned [`Txn`]
    /// without committing rolls back immediately.
    ///
    /// Transactions are single-writer: `begin` blocks until no other
    /// transaction (or exclusive maintenance section) is open. They are
    /// not reentrant — a second `begin`, or a [`Store::flush`] /
    /// [`Store::vacuum`], from the same thread while a `Txn` is open
    /// deadlocks.
    pub fn begin(&self) -> StoreResult<Txn> {
        self.pool.begin_txn();
        Ok(Txn {
            pool: Arc::clone(&self.pool),
            done: false,
        })
    }

    /// True when the backing device carries a write-ahead log (i.e. the
    /// store was created persistent with a non-zero WAL region).
    pub fn wal_enabled(&self) -> bool {
        self.pool.wal_enabled()
    }

    /// First page id usable for data; pages below it hold the metadata
    /// page and the WAL region.
    pub fn first_data_page(&self) -> PageId {
        self.pool.first_data_page()
    }

    /// Number of currently *live* pages: meta + WAL region + reachable
    /// tree pages + catalogued segment extents. The complement of this
    /// within [`Store::page_count`] is the dead space vacuum can
    /// reclaim — benchmarks use the pair to compute recovery fractions.
    pub fn live_page_count(&self) -> StoreResult<u64> {
        Ok(self.live_pages()?.len() as u64)
    }

    /// Flush everything and sync before the store handle goes away —
    /// the explicit close. Segment *data* is written through at
    /// [`Store::put_segment`] time, so this is what makes the segment
    /// catalog (and any dirty tree pages) durable; call it before
    /// dropping a file-backed store whose contents you intend to reopen.
    ///
    /// Idempotent: the first *successful* call flushes, every later call
    /// (from this handle or any clone) is a no-op returning `Ok`. A
    /// failed close does not latch — the error comes back and the store
    /// stays open so the caller can retry once the device recovers
    /// (latching first would report the failure once and then swallow
    /// it forever). Reads and writes through still-held handles keep
    /// working after a close — only the closing flush itself is
    /// one-shot.
    pub fn close(&self) -> StoreResult<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.flush()?;
        self.closed.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// True once [`Store::close`] has run on this handle or any clone.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Store-level resource counters: live segments, reusable free-list
    /// pages, and pages reclaimed by [`Store::vacuum`].
    pub fn stats(&self) -> StoreResult<StoreStats> {
        let segments_live = if self.pool.tree_root(SEGMENT_CATALOG_TREE).is_none() {
            0
        } else {
            self.open_tree_raw(SEGMENT_CATALOG_TREE)?.len()? as u64
        };
        Ok(StoreStats {
            segments_live,
            free_extent_pages: self.pool.free_extent_pages(),
            vacuum_reclaimed_pages: self.pool.vacuum_reclaimed_pages(),
        })
    }

    /// Compact the store: slide every live page down into a dense
    /// prefix, rewrite all page references (tree child pointers, sibling
    /// links, overflow chains, catalog roots, segment entries), rebuild
    /// the free-extent list, and truncate the dead tail back to the
    /// filesystem. Returns the number of pages reclaimed (the drop in
    /// [`Store::page_count`]).
    ///
    /// Liveness is computed from first principles — every page reachable
    /// from a catalogued tree plus every catalogued segment extent plus
    /// the meta page — so vacuum also recovers extents the bounded free
    /// list had to drop.
    ///
    /// Vacuum invalidates handles that cache physical locations: open
    /// [`Tree`] handles (their cached root may have moved) and mapped
    /// segment bytes ([`SegmentData::Mapped`] — the mapped pages can be
    /// pulled out from under the mapping). Reopen trees and re-fetch
    /// segments afterwards. Vacuum itself is not crash-atomic; a crash
    /// in the middle can leave dangling segment entries, which the read
    /// path reports as [`StoreError::SegmentInvalid`].
    pub fn vacuum(&self) -> StoreResult<u64> {
        // Vacuum holds the transaction gate for its whole run: no
        // transaction may commit while pages are being relocated, and
        // the opening flush drains + checkpoints the WAL so no pending
        // batch images describe the old layout.
        let _excl = self.pool.txn_exclusion();
        let first_data = self.pool.first_data_page();
        // Make the device authoritative and wipe the free list —
        // relocation targets must never race allocations for the holes,
        // and the list is rebuilt from scratch at the end.
        self.pool.flush_locked()?;
        self.pool.set_free_extents(Vec::new());
        let old_count = self.pool.page_count();

        // ---- analyze: live units (single tree pages, whole extents) ----
        let tree_roots: Vec<(String, PageId)> = self
            .pool
            .tree_names()
            .into_iter()
            .filter_map(|n| self.pool.tree_root(&n).map(|r| (n, r)))
            .collect();
        let mut tree_pages: BTreeSet<PageId> = BTreeSet::new();
        for (_, root) in &tree_roots {
            BTree::open(&self.pool, *root).collect_pages(&mut tree_pages)?;
        }
        let mut segments: Vec<(String, SegmentEntry)> = self.segment_entries()?;
        let mut units: Vec<(PageId, u64, Option<usize>)> = tree_pages
            .iter()
            .map(|&p| (p, 1, None))
            .chain(
                segments
                    .iter()
                    .enumerate()
                    .map(|(i, (_, e))| (e.first_page, e.pages, Some(i))),
            )
            .collect();
        units.sort_unstable_by_key(|&(first, _, _)| first);
        let mut prev_end = first_data;
        for &(first, pages, _) in &units {
            if first < prev_end || first.checked_add(pages).is_none_or(|end| end > old_count) {
                return Err(StoreError::Corrupt("vacuum: live extents overlap"));
            }
            prev_end = first + pages;
        }

        // ---- plan the dense layout ----
        // Units are assigned ascending targets from the first data page
        // up; because
        // sources are disjoint and ascending, every target range sits at
        // or below its source and never overlaps a later source, so the
        // moves can be applied in order with only per-unit buffering.
        let mut map: std::collections::HashMap<PageId, PageId> = std::collections::HashMap::new();
        let mut moves: Vec<(PageId, u64, PageId)> = Vec::new();
        let mut next: PageId = first_data;
        for &(first, pages, seg) in &units {
            let target = next;
            next += pages;
            if target == first {
                continue;
            }
            moves.push((first, pages, target));
            match seg {
                None => {
                    map.insert(first, target);
                }
                Some(i) => {
                    segments[i].1 = SegmentEntry {
                        first_page: target,
                        ..segments[i].1
                    };
                }
            }
        }

        // ---- apply moves at device level, then fix references ----
        for &(first, pages, target) in &moves {
            let bytes = self.pool.read_extent(first, (pages as usize) * PAGE_SIZE)?;
            self.pool.write_extent(target, &bytes)?;
        }
        // Frames cached during analysis describe the old layout.
        self.pool.forget_frames_from(0);
        if !map.is_empty() {
            let mut page = vec![0u8; PAGE_SIZE];
            for &p in &tree_pages {
                let np = map.get(&p).copied().unwrap_or(p);
                page.copy_from_slice(&self.pool.read_extent(np, PAGE_SIZE)?);
                // These reads bypass the pool (and its load-time check),
                // so validate before parsing slot offsets out of them.
                crate::btree::validate_page(&page).map_err(StoreError::Corrupt)?;
                if crate::btree::rewrite_page_pointers(&mut page, &map) {
                    self.pool.write_extent(np, &page)?;
                }
            }
            for (name, root) in &tree_roots {
                if let Some(&new_root) = map.get(root) {
                    self.pool.set_tree_root(name, new_root)?;
                }
            }
        }
        // Republish entries for moved segments through the (already
        // relocated) catalog tree.
        let moved_entries: Vec<&(String, SegmentEntry)> = segments
            .iter()
            .filter(|(_, e)| moves.iter().any(|&(_, _, target)| target == e.first_page))
            .collect();
        if !moved_entries.is_empty() {
            let tree = self.open_tree_raw(SEGMENT_CATALOG_TREE)?;
            for (name, e) in moved_entries {
                tree.insert(name.as_bytes(), &e.encode())?;
            }
        }
        self.pool.flush_locked()?;

        // ---- re-derive liveness (catalog rewrites can allocate), then
        // rebuild the free list and drop the tail ----
        let live = self.live_pages()?;
        let new_count = live.iter().next_back().map_or(first_data, |&p| p + 1);
        self.pool
            .set_free_extents(free_runs(&live, new_count).into_iter().collect());
        self.pool.forget_frames_from(new_count);
        self.pool.shrink_to(new_count)?;
        self.pool.flush_locked()?;
        Ok(old_count.saturating_sub(self.pool.page_count()))
    }

    /// Every live page: the meta page and WAL region, all pages
    /// reachable from catalogued trees, and all catalogued segment
    /// extents.
    fn live_pages(&self) -> StoreResult<BTreeSet<PageId>> {
        let mut live = BTreeSet::new();
        live.insert(META_PAGE);
        // The WAL header + record region is infrastructure, always live.
        live.extend(META_PAGE + 1..self.pool.first_data_page());
        for name in self.pool.tree_names() {
            if let Some(root) = self.pool.tree_root(&name) {
                BTree::open(&self.pool, root).collect_pages(&mut live)?;
            }
        }
        for (first, pages) in self.live_segment_extents()? {
            live.extend(first..first + pages);
        }
        Ok(live)
    }

    /// Total allocated pages (a proxy for on-disk size).
    pub fn page_count(&self) -> u64 {
        self.pool.page_count()
    }

    /// Approximate on-disk size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() * crate::PAGE_SIZE as u64
    }
}

impl Drop for Store {
    /// Best-effort flush when the last handle goes away without an
    /// explicit [`Store::close`]. Drop must never panic (it may run
    /// during another panic's unwind) and has no way to return an
    /// error, so a failed flush is swallowed into the
    /// [`IoSnapshot::flush_failures`] counter. Only the final handle
    /// flushes, and only while open [`Tree`] handles (which share the
    /// pool) don't outlive it.
    fn drop(&mut self) {
        if Arc::strong_count(&self.pool) == 1
            && !self.closed.load(Ordering::SeqCst)
            && self.pool.flush().is_err()
        {
            self.pool.record_flush_failure();
        }
    }
}

/// An open transaction on a [`Store`], returned by [`Store::begin`].
///
/// Holds the store's single-writer gate until resolved. [`commit`]
/// publishes every write made since `begin` atomically; [`rollback`]
/// (or dropping the guard) restores the pre-transaction state
/// byte-for-byte — pages are un-written, allocations un-made, root
/// moves un-done.
///
/// [`commit`]: Txn::commit
/// [`rollback`]: Txn::rollback
#[must_use = "dropping a Txn rolls it back"]
pub struct Txn {
    pool: Arc<BufferPool>,
    done: bool,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn").field("done", &self.done).finish()
    }
}

impl Txn {
    /// Commit: everything written since [`Store::begin`] becomes
    /// visible atomically. On a WAL-backed store durability arrives
    /// with the group-commit fsync (at the latest, the next
    /// [`Store::flush`]); an error here means the transaction state is
    /// already published in memory but the log append failed — the
    /// caller should surface it and flush.
    pub fn commit(mut self) -> StoreResult<()> {
        self.done = true;
        self.pool.commit_txn()
    }

    /// Roll back: restore the exact pre-transaction state.
    pub fn rollback(mut self) {
        self.done = true;
        self.pool.rollback_txn();
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.done {
            self.pool.rollback_txn();
        }
    }
}

/// A named, ordered key-value tree within a [`Store`].
#[derive(Debug, Clone)]
pub struct Tree {
    pool: Arc<BufferPool>,
    name: String,
    root: Arc<Mutex<PageId>>,
}

impl Tree {
    /// The tree's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert or replace; returns `true` if the key was new.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> StoreResult<bool> {
        let mut root = self.root.lock();
        let mut bt = BTree::open(&self.pool, *root);
        let was_new = bt.insert(key, value)?;
        if bt.root() != *root {
            *root = bt.root();
            self.pool.set_tree_root(&self.name, *root)?;
        }
        Ok(was_new)
    }

    /// Replace the tree's contents with key-sorted pairs packed
    /// bottom-up (see [`BTree::bulk_load`]) at the given fill factor
    /// ([`crate::btree::DEFAULT_FILL`] is the usual choice). The
    /// previous root's pages are abandoned — the same write-once policy
    /// as overflow replacement; the shredder bulk-loads into freshly
    /// created trees, where nothing is lost.
    pub fn bulk_load<S: BulkSource>(&self, pairs: S, fill_factor: f64) -> StoreResult<()> {
        let mut root = self.root.lock();
        let bt = BTree::bulk_load(&self.pool, pairs, fill_factor)?;
        *root = bt.root();
        self.pool.set_tree_root(&self.name, *root)
    }

    /// Re-read the root from the catalog. A rolled-back transaction
    /// restores the catalog but not the root a live handle cached, so a
    /// handle whose writes rolled back reloads it.
    pub fn reload_root(&self) {
        if let Some(root) = self.pool.tree_root(&self.name) {
            *self.root.lock() = root;
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).get(key)
    }

    /// True if the key is present; the value is never read.
    pub fn contains(&self, key: &[u8]) -> StoreResult<bool> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).contains(key)
    }

    /// Remove a key; returns `true` if it was present.
    pub fn delete(&self, key: &[u8]) -> StoreResult<bool> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).delete(key)
    }

    /// Ordered scan over a key range. Accepts the usual range syntax:
    /// `tree.range(..)`, `tree.range(a..b)`, `tree.range(a..=b)` with
    /// `Vec<u8>` endpoints. Step it with [`RangeIter::next_entry`] or
    /// [`RangeIter::next_key`]; a read fault, the descent's included, is
    /// the error of the step that met it.
    pub fn range<R: RangeBounds<Vec<u8>>>(&self, bounds: R) -> RangeIter<'_> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).range(
            clone_bound(bounds.start_bound()),
            clone_bound(bounds.end_bound()),
        )
    }

    /// Scan all keys beginning with `prefix`, in order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> RangeIter<'_> {
        let root = *self.root.lock();
        let end = match prefix_successor(prefix) {
            Some(e) => Bound::Excluded(e),
            None => Bound::Unbounded,
        };
        BTree::open(&self.pool, root).range(Bound::Included(prefix.to_vec()), end)
    }

    /// The greatest key strictly below `upper`, or `None` when every key
    /// is at or above it — one descent, no scan (see
    /// [`BTree::last_key_below`]). Values are never read.
    pub fn last_key_below(&self, upper: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).last_key_below(Some(upper))
    }

    /// The greatest key beginning with `prefix`, if any: the
    /// [`Tree::last_key_below`] seek bounded by the prefix's successor.
    pub fn last_key_with_prefix(&self, prefix: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let root = *self.root.lock();
        let upper = prefix_successor(prefix);
        let last = BTree::open(&self.pool, root).last_key_below(upper.as_deref())?;
        Ok(last.filter(|k| k.starts_with(prefix)))
    }

    /// Remove every key beginning with `prefix` and return the removed
    /// keys in order: each leaf in range is written once (see
    /// [`BTree::delete_range`]).
    pub fn delete_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<Vec<u8>>> {
        let root = *self.root.lock();
        let end = prefix_successor(prefix);
        BTree::open(&self.pool, root).delete_range(prefix, end.as_deref())
    }

    /// Number of keys beginning with `prefix`, counted per leaf by
    /// binary search without materialising a key (see
    /// [`BTree::count_range`]): O(depth + leaves spanned).
    pub fn count_prefix(&self, prefix: &[u8]) -> StoreResult<u64> {
        let root = *self.root.lock();
        let end = prefix_successor(prefix);
        BTree::open(&self.pool, root).count_range(prefix, end.as_deref())
    }

    /// Number of entries — O(n).
    pub fn len(&self) -> StoreResult<usize> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).len()
    }

    /// True when empty — O(1).
    pub fn is_empty(&self) -> StoreResult<bool> {
        let root = *self.root.lock();
        BTree::open(&self.pool, root).is_empty()
    }
}

fn clone_bound(b: Bound<&Vec<u8>>) -> Bound<Vec<u8>> {
    match b {
        Bound::Included(v) => Bound::Included(v.clone()),
        Bound::Excluded(v) => Bound::Excluded(v.clone()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Contiguous runs of non-live pages in `[1, bound)`, ascending — the
/// holes vacuum relocates segments into and rebuilds the free list from.
fn free_runs(live: &BTreeSet<PageId>, bound: u64) -> Vec<FreeExtent> {
    let mut runs = Vec::new();
    let mut cursor: PageId = 1;
    for &p in live.range(1..bound) {
        if p > cursor {
            runs.push((cursor, p - cursor));
        }
        cursor = p + 1;
    }
    if bound > cursor {
        runs.push((cursor, bound - cursor));
    }
    runs
}

/// The smallest byte string greater than every string with this prefix,
/// or `None` when the prefix is all `0xff`.
fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_tree_twice_shares_data() {
        let store = Store::in_memory();
        let a = store.open_tree("t").unwrap();
        a.insert(b"k", b"v").unwrap();
        let b = store.open_tree("t").unwrap();
        assert_eq!(b.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn separate_trees_are_independent() {
        let store = Store::in_memory();
        let a = store.open_tree("a").unwrap();
        let b = store.open_tree("b").unwrap();
        a.insert(b"k", b"from-a").unwrap();
        b.insert(b"k", b"from-b").unwrap();
        assert_eq!(a.get(b"k").unwrap().as_deref(), Some(&b"from-a"[..]));
        assert_eq!(b.get(b"k").unwrap().as_deref(), Some(&b"from-b"[..]));
        assert_eq!(store.tree_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn root_split_visible_through_catalog() {
        let store = Store::in_memory();
        let t = store.open_tree("big").unwrap();
        for i in 0..3000u32 {
            t.insert(format!("{i:06}").as_bytes(), b"payload").unwrap();
        }
        // A second handle opened after the splits must see everything.
        let t2 = store.open_tree("big").unwrap();
        assert_eq!(t2.len().unwrap(), 3000);
    }

    #[test]
    fn scan_prefix_works() {
        let store = Store::in_memory();
        let t = store.open_tree("t").unwrap();
        for k in ["a/1", "a/2", "a/3", "b/1", "", "a"] {
            t.insert(k.as_bytes(), b"").unwrap();
        }
        let got: Vec<String> = t
            .scan_prefix(b"a/")
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(got, vec!["a/1", "a/2", "a/3"]);
        // Empty prefix scans everything.
        assert_eq!(t.scan_prefix(b"").entries().unwrap().len(), 6);
    }

    #[test]
    fn range_syntax_variants() {
        let store = Store::in_memory();
        let t = store.open_tree("t").unwrap();
        for i in 0..10u8 {
            t.insert(&[i], &[i]).unwrap();
        }
        assert_eq!(t.range(..).entries().unwrap().len(), 10);
        assert_eq!(t.range(vec![3]..vec![7]).entries().unwrap().len(), 4);
        assert_eq!(t.range(vec![3]..=vec![7]).entries().unwrap().len(), 5);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pagestore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.db");
        {
            let store = Store::create(&path).unwrap();
            let t = store.open_tree("nodes").unwrap();
            for i in 0..2000u32 {
                t.insert(&i.to_be_bytes(), format!("node {i}").as_bytes())
                    .unwrap();
            }
            store.flush().unwrap();
        }
        {
            let store = Store::open(&path).unwrap();
            let t = store.open_tree("nodes").unwrap();
            assert_eq!(t.len().unwrap(), 2000);
            assert_eq!(
                t.get(&1234u32.to_be_bytes()).unwrap().as_deref(),
                Some(&b"node 1234"[..])
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefix_successor_edges() {
        assert_eq!(prefix_successor(b"ab"), Some(b"ac".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn close_is_idempotent() {
        let store = Store::in_memory();
        store.open_tree("t").unwrap().insert(b"k", b"v").unwrap();
        assert!(!store.is_closed());
        store.close().unwrap();
        assert!(store.is_closed());
        // Second close — on this handle and on a clone — is a no-op.
        store.close().unwrap();
        let clone = store.clone();
        assert!(clone.is_closed());
        clone.close().unwrap();
    }

    #[test]
    fn stats_track_segments_and_free_pages() {
        let store = Store::in_memory();
        let s = store.stats().unwrap();
        assert_eq!(s.segments_live, 0);
        assert_eq!(s.free_extent_pages, 0);
        store.put_segment("a", &vec![1u8; PAGE_SIZE * 3]).unwrap();
        store.put_segment("b", &vec![2u8; PAGE_SIZE]).unwrap();
        assert_eq!(store.stats().unwrap().segments_live, 2);
        store.delete_segment("a").unwrap();
        let s = store.stats().unwrap();
        assert_eq!(s.segments_live, 1);
        assert_eq!(s.free_extent_pages, 3);
    }

    #[test]
    fn vacuum_reclaims_dead_tail() {
        let store = Store::in_memory();
        let t = store.open_tree("t").unwrap();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), &[7u8; 50]).unwrap();
        }
        let keep = vec![3u8; PAGE_SIZE + 5];
        store.put_segment("keep", &keep).unwrap();
        store
            .put_segment("dead", &vec![9u8; PAGE_SIZE * 20])
            .unwrap();
        let before = store.page_count();
        store.delete_segment("dead").unwrap();
        let reclaimed = store.vacuum().unwrap();
        assert!(reclaimed >= 20, "reclaimed only {reclaimed} pages");
        assert_eq!(store.page_count(), before - reclaimed);
        assert_eq!(store.stats().unwrap().vacuum_reclaimed_pages, reclaimed);
        // Everything live survives.
        assert_eq!(t.len().unwrap(), 100);
        assert_eq!(&*store.get_segment("keep", false).unwrap().unwrap(), &keep);
    }

    #[test]
    fn vacuum_relocates_segments_into_holes() {
        // A big dead extent below a small live one: vacuum must slide the
        // live segment down so truncation can take the whole tail.
        let store = Store::in_memory();
        store
            .put_segment("low", &vec![1u8; PAGE_SIZE * 30])
            .unwrap();
        let hi = vec![5u8; PAGE_SIZE * 2 + 13];
        store.put_segment("hi", &hi).unwrap();
        store.delete_segment("low").unwrap();
        let reclaimed = store.vacuum().unwrap();
        assert!(reclaimed >= 28, "reclaimed only {reclaimed} pages");
        assert_eq!(&*store.get_segment("hi", false).unwrap().unwrap(), &hi);
        assert_eq!(store.stats().unwrap().free_extent_pages, 0);
    }

    #[test]
    fn vacuum_on_compact_store_is_noop() {
        let store = Store::in_memory();
        let t = store.open_tree("t").unwrap();
        for i in 0..50u32 {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        let before = store.page_count();
        assert_eq!(store.vacuum().unwrap(), 0);
        assert_eq!(store.page_count(), before);
        assert_eq!(t.len().unwrap(), 50);
    }

    #[test]
    fn io_snapshot_reports_traffic() {
        let store = Store::in_memory();
        let t = store.open_tree("t").unwrap();
        for i in 0..5000u32 {
            t.insert(&i.to_be_bytes(), &[0u8; 100]).unwrap();
        }
        store.flush().unwrap();
        let snap = store.io_stats_snapshot();
        assert!(
            snap.blocks_written > 10,
            "expected real write traffic: {snap:?}"
        );
    }
}
