//! # xmorph-pagestore
//!
//! A from-scratch, page-based embedded storage engine. In the XMorph 2.0
//! paper the interpreter shreds XML into BerkeleyDB Java Edition tables
//! (`Nodes`, `TypeToSequence`, `GroupedSequence`, `AdornedShapes` — paper
//! Fig. 8); this crate is that substrate.
//!
//! Architecture, bottom-up:
//!
//! * [`checksum`] — FNV-1a64, the one checksum of WAL records, column
//!   segments and wire frames.
//! * [`storage`] — a byte-addressed backing device: a real file
//!   ([`storage::FileStorage`]) or memory ([`storage::MemStorage`]).
//! * [`stats`] — cumulative I/O instrumentation (block counts and wall
//!   time spent blocked on I/O). The Figure 11/12 experiment harness reads
//!   these counters the way the paper read `vmstat`.
//! * [`fault`] — deterministic fault injection ([`fault::FaultStorage`]):
//!   scripted I/O errors, torn writes, and crash points for the
//!   crash-consistency harness.
//! * [`pager`] — fixed-size page allocation and transfer, with a meta page
//!   holding the table catalog.
//! * [`wal`] — a page-image write-ahead log living in a reserved page
//!   region of the same device: checksummed, LSN-stamped page images
//!   plus commit records, replayed (torn-tail aware) on open.
//! * [`buffer`] — an LRU buffer pool with write-back of dirty pages,
//!   single-writer transactions, and WAL group commit.
//! * [`btree`] — a slotted-page B+tree with variable-length keys and
//!   values, overflow chains for large values, and ordered range scans.
//! * [`mmap`] — a minimal read-only memory-map wrapper (unix only;
//!   degrades to `None` elsewhere).
//! * [`segment`] — named page-aligned blob extents with a catalog tree,
//!   served as heap copies or OS mappings.
//! * [`store`] — the public façade: a [`Store`] of named [`Tree`]s and
//!   segments, built via [`StoreOptions`].
//!
//! ```
//! use xmorph_pagestore::Store;
//!
//! let store = Store::in_memory();
//! let tree = store.open_tree("labels").unwrap();
//! tree.insert(b"1.1", b"book").unwrap();
//! tree.insert(b"1.2", b"book").unwrap();
//! assert_eq!(tree.get(b"1.1").unwrap().as_deref(), Some(&b"book"[..]));
//! let mut scan = tree.range(..);
//! let mut n = 0;
//! while scan.next_entry().unwrap().is_some() {
//!     n += 1;
//! }
//! assert_eq!(n, 2);
//! ```

pub mod btree;
pub mod buffer;
pub mod checksum;
pub mod error;
pub mod fault;
pub mod mmap;
pub mod pager;
pub mod segment;
pub mod stats;
pub mod storage;
pub mod store;
pub mod wal;

pub use btree::{BulkSource, OwnedPairs, DEFAULT_FILL};
pub use buffer::{default_shard_count, BufferPool, DEFAULT_CAPACITY, MAX_SHARDS};
pub use error::{StoreError, StoreResult};
pub use fault::{FaultHandle, FaultScript, FaultStorage, TORN_BLOCK};
pub use mmap::MmapRegion;
pub use segment::{SegmentData, SegmentEntry, SEGMENT_CATALOG_TREE};
pub use stats::{IoSnapshot, IoStats, StoreStats};
pub use store::{Store, StoreOptions, Tree, Txn};
pub use wal::DEFAULT_WAL_RECORD_PAGES;

/// Size of every page, in bytes. 4 KiB matches the usual filesystem block
/// size, so one page transfer ≈ one "block" in the Figure 11 sense.
pub const PAGE_SIZE: usize = 4096;
