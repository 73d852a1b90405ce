//! Shredding XML into storage tables, and the data-backed operations the
//! renderer needs: exact `typeDistance` and the Dewey-prefix closest join.
//!
//! The paper's architecture (Fig. 8) shreds documents into BerkeleyDB
//! tables; ours land in two `xmorph-pagestore` trees:
//!
//! * **`typeseq`** — (type id, Dewey) key → direct text. The paper's
//!   `TypeToSequence`/`GroupedSequence` tables folded into one: a scan
//!   with a `(type, prefix)` key prefix *is* the grouped sequence that
//!   feeds a closest join, and carrying the text in the value lets the
//!   renderer stream output from a single scan.
//! * **`meta`** — the adorned shape as one row per type
//!   (`AdornedShapes` table): a shred's base blob of every row and a
//!   mutation's per-type override rows; and the column generation
//!   counter.
//!
//! Fig. 8's `Nodes` table (Dewey → type, text) is folded into
//! `typeseq` plus a walk of the shape ([`ShreddedDoc::node_type`]): no
//! query needs that lookup, and the writer pays O(depth × fan-out)
//! point reads for it rather than a second copy of every row.
//!
//! Shredding is streaming: one pass over the SAX-style event stream with
//! O(depth) memory, exactly like the paper's Xerces-based shredder. By
//! default the emitted entries are key-sorted — an external sort that
//! spills runs only under a [`ShredOptions::memory_budget`] — and
//! **bulk-loaded** bottom-up ([`xmorph_pagestore::store::Tree::bulk_load`])
//! instead of inserted one root-to-leaf descent at a time.
//!
//! On the read side the hot path never descends the B+tree per probe:
//! the first touch of a type yields its [`TypeColumn`] — a flat sorted
//! array of Dewey component words plus an offset-indexed text arena —
//! and every closest join, co-occurrence scan, and type scan runs on
//! that column via binary-searched prefix ranges. On a file-backed store
//! the columns built at shred time are also **persisted** as checksummed
//! page-aligned segments (the `colseg` on-disk format), so a cold
//! reopen memory-maps them read-only instead of re-decoding the
//! `typeseq` tree — the column cache is then not heap-bounded. Stale or
//! corrupt segments degrade to the lazy rebuild, never to an error. The
//! original B+tree-backed operations survive as `*_btree` reference
//! implementations for cross-checking and ablation.

use crate::error::{MorphError, MorphResult, StoreOpExt};
use crate::guard::{Guard, GuardAnalysis};
use crate::model::shape::{AdornedShape, ShapeBuilder, SHAPE_BLOB_TAG};
use crate::model::types::{TypeId, TypeTable};
use crate::semantics::eval::DistOracle;
use crate::semantics::shape::Shape;
use crate::store::colseg;
use std::cell::RefCell;
use std::cmp::Ordering as Cmp;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use xmorph_pagestore::{
    BulkSource, SegmentData, Store, StoreError, StoreResult, Tree, DEFAULT_FILL,
};
use xmorph_xml::dewey::{decode_components_into, Dewey};
use xmorph_xml::reader::{EventSource, XmlEvent, XmlReader, XmlStreamReader};

/// Multiply-xor hasher for the small integer keys on the probe hot
/// path. Every `closest_group` probe hashes into the distance cache
/// and the column cache; SipHash's per-call setup dominates at that
/// grain, while TypeId keys need no DoS hardening.
#[derive(Default, Clone, Copy)]
pub(in crate::store) struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517cc1b727220a95);
    }
}

pub(in crate::store) type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Shred-time knobs, built fluently:
///
/// ```
/// use xmorph_core::ShredOptions;
///
/// let opts = ShredOptions::builder()
///     .bulk_load(false)
///     .persist_columns(false);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone)]
pub struct ShredOptions {
    bulk_load: bool,
    persist_columns: bool,
    memory_budget: Option<usize>,
}

impl Default for ShredOptions {
    fn default() -> Self {
        ShredOptions {
            bulk_load: true,
            persist_columns: true,
            memory_budget: None,
        }
    }
}

impl ShredOptions {
    /// Start from the defaults (bulk-loaded trees, no memory budget,
    /// columns persisted on file-backed stores).
    pub fn builder() -> ShredOptions {
        ShredOptions::default()
    }

    /// Sort the `typeseq` entries once and build the tree with the
    /// B+tree bulk loader (bottom-up leaf packing) instead of one
    /// root-to-leaf insert per entry. `false` keeps the original
    /// incremental path — the before/after baseline of the `fig_joins`
    /// benchmark and the reference the bulk path is tested against.
    /// Default: `true`.
    pub fn bulk_load(mut self, on: bool) -> Self {
        self.bulk_load = on;
        self
    }

    /// Persist the built columns as on-disk segments so a later
    /// [`ShreddedDoc::open`] maps them instead of re-decoding `typeseq`.
    /// Only effective on file-backed stores (an in-memory store has no
    /// cold reopen to accelerate). The bulk shred writes each segment
    /// straight from its merge and leaves no column decoded; the first
    /// touch loads it from the segment, as after a reopen. Default:
    /// `true`.
    pub fn persist_columns(mut self, on: bool) -> Self {
        self.persist_columns = on;
        self
    }

    /// Cap, in bytes, on the bulk shredder's working memory. Entry
    /// pairs accumulate in run buffers that are sorted and spilled to
    /// temporary store segments as they fill, then k-way merged
    /// straight into the B+tree bulk loader — so documents far larger
    /// than memory shred without ever materializing the sorted entry
    /// set. Unset (the default), the budget is unbounded: nothing
    /// spills and each tree loads from its one sorted in-memory run.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

/// Open-time knobs for an already-shredded store, built fluently:
///
/// ```
/// use xmorph_core::OpenOptions;
///
/// let opts = OpenOptions::builder().persisted_columns(false);
/// # let _ = opts;
/// ```
///
/// The column-cache budget belongs to the live document:
/// [`ShreddedDoc::set_column_budget`].
#[derive(Debug, Clone)]
pub struct OpenOptions {
    persisted_columns: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            persisted_columns: true,
        }
    }
}

impl OpenOptions {
    /// Start from the defaults (persisted columns used).
    pub fn builder() -> OpenOptions {
        OpenOptions::default()
    }

    /// Read persisted column segments when present and valid; `false`
    /// always rebuilds columns from the `typeseq` tree. Default: `true`.
    pub fn persisted_columns(mut self, on: bool) -> Self {
        self.persisted_columns = on;
        self
    }
}

/// The two places a cached column's bytes can live, reported by
/// [`ShreddedDoc::column_bytes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnBytes {
    /// Bytes on the heap (decoded columns and copy-decoded segments).
    pub heap: usize,
    /// Bytes memory-mapped from persisted segments (page cache, not
    /// heap; reclaimable by the OS under pressure).
    pub mapped: usize,
}

impl ColumnBytes {
    /// Heap and mapped together — the budget's unit of account.
    pub fn total(&self) -> usize {
        self.heap + self.mapped
    }

    fn of<'a>(cols: impl IntoIterator<Item = &'a Arc<TypeColumn>>) -> ColumnBytes {
        cols.into_iter()
            .fold(ColumnBytes::default(), |acc, c| ColumnBytes {
                heap: acc.heap + c.heap_bytes(),
                mapped: acc.mapped + c.mapped_bytes(),
            })
    }
}

/// A clustered copy of one type's `typeseq` range: every instance's
/// Dewey number as a row of `u32` component words in one flat sorted
/// array (fixed row width — all instances of a type share one depth),
/// plus the direct texts concatenated in an offset-indexed arena. A
/// `(type, prefix)` probe becomes two binary searches over the rows
/// ([`TypeColumn::prefix_range`]); a type scan becomes a slice walk.
/// Columns are immutable once built and shared behind an `Arc`, so
/// concurrent renders hit one copy.
///
/// The rows live either on the heap (decoded from the B+tree, or
/// copy-decoded from a persisted segment) or in a read-only memory map
/// of the segment itself — the accessors don't care which.
pub struct TypeColumn {
    /// Components per row.
    width: usize,
    backing: Backing,
}

enum Backing {
    Heap {
        /// Row-major component words, `len() * width` of them, sorted.
        comps: Vec<u32>,
        /// Concatenated direct texts.
        texts: String,
        /// `len() + 1` byte offsets into `texts`.
        offsets: Vec<u32>,
    },
    /// A validated v1 column segment, borrowed in place. Constructed
    /// only when the platform lets the payload be reinterpreted
    /// directly (little-endian, 4-byte-aligned mapping); see
    /// [`TypeColumn::from_segment`].
    Mapped {
        seg: SegmentData,
        layout: colseg::SegmentLayout,
    },
    /// A validated v2 (delta/varint-compressed) segment served from a
    /// read-only mapping: the component and offset arrays were decoded
    /// to the heap at load time (varints cannot be indexed in place),
    /// while the text arena — typically the bulk of the bytes — is
    /// still served zero-copy out of the mapping. `mapped_bytes`
    /// reports the compressed segment length: the cold-open I/O
    /// actually paid.
    Compressed {
        seg: SegmentData,
        comps: Vec<u32>,
        offsets: Vec<u32>,
        /// UTF-8-validated arena range within `seg`.
        texts: Range<usize>,
    },
}

/// Three-way compare of a row's leading components against a clamped
/// prefix (`pre.len()` ≤ row length). Chunked 8 components at a time:
/// each chunk first runs a branch-free XOR-OR inequality test — eight
/// independent word ops the compiler can keep in flight (or vectorize)
/// — and only a chunk that proves unequal pays for per-word ordering.
/// Dewey rows in one closest-join group share long prefixes, so the
/// cheap path is the common one on wide columns; narrow rows fall
/// through to the scalar tail immediately.
fn cmp_prefix(row: &[u32], pre: &[u32]) -> Cmp {
    debug_assert!(row.len() >= pre.len());
    let n = pre.len();
    let mut i = 0;
    while i + 8 <= n {
        let a = &row[i..i + 8];
        let b = &pre[i..i + 8];
        let ne = (a[0] ^ b[0])
            | (a[1] ^ b[1])
            | (a[2] ^ b[2])
            | (a[3] ^ b[3])
            | (a[4] ^ b[4])
            | (a[5] ^ b[5])
            | (a[6] ^ b[6])
            | (a[7] ^ b[7]);
        if ne != 0 {
            for k in 0..8 {
                match a[k].cmp(&b[k]) {
                    Cmp::Equal => {}
                    other => return other,
                }
            }
        }
        i += 8;
    }
    while i < n {
        match row[i].cmp(&pre[i]) {
            Cmp::Equal => i += 1,
            other => return other,
        }
    }
    Cmp::Equal
}

/// First index in `[lo, hi)` of the row-major `comps` (width `w`)
/// where the monotone `pred` turns false, by plain binary search.
fn binary_partition(
    comps: &[u32],
    w: usize,
    mut lo: usize,
    mut hi: usize,
    pred: impl Fn(&[u32]) -> bool,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&comps[mid * w..(mid + 1) * w]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First index in `[from, n)` where the monotone `pred` turns false,
/// found by galloping: exponential probes from `from` bracket the flip
/// point, then a binary search inside the bracket pins it. Cost is
/// O(log d) in the distance `d` actually advanced — so a sweep that
/// calls this repeatedly with an increasing `from` does O(n + m) total
/// work over m calls, instead of the O(m log n) of restarting a binary
/// search each time.
fn gallop_partition(
    comps: &[u32],
    w: usize,
    from: usize,
    n: usize,
    pred: impl Fn(&[u32]) -> bool,
) -> usize {
    let row = |i: usize| &comps[i * w..(i + 1) * w];
    if from >= n || !pred(row(from)) {
        return from.min(n);
    }
    // Row `from` still satisfies `pred`: double the step until a probe
    // fails (or the end of the column brackets the flip point).
    let mut last = from;
    let mut step = 1usize;
    let hi = loop {
        let probe = from + step;
        if probe >= n {
            break n;
        }
        if pred(row(probe)) {
            last = probe;
            step <<= 1;
        } else {
            break probe;
        }
    };
    binary_partition(comps, w, last + 1, hi, pred)
}

impl TypeColumn {
    /// Assemble a heap column from already-sorted parts — the mutation
    /// path's sorted-run merge ([`crate::store::mutate`]) lands here.
    pub(in crate::store) fn from_parts(
        width: usize,
        comps: Vec<u32>,
        offsets: Vec<u32>,
        texts: String,
    ) -> TypeColumn {
        debug_assert_eq!(
            offsets.len(),
            comps.len().checked_div(width).unwrap_or(0) + 1
        );
        TypeColumn {
            width,
            backing: Backing::Heap {
                comps,
                texts,
                offsets,
            },
        }
    }

    /// Wrap a validated, parsed segment. A v1 segment on a little-endian
    /// platform serving a 4-byte-aligned mapping borrows the payload in
    /// place (zero copy); a v2 segment on a mapping keeps its decoded
    /// arrays but serves texts zero-copy; anything else — heap-read
    /// segments, exotic alignment, big-endian — lands fully on the
    /// heap, which still skips the B+tree walk and per-key Dewey decode
    /// of a full rebuild.
    fn from_segment(seg: SegmentData, parsed: colseg::ParsedSegment) -> TypeColumn {
        match parsed {
            colseg::ParsedSegment::V1(layout) => {
                let width = layout.width;
                let aligned = (seg.as_ptr() as usize + layout.comps.start).is_multiple_of(4);
                if cfg!(target_endian = "little") && seg.is_mapped() && aligned {
                    return TypeColumn {
                        width,
                        backing: Backing::Mapped { seg, layout },
                    };
                }
                let le_words = |range: Range<usize>| {
                    seg[range]
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                        .collect::<Vec<u32>>()
                };
                let comps = le_words(layout.comps.clone());
                let offsets = le_words(layout.offsets.clone());
                // UTF-8 was validated by `colseg::parse`.
                let texts = std::str::from_utf8(&seg[layout.texts.clone()])
                    .expect("validated arena")
                    .to_string();
                TypeColumn {
                    width,
                    backing: Backing::Heap {
                        comps,
                        texts,
                        offsets,
                    },
                }
            }
            colseg::ParsedSegment::V2(dec) => {
                let width = dec.width;
                if seg.is_mapped() {
                    return TypeColumn {
                        width,
                        backing: Backing::Compressed {
                            comps: dec.comps,
                            offsets: dec.offsets,
                            texts: dec.texts,
                            seg,
                        },
                    };
                }
                let texts = std::str::from_utf8(&seg[dec.texts.clone()])
                    .expect("validated arena")
                    .to_string();
                TypeColumn {
                    width,
                    backing: Backing::Heap {
                        comps: dec.comps,
                        texts,
                        offsets: dec.offsets,
                    },
                }
            }
        }
    }

    fn comps(&self) -> &[u32] {
        match &self.backing {
            Backing::Heap { comps, .. } => comps,
            Backing::Compressed { comps, .. } => comps,
            Backing::Mapped { seg, layout } => {
                let bytes = &seg[layout.comps.clone()];
                // SAFETY: constructed only on little-endian with the
                // payload 4-byte aligned (checked in `from_segment`);
                // the mapping is immutable and outlives `self`.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
            }
        }
    }

    fn offsets(&self) -> &[u32] {
        match &self.backing {
            Backing::Heap { offsets, .. } => offsets,
            Backing::Compressed { offsets, .. } => offsets,
            Backing::Mapped { seg, layout } => {
                let bytes = &seg[layout.offsets.clone()];
                // SAFETY: as in `comps` — alignment holds because the
                // comps section is a multiple of 4 bytes long.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
            }
        }
    }

    fn texts(&self) -> &str {
        match &self.backing {
            Backing::Heap { texts, .. } => texts,
            Backing::Mapped { seg, layout } => {
                // SAFETY: `colseg::parse` validated the arena (and every
                // offset boundary) as UTF-8 before this column existed.
                unsafe { std::str::from_utf8_unchecked(&seg[layout.texts.clone()]) }
            }
            Backing::Compressed { seg, texts, .. } => {
                // SAFETY: as in `Mapped` — the v2 parse validated the
                // arena and every offset boundary as UTF-8.
                unsafe { std::str::from_utf8_unchecked(&seg[texts.clone()]) }
            }
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.offsets().len() - 1
    }

    /// True when the type has no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dewey length (in components) shared by every row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// True when the column is served out of a read-only memory map of
    /// the persisted segment rather than rebuilt from the B+tree: a v1
    /// segment borrowed in place, or a v2 segment whose text arena the
    /// mapping still serves zero-copy.
    pub fn is_mapped(&self) -> bool {
        matches!(
            self.backing,
            Backing::Mapped { .. } | Backing::Compressed { .. }
        )
    }

    /// Components of instance `i`.
    pub fn components(&self, i: usize) -> &[u32] {
        &self.comps()[i * self.width..(i + 1) * self.width]
    }

    /// Direct text of instance `i`, borrowed from the arena.
    pub fn text(&self, i: usize) -> &str {
        let offsets = self.offsets();
        &self.texts()[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Dewey number of instance `i` (materialized from the row).
    pub fn dewey(&self, i: usize) -> Dewey {
        Dewey::from_slice(self.components(i))
    }

    /// Rows `range` materialized as owned `(Dewey, text)` pairs.
    fn rows(&self, range: Range<usize>) -> Vec<(Dewey, String)> {
        range
            .map(|i| (self.dewey(i), self.text(i).to_string()))
            .collect()
    }

    /// Row range of instances whose components start with `prefix` —
    /// the closest-join group of a parent whose join prefix this is.
    /// One binary search for the lower bound, one short gallop for the
    /// upper (groups are small, so galloping beats a second full binary
    /// search); no allocation.
    pub fn prefix_range(&self, prefix: &[u32]) -> Range<usize> {
        self.prefix_range_from(0, prefix)
    }

    /// [`TypeColumn::prefix_range`] restricted to rows at or after
    /// `from` — the monotone-cursor variant. A fresh probe (`from == 0`)
    /// binary-searches, since the group can be anywhere; a cursor or
    /// batch sweep (`from > 0`) gallops forward from `from`, whose cost
    /// is logarithmic in the distance actually advanced, so a full
    /// sweep over m parents is O(n + m) instead of O(m log n).
    fn prefix_range_from(&self, from: usize, prefix: &[u32]) -> Range<usize> {
        let p = prefix.len().min(self.width);
        let pre = &prefix[..p];
        let comps = self.comps();
        let w = self.width;
        let n = self.len();
        let below = |row: &[u32]| cmp_prefix(row, pre) == Cmp::Less;
        let lo = if from == 0 {
            binary_partition(comps, w, 0, n, below)
        } else {
            gallop_partition(comps, w, from, n, below)
        };
        let hi = gallop_partition(comps, w, lo, n, |row| cmp_prefix(row, pre) != Cmp::Greater);
        lo..hi
    }

    /// Row ranges matching each prefix of a **document-ordered** batch
    /// (prefixes non-decreasing, e.g. the join prefixes of a sorted
    /// parent column): one forward pass over the column, galloping each
    /// group's bounds from the end of the previous group instead of
    /// restarting at row 0, with runs of equal prefixes served from the
    /// last group — the [`ClosestCursor`] contract, vectorized. The
    /// result is elementwise equal to calling
    /// [`TypeColumn::prefix_range`] per prefix.
    pub fn prefix_ranges<'p>(
        &self,
        prefixes: impl IntoIterator<Item = &'p [u32]>,
    ) -> Vec<Range<usize>> {
        let comps = self.comps();
        let w = self.width;
        let n = self.len();
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut prev: Option<&[u32]> = None;
        let mut group = 0..0;
        for prefix in prefixes {
            let p = prefix.len().min(w);
            let pre = &prefix[..p];
            if prev == Some(pre) {
                out.push(group.clone());
                continue;
            }
            debug_assert!(
                prev.is_none_or(|q| q <= pre),
                "batch prefixes must be document-ordered"
            );
            let below = |row: &[u32]| cmp_prefix(row, pre) == Cmp::Less;
            let lo = gallop_partition(comps, w, pos, n, below);
            let hi = gallop_partition(comps, w, lo, n, |row| cmp_prefix(row, pre) != Cmp::Greater);
            pos = hi;
            group = lo..hi;
            prev = Some(pre);
            out.push(group.clone());
        }
        out
    }

    /// Heap bytes held by the column (zero for a v1 mapped column; the
    /// decoded component and offset arrays for a compressed one).
    pub fn heap_bytes(&self) -> usize {
        match &self.backing {
            Backing::Heap {
                comps,
                texts,
                offsets,
            } => comps.capacity() * 4 + texts.capacity() + offsets.capacity() * 4,
            Backing::Mapped { .. } => 0,
            Backing::Compressed { comps, offsets, .. } => {
                comps.capacity() * 4 + offsets.capacity() * 4
            }
        }
    }

    /// Bytes served from a memory-mapped segment (zero for a heap
    /// column). These live in the page cache, not the heap — for a v2
    /// segment this is the compressed length, i.e. the bytes a cold
    /// open actually reads.
    pub fn mapped_bytes(&self) -> usize {
        match &self.backing {
            Backing::Heap { .. } => 0,
            Backing::Mapped { seg, .. } | Backing::Compressed { seg, .. } => seg.len(),
        }
    }

    /// Serialize into column-segment bytes (the v2 compressed `colseg`
    /// on-disk format — the only format the write path emits).
    pub(in crate::store) fn encode_segment(&self, generation: u64) -> Vec<u8> {
        colseg::encode_v2(
            self.width,
            self.comps(),
            self.offsets(),
            self.texts(),
            generation,
        )
    }
}

impl std::fmt::Debug for TypeColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypeColumn")
            .field("width", &self.width)
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl PartialEq for TypeColumn {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality — backing (heap vs mapped) is irrelevant.
        self.width == other.width
            && self.comps() == other.comps()
            && self.offsets() == other.offsets()
            && self.texts() == other.texts()
    }
}

impl Eq for TypeColumn {}

/// A shredded XML document: storage tables plus the in-memory adorned
/// shape (which is tiny relative to the data, as the paper notes —
/// "prior to rendering, only the adorned shapes ... are needed").
pub struct ShreddedDoc {
    pub(in crate::store) store: Store,
    pub(in crate::store) typeseq: Tree,
    pub(in crate::store) meta: Tree,
    pub(in crate::store) shape: AdornedShape,
    /// Monotone per-store shred counter; persisted column segments
    /// carry the generation they were built from, so segments from an
    /// earlier shred self-invalidate. Mutations refine this with
    /// *per-type* generations (`tygens`): a mutated type's expected
    /// generation moves past `generation` while the other types keep
    /// validating against it, so one update never stales ~500 segments.
    generation: u64,
    /// Per-type generation overrides, persisted under `meta["tygen."]`
    /// keys. Absent type → the store-wide `generation` applies.
    pub(in crate::store) tygens: Mutex<HashMap<TypeId, u64>>,
    /// Next generation value a mutation hands out (always above both
    /// `generation` and every current tygen). Only mutation methods
    /// (`&mut self`) advance it.
    pub(in crate::store) next_gen: u64,
    /// Column-cache budget in bytes; `usize::MAX` means unbounded.
    /// Atomic (not a plain field) so the engine facade can retune the
    /// budget per query on a document shared across server sessions
    /// ([`ShreddedDoc::set_column_budget`]).
    column_budget: AtomicUsize,
    /// Cached per-type columns — the columnar read path. Reads share
    /// the lock; a miss takes the write lock only to publish the
    /// freshly loaded column.
    pub(in crate::store) columns: RwLock<HashMap<TypeId, Arc<TypeColumn>, FxBuild>>,
    /// Cached columns updated by sorted-run merge — counted when the
    /// deferred merge actually runs (on the first read after a burst of
    /// mutations), not per mutation.
    pub(in crate::store) merged_columns: AtomicU64,
    /// Mutation deltas awaiting their deferred merge, folded per type.
    /// [`ShreddedDoc::column`] settles the entry for a type before
    /// serving it; mutations are cheap because they only fold here.
    pub(in crate::store) pending_deltas: Mutex<HashMap<TypeId, super::mutate::TypeDelta>>,
    /// Columns invalidated outright (not cached at mutation time).
    pub(in crate::store) invalidated_columns: u64,
    /// Types whose cached column is newer than any persisted segment;
    /// [`ShreddedDoc::persist_dirty_columns`] re-persists them.
    pub(in crate::store) dirty: HashSet<TypeId>,
    /// Types whose generation was already bumped — and whose persisted
    /// segment already dropped — since the last column persist. A
    /// repeat mutation of such a type skips the meta write and segment
    /// delete: the on-store state it would produce already holds.
    /// [`ShreddedDoc::persist_dirty_columns`] clears this set when it
    /// writes fresh segments.
    pub(in crate::store) bumped_since_persist: HashSet<TypeId>,
    /// Document epoch: bumped once per applied mutation batch. A
    /// [`Snapshot`] pins one epoch; the published snapshot is reused
    /// while the epoch has not moved.
    pub(in crate::store) epoch: u64,
    /// Coordination state shared with every published snapshot (the
    /// writer gate, the per-type touch epochs, the live-snapshot
    /// registry the copy-on-write pin walks, and the column loader with
    /// its counters).
    pub(in crate::store) shared: Arc<DocShared>,
    /// The most recently published snapshot, kept so repeated
    /// [`ShreddedDoc::snapshot`] calls between mutations are one Arc
    /// clone, and so republication after a mutation can inherit the
    /// old snapshot's still-current lazily-resolved columns.
    published: Mutex<Option<Arc<Snapshot>>>,
}

impl std::fmt::Debug for ShreddedDoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShreddedDoc")
            .field("types", &self.shape.types().len())
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

/// Meta key of the base adorned shape: every type's row as a shred
/// wrote it ([`AdornedShape::to_bytes`]), the same rows the `shape.`
/// overrides hold.
const META_SHAPE_KEY: &[u8] = b"shape";
/// Meta key of the column generation counter (u64 LE).
const META_COLGEN_KEY: &[u8] = b"colgen";
/// Meta key prefix of per-type generation overrides: `"tygen."` +
/// big-endian type id → u64 LE. Cleared wholesale by a full re-shred.
const META_TYGEN_PREFIX: &[u8] = b"tygen.";
/// Meta key prefix of per-type shape override rows: `"shape."` +
/// big-endian type id → [`AdornedShape::type_row`]. A mutation writes
/// one for each type whose card or count it changed or that it
/// interned; open overlays them on the base shape in id order; a full
/// re-shred clears them wholesale, like the `tygen.` keys.
const META_SHAPE_ROW_PREFIX: &[u8] = b"shape.";

fn type_key(prefix: &[u8], t: TypeId) -> Vec<u8> {
    let mut k = Vec::with_capacity(prefix.len() + 4);
    k.extend_from_slice(prefix);
    k.extend_from_slice(&t.0.to_be_bytes());
    k
}

/// Meta key of type `t`'s generation override.
pub(in crate::store) fn tygen_key(t: TypeId) -> Vec<u8> {
    type_key(META_TYGEN_PREFIX, t)
}

/// Meta key of type `t`'s shape override row.
pub(in crate::store) fn shape_row_key(t: TypeId) -> Vec<u8> {
    type_key(META_SHAPE_ROW_PREFIX, t)
}

/// The `(type, value)` rows under a per-type meta prefix, in id order;
/// keys that do not end in a 4-byte id are skipped.
fn type_rows(meta: &Tree, prefix: &[u8]) -> MorphResult<Vec<(TypeId, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut iter = meta.scan_prefix(prefix);
    while let Some((k, v)) = iter.next_entry().in_op("scan tree \"meta\"")? {
        if let Ok(id) = <[u8; 4]>::try_from(&k[prefix.len()..]) {
            out.push((TypeId(u32::from_be_bytes(id)), v));
        }
    }
    Ok(out)
}

/// Scan the persisted per-type generations out of the meta tree.
fn load_tygens(meta: &Tree) -> MorphResult<HashMap<TypeId, u64>> {
    Ok(type_rows(meta, META_TYGEN_PREFIX)?
        .into_iter()
        .filter_map(|(t, v)| Some((t, u64::from_le_bytes(v.try_into().ok()?))))
        .collect())
}

/// The persisted adorned shape: the base blob's rows, then every
/// per-type override row, each applied by
/// [`AdornedShape::apply_type_row`]. A base blob of the earlier
/// full-path format is refused by name: such a store must be shredded
/// again.
fn load_shape(meta: &Tree) -> MorphResult<AdornedShape> {
    let bytes = meta
        .get(META_SHAPE_KEY)
        .in_op("read adorned shape")?
        .ok_or(MorphError::Internal("store holds no shredded document"))?;
    if bytes.get(..4).is_some_and(|tag| tag != SHAPE_BLOB_TAG) {
        return Err(MorphError::Internal(
            "adorned shape is in the old path format; re-shred the store",
        ));
    }
    let mut shape =
        AdornedShape::from_bytes(&bytes).ok_or(MorphError::Internal("corrupt adorned shape"))?;
    for (t, row) in type_rows(meta, META_SHAPE_ROW_PREFIX)? {
        shape
            .apply_type_row(t, &row)
            .ok_or(MorphError::Internal("corrupt adorned shape row"))?;
    }
    Ok(shape)
}

/// A `typeseq` key: the big-endian type id, so one type's entries are
/// contiguous, then the encoded Dewey, so they run in document order.
pub(in crate::store) fn typeseq_key(t: TypeId, dewey: &Dewey) -> Vec<u8> {
    let mut k = Vec::with_capacity(4 + dewey.len() * 4);
    typeseq_key_into(&mut k, t, &dewey.encode());
    k
}

/// [`typeseq_key`] of an already encoded Dewey, into `out` (cleared).
pub(in crate::store) fn typeseq_key_into(out: &mut Vec<u8>, t: TypeId, dewey: &[u8]) {
    out.clear();
    out.extend_from_slice(&t.0.to_be_bytes());
    out.extend_from_slice(dewey);
}

/// Do two columns share a row prefix of `level` components? Sorted-merge
/// over the flat component arrays — no key decoding, no allocation. The
/// trailing side gallops to the other side's prefix instead of stepping
/// row by row, so a skewed pair (one type far denser than the other)
/// costs the sparse side's length times a logarithmic skip, not a full
/// linear merge.
fn co_occur_columns(a: &TypeColumn, b: &TypeColumn, level: usize) -> bool {
    debug_assert!(level <= a.width() && level <= b.width());
    let (ac, bc) = (a.comps(), b.comps());
    let (aw, bw) = (a.width(), b.width());
    let (an, bn) = (a.len(), b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < an && j < bn {
        let x = &ac[i * aw..i * aw + level];
        let y = &bc[j * bw..j * bw + level];
        match cmp_prefix(x, y) {
            Cmp::Equal => return true,
            Cmp::Less => {
                i = gallop_partition(ac, aw, i + 1, an, |row| cmp_prefix(row, y) == Cmp::Less)
            }
            Cmp::Greater => {
                j = gallop_partition(bc, bw, j + 1, bn, |row| cmp_prefix(row, x) == Cmp::Less)
            }
        }
    }
    false
}

/// `typeDistance` (Def. 2) given a co-occurrence test: `None` when
/// either type has no instances, 0 for a type with itself, otherwise
/// the tree distance through the deepest Dewey level at which some
/// instance of `a` and some instance of `b` share a prefix. Levels are
/// tried from the deepest shared path prefix upward; an error from the
/// test ends the search with that error.
fn distance_by_levels<E>(
    shape: &AdornedShape,
    a: TypeId,
    b: TypeId,
    mut co_occur: impl FnMut(usize) -> Result<bool, E>,
) -> Result<Option<usize>, E> {
    if shape.instance_count(a) == 0 || shape.instance_count(b) == 0 {
        return Ok(None);
    }
    if a == b {
        return Ok(Some(0));
    }
    let types = shape.types();
    let (la, lb) = (types.dewey_len(a), types.dewey_len(b));
    let shared = types.lca(a, b).map_or(0, |l| types.dewey_len(l));
    for level in (1..=shared).rev() {
        if co_occur(level)? {
            return Ok(Some(la + lb - 2 * level));
        }
    }
    Ok(None)
}

/// State a [`ShreddedDoc`] shares with every [`Snapshot`] it has
/// published — the coordination points of the single-writer /
/// many-snapshot-readers protocol.
///
/// * `gate` — excludes snapshot *lazy column loads* from the span of a
///   mutation's tree writes: a load takes the read side, a mutation
///   holds the write side across its whole transaction. Without it a
///   snapshot faulting in a column mid-mutation could decode a torn
///   `typeseq` range.
/// * `touched` — the document epoch at which each type was last
///   mutated. Per-type *generations* are not a precise version signal
///   (repeat touches between persists skip the bump), so this map is
///   the staleness check snapshots and republication use.
/// * `live` — weak registry of outstanding snapshots; the writer
///   copy-on-writes the pre-mutation column into each live snapshot
///   that has not resolved the touched type yet ([`ShreddedDoc`]'s
///   `cow_pin`), which is what makes lazy snapshot loads sound.
/// * the column loader ([`DocShared::load_column`]) with the open-time
///   knobs it obeys and the counters it keeps, so a load counts the
///   same whichever handle faulted it in.
pub(in crate::store) struct DocShared {
    pub(in crate::store) gate: RwLock<()>,
    pub(in crate::store) touched: Mutex<HashMap<TypeId, u64>>,
    pub(in crate::store) live: Mutex<Vec<Weak<Snapshot>>>,
    /// Whether loads read persisted segments (see [`OpenOptions`]).
    use_persisted: bool,
    /// Persisted segments that failed validation and fell back to a
    /// rebuild, as `"segment: reason"` lines.
    fallbacks: Mutex<Vec<String>>,
    /// Full column decodes from `typeseq` (loads without a usable
    /// persisted segment) — the "re-decode" cost the per-type
    /// maintenance keeps low.
    pub(in crate::store) rebuilds: AtomicU64,
}

impl DocShared {
    fn new(use_persisted: bool) -> Arc<DocShared> {
        Arc::new(DocShared {
            gate: RwLock::new(()),
            touched: Mutex::new(HashMap::new()),
            live: Mutex::new(Vec::new()),
            use_persisted,
            fallbacks: Mutex::new(Vec::new()),
            rebuilds: AtomicU64::new(0),
        })
    }

    /// Load one type's column — the one loader behind both
    /// [`ShreddedDoc::column`] and [`Snapshot::column`]. Prefers a
    /// persisted column segment carrying `generation` (memory-mapped
    /// when the store and platform allow) and falls back to decoding
    /// the `typeseq` range when the segment is missing, stale, or
    /// corrupt, recording why. A read error in that decode is recorded
    /// too, and returned: callers must not cache, merge into, or
    /// persist a column that failed to load.
    fn load_column(
        &self,
        store: &Store,
        typeseq: &Tree,
        width: usize,
        generation: u64,
        t: TypeId,
    ) -> StoreResult<TypeColumn> {
        if self.use_persisted {
            let name = colseg::segment_name(t);
            let reason = match store.get_segment(&name, true) {
                Ok(Some(seg)) => match colseg::parse(&seg, width, generation) {
                    Ok(parsed) => return Ok(TypeColumn::from_segment(seg, parsed)),
                    Err(reason) => Some(reason.to_string()),
                },
                Ok(None) => None,
                Err(e) => Some(e.to_string()),
            };
            if let Some(reason) = reason {
                self.fallbacks
                    .lock()
                    .unwrap()
                    .push(format!("{name}: {reason}"));
            }
        }
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        decode_typeseq_column(typeseq, width, t).inspect_err(|e| {
            self.fallbacks
                .lock()
                .unwrap()
                .push(format!("typeseq decode of type {}: {e}", t.0));
        })
    }
}

/// One type's column under construction: the per-entry decode behind
/// both the merge-time [`ColumnTee`] and [`decode_typeseq_column`], so
/// a streamed column and a post-shred decode agree byte for byte.
struct ColumnBuilder {
    width: usize,
    comps: Vec<u32>,
    offsets: Vec<u32>,
    texts: String,
}

impl ColumnBuilder {
    fn new(width: usize) -> ColumnBuilder {
        ColumnBuilder {
            width,
            comps: Vec::new(),
            offsets: vec![0],
            texts: String::new(),
        }
    }

    /// Append one `typeseq` entry, given its key past the 4-byte type
    /// prefix. Malformed entries (a Dewey of the wrong width, non-UTF-8
    /// text) are skipped, matching the lenient decoding of the scans
    /// this replaces.
    fn push(&mut self, dewey: &[u8], text: &[u8]) {
        let mark = self.comps.len();
        let Ok(text) = std::str::from_utf8(text) else {
            return;
        };
        if !decode_components_into(dewey, &mut self.comps) || self.comps.len() - mark != self.width
        {
            self.comps.truncate(mark);
            return;
        }
        self.texts.push_str(text);
        self.offsets.push(self.texts.len() as u32);
    }

    fn heap_bytes(&self) -> usize {
        self.comps.len() * 4 + self.offsets.len() * 4 + self.texts.len()
    }

    fn finish(self) -> TypeColumn {
        TypeColumn::from_parts(self.width, self.comps, self.offsets, self.texts)
    }
}

/// Decode one type's column straight from the `typeseq` tree — the
/// fallback build [`DocShared::load_column`] uses when no valid
/// persisted segment exists, and the shred's build of columns too large
/// to stream. A read error is an error, never a short column.
fn decode_typeseq_column(typeseq: &Tree, width: usize, t: TypeId) -> StoreResult<TypeColumn> {
    let prefix = t.0.to_be_bytes();
    let mut col = ColumnBuilder::new(width);
    let mut scan = typeseq.scan_prefix(&prefix);
    while let Some((k, v)) = scan.next_entry()? {
        // A torn tree can surface keys that violate the scan bounds,
        // including ones shorter than the type prefix — skip them like
        // any other malformed entry.
        if let Some(dewey) = k.strip_prefix(&prefix) {
            col.push(dewey, &v);
        }
    }
    Ok(col.finish())
}

/// The `(Dewey, text)` rows of `typeseq` under a key prefix, straight
/// from the tree — the B+tree reference reads. Malformed entries are
/// skipped, like [`ColumnBuilder::push`] skips them; a read error is an
/// error, never a short list.
fn typeseq_rows(typeseq: &Tree, prefix: &[u8]) -> StoreResult<Vec<(Dewey, String)>> {
    let entries = typeseq.scan_prefix(prefix).entries()?;
    let row = |(k, v): (Vec<u8>, Vec<u8>)| {
        Some((Dewey::decode(k.get(4..)?)?, String::from_utf8(v).ok()?))
    };
    Ok(entries.into_iter().filter_map(row).collect())
}

// ---- streaming shred machinery (external sort over store segments) ----

/// Name prefix of the temporary segments the external sort spills
/// sorted runs into. They exist only for the duration of one bulk
/// shred; [`RunGuard`] deletes them on both the success and the abort
/// path, and every shred first clears any a crash left behind.
const RUN_SEG_PREFIX: &str = "__shredrun.";

/// Header of one run record, `[klen: u32][vlen: u32]` little-endian,
/// followed by the key and the value. A run arena and a spilled run
/// segment hold the same records back to back.
const RECORD_HEADER: usize = 8;

/// The key and value ranges of the record starting at `pos` of `buf`,
/// or `None` when the bytes there are not one whole record.
#[inline]
fn record_at(buf: &[u8], pos: usize) -> Option<(Range<usize>, Range<usize>)> {
    let head = buf.get(pos..pos.checked_add(RECORD_HEADER)?)?;
    let klen = u32::from_le_bytes(head[0..4].try_into().unwrap()) as usize;
    let vlen = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
    let k0 = pos + RECORD_HEADER;
    let v0 = k0.checked_add(klen)?;
    let end = v0.checked_add(vlen)?;
    (end <= buf.len()).then_some((k0..v0, v0..end))
}

/// The key of the arena record at `pos` (the arena is written only by
/// [`RunSpiller::push`], so its records are whole).
#[inline]
fn arena_key(arena: &[u8], pos: u32) -> &[u8] {
    let pos = pos as usize;
    let klen = u32::from_le_bytes(arena[pos..pos + 4].try_into().unwrap()) as usize;
    &arena[pos + RECORD_HEADER..pos + RECORD_HEADER + klen]
}

/// Deletes every registered spill segment when dropped — on any abort
/// path, so a failed bulk shred never leaks `__shredrun.*` segments.
/// A successful shred deletes them through [`RunGuard::release`], which
/// reports a failed delete.
struct RunGuard<'a> {
    store: &'a Store,
    names: RefCell<Vec<String>>,
}

impl RunGuard<'_> {
    fn release(self) -> MorphResult<()> {
        loop {
            let Some(name) = self.names.borrow().last().cloned() else {
                return Ok(());
            };
            // A failed delete keeps the name, so the drop retries it.
            self.store.delete_segment(&name).in_op("drop shred run")?;
            self.names.borrow_mut().pop();
        }
    }
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        for name in self.names.borrow().iter() {
            let _ = self.store.delete_segment(name);
        }
    }
}

/// One sorted stream of the external sort. Entries append as records
/// to one flat arena, with an offset index beside it; the arena and the
/// index are charged by their real bytes, and when the next record
/// would take them past `budget` the index is sorted by key and the
/// arena spills to a store segment as one run, serialized through a
/// reused image buffer. A record larger than the budget on its own
/// becomes a run of its own. The arena left at end of input is the
/// final run and is never serialized. Nothing here allocates per entry:
/// the arena, the index and the image grow to their high-water mark
/// and are reused run after run.
struct RunSpiller<'a> {
    store: &'a Store,
    guard: &'a RunGuard<'a>,
    tag: &'static str,
    /// Bytes the arena and the index may hold; at most `u32::MAX`, so
    /// an index offset always fits.
    budget: usize,
    arena: Vec<u8>,
    /// Start offset of each record in `arena`, in arrival order until
    /// a spill sorts it.
    index: Vec<u32>,
    /// The sorted image of the last spilled run.
    image: Vec<u8>,
    runs: Vec<String>,
    count: u64,
}

impl<'a> RunSpiller<'a> {
    fn new(store: &'a Store, guard: &'a RunGuard<'a>, tag: &'static str, budget: usize) -> Self {
        RunSpiller {
            store,
            guard,
            tag,
            budget: budget.min(u32::MAX as usize),
            arena: Vec::new(),
            index: Vec::new(),
            image: Vec::new(),
            runs: Vec::new(),
            count: 0,
        }
    }

    #[inline]
    fn push(&mut self, key: &[u8], value: &[u8]) -> MorphResult<()> {
        let (Ok(klen), Ok(vlen)) = (u32::try_from(key.len()), u32::try_from(value.len())) else {
            return Err(MorphError::Internal("shred entry of 4 GiB or more"));
        };
        let rec = RECORD_HEADER + key.len() + value.len();
        if !self.index.is_empty() && self.arena.len() + 4 * self.index.len() + rec + 4 > self.budget
        {
            self.spill()?;
        }
        if self.arena.len() + rec > self.arena.capacity() {
            self.grow(rec);
        }
        // The spill above keeps every record but a lone oversized one
        // inside the budget, so its start offset fits in a `u32`.
        self.index.push(self.arena.len() as u32);
        self.arena.extend_from_slice(&klen.to_le_bytes());
        self.arena.extend_from_slice(&vlen.to_le_bytes());
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.count += 1;
        Ok(())
    }

    /// Grow the arena for one more record: doubling, as a `Vec` would,
    /// but never past the budget, so a bounded stream's arena ends at
    /// its budget rather than at the next power of two above it.
    #[cold]
    fn grow(&mut self, rec: usize) {
        let need = self.arena.len() + rec;
        let want = (self.arena.capacity() * 2)
            .max(need)
            .min(self.budget.max(need));
        self.arena.reserve_exact(want - self.arena.len());
    }

    // Kept out of `push`'s inlined per-entry path: the default,
    // unbounded budget spills only past 4 GiB.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) -> MorphResult<()> {
        let arena = &self.arena;
        self.index
            .sort_unstable_by(|&a, &b| arena_key(arena, a).cmp(arena_key(arena, b)));
        self.image.clear();
        self.image.reserve_exact(arena.len());
        for &pos in &self.index {
            let (_, value) = record_at(arena, pos as usize).expect("arena records are whole");
            self.image
                .extend_from_slice(&arena[pos as usize..value.end]);
        }
        let name = format!("{RUN_SEG_PREFIX}{}.{}", self.tag, self.runs.len());
        self.store
            .put_segment(&name, &self.image)
            .in_op("spill shred run")?;
        self.guard.names.borrow_mut().push(name.clone());
        self.runs.push(name);
        self.arena.clear();
        self.index.clear();
        Ok(())
    }

    /// Finish the stream: sort the arena's index, map every spilled run
    /// back in (read-only, page-aligned — not heap on a file-backed
    /// store), and return the k-way merge over them and the arena.
    fn into_merge(mut self) -> MorphResult<MergeStream> {
        let arena = &self.arena;
        self.index
            .sort_unstable_by(|&a, &b| arena_key(arena, a).cmp(arena_key(arena, b)));
        let mut runs = Vec::with_capacity(self.runs.len() + 1);
        for name in &self.runs {
            let data = self
                .store
                .get_segment(name, true)
                .in_op("map shred run")?
                .ok_or(MorphError::Internal("shred run segment vanished"))?;
            runs.push(RunCursor::new(RunData::Seg(data)));
        }
        runs.push(RunCursor::new(RunData::Tail {
            arena: std::mem::take(&mut self.arena),
            index: std::mem::take(&mut self.index),
        }));
        MergeStream::new(runs).in_op("read shred run")
    }
}

/// The records of one merge input.
enum RunData {
    /// A spilled, sorted run mapped back from a store segment.
    Seg(SegmentData),
    /// The arena buffered when input ended, read in sorted index order.
    Tail { arena: Vec<u8>, index: Vec<u32> },
}

/// One input of the k-way merge, positioned on its head record. The
/// head is read in place: its key and value are ranges of the run's
/// bytes, not copies.
struct RunCursor {
    data: RunData,
    /// The next record: a byte offset into a segment, or a slot of the
    /// tail's index.
    next: usize,
    key: Range<usize>,
    value: Range<usize>,
}

impl RunCursor {
    fn new(data: RunData) -> RunCursor {
        RunCursor {
            data,
            next: 0,
            key: 0..0,
            value: 0..0,
        }
    }

    fn bytes(&self) -> &[u8] {
        match &self.data {
            RunData::Seg(data) => data,
            RunData::Tail { arena, .. } => arena,
        }
    }

    /// Move to the next record; `false` when the run is exhausted. A
    /// record cut short — a torn run segment — is an error here, at the
    /// record, not a run that ends early.
    fn advance(&mut self) -> StoreResult<bool> {
        let pos = match &self.data {
            RunData::Seg(data) if self.next == data.len() => return Ok(false),
            RunData::Seg(_) => self.next,
            RunData::Tail { index, .. } => match index.get(self.next) {
                Some(&pos) => pos as usize,
                None => return Ok(false),
            },
        };
        let (key, value) = record_at(self.bytes(), pos)
            .ok_or(StoreError::Corrupt("shred run record cut short"))?;
        self.next = match self.data {
            RunData::Seg(_) => value.end,
            RunData::Tail { .. } => self.next + 1,
        };
        self.key = key;
        self.value = value;
        Ok(true)
    }

    #[inline]
    fn key(&self) -> &[u8] {
        &self.bytes()[self.key.clone()]
    }
}

/// The sorted stream one [`RunSpiller`] hands the bulk loader: a k-way
/// merge over its spilled runs and its tail. The heap holds run indexes
/// ordered by their head keys (unique across runs), so each step costs
/// O(log k) key comparisons and no copy: the pair handed out is
/// borrowed from its run until the next step advances that run.
struct MergeStream {
    runs: Vec<RunCursor>,
    heap: Vec<usize>,
    /// The top run's head was handed out and must advance first.
    handed: bool,
    /// Pairs handed out, checked against the count the spiller took in.
    produced: u64,
}

impl MergeStream {
    fn new(mut runs: Vec<RunCursor>) -> StoreResult<MergeStream> {
        let mut heap = Vec::with_capacity(runs.len());
        for (i, run) in runs.iter_mut().enumerate() {
            if run.advance()? {
                heap.push(i);
            }
        }
        let mut merge = MergeStream {
            runs,
            heap,
            handed: false,
            produced: 0,
        };
        for i in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(i);
        }
        Ok(merge)
    }

    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        self.runs[self.heap[a]].key() < self.runs[self.heap[b]].key()
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut least = i;
            if l < n && self.less(l, least) {
                least = l;
            }
            if r < n && self.less(r, least) {
                least = r;
            }
            if least == i {
                return;
            }
            self.heap.swap(i, least);
            i = least;
        }
    }
}

impl BulkSource for MergeStream {
    fn next(&mut self) -> StoreResult<Option<(&[u8], &[u8])>> {
        if self.handed {
            self.handed = false;
            if !self.runs[self.heap[0]].advance()? {
                self.heap.swap_remove(0);
            }
            self.sift_down(0);
        }
        let Some(&top) = self.heap.first() else {
            return Ok(None);
        };
        self.handed = true;
        self.produced += 1;
        let run = &self.runs[top];
        let bytes = run.bytes();
        Ok(Some((&bytes[run.key.clone()], &bytes[run.value.clone()])))
    }
}

/// The column side of [`ColumnTee`]: builds each type's column as its
/// key range streams past and persists the segment the moment the range
/// ends. A column that outgrows `cap` is abandoned mid-build and
/// recorded in `overflowed` for a bounded per-type decode after the
/// merge.
struct ColumnSink<'a> {
    /// The type whose range is streaming, and its column; `None` once
    /// the column outgrew `cap`.
    cur: Option<(TypeId, Option<ColumnBuilder>)>,
    store: &'a Store,
    types: &'a TypeTable,
    generation: u64,
    cap: usize,
    overflowed: Vec<TypeId>,
}

impl ColumnSink<'_> {
    fn finish_type(&mut self) -> StoreResult<()> {
        match self.cur.take() {
            Some((t, Some(col))) => self.store.put_segment(
                &colseg::segment_name(t),
                &col.finish().encode_segment(self.generation),
            ),
            Some((t, None)) => {
                self.overflowed.push(t);
                Ok(())
            }
            None => Ok(()),
        }
    }

    #[inline]
    fn absorb(&mut self, k: &[u8], v: &[u8]) -> StoreResult<()> {
        let Some(tb) = k.get(0..4) else {
            return Ok(());
        };
        let t = TypeId(u32::from_be_bytes(tb.try_into().unwrap()));
        if !matches!(self.cur, Some((c, _)) if c == t) {
            self.finish_type()?;
            self.cur = Some((t, Some(ColumnBuilder::new(self.types.dewey_len(t)))));
        }
        let Some((_, slot)) = &mut self.cur else {
            unreachable!("column build installed above")
        };
        if let Some(col) = slot {
            col.push(&k[4..], v);
            if col.heap_bytes() > self.cap {
                *slot = None;
            }
        }
        Ok(())
    }
}

/// The sorted `typeseq` stream on its way to the bulk loader, teed
/// through a [`ColumnSink`] when the shred persists columns, so their
/// segments come out of the same pass — the streaming analogue of
/// `persist_all_columns`. An error writing a segment ends the load.
struct ColumnTee<'a> {
    merge: MergeStream,
    cols: Option<ColumnSink<'a>>,
}

impl BulkSource for ColumnTee<'_> {
    fn next(&mut self) -> StoreResult<Option<(&[u8], &[u8])>> {
        let pair = self.merge.next()?;
        if let Some(cols) = &mut self.cols {
            match pair {
                Some((k, v)) => cols.absorb(k, v)?,
                None => cols.finish_type()?,
            }
        }
        Ok(pair)
    }
}

/// One pass over a SAX-style event stream: assign Dewey numbers, grow
/// the adorned shape, and emit each vertex's `typeseq` entry through
/// the sink. O(depth) state of its own, and no allocation per entry:
/// the open elements share one encoded Dewey and one text buffer, and
/// every key is encoded into a reused buffer the sink borrows. The sink
/// decides whether entries accumulate, spill, or insert directly.
fn drive_parse<E: EventSource>(
    reader: &mut E,
    builder: &mut ShapeBuilder,
    mut sink: impl FnMut(&[u8], &[u8]) -> MorphResult<()>,
) -> MorphResult<()> {
    struct Frame {
        type_id: TypeId,
        next_ordinal: u32,
        /// Where this element's direct text starts in `texts`.
        text_start: usize,
    }
    let mut stack: Vec<Frame> = Vec::new();
    // The encoded Dewey of the innermost open element: four big-endian
    // bytes per component.
    let mut dewey: Vec<u8> = Vec::new();
    // The direct text of every open element, innermost last: a child's
    // text is cut off when it closes, so its parent's resumes.
    let mut texts = String::new();
    let mut key = Vec::new();
    let mut emit = |t: TypeId, dewey: &[u8], text: &str| -> MorphResult<()> {
        typeseq_key_into(&mut key, t, dewey);
        sink(&key, text.as_bytes())
    };
    loop {
        match reader.next_event()? {
            XmlEvent::StartElement { name, attrs } => {
                let type_id = builder.open(&name);
                let ordinal = match stack.last_mut() {
                    Some(parent) => {
                        parent.next_ordinal += 1;
                        parent.next_ordinal
                    }
                    None => 1,
                };
                dewey.extend_from_slice(&ordinal.to_be_bytes());
                let mut frame = Frame {
                    type_id,
                    next_ordinal: 0,
                    text_start: texts.len(),
                };
                // Attributes become child vertices, numbered first.
                for (aname, avalue) in &attrs {
                    let at = builder.attribute(aname);
                    frame.next_ordinal += 1;
                    dewey.extend_from_slice(&frame.next_ordinal.to_be_bytes());
                    emit(at, &dewey, avalue)?;
                    dewey.truncate(dewey.len() - 4);
                }
                stack.push(frame);
            }
            XmlEvent::Text(t) => {
                if !stack.is_empty() {
                    texts.push_str(&t);
                }
            }
            XmlEvent::EndElement { .. } => {
                let frame = stack.pop().expect("balanced events");
                builder.close();
                emit(frame.type_id, &dewey, texts[frame.text_start..].trim())?;
                texts.truncate(frame.text_start);
                dewey.truncate(dewey.len() - 4);
            }
            XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction { .. } => {}
            XmlEvent::Eof => return Ok(()),
        }
    }
}

/// Compute the column generation a (re-)shred publishes, plus the
/// meta keys of the stale per-type overrides it must drop. Reads only
/// — callers decide when the writes land relative to the data load
/// (`commit_meta`).
fn plan_generation(meta: &Tree) -> MorphResult<(u64, Vec<Vec<u8>>)> {
    let stale_tygens = load_tygens(meta)?;
    // Bump the column generation unconditionally: even when this
    // shred doesn't persist columns, segments left by an earlier
    // shred of the same store must go stale. A re-shred supersedes
    // every per-type override too: take the new store-wide
    // generation past them all, then drop them. Its fresh base shape
    // likewise supersedes every shape override row.
    let generation = meta
        .get(META_COLGEN_KEY)
        .in_op("read column generation")?
        .and_then(|v| Some(u64::from_le_bytes(v.try_into().ok()?)))
        .unwrap_or(0)
        .max(stale_tygens.values().copied().max().unwrap_or(0))
        + 1;
    let mut stale: Vec<Vec<u8>> = stale_tygens.keys().map(|&t| tygen_key(t)).collect();
    stale.extend(
        type_rows(meta, META_SHAPE_ROW_PREFIX)?
            .into_iter()
            .map(|(t, _)| shape_row_key(t)),
    );
    Ok((generation, stale))
}

/// Publish shred metadata: the base adorned shape, the new store-wide
/// column generation, and the removal of every superseded per-type
/// override and shape row (see [`plan_generation`]).
fn commit_meta(
    meta: &Tree,
    shape: &AdornedShape,
    generation: u64,
    stale: &[Vec<u8>],
) -> MorphResult<()> {
    meta.insert(META_SHAPE_KEY, &shape.to_bytes())
        .in_op("insert adorned shape")?;
    meta.insert(META_COLGEN_KEY, &generation.to_le_bytes())
        .in_op("write column generation")?;
    for key in stale {
        meta.delete(key).in_op("clear per-type override")?;
    }
    Ok(())
}

impl ShreddedDoc {
    /// Shred an XML document (as text) into the store with the default
    /// [`ShredOptions`].
    pub fn shred_str(store: &Store, xml: &str) -> MorphResult<ShreddedDoc> {
        Self::shred_str_with(store, xml, &ShredOptions::default())
    }

    /// Shred an XML document with explicit [`ShredOptions`].
    pub fn shred_str_with(
        store: &Store,
        xml: &str,
        opts: &ShredOptions,
    ) -> MorphResult<ShreddedDoc> {
        Self::shred_events_with(store, &mut XmlReader::new(xml), opts)
    }

    /// Shred a document pulled incrementally from any [`std::io::Read`]
    /// with the default [`ShredOptions`]. The parser keeps only a
    /// bounded window of raw bytes; add a
    /// [`ShredOptions::memory_budget`] and the whole pipeline runs in
    /// memory independent of document size.
    pub fn shred_reader<R: std::io::Read>(store: &Store, reader: R) -> MorphResult<ShreddedDoc> {
        Self::shred_reader_with(store, reader, &ShredOptions::default())
    }

    /// Shred from any [`std::io::Read`] with explicit [`ShredOptions`].
    pub fn shred_reader_with<R: std::io::Read>(
        store: &Store,
        reader: R,
        opts: &ShredOptions,
    ) -> MorphResult<ShreddedDoc> {
        Self::shred_events_with(store, &mut XmlStreamReader::new(reader), opts)
    }

    /// Shred a document straight from a file, without reading it into
    /// memory first, with the default [`ShredOptions`].
    pub fn shred_file(store: &Store, path: &std::path::Path) -> MorphResult<ShreddedDoc> {
        Self::shred_file_with(store, path, &ShredOptions::default())
    }

    /// Shred a file with explicit [`ShredOptions`].
    pub fn shred_file_with(
        store: &Store,
        path: &std::path::Path,
        opts: &ShredOptions,
    ) -> MorphResult<ShreddedDoc> {
        let file = std::fs::File::open(path).map_err(|e| MorphError::Store {
            op: format!("open document {}", path.display()),
            source: StoreError::Io(Arc::new(e)),
        })?;
        Self::shred_reader_with(store, file, opts)
    }

    /// The single entry point the string/reader/file fronts funnel
    /// into: pick the load pipeline from the options.
    fn shred_events_with<E: EventSource>(
        store: &Store,
        reader: &mut E,
        opts: &ShredOptions,
    ) -> MorphResult<ShreddedDoc> {
        // A crashed earlier shred may have left spill runs behind; clear
        // them so their names are free and their pages reclaimed.
        for (name, _) in store.segment_entries().in_op("list segments")? {
            if name.starts_with(RUN_SEG_PREFIX) {
                store.delete_segment(&name).in_op("drop stale shred run")?;
            }
        }
        if opts.bulk_load {
            let budget = opts.memory_budget.unwrap_or(usize::MAX);
            Self::shred_bulk(store, reader, opts.persist_columns, budget)
        } else {
            Self::shred_incremental(store, reader, opts.persist_columns)
        }
    }

    /// The insert-at-a-time path (`bulk_load(false)`), wrapped in a
    /// single store transaction: a parse or insert error rolls the
    /// whole shred back, leaving the store byte-identical to its
    /// pre-shred image instead of half-populated trees.
    fn shred_incremental<E: EventSource>(
        store: &Store,
        reader: &mut E,
        persist_columns: bool,
    ) -> MorphResult<ShreddedDoc> {
        // Trees are opened inside the transaction so a rollback
        // removes their catalog entries along with their pages.
        let txn = store.begin().in_op("begin shred transaction")?;
        let typeseq = store.open_tree("typeseq").in_op("open tree \"typeseq\"")?;
        let meta = store.open_tree("meta").in_op("open tree \"meta\"")?;
        let mut builder = ShapeBuilder::default();
        drive_parse(reader, &mut builder, |k, v| {
            typeseq.insert(k, v).in_op("insert into tree \"typeseq\"")?;
            Ok(())
        })?;
        let shape = builder.finish();
        let (generation, stale) = plan_generation(&meta)?;
        commit_meta(&meta, &shape, generation, &stale)?;
        txn.commit().in_op("commit shred transaction")?;
        let doc = Self::fresh_doc(store, typeseq, meta, shape, generation);
        // Column persistence flushes, which must wait for the commit.
        if persist_columns && store.is_persistent() {
            doc.persist_all_columns()?;
        }
        Ok(doc)
    }

    /// The bulk path, an external sort: entries accumulate in a run
    /// arena, full runs are sorted and spilled to temporary store
    /// segments, and a k-way merge lends the sorted stream straight
    /// to the bottom-up tree packer — teed through the column builder
    /// when columns persist, so their segments come out of the same
    /// scan. Peak tracked memory is proportional to the budget, not the
    /// document; an unbounded budget spills only past 4 GiB, so the
    /// merge is the in-memory sort. Trees are opened only after the
    /// parse succeeds, so a malformed document leaves them untouched.
    fn shred_bulk<E: EventSource>(
        store: &Store,
        reader: &mut E,
        persist_columns: bool,
        budget: usize,
    ) -> MorphResult<ShreddedDoc> {
        let guard = RunGuard {
            store,
            names: RefCell::new(Vec::new()),
        };
        // Halve the budget so a full run arena plus its spill image (or,
        // later, the merge tail plus one column under construction)
        // stay inside it. The floor keeps a degenerate budget from
        // spilling per-entry runs.
        let per = (budget / 2).max(4 * 1024);
        let mut runs = RunSpiller::new(store, &guard, "t", per);
        let mut builder = ShapeBuilder::default();
        drive_parse(reader, &mut builder, |k, v| runs.push(k, v))?;
        let shape = builder.finish();

        let typeseq = store.open_tree("typeseq").in_op("open tree \"typeseq\"")?;
        let meta = store.open_tree("meta").in_op("open tree \"meta\"")?;
        // The tee stamps segments with the new generation, so plan it
        // before the merge; the meta writes land after.
        let (generation, stale) = plan_generation(&meta)?;

        let persist = persist_columns && store.is_persistent();
        let expect = runs.count;
        let mut tee = ColumnTee {
            merge: runs.into_merge()?,
            cols: persist.then(|| ColumnSink {
                cur: None,
                store,
                types: shape.types(),
                generation,
                cap: per,
                overflowed: Vec::new(),
            }),
        };
        typeseq
            .bulk_load(&mut tee, DEFAULT_FILL)
            .in_op("bulk-load tree \"typeseq\"")?;
        if tee.merge.produced != expect {
            return Err(MorphError::Internal("shred run lost entries in merge"));
        }
        let overflowed = tee.cols.map(|c| c.overflowed).unwrap_or_default();
        drop(tee.merge);
        // The runs go before the meta lands, so a failed delete fails a
        // shred that has not published its document yet.
        guard.release()?;

        commit_meta(&meta, &shape, generation, &stale)?;
        let doc = Self::fresh_doc(store, typeseq, meta, shape, generation);
        if persist {
            // Columns too large for the tee's slice of the budget fall
            // back to a per-type decode — bounded by the largest
            // single column, not the document — and are not cached.
            for t in overflowed {
                let width = doc.shape.types().dewey_len(t);
                let col = decode_typeseq_column(&doc.typeseq, width, t)
                    .in_op("decode overflowed column")?;
                store
                    .put_segment(&colseg::segment_name(t), &col.encode_segment(generation))
                    .in_op("persist column segment")?;
            }
            store.flush().in_op("flush column segments")?;
        }
        Ok(doc)
    }

    /// A freshly shredded handle over the given trees: empty caches,
    /// write-capable, epoch zero.
    fn fresh_doc(
        store: &Store,
        typeseq: Tree,
        meta: Tree,
        shape: AdornedShape,
        generation: u64,
    ) -> ShreddedDoc {
        ShreddedDoc {
            store: store.clone(),
            typeseq,
            meta,
            shape,
            generation,
            tygens: Mutex::new(HashMap::new()),
            next_gen: generation + 1,
            column_budget: AtomicUsize::new(usize::MAX),
            columns: RwLock::new(HashMap::default()),
            merged_columns: AtomicU64::new(0),
            pending_deltas: Mutex::new(HashMap::new()),
            invalidated_columns: 0,
            dirty: HashSet::new(),
            bumped_since_persist: HashSet::new(),
            epoch: 0,
            shared: DocShared::new(true),
            published: Mutex::new(None),
        }
    }

    /// Open an already-shredded document with the default
    /// [`OpenOptions`].
    pub fn open(store: &Store) -> MorphResult<ShreddedDoc> {
        Self::open_with(store, &OpenOptions::default())
    }

    /// Open an already-shredded document with explicit [`OpenOptions`].
    pub fn open_with(store: &Store, opts: &OpenOptions) -> MorphResult<ShreddedDoc> {
        let typeseq = store.open_tree("typeseq").in_op("open tree \"typeseq\"")?;
        let meta = store.open_tree("meta").in_op("open tree \"meta\"")?;
        let shape = load_shape(&meta)?;
        let generation = meta
            .get(META_COLGEN_KEY)
            .in_op("read column generation")?
            .and_then(|v| Some(u64::from_le_bytes(v.try_into().ok()?)))
            .unwrap_or(0);
        let tygens = load_tygens(&meta)?;
        let next_gen = generation.max(tygens.values().copied().max().unwrap_or(0)) + 1;
        Ok(ShreddedDoc {
            store: store.clone(),
            typeseq,
            meta,
            shape,
            generation,
            tygens: Mutex::new(tygens),
            next_gen,
            column_budget: AtomicUsize::new(usize::MAX),
            columns: RwLock::new(HashMap::default()),
            merged_columns: AtomicU64::new(0),
            pending_deltas: Mutex::new(HashMap::new()),
            invalidated_columns: 0,
            dirty: HashSet::new(),
            bumped_since_persist: HashSet::new(),
            epoch: 0,
            shared: DocShared::new(opts.persisted_columns),
            published: Mutex::new(None),
        })
    }

    /// The document's adorned shape.
    pub fn shape(&self) -> &AdornedShape {
        &self.shape
    }

    /// The document's type table.
    pub fn types(&self) -> &TypeTable {
        self.shape.types()
    }

    /// Number of instances of a type.
    pub fn instance_count(&self, t: TypeId) -> u64 {
        self.shape.instance_count(t)
    }

    /// Direct text of a node, or `None` when no node has that label.
    pub fn node_text(&self, dewey: &Dewey) -> MorphResult<Option<String>> {
        let Some(t) = self.node_type(dewey)? else {
            return Ok(None);
        };
        let text = self
            .typeseq
            .get(&typeseq_key(t, dewey))
            .in_op("read tree \"typeseq\"")?;
        Ok(text.map(|v| String::from_utf8_lossy(&v).into_owned()))
    }

    /// Type of a node, or `None` when no node has that label. All
    /// instances of a type share one depth, so the node at depth `d`
    /// is an instance of a depth-`d` type, and the walk narrows to it
    /// from the root type: at each level it reads `typeseq` at
    /// `(c ‖ prefix)` for each child type `c` of the type found so far
    /// and keeps the first hit. O(depth × fan-out) point reads.
    pub fn node_type(&self, dewey: &Dewey) -> MorphResult<Option<TypeId>> {
        let at = dewey.encode();
        let mut found = None;
        for depth in 1..=dewey.len() {
            let at = &at[..depth * 4];
            found = match found {
                None => self.type_among(self.shape.types().roots().iter().copied(), at)?,
                Some(t) => self.type_among(self.shape.types().children(t), at)?,
            };
            if found.is_none() {
                break;
            }
        }
        Ok(found)
    }

    /// Which of `types` the node at the encoded Dewey `at` is an
    /// instance of: one `typeseq` point read per type with instances,
    /// in shape order, up to the first hit. Exact when `types` all sit
    /// at the node's depth.
    pub(in crate::store) fn type_among(
        &self,
        types: impl IntoIterator<Item = TypeId>,
        at: &[u8],
    ) -> MorphResult<Option<TypeId>> {
        let mut key = Vec::with_capacity(4 + at.len());
        for t in types
            .into_iter()
            .filter(|&t| self.shape.instance_count(t) > 0)
        {
            typeseq_key_into(&mut key, t, at);
            if self.typeseq.contains(&key).in_op("probe typeseq")? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    // ---- snapshot publication (single writer, many readers) ----

    /// The document epoch: how many mutation batches have been applied
    /// to this handle. A [`Snapshot`] pins one epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pin an immutable, epoch-versioned view of the document.
    ///
    /// The snapshot is self-contained: it freezes the adorned shape,
    /// the per-type generations, and every currently resolved column
    /// `Arc`, and it resolves further columns lazily from the store —
    /// which stays sound because the writer copy-on-writes the
    /// pre-mutation column into every live snapshot *before* touching
    /// the trees (`cow_pin`), so a type a snapshot has not resolved is
    /// by construction unchanged since the snapshot's epoch.
    ///
    /// Publication is cached: while the epoch has not moved, every call
    /// returns the same `Arc`. Republication after a mutation settles
    /// all pending column deltas first (snapshots only ever hold
    /// settled columns) and inherits the previous snapshot's resolved
    /// columns for types the interim mutations did not touch. It also
    /// inherits the previous snapshot's frozen shape, guard analyses
    /// and type distances while the shape has taken no edit (a text
    /// update edits none); the next shape version starts from a fresh
    /// copy of the shape and empty caches.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        if let Some(snap) = self.published.lock().unwrap().as_ref() {
            if snap.epoch == self.epoch {
                return Arc::clone(snap);
            }
        }
        // Settle every pending delta outside the publication lock: the
        // snapshot must only see merged columns, and `column` both
        // settles and caches them on this handle.
        let pending: Vec<TypeId> = self
            .pending_deltas
            .lock()
            .unwrap()
            .keys()
            .copied()
            .collect();
        for t in pending {
            let _ = self.column(t);
        }
        let mut published = self.published.lock().unwrap();
        if let Some(snap) = published.as_ref() {
            if snap.epoch == self.epoch {
                return Arc::clone(snap);
            }
        }
        let mut columns = self.columns.read().unwrap().clone();
        if let Some(old) = published.as_ref() {
            // Carry over the old snapshot's lazily-resolved columns for
            // types untouched since its epoch — they are still current,
            // and dropping them would re-fault the whole working set
            // after every mutation.
            let touched = self.shared.touched.lock().unwrap();
            for (t, col) in old.columns.read().unwrap().iter() {
                if touched.get(t).copied().unwrap_or(0) <= old.epoch {
                    columns.entry(*t).or_insert_with(|| Arc::clone(col));
                }
            }
        }
        // Everything derived from the shape alone carries over while
        // the shape takes no edit; a structural write pays one clone
        // here, at publication, not inside the write.
        let version = match published.as_ref() {
            Some(old) if old.version.edits == self.shape.edits() => Arc::clone(&old.version),
            _ => Arc::new(ShapeVersion::new(&self.shape)),
        };
        let snap = Arc::new(Snapshot {
            epoch: self.epoch,
            version,
            store: self.store.clone(),
            typeseq: self.typeseq.clone(),
            generation: self.generation,
            tygens: self.tygens.lock().unwrap().clone(),
            columns: RwLock::new(columns),
            plan_cache: RwLock::new(HashMap::default()),
            shared: Arc::clone(&self.shared),
        });
        let mut live = self.shared.live.lock().unwrap();
        live.retain(|w| w.strong_count() > 0);
        live.push(Arc::downgrade(&snap));
        *published = Some(Arc::clone(&snap));
        snap
    }

    /// The writer half of copy-on-write: resolve the *pre-mutation*
    /// column of every type in `types` into each live snapshot that has
    /// not resolved it yet. Mutations call this before their first tree
    /// write; afterwards every live snapshot either already held the
    /// type (some earlier state, pinned by its own `Arc`) or now holds
    /// the state current up to this mutation — so no snapshot will ever
    /// lazily load a post-mutation column for a type it predates. A
    /// column that fails to load fails the mutation here, before its
    /// first write; snapshots pinned before the failure keep what they
    /// got, which is still the pre-mutation state.
    pub(in crate::store) fn cow_pin<I: IntoIterator<Item = TypeId>>(
        &mut self,
        types: I,
    ) -> MorphResult<()> {
        let live: Vec<Arc<Snapshot>> = {
            let mut registry = self.shared.live.lock().unwrap();
            registry.retain(|w| w.strong_count() > 0);
            registry.iter().filter_map(Weak::upgrade).collect()
        };
        if live.is_empty() {
            return Ok(());
        }
        for t in types {
            let lacking: Vec<&Arc<Snapshot>> = live
                .iter()
                .filter(|snap| !snap.columns.read().unwrap().contains_key(&t))
                .collect();
            if lacking.is_empty() {
                continue;
            }
            // `try_column` settles any pending delta, so this is the
            // fully merged pre-mutation state, loaded once per type.
            let col = self.try_column(t).in_op("pin pre-mutation column")?;
            for snap in lacking {
                snap.columns.write().unwrap().insert(t, Arc::clone(&col));
            }
        }
        Ok(())
    }

    // ---- the columnar read path ----

    /// The [`TypeColumn`] of `t`, loaded on first touch and cached.
    /// Loading prefers a persisted column segment — memory-mapped when
    /// the store and platform allow — and falls back to decoding the
    /// `typeseq` range (one sequential scan) when the segment is
    /// missing, stale, or corrupt. Malformed `typeseq` entries are
    /// skipped, matching the lenient decoding of the scans this
    /// replaces. A read error in that decode serves an empty column
    /// for this one call, cached nowhere, and is listed among the
    /// [`ShreddedDoc::segment_fallbacks`].
    pub fn column(&self, t: TypeId) -> Arc<TypeColumn> {
        self.try_column(t).unwrap_or_else(|_| self.empty_column(t))
    }

    /// [`ShreddedDoc::column`], with a read error as an error. Nothing
    /// is cached and no pending delta settles when the load fails.
    pub(in crate::store) fn try_column(&self, t: TypeId) -> StoreResult<Arc<TypeColumn>> {
        // Settle deferred maintenance first: the lock is held across
        // the merge so a concurrent reader can't serve the stale
        // column while this one folds the pending delta in. The merge
        // is idempotent, so a base rebuilt from the already-mutated
        // typeseq (cache evicted since the mutation) is fine too.
        let mut pending = self.pending_deltas.lock().unwrap();
        if let Some(delta) = pending.get(&t) {
            let cached = self.columns.read().unwrap().get(&t).cloned();
            let base = match cached {
                Some(col) => col,
                None => Arc::new(self.load_column(t)?),
            };
            let merged = Arc::new(super::mutate::merged_column(&base, delta));
            pending.remove(&t);
            self.columns.write().unwrap().insert(t, Arc::clone(&merged));
            self.merged_columns.fetch_add(1, Ordering::Relaxed);
            return Ok(merged);
        }
        drop(pending);
        if let Some(col) = self.columns.read().unwrap().get(&t) {
            return Ok(Arc::clone(col));
        }
        let built = Arc::new(self.load_column(t)?);
        let mut map = self.columns.write().unwrap();
        let col = Arc::clone(map.entry(t).or_insert(built));
        let budget = self.column_budget.load(Ordering::Relaxed);
        if budget != usize::MAX {
            // The budget bounds *all* column memory this document keeps
            // alive, and bytes pinned by live snapshots cannot be freed
            // by evicting cache entries — so the cache only gets what
            // the snapshots leave over.
            let pinned = Self::pinned_beyond(&map, &self.shared);
            Self::enforce_budget(&mut map, budget.saturating_sub(pinned), t);
        }
        Ok(col)
    }

    /// The column of a type with no rows, served in place of one whose
    /// load failed.
    fn empty_column(&self, t: TypeId) -> Arc<TypeColumn> {
        Arc::new(ColumnBuilder::new(self.shape.types().dewey_len(t)).finish())
    }

    /// The current column-cache budget, if bounded.
    pub fn column_budget(&self) -> Option<usize> {
        match self.column_budget.load(Ordering::Relaxed) {
            usize::MAX => None,
            b => Some(b),
        }
    }

    /// Retune the column-cache budget on a live document (`None` lifts
    /// the bound). Takes effect on the next column load; already-cached
    /// columns shrink to a lowered budget the next time any column is
    /// touched. Shared across everything holding this document — on a
    /// served store the last query to set a budget wins.
    pub fn set_column_budget(&self, budget: Option<usize>) {
        self.column_budget
            .store(budget.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Evict cached columns (never `keep`) until the cache fits the
    /// budget. Victims are taken in arbitrary hash order — the cache is
    /// a working set, not an LRU; evicted columns reload on next touch.
    fn enforce_budget(
        map: &mut HashMap<TypeId, Arc<TypeColumn>, FxBuild>,
        budget: usize,
        keep: TypeId,
    ) {
        while ColumnBytes::of(map.values()).total() > budget && map.len() > 1 {
            match map.keys().find(|&&k| k != keep).copied() {
                Some(v) => map.remove(&v),
                None => break,
            };
        }
    }

    /// Column bytes live snapshots keep alive *beyond* the entries in
    /// `map` (the document cache): each distinct column `Arc` held by a
    /// live snapshot but absent from the cache, counted once however
    /// many snapshots share it. These bytes are invisible to the cache
    /// totals yet just as resident — the memory-accounting half of the
    /// snapshot protocol.
    fn pinned_beyond(map: &HashMap<TypeId, Arc<TypeColumn>, FxBuild>, shared: &DocShared) -> usize {
        let live: Vec<Arc<Snapshot>> = {
            let mut reg = shared.live.lock().unwrap();
            reg.retain(|w| w.strong_count() > 0);
            reg.iter().filter_map(Weak::upgrade).collect()
        };
        if live.is_empty() {
            return 0;
        }
        let mut seen: Vec<*const TypeColumn> = map.values().map(Arc::as_ptr).collect();
        let mut total = 0usize;
        for snap in live {
            for col in snap.columns.read().unwrap().values() {
                let p = Arc::as_ptr(col);
                if !seen.contains(&p) {
                    seen.push(p);
                    total += col.heap_bytes() + col.mapped_bytes();
                }
            }
        }
        total
    }

    /// Bytes of column data outstanding [`Snapshot`]s hold resident
    /// beyond what the document's own cache accounts for (see
    /// [`ShreddedDoc::column_bytes`]): copy-on-write pins and lazily
    /// resolved snapshot columns whose `Arc`s the cache no longer (or
    /// never did) share. Each distinct column counts once. The cache
    /// budget treats these as spent — eviction cannot free them.
    pub fn snapshot_pinned_bytes(&self) -> usize {
        Self::pinned_beyond(&self.columns.read().unwrap(), &self.shared)
    }

    /// The generation a valid persisted segment of `t` must carry: the
    /// per-type override when `t` has been mutated since the last full
    /// shred, the store-wide shred generation otherwise.
    pub(in crate::store) fn expected_generation(&self, t: TypeId) -> u64 {
        self.tygens
            .lock()
            .unwrap()
            .get(&t)
            .copied()
            .unwrap_or(self.generation)
    }

    fn load_column(&self, t: TypeId) -> StoreResult<TypeColumn> {
        self.shared.load_column(
            &self.store,
            &self.typeseq,
            self.shape.types().dewey_len(t),
            self.expected_generation(t),
            t,
        )
    }

    /// Write every type's column as a persisted segment, then flush so
    /// the segment catalog is durable. Runs at shred time (see
    /// [`ShredOptions::persist_columns`]).
    fn persist_all_columns(&self) -> MorphResult<()> {
        for t in self.shape.types().ids() {
            let col = self.try_column(t).in_op("load column to persist")?;
            let name = colseg::segment_name(t);
            let bytes = col.encode_segment(self.generation);
            self.store
                .put_segment(&name, &bytes)
                .in_op(&format!("write column segment {name:?}"))?;
        }
        self.store.flush().in_op("flush column segments")?;
        Ok(())
    }

    /// Test-only: persist every column in the legacy v1 (uncompressed)
    /// segment format, exactly as a pre-upgrade store wrote it, so the
    /// compatibility tests can prove the current read path still opens
    /// v1 stores byte-identically. Not part of the public API.
    #[doc(hidden)]
    pub fn persist_all_columns_v1(&self) -> MorphResult<()> {
        for t in self.shape.types().ids() {
            let col = self.try_column(t).in_op("load column to persist")?;
            let name = colseg::segment_name(t);
            let bytes = colseg::encode_v1(
                col.width,
                col.comps(),
                col.offsets(),
                col.texts(),
                self.expected_generation(t),
            );
            self.store
                .put_segment(&name, &bytes)
                .in_op(&format!("write column segment {name:?}"))?;
        }
        self.store.flush().in_op("flush column segments")?;
        Ok(())
    }

    /// Drop every cached column. Heap columns free their arrays; mapped
    /// columns unmap once the last outstanding reader drops its `Arc`.
    /// They reload lazily — the memory knob for long-lived documents
    /// serving occasional queries.
    pub fn evict_columns(&self) {
        self.columns.write().unwrap().clear();
    }

    /// Bytes currently held by cached columns, split by backing (heap
    /// vs memory-mapped).
    pub fn column_bytes(&self) -> ColumnBytes {
        ColumnBytes::of(self.columns.read().unwrap().values())
    }

    /// Persisted column segments that failed validation on this handle
    /// or on any snapshot it published, and fell back to a lazy
    /// rebuild, as `"segment: reason"` lines, and rebuilds that failed
    /// to read `typeseq`. Empty in healthy operation.
    pub fn segment_fallbacks(&self) -> Vec<String> {
        self.shared.fallbacks.lock().unwrap().clone()
    }

    /// All instances of a type, in document order, with their direct
    /// text. Materializes owned pairs from the column;
    /// [`ShreddedDoc::column`] is the zero-copy variant.
    pub fn scan_type(&self, t: TypeId) -> Vec<(Dewey, String)> {
        let col = self.column(t);
        col.rows(0..col.len())
    }

    // ---- B+tree reference implementations ----
    //
    // The seed's storage-backed operations, kept verbatim in behaviour:
    // the columnar-equivalence property tests compare the snapshot's
    // columnar reads against them. The ablation benchmark's "naive"
    // join is [`Snapshot::closest_children_btree`].

    /// `typeDistance` computed through B+tree key scans, bypassing the
    /// column cache — each call rescans.
    pub fn type_distance_btree(&self, a: TypeId, b: TypeId) -> MorphResult<Option<usize>> {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        distance_by_levels(&self.shape, a, b, |level| self.co_occur_btree(a, b, level))
            .in_op("scan tree \"typeseq\"")
    }

    /// Do some instance of `a` and some instance of `b` share a Dewey
    /// prefix of `level` components? Sorted-merge over the two type
    /// sequences comparing `level × 4` key bytes, borrowed straight from
    /// the iterator's keys (keys only — values are never materialized).
    fn co_occur_btree(&self, a: TypeId, b: TypeId, level: usize) -> StoreResult<bool> {
        let plen = level * 4;
        let mut ia = self.typeseq.scan_prefix(&a.0.to_be_bytes());
        let mut ib = self.typeseq.scan_prefix(&b.0.to_be_bytes());
        let mut ka = ia.next_key()?;
        let mut kb = ib.next_key()?;
        while let (Some(x), Some(y)) = (&ka, &kb) {
            // Skip the 4-byte type prefix; compare Dewey bytes in place.
            let px = &x[4..(4 + plen).min(x.len())];
            let py = &y[4..(4 + plen).min(y.len())];
            match px.cmp(py) {
                std::cmp::Ordering::Equal => {
                    // Same prefix — but for an ancestor/descendant pair
                    // the prefix must be fully present in both.
                    if px.len() == plen && py.len() == plen {
                        return Ok(true);
                    }
                    // One of the keys is shorter than the level: advance it.
                    if px.len() < plen {
                        ka = ia.next_key()?;
                    } else {
                        kb = ib.next_key()?;
                    }
                }
                std::cmp::Ordering::Less => ka = ia.next_key()?,
                std::cmp::Ordering::Greater => kb = ib.next_key()?,
            }
        }
        Ok(false)
    }

    /// [`ShreddedDoc::scan_type`] through the B+tree (reference).
    pub fn scan_type_btree(&self, t: TypeId) -> MorphResult<Vec<(Dewey, String)>> {
        typeseq_rows(&self.typeseq, &t.0.to_be_bytes()).in_op("scan tree \"typeseq\"")
    }
}

/// The pipelined closest-join cursor (see
/// [`Snapshot::closest_cursor`]). Requests must come in
/// non-decreasing parent (document) order; the last group is cached so
/// several parents sharing one join prefix all see it. The cursor owns
/// an `Arc` of the child column, so groups are row ranges — nothing is
/// copied per parent.
pub struct ClosestCursor {
    col: Arc<TypeColumn>,
    /// Join prefix length, in components.
    prefix_len: usize,
    /// First row not yet grouped (rows before this never match again).
    pos: usize,
    group: Range<usize>,
    group_prefix: Vec<u32>,
    has_group: bool,
}

impl ClosestCursor {
    /// The child column the returned row ranges index into.
    pub fn column(&self) -> &Arc<TypeColumn> {
        &self.col
    }

    /// Row range of the closest children of `parent`. Parents must be
    /// presented in non-decreasing document order.
    pub fn group_for(&mut self, parent: &Dewey) -> Range<usize> {
        self.group_for_row(parent.components())
    }

    /// [`ClosestCursor::group_for`] on a parent given by its Dewey
    /// components, as a column row holds them: the renderer's form, so
    /// no Dewey is built per parent.
    pub(crate) fn group_for_row(&mut self, parent: &[u32]) -> Range<usize> {
        let want = &parent[..self.prefix_len.min(parent.len())];
        if self.has_group && self.group_prefix == want {
            return self.group.clone();
        }
        let range = self.col.prefix_range_from(self.pos, want);
        self.pos = range.end;
        self.group = range.clone();
        self.group_prefix.clear();
        self.group_prefix.extend_from_slice(want);
        self.has_group = true;
        range
    }

    /// Row range of the closest children of `parent` by a fresh probe
    /// that leaves the cursor where it is — for parents that come out
    /// of document order, such as the instances a RESTRICT filter tests.
    pub(crate) fn probe_row(&self, parent: &[u32]) -> Range<usize> {
        self.col
            .prefix_range(&parent[..self.prefix_len.min(parent.len())])
    }
}

/// An immutable, epoch-versioned view of a [`ShreddedDoc`] — the unit
/// of snapshot isolation. Obtained from [`ShreddedDoc::snapshot`];
/// cheap to clone (`Arc`), safe to share across threads, and stable
/// under concurrent mutation of the document that published it: every
/// probe answers from the state at the snapshot's epoch.
///
/// A snapshot is the one implementation of query-time reads: every
/// typeDistance, closest join, and type scan a query makes runs here,
/// while the [`ShreddedDoc`] keeps only the writer's side. A snapshot
/// freezes the adorned shape and the per-type generations at
/// publication, starts from the document's resolved columns with empty
/// distance and plan caches, and resolves columns it has not seen
/// **lazily** from the store. Lazy resolution is sound because of the
/// single-writer protocol: a mutation first copy-on-writes the
/// pre-mutation column of every type it touches into every live
/// snapshot (so a type this snapshot has *not* resolved is unchanged
/// since its epoch), and the shared `gate` lock excludes a lazy load
/// from the span of a mutation's tree writes (so the load never
/// decodes a torn range).
///
/// Snapshots are not subject to the document's column budget: columns
/// they resolve or get pinned stay alive until the snapshot drops.
///
/// A snapshot also memoises guard analyses ([`Snapshot::analysis`])
/// and exact type distances. Both depend only on the adorned shape and
/// the Dewey numbers of its instances, never on text (Defs. 2, 7), so
/// they live with the frozen shape in one shape version that every
/// snapshot published while the shape is unedited shares: a text
/// update keeps them warm, and the next shape version starts from an
/// empty cache.
pub struct Snapshot {
    pub(in crate::store) epoch: u64,
    version: Arc<ShapeVersion>,
    store: Store,
    typeseq: Tree,
    /// Store-wide shred generation at publication.
    generation: u64,
    /// Per-type generation overrides frozen at publication. For a type
    /// this snapshot may still lazily load, the frozen value equals the
    /// live one (a later mutation would have pinned the column), so
    /// segment fencing validates against the right generation.
    tygens: HashMap<TypeId, u64>,
    pub(in crate::store) columns: RwLock<HashMap<TypeId, Arc<TypeColumn>, FxBuild>>,
    /// Closest-join plan per `(parent type, child type)` pair: the join
    /// prefix length `L` (§VII) and the child column, so a hot probe
    /// pays one map lookup instead of a distance plus a column lookup.
    /// Per snapshot, unlike the distances: it holds column `Arc`s, and
    /// a text update replaces those.
    #[allow(clippy::type_complexity)]
    plan_cache: RwLock<HashMap<(TypeId, TypeId), Option<(usize, Arc<TypeColumn>)>, FxBuild>>,
    shared: Arc<DocShared>,
}

/// One version of the adorned shape, frozen at publication, with what
/// is derived from it alone. Every [`Snapshot`] published while the
/// document's shape takes no edit shares one `ShapeVersion`
/// ([`ShreddedDoc::snapshot`] compares [`AdornedShape::edits`]), so a
/// text update costs the next read no shape clone, no compile and no
/// distance scan.
struct ShapeVersion {
    /// [`AdornedShape::edits`] of the document's shape when frozen.
    edits: u64,
    shape: AdornedShape,
    /// `Shape::from_adorned(shape)`, built on the first analysis miss.
    source_shape: OnceLock<Shape>,
    /// Successful guard analyses keyed by guard source text, at most
    /// [`Snapshot::ANALYSIS_CACHE_CAP`] of them.
    analyses: Mutex<HashMap<String, Arc<GuardAnalysis>>>,
    /// Exact typeDistance per unordered type pair (the co-occurrence
    /// scan is linear, so each pair is computed once per version).
    /// Distances read only Dewey numbers, which text updates leave be.
    dist_cache: Mutex<HashMap<(TypeId, TypeId), Option<usize>, FxBuild>>,
}

impl ShapeVersion {
    fn new(shape: &AdornedShape) -> ShapeVersion {
        ShapeVersion {
            edits: shape.edits(),
            shape: shape.clone(),
            source_shape: OnceLock::new(),
            analyses: Mutex::new(HashMap::new()),
            dist_cache: Mutex::new(HashMap::default()),
        }
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("types", &self.version.shape.types().len())
            .field("resolved", &self.columns.read().unwrap().len())
            .finish_non_exhaustive()
    }
}

impl Snapshot {
    /// How many guard analyses one shape version memoises. Once full,
    /// further distinct guards are analysed without being inserted, so
    /// a client sending ever-new guard texts cannot grow the cache
    /// unboundedly.
    pub const ANALYSIS_CACHE_CAP: usize = 256;

    /// The compile phase of `guard` against this epoch (ξ evaluation
    /// and loss analysis, as [`Guard::analyze_snapshot`]), memoised by
    /// guard source text for as long as the shape takes no edit: every
    /// snapshot of one shape version shares the entry. Errors are not
    /// cached; enforcement of the typing discipline is left to the
    /// caller, per query.
    pub fn analysis(&self, guard: &Guard) -> MorphResult<Arc<GuardAnalysis>> {
        self.analysis_and_hit(guard).map(|(analysis, _)| analysis)
    }

    /// [`Snapshot::analysis`], also reporting whether it was a cache hit.
    pub(crate) fn analysis_and_hit(
        &self,
        guard: &Guard,
    ) -> MorphResult<(Arc<GuardAnalysis>, bool)> {
        let version = &*self.version;
        if let Some(hit) = version.analyses.lock().unwrap().get(guard.source()) {
            return Ok((Arc::clone(hit), true));
        }
        // Compute outside the lock: a racing miss may compute the same
        // analysis, and the first insert wins.
        let src = version
            .source_shape
            .get_or_init(|| Shape::from_adorned(&version.shape));
        let fresh = Arc::new(guard.analyze_with(&version.shape, src, self)?);
        let mut map = version.analyses.lock().unwrap();
        if let Some(won) = map.get(guard.source()) {
            return Ok((Arc::clone(won), false));
        }
        if map.len() < Self::ANALYSIS_CACHE_CAP {
            map.insert(guard.source().to_string(), Arc::clone(&fresh));
        }
        Ok((fresh, false))
    }

    /// Guard analyses currently memoised for this snapshot's shape
    /// version.
    pub fn cached_analyses(&self) -> usize {
        self.version.analyses.lock().unwrap().len()
    }

    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The adorned shape at the snapshot's epoch.
    pub fn shape(&self) -> &AdornedShape {
        &self.version.shape
    }

    /// The type table at the snapshot's epoch.
    pub fn types(&self) -> &TypeTable {
        self.version.shape.types()
    }

    /// Number of instances of a type at the snapshot's epoch.
    pub fn instance_count(&self, t: TypeId) -> u64 {
        self.version.shape.instance_count(t)
    }

    /// Footprint of the columns this snapshot holds resolved (see
    /// [`ShreddedDoc::column_bytes`]); the engine uses the delta across
    /// a query as the "columns this query faulted in" stat.
    pub fn column_bytes(&self) -> ColumnBytes {
        ColumnBytes::of(self.columns.read().unwrap().values())
    }

    /// The [`TypeColumn`] of `t` as of this snapshot's epoch: the
    /// pinned `Arc` when the type was resolved at publication or by a
    /// later writer pin, otherwise loaded from the store under the
    /// writer-exclusion gate and cached on the snapshot.
    pub fn column(&self, t: TypeId) -> Arc<TypeColumn> {
        if let Some(col) = self.columns.read().unwrap().get(&t) {
            return Arc::clone(col);
        }
        // Exclude writers for the load's duration, then re-check: a
        // mutation that ran while we waited for the gate has pinned the
        // pre-state of every type it touched into this snapshot.
        let _gate = self.shared.gate.read().unwrap();
        if let Some(col) = self.columns.read().unwrap().get(&t) {
            return Arc::clone(col);
        }
        // Unresolved under the gate ⇒ no mutation has touched `t`
        // since this epoch (cow_pin would have resolved it), so the
        // store's current state of `t` *is* the epoch state.
        debug_assert!(
            self.shared
                .touched
                .lock()
                .unwrap()
                .get(&t)
                .copied()
                .unwrap_or(0)
                <= self.epoch,
            "snapshot lazily loading a type mutated after its epoch"
        );
        // Segments validate against the generations frozen at publication.
        let generation = self.tygens.get(&t).copied().unwrap_or(self.generation);
        let width = self.version.shape.types().dewey_len(t);
        match self
            .shared
            .load_column(&self.store, &self.typeseq, width, generation, t)
        {
            Ok(built) => {
                let mut map = self.columns.write().unwrap();
                Arc::clone(map.entry(t).or_insert(Arc::new(built)))
            }
            // Served for this call only; the next touch loads again.
            Err(_) => Arc::new(ColumnBuilder::new(width).finish()),
        }
    }

    /// All instances of a type at the snapshot's epoch, in document
    /// order, with their direct text.
    pub fn scan_type(&self, t: TypeId) -> Vec<(Dewey, String)> {
        let col = self.column(t);
        col.rows(0..col.len())
    }

    /// Exact `typeDistance` (Def. 2): the minimum tree distance over all
    /// instance pairs, found by scanning candidate least-common-ancestor
    /// levels from the deepest shared path prefix upward and checking
    /// *co-occurrence* (two instances sharing a Dewey prefix of that
    /// length) with a sorted-merge over the two columns. Cached per
    /// pair on the snapshot's shape version.
    pub fn type_distance_exact(&self, a: TypeId, b: TypeId) -> Option<usize> {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&hit) = self.version.dist_cache.lock().unwrap().get(&key) {
            return hit;
        }
        let result = self.compute_distance(key.0, key.1);
        self.version.dist_cache.lock().unwrap().insert(key, result);
        result
    }

    fn compute_distance(&self, a: TypeId, b: TypeId) -> Option<usize> {
        let mut cols = None;
        let Ok(d) = distance_by_levels(&self.version.shape, a, b, |level| {
            let (ca, cb) = cols.get_or_insert_with(|| (self.column(a), self.column(b)));
            Ok::<_, std::convert::Infallible>(co_occur_columns(ca, cb, level))
        });
        d
    }

    /// The cached plan for a closest join of `child_type` instances
    /// under `parent_type` instances: the join prefix length
    /// `L = (dewey(parent) + dewey(child) − typeDistance)/2` and the
    /// child column. Computed once per pair; every later probe is one
    /// map lookup.
    fn join_plan(
        &self,
        parent_type: TypeId,
        child_type: TypeId,
    ) -> Option<(usize, Arc<TypeColumn>)> {
        if let Some(hit) = self
            .plan_cache
            .read()
            .unwrap()
            .get(&(parent_type, child_type))
        {
            return hit.clone();
        }
        let plan = self.type_distance_exact(parent_type, child_type).map(|d| {
            let types = self.version.shape.types();
            let lp = types.dewey_len(parent_type);
            let lc = types.dewey_len(child_type);
            ((lp + lc).saturating_sub(d) / 2, self.column(child_type))
        });
        self.plan_cache
            .write()
            .unwrap()
            .insert((parent_type, child_type), plan.clone());
        plan
    }

    /// The closest join (§VII), zero-copy, at the snapshot's epoch:
    /// instances of `child_type` closest to the given `parent`
    /// instance, as the child column plus the row range agreeing on the
    /// first `L = (dewey(parent) + dewey(child) − typeDistance)/2`
    /// components. Two binary searches on the column; `None` when the
    /// types are unrelated in the data.
    pub fn closest_group(
        &self,
        parent: &Dewey,
        parent_type: TypeId,
        child_type: TypeId,
    ) -> Option<(Arc<TypeColumn>, Range<usize>)> {
        self.closest_group_row(parent.components(), parent_type, child_type)
    }

    /// [`Snapshot::closest_group`] on a parent given by its Dewey
    /// components, as a column row holds them.
    pub(crate) fn closest_group_row(
        &self,
        parent: &[u32],
        parent_type: TypeId,
        child_type: TypeId,
    ) -> Option<(Arc<TypeColumn>, Range<usize>)> {
        let (l, col) = self.join_plan(parent_type, child_type)?;
        debug_assert_eq!(
            parent.len(),
            self.version.shape.types().dewey_len(parent_type)
        );
        let range = col.prefix_range(&parent[..l.min(parent.len())]);
        Some((col, range))
    }

    /// [`Snapshot::closest_children_batch`] over a row range of an
    /// already-loaded parent column — the renderer's form: the parents
    /// are the root instances of one top-level partition, already
    /// document-ordered by column construction, and no Dewey objects
    /// are materialized.
    pub fn closest_group_batch(
        &self,
        parent_col: &TypeColumn,
        rows: Range<usize>,
        parent_type: TypeId,
        child_type: TypeId,
    ) -> Option<(Arc<TypeColumn>, Vec<Range<usize>>)> {
        let (l, col) = self.join_plan(parent_type, child_type)?;
        let width = parent_col.width();
        let ranges = col.prefix_ranges(rows.map(|i| {
            let row = parent_col.components(i);
            &row[..l.min(width)]
        }));
        Some((col, ranges))
    }

    /// Batched closest join for a **document-ordered** parent batch:
    /// one plan lookup and one forward gallop pass over the child
    /// column resolve every parent's group
    /// ([`TypeColumn::prefix_ranges`]), instead of one independent
    /// binary search per parent. Returns the child column and one row
    /// range per parent, elementwise equal to
    /// [`Snapshot::closest_group`] on each parent; `None` when the two
    /// types are unrelated in the data.
    pub fn closest_children_batch(
        &self,
        parents: &[Dewey],
        parent_type: TypeId,
        child_type: TypeId,
    ) -> Option<(Arc<TypeColumn>, Vec<Range<usize>>)> {
        let (l, col) = self.join_plan(parent_type, child_type)?;
        let ranges = col.prefix_ranges(parents.iter().map(|p| &p.components()[..l.min(p.len())]));
        Some((col, ranges))
    }

    /// The closest join, materialized ([`Snapshot::closest_group`] is
    /// the zero-copy variant the renderer uses).
    pub fn closest_children(
        &self,
        parent: &Dewey,
        parent_type: TypeId,
        child_type: TypeId,
    ) -> Vec<(Dewey, String)> {
        self.closest_group(parent, parent_type, child_type)
            .map_or_else(Vec::new, |(col, range)| col.rows(range))
    }

    /// A streaming sort-merge cursor over the closest join (§VII's
    /// pipelined implementation): callers ask for the closest
    /// `child_type` instances of successive parent instances *in
    /// document order*, and the cursor advances monotonically through
    /// the child column — never revisiting rows before the last group.
    /// Returns `None` when the two types are unrelated in the data.
    pub fn closest_cursor(&self, parent_type: TypeId, child_type: TypeId) -> Option<ClosestCursor> {
        let (l, col) = self.join_plan(parent_type, child_type)?;
        Some(ClosestCursor {
            col,
            prefix_len: l,
            pos: 0,
            group: 0..0,
            group_prefix: Vec::new(),
            has_group: false,
        })
    }

    /// Does the parent instance have at least one closest `child_type`
    /// instance? (Existence check for RESTRICT filters.) A pure
    /// prefix-range probe — nothing is materialized.
    pub fn has_closest_child(
        &self,
        parent: &Dewey,
        parent_type: TypeId,
        child_type: TypeId,
    ) -> bool {
        self.closest_group(parent, parent_type, child_type)
            .is_some_and(|(_, range)| !range.is_empty())
    }

    /// The closest join through one B+tree prefix probe per parent —
    /// the seed hot path, kept as the renderer's ablation path
    /// (`pipelined: false`) and the columnar-equivalence reference. The
    /// join level still comes from the cached join plan, so a
    /// comparison isolates probe cost. The scan runs under the
    /// writer-exclusion gate so it never decodes a torn range, but
    /// unlike the columnar paths it reads the *live* trees: under concurrent mutation its answers
    /// reflect the current document, not the snapshot's epoch. The
    /// engine's query path always uses the pipelined columnar join.
    pub fn closest_children_btree(
        &self,
        parent: &Dewey,
        parent_type: TypeId,
        child_type: TypeId,
    ) -> MorphResult<Vec<(Dewey, String)>> {
        let Some((l, _)) = self.join_plan(parent_type, child_type) else {
            return Ok(Vec::new());
        };
        debug_assert_eq!(
            parent.len(),
            self.version.shape.types().dewey_len(parent_type)
        );
        let prefix = parent.prefix(l);
        let mut key = Vec::with_capacity(4 + prefix.len() * 4);
        key.extend_from_slice(&child_type.0.to_be_bytes());
        key.extend_from_slice(&prefix.encode());
        let _gate = self.shared.gate.read().unwrap();
        typeseq_rows(&self.typeseq, &key).in_op("scan tree \"typeseq\"")
    }
}

impl DistOracle for Snapshot {
    fn type_distance(&self, a: TypeId, b: TypeId) -> Option<usize> {
        self.type_distance_exact(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    fn shredded(xml: &str) -> ShreddedDoc {
        let store = Store::in_memory();
        ShreddedDoc::shred_str(&store, xml).unwrap()
    }

    fn ty(doc: &ShreddedDoc, dotted: &str) -> TypeId {
        let path: Vec<String> = dotted.split('.').map(|s| s.to_string()).collect();
        doc.types()
            .lookup(&path)
            .unwrap_or_else(|| panic!("no type {dotted}"))
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xmorph-shred-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn shred_builds_shape_and_counts() {
        let doc = shredded(FIG1A);
        assert_eq!(doc.instance_count(ty(&doc, "data.book")), 2);
        assert_eq!(doc.instance_count(ty(&doc, "data.book.author.name")), 2);
    }

    #[test]
    fn scan_type_in_document_order() {
        let doc = shredded(FIG1A);
        let titles = doc.scan_type(ty(&doc, "data.book.title"));
        assert_eq!(titles.len(), 2);
        assert_eq!(titles[0].0.to_string(), "1.1.1");
        assert_eq!(titles[0].1, "X");
        assert_eq!(titles[1].0.to_string(), "1.2.1");
        assert_eq!(titles[1].1, "Y");
    }

    #[test]
    fn node_text_lookup() {
        let doc = shredded(FIG1A);
        assert_eq!(
            doc.node_text(&"1.1.2.1".parse().unwrap())
                .unwrap()
                .as_deref(),
            Some("Tim")
        );
        assert_eq!(doc.node_text(&"1.9".parse().unwrap()).unwrap(), None);
    }

    #[test]
    fn exact_type_distance() {
        let doc = shredded(FIG1A);
        let title = ty(&doc, "data.book.title");
        let publisher = ty(&doc, "data.book.publisher");
        let pub_name = ty(&doc, "data.book.publisher.name");
        let snap = doc.snapshot();
        assert_eq!(snap.type_distance_exact(title, publisher), Some(2));
        assert_eq!(snap.type_distance_exact(title, pub_name), Some(3));
        assert_eq!(snap.type_distance_exact(title, title), Some(0));
    }

    #[test]
    fn co_occurrence_failure_detected() {
        // authors and editors never share a book: distance 4, not 2.
        let doc =
            shredded("<data><book><author>a</author></book><book><editor>e</editor></book></data>");
        let author = ty(&doc, "data.book.author");
        let editor = ty(&doc, "data.book.editor");
        assert_eq!(doc.snapshot().type_distance_exact(author, editor), Some(4));
    }

    #[test]
    fn ancestor_descendant_distance() {
        let doc = shredded(FIG1A);
        let book = ty(&doc, "data.book");
        let pub_name = ty(&doc, "data.book.publisher.name");
        assert_eq!(doc.snapshot().type_distance_exact(book, pub_name), Some(2));
    }

    #[test]
    fn closest_join_matches_paper_example() {
        // §VII: publisher 1.1.3 joins title 1.1.1 (shared 2-prefix), not
        // 1.2.1.
        let doc = shredded(FIG1A);
        let publisher = ty(&doc, "data.book.publisher");
        let title = ty(&doc, "data.book.title");
        let joined = doc
            .snapshot()
            .closest_children(&"1.1.3".parse().unwrap(), publisher, title);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].0.to_string(), "1.1.1");
        assert_eq!(joined[0].1, "X");
    }

    #[test]
    fn closest_join_author_names() {
        // §VII's first join: author nodes pick up their name children.
        let doc = shredded(FIG1A);
        let author = ty(&doc, "data.book.author");
        let name = ty(&doc, "data.book.author.name");
        let joined = doc
            .snapshot()
            .closest_children(&"1.1.2".parse().unwrap(), author, name);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].0.to_string(), "1.1.2.1");
    }

    #[test]
    fn closest_join_upward() {
        // Joining from title up to author: distance 2 via the book.
        let doc = shredded(FIG1A);
        let title = ty(&doc, "data.book.title");
        let author = ty(&doc, "data.book.author");
        let joined = doc
            .snapshot()
            .closest_children(&"1.1.1".parse().unwrap(), title, author);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].0.to_string(), "1.1.2");
    }

    #[test]
    fn attributes_are_stored_vertices() {
        let store = Store::in_memory();
        let doc =
            ShreddedDoc::shred_str(&store, r#"<d><a id="7">x</a><a id="8">y</a></d>"#).unwrap();
        let at = ty(&doc, "d.a.@id");
        let vals = doc.scan_type(at);
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[0].1, "7");
        assert_eq!(vals[1].1, "8");
    }

    #[test]
    fn reopen_from_store() {
        let store = Store::in_memory();
        {
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        }
        let doc = ShreddedDoc::open(&store).unwrap();
        assert_eq!(doc.instance_count(ty(&doc, "data.book")), 2);
        let titles = doc.scan_type(ty(&doc, "data.book.title"));
        assert_eq!(titles.len(), 2);
    }

    #[test]
    fn has_closest_child_existence() {
        let doc = shredded(
            "<d><book><award>w</award><title>A</title></book><book><title>B</title></book></d>",
        );
        let book = ty(&doc, "d.book");
        let award = ty(&doc, "d.book.award");
        let snap = doc.snapshot();
        assert!(snap.has_closest_child(&"1.1".parse().unwrap(), book, award));
        assert!(!snap.has_closest_child(&"1.2".parse().unwrap(), book, award));
    }

    #[test]
    fn mixed_text_is_trimmed_direct_text() {
        let doc = shredded("<d><a> hi <b>skip</b></a></d>");
        let a = ty(&doc, "d.a");
        let scans = doc.scan_type(a);
        assert_eq!(scans[0].1, "hi");
    }

    // ---- columnar read path ----

    #[test]
    fn column_is_built_once_and_shared() {
        let doc = shredded(FIG1A);
        let t = ty(&doc, "data.book.title");
        let c1 = doc.column(t);
        let c2 = doc.column(t);
        assert!(Arc::ptr_eq(&c1, &c2));
        assert_eq!(c1.len(), 2);
        assert_eq!(c1.width(), 3);
        assert_eq!(c1.text(0), "X");
        assert_eq!(c1.dewey(1).to_string(), "1.2.1");
    }

    #[test]
    fn column_eviction_and_memory_accounting() {
        let doc = shredded(FIG1A);
        assert_eq!(doc.column_bytes().total(), 0);
        for t in doc.types().ids() {
            let _ = doc.column(t);
        }
        let bytes = doc.column_bytes();
        assert!(bytes.heap > 0);
        assert_eq!(bytes.mapped, 0, "in-memory store cannot map");
        doc.evict_columns();
        assert_eq!(doc.column_bytes().total(), 0);
        // Columns rebuild after eviction.
        assert_eq!(doc.scan_type(ty(&doc, "data.book")).len(), 2);
    }

    #[test]
    fn prefix_range_binary_search() {
        let doc = shredded(FIG1A);
        let title = doc.column(ty(&doc, "data.book.title"));
        assert_eq!(title.prefix_range(&[1]), 0..2);
        assert_eq!(title.prefix_range(&[1, 1]), 0..1);
        assert_eq!(title.prefix_range(&[1, 2]), 1..2);
        assert_eq!(title.prefix_range(&[1, 3]), 2..2);
        assert_eq!(title.prefix_range(&[2]), 2..2);
    }

    #[test]
    fn columnar_matches_btree_reference() {
        let doc = shredded(FIG1A);
        let snap = doc.snapshot();
        let types: Vec<TypeId> = doc.types().ids().collect();
        for &t in &types {
            assert_eq!(
                snap.scan_type(t),
                doc.scan_type_btree(t).unwrap(),
                "scan {t:?}"
            );
        }
        for &a in &types {
            for &b in &types {
                assert_eq!(
                    snap.type_distance_exact(a, b),
                    doc.type_distance_btree(a, b).unwrap(),
                    "distance {a:?} {b:?}"
                );
                for (parent, _) in snap.scan_type(a) {
                    assert_eq!(
                        snap.closest_children(&parent, a, b),
                        snap.closest_children_btree(&parent, a, b).unwrap(),
                        "join {parent} {a:?} {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cursor_groups_match_direct_joins() {
        let doc = shredded(FIG1A);
        let publisher = ty(&doc, "data.book.publisher");
        let title = ty(&doc, "data.book.title");
        let snap = doc.snapshot();
        let mut cursor = snap.closest_cursor(publisher, title).unwrap();
        for (parent, _) in snap.scan_type(publisher) {
            let range = cursor.group_for(&parent);
            let col = cursor.column().clone();
            let got: Vec<(Dewey, String)> = range
                .map(|i| (col.dewey(i), col.text(i).to_string()))
                .collect();
            assert_eq!(got, snap.closest_children(&parent, publisher, title));
        }
    }

    #[test]
    fn batched_groups_match_direct_joins() {
        let doc = shredded(FIG1A);
        let snap = doc.snapshot();
        let types: Vec<TypeId> = snap.types().ids().collect();
        for &a in &types {
            let parents: Vec<Dewey> = snap.scan_type(a).into_iter().map(|(d, _)| d).collect();
            for &b in &types {
                let batch = snap.closest_children_batch(&parents, a, b);
                match batch {
                    None => {
                        for p in &parents {
                            assert!(snap.closest_group(p, a, b).is_none());
                        }
                    }
                    Some((col, ranges)) => {
                        assert_eq!(ranges.len(), parents.len());
                        for (p, r) in parents.iter().zip(&ranges) {
                            let (scol, sr) = snap.closest_group(p, a, b).unwrap();
                            assert_eq!(*r, sr, "batch group for {p} under {a:?}->{b:?}");
                            assert_eq!(*col, *scol);
                        }
                        // Row-range form agrees with the Dewey form.
                        let pcol = snap.column(a);
                        let (_, rranges) = snap
                            .closest_group_batch(&pcol, 0..pcol.len(), a, b)
                            .unwrap();
                        assert_eq!(rranges, ranges);
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_ranges_handles_repeats_and_empty_groups() {
        let doc = shredded(FIG1A);
        let title = doc.column(ty(&doc, "data.book.title"));
        let probes: Vec<&[u32]> = vec![&[1, 1], &[1, 1], &[1, 2], &[1, 3], &[2]];
        let got = title.prefix_ranges(probes.iter().copied());
        let want: Vec<Range<usize>> = probes.iter().map(|p| title.prefix_range(p)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cmp_prefix_matches_slice_ordering_on_wide_rows() {
        // Exercise both the 8-wide chunked path and the scalar tail.
        let base: Vec<u32> = (0..19).collect();
        for flip in 0..19 {
            for delta in [-1i64, 0, 1] {
                let mut row = base.clone();
                row[flip] = (i64::from(row[flip]) + delta).max(0) as u32;
                for plen in [0usize, 3, 8, 11, 16, 19] {
                    let pre = &base[..plen];
                    assert_eq!(
                        cmp_prefix(&row, pre),
                        row[..plen].cmp(pre),
                        "flip {flip} delta {delta} plen {plen}"
                    );
                }
            }
        }
    }

    #[test]
    fn gallop_partition_matches_binary_partition() {
        // One-component rows 0,0,1,1,1,2,5,5,9.
        let comps: Vec<u32> = vec![0, 0, 1, 1, 1, 2, 5, 5, 9];
        let n = comps.len();
        for target in 0..=10u32 {
            for from in 0..=n {
                let pred = |row: &[u32]| row[0] < target;
                let want = binary_partition(&comps, 1, from, n, pred).max(from);
                assert_eq!(
                    gallop_partition(&comps, 1, from, n, pred),
                    want,
                    "target {target} from {from}"
                );
            }
        }
    }

    #[test]
    fn bulk_and_incremental_shreds_agree() {
        let store_inc = Store::in_memory();
        let incremental = ShreddedDoc::shred_str_with(
            &store_inc,
            FIG1A,
            &ShredOptions::builder().bulk_load(false),
        )
        .unwrap();
        let store_bulk = Store::in_memory();
        let bulk = ShreddedDoc::shred_str(&store_bulk, FIG1A).unwrap();
        let types: Vec<TypeId> = bulk.types().ids().collect();
        assert_eq!(
            incremental.types().len(),
            bulk.types().len(),
            "same type table"
        );
        for &t in &types {
            assert_eq!(incremental.scan_type(t), bulk.scan_type(t));
        }
        assert_eq!(
            incremental.node_text(&"1.1.2.1".parse().unwrap()).unwrap(),
            bulk.node_text(&"1.1.2.1".parse().unwrap()).unwrap()
        );
    }

    // ---- persisted column segments ----

    #[test]
    fn cold_reopen_serves_persisted_columns() {
        let path = temp_path("persist-basic.db");
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        let t = ty(&doc, "data.book.title");
        let col = doc.column(t);
        // Unix file-backed stores serve the segment via mmap.
        assert_eq!(col.is_mapped(), store.supports_mmap());
        assert_eq!(doc.scan_type(t), doc.scan_type_btree(t).unwrap());
        assert!(doc.segment_fallbacks().is_empty(), "no fallback expected");
        if col.is_mapped() {
            assert!(doc.column_bytes().mapped > 0);
        }
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reshred_invalidates_old_segments() {
        // Shred twice into the same store; the second shred's columns
        // must win even where a first-generation segment still exists.
        let path = temp_path("persist-reshred.db");
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            store.close().unwrap();
        }
        {
            // Second shred with persistence off: old segments go stale
            // (generation bump) and must not serve the new data.
            let store = Store::open(&path).unwrap();
            ShreddedDoc::shred_str_with(
                &store,
                FIG1A,
                &ShredOptions::builder().persist_columns(false),
            )
            .unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        let t = ty(&doc, "data.book.title");
        let col = doc.column(t);
        assert!(!col.is_mapped(), "stale segment must not be served");
        assert!(
            doc.segment_fallbacks()
                .iter()
                .any(|f| f.contains("stale generation")),
            "fallback should name the stale segment: {:?}",
            doc.segment_fallbacks()
        );
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    /// `shape`'s blob in the earlier full-path format: the length of the
    /// type table, the table (the type count, then each type's path as a
    /// count of length-prefixed names), then each type's card and count.
    fn path_format_blob(shape: &AdornedShape) -> Vec<u8> {
        let types = shape.types();
        let mut table = (types.len() as u32).to_le_bytes().to_vec();
        for t in types.ids() {
            let path = types.path(t);
            table.extend_from_slice(&(path.len() as u32).to_le_bytes());
            for name in path {
                table.extend_from_slice(&(name.len() as u32).to_le_bytes());
                table.extend_from_slice(name.as_bytes());
            }
        }
        let mut out = (table.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&table);
        for t in types.ids() {
            out.extend_from_slice(&shape.card(t).to_bytes());
            out.extend_from_slice(&shape.instance_count(t).to_le_bytes());
        }
        out
    }

    #[test]
    fn a_shape_blob_in_the_old_path_format_fails_open_by_name() {
        let path = temp_path("path-format.db");
        {
            let store = Store::create(&path).unwrap();
            let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            let meta = store.open_tree("meta").unwrap();
            meta.insert(b"shape", &path_format_blob(doc.shape()))
                .unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let err = ShreddedDoc::open(&store).unwrap_err();
        assert!(
            err.to_string()
                .contains("adorned shape is in the old path format; re-shred the store"),
            "{err}"
        );
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persisted_columns_off_rebuilds() {
        let path = temp_path("persist-off.db");
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open_with(&store, &OpenOptions::builder().persisted_columns(false))
            .unwrap();
        let t = ty(&doc, "data.book.title");
        assert!(!doc.column(t).is_mapped());
        assert_eq!(doc.scan_type(t), doc.scan_type_btree(t).unwrap());
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn column_budget_evicts() {
        // A one-byte budget: each new column evicts the rest. A reopened
        // file store serves mapped segments, which count too.
        let path = temp_path("budget.db");
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            store.close().unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        doc.set_column_budget(Some(1));
        for t in doc.types().ids().collect::<Vec<_>>() {
            let _ = doc.column(t);
            assert!(doc.columns.read().unwrap().len() <= 1);
        }
        drop((doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_segment_falls_back_cleanly() {
        let path = temp_path("persist-corrupt.db");
        {
            let store = Store::create(&path).unwrap();
            ShreddedDoc::shred_str(&store, FIG1A).unwrap();
            store.close().unwrap();
        }
        // Flip a byte inside every persisted payload: segments start
        // after the fixed header with the magic, so corrupt by locating
        // each magic and damaging a byte far past the header.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let magic = crate::store::colseg::COLSEG_MAGIC_V2;
            let positions: Vec<usize> = bytes
                .windows(magic.len())
                .enumerate()
                .filter(|(_, w)| w == magic)
                .map(|(i, _)| i)
                .collect();
            assert!(!positions.is_empty(), "persisted segments present");
            for p in positions {
                let target = p + crate::store::colseg::COLSEG_HEADER;
                if target < bytes.len() {
                    bytes[target] ^= 0xff;
                }
            }
            std::fs::write(&path, &bytes).unwrap();
        }
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        let t = ty(&doc, "data.book.title");
        // Bytes still correct (rebuilt), fallback recorded.
        assert_eq!(doc.scan_type(t), doc.scan_type_btree(t).unwrap());
        assert!(
            !doc.segment_fallbacks().is_empty(),
            "corruption should be recorded"
        );
        drop((doc, store));
        // A query reads through a snapshot, never the document's cache:
        // a load the snapshot triggers must be recorded and counted too.
        let store = Store::open(&path).unwrap();
        let doc = ShreddedDoc::open(&store).unwrap();
        let snap = doc.snapshot();
        assert_eq!(snap.scan_type(t), doc.scan_type_btree(t).unwrap());
        assert!(
            !doc.segment_fallbacks().is_empty(),
            "a snapshot's fallback should be recorded on the document"
        );
        assert_eq!(doc.maintenance_stats().column_rebuilds, 1);
        assert!(doc.columns.read().unwrap().is_empty(), "cache untouched");
        drop((snap, doc, store));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn in_memory_shred_persists_nothing() {
        let store = Store::in_memory();
        ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        assert!(store.segment_names().unwrap().is_empty());
    }

    // ---- snapshot isolation ----

    #[test]
    fn snapshot_is_cached_until_a_mutation_publishes_a_new_epoch() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let s1 = doc.snapshot();
        let s2 = doc.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "same epoch → same published Arc");
        assert_eq!(s1.epoch(), 0);
        doc.update_text(&"1.1.1".parse().unwrap(), "Z").unwrap();
        let s3 = doc.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert!(s3.epoch() > s1.epoch());
    }

    #[test]
    fn snapshot_pins_pre_mutation_state() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let title = ty(&doc, "data.book.title");
        let author = ty(&doc, "data.book.author");
        let snap = doc.snapshot();
        doc.update_text(&"1.1.1".parse().unwrap(), "Z").unwrap();
        doc.delete_subtree(&"1.2.2".parse().unwrap()).unwrap();
        doc.insert_subtree(&"1.1".parse().unwrap(), "<award>w</award>")
            .unwrap();
        // The snapshot still reads epoch-0 everywhere, including types
        // it had not resolved when the mutations ran (cow_pin).
        let texts: Vec<String> = snap.scan_type(title).into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["X", "Y"]);
        assert_eq!(snap.instance_count(author), 2);
        assert!(snap.has_closest_child(&"1.2".parse().unwrap(), ty(&doc, "data.book"), author));
        assert!(snap
            .shape()
            .types()
            .lookup(&["data".into(), "book".into(), "award".into()])
            .is_none());
        // The document itself sees the post-mutation state.
        assert_eq!(doc.instance_count(author), 1);
        let now: Vec<String> = doc.scan_type(title).into_iter().map(|(_, t)| t).collect();
        assert_eq!(now, ["Z", "Y"]);
    }

    #[test]
    fn snapshot_lazily_loads_untouched_types_after_mutations() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let pub_name = ty(&doc, "data.book.publisher.name");
        let snap = doc.snapshot();
        // Mutate a disjoint type: publisher.name is neither pinned nor
        // resolved in the snapshot, so this read exercises the lazy
        // load path against the live trees — sound because the type
        // was never touched past the snapshot's epoch.
        doc.update_text(&"1.1.1".parse().unwrap(), "Z").unwrap();
        let texts: Vec<String> = snap
            .scan_type(pub_name)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(texts, ["W", "V"]);
    }

    #[test]
    fn snapshot_joins_match_btree_references_after_writes() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        // The references rescan the trees on every call, so they answer
        // what a freshly shredded document would.
        let check = |doc: &ShreddedDoc| {
            let snap = doc.snapshot();
            let types: Vec<TypeId> = snap.types().ids().collect();
            for &a in &types {
                let parents: Vec<Dewey> = snap.scan_type(a).into_iter().map(|(p, _)| p).collect();
                for &b in &types {
                    assert_eq!(
                        snap.type_distance_exact(a, b),
                        doc.type_distance_btree(a, b).unwrap(),
                        "distance {a:?}->{b:?}"
                    );
                    let want: Vec<Vec<(Dewey, String)>> = parents
                        .iter()
                        .map(|p| snap.closest_children_btree(p, a, b).unwrap())
                        .collect();
                    for (p, w) in parents.iter().zip(&want) {
                        assert_eq!(&snap.closest_children(p, a, b), w, "join {p} {a:?}->{b:?}");
                    }
                    let batch = match snap.closest_children_batch(&parents, a, b) {
                        Some((col, ranges)) => ranges.into_iter().map(|r| col.rows(r)).collect(),
                        None => vec![Vec::new(); parents.len()],
                    };
                    assert_eq!(batch, want, "batch {a:?}->{b:?}");
                }
            }
        };
        check(&doc);
        doc.insert_subtree(&"1.2".parse().unwrap(), "<award>prize</award>")
            .unwrap();
        check(&doc);
        doc.delete_subtree(&"1.1.3".parse().unwrap()).unwrap();
        check(&doc);
        doc.update_text(&"1.2.1".parse().unwrap(), "Z").unwrap();
        check(&doc);
    }

    #[test]
    fn republication_carries_forward_unmoved_columns() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let title = ty(&doc, "data.book.title");
        let pub_name = ty(&doc, "data.book.publisher.name");
        let s1 = doc.snapshot();
        let warm = s1.column(pub_name); // resolved on the old snapshot only
        doc.update_text(&"1.1.1".parse().unwrap(), "Z").unwrap();
        let s2 = doc.snapshot();
        // publisher.name didn't move: the new snapshot inherits the
        // very Arc the old one resolved. title moved: it must not.
        assert!(Arc::ptr_eq(&warm, &s2.column(pub_name)));
        let texts: Vec<String> = s2.scan_type(title).into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["Z", "Y"]);
        assert_eq!(
            s1.scan_type(title)
                .into_iter()
                .map(|(_, t)| t)
                .collect::<Vec<_>>(),
            ["X", "Y"]
        );
    }

    #[test]
    fn snapshots_share_the_shape_version_until_a_structural_write() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let shared = |a: &Snapshot, b: &Snapshot| Arc::ptr_eq(&a.version, &b.version);
        let s0 = doc.snapshot();
        doc.update_text(&"1.1.1".parse().unwrap(), "Z").unwrap();
        let s1 = doc.snapshot();
        assert!(s1.epoch() > s0.epoch());
        assert!(shared(&s0, &s1), "a text update keeps the shape version");
        // Fragments rejected before any edit leave the shape alone; the
        // update after them moves the epoch, so the next publication
        // really compares edit counts.
        assert!(doc
            .insert_subtree(&"1.1".parse().unwrap(), "<award>")
            .is_err());
        assert!(doc
            .insert_subtree_before(&"1.1".parse().unwrap(), "<book><title>")
            .is_err());
        doc.update_text(&"1.2.1".parse().unwrap(), "W").unwrap();
        let s2 = doc.snapshot();
        assert!(s2.epoch() > s1.epoch());
        assert!(
            shared(&s1, &s2),
            "a rejected fragment keeps the shape version"
        );
        type Write = fn(&mut ShreddedDoc);
        let writes: [(&str, Write); 3] = [
            ("insert", |doc| {
                doc.insert_subtree(&"1.1".parse().unwrap(), "<award>w</award>")
                    .unwrap();
            }),
            ("delete", |doc| {
                doc.delete_subtree(&"1.2.2".parse().unwrap()).unwrap();
            }),
            // The first book sits at ordinal 1: no gap, so it renumbers.
            ("insert-before", |doc| {
                doc.insert_subtree_before(&"1.1".parse().unwrap(), "<book><title>N</title></book>")
                    .unwrap();
            }),
        ];
        for (what, write) in writes {
            let before = doc.snapshot();
            write(&mut doc);
            let after = doc.snapshot();
            assert!(after.epoch() > before.epoch(), "{what}");
            assert!(
                !shared(&before, &after),
                "{what} must start a new shape version"
            );
        }
    }

    #[test]
    fn snapshot_survives_document_drop() {
        let store = Store::in_memory();
        let mut doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let title = ty(&doc, "data.book.title");
        doc.update_text(&"1.1.1".parse().unwrap(), "Z").unwrap();
        let snap = doc.snapshot();
        drop(doc);
        let texts: Vec<String> = snap.scan_type(title).into_iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["Z", "Y"]);
    }

    /// A document large enough that a 64 KiB run budget forces several
    /// spilled runs per stream.
    fn spill_sized_xml() -> String {
        let mut xml = String::from("<lib>");
        for i in 0..2000 {
            xml.push_str(&format!(
                "<book id=\"b{i}\"><title>T{i}</title><author><name>A{}</name></author></book>",
                i % 7
            ));
        }
        xml.push_str("</lib>");
        xml
    }

    /// The incremental shred: the reference the bulk path must match.
    fn incremental(store: &Store, xml: &str) -> ShreddedDoc {
        ShreddedDoc::shred_str_with(store, xml, &ShredOptions::builder().bulk_load(false)).unwrap()
    }

    #[test]
    fn streaming_shred_matches_in_memory() {
        let xml = spill_sized_xml();
        let inc = incremental(&Store::in_memory(), &xml);
        let store = Store::in_memory();
        let opts = ShredOptions::builder().memory_budget(64 * 1024);
        let st = ShreddedDoc::shred_str_with(&store, &xml, &opts).unwrap();

        let dump = |d: &ShreddedDoc| d.typeseq.scan_prefix(&[]).entries().unwrap();
        assert_eq!(dump(&inc), dump(&st));
        let title = ty(&inc, "lib.book.title");
        assert_eq!(inc.scan_type(title), st.scan_type(title));
        assert_eq!(inc.shape().to_bytes(), st.shape().to_bytes());
        // The spilled runs are gone once the shred completes.
        assert!(store
            .segment_entries()
            .unwrap()
            .iter()
            .all(|(n, _)| !n.starts_with(RUN_SEG_PREFIX)));
    }

    #[test]
    fn streaming_shred_persists_identical_segments() {
        let xml = spill_sized_xml();
        let p1 = temp_path("stream-inc.db");
        let p2 = temp_path("stream-ext.db");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        {
            let s1 = Store::open(&p1).unwrap();
            incremental(&s1, &xml);
            let s2 = Store::open(&p2).unwrap();
            let opts = ShredOptions::builder().memory_budget(64 * 1024);
            ShreddedDoc::shred_str_with(&s2, &xml, &opts).unwrap();
            for (name, _) in s1.segment_entries().unwrap() {
                let a = s1.get_segment(&name, false).unwrap().unwrap();
                let b = s2
                    .get_segment(&name, false)
                    .unwrap()
                    .unwrap_or_else(|| panic!("streaming shred missing segment {name}"));
                assert_eq!(&a[..], &b[..], "segment {name} differs");
            }
        }
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    /// The `(key, value)` records of one spilled run, in order.
    fn run_records(store: &Store, name: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
        let data = store.get_segment(name, false).unwrap().unwrap();
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < data.len() {
            let (k, v) = record_at(&data, pos).expect("whole record");
            pos = v.end;
            out.push((data[k].to_vec(), data[v].to_vec()));
        }
        out
    }

    #[test]
    fn torn_run_is_a_typed_error_and_leaves_no_runs() {
        let store = Store::in_memory();
        {
            let guard = RunGuard {
                store: &store,
                names: RefCell::new(Vec::new()),
            };
            let mut runs = RunSpiller::new(&store, &guard, "n", 4096);
            for i in 0u32..2000 {
                runs.push(&i.to_be_bytes(), b"some value").unwrap();
            }
            assert!(runs.runs.len() > 2, "the stream spilled");
            // Cut the second run short, mid-record.
            let name = runs.runs[1].clone();
            let data = store.get_segment(&name, false).unwrap().unwrap();
            store.put_segment(&name, &data[..data.len() - 3]).unwrap();
            let mut merge = runs.into_merge().unwrap();
            let loaded = store
                .open_tree("t")
                .unwrap()
                .bulk_load(&mut merge, DEFAULT_FILL);
            assert!(
                matches!(loaded, Err(StoreError::Corrupt(why)) if why.contains("cut short")),
                "a torn run must fail the load at its record: {loaded:?}"
            );
        }
        assert!(store
            .segment_entries()
            .unwrap()
            .iter()
            .all(|(n, _)| !n.starts_with(RUN_SEG_PREFIX)));
    }

    #[test]
    fn record_over_the_budget_spills_as_a_run_of_its_own() {
        let store = Store::in_memory();
        let guard = RunGuard {
            store: &store,
            names: RefCell::new(Vec::new()),
        };
        let big = vec![b'x'; 64 << 10];
        let mut runs = RunSpiller::new(&store, &guard, "t", 4096);
        for i in 0u32..300 {
            runs.push(&i.to_be_bytes(), b"small").unwrap();
        }
        runs.push(&300u32.to_be_bytes(), &big).unwrap();
        for i in 301u32..600 {
            runs.push(&i.to_be_bytes(), b"small").unwrap();
        }
        let spilled: Vec<_> = runs.runs.iter().map(|n| run_records(&store, n)).collect();
        assert!(spilled.iter().all(|run| !run.is_empty()), "no empty run");
        let alone: Vec<_> = spilled
            .iter()
            .filter(|run| run.iter().any(|(_, v)| *v == big))
            .collect();
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].len(), 1, "the big record is a run of its own");
        // Every record arrives once, in order, through the merge.
        let mut merge = runs.into_merge().unwrap();
        let mut keys = Vec::new();
        while let Some((k, _)) = merge.next().unwrap() {
            keys.push(u32::from_be_bytes(k.try_into().unwrap()));
        }
        assert_eq!(keys, (0u32..600).collect::<Vec<_>>());
    }

    #[test]
    fn text_over_the_budget_shreds_like_an_unbounded_shred() {
        let big = "y".repeat(64 << 10);
        let mut xml = String::from("<lib>");
        for i in 0..400 {
            xml.push_str(&format!("<book><title>T{i}</title></book>"));
            if i == 200 {
                xml.push_str(&format!("<book><title>{big}</title></book>"));
            }
        }
        xml.push_str("</lib>");
        let dump = |store: &Store, opts: &ShredOptions| {
            let d = ShreddedDoc::shred_str_with(store, &xml, opts).unwrap();
            (
                d.typeseq.scan_prefix(&[]).entries().unwrap(),
                d.shape().to_bytes(),
            )
        };
        let unbounded = dump(&Store::in_memory(), &ShredOptions::default());
        let store = Store::in_memory();
        let tight = dump(&store, &ShredOptions::builder().memory_budget(1));
        assert!(unbounded == tight, "the budget-1 shred differs");
        assert!(store
            .segment_entries()
            .unwrap()
            .iter()
            .all(|(n, _)| !n.starts_with(RUN_SEG_PREFIX)));
    }

    #[test]
    fn shred_reader_and_file_match_shred_str() {
        let mem = shredded(FIG1A);
        let title = ty(&mem, "data.book.title");

        let s1 = Store::in_memory();
        let d1 = ShreddedDoc::shred_reader(&s1, FIG1A.as_bytes()).unwrap();
        assert_eq!(mem.scan_type(title), d1.scan_type(title));

        let p = temp_path("reader-src.xml");
        std::fs::write(&p, FIG1A).unwrap();
        let s2 = Store::in_memory();
        let d2 = ShreddedDoc::shred_file(&s2, &p).unwrap();
        assert_eq!(mem.scan_type(title), d2.scan_type(title));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn snapshot_pins_are_accounted() {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let title = ty(&doc, "data.book.title");
        assert_eq!(doc.snapshot_pinned_bytes(), 0);

        // A column the snapshot resolves on its own is resident beyond
        // the document cache and must show up in the accounting.
        let snap = doc.snapshot();
        let col = snap.column(title);
        let bytes = col.heap_bytes() + col.mapped_bytes();
        assert!(bytes > 0);
        assert_eq!(doc.snapshot_pinned_bytes(), bytes);
        drop(col);
        drop(snap);

        // Columns whose `Arc` the snapshot shares with the cache are
        // already counted by `column_bytes` and must not double-count.
        let store2 = Store::in_memory();
        let doc2 = ShreddedDoc::shred_str(&store2, FIG1A).unwrap();
        let t2 = ty(&doc2, "data.book.title");
        let _ = doc2.column(t2);
        let snap2 = doc2.snapshot();
        let _ = snap2.column(t2);
        assert_eq!(doc2.snapshot_pinned_bytes(), 0);
    }

    #[test]
    fn column_budget_counts_snapshot_pins_as_spent() {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
        let title = ty(&doc, "data.book.title");
        let name = ty(&doc, "data.book.author.name");
        let snap = doc.snapshot();
        let pinned = {
            let c = snap.column(title);
            c.heap_bytes() + c.mapped_bytes()
        };
        assert!(pinned > 0);
        // The snapshot has already spent the whole budget, so the
        // cache shrinks to the single entry eviction never drops —
        // the column just touched.
        doc.set_column_budget(Some(pinned));
        let _ = doc.column(title);
        let _ = doc.column(name);
        let cached: Vec<TypeId> = doc.columns.read().unwrap().keys().copied().collect();
        assert_eq!(cached, vec![name]);
    }
}
