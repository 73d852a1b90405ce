//! A slotted-page B+tree with variable-length keys and values.
//!
//! ## Page layouts (all pages are [`crate::PAGE_SIZE`] bytes)
//!
//! **Leaf** (`tag = 1`)
//! ```text
//! 0      1        3            5           13       16
//! [tag] [nkeys:u16] [cell_start:u16] [next_leaf:u64] [pad] [slots: u16 × nkeys] ... cells
//! cell = [flags:u8][klen:u16][vlen:u32][key][value | overflow_head:u64]
//! ```
//! Cells are allocated from the page end downward; the slot array (sorted
//! by key) grows upward. `flags & 1` means the value lives in an overflow
//! chain and the cell body holds the 8-byte head page id, with `vlen`
//! giving the total value length.
//!
//! **Interior** (`tag = 2`)
//! ```text
//! [tag] [nkeys:u16] [cell_start:u16] [leftmost_child:u64] [pad] [slots] ... cells
//! cell = [klen:u16][child:u64][key]
//! ```
//! `leftmost_child` covers keys `< key[0]`; `child[i]` covers
//! `[key[i], key[i+1])`.
//!
//! **Overflow** (`tag = 3`): `[tag][next:u64][len:u16][data...]`.
//!
//! ## Behavioural notes
//!
//! * Replacing or deleting a value abandons its overflow chain; the tree
//!   never frees pages itself. Values over ~1,000 bytes are rare here,
//!   so the callers that can still abandon a chain are few: a full
//!   re-shred replacing the `meta["shape"]` blob, and a text update or
//!   delete of a node whose text is that long (`nodes` and `typeseq`
//!   values). The segment catalog's entries are far smaller, and a
//!   mutation's shape change is a small per-type row, not a blob
//!   rewrite. [`crate::Store::vacuum`] reclaims abandoned chains: it
//!   keeps only pages reachable from a catalogued tree.
//! * Deletion removes the slot without rebalancing; underfull and empty
//!   pages are permitted, searches and scans remain correct. The seeks
//!   ([`BTree::last_key_below`], [`BTree::count_range`]) step over empty
//!   leaves the same way scans do.
//! * Range scans materialize one leaf at a time, so a scan does not hold
//!   pool pages pinned. Mutating the tree during a scan is unsupported.

use crate::buffer::BufferPool;
use crate::error::{StoreError, StoreResult};
use crate::pager::PageId;
use crate::PAGE_SIZE;
use std::ops::Bound;

/// Maximum key length in bytes.
pub const MAX_KEY_LEN: usize = 512;

/// Default fraction of a page's usable space filled by
/// [`BTree::bulk_load`]. Below 1.0 so a lightly updated tree still
/// absorbs a few point inserts without immediate splits.
pub const DEFAULT_FILL: f64 = 0.9;

/// Values whose cell would exceed this many bytes spill to overflow pages.
const MAX_CELL: usize = 1000;

/// The key-sorted input of [`BTree::bulk_load`]: a lending iterator
/// whose pairs borrow the source until the next call, so an
/// out-of-core merge can hand its entries straight from its run
/// buffers to the loader without copying them. An error ends the load
/// with that error.
pub trait BulkSource {
    /// The next pair in key order, or `None` at the end of the input.
    fn next(&mut self) -> StoreResult<Option<(&[u8], &[u8])>>;
}

impl<S: BulkSource + ?Sized> BulkSource for &mut S {
    fn next(&mut self) -> StoreResult<Option<(&[u8], &[u8])>> {
        (**self).next()
    }
}

/// A [`BulkSource`] over owned `(key, value)` pairs — a `Vec` of them
/// or any other iterator.
pub struct OwnedPairs<I> {
    iter: I,
    cur: Option<(Vec<u8>, Vec<u8>)>,
}

impl<I: Iterator<Item = (Vec<u8>, Vec<u8>)>> OwnedPairs<I> {
    pub fn new(pairs: impl IntoIterator<IntoIter = I>) -> Self {
        OwnedPairs {
            iter: pairs.into_iter(),
            cur: None,
        }
    }
}

impl<I: Iterator<Item = (Vec<u8>, Vec<u8>)>> BulkSource for OwnedPairs<I> {
    fn next(&mut self) -> StoreResult<Option<(&[u8], &[u8])>> {
        self.cur = self.iter.next();
        Ok(self.cur.as_ref().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }
}

const TAG_LEAF: u8 = 1;
const TAG_INTERIOR: u8 = 2;
const TAG_OVERFLOW: u8 = 3;

const HDR: usize = 16;
const NIL: PageId = 0;

const FLAG_OVERFLOW: u8 = 1;

const OVERFLOW_HDR: usize = 11;
const OVERFLOW_DATA: usize = PAGE_SIZE - OVERFLOW_HDR;

/// Upper bound on root-to-leaf descent length. A healthy tree with
/// fanout ≥ 2 can't exceed 64 levels (that would need 2^64 entries), so
/// hitting the bound means a child pointer cycle — a torn page's stale
/// pointer aimed back up the tree — and the descent reports corruption
/// instead of looping forever.
const MAX_DEPTH: usize = 64;

// ---- little-endian helpers over raw pages ----

fn get_u16(p: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([p[off], p[off + 1]])
}

fn put_u16(p: &mut [u8], off: usize, v: u16) {
    p[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(p: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(p[off..off + 4].try_into().unwrap())
}

fn put_u32(p: &mut [u8], off: usize, v: u32) {
    p[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(p: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(p[off..off + 8].try_into().unwrap())
}

fn put_u64(p: &mut [u8], off: usize, v: u64) {
    p[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn tag(p: &[u8]) -> u8 {
    p[0]
}

fn nkeys(p: &[u8]) -> usize {
    get_u16(p, 1) as usize
}

fn set_nkeys(p: &mut [u8], n: usize) {
    put_u16(p, 1, n as u16)
}

fn cell_start(p: &[u8]) -> usize {
    get_u16(p, 3) as usize
}

fn set_cell_start(p: &mut [u8], v: usize) {
    put_u16(p, 3, v as u16)
}

fn slot(p: &[u8], i: usize) -> usize {
    get_u16(p, HDR + 2 * i) as usize
}

fn set_slot(p: &mut [u8], i: usize, off: usize) {
    put_u16(p, HDR + 2 * i, off as u16)
}

fn init_leaf(p: &mut [u8]) {
    p[..HDR].fill(0);
    p[0] = TAG_LEAF;
    set_cell_start(p, PAGE_SIZE);
}

fn init_interior(p: &mut [u8]) {
    p[..HDR].fill(0);
    p[0] = TAG_INTERIOR;
    set_cell_start(p, PAGE_SIZE);
}

fn next_leaf(p: &[u8]) -> PageId {
    get_u64(p, 5)
}

fn set_next_leaf(p: &mut [u8], id: PageId) {
    put_u64(p, 5, id)
}

fn leftmost_child(p: &[u8]) -> PageId {
    get_u64(p, 5)
}

fn set_leftmost_child(p: &mut [u8], id: PageId) {
    put_u64(p, 5, id)
}

// ---- leaf cells ----

/// Parsed view of a leaf cell.
struct LeafCell {
    key_start: usize,
    klen: usize,
    vlen: usize,
    overflow: bool,
}

fn leaf_cell(p: &[u8], off: usize) -> LeafCell {
    let flags = p[off];
    let klen = get_u16(p, off + 1) as usize;
    let vlen = get_u32(p, off + 3) as usize;
    LeafCell {
        key_start: off + 7,
        klen,
        vlen,
        overflow: flags & FLAG_OVERFLOW != 0,
    }
}

fn leaf_cell_key(p: &[u8], off: usize) -> &[u8] {
    let c = leaf_cell(p, off);
    &p[c.key_start..c.key_start + c.klen]
}

/// On-page size of a leaf cell holding `klen`/`stored_vlen` bytes.
fn leaf_cell_size(klen: usize, stored_vlen: usize) -> usize {
    7 + klen + stored_vlen
}

// ---- interior cells ----

fn interior_cell_key(p: &[u8], off: usize) -> &[u8] {
    let klen = get_u16(p, off) as usize;
    &p[off + 10..off + 10 + klen]
}

fn interior_cell_child(p: &[u8], off: usize) -> PageId {
    get_u64(p, off + 2)
}

fn interior_cell_size(klen: usize) -> usize {
    10 + klen
}

/// Free bytes between the slot array and the cell area.
fn free_space(p: &[u8]) -> usize {
    cell_start(p) - (HDR + 2 * nkeys(p))
}

/// Structural validation of a raw tree page, installed into the buffer
/// pool (see [`crate::buffer::BufferPool::set_page_check`]) so it runs
/// once per device load — cache misses only, never hits. A torn write
/// can persist any 512-byte prefix of a page over arbitrary stale
/// bytes, so every offset the accessors above dereference must be
/// proven in-bounds here; with that done once, the hot-path accessors
/// stay unchecked. An all-zero header passes as "uninitialized": bulk
/// load allocates all its pages before writing them, and an eviction in
/// between legitimately round-trips a zeroed page through the device.
pub(crate) fn validate_page(p: &[u8]) -> Result<(), &'static str> {
    if p.len() != PAGE_SIZE {
        return Err("tree page has wrong length");
    }
    match tag(p) {
        0 => {
            if nkeys(p) == 0 && cell_start(p) == 0 {
                Ok(())
            } else {
                Err("untagged page with nonzero header")
            }
        }
        TAG_LEAF | TAG_INTERIOR => {
            let n = nkeys(p);
            let cs = cell_start(p);
            if cs > PAGE_SIZE || cs < HDR + 2 * n {
                return Err("cell area overlaps slot array");
            }
            let is_leaf = tag(p) == TAG_LEAF;
            for i in 0..n {
                let off = slot(p, i);
                if off < cs {
                    return Err("slot points outside the cell area");
                }
                let end = if is_leaf {
                    if off + 7 > PAGE_SIZE {
                        return Err("leaf cell header out of bounds");
                    }
                    let c = leaf_cell(p, off);
                    let stored = if c.overflow { 8 } else { c.vlen };
                    off + leaf_cell_size(c.klen, stored)
                } else {
                    if off + 10 > PAGE_SIZE {
                        return Err("interior cell header out of bounds");
                    }
                    off + interior_cell_size(get_u16(p, off) as usize)
                };
                if end > PAGE_SIZE {
                    return Err("cell extends past the page");
                }
            }
            Ok(())
        }
        TAG_OVERFLOW => {
            if get_u16(p, 9) as usize > OVERFLOW_DATA {
                return Err("overflow chunk longer than a page");
            }
            Ok(())
        }
        _ => Err("unknown page tag"),
    }
}

/// Binary search the slot array. `Ok(i)` = exact match at slot `i`;
/// `Err(i)` = the key would sort at slot `i`.
fn search_slots(p: &[u8], key: &[u8], get_key: fn(&[u8], usize) -> &[u8]) -> Result<usize, usize> {
    let n = nkeys(p);
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let k = get_key(p, slot(p, mid));
        match k.cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// A B+tree rooted at a page, operating through a buffer pool. The root
/// page id may change on splits; [`BTree::root`] reports the current one.
#[derive(Debug)]
pub struct BTree<'a> {
    pool: &'a BufferPool,
    root: PageId,
}

/// Result of a recursive insert: `Some((separator, new_right_page))` when
/// the child split.
type SplitInfo = Option<(Vec<u8>, PageId)>;

impl<'a> BTree<'a> {
    /// Create an empty tree (allocates one leaf page).
    pub fn create(pool: &'a BufferPool) -> StoreResult<Self> {
        let root = pool.allocate()?;
        pool.write_with(root, init_leaf)?;
        Ok(BTree { pool, root })
    }

    /// Open an existing tree at `root`.
    pub fn open(pool: &'a BufferPool, root: PageId) -> Self {
        BTree { pool, root }
    }

    /// Build a tree bottom-up from key-sorted `(key, value)` pairs: one
    /// sequential pass packs leaf pages to `fill_factor` of their usable
    /// space (left to right, sibling-chained), stacking interior levels
    /// over the leaves' fence keys as it goes until a single root
    /// remains. Loading n entries costs O(n) page writes with zero
    /// splits, versus n root-to-leaf descents (with ~n/fanout splits)
    /// for repeated [`BTree::insert`] — and the leaves come out
    /// clustered in key order, so later range scans walk sequentially
    /// allocated pages.
    ///
    /// The build is **streaming**: each leaf is written the moment the
    /// next entry no longer fits it (its successor's page id is
    /// allocated first, so the sibling chain links forward), and each
    /// interior node the moment its child set is complete. Peak memory
    /// is one open node per tree level — the pairs iterator can
    /// therefore be an out-of-core merge producing far more entries
    /// than fit in memory. Pairs are borrowed from the source and copied
    /// once, into the open leaf: the loop allocates per page, not per
    /// entry.
    ///
    /// Keys must be strictly increasing (duplicates included) or the
    /// load aborts with [`StoreError::Corrupt`]; an error from the
    /// source aborts it with that error. `fill_factor` is clamped to
    /// `[0.5, 1.0]`; see [`DEFAULT_FILL`].
    pub fn bulk_load<S: BulkSource>(
        pool: &'a BufferPool,
        mut pairs: S,
        fill_factor: f64,
    ) -> StoreResult<Self> {
        let budget = (((PAGE_SIZE - HDR) as f64) * fill_factor.clamp(0.5, 1.0)) as usize;
        // One open node per interior level; `levels[0]` parents the
        // leaves. A node buffers its leftmost child and routing cells
        // until the next child no longer fits, then lands on a fresh
        // page in one copy (interior pages carry no sibling pointer, so
        // they can be written as soon as they are full).
        struct Node {
            first: Vec<u8>,
            leftmost: PageId,
            cells: Vec<Vec<u8>>,
            used: usize,
        }
        fn push_child(
            pool: &BufferPool,
            levels: &mut Vec<Option<Node>>,
            budget: usize,
            depth: usize,
            sep: Vec<u8>,
            child: PageId,
        ) -> StoreResult<()> {
            if levels.len() == depth {
                levels.push(None);
            }
            let size = interior_cell_size(sep.len()) + 2;
            match &mut levels[depth] {
                open @ None => {
                    *open = Some(Node {
                        first: sep,
                        leftmost: child,
                        cells: Vec::new(),
                        used: 0,
                    });
                }
                Some(node) if node.used + size <= budget => {
                    let mut cell = Vec::with_capacity(interior_cell_size(sep.len()));
                    cell.extend_from_slice(&(sep.len() as u16).to_le_bytes());
                    cell.extend_from_slice(&child.to_le_bytes());
                    cell.extend_from_slice(&sep);
                    node.used += size;
                    node.cells.push(cell);
                }
                Some(_) => {
                    let node = levels[depth].take().expect("open node");
                    let page = pool.allocate()?;
                    pool.write_with(page, |p| {
                        init_interior(p);
                        set_leftmost_child(p, node.leftmost);
                        rebuild_interior(p, &node.cells);
                    })?;
                    push_child(pool, levels, budget, depth + 1, node.first, page)?;
                    levels[depth] = Some(Node {
                        first: sep,
                        leftmost: child,
                        cells: Vec::new(),
                        used: 0,
                    });
                }
            }
            Ok(())
        }
        // The open leaf: raw cells serialized into one flat buffer
        // (plus per-cell sizes) so the loop allocates per leaf, not per
        // entry, and each leaf lands on its page as a single copy.
        struct LeafRun {
            first: Vec<u8>,
            flat: Vec<u8>,
            sizes: Vec<u16>,
        }
        let mut levels: Vec<Option<Node>> = Vec::new();
        let mut cur = LeafRun {
            first: Vec::new(),
            flat: Vec::new(),
            sizes: Vec::new(),
        };
        // Page reserved for `cur` by the previous leaf's sibling link.
        let mut cur_page: Option<PageId> = None;
        // The previous key, copied for the order check.
        let mut last_key: Option<Vec<u8>> = None;
        while let Some((key, value)) = pairs.next()? {
            if key.len() > MAX_KEY_LEN {
                return Err(StoreError::KeyTooLarge(key.len()));
            }
            match &mut last_key {
                Some(prev) if prev.as_slice() >= key => {
                    return Err(StoreError::Corrupt("bulk_load input not strictly sorted"));
                }
                Some(prev) => {
                    prev.clear();
                    prev.extend_from_slice(key);
                }
                None => last_key = Some(key.to_vec()),
            }
            let vlen = value.len();
            let head;
            let (stored, flags): (&[u8], u8) = if leaf_cell_size(key.len(), vlen) > MAX_CELL {
                head = write_overflow(pool, value)?.to_le_bytes();
                (&head, FLAG_OVERFLOW)
            } else {
                (value, 0u8)
            };
            let size = leaf_cell_size(key.len(), stored.len());
            if !cur.sizes.is_empty() && cur.flat.len() + size + 2 * (cur.sizes.len() + 1) > budget {
                // This entry opens the next leaf, so the full one can be
                // written now, sibling-chained to its successor's
                // freshly allocated page.
                let page = match cur_page.take() {
                    Some(p) => p,
                    None => pool.allocate()?,
                };
                let next = pool.allocate()?;
                let run = std::mem::replace(
                    &mut cur,
                    LeafRun {
                        first: Vec::new(),
                        flat: Vec::new(),
                        sizes: Vec::new(),
                    },
                );
                pool.write_with(page, |p| {
                    init_leaf(p);
                    set_next_leaf(p, next);
                    rebuild_leaf_flat(p, &run.flat, &run.sizes);
                })?;
                push_child(pool, &mut levels, budget, 0, run.first, page)?;
                cur_page = Some(next);
            }
            if cur.sizes.is_empty() {
                cur.first = key.to_vec();
            }
            cur.flat.push(flags);
            cur.flat
                .extend_from_slice(&(key.len() as u16).to_le_bytes());
            cur.flat.extend_from_slice(&(vlen as u32).to_le_bytes());
            cur.flat.extend_from_slice(key);
            cur.flat.extend_from_slice(stored);
            cur.sizes.push(size as u16);
        }
        if cur.sizes.is_empty() {
            // Empty input (a flush is always followed by the entry that
            // forced it, so a non-empty stream ends with an open leaf).
            return Self::create(pool);
        }
        let page = match cur_page.take() {
            Some(p) => p,
            None => pool.allocate()?,
        };
        pool.write_with(page, |p| {
            init_leaf(p);
            set_next_leaf(p, NIL);
            rebuild_leaf_flat(p, &cur.flat, &cur.sizes);
        })?;
        push_child(pool, &mut levels, budget, 0, cur.first, page)?;
        // Fold the open nodes upward; each level's remainder becomes a
        // child of the level above, and the top of the fold is the root.
        let mut depth = 0usize;
        loop {
            let node = levels[depth].take().expect("open node per level");
            if node.cells.is_empty() && depth + 1 >= levels.len() {
                // A single child at the top: it is the root itself.
                return Ok(BTree {
                    pool,
                    root: node.leftmost,
                });
            }
            let page = pool.allocate()?;
            pool.write_with(page, |p| {
                init_interior(p);
                set_leftmost_child(p, node.leftmost);
                rebuild_interior(p, &node.cells);
            })?;
            if depth + 1 >= levels.len() {
                return Ok(BTree { pool, root: page });
            }
            push_child(pool, &mut levels, budget, depth + 1, node.first, page)?;
            depth += 1;
        }
    }

    /// Current root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Add every page reachable from this tree — interior, leaf, and
    /// overflow pages — to `out`. This is vacuum's live-page analysis:
    /// any allocated page not reported by some catalogued tree (and not
    /// part of a live segment extent) is dead. Pages already in `out`
    /// are not re-walked.
    pub fn collect_pages(&self, out: &mut std::collections::BTreeSet<PageId>) -> StoreResult<()> {
        self.collect_rec(self.root, out)
    }

    fn collect_rec(
        &self,
        page: PageId,
        out: &mut std::collections::BTreeSet<PageId>,
    ) -> StoreResult<()> {
        if page == NIL || !out.insert(page) {
            return Ok(());
        }
        enum Kids {
            Children(Vec<PageId>),
            Overflows(Vec<PageId>),
            NotATreePage,
        }
        let kids = self.pool.read_with(page, |p| match tag(p) {
            TAG_INTERIOR => {
                let mut v = Vec::with_capacity(nkeys(p) + 1);
                v.push(leftmost_child(p));
                for i in 0..nkeys(p) {
                    v.push(interior_cell_child(p, slot(p, i)));
                }
                Kids::Children(v)
            }
            TAG_LEAF => {
                let mut v = Vec::new();
                for i in 0..nkeys(p) {
                    let c = leaf_cell(p, slot(p, i));
                    if c.overflow {
                        v.push(get_u64(p, c.key_start + c.klen));
                    }
                }
                Kids::Overflows(v)
            }
            _ => Kids::NotATreePage,
        })?;
        match kids {
            Kids::NotATreePage => {
                return Err(StoreError::Corrupt("tree walk reached a non-tree page"))
            }
            Kids::Children(children) => {
                for c in children {
                    self.collect_rec(c, out)?;
                }
            }
            Kids::Overflows(heads) => {
                for head in heads {
                    let mut page = head;
                    while page != NIL && out.insert(page) {
                        page = self.pool.read_with(page, |p| {
                            if tag(p) == TAG_OVERFLOW {
                                get_u64(p, 1)
                            } else {
                                NIL
                            }
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Insert or replace. Returns `true` if the key was new.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> StoreResult<bool> {
        if key.len() > MAX_KEY_LEN {
            return Err(StoreError::KeyTooLarge(key.len()));
        }
        // Spill large values to an overflow chain first.
        let inline: Vec<u8>;
        let (stored, flags, vlen) = if leaf_cell_size(key.len(), value.len()) > MAX_CELL {
            let head = write_overflow(self.pool, value)?;
            inline = head.to_le_bytes().to_vec();
            (&inline[..], FLAG_OVERFLOW, value.len())
        } else {
            (value, 0u8, value.len())
        };
        let (was_new, split) = self.insert_rec(self.root, key, stored, flags, vlen)?;
        if let Some((sep, right)) = split {
            let old_root = self.root;
            let new_root = self.pool.allocate()?;
            self.pool.write_with(new_root, |p| {
                init_interior(p);
                set_leftmost_child(p, old_root);
            })?;
            self.interior_insert_cell(new_root, &sep, right)?;
            self.root = new_root;
        }
        Ok(was_new)
    }

    /// Look up a key.
    pub fn get(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            enum Next {
                Child(PageId),
                Found(Option<Vec<u8>>, Option<(PageId, usize)>),
                NotATreePage,
            }
            let next = self.pool.read_with(page, |p| match tag(p) {
                TAG_INTERIOR => Next::Child(child_for_key(p, key)),
                TAG_LEAF => match search_slots(p, key, leaf_cell_key) {
                    Ok(i) => {
                        let off = slot(p, i);
                        let c = leaf_cell(p, off);
                        if c.overflow {
                            let head = get_u64(p, c.key_start + c.klen);
                            Next::Found(None, Some((head, c.vlen)))
                        } else {
                            let v = p[c.key_start + c.klen..c.key_start + c.klen + c.vlen].to_vec();
                            Next::Found(Some(v), None)
                        }
                    }
                    Err(_) => Next::Found(None, None),
                },
                _ => Next::NotATreePage,
            })?;
            match next {
                Next::Child(c) => page = c,
                Next::Found(v, None) => return Ok(v),
                Next::Found(_, Some((head, total))) => {
                    return Ok(Some(read_overflow(self.pool, head, total)?))
                }
                Next::NotATreePage => {
                    return Err(StoreError::Corrupt("descent reached a non-tree page"))
                }
            }
        }
        Err(StoreError::Corrupt("tree deeper than the descent bound"))
    }

    /// True if the key is present: one descent, no value read.
    pub fn contains(&self, key: &[u8]) -> StoreResult<bool> {
        let leaf = self.leaf_for(key)?;
        self.pool
            .read_with(leaf, |p| search_slots(p, key, leaf_cell_key).is_ok())
    }

    /// Remove a key. Returns `true` if it was present. Pages are not
    /// rebalanced (see module docs).
    pub fn delete(&mut self, key: &[u8]) -> StoreResult<bool> {
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            enum Next {
                Child(PageId),
                Done(bool),
                NotATreePage,
            }
            let next = self.pool.write_with(page, |p| match tag(p) {
                TAG_INTERIOR => Next::Child(child_for_key(p, key)),
                TAG_LEAF => match search_slots(p, key, leaf_cell_key) {
                    Ok(i) => {
                        remove_slots(p, i..i + 1);
                        Next::Done(true)
                    }
                    Err(_) => Next::Done(false),
                },
                _ => Next::NotATreePage,
            })?;
            match next {
                Next::Child(c) => page = c,
                Next::Done(found) => return Ok(found),
                Next::NotATreePage => {
                    return Err(StoreError::Corrupt("descent reached a non-tree page"))
                }
            }
        }
        Err(StoreError::Corrupt("tree deeper than the descent bound"))
    }

    /// The leaf whose key range covers `key`: one root-to-leaf descent.
    fn leaf_for(&self, key: &[u8]) -> StoreResult<PageId> {
        let mut page = self.root;
        for _ in 0..MAX_DEPTH {
            enum Down {
                Leaf,
                Child(PageId),
                NotATreePage,
            }
            let down = self.pool.read_with(page, |p| match tag(p) {
                TAG_INTERIOR => Down::Child(child_for_key(p, key)),
                TAG_LEAF => Down::Leaf,
                _ => Down::NotATreePage,
            })?;
            match down {
                Down::Leaf => return Ok(page),
                Down::Child(c) => page = c,
                Down::NotATreePage => {
                    return Err(StoreError::Corrupt("descent reached a non-tree page"))
                }
            }
        }
        Err(StoreError::Corrupt("tree deeper than the descent bound"))
    }

    /// The greatest key strictly below `upper` (`None`: the greatest
    /// key of the tree), or `None` when no key is that small. One
    /// root-to-leaf descent toward `upper`; because deletes never
    /// rebalance, the subtree it lands in may hold nothing below the
    /// bound (its leaves were emptied), and the search then backtracks
    /// into the next subtree to the left. Cost: O(depth) page reads plus
    /// one per emptied leaf skipped. No value is read.
    pub fn last_key_below(&self, upper: Option<&[u8]>) -> StoreResult<Option<Vec<u8>>> {
        let mut visits = 0u64;
        self.last_below_rec(self.root, upper, 0, &mut visits)
    }

    fn last_below_rec(
        &self,
        page: PageId,
        upper: Option<&[u8]>,
        depth: usize,
        visits: &mut u64,
    ) -> StoreResult<Option<Vec<u8>>> {
        // Both bounds turn a child-pointer cycle in a torn tree into a
        // typed error instead of an unbounded walk.
        *visits += 1;
        if depth >= MAX_DEPTH || *visits > self.pool.page_count() {
            return Err(StoreError::Corrupt("tree walk does not terminate"));
        }
        enum Node {
            Leaf(Option<Vec<u8>>),
            /// Children that can hold keys below the bound, leftmost first.
            Interior(Vec<PageId>),
            NotATreePage,
        }
        let node = self.pool.read_with(page, |p| {
            // Slots (leaf) or separators (interior) strictly below the
            // bound. An interior child right of those covers only keys
            // at or above it.
            let below = |get_key: fn(&[u8], usize) -> &[u8]| match upper {
                Some(u) => match search_slots(p, u, get_key) {
                    Ok(i) | Err(i) => i,
                },
                None => nkeys(p),
            };
            match tag(p) {
                TAG_LEAF => {
                    let i = below(leaf_cell_key);
                    Node::Leaf((i > 0).then(|| leaf_cell_key(p, slot(p, i - 1)).to_vec()))
                }
                TAG_INTERIOR => {
                    let n = below(interior_cell_key);
                    let mut kids = Vec::with_capacity(n + 1);
                    kids.push(leftmost_child(p));
                    kids.extend((0..n).map(|i| interior_cell_child(p, slot(p, i))));
                    Node::Interior(kids)
                }
                _ => Node::NotATreePage,
            }
        })?;
        match node {
            Node::Leaf(key) => Ok(key),
            Node::Interior(kids) => {
                for &child in kids.iter().rev() {
                    if let Some(key) = self.last_below_rec(child, upper, depth + 1, visits)? {
                        return Ok(Some(key));
                    }
                }
                Ok(None)
            }
            Node::NotATreePage => Err(StoreError::Corrupt("descent reached a non-tree page")),
        }
    }

    /// Number of keys in `[start, end)` (`end = None`: no upper bound)
    /// without materialising any of them: per leaf in range, two binary
    /// searches and a slot-count difference.
    pub fn count_range(&self, start: &[u8], end: Option<&[u8]>) -> StoreResult<u64> {
        let mut count = 0u64;
        self.walk_range(start, end, |_, span| {
            count += span.len() as u64;
            Ok(())
        })?;
        Ok(count)
    }

    /// Remove every key in `[start, end)` (`end = None`: no upper bound)
    /// and return the removed keys in order: each leaf in range is
    /// written once, instead of one descent per key. Like
    /// [`BTree::delete`], it leaves leaves unbalanced.
    pub fn delete_range(&mut self, start: &[u8], end: Option<&[u8]>) -> StoreResult<Vec<Vec<u8>>> {
        let mut removed = Vec::new();
        self.walk_range(start, end, |page, span| {
            if span.is_empty() {
                return Ok(());
            }
            self.pool.write_with(page, |p| {
                let keys = span.clone().map(|i| leaf_cell_key(p, slot(p, i)).to_vec());
                removed.extend(keys);
                remove_slots(p, span);
            })
        })?;
        Ok(removed)
    }

    /// Visit the leaves holding keys in `[start, end)` with each leaf's
    /// in-range slot span: one descent to `start`'s leaf, then per leaf
    /// two binary searches, following sibling links (over emptied
    /// leaves too) until a leaf holds a key at or past `end`. Keys are
    /// never materialised here.
    fn walk_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        mut visit: impl FnMut(PageId, std::ops::Range<usize>) -> StoreResult<()>,
    ) -> StoreResult<()> {
        let mut page = self.leaf_for(start)?;
        let mut hops = 0u64;
        loop {
            let step = self.pool.read_with(page, |p| {
                if tag(p) != TAG_LEAF {
                    return None;
                }
                let at = |key: &[u8]| match search_slots(p, key, leaf_cell_key) {
                    Ok(i) | Err(i) => i,
                };
                let n = nkeys(p);
                let hi = end.map_or(n, at);
                Some((at(start).min(hi)..hi, hi < n, next_leaf(p)))
            })?;
            let Some((span, ends_here, next)) = step else {
                return Err(StoreError::Corrupt("leaf chain reached a non-leaf page"));
            };
            visit(page, span)?;
            if ends_here || next == NIL {
                return Ok(());
            }
            hops += 1;
            if hops > self.pool.page_count() {
                return Err(StoreError::Corrupt("leaf sibling chain does not terminate"));
            }
            page = next;
        }
    }

    /// Ordered scan of `[start, end)` style bounds over (key, value)
    /// pairs. The descent to `start` waits for the scan's first step,
    /// so a failed descent is that step's error.
    pub fn range(&self, start: Bound<Vec<u8>>, end: Bound<Vec<u8>>) -> RangeIter<'a> {
        RangeIter {
            pool: self.pool,
            seek: Some((self.root, start)),
            leaf: NIL,
            buffered: Vec::new(),
            pos: 0,
            end,
            hops: 0,
        }
    }

    /// Number of entries — O(n), full scan.
    pub fn len(&self) -> StoreResult<usize> {
        let mut n = 0;
        let mut iter = self.range(Bound::Unbounded, Bound::Unbounded);
        while iter.next_key()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// True when the tree holds no entries — O(1) on the first leaf.
    pub fn is_empty(&self) -> StoreResult<bool> {
        let mut iter = self.range(Bound::Unbounded, Bound::Unbounded);
        Ok(iter.next_key()?.is_none())
    }

    // ---- internals ----

    fn insert_rec(
        &mut self,
        page: PageId,
        key: &[u8],
        stored: &[u8],
        flags: u8,
        vlen: usize,
    ) -> StoreResult<(bool, SplitInfo)> {
        let is_interior = self.pool.read_with(page, |p| tag(p) == TAG_INTERIOR)?;
        if is_interior {
            let child = self.pool.read_with(page, |p| child_for_key(p, key))?;
            let (was_new, split) = self.insert_rec(child, key, stored, flags, vlen)?;
            if let Some((sep, right)) = split {
                let own_split = self.interior_insert_cell(page, &sep, right)?;
                return Ok((was_new, own_split));
            }
            return Ok((was_new, None));
        }
        // Leaf insert.
        let cell_size = leaf_cell_size(key.len(), stored.len());
        let (fits, was_new) = self.pool.write_with(page, |p| {
            match search_slots(p, key, leaf_cell_key) {
                Ok(i) => {
                    // Replace: drop the old slot, then insert fresh below.
                    remove_slots(p, i..i + 1);
                    if free_or_compact(p, cell_size + 2) {
                        leaf_insert_at(p, i, key, stored, flags, vlen);
                        (true, false)
                    } else {
                        (false, false)
                    }
                }
                Err(i) => {
                    if free_or_compact(p, cell_size + 2) {
                        leaf_insert_at(p, i, key, stored, flags, vlen);
                        (true, true)
                    } else {
                        (false, true)
                    }
                }
            }
        })?;
        if fits {
            return Ok((was_new, None));
        }
        // Split the leaf, then retry the insert into the proper half.
        let (sep, right) = self.split_leaf(page)?;
        let target = if key < sep.as_slice() { page } else { right };
        let ok = self.pool.write_with(target, |p| {
            let i = match search_slots(p, key, leaf_cell_key) {
                Ok(i) => {
                    remove_slots(p, i..i + 1);
                    i
                }
                Err(i) => i,
            };
            if free_or_compact(p, cell_size + 2) {
                leaf_insert_at(p, i, key, stored, flags, vlen);
                true
            } else {
                false
            }
        })?;
        if !ok {
            return Err(StoreError::Corrupt("cell does not fit even after split"));
        }
        Ok((was_new, Some((sep, right))))
    }

    /// Split a full leaf; returns (separator, right page id).
    fn split_leaf(&mut self, page: PageId) -> StoreResult<(Vec<u8>, PageId)> {
        let right = self.pool.allocate()?;
        // Copy out all cells, split by half the bytes.
        let (cells, old_next) = self.pool.read_with(page, |p| {
            let mut cells: Vec<Vec<u8>> = Vec::with_capacity(nkeys(p));
            for i in 0..nkeys(p) {
                let off = slot(p, i);
                let c = leaf_cell(p, off);
                let stored = if c.overflow { 8 } else { c.vlen };
                cells.push(p[off..off + leaf_cell_size(c.klen, stored)].to_vec());
            }
            (cells, next_leaf(p))
        })?;
        let total: usize = cells.iter().map(|c| c.len() + 2).sum();
        let mut acc = 0usize;
        let mut cut = cells.len() / 2; // fallback for uniform cells
        for (i, c) in cells.iter().enumerate() {
            acc += c.len() + 2;
            if acc > total / 2 {
                cut = i + 1;
                break;
            }
        }
        cut = cut.clamp(1, cells.len() - 1);
        let sep = {
            let c = &cells[cut];
            let klen = get_u16(c, 1) as usize;
            c[7..7 + klen].to_vec()
        };
        let (left_cells, right_cells) = cells.split_at(cut);
        self.pool.write_with(page, |p| {
            init_leaf(p);
            set_next_leaf(p, right);
            rebuild_leaf(p, left_cells);
        })?;
        self.pool.write_with(right, |p| {
            init_leaf(p);
            set_next_leaf(p, old_next);
            rebuild_leaf(p, right_cells);
        })?;
        Ok((sep, right))
    }

    /// Insert a (separator, child) cell into an interior page, splitting
    /// it if necessary.
    fn interior_insert_cell(
        &mut self,
        page: PageId,
        sep: &[u8],
        child: PageId,
    ) -> StoreResult<SplitInfo> {
        let size = interior_cell_size(sep.len());
        let ok = self.pool.write_with(page, |p| {
            let i = match search_slots(p, sep, interior_cell_key) {
                Ok(i) => i,
                Err(i) => i,
            };
            if free_or_compact(p, size + 2) {
                interior_insert_at(p, i, sep, child);
                true
            } else {
                false
            }
        })?;
        if ok {
            return Ok(None);
        }
        // Split the interior page: promote the middle key.
        let right = self.pool.allocate()?;
        let cells = self.pool.read_with(page, |p| {
            let mut cells: Vec<Vec<u8>> = Vec::with_capacity(nkeys(p));
            for i in 0..nkeys(p) {
                let off = slot(p, i);
                let klen = get_u16(p, off) as usize;
                cells.push(p[off..off + interior_cell_size(klen)].to_vec());
            }
            cells
        })?;
        let mid = cells.len() / 2;
        let promoted_key = {
            let c = &cells[mid];
            let klen = get_u16(c, 0) as usize;
            c[10..10 + klen].to_vec()
        };
        let promoted_child = get_u64(&cells[mid], 2);
        let left_cells = &cells[..mid];
        let right_cells = &cells[mid + 1..];
        self.pool.write_with(page, |p| {
            let lm = leftmost_child(p);
            init_interior(p);
            set_leftmost_child(p, lm);
            rebuild_interior(p, left_cells);
        })?;
        self.pool.write_with(right, |p| {
            init_interior(p);
            set_leftmost_child(p, promoted_child);
            rebuild_interior(p, right_cells);
        })?;
        // Now insert the pending cell into the proper half.
        let target = if sep < promoted_key.as_slice() {
            page
        } else {
            right
        };
        let ok = self.pool.write_with(target, |p| {
            let i = match search_slots(p, sep, interior_cell_key) {
                Ok(i) => i,
                Err(i) => i,
            };
            if free_or_compact(p, size + 2) {
                interior_insert_at(p, i, sep, child);
                true
            } else {
                false
            }
        })?;
        if !ok {
            return Err(StoreError::Corrupt(
                "interior cell does not fit after split",
            ));
        }
        Ok(Some((promoted_key, right)))
    }
}

/// Rewrite every page-id reference in a raw tree page through `map`
/// (old id → new id): an interior page's leftmost child and routing
/// cells, a leaf's sibling link and overflow heads, an overflow page's
/// chain link. Ids absent from the map (including `NIL`) are untouched.
/// Returns `true` if anything changed. This is vacuum's relocation
/// fix-up — pages move on the device, then each survivor gets its
/// pointers re-aimed.
pub(crate) fn rewrite_page_pointers(
    p: &mut [u8],
    map: &std::collections::HashMap<PageId, PageId>,
) -> bool {
    let mut offs: Vec<usize> = Vec::new();
    match tag(p) {
        TAG_LEAF => {
            offs.push(5); // next_leaf
            for i in 0..nkeys(p) {
                let c = leaf_cell(p, slot(p, i));
                if c.overflow {
                    offs.push(c.key_start + c.klen);
                }
            }
        }
        TAG_INTERIOR => {
            offs.push(5); // leftmost_child
            for i in 0..nkeys(p) {
                offs.push(slot(p, i) + 2);
            }
        }
        TAG_OVERFLOW => offs.push(1),
        _ => {}
    }
    let mut changed = false;
    for off in offs {
        let old = get_u64(p, off);
        if old == NIL {
            continue;
        }
        if let Some(&new) = map.get(&old) {
            if new != old {
                put_u64(p, off, new);
                changed = true;
            }
        }
    }
    changed
}

/// Write `value` into a chain of overflow pages; returns the head.
fn write_overflow(pool: &BufferPool, value: &[u8]) -> StoreResult<PageId> {
    let mut chunks: Vec<&[u8]> = value.chunks(OVERFLOW_DATA).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    let pages: Vec<PageId> = (0..chunks.len())
        .map(|_| pool.allocate())
        .collect::<StoreResult<_>>()?;
    for (i, chunk) in chunks.iter().enumerate() {
        let next = pages.get(i + 1).copied().unwrap_or(NIL);
        pool.write_with(pages[i], |p| {
            p[0] = TAG_OVERFLOW;
            put_u64(p, 1, next);
            put_u16(p, 9, chunk.len() as u16);
            p[OVERFLOW_HDR..OVERFLOW_HDR + chunk.len()].copy_from_slice(chunk);
        })?;
    }
    Ok(pages[0])
}

fn read_overflow(pool: &BufferPool, head: PageId, total: usize) -> StoreResult<Vec<u8>> {
    let mut out = Vec::with_capacity(total);
    let mut page = head;
    while page != NIL && out.len() < total {
        let (next, chunk) = pool.read_with(page, |p| {
            if tag(p) != TAG_OVERFLOW {
                return (NIL, None);
            }
            let len = get_u16(p, 9) as usize;
            (
                get_u64(p, 1),
                Some(p[OVERFLOW_HDR..OVERFLOW_HDR + len].to_vec()),
            )
        })?;
        match chunk {
            Some(c) => out.extend_from_slice(&c),
            None => return Err(StoreError::Corrupt("broken overflow chain")),
        }
        page = next;
    }
    if out.len() != total {
        return Err(StoreError::Corrupt(
            "overflow chain shorter than recorded length",
        ));
    }
    Ok(out)
}

/// Interior routing: child page covering `key`.
fn child_for_key(p: &[u8], key: &[u8]) -> PageId {
    match search_slots(p, key, interior_cell_key) {
        Ok(i) => interior_cell_child(p, slot(p, i)),
        Err(0) => leftmost_child(p),
        Err(i) => interior_cell_child(p, slot(p, i - 1)),
    }
}

/// Drop the slots in `span`, closing the gap; the cells become garbage
/// for the next compaction.
fn remove_slots(p: &mut [u8], span: std::ops::Range<usize>) {
    let n = nkeys(p);
    for j in span.end..n {
        let v = slot(p, j);
        set_slot(p, j - span.len(), v);
    }
    set_nkeys(p, n - span.len());
}

/// Ensure at least `needed` free bytes, compacting the page if garbage
/// would make room. Returns false if the cell simply cannot fit.
fn free_or_compact(p: &mut [u8], needed: usize) -> bool {
    if free_space(p) >= needed {
        return true;
    }
    // Compute live bytes; compact if that would help.
    let n = nkeys(p);
    let is_leaf = tag(p) == TAG_LEAF;
    let mut cells: Vec<Vec<u8>> = Vec::with_capacity(n);
    let mut live = 0usize;
    for i in 0..n {
        let off = slot(p, i);
        let size = if is_leaf {
            let c = leaf_cell(p, off);
            let stored = if c.overflow { 8 } else { c.vlen };
            leaf_cell_size(c.klen, stored)
        } else {
            let klen = get_u16(p, off) as usize;
            interior_cell_size(klen)
        };
        live += size + 2;
        cells.push(p[off..off + size].to_vec());
    }
    if PAGE_SIZE - HDR - live < needed {
        return false;
    }
    if is_leaf {
        let nl = next_leaf(p);
        init_leaf(p);
        set_next_leaf(p, nl);
        rebuild_leaf(p, &cells);
    } else {
        let lm = leftmost_child(p);
        init_interior(p);
        set_leftmost_child(p, lm);
        rebuild_interior(p, &cells);
    }
    free_space(p) >= needed
}

/// Append a flat run of pre-serialized leaf cells (already sorted)
/// into a freshly initialized leaf: one block copy, then slot fixups.
/// Cells sit low-to-high in slot order — nothing in the page format
/// requires the descending layout the incremental path produces.
fn rebuild_leaf_flat(p: &mut [u8], flat: &[u8], sizes: &[u16]) {
    let base = cell_start(p) - flat.len();
    p[base..base + flat.len()].copy_from_slice(flat);
    let mut off = base;
    for (i, &sz) in sizes.iter().enumerate() {
        set_slot(p, i, off);
        off += sz as usize;
    }
    set_cell_start(p, base);
    set_nkeys(p, sizes.len());
}

/// Append raw leaf cells (already sorted) into a freshly initialized leaf.
fn rebuild_leaf(p: &mut [u8], cells: &[Vec<u8>]) {
    for (i, cell) in cells.iter().enumerate() {
        let start = cell_start(p) - cell.len();
        p[start..start + cell.len()].copy_from_slice(cell);
        set_cell_start(p, start);
        set_slot(p, i, start);
    }
    set_nkeys(p, cells.len());
}

fn rebuild_interior(p: &mut [u8], cells: &[Vec<u8>]) {
    for (i, cell) in cells.iter().enumerate() {
        let start = cell_start(p) - cell.len();
        p[start..start + cell.len()].copy_from_slice(cell);
        set_cell_start(p, start);
        set_slot(p, i, start);
    }
    set_nkeys(p, cells.len());
}

/// Insert a leaf cell at slot `i`. Caller must have ensured space.
fn leaf_insert_at(p: &mut [u8], i: usize, key: &[u8], stored: &[u8], flags: u8, vlen: usize) {
    let size = leaf_cell_size(key.len(), stored.len());
    let start = cell_start(p) - size;
    p[start] = flags;
    put_u16(p, start + 1, key.len() as u16);
    put_u32(p, start + 3, vlen as u32);
    p[start + 7..start + 7 + key.len()].copy_from_slice(key);
    p[start + 7 + key.len()..start + size].copy_from_slice(stored);
    set_cell_start(p, start);
    let n = nkeys(p);
    for j in (i..n).rev() {
        let v = slot(p, j);
        set_slot(p, j + 1, v);
    }
    set_slot(p, i, start);
    set_nkeys(p, n + 1);
}

fn interior_insert_at(p: &mut [u8], i: usize, key: &[u8], child: PageId) {
    let size = interior_cell_size(key.len());
    let start = cell_start(p) - size;
    put_u16(p, start, key.len() as u16);
    put_u64(p, start + 2, child);
    p[start + 10..start + 10 + key.len()].copy_from_slice(key);
    set_cell_start(p, start);
    let n = nkeys(p);
    for j in (i..n).rev() {
        let v = slot(p, j);
        set_slot(p, j + 1, v);
    }
    set_slot(p, i, start);
    set_nkeys(p, n + 1);
}

/// An ordered scan over key/value pairs, buffered one leaf at a time.
/// Every step returns a `StoreResult`: a read fault is an error at the
/// step that met it, never a scan that ends early.
pub struct RangeIter<'a> {
    pool: &'a BufferPool,
    /// The root and start bound of a scan that has not descended yet.
    seek: Option<(PageId, Bound<Vec<u8>>)>,
    leaf: PageId,
    buffered: Vec<(Vec<u8>, StoredValue)>,
    pos: usize,
    end: Bound<Vec<u8>>,
    /// Sibling links followed so far; more hops than allocated pages
    /// means the chain loops (a torn page's stale `next_leaf`).
    hops: u64,
}

enum StoredValue {
    Inline(Vec<u8>),
    Overflow { head: PageId, total: usize },
}

impl<'a> RangeIter<'a> {
    /// Descend to the first entry inside the start bound, on the first
    /// step. A failed descent stays pending, so the next step retries
    /// it rather than scan from nowhere.
    fn seek(&mut self) -> StoreResult<()> {
        let Some((root, start)) = self.seek.take() else {
            return Ok(());
        };
        let found = self.descend(root, &start);
        if found.is_err() {
            self.seek = Some((root, start));
        }
        found
    }

    fn descend(&mut self, root: PageId, start: &Bound<Vec<u8>>) -> StoreResult<()> {
        let start_key: &[u8] = match start {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        };
        self.hops = 0;
        self.leaf = BTree::open(self.pool, root).leaf_for(start_key)?;
        self.fill_from_leaf()?;
        // Every later leaf holds only keys above the start.
        self.pos = self.buffered.partition_point(|(k, _)| match start {
            Bound::Included(s) => k < s,
            Bound::Excluded(s) => k <= s,
            Bound::Unbounded => false,
        });
        Ok(())
    }

    /// Buffer the current leaf's cells (keys + stored value descriptors).
    fn fill_from_leaf(&mut self) -> StoreResult<()> {
        self.buffered.clear();
        self.pos = 0;
        if self.leaf == NIL {
            return Ok(());
        }
        let entries = self.pool.read_with(self.leaf, |p| {
            if tag(p) != TAG_LEAF {
                return None;
            }
            let mut out = Vec::with_capacity(nkeys(p));
            for i in 0..nkeys(p) {
                let off = slot(p, i);
                let c = leaf_cell(p, off);
                let key = p[c.key_start..c.key_start + c.klen].to_vec();
                let val = if c.overflow {
                    StoredValue::Overflow {
                        head: get_u64(p, c.key_start + c.klen),
                        total: c.vlen,
                    }
                } else {
                    StoredValue::Inline(
                        p[c.key_start + c.klen..c.key_start + c.klen + c.vlen].to_vec(),
                    )
                };
                out.push((key, val));
            }
            Some(out)
        })?;
        match entries {
            Some(entries) => {
                self.buffered = entries;
                Ok(())
            }
            None => Err(StoreError::Corrupt("leaf chain reached a non-leaf page")),
        }
    }

    /// Move to the next leaf with cells, skipping empty leaves (possible
    /// after heavy deletion).
    fn advance_leaf(&mut self) -> StoreResult<()> {
        while self.leaf != NIL {
            self.hop()?;
            self.leaf = self.pool.read_with(self.leaf, next_leaf)?;
            self.fill_from_leaf()?;
            if !self.buffered.is_empty() {
                break;
            }
        }
        Ok(())
    }

    fn hop(&mut self) -> StoreResult<()> {
        self.hops += 1;
        if self.hops > self.pool.page_count() {
            return Err(StoreError::Corrupt("leaf sibling chain does not terminate"));
        }
        Ok(())
    }

    /// Every entry left in the scan, or the first read error.
    pub fn entries(mut self) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        while let Some(entry) = self.next_entry()? {
            out.push(entry);
        }
        Ok(out)
    }

    /// Pull the next entry, resolving overflow values.
    pub fn next_entry(&mut self) -> StoreResult<Option<(Vec<u8>, Vec<u8>)>> {
        if !self.ready()? {
            return Ok(None);
        }
        // The value first: a failed overflow read leaves the entry to retry.
        let value = match &mut self.buffered[self.pos].1 {
            StoredValue::Inline(v) => std::mem::take(v),
            StoredValue::Overflow { head, total } => read_overflow(self.pool, *head, *total)?,
        };
        let key = std::mem::take(&mut self.buffered[self.pos].0);
        self.pos += 1;
        Ok(Some((key, value)))
    }

    /// Pull the next entry's key only, leaving the value untouched (no
    /// value clone, overflow chains never followed). Key-merge scans —
    /// the co-occurrence pass behind `typeDistance` — compare keys
    /// alone, so this skips one value allocation per step.
    pub fn next_key(&mut self) -> StoreResult<Option<Vec<u8>>> {
        if !self.ready()? {
            return Ok(None);
        }
        self.pos += 1;
        Ok(Some(std::mem::take(&mut self.buffered[self.pos - 1].0)))
    }

    /// Make the next entry the buffered one at `pos`, reading leaves as
    /// needed; `false` at the end of the scan.
    fn ready(&mut self) -> StoreResult<bool> {
        self.seek()?;
        if self.pos >= self.buffered.len() && self.leaf != NIL {
            self.advance_leaf()?;
        }
        let Some((key, _)) = self.buffered.get(self.pos) else {
            return Ok(false);
        };
        Ok(match &self.end {
            Bound::Included(e) => key <= e,
            Bound::Excluded(e) => key < e,
            Bound::Unbounded => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use crate::stats::IoStats;
    use crate::storage::MemStorage;

    fn pool() -> BufferPool {
        let pager = Pager::new(Box::new(MemStorage::new()), IoStats::new()).unwrap();
        BufferPool::new(pager, 64)
    }

    #[test]
    fn insert_get_single() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        assert!(t.insert(b"k", b"v").unwrap());
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert_eq!(t.get(b"missing").unwrap(), None);
    }

    #[test]
    fn replace_value() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        assert!(t.insert(b"k", b"v1").unwrap());
        assert!(!t.insert(b"k", b"v2").unwrap());
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn many_inserts_split_and_survive() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let n = 5000u32;
        for i in 0..n {
            let k = format!("key-{:08}", i * 7919 % n);
            let v = format!("value-{i}");
            t.insert(k.as_bytes(), v.as_bytes()).unwrap();
        }
        assert_ne!(t.root(), 1, "root must have split");
        for i in 0..n {
            let k = format!("key-{:08}", i);
            assert!(t.get(k.as_bytes()).unwrap().is_some(), "missing {k}");
        }
        assert_eq!(t.len().unwrap(), n as usize);
    }

    #[test]
    fn range_scan_is_sorted_and_complete() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in (0..1000u32).rev() {
            t.insert(format!("{i:05}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let keys: Vec<Vec<u8>> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys.len(), 1000);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn bounded_range_scan() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..100u32 {
            t.insert(format!("{i:03}").as_bytes(), b"x").unwrap();
        }
        let got: Vec<String> = t
            .range(
                Bound::Included(b"010".to_vec()),
                Bound::Excluded(b"015".to_vec()),
            )
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(got, vec!["010", "011", "012", "013", "014"]);
    }

    #[test]
    fn prefix_style_scan() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        t.insert(b"a/1", b"").unwrap();
        t.insert(b"a/2", b"").unwrap();
        t.insert(b"b/1", b"").unwrap();
        let got: Vec<Vec<u8>> = t
            .range(
                Bound::Included(b"a/".to_vec()),
                Bound::Excluded(b"a0".to_vec()),
            )
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(got, vec![b"a/1".to_vec(), b"a/2".to_vec()]);
    }

    #[test]
    fn large_values_use_overflow() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let big = vec![7u8; 100_000];
        t.insert(b"big", &big).unwrap();
        t.insert(b"small", b"s").unwrap();
        assert_eq!(t.get(b"big").unwrap().unwrap(), big);
        // Overflow values also come back through scans.
        let all: Vec<(Vec<u8>, Vec<u8>)> = t
            .range(Bound::Unbounded, Bound::Unbounded)
            .entries()
            .unwrap();
        assert_eq!(all[0].1.len(), 100_000);
        assert_eq!(all[1].1, b"s");
    }

    #[test]
    fn empty_value_ok() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        t.insert(b"k", b"").unwrap();
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn delete_removes_and_scan_skips() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..50u32 {
            t.insert(format!("{i:02}").as_bytes(), b"x").unwrap();
        }
        assert!(t.delete(b"25").unwrap());
        assert!(!t.delete(b"25").unwrap());
        assert_eq!(t.get(b"25").unwrap(), None);
        assert_eq!(t.len().unwrap(), 49);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..500u32 {
            t.insert(&i.to_be_bytes(), b"v").unwrap();
        }
        for i in 0..500u32 {
            assert!(t.delete(&i.to_be_bytes()).unwrap());
        }
        assert!(t.is_empty().unwrap());
        for i in 0..500u32 {
            t.insert(&i.to_be_bytes(), b"v2").unwrap();
        }
        assert_eq!(t.len().unwrap(), 500);
        assert_eq!(
            t.get(&42u32.to_be_bytes()).unwrap().as_deref(),
            Some(&b"v2"[..])
        );
    }

    #[test]
    fn key_too_large_rejected() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let k = vec![1u8; MAX_KEY_LEN + 1];
        assert!(matches!(
            t.insert(&k, b"v"),
            Err(StoreError::KeyTooLarge(_))
        ));
    }

    #[test]
    fn max_len_key_accepted() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        let k = vec![1u8; MAX_KEY_LEN];
        t.insert(&k, b"v").unwrap();
        assert!(t.contains(&k).unwrap());
    }

    #[test]
    fn interleaved_sizes_force_varied_splits() {
        let pool = pool();
        let mut t = BTree::create(&pool).unwrap();
        for i in 0..800u32 {
            let k = format!("k{:06}", i);
            let v = vec![b'v'; (i as usize % 500) + 1];
            t.insert(k.as_bytes(), &v).unwrap();
        }
        for i in 0..800u32 {
            let k = format!("k{:06}", i);
            let v = t.get(k.as_bytes()).unwrap().unwrap();
            assert_eq!(v.len(), (i as usize % 500) + 1);
        }
    }

    #[test]
    fn sequential_and_reverse_insert_orders() {
        for reverse in [false, true] {
            let pool = pool();
            let mut t = BTree::create(&pool).unwrap();
            let mut ids: Vec<u32> = (0..2000).collect();
            if reverse {
                ids.reverse();
            }
            for i in ids {
                t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            let keys: Vec<Vec<u8>> = t
                .range(Bound::Unbounded, Bound::Unbounded)
                .entries()
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            assert_eq!(keys.len(), 2000);
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
