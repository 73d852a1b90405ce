//! Page-image write-ahead log: record format and recovery replay.
//!
//! The WAL lives *inside* the database device, in a fixed extent right
//! after the meta page, so the one `Storage` the store already owns (and
//! the fault-injection layer already intercepts) carries the log too:
//!
//! ```text
//! page 0        meta page (magic, catalog, free list)
//! page 1        WAL header: magic, record-region size, checksum
//! pages 2..2+N  WAL record region (append-only byte stream)
//! pages 2+N..   data pages (trees, overflow chains, segment extents)
//! ```
//!
//! The record region is an append-only stream of checksummed records:
//!
//! ```text
//! offset  size  field
//!      0     8  record magic "XMWALR01"
//!      8     8  lsn   (u64 LE, consecutive within a run)
//!     16     8  epoch (u64 LE, constant within a run)
//!     24     8  page id the image belongs to (0 for commit records)
//!     32     8  payload length (PAGE_SIZE for images, 0 for commits)
//!     40     1  kind: 1 = page image, 2 = commit
//!     41    15  zero padding
//!     56     8  FNV-1a-64 over header[0..56] ++ payload
//! ```
//!
//! A transaction batch is a run of image records followed by exactly one
//! commit record, appended with a single `write_at` and made durable with
//! one `sync` — that sync *is* the commit point. Replay scans from the
//! head of the region, buffers image records, and applies them to their
//! home pages only when it reaches the batch's commit record; anything
//! after the last valid commit — a torn record, a checksum mismatch, an
//! epoch or LSN discontinuity — is an uncommitted tail and is discarded.
//! Replay never writes into the WAL region itself, so running it twice
//! over the same device is idempotent by construction.
//!
//! The epoch counter makes checkpoint truncation safe without erasing
//! the whole region: a checkpoint zeroes only the first record header
//! (one 64-byte write) and bumps the epoch, so stale deeper records from
//! the previous run fail the epoch/LSN continuity check and read as
//! tail debris.

use crate::checksum::{fnv1a64, fnv1a64_parts};
use crate::error::{StoreError, StoreResult};
use crate::pager::PageId;
use crate::storage::Storage;
use crate::PAGE_SIZE;

/// Page holding the WAL header (written once at store creation).
pub const WAL_HEADER_PAGE: PageId = 1;

/// Magic prefix of the WAL header page.
pub const WAL_HEADER_MAGIC: &[u8; 8] = b"XMWALHD1";

/// Magic prefix of every WAL record.
const RECORD_MAGIC: &[u8; 8] = b"XMWALR01";

/// Fixed size of a record header.
pub const RECORD_HEADER_LEN: usize = 64;

/// Default size of the record region, in pages (4 MiB at 4 KiB pages).
pub const DEFAULT_WAL_RECORD_PAGES: u64 = 1024;

/// Record kind: a full page image.
pub const KIND_IMAGE: u8 = 1;

/// Record kind: a commit marker sealing the images before it.
pub const KIND_COMMIT: u8 = 2;

/// Upper sanity bound on the record-region size (4 GiB).
const MAX_RECORD_PAGES: u64 = 1 << 20;

/// Geometry of the WAL extent within the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalLayout {
    /// Pages in the record region (excluding the header page).
    pub record_pages: u64,
}

impl WalLayout {
    /// Byte offset of the first record (the head).
    pub fn first_record_off(&self) -> u64 {
        (WAL_HEADER_PAGE + 1) * PAGE_SIZE as u64
    }

    /// One past the last byte of the record region.
    pub fn end_off(&self) -> u64 {
        self.first_record_off() + self.record_pages * PAGE_SIZE as u64
    }

    /// First page id outside the WAL extent — where data pages begin.
    pub fn first_data_page(&self) -> PageId {
        WAL_HEADER_PAGE + 1 + self.record_pages
    }
}

/// Serialize the WAL header page: magic, record-region size, checksum.
pub fn encode_header_page(record_pages: u64) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    page[0..8].copy_from_slice(WAL_HEADER_MAGIC);
    page[8..16].copy_from_slice(&record_pages.to_le_bytes());
    let sum = fnv1a64(&page[0..16]);
    page[16..24].copy_from_slice(&sum.to_le_bytes());
    page
}

/// Parse a WAL header page, returning the record-region size. `None`
/// means "this is not a WAL header" — the store has no WAL (a pre-WAL
/// file) and page 1 is an ordinary data page.
pub fn decode_header_page(page: &[u8]) -> Option<u64> {
    if page.len() < 24 || &page[0..8] != WAL_HEADER_MAGIC {
        return None;
    }
    let sum = u64::from_le_bytes(page[16..24].try_into().unwrap());
    if fnv1a64(&page[0..16]) != sum {
        return None;
    }
    let record_pages = u64::from_le_bytes(page[8..16].try_into().unwrap());
    if record_pages == 0 || record_pages > MAX_RECORD_PAGES {
        return None;
    }
    Some(record_pages)
}

fn push_record(out: &mut Vec<u8>, lsn: u64, epoch: u64, page_id: PageId, kind: u8, payload: &[u8]) {
    let mut hdr = [0u8; RECORD_HEADER_LEN];
    hdr[0..8].copy_from_slice(RECORD_MAGIC);
    hdr[8..16].copy_from_slice(&lsn.to_le_bytes());
    hdr[16..24].copy_from_slice(&epoch.to_le_bytes());
    hdr[24..32].copy_from_slice(&page_id.to_le_bytes());
    hdr[32..40].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    hdr[40] = kind;
    let sum = fnv1a64_parts(&[&hdr[0..56], payload]);
    hdr[56..64].copy_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&hdr);
    out.extend_from_slice(payload);
}

/// Serialize one transaction batch: an image record per `(page, bytes)`
/// pair, then a single commit record. LSNs start at `start_lsn` and the
/// caller advances its counter by `images.len() + 1`.
pub fn encode_batch(images: &[(PageId, &[u8])], epoch: u64, start_lsn: u64) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(images.len() * (RECORD_HEADER_LEN + PAGE_SIZE) + RECORD_HEADER_LEN);
    let mut lsn = start_lsn;
    for &(page, bytes) in images {
        debug_assert_eq!(bytes.len(), PAGE_SIZE);
        push_record(&mut out, lsn, epoch, page, KIND_IMAGE, bytes);
        lsn += 1;
    }
    push_record(&mut out, lsn, epoch, 0, KIND_COMMIT, &[]);
    out
}

/// What replay found and did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    /// Valid records scanned (committed or not).
    pub records_seen: u64,
    /// Commit records whose batches were applied.
    pub commits_applied: u64,
    /// Page images written back to their home pages.
    pub images_applied: u64,
    /// Epoch the next run must use (last seen + 1; 1 on an empty log).
    pub next_epoch: u64,
    /// True when the head record bytes are not all-zero — the opener
    /// must zero the head (and sync) before appending, so stale records
    /// can never chain onto the new run.
    pub head_dirty: bool,
}

/// Scan the record region and apply every committed batch to its home
/// pages. Stops at the first invalid record (bad magic, bad checksum,
/// malformed shape, epoch/LSN discontinuity, overrun) — everything from
/// there on is an uncommitted or torn tail. Buffered images of a batch
/// whose commit record never appears are discarded. The WAL region
/// itself is never written, so replay is idempotent.
pub fn replay(storage: &mut dyn Storage, layout: &WalLayout) -> StoreResult<ReplayOutcome> {
    let mut off = layout.first_record_off();
    let end = layout.end_off();
    let mut out = ReplayOutcome {
        next_epoch: 1,
        ..ReplayOutcome::default()
    };
    {
        let mut head = [0u8; RECORD_HEADER_LEN];
        storage.read_at(off, &mut head)?;
        out.head_dirty = head.iter().any(|&b| b != 0);
    }
    let mut pending: Vec<(PageId, Vec<u8>)> = Vec::new();
    let mut run: Option<(u64, u64)> = None; // (epoch, next expected lsn)
    loop {
        if off + RECORD_HEADER_LEN as u64 > end {
            break;
        }
        let mut hdr = [0u8; RECORD_HEADER_LEN];
        storage.read_at(off, &mut hdr)?;
        if &hdr[0..8] != RECORD_MAGIC {
            break;
        }
        let lsn = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
        let epoch = u64::from_le_bytes(hdr[16..24].try_into().unwrap());
        let page_id = u64::from_le_bytes(hdr[24..32].try_into().unwrap());
        let plen = u64::from_le_bytes(hdr[32..40].try_into().unwrap());
        let kind = hdr[40];
        let shape_ok = match kind {
            KIND_IMAGE => plen == PAGE_SIZE as u64,
            KIND_COMMIT => plen == 0,
            _ => false,
        };
        if !shape_ok || off + RECORD_HEADER_LEN as u64 + plen > end {
            break;
        }
        let mut payload = vec![0u8; plen as usize];
        if plen > 0 {
            storage.read_at(off + RECORD_HEADER_LEN as u64, &mut payload)?;
        }
        let sum = u64::from_le_bytes(hdr[56..64].try_into().unwrap());
        if fnv1a64_parts(&[&hdr[0..56], &payload]) != sum {
            break;
        }
        match run {
            Some((e, next_lsn)) if epoch != e || lsn != next_lsn => break,
            _ => {}
        }
        run = Some((epoch, lsn + 1));
        out.records_seen += 1;
        if kind == KIND_IMAGE {
            // Images may target the meta page or any data page, never
            // the WAL extent itself; a checksummed record pointing into
            // the log is debris from a layout change — stop there.
            let in_wal = page_id != 0 && page_id < layout.first_data_page();
            let Some(home) = page_id.checked_mul(PAGE_SIZE as u64) else {
                break;
            };
            if in_wal {
                break;
            }
            let _ = home;
            pending.push((page_id, payload));
        } else {
            for (pid, img) in pending.drain(..) {
                storage.write_at(pid * PAGE_SIZE as u64, &img)?;
                out.images_applied += 1;
            }
            out.commits_applied += 1;
        }
        off += RECORD_HEADER_LEN as u64 + plen;
    }
    if out.commits_applied > 0 {
        storage.sync()?;
    }
    out.next_epoch = match run {
        Some((e, _)) => e
            .checked_add(1)
            .ok_or(StoreError::Corrupt("wal epoch overflow"))?,
        None => 1,
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn layout() -> WalLayout {
        WalLayout { record_pages: 8 }
    }

    fn img(b: u8) -> Vec<u8> {
        vec![b; PAGE_SIZE]
    }

    fn append(dev: &mut MemStorage, off: u64, bytes: &[u8]) -> u64 {
        dev.write_at(off, bytes).unwrap();
        off + bytes.len() as u64
    }

    fn page_at(dev: &mut MemStorage, id: PageId) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        dev.read_at(id * PAGE_SIZE as u64, &mut buf).unwrap();
        buf
    }

    #[test]
    fn header_page_round_trips() {
        let page = encode_header_page(1024);
        assert_eq!(decode_header_page(&page), Some(1024));
        // A torn header (flipped byte) is "no WAL", not an error.
        let mut torn = page.clone();
        torn[9] ^= 0xff;
        assert_eq!(decode_header_page(&torn), None);
        assert_eq!(decode_header_page(&vec![0u8; PAGE_SIZE]), None);
    }

    #[test]
    fn committed_batch_is_applied_on_replay() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let first_data = lay.first_data_page();
        let batch = encode_batch(
            &[(first_data, &img(0xAA)), (first_data + 3, &img(0xBB))],
            1,
            0,
        );
        append(&mut dev, lay.first_record_off(), &batch);
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.commits_applied, 1);
        assert_eq!(out.images_applied, 2);
        assert_eq!(out.next_epoch, 2);
        assert!(out.head_dirty);
        assert_eq!(page_at(&mut dev, first_data), img(0xAA));
        assert_eq!(page_at(&mut dev, first_data + 3), img(0xBB));
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let p = lay.first_data_page();
        let committed = encode_batch(&[(p, &img(0x11))], 1, 0);
        let off = append(&mut dev, lay.first_record_off(), &committed);
        // A second batch whose commit record is missing: images only.
        let mut tail = Vec::new();
        push_record(&mut tail, 2, 1, p, KIND_IMAGE, &img(0x22));
        append(&mut dev, off, &tail);
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.commits_applied, 1);
        assert_eq!(page_at(&mut dev, p), img(0x11), "uncommitted image applied");
    }

    #[test]
    fn torn_record_stops_the_scan() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let p = lay.first_data_page();
        let b1 = encode_batch(&[(p, &img(0x11))], 1, 0);
        let off = append(&mut dev, lay.first_record_off(), &b1);
        let b2 = encode_batch(&[(p, &img(0x22))], 1, 2);
        // Tear the second batch mid-payload (sector-aligned prefix).
        append(&mut dev, off, &b2[..512]);
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.commits_applied, 1);
        assert_eq!(page_at(&mut dev, p), img(0x11));
    }

    #[test]
    fn epoch_mismatch_reads_as_tail_debris() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let p = lay.first_data_page();
        // New run (epoch 2) at the head, old-epoch debris right after.
        let fresh = encode_batch(&[(p, &img(0x33))], 2, 0);
        let off = append(&mut dev, lay.first_record_off(), &fresh);
        let debris = encode_batch(&[(p + 1, &img(0x44))], 1, 7);
        append(&mut dev, off, &debris);
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.commits_applied, 1);
        assert_eq!(out.next_epoch, 3);
        assert_eq!(page_at(&mut dev, p), img(0x33));
        assert_ne!(page_at(&mut dev, p + 1), img(0x44));
    }

    #[test]
    fn lsn_discontinuity_stops_the_scan() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let p = lay.first_data_page();
        let b1 = encode_batch(&[(p, &img(0x55))], 1, 0);
        let off = append(&mut dev, lay.first_record_off(), &b1);
        let skipped = encode_batch(&[(p + 1, &img(0x66))], 1, 9); // lsn gap
        append(&mut dev, off, &skipped);
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.commits_applied, 1);
        assert_ne!(page_at(&mut dev, p + 1), img(0x66));
    }

    #[test]
    fn replay_twice_is_idempotent() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let p = lay.first_data_page();
        let batch = encode_batch(&[(p, &img(0x77)), (0, &img(0x01))], 1, 0);
        append(&mut dev, lay.first_record_off(), &batch);
        let first = replay(&mut dev, &lay).unwrap();
        let snapshot: Vec<u8> = {
            let mut all = vec![0u8; dev.len().unwrap() as usize];
            dev.read_at(0, &mut all).unwrap();
            all
        };
        let second = replay(&mut dev, &lay).unwrap();
        assert_eq!(first.commits_applied, second.commits_applied);
        let mut again = vec![0u8; dev.len().unwrap() as usize];
        dev.read_at(0, &mut again).unwrap();
        assert_eq!(snapshot, again, "second replay changed the device");
    }

    #[test]
    fn empty_log_is_a_clean_run() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.records_seen, 0);
        assert_eq!(out.next_epoch, 1);
        assert!(!out.head_dirty);
    }

    #[test]
    fn image_into_wal_region_stops_the_scan() {
        let lay = layout();
        let mut dev = MemStorage::new();
        let batch = encode_batch(&[(WAL_HEADER_PAGE, &img(0x99))], 1, 0);
        append(&mut dev, lay.first_record_off(), &batch);
        let out = replay(&mut dev, &lay).unwrap();
        assert_eq!(out.commits_applied, 0);
        assert_ne!(page_at(&mut dev, WAL_HEADER_PAGE), img(0x99));
    }
}
