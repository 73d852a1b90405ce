//! On-disk format for persisted [`TypeColumn`]s — one page-aligned
//! pagestore segment per type, written at shred time and decoded (or
//! mapped) at open time so a cold reopen skips the `typeseq` B+tree
//! walk and Dewey decode entirely.
//!
//! Two wire formats share the 64-byte header size, distinguished by
//! magic. **v1** stores the raw arrays; **v2** — the current write
//! format — delta-compresses them: Dewey rows are sorted and share
//! long prefixes, so a componentwise delta against the previous row is
//! almost always zero or tiny, and a zigzag + LEB128 varint stores it
//! in one byte. Readers accept both; writers emit v2 only.
//!
//! v1 layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "XMCOL001"
//!      8     4  format version (1)
//!     12     4  row width (Dewey components per row)
//!     16     8  row count
//!     24     8  text arena length, bytes
//!     32     8  source typeseq generation
//!     40     8  FNV-1a64 of the payload
//!     48     8  FNV-1a64 of header bytes 0..48
//!     56     8  zero padding (keeps the payload 4-byte aligned *and*
//!               64-byte cache-line aligned within the page-aligned map)
//!     64     —  payload: rows×width u32 comps, rows+1 u32 offsets,
//!               UTF-8 texts
//! ```
//!
//! v2 layout (see DESIGN.md §4g):
//!
//! ```text
//! offset  size  field
//!      0     8  magic "XMCOL002"
//!      8     4  format version (2)
//!     12     4  row width (Dewey components per row)
//!     16     8  row count
//!     24     8  text arena length, bytes
//!     32     8  source typeseq generation
//!     40     4  encoded comps length, bytes
//!     44     4  encoded offsets length, bytes
//!     48     8  FNV-1a64 of the payload
//!     56     8  FNV-1a64 of header bytes 0..56
//!     64     —  payload: comps varints ‖ offsets varints ‖ UTF-8 texts
//! ```
//!
//! v2 comps: row-major, each component encoded as the zigzag LEB128
//! varint of its delta against the same component of the previous row
//! (the first row deltas against an all-zero row). v2 offsets: the
//! `rows + 1` arena offsets as plain (unsigned) LEB128 deltas against
//! the previous offset — monotone by construction, so decoding can
//! never produce a backwards offset. The text arena is stored raw and,
//! on a mapped segment, served zero-copy.
//!
//! The generation a segment must carry to be believed is **per type**:
//! a full shred bumps the store-wide `meta["colgen"]`, while a mutation
//! (see [`crate::store::mutate`]) assigns the touched type a newer
//! per-type generation under `meta["tygen."‖TypeId]` and deletes that
//! type's segment — so after a 1%-node update only the touched types'
//! segments go stale and every other segment still opens. A segment
//! surviving from a superseded generation fails the check and degrades
//! to a lazy rebuild — as does any checksum, bounds, monotonicity,
//! varint, or UTF-8 violation. Validation is total: a reader that gets
//! a [`ParsedSegment`] back may use it without further checks, and the
//! varint decoder bounds every allocation by the segment's actual byte
//! length, so a forged header cannot balloon memory.
//!
//! [`TypeColumn`]: crate::store::shredded::TypeColumn

use crate::model::types::TypeId;
use std::ops::Range;
use xmorph_pagestore::checksum::{fnv1a64, fnv1a64_parts};

/// Magic bytes opening a v1 (uncompressed) column segment.
pub const COLSEG_MAGIC: &[u8; 8] = b"XMCOL001";
/// Magic bytes opening a v2 (delta/varint-compressed) column segment.
pub const COLSEG_MAGIC_V2: &[u8; 8] = b"XMCOL002";
/// v1 format version.
pub const COLSEG_VERSION: u32 = 1;
/// v2 format version — the current write format.
pub const COLSEG_VERSION_V2: u32 = 2;
/// Header size (both formats); the payload starts here.
pub const COLSEG_HEADER: usize = 64;

/// Name of the pagestore segment holding `t`'s column.
pub(crate) fn segment_name(t: TypeId) -> String {
    format!("col.{}", t.0)
}

// ---- varint primitives ----

/// Append `v` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation).
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint at `*pos`, advancing it. `None` on
/// truncation or a continuation chain past 64 bits — never panics,
/// whatever the bytes.
fn read_uvarint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-fold a signed delta so small magnitudes of either sign take
/// one varint byte.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Byte ranges of a validated **v1** segment's payload sections,
/// relative to the start of the segment bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentLayout {
    /// Components per row.
    pub width: usize,
    /// Number of rows.
    pub rows: usize,
    /// `rows * width` u32 component words.
    pub comps: Range<usize>,
    /// `rows + 1` u32 arena offsets.
    pub offsets: Range<usize>,
    /// UTF-8 text arena.
    pub texts: Range<usize>,
}

/// A validated **v2** segment, decompressed: the component and offset
/// arrays are materialized (varints cannot be indexed in place), while
/// the raw text arena stays a byte range into the segment so a mapped
/// segment can keep serving texts zero-copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodedColumn {
    /// Components per row.
    pub width: usize,
    /// Decoded row-major component words, `rows * width` of them.
    pub comps: Vec<u32>,
    /// Decoded `rows + 1` arena offsets.
    pub offsets: Vec<u32>,
    /// UTF-8 text arena, relative to the start of the segment bytes.
    pub texts: Range<usize>,
}

/// Outcome of [`parse`]: which wire format the segment carried, with
/// its validated contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParsedSegment {
    /// v1 — the payload sections are servable in place.
    V1(SegmentLayout),
    /// v2 — comps/offsets decoded to the heap, texts validated in
    /// place.
    V2(DecodedColumn),
}

/// Serialize one column into v1 (uncompressed) segment bytes. Kept for
/// the upgrade-compatibility tests; the write path uses [`encode_v2`].
pub(crate) fn encode_v1(
    width: usize,
    comps: &[u32],
    offsets: &[u32],
    texts: &str,
    generation: u64,
) -> Vec<u8> {
    debug_assert!(width == 0 || comps.len().is_multiple_of(width));
    debug_assert_eq!(
        offsets.len(),
        comps.len().checked_div(width).unwrap_or(0) + 1
    );
    let rows = offsets.len() - 1;
    let payload_len = (comps.len() + offsets.len()) * 4 + texts.len();
    let mut out = Vec::with_capacity(COLSEG_HEADER + payload_len);
    out.extend_from_slice(COLSEG_MAGIC);
    out.extend_from_slice(&COLSEG_VERSION.to_le_bytes());
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(texts.len() as u64).to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    // Payload checksum; header checksum over everything before it.
    let mut payload = Vec::with_capacity(payload_len);
    for w in comps {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    for o in offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(texts.as_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    let header_sum = fnv1a64(&out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    out.resize(COLSEG_HEADER, 0);
    out.extend_from_slice(&payload);
    out
}

/// Serialize one column into v2 (delta/varint-compressed) segment
/// bytes — the current write format.
pub(crate) fn encode_v2(
    width: usize,
    comps: &[u32],
    offsets: &[u32],
    texts: &str,
    generation: u64,
) -> Vec<u8> {
    debug_assert!(width == 0 || comps.len().is_multiple_of(width));
    debug_assert_eq!(
        offsets.len(),
        comps.len().checked_div(width).unwrap_or(0) + 1
    );
    let rows = offsets.len() - 1;
    // Componentwise delta against the previous row (the first row
    // deltas against zero): sorted rows share long prefixes, so most
    // deltas are 0 and encode in one byte.
    let mut comps_enc = Vec::with_capacity(comps.len() + 8);
    let mut prev = vec![0u32; width];
    for r in 0..rows {
        for c in 0..width {
            let cur = comps[r * width + c];
            put_uvarint(&mut comps_enc, zigzag(i64::from(cur) - i64::from(prev[c])));
            prev[c] = cur;
        }
    }
    // Offsets are monotone, so plain unsigned deltas (= per-row text
    // lengths) suffice; the first varint is the first offset itself.
    let mut offsets_enc = Vec::with_capacity(offsets.len() + 4);
    let mut last = 0u32;
    for &o in offsets {
        debug_assert!(o >= last, "offsets must be monotone");
        put_uvarint(&mut offsets_enc, u64::from(o - last));
        last = o;
    }
    let payload_len = comps_enc.len() + offsets_enc.len() + texts.len();
    let mut out = Vec::with_capacity(COLSEG_HEADER + payload_len);
    out.extend_from_slice(COLSEG_MAGIC_V2);
    out.extend_from_slice(&COLSEG_VERSION_V2.to_le_bytes());
    out.extend_from_slice(&(width as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&(texts.len() as u64).to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    let comps_len = u32::try_from(comps_enc.len()).expect("comps encoding fits u32");
    let offsets_len = u32::try_from(offsets_enc.len()).expect("offsets encoding fits u32");
    out.extend_from_slice(&comps_len.to_le_bytes());
    out.extend_from_slice(&offsets_len.to_le_bytes());
    let payload_sum = fnv1a64_parts(&[&comps_enc, &offsets_enc, texts.as_bytes()]);
    out.extend_from_slice(&payload_sum.to_le_bytes());
    let header_sum = fnv1a64(&out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(out.len(), COLSEG_HEADER);
    out.extend_from_slice(&comps_enc);
    out.extend_from_slice(&offsets_enc);
    out.extend_from_slice(texts.as_bytes());
    out
}

fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

/// Validate segment bytes (either wire format, dispatched on magic)
/// against the expected row width and current generation. Returns the
/// parsed segment, or the reason it must fall back to a lazy rebuild.
/// Every byte the result exposes is checked here — checksums, bounds,
/// offset monotonicity, varint well-formedness, text UTF-8 — so
/// readers can trust it unconditionally.
pub(crate) fn parse(
    bytes: &[u8],
    expect_width: usize,
    expect_generation: u64,
) -> Result<ParsedSegment, &'static str> {
    if bytes.len() < COLSEG_HEADER {
        return Err("shorter than header");
    }
    if &bytes[..8] == COLSEG_MAGIC {
        parse_v1(bytes, expect_width, expect_generation).map(ParsedSegment::V1)
    } else if &bytes[..8] == COLSEG_MAGIC_V2 {
        parse_v2(bytes, expect_width, expect_generation).map(ParsedSegment::V2)
    } else {
        Err("bad magic")
    }
}

fn parse_v1(
    bytes: &[u8],
    expect_width: usize,
    expect_generation: u64,
) -> Result<SegmentLayout, &'static str> {
    if u32_at(bytes, 8) != COLSEG_VERSION {
        return Err("unsupported format version");
    }
    if u64_at(bytes, 48) != fnv1a64(&bytes[..48]) {
        return Err("header checksum mismatch");
    }
    let width = u32_at(bytes, 12) as usize;
    let rows = u64_at(bytes, 16);
    let texts_len = u64_at(bytes, 24);
    let generation = u64_at(bytes, 32);
    if width != expect_width {
        return Err("row width disagrees with shape");
    }
    if generation != expect_generation {
        return Err("stale generation");
    }
    let rows = usize::try_from(rows).map_err(|_| "row count overflow")?;
    let texts_len = usize::try_from(texts_len).map_err(|_| "texts length overflow")?;
    let comps_len = rows
        .checked_mul(width)
        .and_then(|n| n.checked_mul(4))
        .ok_or("comps length overflow")?;
    let offsets_len = (rows + 1) * 4;
    let payload_len = comps_len
        .checked_add(offsets_len)
        .and_then(|n| n.checked_add(texts_len))
        .ok_or("payload length overflow")?;
    // Trailing page padding beyond the payload is fine; truncation is not.
    if bytes.len() < COLSEG_HEADER + payload_len {
        return Err("payload truncated");
    }
    let payload = &bytes[COLSEG_HEADER..COLSEG_HEADER + payload_len];
    if u64_at(bytes, 40) != fnv1a64(payload) {
        return Err("payload checksum mismatch");
    }
    let comps = COLSEG_HEADER..COLSEG_HEADER + comps_len;
    let offsets = comps.end..comps.end + offsets_len;
    let texts = offsets.end..offsets.end + texts_len;
    // Offsets must start at 0, end at texts_len, never decrease, and
    // every boundary must fall on a UTF-8 character boundary (checked
    // via the full-arena validation plus per-boundary is_char_boundary).
    let arena = std::str::from_utf8(&bytes[texts.clone()]).map_err(|_| "texts not UTF-8")?;
    let mut prev = 0u32;
    for i in 0..=rows {
        let o = u32_at(bytes, offsets.start + i * 4);
        if i == 0 && o != 0 {
            return Err("first offset not zero");
        }
        if o < prev {
            return Err("offsets not monotone");
        }
        if o as usize > texts_len || !arena.is_char_boundary(o as usize) {
            return Err("offset outside arena");
        }
        prev = o;
    }
    if prev as usize != texts_len {
        return Err("last offset disagrees with arena length");
    }
    Ok(SegmentLayout {
        width,
        rows,
        comps,
        offsets,
        texts,
    })
}

fn parse_v2(
    bytes: &[u8],
    expect_width: usize,
    expect_generation: u64,
) -> Result<DecodedColumn, &'static str> {
    if u32_at(bytes, 8) != COLSEG_VERSION_V2 {
        return Err("unsupported format version");
    }
    if u64_at(bytes, 56) != fnv1a64(&bytes[..56]) {
        return Err("header checksum mismatch");
    }
    let width = u32_at(bytes, 12) as usize;
    let rows = u64_at(bytes, 16);
    let texts_len = u64_at(bytes, 24);
    let generation = u64_at(bytes, 32);
    let comps_enc_len = u32_at(bytes, 40) as usize;
    let offsets_enc_len = u32_at(bytes, 44) as usize;
    if width != expect_width {
        return Err("row width disagrees with shape");
    }
    if generation != expect_generation {
        return Err("stale generation");
    }
    let rows = usize::try_from(rows).map_err(|_| "row count overflow")?;
    let texts_len = usize::try_from(texts_len).map_err(|_| "texts length overflow")?;
    let payload_len = comps_enc_len
        .checked_add(offsets_enc_len)
        .and_then(|n| n.checked_add(texts_len))
        .ok_or("payload length overflow")?;
    let end = COLSEG_HEADER
        .checked_add(payload_len)
        .ok_or("payload length overflow")?;
    // Trailing page padding beyond the payload is fine; truncation is not.
    if bytes.len() < end {
        return Err("payload truncated");
    }
    let payload = &bytes[COLSEG_HEADER..end];
    if u64_at(bytes, 48) != fnv1a64(payload) {
        return Err("payload checksum mismatch");
    }
    let nvals = rows.checked_mul(width).ok_or("comps length overflow")?;
    // Every varint occupies at least one byte, so the declared value
    // counts are bounded by the encoded section lengths — which are in
    // turn bounded by the segment's real byte length. A forged header
    // cannot make the decoder allocate past the bytes it was handed.
    if nvals > comps_enc_len {
        return Err("comps count exceeds encoding");
    }
    if rows + 1 > offsets_enc_len {
        return Err("offsets count exceeds encoding");
    }
    let comps_enc = &payload[..comps_enc_len];
    let offsets_enc = &payload[comps_enc_len..comps_enc_len + offsets_enc_len];
    let texts = COLSEG_HEADER + comps_enc_len + offsets_enc_len..end;

    let mut comps = Vec::with_capacity(nvals);
    let mut prev = vec![0u32; width];
    let mut pos = 0usize;
    for _ in 0..rows {
        for p in prev.iter_mut() {
            let raw = read_uvarint(comps_enc, &mut pos).ok_or("comps varint truncated")?;
            let v = i64::from(*p) + unzigzag(raw);
            let v = u32::try_from(v).map_err(|_| "component out of range")?;
            *p = v;
            comps.push(v);
        }
    }
    if pos != comps_enc.len() {
        return Err("comps encoding has trailing bytes");
    }

    let mut offsets = Vec::with_capacity(rows + 1);
    let mut acc = 0u64;
    let mut pos = 0usize;
    for i in 0..=rows {
        let delta = read_uvarint(offsets_enc, &mut pos).ok_or("offsets varint truncated")?;
        if i == 0 && delta != 0 {
            return Err("first offset not zero");
        }
        acc = acc.checked_add(delta).ok_or("offset overflow")?;
        if acc > texts_len as u64 {
            return Err("offset outside arena");
        }
        offsets.push(u32::try_from(acc).map_err(|_| "offset overflow")?);
    }
    if pos != offsets_enc.len() {
        return Err("offsets encoding has trailing bytes");
    }
    if acc != texts_len as u64 {
        return Err("last offset disagrees with arena length");
    }

    let arena = std::str::from_utf8(&bytes[texts.clone()]).map_err(|_| "texts not UTF-8")?;
    for &o in &offsets {
        if !arena.is_char_boundary(o as usize) {
            return Err("offset not on a char boundary");
        }
    }
    Ok(DecodedColumn {
        width,
        comps,
        offsets,
        texts,
    })
}

/// Test-only hooks for the integration suite: direct access to both
/// on-disk encoders and the version-dispatching decoder, so property
/// tests can drive the wire formats without a store.
#[doc(hidden)]
pub mod testing {
    /// Encode a column in the v1 (uncompressed) wire format.
    pub fn encode_column_v1(
        width: usize,
        comps: &[u32],
        offsets: &[u32],
        texts: &str,
        generation: u64,
    ) -> Vec<u8> {
        super::encode_v1(width, comps, offsets, texts, generation)
    }

    /// Encode a column in the v2 (delta/varint) wire format.
    pub fn encode_column_v2(
        width: usize,
        comps: &[u32],
        offsets: &[u32],
        texts: &str,
        generation: u64,
    ) -> Vec<u8> {
        super::encode_v2(width, comps, offsets, texts, generation)
    }

    /// Parse either wire format into owned `(comps, offsets, texts)`
    /// parts, or the validation failure.
    #[allow(clippy::type_complexity)]
    pub fn decode_column(
        bytes: &[u8],
        width: usize,
        generation: u64,
    ) -> Result<(Vec<u32>, Vec<u32>, String), &'static str> {
        let words = |r: std::ops::Range<usize>| {
            bytes[r]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<u32>>()
        };
        match super::parse(bytes, width, generation)? {
            super::ParsedSegment::V1(l) => Ok((
                words(l.comps.clone()),
                words(l.offsets.clone()),
                std::str::from_utf8(&bytes[l.texts.clone()])
                    .expect("validated arena")
                    .to_string(),
            )),
            super::ParsedSegment::V2(d) => {
                let texts = std::str::from_utf8(&bytes[d.texts.clone()])
                    .expect("validated arena")
                    .to_string();
                Ok((d.comps, d.offsets, texts))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMPS: &[u32] = &[1, 1, 1, 1, 2, 1];
    const OFFSETS: &[u32] = &[0, 2, 3];

    fn sample_v1() -> Vec<u8> {
        // Two rows of width 3, texts "ab" + "c".
        encode_v1(3, COMPS, OFFSETS, "abc", 7)
    }

    fn sample_v2() -> Vec<u8> {
        encode_v2(3, COMPS, OFFSETS, "abc", 7)
    }

    fn decoded(bytes: &[u8], width: usize, generation: u64) -> DecodedColumn {
        match parse(bytes, width, generation).unwrap() {
            ParsedSegment::V2(d) => d,
            ParsedSegment::V1(_) => panic!("expected a v2 segment"),
        }
    }

    #[test]
    fn v1_roundtrip_validates() {
        let bytes = sample_v1();
        let ParsedSegment::V1(layout) = parse(&bytes, 3, 7).unwrap() else {
            panic!("expected a v1 segment");
        };
        assert_eq!(layout.rows, 2);
        assert_eq!(layout.width, 3);
        assert_eq!(&bytes[layout.texts.clone()], b"abc");
        assert_eq!(layout.comps.len(), 24);
        assert_eq!(layout.offsets.len(), 12);
    }

    #[test]
    fn v2_roundtrip_decodes_identically() {
        let bytes = sample_v2();
        let d = decoded(&bytes, 3, 7);
        assert_eq!(d.width, 3);
        assert_eq!(d.comps, COMPS);
        assert_eq!(d.offsets, OFFSETS);
        assert_eq!(&bytes[d.texts.clone()], b"abc");
    }

    #[test]
    fn v2_is_smaller_than_v1() {
        // 48 rows of width 4 with unit-step ordinals: v1 spends 4 bytes
        // per word, v2 one byte per delta.
        let mut comps = Vec::new();
        let mut offsets = vec![0u32];
        let mut texts = String::new();
        for i in 0..48u32 {
            comps.extend_from_slice(&[1, 3, i + 1, 2]);
            texts.push('x');
            offsets.push(texts.len() as u32);
        }
        let v1 = encode_v1(4, &comps, &offsets, &texts, 1);
        let v2 = encode_v2(4, &comps, &offsets, &texts, 1);
        assert!(
            v2.len() * 2 < v1.len(),
            "v2 {} bytes vs v1 {} bytes",
            v2.len(),
            v1.len()
        );
        let d = decoded(&v2, 4, 1);
        assert_eq!(d.comps, comps);
        assert_eq!(d.offsets, offsets);
    }

    #[test]
    fn v2_handles_negative_component_deltas() {
        // Ordinal resets between rows (1.9 -> 2.1) produce negative
        // componentwise deltas; zigzag must carry them.
        let comps = &[1, 9, 2, 1];
        let bytes = encode_v2(2, comps, &[0, 1, 2], "ab", 0);
        assert_eq!(decoded(&bytes, 2, 0).comps, comps);
    }

    #[test]
    fn trailing_padding_tolerated() {
        for mut bytes in [sample_v1(), sample_v2()] {
            bytes.resize(bytes.len() + 100, 0);
            assert!(parse(&bytes, 3, 7).is_ok());
        }
    }

    #[test]
    fn stale_generation_rejected() {
        assert_eq!(parse(&sample_v1(), 3, 8), Err("stale generation"));
        assert_eq!(parse(&sample_v2(), 3, 8), Err("stale generation"));
    }

    #[test]
    fn wrong_width_rejected() {
        assert_eq!(
            parse(&sample_v1(), 2, 7),
            Err("row width disagrees with shape")
        );
        assert_eq!(
            parse(&sample_v2(), 2, 7),
            Err("row width disagrees with shape")
        );
    }

    #[test]
    fn unknown_magic_rejected() {
        let mut bytes = sample_v2();
        bytes[7] = b'9';
        assert_eq!(parse(&bytes, 3, 7), Err("bad magic"));
    }

    #[test]
    fn flipped_payload_bit_rejected() {
        for mut bytes in [sample_v1(), sample_v2()] {
            let last = bytes.len() - 1;
            bytes[last] ^= 1;
            assert_eq!(parse(&bytes, 3, 7), Err("payload checksum mismatch"));
        }
    }

    #[test]
    fn flipped_header_bit_rejected() {
        for mut bytes in [sample_v1(), sample_v2()] {
            bytes[16] ^= 1; // row count
            assert_eq!(parse(&bytes, 3, 7), Err("header checksum mismatch"));
        }
    }

    #[test]
    fn truncation_rejected() {
        for bytes in [sample_v1(), sample_v2()] {
            assert_eq!(
                parse(&bytes[..bytes.len() - 1], 3, 7),
                Err("payload truncated")
            );
            assert_eq!(parse(&bytes[..10], 3, 7), Err("shorter than header"));
        }
    }

    #[test]
    fn non_monotone_offsets_rejected() {
        // Forge offsets [0, 3, 2]: recompute checksums so only the
        // monotonicity check can object. (v2 cannot even express a
        // backwards offset — its deltas are unsigned — so the encoder's
        // debug assertion is the only guard it needs.)
        let bytes = encode_v1(1, &[1, 2], &[0, 3, 2], "abc", 0);
        assert_eq!(parse(&bytes, 1, 0), Err("offsets not monotone"));
    }

    #[test]
    fn empty_column_roundtrips() {
        let v1 = encode_v1(2, &[], &[0], "", 3);
        let ParsedSegment::V1(layout) = parse(&v1, 2, 3).unwrap() else {
            panic!("expected v1");
        };
        assert_eq!(layout.rows, 0);
        assert!(layout.comps.is_empty());
        assert!(layout.texts.is_empty());
        let v2 = encode_v2(2, &[], &[0], "", 3);
        let d = decoded(&v2, 2, 3);
        assert!(d.comps.is_empty());
        assert_eq!(d.offsets, &[0]);
        assert!(d.texts.is_empty());
    }

    #[test]
    fn offset_past_arena_rejected() {
        let v1 = encode_v1(1, &[1], &[0, 9], "abc", 0);
        assert_eq!(parse(&v1, 1, 0), Err("offset outside arena"));
        let v2 = encode_v2(1, &[1], &[0, 9], "abc", 0);
        assert_eq!(parse(&v2, 1, 0), Err("offset outside arena"));
    }

    #[test]
    fn v1_payload_is_aligned_for_u32_reinterpretation() {
        assert_eq!(COLSEG_HEADER % 4, 0);
        let ParsedSegment::V1(layout) = parse(&sample_v1(), 3, 7).unwrap() else {
            panic!("expected v1");
        };
        assert_eq!(layout.comps.start % 4, 0);
        assert_eq!(layout.offsets.start % 4, 0);
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for d in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(u32::MAX),
            -i64::from(u32::MAX),
        ] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn overlong_varint_rejected_not_panicking() {
        // Eleven continuation bytes exceed 64 bits of shift.
        let overlong = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_uvarint(&overlong, &mut pos), None);
        // Truncated continuation chain.
        let truncated = [0x80u8, 0x80];
        let mut pos = 0;
        assert_eq!(read_uvarint(&truncated, &mut pos), None);
    }
}
