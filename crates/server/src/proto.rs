//! The wire protocol: length-prefixed frames with checksummed headers.
//!
//! Every message in either direction is one *frame*: a fixed 40-byte
//! header followed by `len` payload bytes. The header carries the same
//! discipline as the on-disk `colseg`/WAL headers — magic, version,
//! opcode, length, an FNV-1a64 of the payload, and an FNV-1a64 of the
//! header itself — so a desynchronized, truncated, or corrupted stream
//! is *detected* and surfaces as a typed [`ProtoError`], never as a
//! panic, a hang, or a misparsed request.
//!
//! ```text
//! offset  size  field (integers little-endian)
//!      0     8  magic "XMFRAME1"
//!      8     4  protocol version (1)
//!     12     4  opcode
//!     16     8  payload length, bytes (bounded by the receiver)
//!     24     8  FNV-1a64 of the payload
//!     32     8  FNV-1a64 of header bytes 0..32
//!     40     —  payload
//! ```
//!
//! Request opcodes: `PING`, `QUERY` (an XMorph guard), `XQUERY` (an
//! XQuery, served by guard inference), `STATS`, `LIST_STORES`, and the
//! write triple `UPDATE` / `INSERT` / `DELETE` (served under the
//! store's single-writer gate while readers keep their pinned
//! snapshots — see `DESIGN.md` §4i). Response opcodes: `PONG`,
//! `RESULT`, `STATS_REPLY`, `ERROR`, `BUSY`, `STORES`, and `APPLIED`
//! (the write acknowledgement, carrying the store's new epoch). A
//! `QUERY`/`XQUERY` with the `WANT_STATS` flag is answered by a
//! `RESULT` frame immediately followed by a `STATS_REPLY` frame;
//! everything else is one frame per request. `BUSY` is the admission
//! controller's overload answer — see `DESIGN.md` §4h for the
//! contract.
//!
//! Validation order on receive: magic, header checksum, version,
//! opcode, length bound, then (after the payload arrives) payload
//! checksum. Payload *decoding* (the per-opcode layouts below) is
//! likewise total: short buffers and malformed fields return
//! [`ProtoError::BadPayload`], and every allocation is bounded by the
//! frame's actual byte length.

use std::io::{IoSlice, Read, Write};
/// 64-bit FNV-1a, the frame checksum — the one the WAL records and
/// column segments use too.
pub use xmorph_pagestore::checksum::fnv1a64;
use xmorph_pagestore::checksum::{fnv1a64_extend, fnv1a64_parts};

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: &[u8; 8] = b"XMFRAME1";
/// Protocol version this build speaks.
pub const PROTO_VERSION: u32 = 1;
/// Header size on the wire.
pub const HEADER_LEN: usize = 40;
/// Default cap on payload length, either direction (16 MiB).
pub const DEFAULT_MAX_PAYLOAD: u64 = 16 << 20;

/// `QUERY`/`XQUERY` flag: emit the bare instance stream, no wrapper.
pub const FLAG_NO_WRAPPER: u8 = 1 << 0;
/// `QUERY`/`XQUERY` flag: follow the `RESULT` with a `STATS_REPLY`.
pub const FLAG_WANT_STATS: u8 = 1 << 1;

/// Frame opcodes. Requests are < 128, responses >= 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum OpCode {
    /// Liveness probe; empty payload.
    Ping = 1,
    /// Evaluate an XMorph guard ([`QueryPayload`]).
    Query = 2,
    /// Evaluate an XQuery via guard inference ([`QueryPayload`]).
    XQuery = 3,
    /// Store-wide I/O counters for one store ([`StorePayload`]).
    Stats = 4,
    /// List registered store names; empty payload.
    ListStores = 5,
    /// Replace one vertex's text ([`UpdatePayload`]).
    Update = 6,
    /// Shred an XML fragment into a store ([`InsertPayload`]).
    Insert = 7,
    /// Delete a subtree ([`DeletePayload`]).
    Delete = 8,
    /// Answer to [`OpCode::Ping`]; empty payload.
    Pong = 128,
    /// Rendered XML + typing class ([`ResultPayload`]).
    Result = 129,
    /// Per-query or store-wide counters ([`WireStats`]).
    StatsReply = 130,
    /// Typed failure ([`ErrorPayload`]).
    Error = 131,
    /// Admission control rejected the request; payload is the `u32`
    /// in-flight limit that was full. Retry later.
    Busy = 132,
    /// Answer to [`OpCode::ListStores`]: `u16` count, then per store a
    /// `u16` length + UTF-8 name.
    Stores = 133,
    /// Answer to a write opcode ([`AppliedPayload`]): what happened and
    /// the store's epoch after the mutation published.
    Applied = 134,
}

impl OpCode {
    /// Decode a wire opcode.
    pub fn from_u32(v: u32) -> Option<OpCode> {
        Some(match v {
            1 => OpCode::Ping,
            2 => OpCode::Query,
            3 => OpCode::XQuery,
            4 => OpCode::Stats,
            5 => OpCode::ListStores,
            6 => OpCode::Update,
            7 => OpCode::Insert,
            8 => OpCode::Delete,
            128 => OpCode::Pong,
            129 => OpCode::Result,
            130 => OpCode::StatsReply,
            131 => OpCode::Error,
            132 => OpCode::Busy,
            133 => OpCode::Stores,
            134 => OpCode::Applied,
            _ => return None,
        })
    }
}

/// Error codes carried by [`OpCode::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad magic/version/checksum);
    /// the server closes the connection after sending this.
    BadFrame = 1,
    /// Unknown or inapplicable opcode.
    BadOpcode = 2,
    /// The frame was well-formed but its payload didn't decode.
    BadPayload = 3,
    /// Payload length exceeded the server's cap; connection closes.
    Oversized = 4,
    /// No store registered under the requested name.
    UnknownStore = 5,
    /// The guard failed to parse.
    GuardParse = 6,
    /// The typing discipline rejected the guard (add a CAST).
    Rejected = 7,
    /// Query evaluation failed (store error, bad XQuery, …).
    Query = 8,
    /// The server is draining for shutdown.
    Shutdown = 9,
    /// The server was started read-only; writes are refused.
    ReadOnly = 10,
    /// The mutation failed (bad path, unparsable fragment, …).
    Mutate = 11,
}

impl ErrorCode {
    /// Decode a wire error code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadOpcode,
            3 => ErrorCode::BadPayload,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::UnknownStore,
            6 => ErrorCode::GuardParse,
            7 => ErrorCode::Rejected,
            8 => ErrorCode::Query,
            9 => ErrorCode::Shutdown,
            10 => ErrorCode::ReadOnly,
            11 => ErrorCode::Mutate,
            _ => return None,
        })
    }
}

/// Why a frame or payload failed to decode.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// First eight bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 8]),
    /// Header checksum mismatch — torn or corrupted header.
    HeaderChecksum,
    /// Unsupported protocol version.
    BadVersion(u32),
    /// Unknown opcode.
    BadOpcode(u32),
    /// Payload length above the receiver's cap.
    Oversized {
        /// Length the header declared.
        len: u64,
        /// The receiver's cap.
        max: u64,
    },
    /// Stream ended mid-frame.
    Truncated,
    /// Payload checksum mismatch.
    PayloadChecksum,
    /// The payload bytes didn't decode as the opcode's layout.
    BadPayload(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "stream error: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::HeaderChecksum => write!(f, "frame header checksum mismatch"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::PayloadChecksum => write!(f, "payload checksum mismatch"),
            ProtoError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub opcode: OpCode,
    /// The payload bytes (layout per opcode).
    pub payload: Vec<u8>,
}

/// The header of a frame whose payload is the concatenation of `parts`.
fn frame_header(opcode: OpCode, parts: &[&[u8]]) -> [u8; HEADER_LEN] {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let sum = fnv1a64_parts(parts);
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(FRAME_MAGIC);
    header[8..12].copy_from_slice(&PROTO_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(opcode as u32).to_le_bytes());
    header[16..24].copy_from_slice(&(len as u64).to_le_bytes());
    header[24..32].copy_from_slice(&sum.to_le_bytes());
    let header_sum = fnv1a64(&header[..32]);
    header[32..40].copy_from_slice(&header_sum.to_le_bytes());
    header
}

/// Encode a frame into a byte vector (header + payload).
pub fn encode_frame(opcode: OpCode, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&frame_header(opcode, &[payload]));
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w` (flush is the caller's business).
pub fn write_frame(w: &mut impl Write, opcode: OpCode, payload: &[u8]) -> std::io::Result<()> {
    write_frame_parts(w, opcode, &[payload])
}

/// Write one frame whose payload is the concatenation of `parts`,
/// without joining them: header and parts go out as one vectored
/// write where `w` supports it, so a large payload is never copied
/// into a frame buffer.
pub fn write_frame_parts(
    w: &mut impl Write,
    opcode: OpCode,
    parts: &[&[u8]],
) -> std::io::Result<()> {
    let header = frame_header(opcode, parts);
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(&header[..])
        .chain(parts.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Parse and validate a frame header. Returns `(opcode, payload_len)`.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    max_payload: u64,
) -> Result<(OpCode, u64), ProtoError> {
    let magic: [u8; 8] = header[0..8].try_into().expect("slice len");
    if &magic != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let declared = u64::from_le_bytes(header[32..40].try_into().expect("slice len"));
    if declared != fnv1a64(&header[..32]) {
        return Err(ProtoError::HeaderChecksum);
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("slice len"));
    if version != PROTO_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let opcode_raw = u32::from_le_bytes(header[12..16].try_into().expect("slice len"));
    let opcode = OpCode::from_u32(opcode_raw).ok_or(ProtoError::BadOpcode(opcode_raw))?;
    let len = u64::from_le_bytes(header[16..24].try_into().expect("slice len"));
    if len > max_payload {
        return Err(ProtoError::Oversized {
            len,
            max: max_payload,
        });
    }
    Ok((opcode, len))
}

/// Read one complete frame from `r`, enforcing `max_payload`. Blocks
/// until a full frame (or an error) arrives; a clean EOF before the
/// first header byte also reports [`ProtoError::Truncated`] — use the
/// server's idle-aware reader when EOF-at-boundary must be told apart.
pub fn read_frame(r: &mut impl Read, max_payload: u64) -> Result<Frame, ProtoError> {
    let (header, opcode, len) = read_header(r, max_payload)?;
    read_payload(r, &header, opcode, len)
}

/// Read and validate one frame header, leaving its payload unread.
/// Returns the header with its `(opcode, payload_len)`.
pub fn read_header(
    r: &mut impl Read,
    max_payload: u64,
) -> Result<([u8; HEADER_LEN], OpCode, u64), ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (opcode, len) = parse_header(&header, max_payload)?;
    Ok((header, opcode, len))
}

/// The payload checksum a header declares.
fn declared_payload_sum(header: &[u8; HEADER_LEN]) -> u64 {
    u64::from_le_bytes(header[24..32].try_into().expect("slice len"))
}

/// Read and verify the payload for an already-parsed header.
pub fn read_payload(
    r: &mut impl Read,
    header: &[u8; HEADER_LEN],
    opcode: OpCode,
    len: u64,
) -> Result<Frame, ProtoError> {
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if declared_payload_sum(header) != fnv1a64(&payload) {
        return Err(ProtoError::PayloadChecksum);
    }
    Ok(Frame { opcode, payload })
}

/// Read the payload of an already-parsed `RESULT` header straight into
/// a [`ResultPayload`]. The typing byte is read apart from the XML, so
/// the XML lands in a buffer of its own and is never shifted down by
/// one byte; the checksum still covers every payload byte.
pub fn read_result_payload(
    r: &mut impl Read,
    header: &[u8; HEADER_LEN],
    len: u64,
) -> Result<ResultPayload, ProtoError> {
    let mut typing = [0u8; 1];
    let typing = &mut typing[..len.min(1) as usize];
    r.read_exact(typing)?;
    let mut xml = vec![0u8; (len - typing.len() as u64) as usize];
    r.read_exact(&mut xml)?;
    if declared_payload_sum(header) != fnv1a64_extend(fnv1a64(typing), &xml) {
        return Err(ProtoError::PayloadChecksum);
    }
    match typing {
        [typing] => ResultPayload::from_parts(*typing, xml),
        _ => Err(ProtoError::BadPayload("typing")),
    }
}

// ---- payload layouts ----

/// A `QUERY` / `XQUERY` request: which store, how to run, and the
/// program text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPayload {
    /// Registered store name.
    pub store: String,
    /// Render worker threads (`0` = server default).
    pub threads: u32,
    /// [`FLAG_NO_WRAPPER`] | [`FLAG_WANT_STATS`].
    pub flags: u8,
    /// Guard (or XQuery) text.
    pub text: String,
}

impl QueryPayload {
    /// Wire encoding: `u16` store length, store bytes, `u32` threads,
    /// `u8` flags, then the text to end of payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(7 + self.store.len() + self.text.len());
        out.extend_from_slice(&(self.store.len() as u16).to_le_bytes());
        out.extend_from_slice(self.store.as_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(self.text.as_bytes());
        out
    }

    /// Total decode of the wire layout.
    pub fn decode(bytes: &[u8]) -> Result<QueryPayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let store = c.take_short_string("store name")?;
        let threads = c.take_u32("threads")?;
        let flags = c.take_u8("flags")?;
        let text = std::str::from_utf8(c.rest())
            .map_err(|_| ProtoError::BadPayload("query text is not UTF-8"))?
            .to_string();
        Ok(QueryPayload {
            store,
            threads,
            flags,
            text,
        })
    }
}

/// An `UPDATE` request: replace the text of the vertex at `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatePayload {
    /// Registered store name.
    pub store: String,
    /// Dotted Dewey path of the target vertex (e.g. `"1.2.1"`).
    pub path: String,
    /// Replacement text content.
    pub text: String,
}

impl UpdatePayload {
    /// Wire encoding: `u16`-prefixed store, `u16`-prefixed path, then
    /// the text to end of payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.store.len() + self.path.len() + self.text.len());
        out.extend_from_slice(&(self.store.len() as u16).to_le_bytes());
        out.extend_from_slice(self.store.as_bytes());
        out.extend_from_slice(&(self.path.len() as u16).to_le_bytes());
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(self.text.as_bytes());
        out
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<UpdatePayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let store = c.take_short_string("store name")?;
        let path = c.take_short_string("dewey path")?;
        let text = std::str::from_utf8(c.rest())
            .map_err(|_| ProtoError::BadPayload("update text is not UTF-8"))?
            .to_string();
        Ok(UpdatePayload { store, path, text })
    }
}

/// Where an `INSERT` places the shredded fragment.
pub const INSERT_MODE_APPEND: u8 = 0;
/// `INSERT` mode: before the sibling at `path` instead of under it.
pub const INSERT_MODE_BEFORE: u8 = 1;

/// An `INSERT` request: shred an XML fragment into the store, either
/// appended under the parent at `path` or ordered before the sibling
/// at `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertPayload {
    /// Registered store name.
    pub store: String,
    /// [`INSERT_MODE_APPEND`] or [`INSERT_MODE_BEFORE`].
    pub mode: u8,
    /// Dotted Dewey path of the parent (append) or sibling (before).
    pub path: String,
    /// The XML fragment to shred.
    pub xml: String,
}

impl InsertPayload {
    /// Wire encoding: `u16`-prefixed store, `u8` mode, `u16`-prefixed
    /// path, then the fragment to end of payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.store.len() + self.path.len() + self.xml.len());
        out.extend_from_slice(&(self.store.len() as u16).to_le_bytes());
        out.extend_from_slice(self.store.as_bytes());
        out.push(self.mode);
        out.extend_from_slice(&(self.path.len() as u16).to_le_bytes());
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(self.xml.as_bytes());
        out
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<InsertPayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let store = c.take_short_string("store name")?;
        let mode = c.take_u8("insert mode")?;
        if mode > INSERT_MODE_BEFORE {
            return Err(ProtoError::BadPayload("insert mode out of range"));
        }
        let path = c.take_short_string("dewey path")?;
        let xml = std::str::from_utf8(c.rest())
            .map_err(|_| ProtoError::BadPayload("insert fragment is not UTF-8"))?
            .to_string();
        Ok(InsertPayload {
            store,
            mode,
            path,
            xml,
        })
    }
}

/// A `DELETE` request: remove the subtree rooted at `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletePayload {
    /// Registered store name.
    pub store: String,
    /// Dotted Dewey path of the subtree root.
    pub path: String,
}

impl DeletePayload {
    /// Wire encoding: `u16`-prefixed store, `u16`-prefixed path.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.store.len() + self.path.len());
        out.extend_from_slice(&(self.store.len() as u16).to_le_bytes());
        out.extend_from_slice(self.store.as_bytes());
        out.extend_from_slice(&(self.path.len() as u16).to_le_bytes());
        out.extend_from_slice(self.path.as_bytes());
        out
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<DeletePayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let store = c.take_short_string("store name")?;
        let path = c.take_short_string("dewey path")?;
        c.expect_end()?;
        Ok(DeletePayload { store, path })
    }
}

/// `APPLIED` kind: an `UPDATE` replaced a vertex's text.
pub const APPLIED_UPDATED: u8 = 0;
/// `APPLIED` kind: an `INSERT` shredded a fragment; detail is the new
/// root's Dewey path.
pub const APPLIED_INSERTED: u8 = 1;
/// `APPLIED` kind: a `DELETE` removed a subtree; detail is the vertex
/// count removed.
pub const APPLIED_DELETED: u8 = 2;

/// An `APPLIED` response: acknowledgement of a write, carrying the
/// store's epoch after the mutation published. Readers pinning older
/// epochs keep their snapshots; a fresh query sees this epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedPayload {
    /// [`APPLIED_UPDATED`], [`APPLIED_INSERTED`], or [`APPLIED_DELETED`].
    pub kind: u8,
    /// The store's publication epoch after the write.
    pub epoch: u64,
    /// Kind-specific detail: inserted root's Dewey path, deleted
    /// vertex count, or empty.
    pub detail: String,
}

impl AppliedPayload {
    /// Wire encoding: `u8` kind, `u64` epoch, detail to end of payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.detail.len());
        out.push(self.kind);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(self.detail.as_bytes());
        out
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<AppliedPayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let kind = c.take_u8("applied kind")?;
        if kind > APPLIED_DELETED {
            return Err(ProtoError::BadPayload("applied kind out of range"));
        }
        let epoch = c.take_u64("epoch")?;
        let detail = std::str::from_utf8(c.rest())
            .map_err(|_| ProtoError::BadPayload("applied detail is not UTF-8"))?
            .to_string();
        Ok(AppliedPayload {
            kind,
            epoch,
            detail,
        })
    }
}

/// A `STATS` request: just the store name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePayload {
    /// Registered store name.
    pub store: String,
}

impl StorePayload {
    /// Wire encoding: `u16` length + name bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.store.len());
        out.extend_from_slice(&(self.store.len() as u16).to_le_bytes());
        out.extend_from_slice(self.store.as_bytes());
        out
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<StorePayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let store = c.take_short_string("store name")?;
        c.expect_end()?;
        Ok(StorePayload { store })
    }
}

/// A `RESULT` response: the typing class and the rendered document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultPayload {
    /// Typing class code: 0 strong, 1 narrowing, 2 widening, 3 weak.
    pub typing: u8,
    /// Rendered XML.
    pub xml: String,
}

impl ResultPayload {
    /// Wire encoding: `u8` typing, then the XML to end of payload.
    pub fn encode(&self) -> Vec<u8> {
        self.parts().concat()
    }

    /// The wire encoding in two borrowed parts, for
    /// [`write_frame_parts`]: a large result goes out without a copy.
    pub fn parts(&self) -> [&[u8]; 2] {
        [std::slice::from_ref(&self.typing), self.xml.as_bytes()]
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<ResultPayload, ProtoError> {
        let (&typing, xml) = bytes
            .split_first()
            .ok_or(ProtoError::BadPayload("typing"))?;
        ResultPayload::from_parts(typing, xml.to_vec())
    }

    /// [`ResultPayload::decode`] taking the payload by value: the XML
    /// reuses its buffer, shifted down over the typing byte, instead of
    /// being copied out of it. A reader that still holds the stream
    /// should use [`read_result_payload`], which never shifts.
    pub fn decode_owned(mut bytes: Vec<u8>) -> Result<ResultPayload, ProtoError> {
        let Some(&typing) = bytes.first() else {
            return Err(ProtoError::BadPayload("typing"));
        };
        bytes.remove(0);
        ResultPayload::from_parts(typing, bytes)
    }

    /// Validate a typing byte and the XML bytes that follow it.
    fn from_parts(typing: u8, xml: Vec<u8>) -> Result<ResultPayload, ProtoError> {
        if typing > 3 {
            return Err(ProtoError::BadPayload("typing code out of range"));
        }
        let xml = String::from_utf8(xml)
            .map_err(|_| ProtoError::BadPayload("result XML is not UTF-8"))?;
        Ok(ResultPayload { typing, xml })
    }
}

/// An `ERROR` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorPayload {
    /// What failed.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorPayload {
    /// Wire encoding: `u16` code, then the message to end of payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.message.len());
        out.extend_from_slice(&(self.code as u16).to_le_bytes());
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Total decode.
    pub fn decode(bytes: &[u8]) -> Result<ErrorPayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let raw = c.take_u16("error code")?;
        let code = ErrorCode::from_u16(raw).ok_or(ProtoError::BadPayload("unknown error code"))?;
        let message = std::str::from_utf8(c.rest())
            .map_err(|_| ProtoError::BadPayload("error message is not UTF-8"))?
            .to_string();
        Ok(ErrorPayload { code, message })
    }
}

/// A `STATS_REPLY` payload: fixed-width little-endian counters. For a
/// per-query reply these are the *deltas* the query caused; for a
/// store-wide `STATS` answer they are cumulative and the phase timings
/// are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Pages read from the device.
    pub blocks_read: u64,
    /// Pages written to the device.
    pub blocks_written: u64,
    /// Buffer-pool hits.
    pub cache_hits: u64,
    /// Buffer-pool misses.
    pub cache_misses: u64,
    /// Nanoseconds inside device reads.
    pub read_ns: u64,
    /// Nanoseconds inside device writes.
    pub write_ns: u64,
    /// Compile-phase nanoseconds (0 for store-wide stats).
    pub compile_ns: u64,
    /// Render-phase nanoseconds (0 for store-wide stats).
    pub render_ns: u64,
    /// Column bytes faulted in (per-query) or resident (store-wide).
    pub column_bytes: u64,
    /// Render worker threads used (0 for store-wide stats).
    pub threads: u32,
}

impl WireStats {
    /// Encoded size: nine `u64`s and one `u32`.
    pub const ENCODED_LEN: usize = 76;

    /// Wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        for v in [
            self.blocks_read,
            self.blocks_written,
            self.cache_hits,
            self.cache_misses,
            self.read_ns,
            self.write_ns,
            self.compile_ns,
            self.render_ns,
            self.column_bytes,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.threads.to_le_bytes());
        out
    }

    /// Total decode (exact length required).
    pub fn decode(bytes: &[u8]) -> Result<WireStats, ProtoError> {
        if bytes.len() != Self::ENCODED_LEN {
            return Err(ProtoError::BadPayload("stats payload has wrong length"));
        }
        let mut c = Cursor::new(bytes);
        Ok(WireStats {
            blocks_read: c.take_u64("stats counter")?,
            blocks_written: c.take_u64("stats counter")?,
            cache_hits: c.take_u64("stats counter")?,
            cache_misses: c.take_u64("stats counter")?,
            read_ns: c.take_u64("stats counter")?,
            write_ns: c.take_u64("stats counter")?,
            compile_ns: c.take_u64("stats counter")?,
            render_ns: c.take_u64("stats counter")?,
            column_bytes: c.take_u64("stats counter")?,
            threads: c.take_u32("threads")?,
        })
    }
}

/// Encode a `STORES` payload from a name list.
pub fn encode_stores(names: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(names.len() as u16).to_le_bytes());
    for name in names {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out
}

/// Decode a `STORES` payload.
pub fn decode_stores(bytes: &[u8]) -> Result<Vec<String>, ProtoError> {
    let mut c = Cursor::new(bytes);
    let count = c.take_u16("store count")?;
    let mut names = Vec::with_capacity(usize::from(count).min(bytes.len() / 2 + 1));
    for _ in 0..count {
        names.push(c.take_short_string("store name")?);
    }
    c.expect_end()?;
    Ok(names)
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ProtoError::BadPayload(what))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    fn take_u16(&mut self, what: &'static str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("len"),
        ))
    }

    fn take_u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("len"),
        ))
    }

    fn take_u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("len"),
        ))
    }

    /// A `u16`-length-prefixed UTF-8 string.
    fn take_short_string(&mut self, what: &'static str) -> Result<String, ProtoError> {
        let len = self.take_u16(what)?;
        let bytes = self.take(usize::from(len), what)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| ProtoError::BadPayload(what))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        slice
    }

    fn expect_end(&self) -> Result<(), ProtoError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtoError::BadPayload("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_every_opcode() {
        for op in [
            OpCode::Ping,
            OpCode::Query,
            OpCode::XQuery,
            OpCode::Stats,
            OpCode::ListStores,
            OpCode::Update,
            OpCode::Insert,
            OpCode::Delete,
            OpCode::Pong,
            OpCode::Result,
            OpCode::StatsReply,
            OpCode::Error,
            OpCode::Busy,
            OpCode::Stores,
            OpCode::Applied,
        ] {
            let payload = format!("payload for {op:?}").into_bytes();
            let bytes = encode_frame(op, &payload);
            let frame = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap();
            assert_eq!(frame.opcode, op);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn oversized_is_rejected_from_header_alone() {
        let bytes = encode_frame(OpCode::Query, &[0u8; 128]);
        match read_frame(&mut bytes.as_slice(), 64) {
            Err(ProtoError::Oversized { len: 128, max: 64 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn query_payload_roundtrip() {
        let p = QueryPayload {
            store: "xmark".into(),
            threads: 4,
            flags: FLAG_WANT_STATS,
            text: "MORPH item [ name ]".into(),
        };
        assert_eq!(QueryPayload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn wire_stats_roundtrip() {
        let s = WireStats {
            blocks_read: 1,
            blocks_written: 2,
            cache_hits: 3,
            cache_misses: 4,
            read_ns: 5,
            write_ns: 6,
            compile_ns: 7,
            render_ns: 8,
            column_bytes: 9,
            threads: 10,
        };
        let enc = s.encode();
        assert_eq!(enc.len(), WireStats::ENCODED_LEN);
        assert_eq!(WireStats::decode(&enc).unwrap(), s);
    }

    #[test]
    fn stores_roundtrip() {
        let names = vec!["a".to_string(), "library".to_string()];
        assert_eq!(decode_stores(&encode_stores(&names)).unwrap(), names);
    }

    #[test]
    fn update_payload_roundtrip() {
        let p = UpdatePayload {
            store: "xmark".into(),
            path: "1.2.1".into(),
            text: "new text".into(),
        };
        assert_eq!(UpdatePayload::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn insert_payload_roundtrip_both_modes() {
        for mode in [INSERT_MODE_APPEND, INSERT_MODE_BEFORE] {
            let p = InsertPayload {
                store: "xmark".into(),
                mode,
                path: "1.2".into(),
                xml: "<person><name>N</name></person>".into(),
            };
            assert_eq!(InsertPayload::decode(&p.encode()).unwrap(), p);
        }
        assert!(matches!(
            InsertPayload::decode(
                &InsertPayload {
                    store: "s".into(),
                    mode: 7,
                    path: "1".into(),
                    xml: String::new(),
                }
                .encode()
            ),
            Err(ProtoError::BadPayload(_))
        ));
    }

    #[test]
    fn delete_payload_roundtrip_rejects_trailing_bytes() {
        let p = DeletePayload {
            store: "xmark".into(),
            path: "1.4".into(),
        };
        assert_eq!(DeletePayload::decode(&p.encode()).unwrap(), p);
        let mut enc = p.encode();
        enc.push(0);
        assert!(matches!(
            DeletePayload::decode(&enc),
            Err(ProtoError::BadPayload(_))
        ));
    }

    #[test]
    fn applied_payload_roundtrip() {
        for (kind, detail) in [
            (APPLIED_UPDATED, ""),
            (APPLIED_INSERTED, "1.9"),
            (APPLIED_DELETED, "12"),
        ] {
            let p = AppliedPayload {
                kind,
                epoch: 42,
                detail: detail.into(),
            };
            assert_eq!(AppliedPayload::decode(&p.encode()).unwrap(), p);
        }
    }
}
