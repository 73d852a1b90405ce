//! A minimal blocking client for the framed protocol.
//!
//! One [`Client`] owns one TCP connection (one server-side session —
//! the server caches guard parses per connection, so reusing a client
//! for a repeated guard skips the parse). The client is deliberately
//! thin: requests block until the reply frame arrives, and overload
//! surfaces as [`Reply::Busy`] for the caller to back off on.

use crate::proto::{
    read_frame, read_header, read_payload, read_result_payload, write_frame, AppliedPayload,
    DeletePayload, ErrorCode, ErrorPayload, InsertPayload, OpCode, ProtoError, QueryPayload,
    StorePayload, UpdatePayload, WireStats, DEFAULT_MAX_PAYLOAD, FLAG_NO_WRAPPER, FLAG_WANT_STATS,
    INSERT_MODE_APPEND, INSERT_MODE_BEFORE,
};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: the transport died or the peer broke protocol.
/// Application-level failures (bad guard, unknown store, overload) are
/// *not* errors — they arrive as [`Reply::Error`] / [`Reply::Busy`].
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// The server sent something that doesn't decode.
    Protocol(ProtoError),
    /// The server answered with an opcode this request can't accept.
    UnexpectedReply(OpCode),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::UnexpectedReply(op) => write!(f, "unexpected reply opcode {op:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// What the server said to a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The query ran; rendered XML plus the typing class code and, when
    /// requested, the per-query stats frame.
    Result {
        /// Typing class: 0 strong, 1 narrowing, 2 widening, 3 weak.
        typing: u8,
        /// Rendered XML.
        xml: String,
        /// Per-query counters (present iff stats were requested).
        stats: Option<WireStats>,
    },
    /// A write was applied. `kind` is `APPLIED_UPDATED` /
    /// `APPLIED_INSERTED` / `APPLIED_DELETED`; `epoch` is the store's
    /// publication epoch after the write (a fresh query sees it);
    /// `detail` is the inserted root's Dewey path or the deleted
    /// vertex count.
    Applied {
        /// What the write did.
        kind: u8,
        /// Store epoch after publication.
        epoch: u64,
        /// Kind-specific detail.
        detail: String,
    },
    /// Admission control: the server is at capacity, retry later. The
    /// value is the limit that was full.
    Busy(u32),
    /// Typed failure.
    Error {
        /// What failed.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
}

/// Options for one query request.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOpts {
    /// Render worker threads (`0` = server default).
    pub threads: u32,
    /// Ask for the per-query stats frame.
    pub want_stats: bool,
    /// Emit the bare instance stream, no wrapper element.
    pub no_wrapper: bool,
}

impl QueryOpts {
    fn flags(&self) -> u8 {
        let mut flags = 0;
        if self.no_wrapper {
            flags |= FLAG_NO_WRAPPER;
        }
        if self.want_stats {
            flags |= FLAG_WANT_STATS;
        }
        flags
    }
}

/// A blocking connection to an XMorph server.
pub struct Client {
    stream: TcpStream,
    max_payload: u64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_payload: DEFAULT_MAX_PAYLOAD,
        })
    }

    /// Cap how large a reply this client will accept.
    pub fn set_max_payload(&mut self, bytes: u64) {
        self.max_payload = bytes;
    }

    /// Bound how long any single reply read may block.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Liveness probe. Also surfaces `BUSY`-at-accept: a server at its
    /// session limit answers the *connection* with `BUSY`, which this
    /// returns as `Ok(Reply::Busy)`.
    pub fn ping(&mut self) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, OpCode::Ping, &[])?;
        let frame = read_frame(&mut self.stream, self.max_payload)?;
        match frame.opcode {
            OpCode::Pong => Ok(Reply::Result {
                typing: 0,
                xml: String::new(),
                stats: None,
            }),
            _ => self.non_result_reply(frame.opcode, &frame.payload),
        }
    }

    /// Evaluate an XMorph guard against `store`.
    pub fn query(
        &mut self,
        store: &str,
        guard: &str,
        opts: QueryOpts,
    ) -> Result<Reply, ClientError> {
        self.submit(OpCode::Query, store, guard, opts)
    }

    /// Evaluate an XQuery against `store` (served by guard inference).
    pub fn xquery(
        &mut self,
        store: &str,
        query: &str,
        opts: QueryOpts,
    ) -> Result<Reply, ClientError> {
        self.submit(OpCode::XQuery, store, query, opts)
    }

    fn submit(
        &mut self,
        opcode: OpCode,
        store: &str,
        text: &str,
        opts: QueryOpts,
    ) -> Result<Reply, ClientError> {
        let payload = QueryPayload {
            store: store.to_string(),
            threads: opts.threads,
            flags: opts.flags(),
            text: text.to_string(),
        }
        .encode();
        write_frame(&mut self.stream, opcode, &payload)?;
        let (header, opcode, len) = read_header(&mut self.stream, self.max_payload)?;
        match opcode {
            OpCode::Result => {
                let result = read_result_payload(&mut self.stream, &header, len)?;
                let stats = if opts.want_stats {
                    let stats_frame = read_frame(&mut self.stream, self.max_payload)?;
                    if stats_frame.opcode != OpCode::StatsReply {
                        return Err(ClientError::UnexpectedReply(stats_frame.opcode));
                    }
                    Some(WireStats::decode(&stats_frame.payload)?)
                } else {
                    None
                };
                Ok(Reply::Result {
                    typing: result.typing,
                    xml: result.xml,
                    stats,
                })
            }
            _ => {
                let frame = read_payload(&mut self.stream, &header, opcode, len)?;
                self.non_result_reply(frame.opcode, &frame.payload)
            }
        }
    }

    /// Replace the text of the vertex at dotted Dewey `path`.
    pub fn update(&mut self, store: &str, path: &str, text: &str) -> Result<Reply, ClientError> {
        let payload = UpdatePayload {
            store: store.to_string(),
            path: path.to_string(),
            text: text.to_string(),
        }
        .encode();
        self.write_op(OpCode::Update, &payload)
    }

    /// Shred `xml` and append it under the parent at dotted Dewey
    /// `path`.
    pub fn insert(&mut self, store: &str, path: &str, xml: &str) -> Result<Reply, ClientError> {
        self.insert_mode(store, INSERT_MODE_APPEND, path, xml)
    }

    /// Shred `xml` and place it before the sibling at dotted Dewey
    /// `path`.
    pub fn insert_before(
        &mut self,
        store: &str,
        path: &str,
        xml: &str,
    ) -> Result<Reply, ClientError> {
        self.insert_mode(store, INSERT_MODE_BEFORE, path, xml)
    }

    fn insert_mode(
        &mut self,
        store: &str,
        mode: u8,
        path: &str,
        xml: &str,
    ) -> Result<Reply, ClientError> {
        let payload = InsertPayload {
            store: store.to_string(),
            mode,
            path: path.to_string(),
            xml: xml.to_string(),
        }
        .encode();
        self.write_op(OpCode::Insert, &payload)
    }

    /// Delete the subtree rooted at dotted Dewey `path`.
    pub fn delete(&mut self, store: &str, path: &str) -> Result<Reply, ClientError> {
        let payload = DeletePayload {
            store: store.to_string(),
            path: path.to_string(),
        }
        .encode();
        self.write_op(OpCode::Delete, &payload)
    }

    fn write_op(&mut self, opcode: OpCode, payload: &[u8]) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, opcode, payload)?;
        let frame = read_frame(&mut self.stream, self.max_payload)?;
        match frame.opcode {
            OpCode::Applied => {
                let applied = AppliedPayload::decode(&frame.payload)?;
                Ok(Reply::Applied {
                    kind: applied.kind,
                    epoch: applied.epoch,
                    detail: applied.detail,
                })
            }
            _ => self.non_result_reply(frame.opcode, &frame.payload),
        }
    }

    /// Store-wide cumulative counters for `store`.
    pub fn stats(&mut self, store: &str) -> Result<Result<WireStats, Reply>, ClientError> {
        let payload = StorePayload {
            store: store.to_string(),
        }
        .encode();
        write_frame(&mut self.stream, OpCode::Stats, &payload)?;
        let frame = read_frame(&mut self.stream, self.max_payload)?;
        match frame.opcode {
            OpCode::StatsReply => Ok(Ok(WireStats::decode(&frame.payload)?)),
            op => Ok(Err(self.non_result_reply(op, &frame.payload)?)),
        }
    }

    /// Names of the stores the server is serving.
    pub fn list_stores(&mut self) -> Result<Result<Vec<String>, Reply>, ClientError> {
        write_frame(&mut self.stream, OpCode::ListStores, &[])?;
        let frame = read_frame(&mut self.stream, self.max_payload)?;
        match frame.opcode {
            OpCode::Stores => Ok(Ok(crate::proto::decode_stores(&frame.payload)?)),
            op => Ok(Err(self.non_result_reply(op, &frame.payload)?)),
        }
    }

    /// Raw frame access, for protocol tests: send arbitrary bytes.
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        self.stream.write_all(bytes)
    }

    /// Raw frame access, for protocol tests: read one reply frame.
    #[doc(hidden)]
    pub fn recv_frame(&mut self) -> Result<crate::proto::Frame, ClientError> {
        Ok(read_frame(&mut self.stream, self.max_payload)?)
    }

    fn non_result_reply(&self, opcode: OpCode, payload: &[u8]) -> Result<Reply, ClientError> {
        match opcode {
            OpCode::Busy => {
                let limit = payload
                    .get(..4)
                    .and_then(|b| b.try_into().ok())
                    .map(u32::from_le_bytes)
                    .unwrap_or(0);
                Ok(Reply::Busy(limit))
            }
            OpCode::Error => {
                let err = ErrorPayload::decode(payload)?;
                Ok(Reply::Error {
                    code: err.code,
                    message: err.message,
                })
            }
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }
}
