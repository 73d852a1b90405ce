//! The TCP server: accept, admit, dispatch, drain.
//!
//! Std-only by design (`std::net` + `std::thread`): the workspace
//! builds hermetically, so there is no async runtime — each admitted
//! connection gets a handler thread, bounded by the session permit
//! gate. The concurrency that matters for throughput lives below this
//! layer anyway: every query fans out across the parallel renderer,
//! and the sharded buffer pool keeps concurrent queries' page reads
//! from contending.
//!
//! **Admission control.** Two permit gates, both answering overload
//! with a [`OpCode::Busy`] frame instead of queueing unboundedly:
//!
//! 1. *Sessions*: an accepted connection beyond
//!    [`ServerConfig::max_sessions`] is answered `BUSY` and closed
//!    immediately — the accept queue never grows past the OS listen
//!    backlog plus the bounded handler set.
//! 2. *In-flight queries*: a `QUERY`/`XQUERY` arriving while
//!    [`ServerConfig::max_inflight`] queries are executing is answered
//!    `BUSY` on the open connection; the client keeps its session and
//!    retries.
//!
//! **Graceful shutdown.** [`ServerHandle::shutdown`] stops the
//! acceptor, lets every in-flight request finish (handlers poll the
//! shutdown flag between frames and answer further requests with
//! `ERROR/SHUTDOWN`), waits for the handler set to drain, then calls
//! `Store::close()` on every registered store — flushing WAL state so
//! the next open replays nothing.

use crate::proto::{
    self, encode_stores, parse_header, read_payload, write_frame, write_frame_parts,
    AppliedPayload, DeletePayload, ErrorCode, ErrorPayload, Frame, InsertPayload, OpCode,
    ProtoError, QueryPayload, ResultPayload, StorePayload, UpdatePayload, WireStats,
    APPLIED_DELETED, APPLIED_INSERTED, APPLIED_UPDATED, FLAG_NO_WRAPPER, FLAG_WANT_STATS,
    HEADER_LEN, INSERT_MODE_BEFORE,
};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use xmorph_core::{Dewey, Engine, MorphError, Mutation, MutationOutcome, QueryRequest, Session};

/// Serving knobs. The defaults suit tests and benches; the CLI maps
/// flags onto these.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections admitted; the rest get `BUSY` + close.
    pub max_sessions: usize,
    /// Concurrent executing queries; the rest get `BUSY` on their open
    /// connection.
    pub max_inflight: usize,
    /// Per-frame payload cap, bytes.
    pub max_payload: u64,
    /// Default render threads for requests that say `0`. `0` here
    /// means one per available CPU.
    pub default_threads: usize,
    /// Refuse `UPDATE`/`INSERT`/`DELETE` with [`ErrorCode::ReadOnly`].
    /// Reads are unaffected.
    pub read_only: bool,
    /// How often an idle handler wakes to poll the shutdown flag.
    pub idle_poll: Duration,
    /// Artificial hold inside each query's in-flight window. Test-only
    /// hook making overload deterministic; keep at zero in production.
    #[doc(hidden)]
    pub query_hold: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 64,
            max_inflight: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_payload: proto::DEFAULT_MAX_PAYLOAD,
            default_threads: 0,
            read_only: false,
            idle_poll: Duration::from_millis(50),
            query_hold: Duration::ZERO,
        }
    }
}

/// Counters the server accumulates over its lifetime, snapshotted via
/// [`ServerHandle::metrics`]. Protocol violations count frames that
/// failed to decode — the crash-sweep discipline applied to the wire:
/// they must all surface as typed errors, so the bench gates on this
/// staying equal to the number of malformed frames *sent*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Connections accepted and admitted.
    pub sessions_admitted: u64,
    /// Connections answered `BUSY` at accept.
    pub sessions_rejected: u64,
    /// Queries answered with a `RESULT`.
    pub queries_ok: u64,
    /// Queries answered with a typed `ERROR`.
    pub queries_failed: u64,
    /// Queries answered `BUSY` by the in-flight gate.
    pub queries_busy: u64,
    /// Writes acknowledged with an `APPLIED`.
    pub writes_ok: u64,
    /// Writes answered with a typed `ERROR` (including `READ_ONLY`).
    pub writes_failed: u64,
    /// Frames that failed protocol validation (answered `ERROR`).
    pub protocol_errors: u64,
}

#[derive(Default)]
struct MetricCells {
    sessions_admitted: AtomicU64,
    sessions_rejected: AtomicU64,
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    queries_busy: AtomicU64,
    writes_ok: AtomicU64,
    writes_failed: AtomicU64,
    protocol_errors: AtomicU64,
}

impl MetricCells {
    fn snapshot(&self) -> ServerMetrics {
        ServerMetrics {
            sessions_admitted: self.sessions_admitted.load(Ordering::Relaxed),
            sessions_rejected: self.sessions_rejected.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            queries_busy: self.queries_busy.load(Ordering::Relaxed),
            writes_ok: self.writes_ok.load(Ordering::Relaxed),
            writes_failed: self.writes_failed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// A counting permit gate (semaphore without blocking: overload is
/// answered, not queued).
struct Gate {
    max: usize,
    count: AtomicUsize,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate {
            max: max.max(1),
            count: AtomicUsize::new(0),
        }
    }

    /// Claim a slot without constructing a guard; pair with
    /// [`Gate::release`]. Used when the permit must cross a thread
    /// boundary (session permits ride inside [`SessionPermit`]).
    fn try_claim(&self) -> bool {
        let mut current = self.count.load(Ordering::Relaxed);
        loop {
            if current >= self.max {
                return false;
            }
            match self.count.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    fn release(&self) {
        self.count.fetch_sub(1, Ordering::AcqRel);
    }

    fn try_acquire(&self) -> Option<GatePermit<'_>> {
        if self.try_claim() {
            Some(GatePermit { gate: self })
        } else {
            None
        }
    }
}

struct GatePermit<'g> {
    gate: &'g Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// An owned session permit: keeps `Shared` alive and frees the session
/// slot when the handler thread exits (any path, including panics).
struct SessionPermit {
    shared: Arc<Shared>,
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        self.shared.sessions.release();
    }
}

/// The immutable store registry: name → engine. Built before the
/// listener starts, never mutated after — lookups are lock-free.
pub struct Registry {
    engines: HashMap<String, Arc<Engine>>,
}

impl Registry {
    /// The engine registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Engine> {
        self.engines.get(name).map(Arc::as_ref)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.engines.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Builder for a serving instance.
pub struct ServerBuilder {
    engines: HashMap<String, Arc<Engine>>,
    config: ServerConfig,
}

impl ServerBuilder {
    /// Register `engine` under `name`. Re-registering a name replaces
    /// the previous engine.
    pub fn register(mut self, name: impl Into<String>, engine: Engine) -> Self {
        self.engines.insert(name.into(), Arc::new(engine));
        self
    }

    /// Register an engine that something else also holds.
    pub fn register_shared(mut self, name: impl Into<String>, engine: Arc<Engine>) -> Self {
        self.engines.insert(name.into(), engine);
        self
    }

    /// Replace the whole config.
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Cap concurrent connections.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.config.max_sessions = n;
        self
    }

    /// Cap concurrent executing queries.
    pub fn max_inflight(mut self, n: usize) -> Self {
        self.config.max_inflight = n;
        self
    }

    /// Cap frame payload size.
    pub fn max_payload(mut self, bytes: u64) -> Self {
        self.config.max_payload = bytes;
        self
    }

    /// Refuse write opcodes with `READ_ONLY`.
    pub fn read_only(mut self, yes: bool) -> Self {
        self.config.read_only = yes;
        self
    }

    /// Bind `addr` and start serving. Returns once the listener is
    /// live; `addr` may use port 0 for an ephemeral port (read it back
    /// from [`ServerHandle::addr`]).
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let max_sessions = self.config.max_sessions;
        let max_inflight = self.config.max_inflight;
        let shared = Arc::new(Shared {
            registry: Registry {
                engines: self.engines,
            },
            config: self.config,
            shutdown: AtomicBool::new(false),
            sessions: Gate::new(max_sessions),
            inflight: Gate::new(max_inflight),
            active: Mutex::new(0usize),
            drained: Condvar::new(),
            metrics: MetricCells::default(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xmorph-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

/// Everything the acceptor and handlers share.
struct Shared {
    registry: Registry,
    config: ServerConfig,
    shutdown: AtomicBool,
    sessions: Gate,
    inflight: Gate,
    active: Mutex<usize>,
    drained: Condvar,
    metrics: MetricCells,
}

/// A running server. Dropping the handle *without* calling
/// [`ServerHandle::shutdown`] aborts the acceptor but skips the drain
/// and the store close — always shut down explicitly outside tests.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

/// Entry point: `Server::builder()` → register stores → `bind`.
pub struct Server;

impl Server {
    /// Start building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            engines: HashMap::new(),
            config: ServerConfig::default(),
        }
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics.snapshot()
    }

    /// Stop accepting, drain in-flight work, close every registered
    /// store. Returns the final metrics. Store close errors are
    /// collected, not panicked — the first one is returned after all
    /// stores were attempted.
    pub fn shutdown(mut self) -> Result<ServerMetrics, MorphError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Drain: handlers decrement `active` on exit; they notice the
        // flag within one idle poll, finish their current request, and
        // leave.
        {
            let mut active = self.shared.active.lock().unwrap();
            while *active > 0 {
                let (guard, _timeout) = self
                    .shared
                    .drained
                    .wait_timeout(active, Duration::from_millis(200))
                    .unwrap();
                active = guard;
            }
        }
        let mut first_err = None;
        for name in self.shared.registry.names() {
            if let Some(engine) = self.shared.registry.get(&name) {
                if let Err(e) = engine.close() {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.shared.metrics.snapshot()),
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if !shared.sessions.try_claim() {
                    // Overload: typed BUSY, never an unbounded queue.
                    shared
                        .metrics
                        .sessions_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = write_frame(
                        &mut stream,
                        OpCode::Busy,
                        &(shared.config.max_sessions as u32).to_le_bytes(),
                    );
                    continue;
                }
                let permit = SessionPermit {
                    shared: Arc::clone(&shared),
                };
                shared
                    .metrics
                    .sessions_admitted
                    .fetch_add(1, Ordering::Relaxed);
                *shared.active.lock().unwrap() += 1;
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("xmorph-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &shared, permit);
                        let mut active = shared.active.lock().unwrap();
                        *active -= 1;
                        if *active == 0 {
                            shared.drained.notify_all();
                        }
                    })
                    .expect("spawn connection handler");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.idle_poll.min(Duration::from_millis(20)));
            }
            Err(_) => break,
        }
    }
}

/// What one blocking read attempt produced.
enum ReadOutcome {
    Frame(Frame),
    /// No bytes arrived within the idle poll window.
    Idle,
    /// Peer closed cleanly at a frame boundary.
    Eof,
    Malformed(ProtoError),
    /// The stream died mid-frame.
    Dead,
}

/// Read one frame with idle-aware timeouts: waiting for a *new* frame
/// times out quickly (so the handler can poll the shutdown flag), but
/// once the first byte of a frame arrives the rest may take up to
/// `FRAME_TIMEOUT` — a slow client mid-frame is not an idle client.
fn read_frame_idle(stream: &mut TcpStream, max_payload: u64, idle_poll: Duration) -> ReadOutcome {
    const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
    if stream.set_read_timeout(Some(idle_poll)).is_err() {
        return ReadOutcome::Dead;
    }
    let mut header = [0u8; HEADER_LEN];
    let first = match stream.read(&mut header) {
        Ok(0) => return ReadOutcome::Eof,
        Ok(n) => n,
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            return ReadOutcome::Idle
        }
        Err(_) => return ReadOutcome::Dead,
    };
    if stream.set_read_timeout(Some(FRAME_TIMEOUT)).is_err() {
        return ReadOutcome::Dead;
    }
    if let Err(e) = read_exact_into(stream, &mut header[first..]) {
        return match e {
            ProtoError::Truncated => ReadOutcome::Malformed(ProtoError::Truncated),
            _ => ReadOutcome::Dead,
        };
    }
    let (opcode, len) = match parse_header(&header, max_payload) {
        Ok(parsed) => parsed,
        Err(e) => return ReadOutcome::Malformed(e),
    };
    match read_payload(stream, &header, opcode, len) {
        Ok(frame) => ReadOutcome::Frame(frame),
        Err(e @ (ProtoError::Truncated | ProtoError::PayloadChecksum)) => ReadOutcome::Malformed(e),
        Err(ProtoError::Io(_)) => ReadOutcome::Dead,
        Err(e) => ReadOutcome::Malformed(e),
    }
}

fn read_exact_into(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => filled += n,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

fn send_error(stream: &mut TcpStream, code: ErrorCode, message: String) -> bool {
    let payload = ErrorPayload { code, message }.encode();
    write_frame(stream, OpCode::Error, &payload).is_ok()
}

fn handle_connection(mut stream: TcpStream, shared: &Shared, _permit: SessionPermit) {
    let _ = stream.set_nodelay(true);
    // Per-connection sessions, one per store actually queried — the
    // guard cache lives here, so a client replaying its guard parses
    // it once per connection, not once per request.
    let mut sessions: HashMap<String, Session<'_>> = HashMap::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = send_error(
                &mut stream,
                ErrorCode::Shutdown,
                "server is shutting down".to_string(),
            );
            return;
        }
        match read_frame_idle(
            &mut stream,
            shared.config.max_payload,
            shared.config.idle_poll,
        ) {
            ReadOutcome::Idle => continue,
            ReadOutcome::Eof | ReadOutcome::Dead => return,
            ReadOutcome::Malformed(e) => {
                shared
                    .metrics
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let code = match e {
                    ProtoError::Oversized { .. } => ErrorCode::Oversized,
                    ProtoError::BadOpcode(_) => ErrorCode::BadOpcode,
                    _ => ErrorCode::BadFrame,
                };
                // The stream may be desynchronized past this frame;
                // answer typed and close.
                let _ = send_error(&mut stream, code, e.to_string());
                return;
            }
            ReadOutcome::Frame(frame) => {
                if !dispatch(&mut stream, shared, &mut sessions, frame) {
                    return;
                }
            }
        }
    }
}

/// Handle one well-formed frame; returns `false` when the connection
/// should close.
fn dispatch<'a>(
    stream: &mut TcpStream,
    shared: &'a Shared,
    sessions: &mut HashMap<String, Session<'a>>,
    frame: Frame,
) -> bool {
    match frame.opcode {
        OpCode::Ping => write_frame(stream, OpCode::Pong, &[]).is_ok(),
        OpCode::ListStores => {
            let payload = encode_stores(&shared.registry.names());
            write_frame(stream, OpCode::Stores, &payload).is_ok()
        }
        OpCode::Stats => {
            let store = match StorePayload::decode(&frame.payload) {
                Ok(p) => p.store,
                Err(e) => {
                    shared
                        .metrics
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    return send_error(stream, ErrorCode::BadPayload, e.to_string());
                }
            };
            let Some(engine) = shared.registry.get(&store) else {
                return send_error(
                    stream,
                    ErrorCode::UnknownStore,
                    format!("no store named {store:?}"),
                );
            };
            let io = engine.store().io_stats_snapshot();
            let stats = WireStats {
                blocks_read: io.blocks_read,
                blocks_written: io.blocks_written,
                cache_hits: io.cache_hits,
                cache_misses: io.cache_misses,
                read_ns: io.read_time.as_nanos() as u64,
                write_ns: io.write_time.as_nanos() as u64,
                compile_ns: 0,
                render_ns: 0,
                column_bytes: engine.doc().column_bytes().total() as u64,
                threads: 0,
            };
            write_frame(stream, OpCode::StatsReply, &stats.encode()).is_ok()
        }
        OpCode::Query | OpCode::XQuery => {
            handle_query(stream, shared, sessions, frame.opcode, &frame.payload)
        }
        OpCode::Update | OpCode::Insert | OpCode::Delete => {
            handle_write(stream, shared, frame.opcode, &frame.payload)
        }
        // A response opcode arriving at the server is a client bug;
        // answer typed and keep the connection.
        OpCode::Pong
        | OpCode::Result
        | OpCode::StatsReply
        | OpCode::Error
        | OpCode::Busy
        | OpCode::Stores
        | OpCode::Applied => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            send_error(
                stream,
                ErrorCode::BadOpcode,
                format!("{:?} is a response opcode", frame.opcode),
            )
        }
    }
}

fn typing_code(t: xmorph_core::GuardTyping) -> u8 {
    match t {
        xmorph_core::GuardTyping::Strong => 0,
        xmorph_core::GuardTyping::Narrowing => 1,
        xmorph_core::GuardTyping::Widening => 2,
        xmorph_core::GuardTyping::Weak => 3,
    }
}

fn error_code(e: &MorphError) -> ErrorCode {
    match e {
        MorphError::Parse { .. } | MorphError::TooDeep { .. } => ErrorCode::GuardParse,
        MorphError::Rejected { .. } => ErrorCode::Rejected,
        _ => ErrorCode::Query,
    }
}

fn handle_query<'a>(
    stream: &mut TcpStream,
    shared: &'a Shared,
    sessions: &mut HashMap<String, Session<'a>>,
    opcode: OpCode,
    payload: &[u8],
) -> bool {
    let req = match QueryPayload::decode(payload) {
        Ok(p) => p,
        Err(e) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return send_error(stream, ErrorCode::BadPayload, e.to_string());
        }
    };
    // Admission: never queue — overload answers BUSY on the open
    // connection and the client decides when to retry.
    let Some(_permit) = shared.inflight.try_acquire() else {
        shared.metrics.queries_busy.fetch_add(1, Ordering::Relaxed);
        return write_frame(
            stream,
            OpCode::Busy,
            &(shared.config.max_inflight as u32).to_le_bytes(),
        )
        .is_ok();
    };
    if !shared.config.query_hold.is_zero() {
        std::thread::sleep(shared.config.query_hold);
    }
    let guard_text = match opcode {
        OpCode::Query => req.text.clone(),
        _ => match infer_guard(&req.text) {
            Ok(text) => text,
            Err(message) => {
                shared
                    .metrics
                    .queries_failed
                    .fetch_add(1, Ordering::Relaxed);
                return send_error(stream, ErrorCode::Query, message);
            }
        },
    };
    let threads = if req.threads > 0 {
        req.threads as usize
    } else {
        shared.config.default_threads
    };
    let mut builder = QueryRequest::builder(guard_text)
        .threads(threads)
        .stats(req.flags & FLAG_WANT_STATS != 0);
    if req.flags & FLAG_NO_WRAPPER != 0 {
        builder = builder.no_wrapper();
    }
    let query = builder.build();

    // Lazily bind this connection's session for the store. The
    // registry cannot be queried while a session for the same store is
    // borrowed mutably, so resolve the engine reference first.
    if !sessions.contains_key(&req.store) {
        let Some(engine) = shared.registry.get(&req.store) else {
            shared
                .metrics
                .queries_failed
                .fetch_add(1, Ordering::Relaxed);
            return send_error(
                stream,
                ErrorCode::UnknownStore,
                format!("no store named {:?}", req.store),
            );
        };
        sessions.insert(req.store.clone(), engine.session());
    }
    let session = sessions.get_mut(&req.store).expect("session just inserted");

    match session.query(&query) {
        Ok(resp) => {
            shared.metrics.queries_ok.fetch_add(1, Ordering::Relaxed);
            let result = ResultPayload {
                typing: typing_code(resp.typing),
                xml: resp.xml,
            };
            if write_frame_parts(stream, OpCode::Result, &result.parts()).is_err() {
                return false;
            }
            if let Some(stats) = resp.stats {
                let wire = WireStats {
                    blocks_read: stats.io.blocks_read,
                    blocks_written: stats.io.blocks_written,
                    cache_hits: stats.io.cache_hits,
                    cache_misses: stats.io.cache_misses,
                    read_ns: stats.io.read_time.as_nanos() as u64,
                    write_ns: stats.io.write_time.as_nanos() as u64,
                    compile_ns: stats.compile.as_nanos() as u64,
                    render_ns: stats.render.as_nanos() as u64,
                    column_bytes: stats.column_bytes_delta,
                    threads: stats.threads as u32,
                };
                return write_frame(stream, OpCode::StatsReply, &wire.encode()).is_ok();
            }
            true
        }
        Err(e) => {
            shared
                .metrics
                .queries_failed
                .fetch_add(1, Ordering::Relaxed);
            send_error(stream, error_code(&e), e.to_string())
        }
    }
}

/// Handle one write frame: decode, admit, mutate under the engine's
/// writer lock, answer `APPLIED` with the new epoch. Readers holding
/// pinned snapshots are untouched — the engine's copy-on-write
/// publication means a write never blocks an in-flight render, only
/// other writes.
fn handle_write(stream: &mut TcpStream, shared: &Shared, opcode: OpCode, payload: &[u8]) -> bool {
    let decoded: Result<(String, Mutation), ProtoError> = match opcode {
        OpCode::Update => UpdatePayload::decode(payload).and_then(|p| {
            let target = parse_path(&p.path)?;
            Ok((
                p.store,
                Mutation::UpdateText {
                    target,
                    text: p.text,
                },
            ))
        }),
        OpCode::Insert => InsertPayload::decode(payload).and_then(|p| {
            let path = parse_path(&p.path)?;
            let m = if p.mode == INSERT_MODE_BEFORE {
                Mutation::InsertBefore {
                    sibling: path,
                    xml: p.xml,
                }
            } else {
                Mutation::InsertSubtree {
                    parent: path,
                    xml: p.xml,
                }
            };
            Ok((p.store, m))
        }),
        _ => DeletePayload::decode(payload).and_then(|p| {
            let target = parse_path(&p.path)?;
            Ok((p.store, Mutation::DeleteSubtree { target }))
        }),
    };
    let (store, mutation) = match decoded {
        Ok(pair) => pair,
        Err(e) => {
            shared
                .metrics
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return send_error(stream, ErrorCode::BadPayload, e.to_string());
        }
    };
    if shared.config.read_only {
        shared.metrics.writes_failed.fetch_add(1, Ordering::Relaxed);
        return send_error(
            stream,
            ErrorCode::ReadOnly,
            "server is read-only".to_string(),
        );
    }
    // Writes share the in-flight gate with queries: overload answers
    // BUSY, it never queues.
    let Some(_permit) = shared.inflight.try_acquire() else {
        shared.metrics.queries_busy.fetch_add(1, Ordering::Relaxed);
        return write_frame(
            stream,
            OpCode::Busy,
            &(shared.config.max_inflight as u32).to_le_bytes(),
        )
        .is_ok();
    };
    let Some(engine) = shared.registry.get(&store) else {
        shared.metrics.writes_failed.fetch_add(1, Ordering::Relaxed);
        return send_error(
            stream,
            ErrorCode::UnknownStore,
            format!("no store named {store:?}"),
        );
    };
    match engine.mutate(&mutation) {
        Ok(outcome) => {
            shared.metrics.writes_ok.fetch_add(1, Ordering::Relaxed);
            let (kind, detail) = match outcome {
                MutationOutcome::Updated => (APPLIED_UPDATED, String::new()),
                MutationOutcome::Inserted(dewey) => (APPLIED_INSERTED, dewey.to_string()),
                MutationOutcome::Deleted(count) => (APPLIED_DELETED, count.to_string()),
            };
            let applied = AppliedPayload {
                kind,
                epoch: engine.epoch(),
                detail,
            };
            write_frame(stream, OpCode::Applied, &applied.encode()).is_ok()
        }
        Err(e) => {
            shared.metrics.writes_failed.fetch_add(1, Ordering::Relaxed);
            send_error(stream, ErrorCode::Mutate, e.to_string())
        }
    }
}

/// Parse a dotted Dewey path from the wire.
fn parse_path(path: &str) -> Result<Dewey, ProtoError> {
    Dewey::from_str(path).map_err(|_| ProtoError::BadPayload("malformed dewey path"))
}

/// Translate an XQuery into a guard the engine can run: extract the
/// query's navigation paths and infer the narrowest guard covering
/// them (the CLI's `infer` subcommand, server-side).
fn infer_guard(query: &str) -> Result<String, String> {
    let paths = xmorph_xqlite::query_shape_paths(query).map_err(|e| e.to_string())?;
    let below_root: Vec<Vec<String>> = paths
        .iter()
        .map(|p| p.iter().skip(1).cloned().collect::<Vec<_>>())
        .filter(|p: &Vec<String>| !p.is_empty())
        .collect();
    xmorph_core::infer::guard_from_paths(&below_root)
        .ok_or_else(|| "query navigates no shape below the document element".to_string())
}
