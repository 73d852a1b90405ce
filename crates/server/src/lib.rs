//! Serving layer: many clients, one shredded store.
//!
//! The paper's pitch is a *service*: "millions of users can each see
//! the data in the shape they individually choose" — which implies a
//! long-lived process holding the shredded document, answering guard
//! queries over a wire. This crate is that process: a std-only TCP
//! server (no async runtime, no new dependencies — the workspace stays
//! hermetic) speaking a length-prefixed framed protocol whose headers
//! carry the same magic/version/checksum discipline as the on-disk
//! `colseg` and WAL formats.
//!
//! Three layers:
//!
//! * [`proto`] — the wire format: 40-byte checksummed frame headers,
//!   opcodes, typed error codes, and total (panic-free) payload
//!   decoders.
//! * [`server`] — accept/admit/dispatch/drain: a [`Server`] registers
//!   named [`xmorph_core::Engine`]s, admits a bounded number of
//!   connections, runs each query through a per-connection
//!   [`xmorph_core::Session`] (guard parses cached per connection),
//!   answers overload with `BUSY`, and shuts down by draining in-flight
//!   work before closing every store.
//! * [`client`] — a thin blocking [`Client`] used by the CLI, the
//!   end-to-end tests, and xbench's serving workloads.
//!
//! ```no_run
//! use xmorph_core::Engine;
//! use xmorph_server::{Client, QueryOpts, Reply, Server};
//!
//! let engine = Engine::from_xml("<library><book><title>W</title></book></library>")?;
//! let handle = Server::builder()
//!     .register("library", engine)
//!     .bind("127.0.0.1:0")?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! match client.query("library", "MORPH book [ title ]", QueryOpts::default())? {
//!     Reply::Result { xml, .. } => println!("{xml}"),
//!     Reply::Busy(_) => eprintln!("server at capacity, retry"),
//!     Reply::Error { code, message } => eprintln!("{code:?}: {message}"),
//!     other => unreachable!("{other:?}"),
//! }
//! // Writes go over the same wire; readers keep their snapshots.
//! if let Reply::Applied { epoch, .. } = client.update("library", "1.1.1", "W2")? {
//!     println!("published epoch {epoch}");
//! }
//! handle.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, QueryOpts, Reply};
pub use proto::{ErrorCode, OpCode, ProtoError, WireStats};
pub use server::{Registry, Server, ServerBuilder, ServerConfig, ServerHandle, ServerMetrics};
