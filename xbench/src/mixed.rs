//! `mixed.rw`: writes beside reads on one durable store. An open-loop
//! writer and a closed-loop reader share a file-backed, WAL-protected
//! engine over the wire: the writer gate, copy-on-write pins, tree
//! writes, WAL commits, epoch publication and cache invalidation all
//! run, which no read-only workload touches.

use crate::inputs::{self, canary, Fingerprint, Rng, CANARY};
use crate::metrics::Report;
use crate::stats::{mean, median, summarize, tail_rule, Pct};
use crate::trace::Tracer;
use crate::{Config, Workload};
use std::collections::{HashSet, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmorph_core::{Dewey, Engine, Mutation, MutationOutcome, QueryRequest, ShredOptions};
use xmorph_pagestore::Store;
use xmorph_server::proto::{APPLIED_DELETED, APPLIED_INSERTED, APPLIED_UPDATED};
use xmorph_server::{Client, QueryOpts, Reply, Server, ServerHandle, ServerMetrics};

const FACTOR: f64 = 0.2;
const STORE: &str = "xmark";
/// The writer's schedule: one write every 10 ms, whatever the replies do.
const WRITES_PER_S: f64 = 100.0;
/// A writer this far behind its schedule has become a closed loop; the
/// run says so and stops.
const MAX_LATENESS: Duration = Duration::from_secs(1);
/// How long before a due time the writer stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);
/// Idempotent writes (a name set to the text it has) before timing, so
/// the WAL, the writer gate and the copy-on-write path are warm.
const WARMUP_OPS: usize = 20;

const OPTS: QueryOpts = QueryOpts {
    threads: 1,
    want_stats: false,
    no_wrapper: false,
};

/// One scheduled write, addressed as the wire addresses it.
#[derive(Clone)]
enum Write {
    Update {
        path: String,
        text: String,
    },
    Insert {
        parent: String,
        xml: String,
        lands_at: String,
    },
    Delete {
        path: String,
    },
}

impl Write {
    fn mutation(&self) -> Result<Mutation, String> {
        let dewey = |p: &str| p.parse::<Dewey>().map_err(|_| format!("bad path {p}"));
        Ok(match self {
            Write::Update { path, text } => Mutation::UpdateText {
                target: dewey(path)?,
                text: text.clone(),
            },
            Write::Insert { parent, xml, .. } => Mutation::InsertSubtree {
                parent: dewey(parent)?,
                xml: xml.clone(),
            },
            Write::Delete { path } => Mutation::DeleteSubtree {
                target: dewey(path)?,
            },
        })
    }

    /// 0 update, 1 insert, 2 delete.
    fn kind(&self) -> usize {
        match self {
            Write::Update { .. } => 0,
            Write::Insert { .. } => 1,
            Write::Delete { .. } => 2,
        }
    }
}

pub struct MixedRw {
    xml: String,
    path: PathBuf,
    twin_path: PathBuf,
    engine: Arc<Engine>,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    plan: Vec<Write>,
    /// The canary's render after every prefix of the plan, from a twin
    /// engine that applied the same writes: what a snapshot may show.
    prefixes: HashSet<Fingerprint>,
    /// The canary's render after the whole plan.
    last: Fingerprint,
}

/// What the writer and the reader saw over the wire.
struct Wire {
    /// Per correct write: its kind and its latency from its due time.
    writes: Vec<(usize, f64)>,
    lateness_ms: Vec<f64>,
    reads: Vec<Read>,
    wall_s: f64,
    /// The server's counters when it shut down.
    server: ServerMetrics,
}

/// One correct reply to the reader.
struct Read {
    /// When it was fully read, in seconds from the start of the pass.
    done_s: f64,
    ms: f64,
    bytes: usize,
}

impl Wire {
    fn read_ms(&self) -> Vec<f64> {
        self.reads.iter().map(|r| r.ms).collect()
    }

    fn write_ms(&self) -> Vec<f64> {
        self.writes.iter().map(|w| w.1).collect()
    }
}

const SPAN_NAMES: [&str; 3] = ["mutate.update", "mutate.insert", "mutate.delete"];

/// The median latency of each kind of write, then their mean: an
/// update is a few microseconds of store work and an insert a few
/// milliseconds, so the plain median would be the updates' alone.
fn kinds_p50(writes: &[(usize, f64)]) -> f64 {
    let medians: Vec<f64> = (0..3)
        .map(|kind| {
            let of: Vec<f64> = writes.iter().filter(|w| w.0 == kind).map(|w| w.1).collect();
            median(&of)
        })
        .collect();
    mean(&medians)
}

fn file_engine(path: &std::path::Path, xml: &str) -> Result<Engine, String> {
    // Product defaults: 1024-page pool, WAL on, default commit window.
    let store = Store::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Engine::shred(store, xml, &ShredOptions::default()).map_err(|e| format!("shred: {e}"))
}

impl MixedRw {
    pub fn setup(cfg: &Config) -> Result<MixedRw, String> {
        let xml = inputs::xmark_string(cfg.seed, FACTOR);
        let path = cfg.scratch.join("mixed-store.db");
        let engine = Arc::new(file_engine(&path, &xml)?);

        // The twin: the same document, the same writes, one at a time.
        let twin = Engine::from_xml(&xml).map_err(|e| format!("twin shred: {e}"))?;
        let (names, people) = {
            let doc = twin.doc();
            let path: Vec<String> = ["site", "people", "person", "name"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let name_t = doc.types().lookup(&path).ok_or("no person/name type")?;
            let names = doc.scan_type(name_t);
            let first = names.first().ok_or("no person in the document")?;
            let people = first.0.parent().and_then(|p| p.parent());
            (names, people.ok_or("name has no people ancestor")?)
        };

        // 80 % updates of a seeded choice of name, 10 % inserts, 10 %
        // deletes of the oldest inserted person still there, so the
        // document keeps its size.
        let writes = (WRITES_PER_S * cfg.seconds).ceil() as usize;
        let mut rng = Rng::new(cfg.seed);
        let mut inserted: VecDeque<String> = VecDeque::new();
        let mut plan = Vec::with_capacity(writes);
        let mut prefixes = HashSet::new();
        let mut last = Fingerprint::of(&canary(&twin)?);
        prefixes.insert(last);
        for k in 0..writes {
            let mut write = match k % 10 {
                4 => Write::Insert {
                    parent: people.to_string(),
                    xml: format!("<person><name>NEW{k}</name></person>"),
                    lands_at: String::new(),
                },
                9 => Write::Delete {
                    path: inserted.pop_front().ok_or("delete before any insert")?,
                },
                _ => Write::Update {
                    path: names[rng.below(names.len())].0.to_string(),
                    text: format!("V{k}"),
                },
            };
            let outcome = twin
                .mutate(&write.mutation()?)
                .map_err(|e| format!("twin write {k}: {e}"))?;
            if let (Write::Insert { lands_at, .. }, MutationOutcome::Inserted(at)) =
                (&mut write, &outcome)
            {
                *lands_at = at.to_string();
                inserted.push_back(at.to_string());
            }
            plan.push(write);
            last = Fingerprint::of(&canary(&twin)?);
            prefixes.insert(last);
        }

        let handle = Server::builder()
            .register_shared(STORE, Arc::clone(&engine))
            .max_inflight(2)
            .bind("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let mixed = MixedRw {
            xml,
            path,
            twin_path: cfg.scratch.join("mixed-twin.db"),
            engine,
            addr: handle.addr(),
            handle: Some(handle),
            plan,
            prefixes,
            last,
        };
        mixed.warm_up(&names[0].0.to_string(), &names[0].1)?;
        Ok(mixed)
    }

    fn warm_up(&self, path: &str, text: &str) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        for _ in 0..WARMUP_OPS {
            let applied = client
                .update(STORE, path, text)
                .map_err(|e| format!("warm-up update: {e}"))?;
            let read = client
                .query(STORE, CANARY, OPTS)
                .map_err(|e| format!("warm-up read: {e}"))?;
            let same = matches!(&read, Reply::Result { xml, .. } if self.prefixes.contains(&Fingerprint::of(xml)));
            if !matches!(applied, Reply::Applied { .. }) || !same {
                return Err("warm-up changed the document or was refused".to_string());
            }
        }
        Ok(())
    }

    /// The open-loop writer: write `k` is due at `start + k / rate`
    /// whatever happened to the writes before it, and its latency runs
    /// from that instant.
    fn writer(&self, report: &mut Report, wire: &mut Wire) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let start = Instant::now() + Duration::from_millis(5);
        let mut epoch = 0;
        for (k, write) in self.plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / WRITES_PER_S);
            // Sleep to just short of the due time, then spin: a sleep
            // alone overshoots by a large part of a write's latency.
            if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
                std::thread::sleep(wait);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let lateness = Instant::now().saturating_duration_since(due);
            if lateness > MAX_LATENESS {
                return Err(format!(
                    "run invalid: write {k} left {lateness:?} after it was due; \
                     the writer cannot hold {WRITES_PER_S} writes/s open loop"
                ));
            }
            let reply = match write {
                Write::Update { path, text } => client.update(STORE, path, text),
                Write::Insert { parent, xml, .. } => client.insert(STORE, parent, xml),
                Write::Delete { path } => client.delete(STORE, path),
            }
            .map_err(|e| format!("write {k}: {e}"))?;
            let done = Instant::now();
            let ok = match (&reply, write) {
                (
                    Reply::Applied {
                        kind,
                        epoch: e,
                        detail,
                    },
                    write,
                ) if *e > epoch => {
                    epoch = *e;
                    match write {
                        Write::Update { .. } => *kind == APPLIED_UPDATED,
                        Write::Insert { lands_at, .. } => {
                            *kind == APPLIED_INSERTED && detail == lands_at
                        }
                        Write::Delete { .. } => *kind == APPLIED_DELETED,
                    }
                }
                _ => false,
            };
            report.op(ok);
            if ok {
                wire.writes
                    .push((write.kind(), done.duration_since(due).as_secs_f64() * 1e3));
                wire.lateness_ms.push(lateness.as_secs_f64() * 1e3);
            }
        }
        Ok(())
    }

    /// Writer and reader together until the plan is applied, then a
    /// restart: the reopened store must hold every acknowledged write.
    fn wire_pass(&mut self, report: &mut Report) -> Result<Wire, String> {
        println!(
            "XMark factor {FACTOR}: {} bytes; file-backed store, WAL on, product defaults; \
             writer open loop at {WRITES_PER_S} writes/s for {} writes, reader closed loop on {CANARY}",
            self.xml.len(),
            self.plan.len()
        );
        let mut wire = Wire {
            writes: Vec::new(),
            lateness_ms: Vec::new(),
            reads: Vec::new(),
            wall_s: 0.0,
            server: ServerMetrics::default(),
        };
        let done = AtomicBool::new(false);
        let this = &*self;
        let t0 = Instant::now();
        let (written, read) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| -> Result<(Vec<Read>, u64), String> {
                let mut client = Client::connect(this.addr).map_err(|e| format!("connect: {e}"))?;
                let (mut reads, mut failed) = (Vec::new(), 0);
                while !done.load(Ordering::Acquire) {
                    let q0 = Instant::now();
                    let reply = client
                        .query(STORE, CANARY, OPTS)
                        .map_err(|e| format!("read: {e}"))?;
                    let ms = q0.elapsed().as_secs_f64() * 1e3;
                    match reply {
                        Reply::Result { xml, .. }
                            if this.prefixes.contains(&Fingerprint::of(&xml)) =>
                        {
                            reads.push(Read {
                                done_s: t0.elapsed().as_secs_f64(),
                                ms,
                                bytes: xml.len(),
                            });
                        }
                        _ => failed += 1,
                    }
                }
                Ok((reads, failed))
            });
            let written = this.writer(report, &mut wire);
            // Release pairs with the reader's Acquire: the flag only
            // stops the loop, it publishes no data.
            done.store(true, Ordering::Release);
            let read = reader
                .join()
                .unwrap_or(Err("reader thread panicked".to_string()));
            (written, read)
        });
        wire.wall_s = t0.elapsed().as_secs_f64();
        written?;
        let (reads, read_failed) = read?;
        report.ops(reads.len() as u64 + read_failed, read_failed);
        wire.reads = reads;

        let handle = self.handle.take().expect("server runs until the wire pass");
        wire.server = handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let reopened = Engine::open_path(&self.path).map_err(|e| format!("reopen: {e}"))?;
        let survived = Fingerprint::of(&canary(&reopened)?) == self.last;
        reopened.close().map_err(|e| format!("close: {e}"))?;
        println!(
            "restart check: acknowledged writes {}",
            if survived {
                "all present after close and reopen"
            } else {
                "LOST"
            }
        );
        report.op(survived);
        Ok(wire)
    }
}

impl Workload for MixedRw {
    fn measure(&mut self, cfg: &Config, report: &mut Report) -> Result<(), String> {
        let wire = self.wire_pass(report)?;
        let writes = summarize(&wire.write_ms(), tail_rule("mixed.rw").label);
        println!(
            "writes: n {}  p50 {:.4} ms  {} {:.4} ms from due time; reads: n {}  p50 {:.4} ms",
            writes.n,
            writes.median,
            writes.tail_label(),
            writes.tail_value(),
            wire.reads.len(),
            median(&wire.read_ms())
        );
        // Each metric is the median of its per-lap values, so a burst of
        // interference from outside spoils a lap, not the run.
        let laps = cfg.laps();
        let lap_p50: Vec<f64> = wire
            .writes
            .chunks(wire.writes.len().div_ceil(laps).max(1))
            .map(kinds_p50)
            .collect();
        let lap_s = wire.wall_s / laps as f64;
        let mut lap_mb = vec![0.0; laps];
        for read in &wire.reads {
            lap_mb[((read.done_s / lap_s) as usize).min(laps - 1)] += read.bytes as f64 / 1e6;
        }
        let lap_mbps: Vec<f64> = lap_mb.iter().map(|mb| mb / lap_s).collect();
        println!("per lap: p50_ms {lap_p50:.4?}  mb_per_s {lap_mbps:.2?}");
        report.set("p50_ms", median(&lap_p50));
        report.set("mb_per_s", median(&lap_mbps));
        Ok(())
    }

    fn trace(
        &mut self,
        _cfg: &Config,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let handle = self
            .handle
            .as_ref()
            .expect("server runs until the wire pass");
        let server_before = handle.metrics();
        let io_before = self.engine.store().io_stats_snapshot();
        let wire = self.wire_pass(report)?;
        // `shutdown` closed the store; the counters outlive it.
        let io = self.engine.store().io_stats_snapshot().since(&io_before);

        let writes = summarize(&wire.write_ms(), tail_rule("mixed.rw").label);
        let reads = summarize(&wire.read_ms(), Pct::P99);
        println!(
            "writes: n {}  tail {}; reads: n {}  tail {}",
            writes.n,
            writes.tail_label(),
            reads.n,
            reads.tail_label()
        );
        report.set("wire_p50_ms", kinds_p50(&wire.writes));
        report.set("tail_ms", writes.tail_value());
        report.set("read_p50_ms", reads.median);
        report.set("read_tail_ms", reads.tail_value());
        report.set("writer_lateness_p50_ms", median(&wire.lateness_ms));
        report.set(
            "writer_lateness_max_ms",
            wire.lateness_ms.iter().copied().fold(0.0, f64::max),
        );
        report.set("output_bytes", self.last.len as f64);
        report.set_io(&io);
        report.set(
            "blocks_written_per_write",
            io.blocks_written as f64 / self.plan.len() as f64,
        );
        report.set_server(&server_before, &wire.server);

        // The same writes, in process, on a twin file store: what each
        // kind costs below the wire, and what the pin and the read that
        // follow a write cost once it has invalidated their caches.
        let twin = file_engine(&self.twin_path, &self.xml)?;
        let mut session = twin.session();
        let canary_req = QueryRequest::builder(CANARY).threads(1).build();
        let mut by_kind: [Vec<f64>; 3] = Default::default();
        let (mut pin_us, mut read_ms) = (Vec::new(), Vec::new());
        for (k, write) in self.plan.iter().enumerate() {
            let mutation = write.mutation()?;
            let span = SPAN_NAMES[write.kind()];
            let ok = tracer.request("write", |tr| -> Result<bool, String> {
                let outcome = tr
                    .span(span, |_| twin.mutate(&mutation))
                    .map_err(|e| format!("twin write {k}: {e}"))?;
                drop(tr.span("pin", |_| twin.snapshot()));
                tr.span("engine", |_| session.query(&canary_req))
                    .map_err(|e| format!("twin read {k}: {e}"))?;
                Ok(match (outcome, write) {
                    (MutationOutcome::Inserted(at), Write::Insert { lands_at, .. }) => {
                        at.to_string() == *lands_at
                    }
                    _ => true,
                })
            })?;
            report.op(ok);
            by_kind[write.kind()].push(tracer.last_ms(span) * 1e3);
            pin_us.push(tracer.last_ms("pin") * 1e3);
            read_ms.push(tracer.last_ms("engine"));
        }
        report.op(Fingerprint::of(&canary(&twin)?) == self.last);
        twin.close().map_err(|e| format!("close twin: {e}"))?;
        report.set("pin_us", median(&pin_us));
        report.set("engine_total_ms", median(&read_ms));
        report.set("mutate_update_us", median(&by_kind[0]));
        report.set("mutate_insert_us", median(&by_kind[1]));
        report.set("mutate_delete_us", median(&by_kind[2]));
        Ok(())
    }

    fn teardown(mut self) -> Result<(), String> {
        if let Some(handle) = self.handle.take() {
            handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        for path in [&self.path, &self.twin_path] {
            if path.exists() {
                std::fs::remove_file(path)
                    .map_err(|e| format!("remove {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}
