//! `serve.point` and `serve.full`: closed-loop wire reads against one
//! in-memory store. The same read path used two ways: small results,
//! where compile, pin, admission and the frame round trip do the work,
//! and whole-document results, where render, frame checksums and the
//! socket do.

use crate::inputs::{self, Fingerprint};
use crate::metrics::Report;
use crate::stats::{self, mean, summarize, tail_rule, Summary};
use crate::trace::Tracer;
use crate::{Config, Workload};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmorph_core::render::RenderOptions;
use xmorph_core::{
    render_parallel_snapshot, Engine, Guard, ParallelOptions, QueryRequest, Session,
};
use xmorph_server::proto::{
    encode_frame, read_frame, OpCode, QueryPayload, ResultPayload, DEFAULT_MAX_PAYLOAD,
};
use xmorph_server::{Client, QueryOpts, Reply, Server, ServerHandle};
use xmorph_xml::{XmlEvent, XmlReader};

pub struct Spec {
    pub name: &'static str,
    /// XMark factor; the document is about 12.9 MB × factor.
    factor: f64,
    guards: &'static [&'static str],
    /// Guard cycles run before timing, so guard-parse and column caches
    /// are full.
    warmup_cycles: usize,
    /// Follow the one-connection latency phase with one connection per
    /// core, which is where throughput is read.
    capacity_phase: bool,
}

pub const POINT: Spec = Spec {
    name: "serve.point",
    factor: 0.2,
    guards: inputs::POINT_GUARDS,
    warmup_cycles: 80,
    capacity_phase: true,
};

pub const FULL: Spec = Spec {
    name: "serve.full",
    factor: 0.5,
    guards: inputs::FULL_GUARDS,
    warmup_cycles: 5,
    capacity_phase: false,
};

const STORE: &str = "xmark";

/// Every query asks for one render thread: the load generator has at
/// most one connection per core, so per-query fan-out would only
/// time-slice the same cores.
const OPTS: QueryOpts = QueryOpts {
    threads: 1,
    want_stats: false,
    no_wrapper: false,
};

pub struct Serve {
    spec: &'static Spec,
    engine: Arc<Engine>,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    /// Per guard: the in-process render of the same guard on the same
    /// document, which every wire reply must equal.
    oracle: Vec<Fingerprint>,
    doc_bytes: usize,
}

/// What one closed-loop connection saw.
struct Loop {
    /// Per guard, the latency of each correct reply in ms: request
    /// build to last result byte decoded.
    latency_ms: Vec<Vec<f64>>,
    bytes: u64,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl Loop {
    fn new(guards: usize) -> Loop {
        Loop {
            latency_ms: vec![Vec::new(); guards],
            bytes: 0,
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
        }
    }

    fn absorb(&mut self, other: Loop) {
        for (mine, theirs) in self.latency_ms.iter_mut().zip(other.latency_ms) {
            mine.extend(theirs);
        }
        self.bytes += other.bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }
}

impl Serve {
    pub fn setup(spec: &'static Spec, cfg: &Config) -> Result<Serve, String> {
        let xml = inputs::xmark_string(cfg.seed, spec.factor);
        let engine = Arc::new(Engine::from_xml(&xml).map_err(|e| format!("shred: {e}"))?);
        let mut oracle = Vec::new();
        for guard in spec.guards {
            let req = QueryRequest::builder(*guard).threads(1).build();
            let out = engine
                .query(&req)
                .map_err(|e| format!("oracle {guard}: {e}"))?
                .xml;
            if spec.guards.len() == 1 {
                well_formed(&out).map_err(|e| format!("oracle {guard} is not well-formed: {e}"))?;
            }
            oracle.push(Fingerprint::of(&out));
        }
        let handle = Server::builder()
            .register_shared(STORE, Arc::clone(&engine))
            .max_sessions(cfg.clients + 2)
            .max_inflight(cfg.clients)
            .bind("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let serve = Serve {
            spec,
            engine,
            addr: handle.addr(),
            handle: Some(handle),
            oracle,
            doc_bytes: xml.len(),
        };
        let warm = serve.closed_loop(0, Duration::ZERO, spec.warmup_cycles)?;
        if warm.failed != 0 {
            return Err(format!("{} warm-up queries failed", warm.failed));
        }
        Ok(serve)
    }

    /// One connection, each request sent when the previous reply is
    /// fully read; guards cycled from `offset`. Runs for `window` and
    /// until every guard was asked `floor` times.
    fn closed_loop(&self, offset: usize, window: Duration, floor: usize) -> Result<Loop, String> {
        let guards = self.spec.guards;
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut out = Loop::new(guards.len());
        let t0 = Instant::now();
        while t0.elapsed() < window || out.attempted < (floor * guards.len()) as u64 {
            let g = (offset + out.attempted as usize) % guards.len();
            let q0 = Instant::now();
            let reply = client
                .query(STORE, guards[g], OPTS)
                .map_err(|e| format!("query {}: {e}", guards[g]))?;
            let ms = q0.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match reply {
                Reply::Result { xml, .. } if Fingerprint::of(&xml) == self.oracle[g] => {
                    out.latency_ms[g].push(ms);
                    out.bytes += xml.len() as u64;
                }
                _ => out.failed += 1,
            }
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        Ok(out)
    }

    /// Per-guard summaries of a latency phase; prints one row per guard.
    fn summaries(&self, phase: &Loop, cfg: &Config) -> Vec<Summary> {
        let rule = tail_rule(self.spec.name);
        let floor = cfg.floor(rule.floor);
        phase
            .latency_ms
            .iter()
            .zip(self.spec.guards)
            .map(|(ms, guard)| {
                let s = summarize(ms, rule.label);
                println!(
                    "  {guard}: n {} (floor {floor})  p50 {:.4} ms  {} {:.4} ms",
                    s.n,
                    s.median,
                    s.tail_label(),
                    s.tail_value()
                );
                s
            })
            .collect()
    }

    fn describe(&self) {
        println!(
            "XMark factor {}: {} bytes, in-memory store; result bytes per guard {:?}",
            self.spec.factor,
            self.doc_bytes,
            self.oracle.iter().map(|o| o.len).collect::<Vec<_>>()
        );
    }

    /// One closed-loop connection per core for `window`: result MB/s.
    fn capacity_slice(
        &self,
        cfg: &Config,
        window: Duration,
        report: &mut Report,
    ) -> Result<f64, String> {
        let t0 = Instant::now();
        let loops: Vec<Result<Loop, String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..cfg.clients)
                .map(|w| scope.spawn(move || self.closed_loop(w, window, 0)))
                .collect();
            workers
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or(Err("client thread panicked".to_string()))
                })
                .collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let mut bytes = 0;
        for l in loops {
            let l = l?;
            report.ops(l.attempted, l.failed);
            bytes += l.bytes;
        }
        Ok(bytes as f64 / 1e6 / wall_s)
    }

    fn latency_phase(&self, cfg: &Config, share: f64) -> Result<(Loop, Vec<Summary>), String> {
        self.describe();
        let floor = cfg.floor(tail_rule(self.spec.name).floor);
        let phase = self.closed_loop(0, cfg.window(share), floor)?;
        println!(
            "latency phase: 1 connection, closed loop, {} queries in {:.2} s",
            phase.attempted, phase.wall_s
        );
        let summaries = self.summaries(&phase, cfg);
        Ok((phase, summaries))
    }
}

impl Workload for Serve {
    fn measure(&mut self, cfg: &Config, report: &mut Report) -> Result<(), String> {
        self.describe();
        // The window is cut into laps and each metric is the median of
        // its per-lap values, so a burst of interference from outside
        // spoils a lap, not the run. Each lap opens fresh connections.
        let laps = cfg.laps();
        let phases = if self.spec.capacity_phase { 2 } else { 1 };
        let slice = cfg.window(1.0 / (laps * phases) as f64);
        let floor = cfg.floor(tail_rule(self.spec.name).floor).div_ceil(laps);
        let mut pooled = Loop::new(self.spec.guards.len());
        let (mut lap_p50, mut lap_mbps) = (Vec::new(), Vec::new());
        for _ in 0..laps {
            let lap = self.closed_loop(0, slice, floor)?;
            // The mean of the guards' medians: the median of the blended
            // distribution would sit on the edge between two guards.
            let medians: Vec<f64> = lap.latency_ms.iter().map(|ms| stats::median(ms)).collect();
            lap_p50.push(mean(&medians));
            lap_mbps.push(if self.spec.capacity_phase {
                self.capacity_slice(cfg, slice, report)?
            } else {
                lap.bytes as f64 / 1e6 / lap.wall_s
            });
            pooled.absorb(lap);
        }
        report.ops(pooled.attempted, pooled.failed);
        println!(
            "latency: 1 connection, closed loop, {} queries in {:.2} s over {laps} laps",
            pooled.attempted, pooled.wall_s
        );
        self.summaries(&pooled, cfg);
        println!("per lap: p50_ms {lap_p50:.4?}  mb_per_s {lap_mbps:.2?}");
        report.set("p50_ms", stats::median(&lap_p50));
        report.set("mb_per_s", stats::median(&lap_mbps));
        Ok(())
    }

    fn trace(
        &mut self,
        cfg: &Config,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let guards = self.spec.guards;
        let handle = self.handle.as_ref().expect("server runs until teardown");

        // Untraced pass first: the baseline the traced pass is compared
        // with, and the tails the end-to-end run does not gate.
        let (phase, summaries) = self.latency_phase(cfg, 1.0 / 3.0)?;
        report.ops(phase.attempted, phase.failed);
        let untraced: Vec<f64> = summaries.iter().map(|s| s.median).collect();
        let tails: Vec<f64> = summaries.iter().map(Summary::tail_value).collect();
        report.set("wire_p50_ms", mean(&untraced));
        report.set("tail_ms", mean(&tails));

        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut ping_us = Vec::new();
        for _ in 0..cfg.floor(1000) {
            let t0 = Instant::now();
            let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
            ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
            report.op(matches!(pong, Reply::Result { .. }));
        }
        report.set("ping_us", stats::median(&ping_us));

        let server_before = handle.metrics();
        let io_before = self.engine.store().io_stats_snapshot();
        let mut session = self.engine.session();
        let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); guards.len()];
        let window = cfg.window(1.0 / 3.0);
        let floor = cfg.floor(20) * guards.len();
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed() < window || i < floor {
            let g = i % guards.len();
            i += 1;
            match self.traced_request(tracer, &mut client, &mut session, g)? {
                Some(sample) => {
                    report.op(true);
                    samples[g].push(sample);
                }
                None => report.op(false),
            }
        }
        let server = handle.metrics();
        let io = self.engine.store().io_stats_snapshot().since(&io_before);

        println!(
            "traced pass: {i} requests; per guard, medians in ms \
             (wire = Client::query; in-proc = Session::query; residual = wire - in-proc - proto)"
        );
        println!(
            "  {:<48} {:>5} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
            "guard", "n", "bytes", "wire", "in-proc", "compile", "render", "proto", "residual", "x"
        );
        let mut rows: Vec<Row> = Vec::new();
        for (g, of) in samples.iter().enumerate() {
            if of.is_empty() {
                return Err(format!("no traced request of {} succeeded", guards[g]));
            }
            let column = |f: &dyn Fn(&Sample) -> f64| -> f64 {
                stats::median(&of.iter().map(f).collect::<Vec<_>>())
            };
            let row = Row {
                bytes: self.oracle[g].len as f64,
                ms: std::array::from_fn(|k| column(&|s| s[k])),
                residual: column(&|s| s[WIRE] - s[ENGINE] - s[PROTO_REQUEST] - s[PROTO_RESULT]),
            };
            let ms = &row.ms;
            println!(
                "  {:<48} {:>5} {:>9} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}",
                guards[g],
                of.len(),
                row.bytes,
                ms[WIRE],
                ms[ENGINE],
                ms[COMPILE],
                ms[RENDER],
                ms[PROTO_REQUEST] + ms[PROTO_RESULT],
                row.residual,
                ms[WIRE] / ms[ENGINE]
            );
            // The stages called one by one must account for the one
            // call that runs them all, or the split is of something else.
            let staged = ms[PARSE] + ms[PIN] + ms[COMPILE] + ms[RENDER];
            println!(
                "  {:<48} parse+pin+compile+render = {:.4} ms = {:.1} % of in-proc",
                "",
                staged,
                100.0 * staged / ms[ENGINE]
            );
            rows.push(row);
        }
        let avg = |f: &dyn Fn(&Row) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
        let untraced = mean(&untraced);
        report.set(
            "trace_overhead_frac",
            (avg(&|r| r.ms[WIRE]) - untraced) / untraced,
        );
        report.set("parse_us", avg(&|r| r.ms[PARSE] * 1e3));
        report.set("pin_us", avg(&|r| r.ms[PIN] * 1e3));
        report.set("engine_total_ms", avg(&|r| r.ms[ENGINE]));
        report.set("compile_ms", avg(&|r| r.ms[COMPILE]));
        report.set("compile_share", avg(&|r| r.ms[COMPILE] / r.ms[ENGINE]));
        report.set("render_ms", avg(&|r| r.ms[RENDER]));
        report.set("render_mb_per_s", avg(&|r| r.mb() / (r.ms[RENDER] / 1e3)));
        report.set("output_bytes", avg(&|r| r.bytes));
        report.set("proto_request_us", avg(&|r| r.ms[PROTO_REQUEST] * 1e3));
        report.set("proto_result_ms", avg(&|r| r.ms[PROTO_RESULT]));
        report.set(
            "proto_ms_per_result_mb",
            avg(&|r| r.ms[PROTO_RESULT] / r.mb()),
        );
        report.set("wire_residual_ms", avg(&|r| r.residual));
        report.set(
            "wire_residual_ms_per_result_mb",
            avg(&|r| r.residual / r.mb()),
        );
        report.set_server(&server_before, &server);
        // An in-memory store has no device: these stay 0 unless a
        // change starts paging.
        report.set_io(&io);
        Ok(())
    }

    fn teardown(mut self) -> Result<(), String> {
        let handle = self.handle.take().expect("server runs until teardown");
        handle.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(())
    }
}

/// The spans of one traced request that the budget is made of; a
/// [`Sample`] holds their durations in ms, in this order.
const SPANS: [&str; 8] = [
    "wire",
    "engine",
    "parse",
    "pin",
    "compile",
    "render",
    "proto.request",
    "proto.result",
];
const WIRE: usize = 0;
const ENGINE: usize = 1;
const PARSE: usize = 2;
const PIN: usize = 3;
const COMPILE: usize = 4;
const RENDER: usize = 5;
const PROTO_REQUEST: usize = 6;
const PROTO_RESULT: usize = 7;

type Sample = [f64; SPANS.len()];

/// One guard's medians over its traced requests.
struct Row {
    bytes: f64,
    ms: Sample,
    /// Median of wire − engine − proto, request by request.
    residual: f64,
}

impl Row {
    fn mb(&self) -> f64 {
        self.bytes / 1e6
    }
}

impl Serve {
    /// One request over the wire, then the same request through each
    /// layer's public functions in this process, on the same engine:
    /// the server's own spans cannot be seen from outside, so the layers
    /// are run again where they can be timed. `None` when a check fails.
    fn traced_request(
        &self,
        tracer: &mut Tracer,
        client: &mut Client,
        session: &mut Session<'_>,
        g: usize,
    ) -> Result<Option<Sample>, String> {
        let guard = self.spec.guards[g];
        let want = self.oracle[g];
        let req = QueryRequest::builder(guard).threads(1).build();
        let popts = ParallelOptions {
            threads: 1,
            render: RenderOptions::default(),
        };
        let engine = &self.engine;
        let correct = tracer.request("request", |tr| -> Result<bool, String> {
            let reply = tr
                .span("wire", |_| client.query(STORE, guard, OPTS))
                .map_err(|e| format!("query {guard}: {e}"))?;
            let Reply::Result { typing, xml, .. } = reply else {
                return Ok(false);
            };
            let resp = tr
                .span("engine", |_| session.query(&req))
                .map_err(|e| format!("in-process {guard}: {e}"))?;
            let staged = tr.span("stages", |tr| -> Result<String, String> {
                let parsed = tr.span("parse", |_| Guard::parse(guard));
                let parsed = parsed.map_err(|e| e.to_string())?;
                let snap = tr.span("pin", |_| engine.snapshot());
                let analysis = tr.span("compile", |_| {
                    parsed
                        .analyze_snapshot(&snap)
                        .map(|a| a.permitted().then_some(a))
                });
                let analysis = analysis
                    .map_err(|e| e.to_string())?
                    .ok_or("guard rejected")?;
                tr.span("render", |_| {
                    render_parallel_snapshot(&snap, &analysis.target, &popts)
                })
                .map_err(|e| e.to_string())
            })?;
            let all_equal = Fingerprint::of(&xml) == want
                && Fingerprint::of(&resp.xml) == want
                && Fingerprint::of(&staged) == want;
            // The codec work both ends do for this request and reply,
            // on the same bytes: encode, frame, checksum, decode.
            tr.span("proto", |tr| -> Result<(), String> {
                tr.span("proto.request", |_| {
                    let payload = QueryPayload {
                        store: STORE.to_string(),
                        threads: OPTS.threads,
                        flags: 0,
                        text: guard.to_string(),
                    }
                    .encode();
                    let frame = encode_frame(OpCode::Query, &payload);
                    let frame = read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD)?;
                    QueryPayload::decode(&frame.payload)
                })
                .map_err(|e| e.to_string())?;
                tr.span("proto.result", |_| {
                    let payload = ResultPayload {
                        typing,
                        xml: resp.xml,
                    }
                    .encode();
                    let frame = encode_frame(OpCode::Result, &payload);
                    let frame = read_frame(&mut frame.as_slice(), DEFAULT_MAX_PAYLOAD)?;
                    ResultPayload::decode(&frame.payload)
                })
                .map_err(|e| e.to_string())?;
                Ok(())
            })?;
            Ok(all_equal)
        })?;
        Ok(correct.then(|| SPANS.map(|name| tracer.last_ms(name))))
    }
}

/// Drain the parser over `xml`: it must end at depth 0 without error.
fn well_formed(xml: &str) -> Result<(), String> {
    let mut reader = XmlReader::new(xml);
    loop {
        match reader.next_event() {
            Ok(XmlEvent::Eof) => break,
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    if reader.depth() == 0 {
        Ok(())
    } else {
        Err(format!("ends at depth {}", reader.depth()))
    }
}
