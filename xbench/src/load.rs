//! `load.stream`: the load path on a document bigger than every cache.
//! One file is shredded, round after round, into a fresh file-backed
//! store under a memory budget a small fraction of its size; each round
//! then closes the store, reopens it cold and asks one query, so a
//! load-time saving that was only moved into open still shows.

use crate::heap;
use crate::inputs::{self, canary, Fingerprint};
use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Config, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xmorph_core::{Engine, ShredOptions};
use xmorph_pagestore::buffer::{COMMIT_WINDOW, PENDING_PRESSURE};
use xmorph_pagestore::{IoSnapshot, Store, PAGE_SIZE};
use xmorph_xml::{XmlEvent, XmlStreamReader};

/// About 12.9 MB: 12 times the buffer pool below and 25 times the shred
/// budget, so the shredder spills about 25 sorted runs and merges them.
const FACTOR: f64 = 1.0;
const MEMORY_BUDGET: usize = 512 << 10;
/// 256 pages of 4 KiB: a 1 MiB buffer pool.
const POOL_PAGES: usize = 256;
/// Cold reopens, each with its first query, after every load.
const REOPENS: usize = 5;

pub struct LoadStream {
    input: PathBuf,
    input_bytes: u64,
    store: PathBuf,
    /// The canary's answer from an in-memory shred of the same file,
    /// which the warm-up round (round 0) matched.
    want: Fingerprint,
}

struct Round {
    parse_s: f64,
    shred_s: f64,
    flush_s: f64,
    reopen_query_ms: f64,
    open_ms: f64,
    store_bytes: u64,
    peak_heap: usize,
    io_load: IoSnapshot,
    io_reopen: IoSnapshot,
    answer: Fingerprint,
}

impl Round {
    /// The counts that must repeat exactly, round after round.
    fn counts(&self) -> [u64; 6] {
        [
            self.io_load.blocks_read,
            self.io_load.blocks_written,
            self.io_reopen.blocks_read,
            self.store_bytes,
            self.answer.len as u64,
            self.answer.fnv,
        ]
    }
}

impl LoadStream {
    pub fn setup(cfg: &Config) -> Result<LoadStream, String> {
        let input = cfg.scratch.join("load-input.xml");
        let input_bytes = inputs::xmark_file(cfg.seed, FACTOR, &input)?;
        let want = {
            let xml = std::fs::read_to_string(&input).map_err(|e| format!("read input: {e}"))?;
            let oracle = Engine::from_xml(&xml).map_err(|e| format!("in-memory shred: {e}"))?;
            Fingerprint::of(&canary(&oracle)?)
        };
        let load = LoadStream {
            input,
            input_bytes,
            store: cfg.scratch.join("load-store.db"),
            want,
        };
        let round0 = load.round(&mut Tracer::new(), false)?;
        if round0.answer != want {
            return Err("round 0 differs from the in-memory shred of the same file".to_string());
        }
        Ok(load)
    }

    /// One load: shred, flush, close, reopen cold, first query. The
    /// spans are the timers, so they run in the measured run too.
    fn round(&self, tracer: &mut Tracer, traced: bool) -> Result<Round, String> {
        let opts = ShredOptions::builder()
            .persist_columns(true)
            .memory_budget(MEMORY_BUDGET);
        tracer.request("round", |tr| {
            if traced {
                tr.span("xmlkit.parse", |_| self.parse_only())?;
                heap::start();
            }
            let store = Store::options()
                .capacity(POOL_PAGES)
                .create(&self.store)
                .map_err(|e| format!("create store: {e}"))?;
            let engine = tr
                .span("shred", |_| Engine::shred_path(store, &self.input, &opts))
                .map_err(|e| format!("shred: {e}"))?;
            tr.span("flush", |_| engine.store().flush())
                .map_err(|e| format!("flush: {e}"))?;
            let io_load = engine.store().io_stats_snapshot();
            tr.span("close", |_| engine.close())
                .map_err(|e| format!("close: {e}"))?;
            drop(engine);
            let peak_heap = if traced { heap::stop() } else { 0 };
            let store_bytes = std::fs::metadata(&self.store)
                .map_err(|e| format!("stat store: {e}"))?
                .len();

            // The cold reopen is a few milliseconds once a round, so it
            // is done several times and the round keeps the median: one
            // disturbed reopen does not become the round's value.
            let (mut reopen_ms, mut open_ms) = (Vec::new(), Vec::new());
            let mut last = None;
            for _ in 0..REOPENS {
                let (engine, xml) = tr.span("reopen", |tr| -> Result<_, String> {
                    let engine = tr
                        .span("open", |_| Engine::open_path(&self.store))
                        .map_err(|e| format!("reopen: {e}"))?;
                    let xml = tr.span("first_query", |_| canary(&engine))?;
                    Ok((engine, xml))
                })?;
                reopen_ms.push(tr.last_ms("reopen"));
                open_ms.push(tr.last_ms("open"));
                let io_reopen = engine.store().io_stats_snapshot();
                engine.close().map_err(|e| format!("close: {e}"))?;
                let seen = (io_reopen, Fingerprint::of(&xml));
                if last.is_some_and(|(io, answer): (IoSnapshot, _)| {
                    (io.blocks_read, answer) != (seen.0.blocks_read, seen.1)
                }) {
                    return Err("two reopens of one store differ".to_string());
                }
                last = Some(seen);
            }
            let (io_reopen, answer) = last.expect("REOPENS is at least 1");
            Ok(Round {
                parse_s: if traced {
                    tr.last_ms("xmlkit.parse") / 1e3
                } else {
                    0.0
                },
                shred_s: tr.last_ms("shred") / 1e3,
                flush_s: tr.last_ms("flush") / 1e3,
                reopen_query_ms: median(&reopen_ms),
                open_ms: median(&open_ms),
                store_bytes,
                peak_heap,
                io_load,
                io_reopen,
                answer,
            })
        })
    }

    /// The parser alone over the input file: what `shred` spends in xmlkit.
    fn parse_only(&self) -> Result<(), String> {
        let file = std::fs::File::open(&self.input).map_err(|e| format!("open input: {e}"))?;
        let mut reader = XmlStreamReader::new(file);
        loop {
            match reader.next_event() {
                Ok(XmlEvent::Eof) => return Ok(()),
                Ok(event) => drop(std::hint::black_box(event)),
                Err(e) => return Err(format!("parse input: {e}")),
            }
        }
    }

    /// Rounds for `seconds`, at least `floor` of them.
    fn rounds(
        &self,
        seconds: f64,
        floor: usize,
        report: &mut Report,
        tracer: &mut Tracer,
        traced: bool,
    ) -> Result<Vec<Round>, String> {
        println!(
            "XMark factor {FACTOR}: {} bytes on disk; file-backed store, {POOL_PAGES}-page pool, \
             shred budget {MEMORY_BUDGET} bytes, columns persisted",
            self.input_bytes
        );
        println!(
            "flush policy: the product default (WAL group commit: one fsync per {COMMIT_WINDOW} \
             commits or {PENDING_PRESSURE} pending pages), then Store::flush and close"
        );
        let t0 = Instant::now();
        let mut rounds = Vec::new();
        while t0.elapsed().as_secs_f64() < seconds || rounds.len() < floor {
            let round = self.round(tracer, traced)?;
            report.op(round.answer == self.want);
            rounds.push(round);
        }
        println!(
            "{} rounds in {:.2} s",
            rounds.len(),
            t0.elapsed().as_secs_f64()
        );
        Ok(rounds)
    }
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

impl Workload for LoadStream {
    fn measure(&mut self, cfg: &Config, report: &mut Report) -> Result<(), String> {
        let floor = if cfg.quick { 1 } else { 5 };
        let rounds = self.rounds(cfg.seconds, floor, report, &mut Tracer::new(), false)?;
        let input_mb = self.input_bytes as f64 / 1e6;
        println!(
            "per round: reopen+query ms {:.3?}  load s {:.3?}",
            rounds.iter().map(|r| r.reopen_query_ms).collect::<Vec<_>>(),
            rounds
                .iter()
                .map(|r| r.shred_s + r.flush_s)
                .collect::<Vec<_>>()
        );
        report.set("p50_ms", med(&rounds, |r| r.reopen_query_ms));
        report.set(
            "mb_per_s",
            input_mb / med(&rounds, |r| r.shred_s + r.flush_s),
        );
        Ok(())
    }

    fn trace(
        &mut self,
        cfg: &Config,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let floor = if cfg.quick { 2 } else { 5 };
        let rounds = self.rounds(cfg.seconds / 2.0, floor, report, tracer, true)?;

        // Determinism self-check: with one client and no timers these
        // counts repeat exactly, so a later issue may claim on them.
        let first = rounds[0].counts();
        println!(
            "exact counts per round: load blocks_read {} blocks_written {}, reopen blocks_read {}, \
             store file {} bytes, answer {} bytes",
            first[0], first[1], first[2], first[3], first[4]
        );
        println!(
            "spilled runs: not observable from outside, the shredder deletes its run segments \
             before it returns"
        );
        if let Some(i) = rounds.iter().position(|r| r.counts() != first) {
            return Err(format!(
                "round {i} counts {:?} differ from round 0 counts {first:?}: \
                 a count that does not repeat cannot carry a claim",
                rounds[i].counts()
            ));
        }

        let input = self.input_bytes as f64;
        let io = &rounds[0].io_load;
        report.set(
            "xml_parse_mb_per_s",
            input / 1e6 / med(&rounds, |r| r.parse_s),
        );
        report.set("parse_share", med(&rounds, |r| r.parse_s / r.shred_s));
        report.set("shred_s", med(&rounds, |r| r.shred_s));
        report.set("spill_merge_s", med(&rounds, |r| r.shred_s - r.parse_s));
        report.set("flush_s", med(&rounds, |r| r.flush_s));
        report.set("open_ms", med(&rounds, |r| r.open_ms));
        report.set("wire_p50_ms", med(&rounds, |r| r.reopen_query_ms));
        report.set("output_bytes", first[4] as f64);
        report.set("store_bytes_per_input_byte", first[3] as f64 / input);
        let peak = rounds.iter().map(|r| r.peak_heap).max().unwrap_or(0);
        report.set("peak_heap_mb", peak as f64 / 1e6);
        // Counts are round 0's, which every round repeats; times are medians.
        report.set_io(&IoSnapshot {
            read_time: Duration::from_secs_f64(med(&rounds, |r| r.io_load.read_time.as_secs_f64())),
            write_time: Duration::from_secs_f64(med(&rounds, |r| {
                r.io_load.write_time.as_secs_f64()
            })),
            ..*io
        });
        report.set(
            "bytes_written_per_input_byte",
            (io.blocks_written * PAGE_SIZE as u64) as f64 / input,
        );
        Ok(())
    }

    fn teardown(self) -> Result<(), String> {
        for path in [&self.input, &self.store] {
            std::fs::remove_file(path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        }
        Ok(())
    }
}
