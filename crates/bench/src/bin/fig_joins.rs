//! Closest-join microbenchmark (repository extension, not a paper
//! figure): before/after numbers for the PR-2 and PR-3 hot-path work.
//!
//! Three measurements on one XMark document:
//!
//! 1. **Shredding** — the streaming shredder with incremental B+tree
//!    inserts (one root-to-leaf descent per entry, the seed behaviour)
//!    vs sort-once + bottom-up bulk loading.
//! 2. **Closest-join probes** — `closest_children` resolved through a
//!    B+tree prefix probe per parent (`closest_children_btree`, the
//!    seed hot path) vs the columnar path (two binary searches on the
//!    decoded type column), vs the batched kernel
//!    (`closest_children_batch`: one forward gallop pass resolving the
//!    whole document-ordered parent set), plus the `has_closest_child`
//!    existence probe. Every probe runs on one `Snapshot`, pinned
//!    before any timed loop. All sides are verified to return
//!    identical groups before timing.
//! 3. **Cold open** — reopen a file-backed store and touch every type
//!    column once: persisted column segments (delta/varint-compressed
//!    v2 records, mmap-backed where the platform allows) vs the lazy
//!    rebuild that decodes the `typeseq` B+tree, plus a third pass over
//!    the same document rewritten in the uncompressed v1 wire format so
//!    the compression ratio is measured, not estimated. This is the
//!    PR-3 persistence win plus the PR-7 compression win.
//! 4. **Update workload** — mutate ~1% of the document's nodes in
//!    place (`update_text` concentrated on the highest-count types),
//!    re-run the closest-join probes against the merged columns, then
//!    vacuum the store and reopen cold. The interesting numbers are
//!    the *maintenance scope* (how many columns re-decode after the
//!    mutation — per-type generations keep this to the touched types)
//!    and the *vacuum recovery* (dead segment pages reclaimed). This
//!    is the PR-4 mutation work.
//!
//! Flags: `--scale <f>` scales the document, `--smoke` runs a tiny
//! document with few iterations, `--json` writes the measurements to
//! `BENCH_PR7.json` in the current directory, and `--floors` exits
//! non-zero when a headline ratio regresses below the floors CI
//! enforces (mean join speed-up ≥ 110x, shred ≥ 1.6x, compressed
//! segments smaller than v1; at the CI scale, mapped bytes must stay
//! ≤ 70% of the v1 baseline recorded in `BENCH_PR6.json`).

use std::time::Instant;
use xmorph_bench::harness::{BenchStore, StoreKind};
use xmorph_bench::table::Table;
use xmorph_core::{OpenOptions, ShredOptions, ShreddedDoc, Snapshot, TypeId, TypeTable};
use xmorph_datagen::XmarkConfig;
use xmorph_pagestore::Store;
use xmorph_xml::dewey::Dewey;

/// Parent/child root paths joined in the microbench: a parent-child
/// edge, a deeper descendant edge, and a cousin pair (joins through an
/// ancestor).
const JOIN_PAIRS: &[(&str, &str)] = &[
    ("site.people.person", "site.people.person.name"),
    ("site.people.person", "site.people.person.address.city"),
    ("site.people.person.name", "site.people.person.address.city"),
];

/// `cold_open.mapped_bytes` from the committed `BENCH_PR6.json`: the
/// uncompressed v1 segment footprint at XMark factor 0.05 that the v2
/// delta/varint format is gated against (CI runs this binary at that
/// exact scale).
const V1_MAPPED_BYTES_BASELINE: usize = 973_774;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let floors = args.iter().any(|a| a == "--floors");
    let scale = xmorph_bench::parse_scale();

    let factor = if smoke { 0.004 } else { 0.05 * scale };
    let iters = if smoke { 3 } else { 40 };
    let xml = XmarkConfig::with_factor(factor).generate();
    println!(
        "Closest-join hot path (XMark factor {factor}, {} bytes, {iters} passes)\n",
        xml.len()
    );

    let (shred_inc_s, shred_bulk_s) = bench_shred(&xml);
    let mut table = Table::new(&["shred path", "seconds", "MB/s"]);
    let mb = xml.len() as f64 / 1e6;
    table.row(&[
        "incremental inserts".into(),
        format!("{shred_inc_s:.3}"),
        format!("{:.1}", mb / shred_inc_s),
    ]);
    table.row(&[
        "sorted bulk load".into(),
        format!("{shred_bulk_s:.3}"),
        format!("{:.1}", mb / shred_bulk_s),
    ]);
    table.print();
    println!(
        "shred speed-up: {:.2}x\n",
        shred_inc_s / shred_bulk_s.max(1e-9)
    );

    let bench_store = BenchStore::create(StoreKind::Memory, 4096);
    let doc = ShreddedDoc::shred_str(&bench_store.store, &xml).expect("shred");
    let joins = bench_joins(&doc.snapshot(), iters);

    let mut table = Table::new(&[
        "join pair",
        "parents",
        "btree probes/s",
        "columnar probes/s",
        "batched probes/s",
        "speed-up",
        "exists probes/s",
    ]);
    for j in &joins {
        table.row(&[
            j.label.clone(),
            j.parents.to_string(),
            format!("{:.0}", j.btree_probes_per_s),
            format!("{:.0}", j.columnar_probes_per_s),
            format!("{:.0}", j.batched_probes_per_s),
            format!("{:.2}x", j.speedup()),
            format!("{:.0}", j.exists_probes_per_s),
        ]);
    }
    table.print();
    // The headline gates the shipped path: the batched kernel (what
    // the renderer routes joins through) against the seed B+tree path.
    // The per-parent columnar ratio stays reported as the ablation.
    let total_speedup = joins
        .iter()
        .map(JoinBench::batch_speedup_vs_btree)
        .sum::<f64>()
        / joins.len() as f64;
    let scalar_speedup = joins.iter().map(JoinBench::speedup).sum::<f64>() / joins.len() as f64;
    let batch_speedup =
        joins.iter().map(JoinBench::batch_speedup).sum::<f64>() / joins.len() as f64;
    println!(
        "\nmean closest-join speed-up: {total_speedup:.2}x batched vs btree (per-parent \
         columnar {scalar_speedup:.2}x, batch amortization {batch_speedup:.2}x)"
    );

    let cold = bench_cold_open(&xml);
    let mut table = Table::new(&["cold-open first touch", "seconds", "col bytes"]);
    table.row(&[
        "persisted segments".into(),
        format!("{:.4}", cold.persisted_s),
        format!(
            "{} mapped / {} heap",
            cold.mapped_bytes, cold.persisted_heap_bytes
        ),
    ]);
    table.row(&[
        "lazy rebuild".into(),
        format!("{:.4}", cold.rebuild_s),
        format!("{} heap", cold.rebuild_heap_bytes),
    ]);
    table.row(&[
        "v1 (uncompressed) segments".into(),
        "-".into(),
        format!("{} mapped", cold.mapped_bytes_v1),
    ]);
    table.print();
    println!(
        "\ncold-open first-touch speed-up: {:.2}x ({} types, {} rows)",
        cold.speedup(),
        cold.types,
        cold.rows
    );
    println!(
        "v2 segment footprint: {} bytes vs {} uncompressed v1 ({:.1}% smaller)\n",
        cold.mapped_bytes,
        cold.mapped_bytes_v1,
        (1.0 - cold.mapped_bytes as f64 / cold.mapped_bytes_v1.max(1) as f64) * 100.0
    );

    let upd = bench_update(&xml, iters);
    let mut table = Table::new(&["update workload", "value"]);
    table.row(&[
        "nodes updated (~1%)".into(),
        format!("{} of {}", upd.nodes_updated, upd.nodes_total),
    ]);
    table.row(&["updates/s".into(), format!("{:.0}", upd.updates_per_s())]);
    table.row(&[
        "deferred column merges".into(),
        upd.merged_columns.to_string(),
    ]);
    table.row(&[
        "post-update probes/s".into(),
        format!("{:.0}", upd.post_probes_per_s),
    ]);
    table.row(&[
        "cold re-decoded columns".into(),
        format!(
            "{} of {} ({:.1}%)",
            upd.cold_redecodes,
            upd.types_total,
            upd.redecode_frac() * 100.0
        ),
    ]);
    table.row(&[
        "segments live / dead pages".into(),
        format!("{} / {}", upd.segments_live, upd.dead_pages_before_vacuum),
    ]);
    table.row(&[
        "vacuum reclaimed pages".into(),
        format!(
            "{} ({:.0}% of dead)",
            upd.vacuum_reclaimed_pages,
            upd.recovered_frac() * 100.0
        ),
    ]);
    table.print();
    println!(
        "\nmaintenance scope after 1% mutation: {:.1}% of columns re-decode; vacuum recovered {:.0}% of dead segment pages\n",
        upd.redecode_frac() * 100.0,
        upd.recovered_frac() * 100.0
    );

    if json {
        let path = "BENCH_PR7.json";
        std::fs::write(
            path,
            render_json(&xml, factor, shred_inc_s, shred_bulk_s, &joins, &cold, &upd),
        )
        .expect("write BENCH_PR7.json");
        println!("wrote {path}");
    }

    if floors {
        // The regression wall CI enforces: the headline ratios from the
        // committed benchmark results, with slack for machine noise.
        // Probe correctness is gated separately by the assert_eq checks
        // above — reaching this point means all probe paths agreed.
        let shred_speedup = shred_inc_s / shred_bulk_s.max(1e-9);
        let mut failed = false;
        if total_speedup < 110.0 {
            eprintln!("FLOOR VIOLATED: mean_join_speedup {total_speedup:.2} < 110");
            failed = true;
        }
        if shred_speedup < 1.6 {
            eprintln!("FLOOR VIOLATED: shred speedup {shred_speedup:.2} < 1.6");
            failed = true;
        }
        // The compressed format must beat uncompressed v1 at any scale;
        // at the CI scale (non-smoke, scale 1) the absolute footprint
        // is additionally held to <= 70% of the committed v1 baseline.
        if cold.mapped_bytes >= cold.mapped_bytes_v1 {
            eprintln!(
                "FLOOR VIOLATED: v2 mapped_bytes {} >= v1 mapped_bytes {}",
                cold.mapped_bytes, cold.mapped_bytes_v1
            );
            failed = true;
        }
        if !smoke && (scale - 1.0).abs() < 1e-9 {
            let limit = V1_MAPPED_BYTES_BASELINE * 7 / 10;
            if cold.mapped_bytes > limit {
                eprintln!(
                    "FLOOR VIOLATED: mapped_bytes {} > {limit} (70% of v1 baseline {})",
                    cold.mapped_bytes, V1_MAPPED_BYTES_BASELINE
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "floors held: mean join {total_speedup:.2}x >= 110, shred {shred_speedup:.2}x >= \
             1.6, v2 segments {} bytes < v1 {}",
            cold.mapped_bytes, cold.mapped_bytes_v1
        );
    }
}

/// Update-workload measurement: mutate ~1% of the nodes of a
/// file-backed document through `update_text`, concentrated on the
/// highest-count types (the update-locality premise), with every
/// column warm so maintenance takes the in-place merge path. Then
/// probe the joins again (correctness-gated against the B+tree),
/// vacuum the store, and reopen cold to count how many columns
/// actually re-decode — per-type generations keep that to the types
/// the mutation touched.
struct UpdateBench {
    nodes_updated: usize,
    nodes_total: u64,
    types_touched: usize,
    types_total: usize,
    update_s: f64,
    post_probes_per_s: f64,
    merged_columns: u64,
    invalidated_columns: u64,
    cold_redecodes: u64,
    segments_live: u64,
    dead_pages_before_vacuum: u64,
    vacuum_reclaimed_pages: u64,
}

impl UpdateBench {
    fn updates_per_s(&self) -> f64 {
        self.nodes_updated as f64 / self.update_s.max(1e-9)
    }
    fn redecode_frac(&self) -> f64 {
        self.cold_redecodes as f64 / self.types_total.max(1) as f64
    }
    /// Fraction of the *dead* pages (allocated but unreachable from any
    /// tree or live segment — free-listed, WAL-quarantined, or leaked
    /// by a dropped stale segment) that vacuum handed back. The old
    /// free-list-only denominator undercounted the dead set and pushed
    /// this past 1.0.
    fn recovered_frac(&self) -> f64 {
        let f = self.vacuum_reclaimed_pages as f64 / self.dead_pages_before_vacuum.max(1) as f64;
        assert!(
            (0.0..=1.0).contains(&f),
            "vacuum_recovered_frac {f} out of [0, 1]: reclaimed {} of {} dead pages",
            self.vacuum_reclaimed_pages,
            self.dead_pages_before_vacuum
        );
        f
    }
}

fn bench_update(xml: &str, iters: usize) -> UpdateBench {
    let dir = std::env::temp_dir().join("xmorph-bench");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("update-{}.db", std::process::id()));
    {
        let store = Store::options()
            .capacity(4096)
            .create(&path)
            .expect("create store");
        ShreddedDoc::shred_str(&store, xml).expect("shred");
        store.close().expect("close");
    }
    let store = Store::options()
        .capacity(4096)
        .open(&path)
        .expect("reopen store");
    let mut doc = ShreddedDoc::open(&store).expect("open doc");
    let types: Vec<TypeId> = doc.types().ids().collect();
    for &t in &types {
        doc.column(t); // warm every column from its persisted segment
    }
    let types_total = types.len();
    let nodes_total = doc.shape().total_instances();
    let target = (nodes_total / 100).max(1) as usize;

    let mut by_count = types.clone();
    by_count.sort_by_key(|&t| std::cmp::Reverse(doc.instance_count(t)));
    // Plan the whole update set (and its replacement texts) before the
    // clock starts; the timed region is update_text alone. Re-applying
    // the same plan is byte-identical steady-state work (same keys,
    // same values, same column merges), so like every other rate in
    // this file the loop runs several passes and reports the best —
    // a scheduler stall doesn't masquerade as a regression.
    let mut plan: Vec<(Dewey, String)> = Vec::with_capacity(target);
    let mut touched = 0usize;
    'outer: for &t in &by_count {
        let rows = doc.scan_type(t);
        if rows.is_empty() {
            break;
        }
        touched += 1;
        for (i, (dewey, _)) in rows.iter().enumerate() {
            plan.push((dewey.clone(), format!("upd{i}")));
            if plan.len() >= target {
                break 'outer;
            }
        }
    }
    let updated = plan.len();
    let passes = iters.clamp(2, 8);
    let mut best_rate_upd = 0f64;
    for _ in 0..passes {
        let t0 = Instant::now();
        for (dewey, text) in &plan {
            doc.update_text(dewey, text).expect("update");
        }
        let rate = updated as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        best_rate_upd = best_rate_upd.max(rate);
    }
    let update_s = updated as f64 / best_rate_upd.max(1e-9);

    // One read settles a whole burst's deferred merge; the merged
    // column must agree with the B+tree row for row.
    for &t in &by_count[..touched] {
        assert_eq!(
            doc.scan_type(t),
            doc.scan_type_btree(t).unwrap(),
            "post-update merge divergence for {t:?}"
        );
    }
    // Post-mutation joins: the merged columns must agree with the
    // B+tree everywhere before timing.
    let snap = doc.snapshot();
    let mut probe_targets = Vec::new();
    for &(ppath, cpath) in JOIN_PAIRS {
        let (Some(pt), Some(ct)) = (lookup(snap.types(), ppath), lookup(snap.types(), cpath))
        else {
            continue;
        };
        let parents = snap.scan_type(pt);
        for (p, _) in &parents {
            assert_eq!(
                snap.closest_children(p, pt, ct),
                snap.closest_children_btree(p, pt, ct).unwrap(),
                "post-update columnar/btree divergence at {p}"
            );
        }
        probe_targets.push((pt, ct, parents));
    }
    let post_probes_per_s = best_rate(iters, || {
        let mut probes = 0usize;
        for (pt, ct, parents) in &probe_targets {
            for (p, _) in parents {
                snap.closest_group(p, *pt, *ct);
                probes += 1;
            }
        }
        probes
    });
    // Read after the probes: merges are deferred to the first read, so
    // the counter only moves once the post-update scans settle them.
    let maint = doc.maintenance_stats();

    // The mutation dropped the touched types' stale segments, so their
    // extents are dead — free-listed or held in the WAL quarantine
    // until the next checkpoint. Vacuum must hand those pages back;
    // the dead count is measured against liveness, not the free list,
    // which sees none of the quarantined extents.
    let stats = store.stats().expect("stats");
    let dead_pages = store.page_count() - store.live_page_count().expect("live page count");
    drop((snap, doc));
    let reclaimed = store.vacuum().expect("vacuum");
    store.close().expect("close");

    // Cold reopen: only the mutated types lost their segments, so only
    // they re-decode from the B+tree.
    let store = Store::options()
        .capacity(4096)
        .open(&path)
        .expect("reopen after vacuum");
    let doc = ShreddedDoc::open(&store).expect("open doc");
    for t in doc.types().ids().collect::<Vec<_>>() {
        doc.column(t);
    }
    assert!(
        doc.segment_fallbacks().is_empty(),
        "segments failed validation after vacuum: {:?}",
        doc.segment_fallbacks()
    );
    let cold_redecodes = doc.maintenance_stats().column_rebuilds;
    let snap = doc.snapshot();
    let (ppath, cpath) = JOIN_PAIRS[0];
    if let (Some(pt), Some(ct)) = (lookup(snap.types(), ppath), lookup(snap.types(), cpath)) {
        for (p, _) in snap.scan_type(pt) {
            assert_eq!(
                snap.closest_children(&p, pt, ct),
                snap.closest_children_btree(&p, pt, ct).unwrap(),
                "post-vacuum columnar/btree divergence at {p}"
            );
        }
    }
    drop(doc);
    drop(store);
    std::fs::remove_file(&path).ok();

    UpdateBench {
        nodes_updated: updated,
        nodes_total,
        types_touched: touched,
        types_total,
        update_s,
        post_probes_per_s,
        merged_columns: maint.merged_columns,
        invalidated_columns: maint.invalidated_columns,
        cold_redecodes,
        segments_live: stats.segments_live,
        dead_pages_before_vacuum: dead_pages,
        vacuum_reclaimed_pages: reclaimed,
    }
}

/// Cold-open measurement: shred with column persistence into a temp
/// file store, close it, then time "reopen + touch every column" twice
/// — once served from persisted segments, once forced to rebuild from
/// the `typeseq` tree. The persisted path skips the B+tree walk and
/// per-key Dewey decode entirely.
struct ColdOpen {
    persisted_s: f64,
    rebuild_s: f64,
    /// Mapped bytes served from the current (v2, compressed) segments.
    mapped_bytes: usize,
    /// Mapped bytes after rewriting the same columns in the v1
    /// uncompressed wire format — the measured compression baseline.
    mapped_bytes_v1: usize,
    persisted_heap_bytes: usize,
    rebuild_heap_bytes: usize,
    types: usize,
    rows: usize,
}

impl ColdOpen {
    fn speedup(&self) -> f64 {
        self.rebuild_s / self.persisted_s.max(1e-9)
    }
}

fn bench_cold_open(xml: &str) -> ColdOpen {
    let dir = std::env::temp_dir().join("xmorph-bench");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("coldopen-{}.db", std::process::id()));
    {
        let store = Store::options()
            .capacity(4096)
            .create(&path)
            .expect("create store");
        ShreddedDoc::shred_str(&store, xml).expect("shred");
        store.close().expect("close");
    }
    let touch_all = |doc: &ShreddedDoc| -> usize {
        let mut rows = 0usize;
        for t in doc.types().ids().collect::<Vec<_>>() {
            rows += doc.column(t).len();
        }
        rows
    };
    // Persisted-segment side.
    let store = Store::options()
        .capacity(4096)
        .open(&path)
        .expect("reopen store");
    let t = Instant::now();
    let doc = ShreddedDoc::open(&store).expect("open doc");
    let rows = touch_all(&doc);
    let persisted_s = t.elapsed().as_secs_f64();
    assert!(
        doc.segment_fallbacks().is_empty(),
        "persisted segments failed validation: {:?}",
        doc.segment_fallbacks()
    );
    let persisted_bytes = doc.column_bytes();
    let types = doc.types().len();
    drop(doc);
    drop(store);
    // Rebuild side: same file, persisted columns ignored.
    let store = Store::options()
        .capacity(4096)
        .open(&path)
        .expect("reopen store");
    let t = Instant::now();
    let doc = ShreddedDoc::open_with(&store, &OpenOptions::builder().persisted_columns(false))
        .expect("open doc");
    let rows_rebuilt = touch_all(&doc);
    let rebuild_s = t.elapsed().as_secs_f64();
    assert_eq!(rows, rows_rebuilt, "cold-open paths disagree on row count");
    let rebuild_bytes = doc.column_bytes();
    drop(doc);
    drop(store);
    // v1-format side: rewrite the same columns in the uncompressed v1
    // wire format, reopen, and measure the mapped footprint so the
    // compression ratio is reported against the same document.
    let store = Store::options()
        .capacity(4096)
        .open(&path)
        .expect("reopen store");
    let doc = ShreddedDoc::open(&store).expect("open doc");
    doc.persist_all_columns_v1().expect("persist v1 segments");
    drop(doc);
    store.close().expect("close");
    let store = Store::options()
        .capacity(4096)
        .open(&path)
        .expect("reopen store");
    let doc = ShreddedDoc::open(&store).expect("open doc");
    let rows_v1 = touch_all(&doc);
    assert_eq!(rows, rows_v1, "v1 cold open disagrees on row count");
    assert!(
        doc.segment_fallbacks().is_empty(),
        "v1 segments failed validation: {:?}",
        doc.segment_fallbacks()
    );
    let v1_bytes = doc.column_bytes();
    drop(doc);
    drop(store);
    std::fs::remove_file(&path).ok();

    ColdOpen {
        persisted_s,
        rebuild_s,
        mapped_bytes: persisted_bytes.mapped,
        mapped_bytes_v1: v1_bytes.mapped,
        persisted_heap_bytes: persisted_bytes.heap,
        rebuild_heap_bytes: rebuild_bytes.heap,
        types,
        rows,
    }
}

/// Best observed rate over `chunks` repeats of `work` (which returns
/// the number of operations it performed). Reporting the best chunk
/// instead of one long timed block suppresses scheduler interference —
/// both sides of every speed-up ratio get the same treatment.
fn best_rate(chunks: usize, mut work: impl FnMut() -> usize) -> f64 {
    let mut best = 0f64;
    for _ in 0..chunks.max(1) {
        let t = Instant::now();
        let n = work();
        best = best.max(n as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Time one shred of `xml` for each load path, seconds (best of 7).
fn bench_shred(xml: &str) -> (f64, f64) {
    let one = |bulk: bool| {
        let bs = BenchStore::create(StoreKind::Memory, 4096);
        let t = Instant::now();
        ShreddedDoc::shred_str_with(&bs.store, xml, &ShredOptions::builder().bulk_load(bulk))
            .expect("shred");
        t.elapsed().as_secs_f64()
    };
    // Interleave the two load paths so a noisy scheduling window penalises
    // both sides equally rather than biasing whichever ran during it.
    let (mut incr, mut bulk) = (f64::MAX, f64::MAX);
    for _ in 0..7 {
        incr = incr.min(one(false));
        bulk = bulk.min(one(true));
    }
    (incr, bulk)
}

struct JoinBench {
    label: String,
    parents: usize,
    btree_probes_per_s: f64,
    columnar_probes_per_s: f64,
    batched_probes_per_s: f64,
    exists_probes_per_s: f64,
}

impl JoinBench {
    /// Per-parent columnar vs the seed B+tree path — the PR-2 ablation.
    fn speedup(&self) -> f64 {
        self.columnar_probes_per_s / self.btree_probes_per_s.max(1e-9)
    }
    /// Batch amortization: the batched kernel vs per-parent columnar.
    fn batch_speedup(&self) -> f64 {
        self.batched_probes_per_s / self.columnar_probes_per_s.max(1e-9)
    }
    /// The headline ratio: the shipped execution path (batched kernel,
    /// what the renderer routes joins through) vs the seed B+tree path.
    fn batch_speedup_vs_btree(&self) -> f64 {
        self.batched_probes_per_s / self.btree_probes_per_s.max(1e-9)
    }
}

fn lookup(types: &TypeTable, dotted: &str) -> Option<TypeId> {
    let path: Vec<String> = dotted.split('.').map(|s| s.to_string()).collect();
    types.lookup(&path)
}

fn bench_joins(doc: &Snapshot, iters: usize) -> Vec<JoinBench> {
    let mut out = Vec::new();
    for &(ppath, cpath) in JOIN_PAIRS {
        let (Some(pt), Some(ct)) = (lookup(doc.types(), ppath), lookup(doc.types(), cpath)) else {
            println!("skipping {ppath} -> {cpath}: type missing at this scale");
            continue;
        };
        let parents: Vec<(Dewey, String)> = doc.scan_type(pt);
        if parents.is_empty() {
            println!("skipping {ppath} -> {cpath}: no parent instances");
            continue;
        }
        // Correctness gate: all probe paths must return identical
        // groups — per-parent columnar vs B+tree, and the batched
        // kernel's ranges vs the per-parent groups.
        for (p, _) in &parents {
            assert_eq!(
                doc.closest_children(p, pt, ct),
                doc.closest_children_btree(p, pt, ct).unwrap(),
                "columnar/btree divergence at {p}"
            );
        }
        let parent_deweys: Vec<Dewey> = parents.iter().map(|(d, _)| d.clone()).collect();
        let (batch_col, batch_ranges) = doc
            .closest_children_batch(&parent_deweys, pt, ct)
            .expect("join pair types are related");
        assert_eq!(batch_ranges.len(), parent_deweys.len());
        for (p, r) in parent_deweys.iter().zip(&batch_ranges) {
            let (scol, want) = doc.closest_group(p, pt, ct).expect("related types");
            assert_eq!(*r, want, "batched/per-parent divergence at {p}");
            assert!(
                std::sync::Arc::ptr_eq(&batch_col, &scol),
                "batched kernel resolved a different column"
            );
        }
        drop((batch_col, batch_ranges));
        let probes = parents.len() * iters;

        // The correctness gate above resolved every column and join
        // plan; best-of-passes reports the hot path on every side.
        let mut touched = 0usize;
        let columnar = best_rate(iters, || {
            let mut n = 0;
            for (p, _) in &parents {
                if let Some((_, range)) = doc.closest_group(p, pt, ct) {
                    n += range.len();
                }
            }
            touched += n;
            parents.len()
        });

        // Batched side: one forward gallop pass per call resolves the
        // whole parent set, so a single call counts parents.len()
        // probes.
        let mut touched_batch = 0usize;
        let batched = best_rate(iters, || {
            let (_col, ranges) = doc
                .closest_children_batch(&parent_deweys, pt, ct)
                .expect("related types");
            touched_batch += ranges.iter().map(|r| r.len()).sum::<usize>();
            parent_deweys.len()
        });

        let mut touched_bt = 0usize;
        let btree = best_rate(iters, || {
            for (p, _) in &parents {
                touched_bt += doc.closest_children_btree(p, pt, ct).unwrap().len();
            }
            parents.len()
        });
        assert_eq!(touched, touched_bt, "probe passes visited different rows");
        assert_eq!(
            touched, touched_batch,
            "batched pass visited different rows"
        );

        let mut hits = 0usize;
        let exists = best_rate(iters, || {
            for (p, _) in &parents {
                hits += usize::from(doc.has_closest_child(p, pt, ct));
            }
            parents.len()
        });
        assert!(hits <= probes);

        out.push(JoinBench {
            label: format!("{ppath} -> {cpath}"),
            parents: parents.len(),
            btree_probes_per_s: btree,
            columnar_probes_per_s: columnar,
            batched_probes_per_s: batched,
            exists_probes_per_s: exists,
        });
    }
    out
}

fn render_json(
    xml: &str,
    factor: f64,
    shred_inc_s: f64,
    shred_bulk_s: f64,
    joins: &[JoinBench],
    cold: &ColdOpen,
    upd: &UpdateBench,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"xmark_factor\": {factor},\n"));
    s.push_str(&format!("  \"input_bytes\": {},\n", xml.len()));
    s.push_str("  \"shred\": {\n");
    s.push_str(&format!(
        "    \"incremental_s\": {shred_inc_s:.4},\n    \"bulk_load_s\": {shred_bulk_s:.4},\n"
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2}\n  }},\n",
        shred_inc_s / shred_bulk_s.max(1e-9)
    ));
    s.push_str("  \"closest_join\": [\n");
    for (i, j) in joins.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"pair\": \"{}\",\n", j.label));
        s.push_str(&format!("      \"parents\": {},\n", j.parents));
        s.push_str(&format!(
            "      \"btree_probes_per_s\": {:.0},\n",
            j.btree_probes_per_s
        ));
        s.push_str(&format!(
            "      \"columnar_probes_per_s\": {:.0},\n",
            j.columnar_probes_per_s
        ));
        s.push_str(&format!(
            "      \"batched_probes_per_s\": {:.0},\n",
            j.batched_probes_per_s
        ));
        s.push_str(&format!(
            "      \"exists_probes_per_s\": {:.0},\n",
            j.exists_probes_per_s
        ));
        s.push_str(&format!("      \"speedup\": {:.2},\n", j.speedup()));
        s.push_str(&format!(
            "      \"batch_speedup\": {:.2},\n",
            j.batch_speedup()
        ));
        s.push_str(&format!(
            "      \"batch_speedup_vs_btree\": {:.2}\n",
            j.batch_speedup_vs_btree()
        ));
        s.push_str(if i + 1 == joins.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    // mean_join_speedup gates the shipped (batched) path; the scalar
    // per-parent mean stays alongside for continuity with BENCH_PR6.
    let mean = joins
        .iter()
        .map(JoinBench::batch_speedup_vs_btree)
        .sum::<f64>()
        / joins.len().max(1) as f64;
    let mean_scalar = joins.iter().map(JoinBench::speedup).sum::<f64>() / joins.len().max(1) as f64;
    s.push_str(&format!("  \"mean_join_speedup\": {mean:.2},\n"));
    s.push_str(&format!(
        "  \"mean_scalar_join_speedup\": {mean_scalar:.2},\n"
    ));
    s.push_str("  \"cold_open\": {\n");
    s.push_str(&format!(
        "    \"persisted_first_touch_s\": {:.4},\n",
        cold.persisted_s
    ));
    s.push_str(&format!(
        "    \"rebuild_first_touch_s\": {:.4},\n",
        cold.rebuild_s
    ));
    s.push_str(&format!("    \"speedup\": {:.2},\n", cold.speedup()));
    s.push_str(&format!("    \"mapped_bytes\": {},\n", cold.mapped_bytes));
    s.push_str(&format!(
        "    \"mapped_bytes_v2\": {},\n",
        cold.mapped_bytes
    ));
    s.push_str(&format!(
        "    \"mapped_bytes_v1\": {},\n",
        cold.mapped_bytes_v1
    ));
    s.push_str(&format!(
        "    \"rebuild_heap_bytes\": {},\n",
        cold.rebuild_heap_bytes
    ));
    s.push_str(&format!(
        "    \"types\": {},\n    \"rows\": {}\n  }},\n",
        cold.types, cold.rows
    ));
    s.push_str("  \"update\": {\n");
    s.push_str(&format!("    \"nodes_updated\": {},\n", upd.nodes_updated));
    s.push_str(&format!("    \"nodes_total\": {},\n", upd.nodes_total));
    s.push_str(&format!("    \"types_touched\": {},\n", upd.types_touched));
    s.push_str(&format!("    \"types_total\": {},\n", upd.types_total));
    s.push_str(&format!("    \"update_s\": {:.4},\n", upd.update_s));
    s.push_str(&format!(
        "    \"updates_per_s\": {:.0},\n",
        upd.updates_per_s()
    ));
    s.push_str(&format!(
        "    \"post_update_probes_per_s\": {:.0},\n",
        upd.post_probes_per_s
    ));
    s.push_str(&format!(
        "    \"merged_columns\": {},\n",
        upd.merged_columns
    ));
    s.push_str(&format!(
        "    \"invalidated_columns\": {},\n",
        upd.invalidated_columns
    ));
    s.push_str(&format!(
        "    \"cold_redecoded_columns\": {},\n",
        upd.cold_redecodes
    ));
    s.push_str(&format!(
        "    \"redecode_frac\": {:.4},\n",
        upd.redecode_frac()
    ));
    s.push_str(&format!(
        "    \"vacuum_recovered_frac\": {:.4}\n  }},\n",
        upd.recovered_frac()
    ));
    s.push_str("  \"store_stats\": {\n");
    s.push_str(&format!("    \"segments_live\": {},\n", upd.segments_live));
    s.push_str(&format!(
        "    \"dead_pages_before_vacuum\": {},\n",
        upd.dead_pages_before_vacuum
    ));
    s.push_str(&format!(
        "    \"vacuum_reclaimed_pages\": {}\n  }}\n",
        upd.vacuum_reclaimed_pages
    ));
    s.push_str("}\n");
    s
}
