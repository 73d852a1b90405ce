//! Crash-consistency sweep over the full document pipeline
//! (repository extension, not a paper figure).
//!
//! Replays shred → flush → mutate → re-persist → vacuum → close on an
//! XMark document over the deterministic fault-injection storage layer
//! ([`xmorph_pagestore::FaultStorage`]), crashing at **every** write
//! index and **every** sync index the fault-free run performs. Each
//! crash freezes the torn device image; the image is reopened and the
//! document queried, and any panic, non-typed failure, or malformed
//! fallback report is a violation. Because file-backed stores now run
//! the page-image WAL, reopening a crash image *replays the log* — so
//! for every frozen image the sweep additionally crashes the recovery
//! itself at each write recovery performs (head reset, replayed page
//! homes) and re-checks the doubly-crashed image: recovery must be
//! restartable from any point. A fixed-seed torn-write matrix
//! re-checks a handful of crash points under different torn-prefix
//! lengths.
//!
//! Flags: `--sweep` runs the exhaustive sweep (the default is the same
//! sweep — the flag exists so invocations read as what they are),
//! `--smoke` shrinks the document for CI, `--scale <f>` scales it up.
//! Exits nonzero if any crash point violates an invariant.

use std::time::Instant;
use xmorph_core::{MorphError, MorphResult, OpenOptions, ShredOptions, ShreddedDoc, TypeId};
use xmorph_datagen::XmarkConfig;
use xmorph_pagestore::{FaultHandle, FaultScript, FaultStorage, Store, StoreError};

const BASE_SEED: u64 = 0xC0FFEE;

fn store_err(e: StoreError) -> MorphError {
    MorphError::Store {
        op: "crash sweep".into(),
        source: e,
    }
}

#[derive(Default, Clone, Copy)]
struct Marks {
    shred_done: u64,
    flush_done: u64,
    vacuum_start: u64,
}

/// The measured pipeline. Every step propagates errors: under an
/// injected crash this returns `Err`, and a panic anywhere is a sweep
/// failure.
fn pipeline(
    xml: &str,
    storage: Box<dyn xmorph_pagestore::storage::Storage>,
    handle: Option<&FaultHandle>,
    marks: &mut Marks,
) -> MorphResult<()> {
    let store = Store::options()
        .capacity(32)
        .shards(1)
        .with_storage(storage)
        .map_err(store_err)?;
    // A tiny memory budget forces the streaming shred to spill sorted
    // runs to store segments *during* the shred, so the sweep's crash
    // points include torn run-segment writes mid-shred.
    let opts = ShredOptions::builder()
        .persist_columns(true)
        .memory_budget(1);
    let mut doc = ShreddedDoc::shred_str_with(&store, xml, &opts)?;
    if let Some(h) = handle {
        marks.shred_done = h.writes();
    }
    store.flush().map_err(store_err)?;
    if let Some(h) = handle {
        marks.flush_done = h.writes();
    }

    // Mutate the densest type: update a few texts, delete one subtree.
    let hot = hottest_type(&doc).ok_or(MorphError::Internal("document has no types"))?;
    let rows = doc.scan_type(hot);
    if rows.len() < 4 {
        return Err(MorphError::Internal("hot column shorter than expected"));
    }
    for (dewey, _) in rows.iter().take(3) {
        doc.update_text(dewey, "crash sweep rewrote this")?;
    }
    doc.delete_subtree(&rows[3].0)?;
    doc.persist_dirty_columns()?;
    if let Some(h) = handle {
        marks.vacuum_start = h.writes();
    }
    store.vacuum().map_err(store_err)?;
    store.close().map_err(store_err)?;
    Ok(())
}

/// The leaf type with the most instances — a dense mutation target
/// that exists at any XMark factor.
fn hottest_type(doc: &ShreddedDoc) -> Option<TypeId> {
    doc.types().ids().max_by_key(|&t| doc.instance_count(t))
}

/// Reopen a frozen crash image and exercise every read surface.
/// Returns a violation description, or `None` when the image honours
/// the crash contract (typed refusal, or a queryable document).
fn check_image(image: Vec<u8>, crash_at: &str) -> Option<String> {
    let (storage, _h) = FaultStorage::with_image(image, FaultScript::none());
    let store = match Store::options()
        .capacity(32)
        .with_storage(Box::new(storage))
    {
        Ok(s) => s,
        Err(_) => return None,
    };
    let opts = OpenOptions::builder().persisted_columns(true);
    let doc = match ShreddedDoc::open_with(&store, &opts) {
        Ok(d) => d,
        Err(_) => return None,
    };
    let types: Vec<TypeId> = doc.types().ids().collect();
    for &t in &types {
        let rows = doc.scan_type(t);
        if rows.len() as u64 > 1_000_000 {
            return Some(format!("crash@{crash_at}: type {t:?} scan exploded"));
        }
        for (dewey, _) in rows.iter().take(1) {
            let _ = doc.node_text(dewey);
            let _ = doc.node_type(dewey);
        }
    }
    for line in doc.segment_fallbacks() {
        if !line.contains(':') {
            return Some(format!(
                "crash@{crash_at}: malformed fallback report {line:?}"
            ));
        }
    }
    None
}

/// Crash the *recovery* of a frozen crash image at every write the
/// recovery itself performs (WAL head reset, replayed page homes),
/// then verify that a clean reopen of the doubly-crashed image still
/// honours the crash contract. Returns the number of recovery crash
/// points exercised plus any violations.
fn sweep_recovery_crashes(image: &[u8], origin: &str) -> (u64, Vec<String>) {
    // Recording pass: a clean recovery of this image, counting the
    // writes it performs. The open may legitimately refuse (pre-setup
    // crash images) — then there is nothing to sweep.
    let (storage, h) = FaultStorage::with_image(image.to_vec(), FaultScript::none());
    let opened = Store::options()
        .capacity(32)
        .with_storage(Box::new(storage));
    let recovery_writes = h.writes();
    drop(opened);

    let mut violations = Vec::new();
    for j in 0..recovery_writes {
        let script = FaultScript::none()
            .crash_at(j)
            .torn_seed(BASE_SEED.rotate_left(17) ^ j);
        let (storage, h2) = FaultStorage::with_image(image.to_vec(), script);
        // The interrupted recovery fails; its half-recovered image must
        // still reopen to a consistent state (recovery is restartable).
        let _ = Store::options()
            .capacity(32)
            .with_storage(Box::new(storage));
        if let Some(v) = check_image(h2.image(), &format!("{origin} recovery@{j}")) {
            violations.push(v);
        }
    }
    (recovery_writes, violations)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let _sweep = args.iter().any(|a| a == "--sweep");
    let scale = xmorph_bench::parse_scale();

    let factor = if smoke { 0.0015 } else { 0.004 * scale };
    let xml = XmarkConfig::with_factor(factor).generate();
    println!("Crash sweep (XMark factor {factor}, {} bytes)", xml.len());

    let started = Instant::now();
    let mut marks = Marks::default();
    let (storage, handle) = FaultStorage::new(FaultScript::none());
    pipeline(&xml, Box::new(storage), Some(&handle), &mut marks)
        .expect("fault-free pipeline must succeed");
    let total_writes = handle.writes();
    let total_syncs = handle.syncs();
    println!(
        "recording run: {total_writes} writes, {total_syncs} syncs ({} during shred, {} before \
         mutation, {} before vacuum)",
        marks.shred_done, marks.flush_done, marks.vacuum_start
    );

    let mut violations: Vec<String> = Vec::new();
    let mut reopened = 0u64;
    let mut recovery_points = 0u64;
    for k in 0..total_writes {
        let script = FaultScript::none().crash_at(k).torn_seed(BASE_SEED ^ k);
        let (storage, handle) = FaultStorage::new(script);
        let mut ignored = Marks::default();
        if pipeline(&xml, Box::new(storage), None, &mut ignored).is_ok() {
            violations.push(format!("crash@{k}: pipeline survived a crashed device"));
            continue;
        }
        reopened += 1;
        let image = handle.image();
        if let Some(v) = check_image(image.clone(), &format!("write@{k}")) {
            violations.push(v);
        }
        let (points, mut vs) = sweep_recovery_crashes(&image, &format!("write@{k}"));
        recovery_points += points;
        violations.append(&mut vs);
    }
    println!(
        "exhaustive write sweep: {total_writes} crash points, {reopened} images checked, \
         {recovery_points} crash-during-recovery points, {:.1}s",
        started.elapsed().as_secs_f64()
    );

    // Sync-boundary sweep: crash exactly at each fsync — the commit
    // points of the WAL'd pipeline — with the cut write left whole.
    let mut sync_recovery_points = 0u64;
    for k in 0..total_syncs {
        let script = FaultScript::none().crash_at_sync(k);
        let (storage, handle) = FaultStorage::new(script);
        let mut ignored = Marks::default();
        if pipeline(&xml, Box::new(storage), None, &mut ignored).is_ok() {
            violations.push(format!(
                "sync-crash@{k}: pipeline survived a crashed device"
            ));
            continue;
        }
        let image = handle.image();
        if let Some(v) = check_image(image.clone(), &format!("sync@{k}")) {
            violations.push(v);
        }
        let (points, mut vs) = sweep_recovery_crashes(&image, &format!("sync@{k}"));
        sync_recovery_points += points;
        violations.append(&mut vs);
    }
    println!(
        "sync sweep: {total_syncs} crash points, {sync_recovery_points} crash-during-recovery \
         points, total {:.1}s",
        started.elapsed().as_secs_f64()
    );

    // Fixed-seed torn-write matrix on a spread of crash points: the
    // invariants may not depend on how much of the cut write landed.
    let points = [
        1,
        total_writes / 4,
        marks.shred_done / 2,
        marks.flush_done.saturating_sub(1),
        marks.flush_done + 1,
        marks.vacuum_start + 1,
        total_writes - 1,
    ];
    let seeds = [0u64, 1, 0xDEAD_BEEF, u64::MAX];
    for &k in &points {
        for &seed in &seeds {
            let script = FaultScript::none().crash_at(k).torn_seed(seed);
            let (storage, handle) = FaultStorage::new(script);
            let mut ignored = Marks::default();
            if pipeline(&xml, Box::new(storage), None, &mut ignored).is_ok() {
                violations.push(format!("crash@{k} seed {seed:#x}: pipeline survived"));
                continue;
            }
            if let Some(v) = check_image(handle.image(), &format!("write@{k}")) {
                violations.push(format!("{v} (seed {seed:#x})"));
            }
        }
    }
    println!(
        "torn-write matrix: {} points x {} seeds, total {:.1}s",
        points.len(),
        seeds.len(),
        started.elapsed().as_secs_f64()
    );

    if violations.is_empty() {
        println!("no violations");
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
