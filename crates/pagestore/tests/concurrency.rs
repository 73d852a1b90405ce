//! The store is `Send + Sync` (the buffer pool shards its frame table by
//! page id); these tests verify multi-threaded use is safe and
//! linearizable enough for the engine's needs.

use std::sync::Arc;
use xmorph_pagestore::Store;

#[test]
fn threads_writing_separate_trees() {
    let store = Store::in_memory();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                let tree = store.open_tree(&format!("tree-{t}")).unwrap();
                for i in 0..2000u32 {
                    tree.insert(&i.to_be_bytes(), format!("t{t}-v{i}").as_bytes())
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..4 {
        let tree = store.open_tree(&format!("tree-{t}")).unwrap();
        assert_eq!(tree.len().unwrap(), 2000);
        assert_eq!(
            tree.get(&42u32.to_be_bytes()).unwrap().unwrap(),
            format!("t{t}-v42").as_bytes()
        );
    }
}

#[test]
fn concurrent_readers_on_shared_tree() {
    let store = Store::in_memory();
    let tree = store.open_tree("shared").unwrap();
    for i in 0..5000u32 {
        tree.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
    }
    let tree = Arc::new(tree);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut hits = 0usize;
                for i in (t..5000u32).step_by(8) {
                    if tree.get(&i.to_be_bytes()).unwrap().is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 5000);
}

#[test]
fn writer_and_scanners_interleave() {
    // One thread appends to tree A while others scan tree B — mutation
    // during a scan of the *same* tree is unsupported, but unrelated
    // trees must not interfere.
    let store = Store::in_memory();
    let a = store.open_tree("a").unwrap();
    let b = store.open_tree("b").unwrap();
    for i in 0..1000u32 {
        b.insert(&i.to_be_bytes(), b"stable").unwrap();
    }
    let writer = {
        let a = a.clone();
        std::thread::spawn(move || {
            for i in 0..3000u32 {
                a.insert(&i.to_be_bytes(), b"growing").unwrap();
            }
        })
    };
    let scanners: Vec<_> = (0..4)
        .map(|_| {
            let b = b.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    assert_eq!(b.range(..).entries().unwrap().len(), 1000);
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for s in scanners {
        s.join().unwrap();
    }
    assert_eq!(a.len().unwrap(), 3000);
}

#[test]
fn eviction_under_contention_loses_no_writes() {
    // Many threads write far more pages than the pool can cache, forcing
    // constant eviction with dirty write-back while other shards are
    // under load. Every write must survive: first through the live pool
    // (reads fault evicted pages back in), then from a cold reopen of the
    // backing file (write-back actually reached the device).
    let dir = std::env::temp_dir().join(format!("pagestore-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("evict-contention.db");

    const WRITERS: usize = 8;
    const KEYS_PER_WRITER: u32 = 2000;
    let value = |t: usize, i: u32| format!("writer-{t}-value-{i:05}").into_bytes();
    let key = |t: usize, i: u32| format!("{t}:{i:05}").into_bytes();

    {
        // A tiny pool (32 frames) against ~8 trees × 2000 entries keeps
        // the working set far beyond capacity.
        let store = Store::options().capacity(32).create(&path).unwrap();
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let tree = store.open_tree(&format!("stress-{t}")).unwrap();
                    for i in 0..KEYS_PER_WRITER {
                        tree.insert(&key(t, i), &value(t, i)).unwrap();
                        // Re-read a much older key so hammered shards keep
                        // faulting evicted pages back in mid-write.
                        if i >= 512 {
                            let old = i - 512;
                            assert_eq!(
                                tree.get(&key(t, old)).unwrap().unwrap(),
                                value(t, old),
                                "writer {t} lost key {old} while writing"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Everything readable through the live (still caching) pool.
        for t in 0..WRITERS {
            let tree = store.open_tree(&format!("stress-{t}")).unwrap();
            assert_eq!(tree.len().unwrap(), KEYS_PER_WRITER as usize);
        }
        store.flush().unwrap();
        let snap = store.io_stats_snapshot();
        assert!(
            snap.blocks_written > 100,
            "expected heavy write-back traffic, got {snap:?}"
        );
    }

    // Cold reopen: the file alone must hold every write.
    let store = Store::open(&path).unwrap();
    for t in 0..WRITERS {
        let tree = store.open_tree(&format!("stress-{t}")).unwrap();
        assert_eq!(
            tree.len().unwrap(),
            KEYS_PER_WRITER as usize,
            "tree {t} lost entries"
        );
        for i in (0..KEYS_PER_WRITER).step_by(97) {
            assert_eq!(
                tree.get(&key(t, i)).unwrap().unwrap(),
                value(t, i),
                "tree {t} key {i} corrupted after reopen"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}
