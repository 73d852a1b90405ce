//! A bulk-loaded B+tree must be indistinguishable from an incrementally
//! built one: same keys in, same `get`/`range`/`scan_prefix` out, at any
//! fill factor. The bulk loader packs sorted pairs into leaves bottom-up
//! (no root-to-leaf descents), so these properties pin down that the
//! packing — leaf chaining, separator choice, interior stacking,
//! overflow spilling — reproduces the incremental tree's contents
//! exactly.

use proptest::prelude::*;
use xmorph_pagestore::{OwnedPairs, Store, DEFAULT_FILL};

/// Sorted, deduplicated key/value pairs over a tiny alphabet (so prefix
/// collisions and shared separators actually happen), with value sizes
/// crossing the overflow threshold.
fn pairs_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::btree_map(
        proptest::collection::vec(0u8..4, 1..8),
        0usize..1400,
        0..120,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(k, vlen)| {
                let seed = k.first().copied().unwrap_or(0);
                let v: Vec<u8> = (0..vlen)
                    .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                    .collect();
                (k, v)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bulk_load_matches_incremental(pairs in pairs_strategy(), fill_pct in 50u32..=100u32) {
        let fill = fill_pct as f64 / 100.0;
        let bulk_store = Store::in_memory();
        let bulk = bulk_store.open_tree("t").unwrap();
        bulk.bulk_load(OwnedPairs::new(pairs.clone()), fill).unwrap();

        let inc_store = Store::in_memory();
        let inc = inc_store.open_tree("t").unwrap();
        for (k, v) in &pairs {
            inc.insert(k, v).unwrap();
        }

        prop_assert_eq!(bulk.len().unwrap(), inc.len().unwrap());
        for (k, v) in &pairs {
            prop_assert_eq!(bulk.get(k).unwrap().as_deref(), Some(v.as_slice()));
        }
        let a: Vec<_> = bulk.range(..).entries().unwrap();
        let b: Vec<_> = inc.range(..).entries().unwrap();
        prop_assert_eq!(a, b);
        for p in [&b""[..], b"\x00", b"\x01\x02"] {
            let a: Vec<_> = bulk.scan_prefix(p).entries().unwrap();
            let b: Vec<_> = inc.scan_prefix(p).entries().unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn bulk_load_builds_multi_level_tree() {
    let store = Store::in_memory();
    let t = store.open_tree("t").unwrap();
    let pairs: Vec<_> = (0u32..5000)
        .map(|i| (i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec()))
        .collect();
    t.bulk_load(OwnedPairs::new(pairs), 0.6).unwrap();
    assert_eq!(t.len().unwrap(), 5000);
    assert_eq!(
        t.get(&2500u32.to_be_bytes()).unwrap(),
        Some(2500u32.to_le_bytes().to_vec())
    );
    let scanned: Vec<_> = t
        .range(..)
        .entries()
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(scanned.len(), 5000);
    assert!(scanned.windows(2).all(|w| w[0] < w[1]), "ordered scan");
}

#[test]
fn bulk_load_rejects_unsorted_or_duplicate_input() {
    let store = Store::in_memory();
    let t = store.open_tree("t").unwrap();
    let unsorted = vec![(b"b".to_vec(), Vec::new()), (b"a".to_vec(), Vec::new())];
    assert!(t
        .bulk_load(OwnedPairs::new(unsorted), DEFAULT_FILL)
        .is_err());
    let dup = vec![(b"a".to_vec(), Vec::new()), (b"a".to_vec(), Vec::new())];
    assert!(t.bulk_load(OwnedPairs::new(dup), DEFAULT_FILL).is_err());
}

#[test]
fn bulk_load_spills_large_values_to_overflow() {
    let store = Store::in_memory();
    let t = store.open_tree("t").unwrap();
    let big = vec![7u8; 50_000];
    t.bulk_load(
        OwnedPairs::new(vec![(b"k".to_vec(), big.clone())]),
        DEFAULT_FILL,
    )
    .unwrap();
    assert_eq!(t.get(b"k").unwrap(), Some(big));
}

#[test]
fn bulk_load_empty_input_yields_empty_tree() {
    let store = Store::in_memory();
    let t = store.open_tree("t").unwrap();
    t.bulk_load(OwnedPairs::new(Vec::new()), DEFAULT_FILL)
        .unwrap();
    assert_eq!(t.len().unwrap(), 0);
    assert_eq!(t.range(..).entries().unwrap().len(), 0);
}

#[test]
fn next_key_visits_the_same_keys_as_entries() {
    let store = Store::in_memory();
    let t = store.open_tree("t").unwrap();
    for i in 0u32..800 {
        t.insert(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
    }
    let keys: Vec<_> = t
        .range(..)
        .entries()
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let mut it = t.scan_prefix(b"");
    let mut got = Vec::new();
    while let Some(k) = it.next_key().unwrap() {
        got.push(k);
    }
    assert_eq!(got, keys);
}
