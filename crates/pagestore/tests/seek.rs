//! Property tests for the seek primitives the document write path
//! relies on, [`Tree::last_key_below`] and [`Tree::count_prefix`]
//! (plus [`Tree::last_key_with_prefix`] built on the first), and for
//! its range delete, [`Tree::delete_prefix`], against a `BTreeMap`
//! oracle.
//!
//! Keys are Dewey-shaped — 4-byte big-endian components at mixed depths
//! over a small alphabet, so prefixes nest and collide the way document
//! labels do. Values are sized so a leaf holds only a handful of cells
//! and some spill to overflow chains; prefix deletes then empty whole
//! leaves, which the tree never rebalances away, so the seeks must step
//! over them.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xmorph_pagestore::{FaultScript, FaultStorage, Store, StoreError, Tree, PAGE_SIZE};

fn dewey(components: &[u32]) -> Vec<u8> {
    components.iter().flat_map(|c| c.to_be_bytes()).collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, usize),
    Delete(Vec<u8>),
    /// Remove every key under a prefix with one `delete_prefix`: the
    /// stream's leaf-emptier.
    DeletePrefix(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..6, 1..5).prop_map(|c| dewey(&c))
}

fn value_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        2 => 0usize..24,
        5 => 300usize..900,
        // Cells over ~1,000 bytes live in overflow chains.
        1 => 1_200usize..3_000,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), value_len()).prop_map(|(k, n)| Op::Insert(k, n)),
        2 => key_strategy().prop_map(Op::Delete),
        1 => prop::collection::vec(0u32..6, 1..3).prop_map(|c| Op::DeletePrefix(dewey(&c))),
    ]
}

fn apply(tree: &Tree, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, ops: Vec<Op>) {
    for op in ops {
        match op {
            Op::Insert(k, n) => {
                let v = vec![k.len() as u8; n];
                tree.insert(&k, &v).unwrap();
                model.insert(k, v);
            }
            Op::Delete(k) => {
                assert_eq!(tree.delete(&k).unwrap(), model.remove(&k).is_some());
            }
            Op::DeletePrefix(p) => {
                let doomed: Vec<Vec<u8>> = model
                    .range(p.clone()..)
                    .map(|(k, _)| k.clone())
                    .take_while(|k| k.starts_with(&p))
                    .collect();
                assert_eq!(tree.delete_prefix(&p).unwrap(), doomed);
                for k in doomed {
                    model.remove(&k);
                }
            }
        }
    }
}

/// Check both seeks against the oracle at every interesting bound:
/// before the first key, after the last, at and just past every key
/// (so between every adjacent pair), and at every component prefix of
/// every key.
fn check(tree: &Tree, model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Result<(), TestCaseError> {
    let last_below = |u: &[u8]| {
        model
            .range(..u.to_vec())
            .next_back()
            .map(|(k, _)| k.clone())
    };
    let with_prefix = |p: &[u8]| {
        model
            .range(p.to_vec()..)
            .map(|(k, _)| k.clone())
            .take_while(|k| k.starts_with(p))
            .collect::<Vec<_>>()
    };
    let mut uppers: Vec<Vec<u8>> = vec![Vec::new(), vec![0], dewey(&[0]), vec![0xff; 20]];
    let mut prefixes: Vec<Vec<u8>> = vec![Vec::new(), vec![0xff; 4]];
    for k in model.keys() {
        uppers.push(k.clone());
        let mut past = k.clone();
        past.push(0);
        uppers.push(past);
        for depth in 1..=k.len() / 4 {
            prefixes.push(k[..depth * 4].to_vec());
        }
    }
    for u in &uppers {
        prop_assert_eq!(
            tree.last_key_below(u).unwrap(),
            last_below(u),
            "upper {:?}",
            u
        );
    }
    for p in &prefixes {
        let want = with_prefix(p);
        prop_assert_eq!(
            tree.count_prefix(p).unwrap(),
            want.len() as u64,
            "prefix {:?}",
            p
        );
        prop_assert_eq!(
            tree.last_key_with_prefix(p).unwrap(),
            want.last().cloned(),
            "prefix {:?}",
            p
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seeks_match_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let store = Store::options().capacity(32).open_memory();
        let tree = store.open_tree("seek").unwrap();
        let mut model = BTreeMap::new();
        apply(&tree, &mut model, ops);
        check(&tree, &model)?;
    }
}

/// A deterministic leaf-emptier: a dense run of children, then whole
/// sibling subtrees deleted from the middle and the end. Seeking just
/// above a deleted run must backtrack across the emptied leaves to the
/// survivor before it, and counting across them must see zero.
#[test]
fn seeks_step_over_emptied_leaves() {
    let store = Store::options().capacity(32).open_memory();
    let tree = store.open_tree("seek").unwrap();
    let mut model = BTreeMap::new();
    let mut ops = Vec::new();
    for a in 1..40u32 {
        for b in 0..6u32 {
            ops.push(Op::Insert(dewey(&[1, a, b]), 700));
        }
    }
    for a in (10..30u32).chain(33..40) {
        ops.push(Op::DeletePrefix(dewey(&[1, a])));
    }
    apply(&tree, &mut model, ops);
    assert_eq!(
        tree.last_key_below(&dewey(&[1, 30])).unwrap(),
        Some(dewey(&[1, 9, 5]))
    );
    assert_eq!(
        tree.last_key_with_prefix(&dewey(&[1])).unwrap(),
        Some(dewey(&[1, 32, 5]))
    );
    assert_eq!(tree.count_prefix(&dewey(&[1])).unwrap(), 6 * 12);
    assert_eq!(tree.count_prefix(&dewey(&[1, 20])).unwrap(), 0);
    check(&tree, &model).unwrap();
}

/// A torn root page surfaces as a typed error from both seeks, never a
/// panic — the same contract `range` keeps.
#[test]
fn corrupt_root_is_a_typed_error() {
    let (storage, handle) = FaultStorage::new(FaultScript::none());
    {
        let store = Store::options().with_storage(Box::new(storage)).unwrap();
        let tree = store.open_tree("t").unwrap();
        for i in 0..300u32 {
            tree.insert(&dewey(&[1, i]), &[7u8; 40]).unwrap();
        }
        store.close().unwrap();
    }
    let mut image = handle.image();
    // Smash the header of every tree page; the root is one of them.
    for page in 1..image.len() / PAGE_SIZE {
        let off = page * PAGE_SIZE;
        if matches!(image[off], 1 | 2) {
            image[off..off + 16].copy_from_slice(&[0xEE; 16]);
        }
    }
    let (storage, _h) = FaultStorage::with_image(image, FaultScript::none());
    let store = Store::options().with_storage(Box::new(storage)).unwrap();
    let tree = store.open_tree("t").unwrap();
    let typed = |e: StoreError| matches!(e, StoreError::Corrupt(_) | StoreError::Io(_));
    assert!(tree.last_key_below(&dewey(&[1, 5])).is_err_and(typed));
    assert!(tree.last_key_with_prefix(&dewey(&[1])).is_err_and(typed));
    assert!(tree.count_prefix(&dewey(&[1])).is_err_and(typed));
}
