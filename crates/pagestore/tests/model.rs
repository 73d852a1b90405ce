//! Property tests: the B+tree must behave exactly like `BTreeMap<Vec<u8>, Vec<u8>>`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xmorph_pagestore::Store;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Get(Vec<u8>),
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..8, 0..6)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key_strategy().prop_map(Op::Delete),
        1 => key_strategy().prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let store = Store::in_memory();
        let tree = store.open_tree("model").unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let was_new = tree.insert(&k, &v).unwrap();
                    let model_new = model.insert(k, v).is_none();
                    prop_assert_eq!(was_new, model_new);
                }
                Op::Delete(k) => {
                    let removed = tree.delete(&k).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(&k).unwrap(), model.get(&k).cloned());
                }
            }
        }
        // Final state: identical ordered contents.
        let got: Vec<(Vec<u8>, Vec<u8>)> = tree.range(..).entries().unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn range_bounds_match_model(
        entries in prop::collection::btree_map(key_strategy(), any::<u8>(), 0..60),
        lo in key_strategy(),
        hi in key_strategy(),
    ) {
        let store = Store::in_memory();
        let tree = store.open_tree("ranges").unwrap();
        for (k, v) in &entries {
            tree.insert(k, &[*v]).unwrap();
        }
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let got: Vec<Vec<u8>> = tree
            .range(lo.clone()..hi.clone())
            .entries()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let want: Vec<Vec<u8>> = entries.range(lo..hi).map(|(k, _)| k.clone()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn large_values_round_trip(
        sizes in prop::collection::vec(0usize..20_000, 1..8),
    ) {
        let store = Store::in_memory();
        let tree = store.open_tree("big").unwrap();
        for (i, size) in sizes.iter().enumerate() {
            let v = vec![(i % 251) as u8; *size];
            tree.insert(&(i as u32).to_be_bytes(), &v).unwrap();
        }
        for (i, size) in sizes.iter().enumerate() {
            let v = tree.get(&(i as u32).to_be_bytes()).unwrap().unwrap();
            prop_assert_eq!(v.len(), *size);
            prop_assert!(v.iter().all(|&b| b == (i % 251) as u8));
        }
    }
}
