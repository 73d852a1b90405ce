//! Parallel guard evaluation must be byte-identical to the sequential
//! renderer on every benchmark dataset — the correctness half of the
//! scaling experiment (`fig_scaling`).

use xmorph_core::{render_parallel, Guard, ParallelOptions, ShreddedDoc};
use xmorph_datagen::{DblpConfig, NasaConfig, XmarkConfig};
use xmorph_pagestore::Store;

fn shred(xml: &str) -> (Store, ShreddedDoc) {
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
    (store, doc)
}

fn assert_byte_identical(doc: &ShreddedDoc, guards: &[&str]) {
    for guard_src in guards {
        let guard = Guard::parse(guard_src).unwrap();
        let sequential = guard.apply(doc).unwrap().xml;
        let target = guard.analyze(doc).unwrap().target;
        for threads in [1, 2, 4] {
            let opts = ParallelOptions::with_threads(threads);
            let parallel = render_parallel(doc, &target, &opts).unwrap();
            assert_eq!(
                parallel, sequential,
                "parallel output diverged: guard={guard_src} threads={threads}"
            );
        }
    }
}

#[test]
fn xmark_parallel_is_byte_identical() {
    let xml = XmarkConfig {
        factor: 0.005,
        ..Default::default()
    }
    .generate();
    let (_store, doc) = shred(&xml);
    assert_byte_identical(
        &doc,
        &[
            "MORPH people [ person [ address [ city ] ] ]",
            "MORPH item [ name location quantity ]",
            "MORPH person [ name emailaddress ]",
            "MORPH open_auction [ initial current itemref ]",
        ],
    );
}

#[test]
fn dblp_parallel_is_byte_identical() {
    let xml = DblpConfig {
        records: 400,
        ..Default::default()
    }
    .generate();
    let (_store, doc) = shred(&xml);
    assert_byte_identical(
        &doc,
        &["MORPH author", "CAST-WIDENING MORPH author [title [year]]"],
    );
}

#[test]
fn nasa_parallel_is_byte_identical() {
    let xml = NasaConfig {
        datasets: 30,
        ..Default::default()
    }
    .generate();
    let (_store, doc) = shred(&xml);
    assert_byte_identical(
        &doc,
        &["MORPH dataset [ reference [ source [ other [ title ] ] ] ]"],
    );
}
