//! Explore the data model (§IV): adorned shapes, closest graphs, and
//! exact type distances of a generated XMark-style document.
//!
//! Run with: `cargo run --example shape_explorer`

use xmorph_repro::core::model::closest;
use xmorph_repro::core::ShreddedDoc;
use xmorph_repro::datagen::XmarkConfig;
use xmorph_repro::pagestore::Store;
use xmorph_repro::xml::dom::Document;

fn main() {
    // A small auction document.
    let xml = XmarkConfig {
        factor: 0.001,
        ..Default::default()
    }
    .generate();
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, &xml).expect("shred");

    println!(
        "document: {} bytes, {} distinct root-path types, {} vertices\n",
        xml.len(),
        doc.types().len(),
        doc.shape().total_instances()
    );

    // The adorned shape, pretty-printed with cardinalities (Fig. 5 style)
    // — trimmed to the first 40 lines here.
    let shape = doc.shape().to_string();
    println!("adorned shape (first lines):");
    for line in shape.lines().take(40) {
        println!("  {line}");
    }
    println!("  ...\n");

    // Exact type distances, resolved against the data (Def. 2).
    let types = doc.types();
    let person = types.matching("person")[0];
    let name = types
        .matching("name")
        .into_iter()
        .find(|&t| types.dotted(t).contains("person"))
        .expect("person name type");
    let interest = types.matching("interest")[0];
    let snap = doc.snapshot();
    println!(
        "typeDistance(person, person.name) = {:?}",
        snap.type_distance_exact(person, name)
    );
    println!(
        "typeDistance(person, profile.interest) = {:?}",
        snap.type_distance_exact(person, interest)
    );

    // The materialized closest graph of a small fragment (Def. 1). The
    // renderer never materializes this — O(n²) — but it is the formal
    // object the information-loss guarantees speak about.
    let fragment = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";
    let frag_doc = Document::parse_str(fragment).unwrap();
    let graph = closest::closest_graph(&frag_doc);
    println!(
        "\nclosest graph of the Fig. 1(a) fragment: {} vertices, {} closest edges",
        graph.vertices.len(),
        graph.edge_count()
    );
    println!("sample edges (paper §VII: publisher 1.1.3 is closest to title 1.1.1, not 1.2.1):");
    for (a, b) in graph.edges.iter().take(8) {
        println!("  {a} -- {b}");
    }
}
