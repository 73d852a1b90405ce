//! End-to-end checks of every worked example in the paper's narrative
//! (Figures 1–6, Table I, and the §V-B / §VI examples).

use xmorph_core::model::shape::AdornedShape;
use xmorph_core::{Card, CardMax, Guard, GuardTyping, MorphError};
use xmorph_xml::dom::Document;

const FIG1A: &str = "<data>\
    <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
    <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
    </data>";

const FIG1B: &str = "<data>\
    <publisher><name>W</name><book><title>X</title><author><name>Tim</name></author></book></publisher>\
    <publisher><name>V</name><book><title>Y</title><author><name>Tim</name></author></book></publisher>\
    </data>";

const FIG1C: &str = "<data>\
    <author><name>Tim</name>\
      <book><title>X</title><publisher><name>W</name></publisher></book>\
      <book><title>Y</title><publisher><name>V</name></publisher></book>\
    </author></data>";

/// §I: the motivating XQuery "succeeds only for instance (c)". Our
/// baseline engine demonstrates the brittleness the guard fixes.
#[test]
fn fig1_motivating_query_is_brittle() {
    let query = r#"for $a in doc("d")/data/author return <t>{string($a/book/title)}</t>"#;
    let run = |xml: &str| {
        let db = xmorph_xqlite::XqliteDb::in_memory();
        db.store_document("d", xml).unwrap();
        db.query(query).unwrap()
    };
    assert_eq!(run(FIG1A), ""); // fails: no author under data
    assert_eq!(run(FIG1B), ""); // fails too
    assert_eq!(run(FIG1C), "<t>X</t>"); // succeeds only on (c)
}

/// Figure 2: the guard transforms (a) and (b) to the same instance; (c)
/// differs only in author grouping.
#[test]
fn fig2_guard_unifies_the_instances() {
    let guard = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
    let a = guard.apply_to_str(FIG1A).unwrap();
    let b = guard.apply_to_str(FIG1B).unwrap();
    let c = guard.apply_to_str(FIG1C).unwrap();
    assert_eq!(a.xml, b.xml);
    assert_eq!(
        a.xml,
        "<result>\
         <author><name>Tim</name><book><title>X</title></book></author>\
         <author><name>Tim</name><book><title>Y</title></book></author>\
         </result>"
    );
    assert_eq!(
        c.xml,
        "<result>\
         <author><name>Tim</name>\
         <book><title>X</title></book>\
         <book><title>Y</title></book>\
         </author></result>"
            .replace('\n', "")
    );
    // All three runs are strongly-typed (§I: "The guard given above
    // turns out to be strongly-typed").
    for out in [&a, &b, &c] {
        assert_eq!(out.analysis.loss.typing, GuardTyping::Strong);
    }
}

/// Figure 3: the !title guard is widening on instance (c) — "both
/// titles, X and Y, are closest to the first publisher, W, which adds
/// data".
#[test]
fn fig3_widening_guard() {
    let guard = Guard::parse("MORPH author [ !title name publisher [ name ] ]").unwrap();
    let analysis = guard.analyze_str(FIG1C).unwrap();
    assert_eq!(analysis.loss.typing, GuardTyping::Widening);
    // Rejected without a cast, admitted with one.
    assert!(matches!(
        guard.apply_to_str(FIG1C),
        Err(MorphError::Rejected { .. })
    ));
    let cast =
        Guard::parse("CAST-WIDENING MORPH author [ !title name publisher [ name ] ]").unwrap();
    let out = cast.apply_to_str(FIG1C).unwrap();
    // Both titles now sit next to both publishers under the author.
    assert_eq!(out.xml.matches("<title>").count(), 2);
}

/// Figure 5: adorned shapes. Instance (a)'s book edge is 2..2; giving an
/// author no name makes the name edge 0..1 (the paper's worked example).
#[test]
fn fig5_adorned_shapes() {
    let doc = Document::parse_str(FIG1A).unwrap();
    let shape = AdornedShape::from_document(&doc);
    let book = shape.types().matching("book")[0];
    assert_eq!(shape.card(book), Card::exactly(2));

    let missing_name = "<data>\
        <book><title>X</title><author><name>T</name></author></book>\
        <book><title>Y</title><author/></book></data>";
    let doc = Document::parse_str(missing_name).unwrap();
    let shape = AdornedShape::from_document(&doc);
    let name = shape.types().matching("author.name")[0];
    assert_eq!(shape.card(name), Card::new(0, CardMax::Finite(1)));
}

/// Figure 6 / Def. 4: the xform of instance (a) into shape (c) — the
/// quickstart output — contains each vertex type of the requested shape.
#[test]
fn fig6_xform_output_shape() {
    let guard = Guard::parse("MORPH author [ name book [ title ] ]").unwrap();
    let out = guard.apply_to_str(FIG1A).unwrap();
    let doc = Document::parse_str(&out.xml).unwrap();
    let root = doc.root_element().unwrap();
    let authors: Vec<_> = doc.children_named(root, "author").collect();
    assert_eq!(authors.len(), 2);
    for author in authors {
        assert!(doc.child_named(author, "name").is_some());
        let book = doc.child_named(author, "book").unwrap();
        assert!(doc.child_named(book, "title").is_some());
    }
}

/// §III: the MUTATE example "moves publisher below book leaving the rest
/// of the shape unchanged" — transforming (b) toward (a).
#[test]
fn section3_mutate_book_publisher() {
    let guard = Guard::parse("MUTATE book [ publisher [ name ] ]").unwrap();
    let out = guard.apply_to_str(FIG1B).unwrap();
    let doc = Document::parse_str(&out.xml).unwrap();
    let root = doc.root_element().unwrap();
    let data = doc.child_named(root, "data").unwrap();
    let books: Vec<_> = doc.children_named(data, "book").collect();
    assert_eq!(books.len(), 2, "{}", out.xml);
    for book in books {
        let publisher = doc
            .child_named(book, "publisher")
            .expect("publisher moved under book");
        assert!(doc.child_named(publisher, "name").is_some());
    }
}

/// §III: composing MORPH with MUTATE(DROP name) leaves only authors —
/// "The final shape consists only of author (closest to a name)".
/// Author elements carry no direct text in instance (a), so the result
/// is bare author elements.
#[test]
fn section3_compose_drop() {
    let guard = Guard::parse("MORPH author [ name ] | MUTATE (DROP name)").unwrap();
    let out = guard.apply_to_str(FIG1A).unwrap();
    assert_eq!(out.xml, "<result><author/><author/></result>");
}

/// §VI: TRANSLATE renames author to writer.
#[test]
fn section6_translate() {
    let guard = Guard::parse("MORPH author [ name ] | TRANSLATE author -> writer").unwrap();
    let out = guard.apply_to_str(FIG1A).unwrap();
    assert!(out.xml.contains("<writer><name>Tim</name></writer>"));
}

/// §V-B: with optional author names, `MUTATE name [ author ]` is
/// non-inclusive while `MUTATE data [ name author ]` stays inclusive.
#[test]
fn section5_optionality_examples() {
    let optional = "<data>\
        <author><name>A</name><x>1</x></author>\
        <author><x>2</x></author></data>";
    let narrowing = Guard::parse("MUTATE name [ author ]").unwrap();
    let analysis = narrowing.analyze_str(optional).unwrap();
    assert!(!analysis.loss.inclusive, "{}", analysis.loss);

    let inclusive = Guard::parse("MUTATE data [ name author ]").unwrap();
    let analysis = inclusive.analyze_str(optional).unwrap();
    assert!(analysis.loss.inclusive, "{}", analysis.loss);
}

/// Table I's key entries on shape (e): the minimum/maximum number of
/// titles per name is 2 (via the author's two books).
#[test]
fn table1_path_cardinalities() {
    let doc = Document::parse_str(FIG1C).unwrap();
    let shape = AdornedShape::from_document(&doc);
    let types = shape.types();
    let name = types.matching("author.name")[0];
    let title = types.matching("title")[0];
    assert_eq!(shape.path_card(name, title), Some(Card::exactly(2)));
    assert_eq!(shape.path_card(title, name), Some(Card::one()));
    let publisher = types.matching("publisher")[0];
    assert_eq!(shape.path_card(title, publisher), Some(Card::one()));
}

/// §VII: the worked render example — the three closest joins that build
/// the author-rooted output from instance (a).
#[test]
fn section7_closest_joins() {
    use xmorph_core::ShreddedDoc;
    use xmorph_pagestore::Store;
    let store = Store::in_memory();
    let doc = ShreddedDoc::shred_str(&store, FIG1A).unwrap();
    let types = doc.types();
    let author = types.matching("author")[0];
    let name = types.matching("author.name")[0];
    let book = types.matching("book")[0];
    let title = types.matching("title")[0];
    let snap = doc.snapshot();

    // Join 1: authors {1.1.2, 1.2.2} with names.
    let j1 = snap.closest_children(&"1.1.2".parse().unwrap(), author, name);
    assert_eq!(j1[0].0.to_string(), "1.1.2.1");
    // Join 2: authors with books (upward join).
    let j2 = snap.closest_children(&"1.1.2".parse().unwrap(), author, book);
    assert_eq!(j2[0].0.to_string(), "1.1");
    // Join 3: books with titles.
    let j3 = snap.closest_children(&"1.1".parse().unwrap(), book, title);
    assert_eq!(j3[0].0.to_string(), "1.1.1");
}
