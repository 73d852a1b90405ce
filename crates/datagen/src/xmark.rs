//! An XMark-flavoured auction-site document generator.
//!
//! Reproduces the structural profile the §IX experiments lean on: a
//! `site` root with `regions` (six continents of items), `categories`
//! (with recursive `parlist`/`listitem` description markup), `catgraph`,
//! `people` (nested profiles, watches, addresses), `open_auctions`
//! (bidder lists, annotations) and `closed_auctions`. Document size
//! scales linearly with the `factor`, matching how the paper varies XMark
//! factors 0.1–0.5 (11–55 MB).

use crate::text::{self};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmorph_xml::writer::StreamWriter;

/// Configuration for the XMark-like generator.
#[derive(Debug, Clone)]
pub struct XmarkConfig {
    /// Scale factor: sizes grow linearly. Factor 1.0 ≈ 11 MB by default
    /// (one tenth of real XMark's 110 MB, so the paper's 0.1–0.5 sweep
    /// stays laptop-friendly; multiply by 10 for full-size documents).
    pub factor: f64,
    /// RNG seed — same seed, same document.
    pub seed: u64,
    /// Bytes per unit factor (default ≈ 11 MB per 1.0, i.e. the paper's
    /// factor 0.1 document at `factor = 0.1` is ≈ 1.1 MB).
    pub bytes_per_factor: usize,
}

impl Default for XmarkConfig {
    fn default() -> Self {
        XmarkConfig {
            factor: 0.1,
            seed: 7,
            bytes_per_factor: 11_000_000,
        }
    }
}

impl XmarkConfig {
    /// A config with the given factor and default seed/scaling.
    pub fn with_factor(factor: f64) -> Self {
        XmarkConfig {
            factor,
            ..Default::default()
        }
    }

    fn units(&self) -> usize {
        // Empirically ~750 bytes per item-unit across all sections.
        let target = (self.factor * self.bytes_per_factor as f64) as usize;
        (target / 750).max(6)
    }

    /// Generate the document.
    pub fn generate(&self) -> String {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let target = (self.factor * self.bytes_per_factor as f64) as usize;
        let mut w = StreamWriter::with_capacity(target + target / 8);
        site(&mut w, &mut rng, self.units(), &mut |_| Ok(())).expect("no-op sink cannot fail");
        w.finish()
    }

    /// Stream the document to a writer in bounded memory: completed
    /// fragments drain to `out` as the generator passes safe points
    /// (never mid-tag), so peak buffering is one fragment, not the
    /// document. Byte-identical to [`XmarkConfig::generate`] for the
    /// same config. Returns the number of bytes written.
    pub fn generate_to<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<u64> {
        const FLUSH_AT: usize = 64 * 1024;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut w = StreamWriter::with_capacity(2 * FLUSH_AT);
        let mut written = 0u64;
        site(
            &mut w,
            &mut rng,
            self.units(),
            &mut |w: &mut StreamWriter| {
                if w.len() >= FLUSH_AT {
                    w.drain_to(|chunk| {
                        written += chunk.len() as u64;
                        out.write_all(chunk.as_bytes())
                    })?;
                }
                Ok(())
            },
        )?;
        let tail = w.finish();
        written += tail.len() as u64;
        out.write_all(tail.as_bytes())?;
        Ok(written)
    }
}

const REGIONS: &[&str] = &[
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// Emit the whole document. `sink` is called at safe points — right
/// after a completed item/category/person/auction, never while an open
/// tag is pending — so a draining sink observes exactly the bytes a
/// non-draining run would produce.
fn site<S: FnMut(&mut StreamWriter) -> std::io::Result<()>>(
    w: &mut StreamWriter,
    rng: &mut SmallRng,
    units: usize,
    sink: &mut S,
) -> std::io::Result<()> {
    // Section weights roughly follow XMark's document composition.
    let items = units / 2;
    let categories = (units / 20).max(1);
    let people = units / 4;
    let open = units / 5;
    let closed = units / 8;

    w.start("site");
    w.start("regions");
    for (i, region) in REGIONS.iter().enumerate() {
        w.start(region);
        let share = items / REGIONS.len() + usize::from(i < items % REGIONS.len());
        for n in 0..share {
            item(w, rng, region, i * 1000 + n);
            sink(w)?;
        }
        w.end();
    }
    w.end(); // regions

    w.start("categories");
    for c in 0..categories {
        w.start("category");
        w.attr("id", &format!("category{c}"));
        simple(w, "name", &text::words(rng, 2));
        w.start("description");
        parlist(w, rng, 2);
        w.end();
        w.end();
        sink(w)?;
    }
    w.end();

    w.start("catgraph");
    for c in 1..categories {
        w.start("edge");
        w.attr("from", &format!("category{}", c - 1));
        w.attr("to", &format!("category{c}"));
        w.end();
        sink(w)?;
    }
    w.end();

    w.start("people");
    for p in 0..people {
        person(w, rng, p);
        sink(w)?;
    }
    w.end();

    w.start("open_auctions");
    for a in 0..open {
        open_auction(w, rng, a, people.max(1), items.max(1));
        sink(w)?;
    }
    w.end();

    w.start("closed_auctions");
    for a in 0..closed {
        closed_auction(w, rng, a, people.max(1), items.max(1));
        sink(w)?;
    }
    w.end();

    w.end(); // site
    Ok(())
}

fn simple(w: &mut StreamWriter, name: &str, value: &str) {
    w.start(name);
    w.text(value);
    w.end();
}

fn item(w: &mut StreamWriter, rng: &mut SmallRng, region: &str, id: usize) {
    w.start("item");
    w.attr("id", &format!("item{region}{id}"));
    simple(
        w,
        "location",
        text::COUNTRIES[rng.random_range(0..text::COUNTRIES.len())],
    );
    simple(w, "quantity", &rng.random_range(1..9u32).to_string());
    simple(w, "name", &text::words(rng, 3));
    w.start("payment");
    w.text("Creditcard");
    w.end();
    w.start("description");
    let depth = rng.random_range(1..3);
    parlist(w, rng, depth);
    w.end();
    w.start("shipping");
    w.text("Will ship internationally");
    w.end();
    w.start("incategory");
    w.attr(
        "category",
        &format!("category{}", rng.random_range(0..8u32)),
    );
    w.end();
    w.start("mailbox");
    for _ in 0..rng.random_range(0..3u32) {
        w.start("mail");
        simple(w, "from", &text::person_name(rng));
        simple(w, "to", &text::person_name(rng));
        simple(w, "date", &date(rng));
        w.start("text");
        w.text(&text::sentence(rng, 8, 20));
        w.end();
        w.end();
    }
    w.end();
    w.end();
}

/// Mixed text with XMark's inline markup: `emph`, `keyword`, `bold`
/// fragments interleaved with plain words, nesting up to `depth` — the
/// source of much of real XMark's type richness.
fn rich_text(w: &mut StreamWriter, rng: &mut SmallRng, words: usize, depth: usize) {
    let mut remaining = words;
    while remaining > 0 {
        let chunk = rng.random_range(1..=remaining.min(6));
        remaining -= chunk;
        if depth > 0 && rng.random_range(0..3u32) == 0 {
            let tag = ["emph", "keyword", "bold"][rng.random_range(0..3usize)];
            w.start(tag);
            rich_text(w, rng, chunk, depth - 1);
            w.end();
        } else {
            w.text(&text::words(rng, chunk));
        }
        if remaining > 0 {
            w.text(" ");
        }
    }
}

/// Recursive `parlist`/`listitem` markup — the source of XMark's deep,
/// type-rich description structure.
fn parlist(w: &mut StreamWriter, rng: &mut SmallRng, depth: usize) {
    w.start("parlist");
    let n = rng.random_range(1..4usize);
    for _ in 0..n {
        w.start("listitem");
        if depth > 0 && rng.random_range(0..4u32) == 0 {
            parlist(w, rng, depth - 1);
        } else {
            w.start("text");
            let n = rng.random_range(10..25usize);
            rich_text(w, rng, n, 2);
            w.end();
        }
        w.end();
    }
    w.end();
}

fn person(w: &mut StreamWriter, rng: &mut SmallRng, id: usize) {
    w.start("person");
    w.attr("id", &format!("person{id}"));
    simple(w, "name", &text::person_name(rng));
    simple(w, "emailaddress", &format!("mailto:u{id}@example.org"));
    if rng.random_range(0..2u32) == 0 {
        simple(
            w,
            "phone",
            &format!(
                "+1 ({}) {}",
                rng.random_range(100..999u32),
                rng.random_range(1000000..9999999u32)
            ),
        );
    }
    if rng.random_range(0..2u32) == 0 {
        w.start("address");
        simple(
            w,
            "street",
            &format!("{} {} St", rng.random_range(1..99u32), text::word(rng)),
        );
        simple(
            w,
            "city",
            text::CITIES[rng.random_range(0..text::CITIES.len())],
        );
        simple(
            w,
            "country",
            text::COUNTRIES[rng.random_range(0..text::COUNTRIES.len())],
        );
        simple(w, "zipcode", &rng.random_range(10000..99999u32).to_string());
        w.end();
    }
    w.start("profile");
    w.attr(
        "income",
        &format!("{:.2}", rng.random_range(20000..120000u32) as f64 / 1.0),
    );
    for _ in 0..rng.random_range(0..4u32) {
        w.start("interest");
        w.attr(
            "category",
            &format!("category{}", rng.random_range(0..8u32)),
        );
        w.end();
    }
    if rng.random_range(0..2u32) == 0 {
        simple(w, "education", "Graduate School");
    }
    if rng.random_range(0..3u32) == 0 {
        simple(w, "business", "Yes");
    }
    if rng.random_range(0..3u32) == 0 {
        simple(w, "age", &rng.random_range(18..80u32).to_string());
    }
    w.end();
    if rng.random_range(0..3u32) == 0 {
        simple(
            w,
            "creditcard",
            &format!(
                "{} {} {} {}",
                rng.random_range(1000..9999u32),
                rng.random_range(1000..9999u32),
                rng.random_range(1000..9999u32),
                rng.random_range(1000..9999u32)
            ),
        );
    }
    if rng.random_range(0..3u32) == 0 {
        simple(w, "homepage", &format!("http://www.example.org/~u{id}"));
    }
    if rng.random_range(0..2u32) == 0 {
        w.start("watches");
        for _ in 0..rng.random_range(1..3u32) {
            w.start("watch");
            w.attr(
                "open_auction",
                &format!("open_auction{}", rng.random_range(0..50u32)),
            );
            w.end();
        }
        w.end();
    }
    w.end();
}

fn date(rng: &mut SmallRng) -> String {
    format!(
        "{:02}/{:02}/{}",
        rng.random_range(1..13u32),
        rng.random_range(1..29u32),
        rng.random_range(1998..2003u32)
    )
}

fn open_auction(w: &mut StreamWriter, rng: &mut SmallRng, id: usize, people: usize, items: usize) {
    w.start("open_auction");
    w.attr("id", &format!("open_auction{id}"));
    simple(
        w,
        "initial",
        &format!("{:.2}", rng.random_range(100..10000u32) as f64 / 100.0),
    );
    for _ in 0..rng.random_range(0..4u32) {
        w.start("bidder");
        simple(w, "date", &date(rng));
        simple(
            w,
            "time",
            &format!(
                "{:02}:{:02}:{:02}",
                rng.random_range(0..24u32),
                rng.random_range(0..60u32),
                rng.random_range(0..60u32)
            ),
        );
        w.start("personref");
        w.attr(
            "person",
            &format!("person{}", rng.random_range(0..people as u32)),
        );
        w.end();
        simple(
            w,
            "increase",
            &format!("{:.2}", rng.random_range(150..5000u32) as f64 / 100.0),
        );
        w.end();
    }
    simple(
        w,
        "current",
        &format!("{:.2}", rng.random_range(100..20000u32) as f64 / 100.0),
    );
    w.start("itemref");
    w.attr(
        "item",
        &format!("itemafrica{}", rng.random_range(0..items as u32)),
    );
    w.end();
    w.start("seller");
    w.attr(
        "person",
        &format!("person{}", rng.random_range(0..people as u32)),
    );
    w.end();
    w.start("annotation");
    simple(w, "author", &text::person_name(rng));
    w.start("description");
    if rng.random_range(0..3u32) == 0 {
        parlist(w, rng, 1);
    } else {
        w.start("text");
        let n = rng.random_range(12..30usize);
        rich_text(w, rng, n, 2);
        w.end();
    }
    w.end();
    w.end();
    simple(w, "quantity", &rng.random_range(1..5u32).to_string());
    simple(w, "type", "Regular");
    w.start("interval");
    simple(w, "start", &date(rng));
    simple(w, "end", &date(rng));
    w.end();
    w.end();
}

fn closed_auction(
    w: &mut StreamWriter,
    rng: &mut SmallRng,
    _id: usize,
    people: usize,
    items: usize,
) {
    w.start("closed_auction");
    w.start("seller");
    w.attr(
        "person",
        &format!("person{}", rng.random_range(0..people as u32)),
    );
    w.end();
    w.start("buyer");
    w.attr(
        "person",
        &format!("person{}", rng.random_range(0..people as u32)),
    );
    w.end();
    w.start("itemref");
    w.attr(
        "item",
        &format!("itemasia{}", rng.random_range(0..items as u32)),
    );
    w.end();
    simple(
        w,
        "price",
        &format!("{:.2}", rng.random_range(100..20000u32) as f64 / 100.0),
    );
    simple(w, "date", &date(rng));
    simple(w, "quantity", &rng.random_range(1..5u32).to_string());
    simple(w, "type", "Regular");
    w.start("annotation");
    simple(w, "author", &text::person_name(rng));
    w.start("description");
    w.start("text");
    w.text(&text::sentence(rng, 12, 30));
    w.end();
    w.end();
    w.end();
    w.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmorph_xml::dom::Document;

    #[test]
    fn generates_well_formed_xml() {
        let xml = XmarkConfig {
            factor: 0.01,
            ..Default::default()
        }
        .generate();
        let doc = Document::parse_str(&xml).unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), "site");
    }

    #[test]
    fn generate_to_is_byte_identical() {
        let cfg = XmarkConfig {
            factor: 0.02,
            ..Default::default()
        };
        let whole = cfg.generate();
        let mut streamed: Vec<u8> = Vec::new();
        let written = cfg.generate_to(&mut streamed).unwrap();
        assert_eq!(written as usize, streamed.len());
        assert_eq!(streamed, whole.as_bytes());
    }

    #[test]
    fn deterministic() {
        let a = XmarkConfig {
            factor: 0.01,
            ..Default::default()
        }
        .generate();
        let b = XmarkConfig {
            factor: 0.01,
            ..Default::default()
        }
        .generate();
        assert_eq!(a, b);
    }

    #[test]
    fn scales_roughly_linearly() {
        let small = XmarkConfig {
            factor: 0.01,
            ..Default::default()
        }
        .generate()
        .len();
        let large = XmarkConfig {
            factor: 0.04,
            ..Default::default()
        }
        .generate()
        .len();
        let ratio = large as f64 / small as f64;
        assert!(
            (2.5..6.0).contains(&ratio),
            "ratio {ratio} ({small} -> {large})"
        );
    }

    #[test]
    fn size_targets_factor() {
        let cfg = XmarkConfig {
            factor: 0.02,
            ..Default::default()
        };
        let len = cfg.generate().len();
        let target = (0.02 * cfg.bytes_per_factor as f64) as usize;
        assert!(
            len > target / 2 && len < target * 2,
            "len {len} vs target {target}"
        );
    }

    #[test]
    fn has_the_site_sections() {
        let xml = XmarkConfig {
            factor: 0.01,
            ..Default::default()
        }
        .generate();
        for section in [
            "<regions>",
            "<categories>",
            "<people>",
            "<open_auctions>",
            "<closed_auctions>",
        ] {
            assert!(xml.contains(section), "missing {section}");
        }
        assert!(xml.contains("<parlist>"));
    }

    #[test]
    fn many_distinct_types() {
        use std::collections::BTreeSet;
        let xml = XmarkConfig {
            factor: 0.02,
            ..Default::default()
        }
        .generate();
        let doc = Document::parse_str(&xml).unwrap();
        let root = doc.root_element().unwrap();
        let mut paths: BTreeSet<String> = BTreeSet::new();
        for el in doc.descendant_elements(root) {
            paths.insert(doc.root_path(el).join("/"));
            for (a, _) in doc.attrs(el) {
                paths.insert(format!("{}/@{}", doc.root_path(el).join("/"), a));
            }
        }
        // The paper's XMark documents have 471 distinct types; the
        // structural profile here yields a comparable order.
        assert!(
            paths.len() >= 80,
            "only {} distinct root-path types",
            paths.len()
        );
    }
}
