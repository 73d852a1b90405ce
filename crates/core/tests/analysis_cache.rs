//! The shape-version analysis cache is invisible: every query the
//! [`Engine`] answers from a cached [`GuardAnalysis`] must equal what a
//! fresh compile ([`Guard::analyze_snapshot`]) plus render produces on
//! a cold handle of the same store, one that carries no cache across
//! writes — across a random stream of text updates, inserts that add
//! new types, renumbering inserts, and deletes that drive a minimum
//! cardinality to zero. Also pins the cache's lifetime (a text update
//! keeps it, a structural write starts a new one), its bound and its
//! error paths: failed analyses are never inserted, and enforcement
//! runs on every query, cached or not.

use std::collections::HashSet;
use std::sync::Arc;
use xmorph_core::render::RenderOptions;
use xmorph_core::{
    render_parallel_snapshot, Dewey, Engine, Guard, GuardAnalysis, GuardTyping, MorphError,
    Mutation, MutationOutcome, ParallelOptions, QueryRequest, ShreddedDoc, Snapshot, TypeId,
};
use xmorph_datagen::XmarkConfig;

/// The four small guards xbench's `serve.point` cycles, the
/// whole-document guard of `serve.full`, and three guards whose typing
/// the mutation stream moves: deleting a person's `name` (an open
/// auction's `initial`) drops that type's minimum cardinality to 0 and
/// makes the inverted guard narrowing, so default enforcement starts
/// rejecting it; a `city` inserted under a person makes the last guard
/// weak.
const GUARDS: &[&str] = &[
    "MORPH people [ person [ address [ city ] ] ]",
    "MORPH item [ name location quantity ]",
    "MORPH person [ name ]",
    "MORPH open_auction [ initial current itemref ]",
    "MUTATE site",
    NAME_PERSON,
    "MORPH initial [ open_auction ]",
    CITY_PERSON,
];
const NAME_PERSON: &str = "MORPH name [ person ]";
const CITY_PERSON: &str = "CAST MORPH city [ person [ name ] ]";

/// What a query of one guard came to.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rendered { xml: String, typing: GuardTyping },
    Rejected(GuardTyping),
    Failed(String),
}

fn fresh(snap: &Snapshot, guard: &Guard) -> Outcome {
    let analysis = match guard.analyze_snapshot(snap) {
        Ok(a) => a,
        Err(e) => return Outcome::Failed(e.to_string()),
    };
    if !analysis.permitted() {
        return Outcome::Rejected(analysis.loss.typing);
    }
    let popts = ParallelOptions {
        threads: 1,
        render: RenderOptions::default(),
    };
    match render_parallel_snapshot(snap, &analysis.target, &popts) {
        Ok(xml) => Outcome::Rendered {
            xml,
            typing: analysis.loss.typing,
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn served(engine: &Engine, guard: &str) -> Outcome {
    match engine.query(&QueryRequest::builder(guard).threads(1).build()) {
        Ok(resp) => Outcome::Rendered {
            xml: resp.xml,
            typing: resp.typing,
        },
        Err(MorphError::Rejected { typing, .. }) => Outcome::Rejected(typing),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// SplitMix64: a seeded, dependency-free stream for the mutation plan.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn type_of(snap: &Snapshot, dotted: &str) -> Option<TypeId> {
    let path: Vec<String> = dotted.split('.').map(str::to_string).collect();
    snap.types().lookup(&path)
}

fn instances(snap: &Snapshot, dotted: &str) -> Vec<Dewey> {
    type_of(snap, dotted)
        .map(|t| snap.scan_type(t).into_iter().map(|(d, _)| d).collect())
        .unwrap_or_default()
}

/// One random write against the current epoch, or `None` when the
/// chosen kind has nothing left to act on.
fn next_mutation(snap: &Snapshot, rng: &mut Rng, step: usize) -> Option<Mutation> {
    let pick = |rng: &mut Rng, all: Vec<Dewey>| -> Option<Dewey> {
        (!all.is_empty()).then(|| all[rng.below(all.len())].clone())
    };
    match rng.below(10) {
        // Text updates on a type some guard returns.
        0..=3 => {
            let dotted = [
                "site.people.person.name",
                "site.people.person.address.city",
                "site.open_auctions.open_auction.current",
            ][rng.below(3)];
            Some(Mutation::UpdateText {
                target: pick(rng, instances(snap, dotted))?,
                text: format!("T{step}"),
            })
        }
        // Inserts that add a type: a `city` directly under a person is
        // closer to `person` than the address's, and a `name` under an
        // open auction is a new candidate for `name`.
        4 | 5 => {
            let (parent, xml) = if rng.below(2) == 0 {
                (
                    pick(rng, instances(snap, "site.people.person.name"))?.parent()?,
                    format!("<city>C{step}</city>"),
                )
            } else {
                (
                    pick(
                        rng,
                        instances(snap, "site.open_auctions.open_auction.current"),
                    )?
                    .parent()?,
                    format!("<name>N{step}</name>"),
                )
            };
            Some(Mutation::InsertSubtree { parent, xml })
        }
        // An insert before a person: the shred left no ordinal gap
        // between siblings, so the first such insert under `people`
        // renumbers every later person and moves their Deweys.
        6 => Some(Mutation::InsertBefore {
            sibling: pick(rng, instances(snap, "site.people.person"))?,
            xml: format!("<person><name>B{step}</name></person>"),
        }),
        // Deletes of a mandatory child: the first drives the type's
        // minimum cardinality to 0.
        _ => {
            let dotted = [
                "site.people.person.name",
                "site.people.person.address",
                "site.open_auctions.open_auction.initial",
            ][rng.below(3)];
            Some(Mutation::DeleteSubtree {
                target: pick(rng, instances(snap, dotted))?,
            })
        }
    }
}

/// Check every guard on the current epoch; returns what each query
/// came to, as (guard text, typing or failure). `shape_kept` says
/// whether the write before this epoch left the shape alone (a text
/// update), so its analyses must carry over, or edited it (an insert or
/// a delete), so they must not.
fn check_epoch(
    engine: &Engine,
    guards: &[Guard],
    prev: &mut [Option<Arc<GuardAnalysis>>],
    shape_kept: bool,
) -> Vec<(String, String)> {
    let snap = engine.snapshot();
    let cold = ShreddedDoc::open(engine.store())
        .expect("cold open")
        .snapshot();
    let mut seen = Vec::new();
    for (guard, prev) in guards.iter().zip(prev.iter_mut()) {
        let first = snap.analysis(guard).ok();
        if let (Some(first), Some(old)) = (&first, prev.as_ref()) {
            assert_eq!(
                Arc::ptr_eq(first, old),
                shape_kept,
                "{}: shape kept {shape_kept}, but the analysis was {}",
                guard.source(),
                if shape_kept { "recomputed" } else { "reused" }
            );
        }
        let outcome = served(engine, guard.source());
        assert_eq!(
            outcome,
            fresh(&cold, guard),
            "{} at epoch {}",
            guard.source(),
            snap.epoch()
        );
        let class = match outcome {
            Outcome::Rendered { typing, .. } => format!("{typing:?}"),
            other => format!("{other:?}"),
        };
        seen.push((guard.source().to_string(), class));
        if let Some(first) = &first {
            let again = snap.analysis(guard).expect("succeeded once");
            assert!(Arc::ptr_eq(first, &again), "{}", guard.source());
        }
        *prev = first;
    }
    seen
}

#[test]
fn cached_analysis_matches_fresh_under_random_mutations() {
    let xml = XmarkConfig::with_factor(0.002).generate();
    let guards: Vec<Guard> = GUARDS.iter().map(|g| Guard::parse(g).unwrap()).collect();
    let (mut inserts, mut inserts_before, mut deletes) = (0, 0, 0);
    let mut seen = HashSet::new();
    for seed in [1u64, 7, 42] {
        let engine = Engine::from_xml(&xml).expect("shred");
        let mut rng = Rng(seed);
        let mut prev = vec![None; guards.len()];
        seen.extend(check_epoch(&engine, &guards, &mut prev, false));
        for step in 0..24 {
            let Some(m) = next_mutation(&engine.snapshot(), &mut rng, step) else {
                continue;
            };
            let shape_kept = match engine.mutate(&m).expect("mutation applies") {
                MutationOutcome::Inserted(_) => {
                    inserts += 1;
                    false
                }
                MutationOutcome::Deleted(_) => {
                    deletes += 1;
                    false
                }
                MutationOutcome::Updated => true,
            };
            if matches!(m, Mutation::InsertBefore { .. }) {
                inserts_before += 1;
            }
            seen.extend(check_epoch(&engine, &guards, &mut prev, shape_kept));
        }
    }
    assert!(
        inserts > 0 && inserts_before > 0 && deletes > 0,
        "{inserts} inserts ({inserts_before} before a sibling), {deletes} deletes"
    );
    // The stream really moved the loss analysis, not only the text.
    for (guard, class) in [
        (NAME_PERSON, "Strong"),
        (NAME_PERSON, "Rejected(Narrowing)"),
        (CITY_PERSON, "Narrowing"),
        (CITY_PERSON, "Weak"),
    ] {
        assert!(
            seen.contains(&(guard.to_string(), class.to_string())),
            "{guard} never came out {class}: {seen:?}"
        );
    }
}

#[test]
fn stats_report_warm_and_cold_compiles() {
    let engine = Engine::from_xml(&XmarkConfig::with_factor(0.001).generate()).unwrap();
    let req = QueryRequest::builder("MORPH person [ name ]")
        .stats(true)
        .build();
    let cached = |engine: &Engine| engine.query(&req).unwrap().stats.unwrap().analysis_cached;
    assert!(!cached(&engine));
    assert!(cached(&engine));
    let name = instances(&engine.snapshot(), "site.people.person.name").remove(0);
    engine
        .mutate(&Mutation::UpdateText {
            target: name,
            text: "Z".to_string(),
        })
        .unwrap();
    assert!(cached(&engine), "a text update keeps the shape's analyses");
    let people = instances(&engine.snapshot(), "site.people").remove(0);
    engine
        .mutate(&Mutation::InsertSubtree {
            parent: people,
            xml: "<person><name>New</name></person>".to_string(),
        })
        .unwrap();
    assert!(!cached(&engine), "a structural write starts an empty cache");
    assert!(cached(&engine));
}

const FIG1A: &str = "<data>\
    <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
    <book><title>Y</title><author><name>Ann</name></author><publisher><name>V</name></publisher></book>\
    </data>";

#[test]
fn cache_stays_bounded_and_correct() {
    let engine = Engine::from_xml(FIG1A).unwrap();
    let bases = ["MORPH author [ name book [ title ] ]", "MORPH title"];
    let want: Vec<String> = bases
        .iter()
        .map(|g| {
            engine
                .query(&QueryRequest::builder(*g).build())
                .unwrap()
                .xml
        })
        .collect();
    let snap = engine.snapshot();
    for k in 0..1000 {
        // Trailing blanks make each text a distinct cache key for the
        // same program.
        let text = format!("{}{}", bases[k % 2], " ".repeat(k / 2 + 1));
        let xml = engine
            .query(&QueryRequest::builder(text).build())
            .unwrap()
            .xml;
        assert_eq!(xml, want[k % 2], "guard #{k}");
        assert!(snap.cached_analyses() <= Snapshot::ANALYSIS_CACHE_CAP);
    }
    assert_eq!(snap.cached_analyses(), Snapshot::ANALYSIS_CACHE_CAP);
    assert!(Arc::ptr_eq(&snap, &engine.snapshot()), "no mutation ran");
}

#[test]
fn failed_analysis_is_not_cached() {
    let engine = Engine::from_xml(FIG1A).unwrap();
    let snap = engine.snapshot();
    for _ in 0..2 {
        let err = engine
            .query(&QueryRequest::builder("MORPH nonexistent").build())
            .unwrap_err();
        assert!(matches!(err, MorphError::TypeMismatch { .. }), "{err:?}");
        assert_eq!(snap.cached_analyses(), 0);
    }
}

#[test]
fn rejection_is_enforced_on_every_query() {
    // Fig. 1(c): dropping title while keeping the book subtree widens.
    let fig1c = "<data><author><name>Tim</name>\
        <book><title>X</title><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><publisher><name>V</name></publisher></book>\
        </author></data>";
    let engine = Engine::from_xml(fig1c).unwrap();
    let guard = "MORPH author [ !title name publisher [ name ] ]";
    for round in 0..2 {
        match engine.query(&QueryRequest::builder(guard).build()) {
            Err(MorphError::Rejected { typing, .. }) => {
                assert_eq!(typing, GuardTyping::Widening, "round {round}")
            }
            other => panic!("round {round}: expected Rejected, got {other:?}"),
        }
    }
    // The analysis itself was cached; the cast variant is its own key.
    assert_eq!(engine.snapshot().cached_analyses(), 1);
    let cast = format!("CAST-WIDENING {guard}");
    let resp = engine.query(&QueryRequest::builder(cast).build()).unwrap();
    assert_eq!(resp.typing, GuardTyping::Widening);
    assert_eq!(engine.snapshot().cached_analyses(), 2);
}
