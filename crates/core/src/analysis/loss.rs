//! Theorems 1 and 2 (§V-B), applied to the predicted target shape.
//!
//! The ξ evaluation already adorned every target edge with its predicted
//! cardinality (Def. 7), so the target shape *is* the predicted adorned
//! shape `R_p`. The analysis compares, for every ordered pair of source
//! types that appears in the target, the path cardinality in the source
//! against the path cardinality in `R_p`:
//!
//! * **Theorem 1 (inclusive / no data lost):** no minimum may rise from
//!   zero to non-zero — otherwise instances lacking a closest partner are
//!   dropped by the transform.
//! * **Theorem 2 (non-additive / no data created):** no maximum may
//!   increase — otherwise instances are duplicated, manufacturing closest
//!   relationships absent from the source.
//!
//! `CLONE` and `NEW` types are additive by construction; a `RESTRICT`
//! whose filter is not guaranteed to match is non-inclusive. Types the
//! guard simply does not mention are reported informationally
//! (subsetting) without affecting the class, matching the paper's
//! type-complete framing.

use crate::report::{LossFinding, LossReport};
use crate::semantics::shape::{SId, Shape};
use std::collections::{BTreeSet, HashSet};

/// Run the loss analysis: `src` is the data-backed source shape, `tgt`
/// the evaluated target shape (with predicted cardinalities), and
/// `instance_count(t)` the number of instances of source-shape node `t`.
pub fn analyze_loss(src: &Shape, tgt: &Shape, instance_count: impl Fn(SId) -> u64) -> LossReport {
    let mut findings: Vec<LossFinding> = Vec::new();
    let mut seen: HashSet<LossFinding> = HashSet::new();
    let mut inclusive = true;
    let mut non_additive = true;

    let push =
        |findings: &mut Vec<LossFinding>, seen: &mut HashSet<LossFinding>, f: LossFinding| {
            if seen.insert(f.clone()) {
                findings.push(f);
            }
        };

    // Renderable target nodes (filters excluded) in preorder.
    let nodes = tgt.preorder();

    // CLONE / NEW are additive by construction.
    for &n in &nodes {
        if tgt.nodes[n].is_clone {
            non_additive = false;
            let name = tgt.nodes[n]
                .origin
                .map(|o| src.dotted(o))
                .unwrap_or_else(|| tgt.nodes[n].name.clone());
            push(
                &mut findings,
                &mut seen,
                LossFinding::CloneAdds { type_name: name },
            );
        }
        if tgt.nodes[n].is_new {
            non_additive = false;
            push(
                &mut findings,
                &mut seen,
                LossFinding::NewAdds {
                    name: tgt.nodes[n].name.clone(),
                },
            );
        }
    }

    // RESTRICT filters that are not guaranteed to match lose instances.
    for &n in &nodes {
        for &f in &tgt.nodes[n].filters {
            if let (Some(no), Some(fo)) = (tgt.nodes[n].origin, tgt.nodes[f].origin) {
                let guaranteed = src.path_card(no, fo).map(|c| c.min >= 1).unwrap_or(false);
                if !guaranteed {
                    inclusive = false;
                    push(
                        &mut findings,
                        &mut seen,
                        LossFinding::RestrictFilters {
                            type_name: src.dotted(no),
                            filter: src.dotted(fo),
                        },
                    );
                }
            }
        }
    }

    // Pairwise path-cardinality comparison (Theorems 1 and 2). Nodes in
    // different target trees relate through the virtual forest root (the
    // rendered document wrapper), with the root edges carrying absolute
    // cardinalities — so flattening two types side by side is checked
    // like any other rearrangement.
    for &x in &nodes {
        let Some(ox) = tgt.nodes[x].origin else {
            continue;
        };
        for &y in &nodes {
            if x == y {
                continue;
            }
            let Some(oy) = tgt.nodes[y].origin else {
                continue;
            };
            let Some(tgt_card) = tgt.path_card(x, y) else {
                continue;
            };
            let src_card = src.path_card(ox, oy);
            match src_card {
                Some(sc) => {
                    if sc.min == 0 && tgt_card.min > 0 {
                        inclusive = false;
                        push(
                            &mut findings,
                            &mut seen,
                            LossFinding::MinCardRaised {
                                from: src.dotted(ox),
                                to: src.dotted(oy),
                                src: sc,
                                tgt: tgt_card,
                            },
                        );
                    }
                    if tgt_card.max > sc.max {
                        non_additive = false;
                        push(
                            &mut findings,
                            &mut seen,
                            LossFinding::MaxCardRaised {
                                from: src.dotted(ox),
                                to: src.dotted(oy),
                                src: sc,
                                tgt: tgt_card,
                            },
                        );
                    }
                }
                None => {
                    // Unrelated in the source: relating them at all both
                    // requires partners (may drop) and manufactures
                    // relationships (may add).
                    if tgt_card.min > 0 {
                        inclusive = false;
                    }
                    non_additive = false;
                    push(
                        &mut findings,
                        &mut seen,
                        LossFinding::MaxCardRaised {
                            from: src.dotted(ox),
                            to: src.dotted(oy),
                            src: crate::model::card::Card::zero(),
                            tgt: tgt_card,
                        },
                    );
                }
            }
        }
    }

    let mut report = LossReport::classify(inclusive, non_additive, findings);

    // Subsetting: source types absent from the target (informational).
    let present: BTreeSet<SId> = nodes.iter().filter_map(|&n| tgt.nodes[n].origin).collect();
    for s in 0..src.nodes.len() {
        if !present.contains(&s) && instance_count(s) > 0 {
            report
                .dropped_types
                .push((src.dotted(s), instance_count(s)));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::lower;
    use crate::lang::parse;
    use crate::model::card::{Card, CardMax};
    use crate::model::shape::AdornedShape;
    use crate::report::GuardTyping;
    use crate::semantics::eval::{eval_guard, EvalCtx, GuideOracle};
    use xmorph_xml::dom::Document;

    fn classify(guard: &str, xml: &str) -> LossReport {
        classify_with(guard, xml, |_| {})
    }

    fn classify_with(guard: &str, xml: &str, tweak: impl FnOnce(&mut AdornedShape)) -> LossReport {
        let doc = Document::parse_str(xml).unwrap();
        let mut adorned = AdornedShape::from_document(&doc);
        tweak(&mut adorned);
        let src = Shape::from_adorned(&adorned);
        let oracle = GuideOracle(adorned.types());
        let mut ctx = EvalCtx::new(&oracle);
        let op = lower(&parse(guard).unwrap());
        let tgt = eval_guard(&op, &src, &mut ctx).unwrap();
        analyze_loss(&src, &tgt, |s| {
            adorned.instance_count(crate::model::types::TypeId(s as u32))
        })
    }

    const FIG1A: &str = "<data>\
        <book><title>X</title><author><name>Tim</name></author><publisher><name>W</name></publisher></book>\
        <book><title>Y</title><author><name>Tim</name></author><publisher><name>V</name></publisher></book>\
        </data>";

    const FIG1C: &str = "<data>\
        <author><name>Tim</name>\
          <book><title>X</title><publisher><name>W</name></publisher></book>\
          <book><title>Y</title><publisher><name>V</name></publisher></book>\
        </author></data>";

    #[test]
    fn paper_intro_guard_is_strong() {
        // "The guard given above turns out to be strongly-typed" (§I).
        for xml in [FIG1A, FIG1C] {
            let report = classify("MORPH author [ name book [ title ] ]", xml);
            assert_eq!(report.typing, GuardTyping::Strong, "{xml}: {report}");
            assert!(report.reversible());
        }
    }

    #[test]
    fn paper_widening_guard_on_fig1c() {
        // "The transformation for instance (c) is widening" (§I): titles
        // get duplicated next to each publisher.
        let report = classify("MORPH author [ !title name publisher [ name ] ]", FIG1C);
        assert_eq!(report.typing, GuardTyping::Widening, "{report}");
        assert!(report.inclusive);
        assert!(!report.non_additive);
    }

    #[test]
    fn optional_name_swap_is_narrowing() {
        // §V-B: with author's name optional (0..1), MUTATE name [author]
        // is non-inclusive (authors without names are dropped) but
        // non-additive.
        let report = classify_with("MUTATE author.name [ author ]", FIG1C, |shape| {
            let name_ty = shape
                .types()
                .lookup(&["data".into(), "author".into(), "name".into()])
                .unwrap();
            shape.set_card(name_ty, Card::new(0, CardMax::Finite(1)));
        });
        assert!(!report.inclusive, "{report}");
        assert!(report.non_additive, "{report}");
        assert_eq!(report.typing, GuardTyping::Narrowing);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::MinCardRaised { .. })));
    }

    #[test]
    fn swap_without_optionality_is_strong() {
        // With 1..1 names the same swap loses nothing (§V-B: "since name
        // to author is 1..1, swapping their position does not change the
        // predicted maximum path cardinality").
        let report = classify("MUTATE author.name [ author ]", FIG1C);
        assert_eq!(report.typing, GuardTyping::Strong, "{report}");
    }

    #[test]
    fn clone_is_additive() {
        let report = classify("MUTATE author [ CLONE title ]", FIG1C);
        assert!(!report.non_additive);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::CloneAdds { .. })));
    }

    #[test]
    fn new_is_additive() {
        let report = classify("MUTATE (NEW scribe) [ author ]", FIG1C);
        assert!(!report.non_additive);
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::NewAdds { .. })));
    }

    #[test]
    fn subsetting_reported_but_not_lossy_class() {
        let report = classify("MORPH author [ name ]", FIG1A);
        assert_eq!(report.typing, GuardTyping::Strong, "{report}");
        assert!(!report.dropped_types.is_empty());
        let dropped: Vec<&str> = report
            .dropped_types
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(dropped.contains(&"data.book.title"), "{dropped:?}");
    }

    #[test]
    fn restrict_with_guaranteed_filter_is_safe() {
        // Every author.name has an author at distance 1 with card 1..1 up:
        // path card from name to author is 1..1, so nothing is dropped.
        let report = classify(
            "MORPH (RESTRICT author.name [ author ]) [ book.title ]",
            FIG1C,
        );
        assert!(report.inclusive, "{report}");
    }

    #[test]
    fn restrict_with_optional_filter_flags() {
        // Not every book has an award, so RESTRICT book [award] may drop.
        let xml =
            "<d><book><award>X</award><title>A</title></book><book><title>B</title></book></d>";
        let report = classify("MORPH (RESTRICT book [ award ]) [ title ]", xml);
        assert!(!report.inclusive, "{report}");
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, LossFinding::RestrictFilters { .. })));
    }

    #[test]
    fn duplicating_morph_is_additive() {
        // In FIG1A each book has one publisher, so title[publisher.name]
        // preserves every pairwise cardinality — strong.
        let strong = classify("MORPH title [ publisher.name ]", FIG1A);
        assert_eq!(strong.typing, GuardTyping::Strong, "{strong}");
        // But flattening titles and publishers under the author in FIG1C
        // raises the title↔publisher path cardinality from 1..1 (via the
        // book) to 2..2 (via the author): relationships are manufactured.
        let report = classify("MORPH author [ title publisher ]", FIG1C);
        assert!(!report.non_additive, "{report}");
        assert!(
            report
                .findings
                .iter()
                .any(|f| matches!(f, LossFinding::MaxCardRaised { .. })),
            "{report}"
        );
    }

    #[test]
    fn findings_deduplicate() {
        let report = classify("MORPH author [ !title name publisher [ name ] ]", FIG1C);
        let mut keys: Vec<String> = report.findings.iter().map(|f| format!("{f:?}")).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }
}
