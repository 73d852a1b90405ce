//! The two reports an XMorph evaluation produces (paper Fig. 8): the
//! label-to-type report and the information-loss report.

use crate::model::card::Card;
use std::fmt;

/// The typing class of a guard (§I / §V-B).
///
/// * *narrowing* — guaranteed not to create data (non-additive), but may
///   lose some;
/// * *widening* — guaranteed not to lose data (inclusive), but may create
///   some;
/// * *strongly-typed* — both; *weakly-typed* — neither.
///
/// A label matching no source type is a *type mismatch* and reported as
/// an error rather than a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardTyping {
    /// Neither creates nor loses data.
    Strong,
    /// Does not create data; may lose some.
    Narrowing,
    /// Does not lose data; may create some.
    Widening,
    /// May both create and lose data.
    Weak,
}

impl fmt::Display for GuardTyping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardTyping::Strong => write!(f, "strongly-typed"),
            GuardTyping::Narrowing => write!(f, "narrowing"),
            GuardTyping::Widening => write!(f, "widening"),
            GuardTyping::Weak => write!(f, "weakly-typed"),
        }
    }
}

/// How one label occurrence resolved to types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelResolution {
    /// The label as written in the guard.
    pub label: String,
    /// Dotted names of the types it resolved to (empty + `filled` when
    /// TYPE-FILL invented a type).
    pub resolved: Vec<String>,
    /// True when TYPE-FILL generated a new type for this label.
    pub filled: bool,
}

/// The label-to-type report: how each label in the guard was matched
/// against the source shape, including how ambiguity was resolved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelReport {
    /// One entry per label occurrence, in evaluation order.
    pub resolutions: Vec<LabelResolution>,
}

impl LabelReport {
    /// Record a resolution.
    pub fn record(&mut self, label: &str, resolved: Vec<String>, filled: bool) {
        self.resolutions.push(LabelResolution {
            label: label.to_string(),
            resolved,
            filled,
        });
    }

    /// True when any label was ambiguous (matched more than one type).
    pub fn has_ambiguity(&self) -> bool {
        self.resolutions.iter().any(|r| r.resolved.len() > 1)
    }
}

impl fmt::Display for LabelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "label-to-type report:")?;
        for r in &self.resolutions {
            if r.filled {
                writeln!(f, "  {:20} -> (type-filled: new type)", r.label)?;
            } else {
                writeln!(f, "  {:20} -> {}", r.label, r.resolved.join(", "))?;
            }
        }
        Ok(())
    }
}

/// One way a transformation potentially loses or manufactures
/// information.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LossFinding {
    /// Theorem 1 violation: the minimum path cardinality between the two
    /// types rises from zero to non-zero — instances of `to` without a
    /// closest `from` will be dropped (potentially non-inclusive).
    MinCardRaised {
        /// Ancestor-side type (dotted).
        from: String,
        /// Descendant-side type (dotted).
        to: String,
        /// Path cardinality in the source shape.
        src: Card,
        /// Predicted path cardinality in the target shape.
        tgt: Card,
    },
    /// Theorem 2 violation: the maximum path cardinality increases —
    /// instances of `to` may be duplicated under `from`, adding closest
    /// relationships absent from the source (potentially additive).
    MaxCardRaised {
        /// Ancestor-side type (dotted).
        from: String,
        /// Descendant-side type (dotted).
        to: String,
        /// Path cardinality in the source shape.
        src: Card,
        /// Predicted path cardinality in the target shape.
        tgt: Card,
    },
    /// A `CLONE` duplicates the type's data (additive by construction).
    CloneAdds {
        /// Dotted source type name.
        type_name: String,
    },
    /// A `NEW` (or TYPE-FILL) introduces vertices absent from the source
    /// (additive by construction).
    NewAdds {
        /// The new element name.
        name: String,
    },
    /// A `RESTRICT` whose filter has minimum path cardinality zero may
    /// drop instances of the restricted type (non-inclusive).
    RestrictFilters {
        /// Dotted name of the restricted type.
        type_name: String,
        /// Dotted name of the filter type.
        filter: String,
    },
}

impl fmt::Display for LossFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossFinding::MinCardRaised { from, to, src, tgt } => write!(
                f,
                "non-inclusive: min path cardinality {from} ~> {to} rises {src} -> {tgt}; \
                 {to} instances without a closest {from} are dropped"
            ),
            LossFinding::MaxCardRaised { from, to, src, tgt } => write!(
                f,
                "additive: max path cardinality {from} ~> {to} rises {src} -> {tgt}; \
                 {to} instances may be duplicated"
            ),
            LossFinding::CloneAdds { type_name } => {
                write!(f, "additive: CLONE duplicates {type_name}")
            }
            LossFinding::NewAdds { name } => {
                write!(f, "additive: NEW introduces <{name}> vertices")
            }
            LossFinding::RestrictFilters { type_name, filter } => write!(
                f,
                "non-inclusive: RESTRICT may drop {type_name} instances lacking a closest {filter}"
            ),
        }
    }
}

/// The information-loss report for a transformation (§V-B): the outcome
/// of the Theorem 1/2 checks and the resulting typing class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossReport {
    /// Every detected potential loss/addition, in detection order.
    pub findings: Vec<LossFinding>,
    /// Theorem 1: guaranteed not to lose data.
    pub inclusive: bool,
    /// Theorem 2: guaranteed not to create data.
    pub non_additive: bool,
    /// The derived typing class.
    pub typing: GuardTyping,
    /// Source types absent from the target, with their instance counts.
    /// Informational: the paper reasons over the sub-collection the guard
    /// mentions ("it is trivial to choose any subset of a closest graph
    /// as the source", §V-B), so subsetting does not affect the class.
    pub dropped_types: Vec<(String, u64)>,
}

impl LossReport {
    /// Derive the typing class from the two guarantees.
    pub fn classify(inclusive: bool, non_additive: bool, findings: Vec<LossFinding>) -> Self {
        let typing = match (inclusive, non_additive) {
            (true, true) => GuardTyping::Strong,
            (false, true) => GuardTyping::Narrowing,
            (true, false) => GuardTyping::Widening,
            (false, false) => GuardTyping::Weak,
        };
        LossReport {
            findings,
            inclusive,
            non_additive,
            typing,
            dropped_types: Vec::new(),
        }
    }

    /// A transformation with both guarantees is reversible (§V-A).
    pub fn reversible(&self) -> bool {
        self.inclusive && self.non_additive
    }
}

impl fmt::Display for LossReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "information-loss report: {}", self.typing)?;
        writeln!(
            f,
            "  inclusive (no data lost):    {}",
            if self.inclusive { "yes" } else { "NO" }
        )?;
        writeln!(
            f,
            "  non-additive (none created): {}",
            if self.non_additive { "yes" } else { "NO" }
        )?;
        for finding in &self.findings {
            writeln!(f, "  - {finding}")?;
        }
        if !self.dropped_types.is_empty() {
            writeln!(f, "  source types not in the target (subsetting):")?;
            for (name, count) in &self.dropped_types {
                writeln!(f, "    {name} ({count} instance(s))")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::card::CardMax;

    #[test]
    fn classification_matrix() {
        assert_eq!(
            LossReport::classify(true, true, vec![]).typing,
            GuardTyping::Strong
        );
        assert_eq!(
            LossReport::classify(false, true, vec![]).typing,
            GuardTyping::Narrowing
        );
        assert_eq!(
            LossReport::classify(true, false, vec![]).typing,
            GuardTyping::Widening
        );
        assert_eq!(
            LossReport::classify(false, false, vec![]).typing,
            GuardTyping::Weak
        );
    }

    #[test]
    fn reversible_iff_strong() {
        assert!(LossReport::classify(true, true, vec![]).reversible());
        assert!(!LossReport::classify(true, false, vec![]).reversible());
    }

    #[test]
    fn display_mentions_findings() {
        let report = LossReport::classify(
            false,
            true,
            vec![LossFinding::MinCardRaised {
                from: "data.author".into(),
                to: "data.name".into(),
                src: Card::new(0, CardMax::Finite(1)),
                tgt: Card::new(1, CardMax::Finite(1)),
            }],
        );
        let s = report.to_string();
        assert!(s.contains("narrowing"), "{s}");
        assert!(s.contains("data.author"), "{s}");
        assert!(s.contains("0..1 -> 1..1"), "{s}");
    }

    #[test]
    fn label_report_format() {
        let mut r = LabelReport::default();
        r.record("author", vec!["data.book.author".into()], false);
        r.record("ghost", vec![], true);
        let s = r.to_string();
        assert!(s.contains("author"), "{s}");
        assert!(s.contains("type-filled"), "{s}");
        assert!(!r.has_ambiguity());
        r.record("name", vec!["a.name".into(), "b.name".into()], false);
        assert!(r.has_ambiguity());
    }
}
