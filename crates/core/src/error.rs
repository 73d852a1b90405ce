//! Error type for XMorph guard parsing, analysis, and evaluation.

use crate::report::GuardTyping;
use std::fmt;

/// Result alias used throughout the crate.
pub type MorphResult<T> = Result<T, MorphError>;

/// An error raised while parsing, type-checking, or evaluating a guard.
#[derive(Debug, Clone)]
pub enum MorphError {
    /// A syntax error in the guard program.
    Parse {
        /// Human-readable description.
        message: String,
        /// Byte offset into the guard text.
        offset: usize,
    },
    /// The guard nests deeper than the parser admits
    /// ([`crate::lang::parser::MAX_NESTING`]).
    TooDeep {
        /// The nesting limit.
        limit: usize,
        /// Byte offset into the guard text where the limit was passed.
        offset: usize,
    },
    /// A label in the guard matched no type in the source shape and
    /// `TYPE-FILL` was not in effect — the paper's *type mismatch*.
    TypeMismatch {
        /// The unmatched label.
        label: String,
    },
    /// The guard's typing class is not permitted by the active cast mode
    /// (by default only strongly-typed guards run).
    Rejected {
        /// The class the analysis assigned.
        typing: GuardTyping,
        /// What the cast mode allowed.
        allowed: &'static str,
    },
    /// The underlying XML was malformed.
    Xml(xmorph_xml::XmlError),
    /// The underlying storage engine failed. `op` says what the store
    /// was doing — which table, segment, or file — so a corrupt column
    /// segment reports *which* segment fell back, not just that
    /// something did.
    Store {
        /// The operation in flight (e.g. `open tree "typeseq"`,
        /// `read column segment "col.7"`).
        op: String,
        /// The storage engine's error.
        source: xmorph_pagestore::StoreError,
    },
    /// A document mutation could not be applied (missing target node,
    /// malformed fragment, exhausted ordinal space).
    Mutation {
        /// Human-readable description.
        message: String,
    },
    /// An internal invariant was violated (a bug).
    Internal(&'static str),
}

impl fmt::Display for MorphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MorphError::Parse { message, offset } => {
                write!(f, "guard syntax error at byte {offset}: {message}")
            }
            MorphError::TooDeep { limit, offset } => {
                write!(f, "guard nests deeper than {limit} levels at byte {offset}")
            }
            MorphError::TypeMismatch { label } => {
                write!(
                    f,
                    "type mismatch: label {label:?} matches no type in the source shape"
                )
            }
            MorphError::Rejected { typing, allowed } => {
                write!(f, "guard rejected: transformation is {typing}, but only {allowed} guards are allowed (add a CAST)")
            }
            MorphError::Xml(e) => write!(f, "XML error: {e}"),
            MorphError::Store { op, source } => write!(f, "storage error ({op}): {source}"),
            MorphError::Mutation { message } => write!(f, "mutation error: {message}"),
            MorphError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for MorphError {}

impl From<xmorph_xml::XmlError> for MorphError {
    fn from(e: xmorph_xml::XmlError) -> Self {
        MorphError::Xml(e)
    }
}

/// Attach operation context when lifting a storage result into a
/// [`MorphResult`]. There is deliberately no blanket
/// `From<StoreError>` — every lift must say what the store was doing.
pub(crate) trait StoreOpExt<T> {
    /// Convert, labelling the failure with `op` (e.g. `"open tree
    /// \"nodes\""`).
    fn in_op(self, op: &str) -> MorphResult<T>;
}

impl<T> StoreOpExt<T> for Result<T, xmorph_pagestore::StoreError> {
    fn in_op(self, op: &str) -> MorphResult<T> {
        self.map_err(|source| MorphError::Store {
            op: op.to_string(),
            source,
        })
    }
}
