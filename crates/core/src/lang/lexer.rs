//! Tokenizer for XMorph 2.0 programs.
//!
//! Guards are case- and whitespace-insensitive (§III); keywords are
//! recognized by case-insensitive comparison, everything else is a label.

use crate::error::{MorphError, MorphResult};
use crate::lang::parser::MAX_NESTING;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// A label (element name, possibly dotted for disambiguation).
    Label(String),
    /// `MORPH`
    Morph,
    /// `MUTATE`
    Mutate,
    /// `DROP`
    Drop,
    /// `TRANSLATE`
    Translate,
    /// `RESTRICT`
    Restrict,
    /// `NEW`
    New,
    /// `CLONE`
    Clone,
    /// `CHILDREN`
    Children,
    /// `DESCENDANTS`
    Descendants,
    /// `COMPOSE`
    Compose,
    /// `CAST`
    Cast,
    /// `CAST-NARROWING`
    CastNarrowing,
    /// `CAST-WIDENING`
    CastWidening,
    /// `TYPE-FILL`
    TypeFill,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `|`
    Pipe,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `*`
    Star,
    /// `**`
    StarStar,
    /// `!`
    Bang,
}

/// A token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Byte offset where it starts.
    pub offset: usize,
}

fn is_label_start(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '@' | ':')
}

fn is_label_char(c: char) -> bool {
    is_label_start(c) || matches!(c, '-' | '.')
}

const KEYWORDS: &[(&str, Tok)] = &[
    ("MORPH", Tok::Morph),
    ("MUTATE", Tok::Mutate),
    ("DROP", Tok::Drop),
    ("TRANSLATE", Tok::Translate),
    ("RESTRICT", Tok::Restrict),
    ("NEW", Tok::New),
    ("CLONE", Tok::Clone),
    ("CHILDREN", Tok::Children),
    ("DESCENDANTS", Tok::Descendants),
    ("COMPOSE", Tok::Compose),
    ("CAST", Tok::Cast),
    ("CAST-NARROWING", Tok::CastNarrowing),
    ("CAST-WIDENING", Tok::CastWidening),
    ("TYPE-FILL", Tok::TypeFill),
];

fn keyword(word: &str) -> Option<Tok> {
    KEYWORDS
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(word))
        .map(|(_, tok)| tok.clone())
}

/// Tokenize a guard program. Brackets and parentheses open past
/// [`MAX_NESTING`] fail here, before the rest of the text is read: each
/// one opens a parser nesting level, so the parser would refuse them.
/// The text is stepped by byte offset; only a label's token owns a copy
/// of its text.
pub fn lex(src: &str) -> MorphResult<Vec<Token>> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    let mut open = 0usize;
    while let Some(c) = src[offset..].chars().next() {
        match c {
            '[' | '(' if open == MAX_NESTING => {
                return Err(MorphError::TooDeep {
                    limit: MAX_NESTING,
                    offset,
                });
            }
            '[' | '(' => open += 1,
            ']' | ')' => open = open.saturating_sub(1),
            _ => {}
        }
        // `*` and `-` are ASCII, so the next character is the next byte.
        let next = src.as_bytes().get(offset + 1).copied();
        let (tok, len) = match c {
            c if c.is_whitespace() => {
                offset += c.len_utf8();
                continue;
            }
            '[' => (Tok::LBracket, 1),
            ']' => (Tok::RBracket, 1),
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            '|' => (Tok::Pipe, 1),
            ',' => (Tok::Comma, 1),
            '!' => (Tok::Bang, 1),
            '*' if next == Some(b'*') => (Tok::StarStar, 2),
            '*' => (Tok::Star, 1),
            '-' if next == Some(b'>') => (Tok::Arrow, 2),
            c if is_label_start(c) => {
                let rest = &src[offset..];
                // Stop before a `-` that begins an `->` arrow.
                let len = rest
                    .char_indices()
                    .find(|&(i, c)| !is_label_char(c) || rest[i..].starts_with("->"))
                    .map_or(rest.len(), |(i, _)| i);
                let word = &rest[..len];
                let tok = keyword(word).unwrap_or_else(|| Tok::Label(word.to_string()));
                (tok, len)
            }
            other => {
                return Err(MorphError::Parse {
                    message: format!("unexpected character {other:?}"),
                    offset,
                });
            }
        };
        out.push(Token { tok, offset });
        offset += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(
            toks("morph MORPH Morph"),
            vec![Tok::Morph, Tok::Morph, Tok::Morph]
        );
        assert_eq!(
            toks("cast-widening type-fill"),
            vec![Tok::CastWidening, Tok::TypeFill]
        );
    }

    #[test]
    fn labels_and_brackets() {
        assert_eq!(
            toks("author [ name book [ title ] ]"),
            vec![
                Tok::Label("author".into()),
                Tok::LBracket,
                Tok::Label("name".into()),
                Tok::Label("book".into()),
                Tok::LBracket,
                Tok::Label("title".into()),
                Tok::RBracket,
                Tok::RBracket,
            ]
        );
    }

    #[test]
    fn stars_and_bang() {
        assert_eq!(
            toks("author [* book [** x]] !title"),
            vec![
                Tok::Label("author".into()),
                Tok::LBracket,
                Tok::Star,
                Tok::Label("book".into()),
                Tok::LBracket,
                Tok::StarStar,
                Tok::Label("x".into()),
                Tok::RBracket,
                Tok::RBracket,
                Tok::Bang,
                Tok::Label("title".into()),
            ]
        );
    }

    #[test]
    fn arrow_splits_labels() {
        assert_eq!(
            toks("author->writer"),
            vec![
                Tok::Label("author".into()),
                Tok::Arrow,
                Tok::Label("writer".into())
            ]
        );
        assert_eq!(
            toks("author -> writer"),
            vec![
                Tok::Label("author".into()),
                Tok::Arrow,
                Tok::Label("writer".into())
            ]
        );
    }

    #[test]
    fn hyphenated_labels_still_work() {
        assert_eq!(toks("my-element"), vec![Tok::Label("my-element".into())]);
    }

    #[test]
    fn dotted_labels() {
        assert_eq!(toks("book.author"), vec![Tok::Label("book.author".into())]);
    }

    #[test]
    fn attribute_labels() {
        assert_eq!(toks("@id"), vec![Tok::Label("@id".into())]);
    }

    #[test]
    fn pipe_and_comma() {
        assert_eq!(
            toks("a | b, c"),
            vec![
                Tok::Label("a".into()),
                Tok::Pipe,
                Tok::Label("b".into()),
                Tok::Comma,
                Tok::Label("c".into()),
            ]
        );
    }

    #[test]
    fn whitespace_insensitive() {
        assert_eq!(toks("a[b]"), toks("a [ b ]"));
        assert_eq!(toks("MORPH\n\ta"), toks("morph a"));
    }

    #[test]
    fn bad_character_errors_with_offset() {
        let err = lex("author { name }").unwrap_err();
        match err {
            MorphError::Parse { offset, .. } => assert_eq!(offset, 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keyword_prefix_is_still_a_label() {
        // "morphing" is a label, not the MORPH keyword.
        assert_eq!(toks("morphing"), vec![Tok::Label("morphing".into())]);
    }
}
