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

fn keyword(word: &str) -> Option<Tok> {
    match word.to_ascii_uppercase().as_str() {
        "MORPH" => Some(Tok::Morph),
        "MUTATE" => Some(Tok::Mutate),
        "DROP" => Some(Tok::Drop),
        "TRANSLATE" => Some(Tok::Translate),
        "RESTRICT" => Some(Tok::Restrict),
        "NEW" => Some(Tok::New),
        "CLONE" => Some(Tok::Clone),
        "CHILDREN" => Some(Tok::Children),
        "DESCENDANTS" => Some(Tok::Descendants),
        "COMPOSE" => Some(Tok::Compose),
        "CAST" => Some(Tok::Cast),
        "CAST-NARROWING" => Some(Tok::CastNarrowing),
        "CAST-WIDENING" => Some(Tok::CastWidening),
        "TYPE-FILL" => Some(Tok::TypeFill),
        _ => None,
    }
}

/// Tokenize a guard program. Brackets and parentheses open past
/// [`MAX_NESTING`] fail here, before the rest of the text is read: each
/// one opens a parser nesting level, so the parser would refuse them.
pub fn lex(src: &str) -> MorphResult<Vec<Token>> {
    let mut out = Vec::new();
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let mut i = 0usize;
    let mut open = 0usize;
    while i < chars.len() {
        let (offset, c) = chars[i];
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
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '[' => {
                out.push(Token {
                    tok: Tok::LBracket,
                    offset,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    tok: Tok::RBracket,
                    offset,
                });
                i += 1;
            }
            '(' => {
                out.push(Token {
                    tok: Tok::LParen,
                    offset,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    tok: Tok::RParen,
                    offset,
                });
                i += 1;
            }
            '|' => {
                out.push(Token {
                    tok: Tok::Pipe,
                    offset,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    tok: Tok::Comma,
                    offset,
                });
                i += 1;
            }
            '!' => {
                out.push(Token {
                    tok: Tok::Bang,
                    offset,
                });
                i += 1;
            }
            '*' => {
                if matches!(chars.get(i + 1), Some((_, '*'))) {
                    out.push(Token {
                        tok: Tok::StarStar,
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        tok: Tok::Star,
                        offset,
                    });
                    i += 1;
                }
            }
            '-' if matches!(chars.get(i + 1), Some((_, '>'))) => {
                out.push(Token {
                    tok: Tok::Arrow,
                    offset,
                });
                i += 2;
            }
            c if is_label_start(c) => {
                let start = i;
                while i < chars.len() && is_label_char(chars[i].1) {
                    // Stop before a `-` that begins an `->` arrow.
                    if chars[i].1 == '-' && matches!(chars.get(i + 1), Some((_, '>'))) {
                        break;
                    }
                    i += 1;
                }
                let end = if i < chars.len() {
                    chars[i].0
                } else {
                    src.len()
                };
                let word = &src[offset..end];
                let tok = keyword(word).unwrap_or_else(|| Tok::Label(word.to_string()));
                out.push(Token {
                    tok,
                    offset: chars[start].0,
                });
            }
            other => {
                return Err(MorphError::Parse {
                    message: format!("unexpected character {other:?}"),
                    offset,
                });
            }
        }
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
