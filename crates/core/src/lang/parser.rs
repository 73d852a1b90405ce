//! Recursive-descent parser for XMorph 2.0 guards.
//!
//! Grammar (whitespace-insensitive, keywords case-insensitive):
//!
//! ```text
//! guard    := cast* composed
//! cast     := CAST | CAST-NARROWING | CAST-WIDENING | TYPE-FILL
//! composed := core ('|' guard)?
//!           | COMPOSE guard ',' guard
//! core     := MORPH pattern | MUTATE pattern
//!           | TRANSLATE label -> label (',' label -> label)*
//!           | '(' guard ')'
//! pattern  := item (','? item)*
//! item     := '!'? head ('[' inner ']')?
//! head     := label
//!           | '(' item ')'
//!           | DROP item | RESTRICT item | NEW label | CLONE item
//!           | CHILDREN item | DESCENDANTS item
//! inner    := ('*' | '**' | item)*
//! ```

use crate::error::{MorphError, MorphResult};
use crate::lang::ast::{Ast, CastMode, Head, Item, Pattern};
use crate::lang::lexer::{lex, Tok, Token};

/// How deep a guard may nest: brackets, parentheses, prefix keywords,
/// casts and pipes all count. The parser, and every pass over the AST,
/// recurses once per level, so a bound here keeps a hostile guard from
/// overflowing a thread's stack (2 MiB on a server connection).
pub const MAX_NESTING: usize = 256;

/// Parse a guard program.
pub fn parse(src: &str) -> MorphResult<Ast> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
        depth: 0,
    };
    let ast = p.guard()?;
    if p.pos < p.tokens.len() {
        return Err(p.err("trailing tokens after guard"));
    }
    Ok(ast)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    src_len: usize,
    /// Nesting levels open (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or(self.src_len)
    }

    fn err(&self, message: &str) -> MorphError {
        MorphError::Parse {
            message: message.to_string(),
            offset: self.offset(),
        }
    }

    /// Run `f` one nesting level deeper, or fail once past
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> MorphResult<T>) -> MorphResult<T> {
        if self.depth == MAX_NESTING {
            return Err(MorphError::TooDeep {
                limit: MAX_NESTING,
                offset: self.offset(),
            });
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn expect(&mut self, tok: Tok, what: &str) -> MorphResult<()> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn label(&mut self, what: &str) -> MorphResult<String> {
        match self.peek() {
            Some(Tok::Label(_)) => match self.bump() {
                Some(Tok::Label(l)) => Ok(l),
                _ => unreachable!(),
            },
            _ => Err(self.err(&format!("expected {what}"))),
        }
    }

    // guard := cast* composed
    fn guard(&mut self) -> MorphResult<Ast> {
        self.nested(Self::guard_level)
    }

    fn guard_level(&mut self) -> MorphResult<Ast> {
        match self.peek() {
            Some(Tok::Cast) => {
                self.bump();
                Ok(Ast::Cast(CastMode::Weak, Box::new(self.guard()?)))
            }
            Some(Tok::CastNarrowing) => {
                self.bump();
                Ok(Ast::Cast(CastMode::Narrowing, Box::new(self.guard()?)))
            }
            Some(Tok::CastWidening) => {
                self.bump();
                Ok(Ast::Cast(CastMode::Widening, Box::new(self.guard()?)))
            }
            Some(Tok::TypeFill) => {
                self.bump();
                Ok(Ast::TypeFill(Box::new(self.guard()?)))
            }
            _ => self.composed(),
        }
    }

    // composed := core ('|' guard)? | COMPOSE guard ',' guard
    fn composed(&mut self) -> MorphResult<Ast> {
        if self.eat(&Tok::Compose) {
            let first = self.guard_until_comma()?;
            self.expect(Tok::Comma, "',' between COMPOSE operands")?;
            let second = self.guard()?;
            return Ok(Ast::Compose(Box::new(first), Box::new(second)));
        }
        let core = self.core()?;
        if self.eat(&Tok::Pipe) {
            let rest = self.guard()?;
            return Ok(Ast::Compose(Box::new(core), Box::new(rest)));
        }
        Ok(core)
    }

    // The first operand of `COMPOSE g1, g2` — like `guard` but cannot
    // itself consume the comma.
    fn guard_until_comma(&mut self) -> MorphResult<Ast> {
        self.nested(Self::guard_until_comma_level)
    }

    fn guard_until_comma_level(&mut self) -> MorphResult<Ast> {
        // Cast prefixes then a single core; pipes still compose tighter
        // than the COMPOSE comma.
        match self.peek() {
            Some(Tok::Cast) => {
                self.bump();
                Ok(Ast::Cast(
                    CastMode::Weak,
                    Box::new(self.guard_until_comma()?),
                ))
            }
            Some(Tok::CastNarrowing) => {
                self.bump();
                Ok(Ast::Cast(
                    CastMode::Narrowing,
                    Box::new(self.guard_until_comma()?),
                ))
            }
            Some(Tok::CastWidening) => {
                self.bump();
                Ok(Ast::Cast(
                    CastMode::Widening,
                    Box::new(self.guard_until_comma()?),
                ))
            }
            Some(Tok::TypeFill) => {
                self.bump();
                Ok(Ast::TypeFill(Box::new(self.guard_until_comma()?)))
            }
            _ => {
                let core = self.core()?;
                if self.eat(&Tok::Pipe) {
                    let rest = self.guard_until_comma()?;
                    return Ok(Ast::Compose(Box::new(core), Box::new(rest)));
                }
                Ok(core)
            }
        }
    }

    // core := MORPH pattern | MUTATE pattern | TRANSLATE renames | '(' guard ')'
    fn core(&mut self) -> MorphResult<Ast> {
        match self.peek() {
            Some(Tok::Morph) => {
                self.bump();
                Ok(Ast::Morph(self.pattern()?))
            }
            Some(Tok::Mutate) => {
                self.bump();
                Ok(Ast::Mutate(self.pattern()?))
            }
            Some(Tok::Translate) => {
                self.bump();
                let mut renames = Vec::new();
                loop {
                    let from = self.label("label before '->'")?;
                    self.expect(Tok::Arrow, "'->' in TRANSLATE")?;
                    let to = self.label("label after '->'")?;
                    renames.push((from, to));
                    // Another rename follows a comma only if a label comes
                    // after it (the comma might belong to COMPOSE).
                    if self.peek() == Some(&Tok::Comma)
                        && matches!(
                            self.tokens.get(self.pos + 1).map(|t| &t.tok),
                            Some(Tok::Label(_))
                        )
                        && matches!(
                            self.tokens.get(self.pos + 2).map(|t| &t.tok),
                            Some(Tok::Arrow)
                        )
                    {
                        self.bump();
                        continue;
                    }
                    break;
                }
                Ok(Ast::Translate(renames))
            }
            Some(Tok::LParen) => {
                self.bump();
                let g = self.guard()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(g)
            }
            _ => Err(self.err("expected MORPH, MUTATE, TRANSLATE, COMPOSE, or a CAST")),
        }
    }

    /// Can this token start a pattern item?
    fn is_item_start(tok: Option<&Tok>) -> bool {
        matches!(
            tok,
            Some(
                Tok::Label(_)
                    | Tok::LParen
                    | Tok::Bang
                    | Tok::Drop
                    | Tok::Restrict
                    | Tok::New
                    | Tok::Clone
                    | Tok::Children
                    | Tok::Descendants
            )
        )
    }

    // pattern := item (','? item)*
    fn pattern(&mut self) -> MorphResult<Pattern> {
        let mut items = Vec::new();
        while Self::is_item_start(self.peek()) {
            items.push(self.item()?);
            // An optional comma separates siblings — but only when an
            // item follows; otherwise it belongs to COMPOSE.
            if self.peek() == Some(&Tok::Comma)
                && Self::is_item_start(self.tokens.get(self.pos + 1).map(|t| &t.tok))
            {
                self.bump();
            }
        }
        if items.is_empty() {
            return Err(self.err("expected a shape pattern"));
        }
        Ok(Pattern { items })
    }

    // item := '!'? head ('[' inner ']')?
    fn item(&mut self) -> MorphResult<Item> {
        self.nested(Self::item_level)
    }

    fn item_level(&mut self) -> MorphResult<Item> {
        let pinned = self.eat(&Tok::Bang);
        let mut item = self.head()?;
        item.pinned = item.pinned || pinned;
        if self.eat(&Tok::LBracket) {
            let (children, inc_c, inc_d) = self.inner()?;
            self.expect(Tok::RBracket, "']'")?;
            // Merge with whatever the head itself carried (e.g. from a
            // parenthesized item).
            item.children.items.extend(children.items);
            item.include_children |= inc_c;
            item.include_descendants |= inc_d;
        }
        Ok(item)
    }

    fn head(&mut self) -> MorphResult<Item> {
        match self.peek().cloned() {
            Some(Tok::Label(l)) => {
                self.bump();
                Ok(Item::label(&l))
            }
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.item()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            Some(Tok::Drop) => {
                self.bump();
                let shape = Pattern::single(self.item()?);
                Ok(Item {
                    head: Head::Drop(shape),
                    children: Pattern::default(),
                    include_children: false,
                    include_descendants: false,
                    pinned: false,
                })
            }
            Some(Tok::Restrict) => {
                self.bump();
                let shape = Pattern::single(self.item()?);
                Ok(Item {
                    head: Head::Restrict(shape),
                    children: Pattern::default(),
                    include_children: false,
                    include_descendants: false,
                    pinned: false,
                })
            }
            Some(Tok::New) => {
                self.bump();
                let label = self.label("label after NEW")?;
                Ok(Item {
                    head: Head::New(label),
                    children: Pattern::default(),
                    include_children: false,
                    include_descendants: false,
                    pinned: false,
                })
            }
            Some(Tok::Clone) => {
                self.bump();
                let shape = Pattern::single(self.item()?);
                Ok(Item {
                    head: Head::Clone(shape),
                    children: Pattern::default(),
                    include_children: false,
                    include_descendants: false,
                    pinned: false,
                })
            }
            Some(Tok::Children) => {
                self.bump();
                let mut inner = self.item()?;
                inner.include_children = true;
                Ok(inner)
            }
            Some(Tok::Descendants) => {
                self.bump();
                let mut inner = self.item()?;
                inner.include_descendants = true;
                Ok(inner)
            }
            _ => Err(self.err("expected a label or shape construct")),
        }
    }

    // inner := ('*' | '**' | item)* — the contents of brackets.
    fn inner(&mut self) -> MorphResult<(Pattern, bool, bool)> {
        let mut items = Vec::new();
        let mut inc_c = false;
        let mut inc_d = false;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.bump();
                    inc_c = true;
                }
                Some(Tok::StarStar) => {
                    self.bump();
                    inc_d = true;
                }
                Some(
                    Tok::Label(_)
                    | Tok::LParen
                    | Tok::Bang
                    | Tok::Drop
                    | Tok::Restrict
                    | Tok::New
                    | Tok::Clone
                    | Tok::Children
                    | Tok::Descendants,
                ) => {
                    items.push(self.item()?);
                }
                Some(Tok::Comma) => {
                    self.bump();
                }
                _ => break,
            }
        }
        Ok((Pattern { items }, inc_c, inc_d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_intro_guard() {
        let ast = parse("MORPH author [ name book [ title ] ]").unwrap();
        match &ast {
            Ast::Morph(p) => {
                assert_eq!(p.items.len(), 1);
                let author = &p.items[0];
                assert_eq!(author.head, Head::Label("author".into()));
                assert_eq!(author.children.items.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ast.to_string(), "MORPH author [ name book [ title ] ]");
    }

    #[test]
    fn bang_guard_from_section_one() {
        let ast = parse("MORPH author [ !title name publisher [ name ] ]").unwrap();
        match &ast {
            Ast::Morph(p) => {
                let title = &p.items[0].children.items[0];
                assert!(title.pinned);
                assert_eq!(title.head, Head::Label("title".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_markers() {
        let ast = parse("MORPH data [author [* book [** publisher [*]]]]").unwrap();
        match &ast {
            Ast::Morph(p) => {
                let data = &p.items[0];
                let author = &data.children.items[0];
                assert!(author.include_children);
                let book = &author.children.items[0];
                assert!(book.include_descendants);
                let publisher = &book.children.items[0];
                assert!(publisher.include_children);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn children_descendants_keywords() {
        let a = parse("MORPH CHILDREN author").unwrap();
        match &a {
            Ast::Morph(p) => assert!(p.items[0].include_children),
            other => panic!("{other:?}"),
        }
        let b = parse("MORPH DESCENDANTS book").unwrap();
        match &b {
            Ast::Morph(p) => assert!(p.items[0].include_descendants),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mutate_with_drop() {
        let ast = parse("MORPH author [name] | MUTATE (DROP name)").unwrap();
        match &ast {
            Ast::Compose(a, b) => {
                assert!(matches!(**a, Ast::Morph(_)));
                match &**b {
                    Ast::Mutate(p) => {
                        assert!(matches!(p.items[0].head, Head::Drop(_)));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn translate_single_and_multi() {
        let ast = parse("TRANSLATE author -> writer").unwrap();
        assert_eq!(
            ast,
            Ast::Translate(vec![("author".into(), "writer".into())])
        );
        let ast = parse("TRANSLATE a -> b, c -> d").unwrap();
        assert_eq!(
            ast,
            Ast::Translate(vec![("a".into(), "b".into()), ("c".into(), "d".into())])
        );
    }

    #[test]
    fn compose_keyword_form() {
        let ast = parse("COMPOSE MORPH a, MUTATE b").unwrap();
        assert!(matches!(ast, Ast::Compose(_, _)));
    }

    #[test]
    fn cast_wrappers_nest() {
        let ast = parse("CAST-WIDENING (TYPE-FILL MUTATE author [ title ])").unwrap();
        match ast {
            Ast::Cast(CastMode::Widening, inner) => match *inner {
                Ast::TypeFill(inner2) => assert!(matches!(*inner2, Ast::Mutate(_))),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cast_without_parens() {
        let ast = parse("CAST MORPH author").unwrap();
        assert!(matches!(ast, Ast::Cast(CastMode::Weak, _)));
        let ast = parse("CAST-NARROWING MORPH author [name]").unwrap();
        assert!(matches!(ast, Ast::Cast(CastMode::Narrowing, _)));
    }

    #[test]
    fn restrict_as_head_with_children() {
        let ast = parse("MORPH (RESTRICT name [ author ]) [ title ]").unwrap();
        match &ast {
            Ast::Morph(p) => {
                let item = &p.items[0];
                match &item.head {
                    Head::Restrict(shape) => {
                        assert_eq!(shape.items[0].head, Head::Label("name".into()));
                        assert_eq!(
                            shape.items[0].children.items[0].head,
                            Head::Label("author".into())
                        );
                    }
                    other => panic!("{other:?}"),
                }
                assert_eq!(item.children.items[0].head, Head::Label("title".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_and_clone() {
        let ast = parse("MUTATE (NEW scribe) [ author ]").unwrap();
        match &ast {
            Ast::Mutate(p) => {
                assert_eq!(p.items[0].head, Head::New("scribe".into()));
                assert_eq!(
                    p.items[0].children.items[0].head,
                    Head::Label("author".into())
                );
            }
            other => panic!("{other:?}"),
        }
        let ast = parse("MUTATE author [ CLONE title ]").unwrap();
        match &ast {
            Ast::Mutate(p) => {
                assert!(matches!(p.items[0].children.items[0].head, Head::Clone(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case_insensitive_program() {
        assert_eq!(
            parse("morph Author [ Name ]").unwrap(),
            parse("MORPH Author [ Name ]").unwrap()
        );
    }

    #[test]
    fn display_round_trips_through_parse() {
        for src in [
            "MORPH author [ name book [ title ] ]",
            "MUTATE book [ publisher [ name ] ]",
            "MORPH author [ name ] | MUTATE (DROP name)",
            "TRANSLATE author -> writer",
            "CAST-WIDENING (TYPE-FILL MUTATE author [ title ])",
            "MORPH data [ author [ * book [ ** publisher [ * ] ] ] ]",
        ] {
            let once = parse(src).unwrap();
            let twice = parse(&once.to_string()).unwrap();
            assert_eq!(once, twice, "{src}");
        }
    }

    #[test]
    fn errors_carry_offsets() {
        let err = parse("MORPH").unwrap_err();
        assert!(matches!(err, MorphError::Parse { .. }));
        let err = parse("MORPH author ]").unwrap_err();
        match err {
            MorphError::Parse { offset, .. } => assert_eq!(offset, 13),
            other => panic!("{other:?}"),
        }
        assert!(parse("").is_err());
        assert!(parse("TRANSLATE a b").is_err());
        assert!(parse("MORPH a [ b").is_err());
    }

    #[test]
    fn pipe_chain_right_associates() {
        let ast = parse("MORPH a | MUTATE b | TRANSLATE x -> y").unwrap();
        match ast {
            Ast::Compose(first, rest) => {
                assert!(matches!(*first, Ast::Morph(_)));
                assert!(matches!(*rest, Ast::Compose(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    fn nested_guard(levels: usize) -> String {
        format!("MORPH {}b{}", "a [ ".repeat(levels), " ]".repeat(levels))
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // `n` brackets nest `n + 1` items in the guard: `n + 2` levels.
        assert!(parse(&nested_guard(MAX_NESTING - 2)).is_ok());
        let err = parse(&nested_guard(MAX_NESTING - 1)).unwrap_err();
        assert!(
            matches!(
                err,
                MorphError::TooDeep {
                    limit: MAX_NESTING,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_guard_nested_100k_deep_fails_fast() {
        let guard = nested_guard(100_000);
        let start = std::time::Instant::now();
        let err = parse(&guard).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, MorphError::TooDeep { .. }), "{err}");
        assert!(elapsed.as_millis() < 100, "took {elapsed:?}");
        // Prefix keywords and parentheses nest too.
        let keywords = format!("MORPH {}a", "CHILDREN ( ".repeat(100_000));
        assert!(matches!(parse(&keywords), Err(MorphError::TooDeep { .. })));
        let casts = format!("{}MORPH a", "CAST ".repeat(100_000));
        assert!(matches!(parse(&casts), Err(MorphError::TooDeep { .. })));
    }
}
