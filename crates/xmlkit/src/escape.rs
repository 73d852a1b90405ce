//! Entity escaping and unescaping for XML text and attribute values.

use std::borrow::Cow;

/// Escape `&`, `<`, and `>` for use in element text content.
///
/// Returns the input unchanged (borrowed) when nothing needs escaping.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, false)
}

/// Escape `&`, `<`, `>`, `"`, and `'` for use in a (double-quoted)
/// attribute value.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, true)
}

fn escape_with(s: &str, attr: bool) -> Cow<'_, str> {
    let needs = s
        .bytes()
        .any(|b| matches!(b, b'&' | b'<' | b'>') || (attr && matches!(b, b'"' | b'\'')));
    if !needs {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(&mut out, s, attr);
    Cow::Owned(out)
}

/// Append `s` to `out` escaped as [`escape_text`] would, in one pass:
/// the runs between entities are copied straight across, so nothing is
/// allocated beyond `out`'s own growth.
pub fn escape_text_into(out: &mut String, s: &str) {
    escape_into(out, s, false)
}

/// Append `s` to `out` escaped as [`escape_attr`] would, in one pass.
pub fn escape_attr_into(out: &mut String, s: &str) {
    escape_into(out, s, true)
}

fn escape_into(out: &mut String, s: &str, attr: bool) {
    // Every escaped character is ASCII, so a cut next to one is always
    // a UTF-8 boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\'' if attr => "&apos;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Resolve a single entity name (the text between `&` and `;`) to its
/// character, handling the five predefined entities and decimal /
/// hexadecimal character references. Returns `None` for anything else.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = name.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

/// Unescape all entity references in `s`. Unknown entities are left
/// verbatim (lenient mode, used by the serializer round-trip tests; the
/// parser itself reports unknown entities as errors).
pub fn unescape_lenient(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        if let Some(end) = rest.find(';') {
            let name = &rest[1..end];
            if let Some(c) = resolve_entity(name) {
                out.push(c);
                rest = &rest[end + 1..];
                continue;
            }
        }
        // Not a recognizable entity: keep the '&' and move on.
        out.push('&');
        rest = &rest[1..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_escaping_borrows_when_clean() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
    }

    #[test]
    fn text_escaping_escapes_specials() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn attr_escaping_escapes_quotes() {
        assert_eq!(
            escape_attr(r#"say "hi" & 'bye'"#),
            "say &quot;hi&quot; &amp; &apos;bye&apos;"
        );
    }

    #[test]
    fn text_escaping_leaves_quotes() {
        assert_eq!(escape_text(r#""q""#), r#""q""#);
    }

    #[test]
    fn predefined_entities_resolve() {
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("apos"), Some('\''));
    }

    #[test]
    fn numeric_references_resolve() {
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#X2603"), Some('☃'));
    }

    #[test]
    fn bad_references_fail() {
        assert_eq!(resolve_entity("nbsp"), None);
        assert_eq!(resolve_entity("#xD800"), None); // surrogate
        assert_eq!(resolve_entity("#notanumber"), None);
        assert_eq!(resolve_entity(""), None);
    }

    #[test]
    fn unescape_round_trips_escape() {
        let original = "a<b&c>\"d'";
        let escaped = escape_attr(original);
        assert_eq!(unescape_lenient(&escaped), original);
    }

    #[test]
    fn unescape_leaves_unknown_entities() {
        assert_eq!(unescape_lenient("a &bogus; b"), "a &bogus; b");
        assert_eq!(unescape_lenient("tail &"), "tail &");
    }
}
