//! A streaming pull parser for XML.
//!
//! [`XmlReader`] is the analogue of the SAX event stream the paper's
//! shredder consumes: the caller repeatedly asks for the next
//! [`XmlEvent`] and the reader advances through the input without
//! building a tree. Well-formedness (tag balance, attribute uniqueness,
//! single root) is enforced.
//!
//! Two front ends share one parser core:
//!
//! * [`XmlReader`] parses a `&str` already in memory (the historical
//!   API, unchanged).
//! * [`XmlStreamReader`] pulls bytes from any [`std::io::Read`] in
//!   chunks, holding only a bounded window of the document — the
//!   foundation of the out-of-core shred path. Consumed bytes are
//!   dropped from the window as parsing advances, so memory stays
//!   proportional to the largest single token (tag, text run, comment),
//!   not to document size.

use crate::error::{ErrorKind, XmlError, XmlResult};
use crate::escape::resolve_entity;

/// Default refill granularity for [`XmlStreamReader`].
const CHUNK: usize = 64 * 1024;

/// One parsing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// `<name attr="v" ...>` or the opening half of `<name/>`.
    StartElement {
        /// Element name (namespace prefixes are kept verbatim).
        name: String,
        /// Attributes in document order.
        attrs: Vec<(String, String)>,
    },
    /// `</name>` or the closing half of `<name/>`.
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data; CDATA sections are delivered as text. Entity
    /// references are already resolved. May be whitespace-only.
    Text(String),
    /// `<!-- ... -->`.
    Comment(String),
    /// `<?target data?>` (the XML declaration is skipped, not reported).
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// Everything between the target and `?>`.
        data: String,
    },
    /// End of the document. Returned exactly once; asking again repeats it.
    Eof,
}

/// Anything that can pull [`XmlEvent`]s — both reader front ends
/// implement this, so consumers (the shredder, the DOM builder) can be
/// written once against either.
pub trait EventSource {
    /// Pull the next event.
    fn next_event(&mut self) -> XmlResult<XmlEvent>;
    /// Byte offset of the parse cursor within the document.
    fn offset(&self) -> usize;
    /// Current depth of open elements.
    fn depth(&self) -> usize;
}

/// A source of document bytes for the parser core. `read_more` appends
/// at least one byte to `buf` or returns `Ok(0)` for end of input.
trait ByteSource {
    fn read_more(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize>;
}

/// The whole document as one in-memory slice, delivered in a single
/// `read_more` call (one memcpy; no window compaction afterwards).
struct SliceSource<'a> {
    rest: &'a [u8],
}

impl ByteSource for SliceSource<'_> {
    fn read_more(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        let n = self.rest.len();
        buf.extend_from_slice(self.rest);
        self.rest = &[];
        Ok(n)
    }
}

/// Chunked reads from an [`std::io::Read`].
struct IoSource<R> {
    inner: R,
    chunk: usize,
}

impl<R: std::io::Read> ByteSource for IoSource<R> {
    fn read_more(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
        let old = buf.len();
        buf.resize(old + self.chunk, 0);
        loop {
            match self.inner.read(&mut buf[old..]) {
                Ok(n) => {
                    buf.truncate(old + n);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    buf.truncate(old);
                    return Err(e);
                }
            }
        }
    }
}

/// The parser core, generic over where bytes come from. Offsets
/// (`pos`, token starts) are absolute document offsets; `buf` holds the
/// byte window `[base, base + buf.len())`.
struct Core<S> {
    src: S,
    buf: Vec<u8>,
    /// Absolute document offset of `buf[0]`.
    base: usize,
    /// Absolute document offset of the parse cursor.
    pos: usize,
    /// The source reported end-of-input (or failed; see `io_error`).
    src_eof: bool,
    /// A read failure, surfaced as [`ErrorKind::Io`] instead of a
    /// misleading well-formedness error at the truncation point.
    io_error: Option<String>,
    line: u32,
    col: u32,
    stack: Vec<String>,
    seen_root: bool,
    eof: bool,
    /// Pending end-element for a self-closing tag.
    pending_end: Option<String>,
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    let first = needle[0];
    let mut i = 0;
    while i + needle.len() <= hay.len() {
        if hay[i] == first && &hay[i..i + needle.len()] == needle {
            return Some(i);
        }
        i += 1;
    }
    None
}

impl<S: ByteSource> Core<S> {
    fn new(src: S) -> Self {
        Core {
            src,
            buf: Vec::new(),
            base: 0,
            pos: 0,
            src_eof: false,
            io_error: None,
            line: 1,
            col: 1,
            stack: Vec::new(),
            seen_root: false,
            eof: false,
            pending_end: None,
        }
    }

    fn depth(&self) -> usize {
        self.stack.len()
    }

    fn offset(&self) -> usize {
        self.pos
    }

    fn err(&self, kind: ErrorKind) -> XmlError {
        // A truncated read must not masquerade as a malformed document.
        let kind = match &self.io_error {
            Some(msg) => ErrorKind::Io(msg.clone()),
            None => kind,
        };
        XmlError::new(kind, self.pos, self.line, self.col)
    }

    /// Pull one more chunk from the source; failures latch `io_error`
    /// and end the stream.
    fn fill(&mut self) {
        match self.src.read_more(&mut self.buf) {
            Ok(0) => self.src_eof = true,
            Ok(_) => {}
            Err(e) => {
                self.io_error = Some(e.to_string());
                self.src_eof = true;
            }
        }
    }

    /// Ensure `n` bytes are buffered at the cursor; false at end of input.
    fn have(&mut self, n: usize) -> bool {
        while self.pos - self.base + n > self.buf.len() && !self.src_eof {
            self.fill();
        }
        self.pos - self.base + n <= self.buf.len()
    }

    /// Drop consumed bytes from the window. Only useful while the source
    /// still streams (a fully-buffered slice never needs it), and only
    /// called between events, when no token offsets are outstanding.
    fn compact(&mut self) {
        let consumed = self.pos - self.base;
        if self.src_eof || consumed < CHUNK {
            return;
        }
        self.buf.drain(..consumed);
        self.base = self.pos;
    }

    fn peek(&mut self) -> Option<u8> {
        if self.have(1) {
            Some(self.buf[self.pos - self.base])
        } else {
            None
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Advance past every byte `keep` accepts, a buffered window at a
    /// time rather than a byte per call, keeping line and column as
    /// [`Core::bump`] would; stops at the first byte `keep` rejects or
    /// at end of input.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.have(1) {
            let window = &self.buf[self.pos - self.base..];
            let n = window
                .iter()
                .position(|&b| !keep(b))
                .unwrap_or(window.len());
            let skipped = &window[..n];
            match skipped.iter().rposition(|&b| b == b'\n') {
                Some(last) => {
                    self.line += skipped.iter().filter(|&&b| b == b'\n').count() as u32;
                    self.col = (n - last) as u32;
                }
                None => self.col += n as u32,
            }
            self.pos += n;
            if n < window.len() {
                return;
            }
        }
    }

    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn starts_with(&mut self, s: &str) -> bool {
        let sb = s.as_bytes();
        if !self.have(sb.len()) {
            return false;
        }
        let at = self.pos - self.base;
        &self.buf[at..at + sb.len()] == sb
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
    }

    /// Find `needle` at or after the cursor, refilling the window as
    /// needed; returns its absolute start offset.
    fn find(&mut self, needle: &str) -> Option<usize> {
        let nb = needle.as_bytes();
        let mut from = self.pos;
        loop {
            let at = from - self.base;
            if at <= self.buf.len() {
                if let Some(i) = find_sub(&self.buf[at..], nb) {
                    return Some(from + i);
                }
            }
            if self.src_eof {
                return None;
            }
            // Restart just far enough back to catch a needle split
            // across the refill boundary.
            from = self
                .pos
                .max((self.base + self.buf.len() + 1).saturating_sub(nb.len()));
            self.fill();
        }
    }

    /// A parsed slice as UTF-8 text. Token boundaries are ASCII
    /// delimiters, so multi-byte characters are never split; validation
    /// matters for the byte-stream front end, where input is not
    /// guaranteed to be UTF-8.
    fn str_range(&self, start: usize, end: usize) -> XmlResult<&str> {
        let s = &self.buf[start - self.base..end - self.base];
        std::str::from_utf8(s)
            .map_err(|_| XmlError::new(ErrorKind::InvalidUtf8, start, self.line, self.col))
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn read_name(&mut self) -> XmlResult<String> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {}
            Some(b) => {
                return Err(self.err(ErrorKind::UnexpectedChar {
                    expected: "name start character",
                    found: b as char,
                }))
            }
            None => return Err(self.err(ErrorKind::UnexpectedEof("name"))),
        }
        self.skip_while(Self::is_name_char);
        Ok(self.str_range(start, self.pos)?.to_string())
    }

    /// Resolve entities in a raw slice of text or attribute content.
    fn decode_entities(&self, raw: &str) -> XmlResult<String> {
        if !raw.contains('&') {
            return Ok(raw.to_string());
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(p) = rest.find('&') {
            out.push_str(&rest[..p]);
            rest = &rest[p..];
            let end = rest.find(';').ok_or_else(|| {
                self.err(ErrorKind::UnknownEntity(
                    rest.chars().take(12).collect::<String>(),
                ))
            })?;
            let name = &rest[1..end];
            match resolve_entity(name) {
                Some(c) => out.push(c),
                None if name.starts_with('#') => {
                    return Err(self.err(ErrorKind::InvalidCharRef(name[1..].to_string())))
                }
                None => return Err(self.err(ErrorKind::UnknownEntity(name.to_string()))),
            }
            rest = &rest[end + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }

    /// Pull the next event.
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            return Ok(XmlEvent::EndElement { name });
        }
        if self.eof {
            return Ok(XmlEvent::Eof);
        }
        self.compact();
        loop {
            if !self.have(1) {
                if self.io_error.is_some() {
                    return Err(self.err(ErrorKind::UnexpectedEof("input")));
                }
                if !self.stack.is_empty() {
                    return Err(self.err(ErrorKind::UnclosedElements(self.stack.len())));
                }
                if !self.seen_root {
                    return Err(self.err(ErrorKind::NoRootElement));
                }
                self.eof = true;
                return Ok(XmlEvent::Eof);
            }
            if self.peek() == Some(b'<') {
                if self.starts_with("<?") {
                    match self.read_pi()? {
                        Some(ev) => return Ok(ev),
                        None => continue, // XML declaration, skipped
                    }
                } else if self.starts_with("<!--") {
                    return self.read_comment();
                } else if self.starts_with("<![CDATA[") {
                    return self.read_cdata();
                } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                    self.skip_doctype()?;
                    continue;
                } else if self.starts_with("</") {
                    return self.read_close_tag();
                } else {
                    return self.read_open_tag();
                }
            } else {
                return self.read_text();
            }
        }
    }

    fn read_text(&mut self) -> XmlResult<XmlEvent> {
        let start = self.pos;
        self.skip_while(|b| b != b'<');
        let raw = self.str_range(start, self.pos)?;
        if self.stack.is_empty() {
            // Only whitespace is allowed outside the document element.
            if raw
                .bytes()
                .all(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            {
                // Skip and continue pulling.
                return self.next_event();
            }
            return Err(self.err(ErrorKind::TrailingContent));
        }
        let text = self.decode_entities(raw)?;
        Ok(XmlEvent::Text(text))
    }

    fn read_open_tag(&mut self) -> XmlResult<XmlEvent> {
        self.bump(); // '<'
        if self.seen_root && self.stack.is_empty() {
            return Err(self.err(ErrorKind::TrailingContent));
        }
        let name = self.read_name()?;
        let mut attrs: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    self.seen_root = true;
                    self.stack.push(name.clone());
                    return Ok(XmlEvent::StartElement { name, attrs });
                }
                Some(b'/') => {
                    self.bump();
                    let found = self.peek();
                    if found != Some(b'>') {
                        return Err(self.err(ErrorKind::UnexpectedChar {
                            expected: "'>' after '/'",
                            found: found.map(|b| b as char).unwrap_or('\0'),
                        }));
                    }
                    self.bump();
                    self.seen_root = true;
                    self.stack.push(name.clone());
                    self.pending_end = Some(name.clone());
                    return Ok(XmlEvent::StartElement { name, attrs });
                }
                Some(b) if Self::is_name_start(b) => {
                    let aname = self.read_name()?;
                    self.skip_ws();
                    let found = self.peek();
                    if found != Some(b'=') {
                        return Err(self.err(ErrorKind::UnexpectedChar {
                            expected: "'=' in attribute",
                            found: found.map(|b| b as char).unwrap_or('\0'),
                        }));
                    }
                    self.bump();
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => {
                            self.bump();
                            q
                        }
                        Some(b) => {
                            return Err(self.err(ErrorKind::UnexpectedChar {
                                expected: "quote to open attribute value",
                                found: b as char,
                            }))
                        }
                        None => return Err(self.err(ErrorKind::UnexpectedEof("attribute"))),
                    };
                    let vstart = self.pos;
                    self.skip_while(|b| b != quote && b != b'<');
                    if self.peek() == Some(b'<') {
                        return Err(self.err(ErrorKind::UnexpectedChar {
                            expected: "attribute value character",
                            found: '<',
                        }));
                    }
                    if self.peek().is_none() {
                        return Err(self.err(ErrorKind::UnexpectedEof("attribute value")));
                    }
                    let raw = self.str_range(vstart, self.pos)?.to_string();
                    self.bump(); // closing quote
                    let value = self.decode_entities(&raw)?;
                    if attrs.iter().any(|(n, _)| *n == aname) {
                        return Err(self.err(ErrorKind::DuplicateAttribute(aname)));
                    }
                    attrs.push((aname, value));
                }
                Some(b) => {
                    return Err(self.err(ErrorKind::UnexpectedChar {
                        expected: "attribute, '>' or '/>'",
                        found: b as char,
                    }))
                }
                None => return Err(self.err(ErrorKind::UnexpectedEof("tag"))),
            }
        }
    }

    fn read_close_tag(&mut self) -> XmlResult<XmlEvent> {
        self.advance(2); // "</"
        let name = self.read_name()?;
        self.skip_ws();
        let found = self.peek();
        if found != Some(b'>') {
            return Err(self.err(ErrorKind::UnexpectedChar {
                expected: "'>' in close tag",
                found: found.map(|b| b as char).unwrap_or('\0'),
            }));
        }
        self.bump();
        match self.stack.pop() {
            Some(open) if open == name => Ok(XmlEvent::EndElement { name }),
            Some(open) => Err(self.err(ErrorKind::MismatchedTag { open, close: name })),
            None => Err(self.err(ErrorKind::UnbalancedClose(name))),
        }
    }

    fn read_comment(&mut self) -> XmlResult<XmlEvent> {
        self.advance(4); // "<!--"
        let end = self
            .find("-->")
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("comment")))?;
        let text = self.str_range(self.pos, end)?.to_string();
        while self.pos < end + 3 {
            self.bump();
        }
        Ok(XmlEvent::Comment(text))
    }

    fn read_cdata(&mut self) -> XmlResult<XmlEvent> {
        if self.stack.is_empty() {
            return Err(self.err(ErrorKind::TrailingContent));
        }
        self.advance(9); // "<![CDATA["
        let end = self
            .find("]]>")
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("CDATA section")))?;
        let text = self.str_range(self.pos, end)?.to_string();
        while self.pos < end + 3 {
            self.bump();
        }
        Ok(XmlEvent::Text(text))
    }

    fn read_pi(&mut self) -> XmlResult<Option<XmlEvent>> {
        self.advance(2); // "<?"
        let target = self.read_name()?;
        let end = self
            .find("?>")
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("processing instruction")))?;
        let data = self.str_range(self.pos, end)?.trim().to_string();
        while self.pos < end + 2 {
            self.bump();
        }
        if target.eq_ignore_ascii_case("xml") {
            Ok(None)
        } else {
            Ok(Some(XmlEvent::ProcessingInstruction { target, data }))
        }
    }

    /// Skip a DOCTYPE declaration, including an internal subset.
    fn skip_doctype(&mut self) -> XmlResult<()> {
        self.advance(9); // "<!DOCTYPE"
        let mut depth = 1usize; // counts '<' ... '>' nesting, '[' opens subset
        let mut in_subset = false;
        while depth > 0 {
            match self.bump() {
                Some(b'<') => depth += 1,
                Some(b'>') => depth -= 1,
                Some(b'[') => in_subset = true,
                Some(b']') => in_subset = false,
                Some(_) => {}
                None => return Err(self.err(ErrorKind::UnexpectedEof("DOCTYPE"))),
            }
            // Inside the internal subset, '>' of markup decls shouldn't
            // terminate; the bracket counting above handles the common cases.
            let _ = in_subset;
        }
        Ok(())
    }
}

/// Streaming pull parser over a UTF-8 string slice.
pub struct XmlReader<'a> {
    core: Core<SliceSource<'a>>,
}

impl<'a> XmlReader<'a> {
    /// Create a reader over the given document text.
    pub fn new(input: &'a str) -> Self {
        XmlReader {
            core: Core::new(SliceSource {
                rest: input.as_bytes(),
            }),
        }
    }

    /// Current depth of open elements.
    pub fn depth(&self) -> usize {
        self.core.depth()
    }

    /// Byte offset of the parse cursor.
    pub fn offset(&self) -> usize {
        self.core.offset()
    }

    /// Pull the next event.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent> {
        self.core.next_event()
    }
}

impl EventSource for XmlReader<'_> {
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        self.core.next_event()
    }
    fn offset(&self) -> usize {
        self.core.offset()
    }
    fn depth(&self) -> usize {
        self.core.depth()
    }
}

/// Streaming pull parser over any [`std::io::Read`], buffering only a
/// bounded window of the document. Read failures surface as
/// [`ErrorKind::Io`]; invalid UTF-8 as [`ErrorKind::InvalidUtf8`].
pub struct XmlStreamReader<R> {
    core: Core<IoSource<R>>,
}

impl<R: std::io::Read> XmlStreamReader<R> {
    /// Create a reader pulling 64 KB chunks from `reader`.
    pub fn new(reader: R) -> Self {
        Self::with_chunk_size(reader, CHUNK)
    }

    /// Create a reader with an explicit refill granularity (tests use
    /// tiny chunks to exercise every token-across-boundary case).
    pub fn with_chunk_size(reader: R, chunk: usize) -> Self {
        XmlStreamReader {
            core: Core::new(IoSource {
                inner: reader,
                chunk: chunk.max(1),
            }),
        }
    }

    /// Current depth of open elements.
    pub fn depth(&self) -> usize {
        self.core.depth()
    }

    /// Byte offset of the parse cursor.
    pub fn offset(&self) -> usize {
        self.core.offset()
    }

    /// Bytes currently buffered in the parse window (bounded by the
    /// largest single token plus one refill chunk).
    pub fn window_bytes(&self) -> usize {
        self.core.buf.len()
    }

    /// Pull the next event.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent> {
        self.core.next_event()
    }
}

impl<R: std::io::Read> EventSource for XmlStreamReader<R> {
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        self.core.next_event()
    }
    fn offset(&self) -> usize {
        self.core.offset()
    }
    fn depth(&self) -> usize {
        self.core.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<XmlEvent> {
        let mut r = XmlReader::new(input);
        let mut out = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            if ev == XmlEvent::Eof {
                break;
            }
            out.push(ev);
        }
        out
    }

    fn start(name: &str) -> XmlEvent {
        XmlEvent::StartElement {
            name: name.into(),
            attrs: vec![],
        }
    }

    fn end(name: &str) -> XmlEvent {
        XmlEvent::EndElement { name: name.into() }
    }

    #[test]
    fn empty_element() {
        assert_eq!(events("<a/>"), vec![start("a"), end("a")]);
        assert_eq!(events("<a></a>"), vec![start("a"), end("a")]);
        assert_eq!(events("<a  />"), vec![start("a"), end("a")]);
    }

    #[test]
    fn nested_elements_and_text() {
        assert_eq!(
            events("<a><b>hi</b></a>"),
            vec![
                start("a"),
                start("b"),
                XmlEvent::Text("hi".into()),
                end("b"),
                end("a")
            ]
        );
    }

    #[test]
    fn attributes_in_order() {
        let evs = events(r#"<a x="1" y='2'/>"#);
        assert_eq!(
            evs[0],
            XmlEvent::StartElement {
                name: "a".into(),
                attrs: vec![("x".into(), "1".into()), ("y".into(), "2".into())],
            }
        );
    }

    #[test]
    fn attribute_entities_decoded() {
        let evs = events(r#"<a t="&lt;&amp;&gt;&quot;&apos;"/>"#);
        match &evs[0] {
            XmlEvent::StartElement { attrs, .. } => assert_eq!(attrs[0].1, "<&>\"'"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn text_entities_decoded() {
        assert_eq!(
            events("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2 &#65;&#x42;</a>")[1],
            XmlEvent::Text("1 < 2 && 3 > 2 AB".into())
        );
    }

    #[test]
    fn cdata_is_text() {
        assert_eq!(
            events("<a><![CDATA[x < y & z]]></a>")[1],
            XmlEvent::Text("x < y & z".into())
        );
    }

    #[test]
    fn comments_and_pis_reported() {
        let evs = events("<a><!-- note --><?app do it?></a>");
        assert_eq!(evs[1], XmlEvent::Comment(" note ".into()));
        assert_eq!(
            evs[2],
            XmlEvent::ProcessingInstruction {
                target: "app".into(),
                data: "do it".into()
            }
        );
    }

    #[test]
    fn xml_declaration_skipped() {
        let evs = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>");
        assert_eq!(evs, vec![start("a"), end("a")]);
    }

    #[test]
    fn doctype_skipped() {
        let evs = events("<!DOCTYPE html><a/>");
        assert_eq!(evs, vec![start("a"), end("a")]);
        let evs = events("<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [<!ENTITY x \"y\">]><a/>");
        assert_eq!(evs, vec![start("a"), end("a")]);
    }

    #[test]
    fn mismatched_tags_error() {
        let mut r = XmlReader::new("<a><b></a></b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unclosed_element_error() {
        let mut r = XmlReader::new("<a><b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::UnclosedElements(2)));
    }

    #[test]
    fn second_root_error() {
        let mut r = XmlReader::new("<a/><b/>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::TrailingContent));
    }

    #[test]
    fn text_outside_root_error() {
        let mut r = XmlReader::new("<a/>junk");
        r.next_event().unwrap();
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::TrailingContent));
    }

    #[test]
    fn whitespace_outside_root_ok() {
        let evs = events("  <a/>\n  ");
        assert_eq!(evs, vec![start("a"), end("a")]);
    }

    #[test]
    fn duplicate_attribute_error() {
        let mut r = XmlReader::new(r#"<a x="1" x="2"/>"#);
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn unknown_entity_error() {
        let mut r = XmlReader::new("<a>&nope;</a>");
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn eof_repeats() {
        let mut r = XmlReader::new("<a/>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn error_position_is_tracked() {
        let mut r = XmlReader::new("<a>\n  <b></c>\n</a>");
        r.next_event().unwrap();
        r.next_event().unwrap(); // text
        r.next_event().unwrap(); // <b>
        let e = r.next_event().unwrap_err();
        assert_eq!((e.line, e.column), (2, 10));
        // Newlines inside attribute values, between attributes and in
        // text all move the position.
        let mut r = XmlReader::new("<a x='1\n2'  \n y=\"3\">\n\n t<b/>\n <c  z='\n'>\n</d></a>");
        let e = loop {
            match r.next_event() {
                Ok(ev) => assert_ne!(ev, XmlEvent::Eof),
                Err(e) => break e,
            }
        };
        assert_eq!((e.line, e.column), (8, 5));
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<d>");
        }
        for _ in 0..200 {
            s.push_str("</d>");
        }
        assert_eq!(events(&s).len(), 400);
    }

    #[test]
    fn unicode_names_and_text() {
        let evs = events("<ü>héllo ☃</ü>");
        assert_eq!(evs[0], start("ü"));
        assert_eq!(evs[1], XmlEvent::Text("héllo ☃".into()));
    }

    // ---- XmlStreamReader (chunked io::Read front end) ----

    fn stream_events(input: &str, chunk: usize) -> Vec<XmlEvent> {
        let mut r = XmlStreamReader::with_chunk_size(input.as_bytes(), chunk);
        let mut out = Vec::new();
        loop {
            let ev = r.next_event().unwrap();
            if ev == XmlEvent::Eof {
                break;
            }
            out.push(ev);
        }
        out
    }

    #[test]
    fn stream_matches_slice_reader_at_every_chunk_size() {
        let doc = "<?xml version=\"1.0\"?><r a=\"x &amp; y\">t1<b><![CDATA[c < d]]></b>\
                   <!-- note --><?pi data?><e/>héllo ☃</r>";
        let want = events(doc);
        for chunk in [1, 2, 3, 5, 7, 16, 64, 4096] {
            assert_eq!(stream_events(doc, chunk), want, "chunk size {chunk}");
        }
    }

    #[test]
    fn stream_window_stays_bounded() {
        // A document much larger than the chunk size: the parse window
        // must stay near the chunk size, not grow with the document.
        let mut doc = String::from("<r>");
        for i in 0..5000 {
            doc.push_str(&format!("<item id=\"{i}\">some text content {i}</item>"));
        }
        doc.push_str("</r>");
        let mut r = XmlStreamReader::with_chunk_size(doc.as_bytes(), 1024);
        let mut max_window = 0;
        loop {
            if r.next_event().unwrap() == XmlEvent::Eof {
                break;
            }
            max_window = max_window.max(r.window_bytes());
        }
        assert!(
            max_window < 512 * 1024 && max_window < doc.len() / 2,
            "window grew to {max_window} bytes for a {} byte doc",
            doc.len()
        );
    }

    #[test]
    fn stream_io_error_surfaces_as_io_kind() {
        struct Failing {
            served: usize,
        }
        impl std::io::Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.served == 0 {
                    self.served = 1;
                    let src = b"<r><a>text";
                    buf[..src.len()].copy_from_slice(src);
                    Ok(src.len())
                } else {
                    Err(std::io::Error::other("disk on fire"))
                }
            }
        }
        let mut r = XmlStreamReader::new(Failing { served: 0 });
        let err = loop {
            match r.next_event() {
                Ok(XmlEvent::Eof) => panic!("truncated read must not parse cleanly"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&err.kind, ErrorKind::Io(msg) if msg.contains("disk on fire")),
            "{err:?}"
        );
    }

    #[test]
    fn stream_invalid_utf8_rejected() {
        let bytes: &[u8] = b"<r>\xff\xfe</r>";
        let mut r = XmlStreamReader::new(bytes);
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(matches!(e.kind, ErrorKind::InvalidUtf8), "{e:?}");
    }

    #[test]
    fn stream_token_split_across_refill() {
        // Comment terminator and CDATA terminator split across chunk
        // boundaries exercise the overlapped `find` restart.
        let doc = "<r><!--abc--><![CDATA[xy]]></r>";
        for chunk in 1..=doc.len() {
            assert_eq!(stream_events(doc, chunk), events(doc), "chunk {chunk}");
        }
    }
}
