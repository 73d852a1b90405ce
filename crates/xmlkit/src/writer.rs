//! Serialization of [`Document`]s back to XML text.

use crate::dom::{Document, NodeId, NodeKind};
use crate::escape::{escape_attr_into, escape_text_into};

/// Output formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStyle {
    /// No whitespace added between elements.
    Compact,
    /// Two-space indentation; elements with only text content stay on one
    /// line.
    Pretty,
}

/// Serialize a whole document.
pub fn serialize(doc: &Document, style: WriteStyle) -> String {
    let mut out = String::new();
    if let Some(root) = doc.root_element() {
        write_node(doc, root, style, 0, &mut out);
        if style == WriteStyle::Pretty {
            out.push('\n');
        }
    }
    out
}

/// Serialize a single node (and its subtree) without added whitespace.
pub fn serialize_node(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, id, WriteStyle::Compact, 0, &mut out);
    out
}

fn has_element_children(doc: &Document, id: NodeId) -> bool {
    doc.all_children(id).iter().any(|&c| doc.is_element(c))
}

fn write_node(doc: &Document, id: NodeId, style: WriteStyle, indent: usize, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Text(t) => escape_text_into(out, t),
        NodeKind::Element { name, attrs } => {
            out.push('<');
            out.push_str(name);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                escape_attr_into(out, v);
                out.push('"');
            }
            let children = doc.all_children(id);
            if children.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let structural = style == WriteStyle::Pretty && has_element_children(doc, id);
            for &c in children {
                if structural {
                    out.push('\n');
                    for _ in 0..(indent + 1) * 2 {
                        out.push(' ');
                    }
                }
                write_node(doc, c, style, indent + 1, out);
            }
            if structural {
                out.push('\n');
                for _ in 0..indent * 2 {
                    out.push(' ');
                }
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

/// A streaming XML writer for producing large documents without building a
/// DOM. Used by the renderer and the workload generators.
///
/// Nothing is allocated per element: the names of the open elements live
/// in one arena, and text and attribute values are escaped straight into
/// the output buffer.
#[derive(Debug, Default)]
pub struct StreamWriter {
    out: String,
    /// Names of the open elements, concatenated outermost first.
    names: String,
    /// Where each open element's name starts in `names`.
    starts: Vec<usize>,
    /// True when the current element has had its `>` written.
    open_tag_pending: bool,
}

impl StreamWriter {
    /// Create a writer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self::appending(String::with_capacity(cap))
    }

    /// Create a writer that continues after the text already in `out`,
    /// so a caller's buffer grows in place instead of being copied into.
    pub fn appending(out: String) -> Self {
        StreamWriter {
            out,
            ..Self::default()
        }
    }

    fn close_pending(&mut self) {
        if self.open_tag_pending {
            self.out.push('>');
            self.open_tag_pending = false;
        }
    }

    /// Open an element.
    pub fn start(&mut self, name: &str) {
        self.close_pending();
        self.out.push('<');
        self.out.push_str(name);
        self.starts.push(self.names.len());
        self.names.push_str(name);
        self.open_tag_pending = true;
    }

    /// Add an attribute to the element just opened. Panics if called after
    /// content has been written.
    pub fn attr(&mut self, name: &str, value: &str) {
        assert!(self.open_tag_pending, "attr() must follow start()");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        escape_attr_into(&mut self.out, value);
        self.out.push('"');
    }

    /// Write escaped text content.
    pub fn text(&mut self, t: &str) {
        if t.is_empty() {
            return;
        }
        self.close_pending();
        escape_text_into(&mut self.out, t);
    }

    /// Close the most recently opened element.
    pub fn end(&mut self) {
        let start = self.starts.pop().expect("end() with no open element");
        if self.open_tag_pending {
            self.out.push_str("/>");
            self.open_tag_pending = false;
        } else {
            self.out.push_str("</");
            self.out.push_str(&self.names[start..]);
            self.out.push('>');
        }
        self.names.truncate(start);
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.starts.len()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Hand the text buffered so far to `sink`, then clear the buffer,
    /// keeping its capacity and the open-element stack — lets a caller
    /// stream completed fragments through one buffer while elements
    /// remain open. (Elements whose open tag was drained close with a
    /// full `</name>` even when empty.)
    pub fn drain_to<R>(&mut self, sink: impl FnOnce(&str) -> R) -> R {
        self.close_pending();
        let r = sink(&self.out);
        self.out.clear();
        r
    }

    /// Finish and return the XML text. Panics if elements are still open.
    pub fn finish(mut self) -> String {
        self.close_pending();
        assert!(
            self.starts.is_empty(),
            "finish() with {} open element(s)",
            self.starts.len()
        );
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape::{escape_attr, escape_text};

    #[test]
    fn compact_round_trip() {
        let src = r#"<a x="1"><b>hi</b><c/></a>"#;
        let doc = Document::parse_str(src).unwrap();
        assert_eq!(doc.serialize_compact(), src);
    }

    #[test]
    fn escaping_on_output() {
        let mut doc = Document::new();
        let root = doc.create_root("a");
        doc.set_attr(root, "q", "x\"y<z");
        doc.append_text(root, "1 < 2 & 3");
        assert_eq!(
            doc.serialize_compact(),
            r#"<a q="x&quot;y&lt;z">1 &lt; 2 &amp; 3</a>"#
        );
    }

    #[test]
    fn pretty_indents_structure() {
        let doc = Document::parse_str("<a><b>hi</b><c/></a>").unwrap();
        assert_eq!(doc.serialize_pretty(), "<a>\n  <b>hi</b>\n  <c/>\n</a>\n");
    }

    #[test]
    fn pretty_keeps_text_elements_inline() {
        let doc = Document::parse_str("<a><b>one two</b></a>").unwrap();
        assert!(doc.serialize_pretty().contains("<b>one two</b>"));
    }

    #[test]
    fn stream_writer_basics() {
        let mut w = StreamWriter::new();
        w.start("data");
        w.start("book");
        w.attr("year", "2012");
        w.start("title");
        w.text("X & Y");
        w.end();
        w.end();
        w.start("empty");
        w.end();
        w.end();
        assert_eq!(
            w.finish(),
            r#"<data><book year="2012"><title>X &amp; Y</title></book><empty/></data>"#
        );
    }

    #[test]
    fn stream_writer_output_reparses() {
        let mut w = StreamWriter::new();
        w.start("r");
        for i in 0..10 {
            w.start("item");
            w.attr("i", &i.to_string());
            w.text(&format!("value {i}"));
            w.end();
        }
        w.end();
        let xml = w.finish();
        let doc = Document::parse_str(&xml).unwrap();
        assert_eq!(doc.children(doc.root_element().unwrap()).count(), 10);
    }

    #[test]
    #[should_panic(expected = "open element")]
    fn stream_writer_unbalanced_panics() {
        let mut w = StreamWriter::new();
        w.start("a");
        let _ = w.finish();
    }

    /// `s` written as text and as an attribute value, checked against
    /// the borrowing escapers and against the expected escapes.
    fn check_escapes(s: &str, text: &str, attr: &str) {
        let mut w = StreamWriter::new();
        w.start("a");
        w.attr("v", s);
        w.text(s);
        w.end();
        let out = w.finish();
        assert_eq!(
            out,
            format!(r#"<a v="{}">{}</a>"#, escape_attr(s), escape_text(s))
        );
        assert_eq!(out, format!(r#"<a v="{attr}">{text}</a>"#));
    }

    #[test]
    fn stream_writer_escapes_all_five_entities() {
        check_escapes(
            r#"a&b<c>d"e'f"#,
            r#"a&amp;b&lt;c&gt;d"e'f"#,
            "a&amp;b&lt;c&gt;d&quot;e&apos;f",
        );
    }

    #[test]
    fn stream_writer_escapes_text_that_is_only_entities() {
        check_escapes(
            r#"&<>"'"#,
            r#"&amp;&lt;&gt;"'"#,
            "&amp;&lt;&gt;&quot;&apos;",
        );
        check_escapes("&&", "&amp;&amp;", "&amp;&amp;");
    }

    #[test]
    fn stream_writer_escapes_next_to_multibyte_utf8() {
        check_escapes("é&☃<𝄞'", "é&amp;☃&lt;𝄞'", "é&amp;☃&lt;𝄞&apos;");
        check_escapes("&ü>", "&amp;ü&gt;", "&amp;ü&gt;");
    }

    #[test]
    fn stream_writer_drains_through_one_buffer() {
        let mut w = StreamWriter::new();
        let mut streamed = String::new();
        w.start("r");
        for i in 0..3 {
            w.start("item");
            w.text(&i.to_string());
            w.end();
            w.drain_to(|s| streamed.push_str(s));
            assert!(w.is_empty());
        }
        w.end();
        streamed.push_str(&w.finish());
        assert_eq!(
            streamed,
            "<r><item>0</item><item>1</item><item>2</item></r>"
        );
    }
}
