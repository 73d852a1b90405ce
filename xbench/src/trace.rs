//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Kept in memory; written as JSON lines at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    /// Shared by every span of one request (or load round).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Single-threaded span recorder: the traced passes drive one request
/// at a time, so nesting is a stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Run `f` as the root span of a new request.
    pub fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request += 1;
        self.span(name, f)
    }

    /// Run `f` inside a span that is a child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            request: self.request,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Duration in ms of the span most recently closed under `name`.
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end_ns != 0)
            .map_or(0.0, Span::ms)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if s.parent != 0 {
                own[s.parent as usize - 1] -= s.ms();
            }
        }
        own
    }

    /// Median self time per span name, in first-seen order.
    pub fn self_medians(&self) -> Vec<(&'static str, usize, f64)> {
        let own = self.self_ms();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let of: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.name == name)
                    .map(|(_, v)| *v)
                    .collect();
                (name, of.len(), crate::stats::median(&of))
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ms\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new();
        t.request("request", |t| {
            t.span("a", |t| {
                t.span("a.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("b", |_| ());
        });
        t.request("request", |_| ());
        let spans = &t.spans;
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[3].parent, spans[0].id);
        assert_eq!(spans[0].request, 1);
        assert_eq!(spans[2].request, 1);
        assert_eq!(spans[4].request, 2);
        let own = t.self_ms();
        assert!(spans[2].ms() >= 2.0);
        assert!(own[1] < spans[1].ms());
        let total: f64 = own[..4].iter().sum();
        assert!((total - spans[0].ms()).abs() < 1e-6);
    }
}
