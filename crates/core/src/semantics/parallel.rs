//! Parallel guard evaluation: render across document partitions.
//!
//! The paper's interpreter is single-threaded; this driver is the
//! repository's scaling extension on top of it. The key observation is
//! that the sequential renderer (§VII) already emits output as a
//! concatenation of independent per-instance chunks: one chunk per
//! instance of each target root type, in document order. Those root
//! instances are exactly the *top-level groups* of the transformation
//! (one `<book>`, one `<person>`, …), so partitioning the instance
//! sequence into contiguous runs partitions the document at the group
//! boundary.
//!
//! Each partition renders on its own thread (`std::thread::scope`)
//! against the *same* shredded document — the sharded buffer pool in
//! `xmorph-pagestore` makes the underlying page cache genuinely
//! concurrent — and the per-partition strings are concatenated in
//! partition order. Because every thread sees the whole document, the
//! closest joins anchored at each instance resolve identically to the
//! sequential pass (including joins that reach across partition
//! boundaries), so the merged output is **byte-identical** to
//! [`crate::render::render`] by construction. Roots that are NEW (not
//! source-backed) instantiate once per document, not once per group, and
//! render on a single thread.
//!
//! Each partition's column-range slice also goes through the batched
//! closest-join kernel: before rendering, the slice resolves every
//! direct root edge (children, attributes, RESTRICT filters) for all of
//! its instances in one forward gallop pass per edge
//! ([`crate::store::shredded::Snapshot::closest_group_batch`]), so
//! worker threads spend their time emitting output, not re-searching
//! the child columns. The batch is per slice, so workers share nothing
//! mutable and the byte-identity argument is unchanged.

use crate::error::MorphResult;
use crate::render::renderer::{render_root_plain, render_root_slice};
use crate::render::RenderOptions;
use crate::semantics::shape::Shape;
use crate::store::shredded::{ShreddedDoc, Snapshot};

/// Options for the parallel driver.
#[derive(Debug, Clone, Default)]
pub struct ParallelOptions {
    /// Worker thread count; `0` means one per available CPU.
    pub threads: usize,
    /// Render options shared by every worker (the wrapper is emitted
    /// once by the driver, not per worker).
    pub render: RenderOptions,
}

impl ParallelOptions {
    /// Options with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelOptions {
            threads,
            ..Default::default()
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Split `n` items into at most `parts` contiguous, near-equal runs,
/// returned as `(start, end)` index pairs. Never returns empty runs.
fn partition_bounds(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut bounds = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Render `target` against `doc` using multiple threads, producing
/// output byte-identical to [`crate::render::render`] with the same
/// options. This is the partitioned render primitive behind
/// [`crate::engine::Engine`]; query code should go through the engine,
/// which adds guard caching, typing enforcement, and per-query stats.
pub fn render_parallel(
    doc: &ShreddedDoc,
    target: &Shape,
    opts: &ParallelOptions,
) -> MorphResult<String> {
    render_parallel_snapshot(&doc.snapshot(), target, opts)
}

/// [`render_parallel`] against an explicitly pinned snapshot. All
/// workers share the one `&Snapshot` (it is `Sync`), so the whole
/// fan-out reads a single epoch regardless of concurrent writers —
/// this is what makes the engine's reads snapshot-isolated.
pub fn render_parallel_snapshot(
    doc: &Snapshot,
    target: &Shape,
    opts: &ParallelOptions,
) -> MorphResult<String> {
    let threads = opts.effective_threads();
    // The output is built in one buffer, wrapper included, so a large
    // result is not copied again once rendered.
    let mut body = String::new();
    if let Some(w) = &opts.render.wrapper {
        body.push('<');
        body.push_str(w);
        body.push('>');
    }
    let content = body.len();
    for &root in &target.roots {
        match target.nodes[root].base {
            Some(root_type) => {
                // Workers share one decoded column (built here, before
                // the fan-out, so no thread races to build it) and each
                // renders a contiguous row range — no instance vector is
                // materialized at all.
                let col = doc.column(root_type);
                if col.is_empty() {
                    continue;
                }
                let bounds = partition_bounds(col.len(), threads);
                if bounds.len() == 1 {
                    render_root_slice(
                        doc,
                        target,
                        &opts.render,
                        root,
                        root_type,
                        &col,
                        0..col.len(),
                        &mut body,
                    )?;
                    continue;
                }
                let results: Vec<MorphResult<String>> = std::thread::scope(|s| {
                    let handles: Vec<_> = bounds
                        .iter()
                        .map(|&(lo, hi)| {
                            let col = &col;
                            let render = &opts.render;
                            s.spawn(move || {
                                let mut chunk = String::new();
                                render_root_slice(
                                    doc,
                                    target,
                                    render,
                                    root,
                                    root_type,
                                    col,
                                    lo..hi,
                                    &mut chunk,
                                )
                                .map(|()| chunk)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("parallel render worker panicked"))
                        .collect()
                });
                for chunk in results {
                    body.push_str(&chunk?);
                }
            }
            None => body.push_str(&render_root_plain(doc, target, &opts.render, root)?),
        }
    }
    // The wrapper mirrors StreamWriter exactly: an element with no
    // content collapses to a self-closing tag.
    if let Some(w) = &opts.render.wrapper {
        if body.len() == content {
            body.truncate(content - 1);
            body.push_str("/>");
        } else {
            body.push_str("</");
            body.push_str(w);
            body.push('>');
        }
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Guard;
    use crate::render::render;
    use xmorph_pagestore::Store;

    fn shred(xml: &str) -> (Store, ShreddedDoc) {
        let store = Store::in_memory();
        let doc = ShreddedDoc::shred_str(&store, xml).unwrap();
        (store, doc)
    }

    /// A library with enough top-level groups to split several ways.
    fn library(groups: usize) -> String {
        let mut xml = String::from("<lib>");
        for i in 0..groups {
            xml.push_str(&format!(
                "<book><title>T{i}</title><author><name>A{}</name></author>\
                 {}<publisher><name>P{}</name></publisher></book>",
                i % 7,
                if i % 3 == 0 { "<award>w</award>" } else { "" },
                i % 5,
            ));
        }
        xml.push_str("</lib>");
        xml
    }

    fn assert_parallel_matches(guard_src: &str, xml: &str) {
        let guard = Guard::parse(guard_src).unwrap();
        let (_s, doc) = shred(xml);
        let sequential = guard.apply(&doc).unwrap().xml;
        let target = guard.analyze(&doc).unwrap().target;
        for threads in [1, 2, 3, 4, 8] {
            let opts = ParallelOptions::with_threads(threads);
            let parallel = render_parallel(&doc, &target, &opts).unwrap();
            assert_eq!(parallel, sequential, "threads={threads} guard={guard_src}");
        }
    }

    #[test]
    fn morph_matches_sequential() {
        assert_parallel_matches("MORPH author [ name book [ title ] ]", &library(23));
    }

    #[test]
    fn nested_groups_match_sequential() {
        assert_parallel_matches("MORPH book [ title author [ name ] ]", &library(17));
    }

    #[test]
    fn filters_match_sequential() {
        assert_parallel_matches(
            "CAST-NARROWING MORPH (RESTRICT book [ award ]) [ title ]",
            &library(20),
        );
    }

    #[test]
    fn new_root_matches_sequential() {
        assert_parallel_matches(
            "CAST-WIDENING MORPH (NEW scribe) [ author [ name ] ]",
            &library(11),
        );
    }

    #[test]
    fn translate_matches_sequential() {
        assert_parallel_matches(
            "MORPH author [ name ] | TRANSLATE author -> writer",
            &library(9),
        );
    }

    #[test]
    fn more_threads_than_groups() {
        let guard = Guard::parse("MORPH book [ title ]").unwrap();
        let (_s, doc) = shred(&library(2));
        let sequential = guard.apply(&doc).unwrap().xml;
        let target = guard.analyze(&doc).unwrap().target;
        let opts = ParallelOptions::with_threads(16);
        assert_eq!(render_parallel(&doc, &target, &opts).unwrap(), sequential);
    }

    #[test]
    fn empty_result_collapses_like_stream_writer() {
        let guard = Guard::parse("MORPH book [ title ]").unwrap();
        let (_s, doc) = shred("<lib><book><title>T</title></book></lib>");
        let mut target = guard.analyze(&doc).unwrap().target;
        target.roots.clear();
        let opts = ParallelOptions::with_threads(4);
        let sequential = render(&doc, &target, &opts.render).unwrap();
        let parallel = render_parallel(&doc, &target, &opts).unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel, "<result/>");
    }

    #[test]
    fn render_parallel_honours_wrapper_and_options() {
        let guard = Guard::parse("MORPH title").unwrap();
        let (_s, doc) = shred(&library(6));
        let analysis = guard.analyze(&doc).unwrap();
        let render_opts = RenderOptions {
            wrapper: Some("out".into()),
            tag_source: true,
            pipelined: false,
        };
        let sequential = render(&doc, &analysis.target, &render_opts).unwrap();
        let opts = ParallelOptions {
            threads: 3,
            render: render_opts,
        };
        let parallel = render_parallel(&doc, &analysis.target, &opts).unwrap();
        assert_eq!(parallel, sequential);
        assert!(parallel.starts_with("<out>"));
        assert!(parallel.contains("data-src"));
    }

    #[test]
    fn partition_bounds_cover_everything_contiguously() {
        for n in [1usize, 2, 7, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let bounds = partition_bounds(n, parts);
                assert!(bounds.len() <= parts.max(1));
                assert_eq!(bounds.first().unwrap().0, 0);
                assert_eq!(bounds.last().unwrap().1, n);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                    assert!(w[0].0 < w[0].1, "non-empty");
                }
            }
        }
    }
}
