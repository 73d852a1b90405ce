//! # xmorph-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! XMorph 2.0 evaluation (§IX). Each figure has a binary in `src/bin`
//! printing the paper's rows/series; most take `--scale`/`--smoke` for
//! reduced-scale runs:
//!
//! | Regenerator | Paper artifact |
//! |---|---|
//! | `table1_pathcard` | Table I — path cardinality of every type pair |
//! | `fig10_size` | Fig. 10 — transform cost vs XMark size (+ shred times) |
//! | `fig11_block_io` | Fig. 11 — cumulative block I/O over a run |
//! | `fig12_wait` | Fig. 12 — I/O-wait percentage over a run |
//! | `fig13_memory` | Fig. 13 — memory in use over a run |
//! | `fig14_dblp` | Fig. 14 — XMorph vs baseline on DBLP slices |
//! | `fig15_shape` | Fig. 15 — throughput vs target shape |
//! | `fig16_ops` | Fig. 16 — cost of each XMorph operation |
//!
//! Scales default to laptop-friendly sizes; every binary accepts
//! `--scale <f>` to multiply document sizes (1.0 ≈ the sizes used in
//! EXPERIMENTS.md, larger values approach the paper's).

pub mod alloc;
pub mod harness;
pub mod sampler;
pub mod table;

/// Parse `--scale <f>` (default 1.0) from `std::env::args`. Unknown
/// flags are ignored.
pub fn parse_scale() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--scale" {
            if let Ok(v) = pair[1].parse::<f64>() {
                return v;
            }
        }
    }
    1.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn parse_scale_defaults_to_one() {
        assert_eq!(super::parse_scale(), 1.0);
    }
}
