//! Sample summaries with the sample-count rule built in: a timing is
//! reported as its median and the highest percentile that still has
//! [`MIN_BEYOND`] samples beyond it, never a higher one.

/// A percentile in per-mille, so rank arithmetic stays in integers
/// (`0.99 * 1000.0` is `990.0000000000001` in floating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pct(pub u32);

impl Pct {
    pub const P90: Pct = Pct(900);
    pub const P95: Pct = Pct(950);
    pub const P99: Pct = Pct(990);
    pub const P99_9: Pct = Pct(999);

    /// The percentiles a tail may be labelled with, lowest first.
    pub const LADDER: [Pct; 4] = [Pct::P90, Pct::P95, Pct::P99, Pct::P99_9];

    pub fn label(self) -> String {
        if self.0.is_multiple_of(10) {
            format!("p{}", self.0 / 10)
        } else {
            format!("p{}.{}", self.0 / 10, self.0 % 10)
        }
    }

    /// 1-based nearest rank of this percentile among `n` samples.
    fn rank(self, n: usize) -> usize {
        (n * self.0 as usize).div_ceil(1000).max(1)
    }

    /// Whether `n` samples leave at least [`MIN_BEYOND`] beyond this
    /// percentile.
    pub fn supported_by(self, n: usize) -> bool {
        n >= self.rank(n) + MIN_BEYOND
    }
}

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and supported tail of one sample vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The highest percentile of [`Pct::LADDER`], no higher than the
    /// cap, that `n` supports; `None` below 100 samples.
    pub tail: Option<(Pct, f64)>,
}

impl Summary {
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(0.0, |(_, v)| v)
    }

    pub fn tail_label(&self) -> String {
        self.tail.map_or("none".to_string(), |(p, _)| p.label())
    }
}

/// Summarize `samples` (any order); the tail is never labelled above `cap`.
pub fn summarize(samples: &[f64], cap: Pct) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = Pct::LADDER
        .iter()
        .rev()
        .find(|p| **p <= cap && p.supported_by(n))
        .map(|p| (*p, sorted[p.rank(n) - 1]));
    Summary {
        n,
        median: median_sorted(&sorted),
        tail,
    }
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail label each workload's report carries and the fewest samples
/// a full run collects behind it. [`check_tail_table`] refuses a table
/// whose floor cannot support its label.
pub struct TailRule {
    pub workload: &'static str,
    pub what: &'static str,
    pub label: Pct,
    pub floor: usize,
}

pub const TAIL_TABLE: &[TailRule] = &[
    TailRule {
        workload: "serve.point",
        what: "query latency, per guard",
        label: Pct::P99,
        floor: 1000,
    },
    TailRule {
        workload: "serve.full",
        what: "query latency",
        label: Pct::P90,
        floor: 100,
    },
    TailRule {
        workload: "mixed.rw",
        what: "write latency from due time",
        label: Pct::P99,
        floor: 1000,
    },
];

pub fn tail_rule(workload: &str) -> &'static TailRule {
    TAIL_TABLE
        .iter()
        .find(|r| r.workload == workload)
        .expect("workload has a tail rule")
}

pub fn check_tail_table(table: &[TailRule]) -> Result<(), String> {
    for rule in table {
        if !rule.label.supported_by(rule.floor) {
            return Err(format!(
                "{} {}: {} samples cannot support {} ({} must lie beyond it)",
                rule.workload,
                rule.what,
                rule.floor,
                rule.label.label(),
                MIN_BEYOND
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        assert!(Pct::P90.supported_by(100));
        assert!(!Pct::P90.supported_by(99));
        assert!(Pct::P95.supported_by(200));
        assert!(!Pct::P95.supported_by(199));
        assert!(Pct::P99.supported_by(1000));
        assert!(!Pct::P99.supported_by(999));
        assert!(Pct::P99_9.supported_by(10_000));
        assert!(!Pct::P99_9.supported_by(9_999));
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(summarize(&ramp(99), Pct::P99_9).tail, None);
        assert_eq!(
            summarize(&ramp(100), Pct::P99_9).tail,
            Some((Pct::P90, 90.0))
        );
        assert_eq!(
            summarize(&ramp(250), Pct::P99_9).tail,
            Some((Pct::P95, 238.0))
        );
        assert_eq!(
            summarize(&ramp(1000), Pct::P99_9).tail,
            Some((Pct::P99, 990.0))
        );
        assert_eq!(
            summarize(&ramp(10_000), Pct::P99_9).tail,
            Some((Pct::P99_9, 9990.0))
        );
    }

    #[test]
    fn tail_never_exceeds_the_cap() {
        assert_eq!(
            summarize(&ramp(10_000), Pct::P90).tail,
            Some((Pct::P90, 9000.0))
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(summarize(&ramp(5), Pct::P99).median, 3.0);
        assert_eq!(summarize(&ramp(4), Pct::P99).median, 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(Pct::P99.label(), "p99");
        assert_eq!(Pct::P99_9.label(), "p99.9");
    }

    #[test]
    fn shipped_table_is_supported() {
        check_tail_table(TAIL_TABLE).unwrap();
    }

    #[test]
    fn table_with_too_few_samples_is_refused() {
        let bad = [TailRule {
            workload: "w",
            what: "latency",
            label: Pct::P99,
            floor: 250,
        }];
        assert!(check_tail_table(&bad).is_err());
    }
}
