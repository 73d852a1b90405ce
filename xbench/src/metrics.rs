//! The metric names `BENCHMARK.json` fixes, and the report a run fills.
//! Later issues state a claim as "`<metric>` on `<workload>`" using them.

use xmorph_pagestore::IoSnapshot;
use xmorph_server::ServerMetrics;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher"; read by the test that holds
    /// `BENCHMARK.json` to these tables.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    m("p50_ms", "ms", "lower"),
    m("mb_per_s", "MB/s", "higher"),
    m("setup_s", "s", "lower"),
];

/// Single layers, from the traced run; 0 on a workload that does not
/// exercise the layer. Reported, never gated.
pub const PER_LAYER: &[MetricDef] = &[
    // Client-observed, demoted from end to end: tails repeat too
    // loosely to gate, and the reader's view exists on one workload.
    m("wire_p50_ms", "ms", "lower"),
    m("tail_ms", "ms", "lower"),
    m("read_p50_ms", "ms", "lower"),
    m("read_tail_ms", "ms", "lower"),
    m("trace_overhead_frac", "frac", "lower"),
    // core::lang / core::guard
    m("parse_us", "us", "lower"),
    // core::engine
    m("pin_us", "us", "lower"),
    m("engine_total_ms", "ms", "lower"),
    // core::semantics + core::analysis
    m("compile_ms", "ms", "lower"),
    m("compile_share", "frac", "lower"),
    // core::render (+ core::store columns, join kernel)
    m("render_ms", "ms", "lower"),
    m("render_mb_per_s", "MB/s", "higher"),
    m("output_bytes", "count", "lower"),
    // server::proto
    m("proto_request_us", "us", "lower"),
    m("proto_result_ms", "ms", "lower"),
    m("proto_ms_per_result_mb", "ms/MB", "lower"),
    // server::server + server::client + socket
    m("ping_us", "us", "lower"),
    m("wire_residual_ms", "ms", "lower"),
    m("wire_residual_ms_per_result_mb", "ms/MB", "lower"),
    m("queries_ok", "count", "higher"),
    m("queries_busy", "count", "lower"),
    m("queries_failed", "count", "lower"),
    m("writes_ok", "count", "higher"),
    m("writes_failed", "count", "lower"),
    m("protocol_errors", "count", "lower"),
    // xmlkit
    m("xml_parse_mb_per_s", "MB/s", "higher"),
    m("parse_share", "frac", "lower"),
    // core::store (shred: spill, merge, bulk load, column tee)
    m("shred_s", "s", "lower"),
    m("flush_s", "s", "lower"),
    m("open_ms", "ms", "lower"),
    m("spill_merge_s", "s", "lower"),
    m("store_bytes_per_input_byte", "ratio", "lower"),
    m("peak_heap_mb", "MB", "lower"),
    // pagestore
    m("blocks_read", "count", "lower"),
    m("blocks_written", "count", "lower"),
    m("cache_hit_rate", "frac", "higher"),
    m("read_time_s", "s", "lower"),
    m("write_time_s", "s", "lower"),
    m("bytes_written_per_input_byte", "ratio", "lower"),
    m("blocks_written_per_write", "ratio", "lower"),
    // core::store (mutate) + pagestore::wal
    m("mutate_update_us", "us", "lower"),
    m("mutate_insert_us", "us", "lower"),
    m("mutate_delete_us", "us", "lower"),
    m("writer_lateness_p50_ms", "ms", "lower"),
    m("writer_lateness_max_ms", "ms", "lower"),
];

pub struct Report {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        Report {
            defs,
            // A layer a workload does not exercise reads 0; an
            // end-to-end metric has no default and must be set.
            values: vec![trace.then_some(0.0); defs.len()],
            attempted: 0,
            failed: 0,
        }
    }

    /// Record and print one metric. Panics on a name the table lacks:
    /// that is a bug in the benchmark, not a result.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in this run's table"));
        self.values[i] = Some(value);
        println!("  {name} = {value:.4} {}", self.defs[i].unit);
    }

    /// Count one operation and whether it failed: errored, was refused
    /// `BUSY`, or failed its output check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The pagestore's counters over one phase.
    pub fn set_io(&mut self, io: &IoSnapshot) {
        self.set("blocks_read", io.blocks_read as f64);
        self.set("blocks_written", io.blocks_written as f64);
        let probes = io.cache_hits + io.cache_misses;
        if probes > 0 {
            self.set("cache_hit_rate", io.cache_hits as f64 / probes as f64);
        }
        self.set("read_time_s", io.read_time.as_secs_f64());
        self.set("write_time_s", io.write_time.as_secs_f64());
    }

    /// What the server counted between two readings of its metrics.
    pub fn set_server(&mut self, before: &ServerMetrics, after: &ServerMetrics) {
        let mut delta = |name, a: u64, b: u64| self.set(name, (a - b) as f64);
        delta("queries_ok", after.queries_ok, before.queries_ok);
        delta("queries_busy", after.queries_busy, before.queries_busy);
        delta(
            "queries_failed",
            after.queries_failed,
            before.queries_failed,
        );
        delta("writes_ok", after.writes_ok, before.writes_ok);
        delta("writes_failed", after.writes_failed, before.writes_failed);
        delta(
            "protocol_errors",
            after.protocol_errors,
            before.protocol_errors,
        );
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object, the last line of the output.
    pub fn json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (def, value) in self.defs.iter().zip(&self.values) {
            let value = value.ok_or(format!("metric {} was never measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics,
    /// units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the xbench directory");
        for (key, defs) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let section = &text[text.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let mut rest = section;
            for def in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    def.name, def.unit, def.better
                );
                let at = rest
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{key} lacks, or misorders, {entry}"));
                rest = &rest[at + entry.len()..];
            }
            assert_eq!(section.matches("\"name\"").count(), defs.len(), "{key}");
        }
        for w in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(false);
        assert!(r.json().is_err(), "unset end-to-end metric must not print");
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        r.op(true);
        let line = r.json().unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.op(false);
        assert!(r.json().unwrap().contains("\"correct\": false"));
    }
}
