//! Metric collection and the result line.
//!
//! Workloads hand every metric they measure to a [`Report`], which
//! prints it at once as a human-readable line. At exit the report
//! prints the one-line JSON result: the end-to-end metrics on an
//! untraced run, the per-layer metrics on a traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports, `(name, unit)`; mirrored
/// by `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`; mirrored by `per_layer` in
/// `BENCHMARK.json`. A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("graph.generate_s", "s"),
    ("graph.mutable_apply_us", "us"),
    ("partition.multilevel_s", "s"),
    ("partition.halo_build_s", "s"),
    ("partition.cut_frac", "frac"),
    ("runtime.sim_run_s", "s"),
    ("runtime.sim_us_per_round", "us"),
    ("runtime.sim_skipped_frac", "frac"),
    ("runtime.threaded_run_s", "s"),
    ("runtime.rounds", "count"),
    ("runtime.messages", "count"),
    ("runtime.bytes", "B"),
    ("runtime.sim_makespan_us", "us"),
    ("runtime.alloc_count", "count"),
    ("runtime.alloc_bytes", "B"),
    ("core.outside_engine_s", "s"),
    ("matching.solve_s", "s"),
    ("coloring.solve_s", "s"),
    ("coloring.phases", "count"),
    ("matching.invalidate_us", "us"),
    ("matching.repair_us", "us"),
    ("coloring.invalidate_us", "us"),
    ("coloring.repair_us", "us"),
    ("matching.dirty_per_batch", "count"),
    ("coloring.dirty_per_batch", "count"),
    ("net.launch_s", "s"),
    ("net.round_loop_s", "s"),
    ("net.round_cpu_s", "s"),
    ("net.ship_collect_s", "s"),
    ("net.serialize_ms_per_round", "ms"),
    ("net.wire_wait_ms_per_round", "ms"),
    ("net.done_wave_ms_per_round", "ms"),
    ("net.compute_ms_per_round", "ms"),
    ("net.delivery_ms_per_round", "ms"),
    ("net.frames", "count"),
    ("net.wire_bytes", "B"),
    ("net.syscalls", "count"),
    ("net.frames_coalesced", "count"),
    ("serve.absorb_p50_us", "us"),
    ("serve.absorb_p99_us", "us"),
    ("serve.request_overhead_us", "us"),
    ("serve.absorb_us_per_dirty", "us"),
    ("serve.alloc_bytes_per_batch", "B"),
    ("serve.repairs", "count"),
    ("serve.recomputes", "count"),
    ("serve.rejected", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("reconcile.residual_frac", "frac"),
];

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured windows (solves or requests).
    pub attempted: u64,
    /// Operations that failed, were rejected, or produced wrong output.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Records `name` and prints it with its unit and an optional note.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, note: &str) {
        if note.is_empty() {
            println!("  {name} = {value} {unit}");
        } else {
            println!("  {name} = {value} {unit}  ({note})");
        }
        self.values.insert(name.to_string(), value);
    }

    /// Counts one wrong or failed operation and says why.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        println!("  WRONG OUTPUT: {why}");
    }

    /// The value recorded for `name`, if any.
    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: the end-to-end set, or the per-layer set when
    /// `traced`. Per-layer metrics the workload never reached are
    /// reported as 0 (the layer is bypassed) and said so above it.
    pub fn result_line(&self, traced: bool) -> String {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => {
                    println!("  {name} = 0 {unit}  (layer bypassed by this workload)");
                    0.0
                }
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number with every digit the `f64` holds.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in the code and in `BENCHMARK.json` agree.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..]
                .find(']')
                .map(|e| start + e)
                .expect("list closes");
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted name")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn result_line_fills_bypassed_layers_and_keeps_digits() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("setup_s", "s", 0.123456789012, "");
        r.metric("latency_p50_ms", "ms", 1.5, "");
        r.metric("peak_rss_mb", "MB", 10.25, "");
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}"));
        let traced = r.result_line(true);
        assert!(traced.contains("\"reconcile.residual_frac\": {\"value\": 0.0"));
        r.fail("test");
        assert!(r.result_line(false).contains("\"correct\": false"));
    }
}
