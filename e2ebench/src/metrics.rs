//! The benchmark's metric table (mirrored in `BENCHMARK.json`), the
//! per-run result, and the result line printed last on stdout.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
/// Except for `setup_s`, bounds are at least three times the
/// inter-quartile spread measured over ten seeds per workload on a 2-core
/// host, whose speed drifts with its neighbours' load. `setup_s`, whose
/// spread is not gated, sits at the 0.25 cap, about 1.6 times its
/// measured spread.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("detect_rows_per_s", "rows/s", Higher, 0.25),
    e2e("capacity_rps", "req/s", Higher, 0.25),
    e2e("score_p50_ms", "ms", Lower, 0.25),
    e2e("slo_met_frac", "1", Higher, 0.05),
    e2e("ok_frac", "1", Higher, 0.05),
];

/// Per-layer metrics, reported by every traced run of every workload. A
/// layer the workload bypasses reports 0 (no work done there).
pub const PER_LAYER: &[MetricDef] = &[
    // End to end, but too unsteady between runs on a 2-core host to carry
    // a bound: an occasional stall (a sidecar fsync, a descheduled shard)
    // decides it.
    layer("score_tail_ms", "ms", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.sent", "count", Higher),
    layer("loadgen.ok", "count", Higher),
    layer("loadgen.refused", "count", Lower),
    layer("loadgen.degraded", "count", Lower),
    layer("loadgen.errors", "count", Lower),
    layer("wire.req_encode_us", "us", Lower),
    layer("wire.req_decode_us", "us", Lower),
    layer("wire.resp_decode_us", "us", Lower),
    layer("wire.req_bytes", "B", Lower),
    layer("server.batch_items_mean", "count", Higher),
    layer("server.batch_fill", "1", Higher),
    layer("server.queue_wait_ms_mean", "ms", Lower),
    layer("server.shed", "count", Lower),
    layer("server.timeouts", "count", Lower),
    layer("server.overloaded", "count", Lower),
    layer("server.residual_us", "us", Lower),
    layer("monitor.us_per_item.b1", "us", Lower),
    layer("monitor.us_per_item.bmax", "us", Lower),
    layer("monitor.self_us_per_item", "us", Lower),
    layer("monitor.evals_per_item", "count", Lower),
    layer("persist.sidecar_write_ms", "ms", Lower),
    layer("registry.load_ms.ImDiffusion", "ms", Lower),
    layer("registry.load_ms.ZScore", "ms", Lower),
    layer("registry.load_ms.IForest", "ms", Lower),
    layer("scorer.us_per_window.ImDiffusion", "us", Lower),
    layer("scorer.us_per_window.ZScore", "us", Lower),
    layer("scorer.us_per_window.IForest", "us", Lower),
    layer("infer.ms_per_window.b1", "ms", Lower),
    layer("infer.ms_per_window.b8", "ms", Lower),
    layer("infer.batch_gain", "1", Higher),
    layer("infer.windows_per_call", "count", Higher),
    layer("infer.groups_per_call", "count", Higher),
    layer("model.forward_ms", "ms", Lower),
    layer("model.forwards_per_window", "count", Lower),
    layer("kernel.matmul_gflops", "GFLOP/s", Higher),
    layer("kernel.layer_norm_us", "us", Lower),
    layer("kernel.sdpa_temporal_us", "us", Lower),
    layer("kernel.sdpa_spatial_us", "us", Lower),
    layer("kernel.matmul_calls_per_forward", "count", Lower),
    layer("kernel.layer_norm_calls_per_forward", "count", Lower),
    layer("kernel.sdpa_calls_per_forward", "count", Lower),
    layer("pool.speedup", "1", Higher),
    layer("pool.region_us", "us", Lower),
    layer("pool.worker_share", "1", Lower),
    layer("setup.fit_s", "s", Lower),
    layer("setup.checkpoint_ms", "ms", Lower),
    layer("setup.server_start_ms", "ms", Lower),
    layer("setup.warm_ms", "ms", Lower),
    layer("quality.f1_pa", "1", Higher),
    layer("quality.f1_raw", "1", Higher),
    layer("trace.overhead_frac", "1", Lower),
];

/// Looks a metric up in both tables.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Why the correctness gate failed, one line each; the run is
    /// correct when there are none.
    pub mismatches: Vec<String>,
    /// Context printed before the result line (fixed percentiles,
    /// sample counts, the serving rate, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            def(name).is_some(),
            "metric {name} is not in the metric table"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn mismatch(&mut self, line: String) {
        self.mismatches.push(line);
    }

    /// Fills every per-layer metric whose name starts with one of
    /// `bypassed` and was not measured with 0: the workload does no work
    /// in that layer.
    pub fn zero_bypassed(&mut self, bypassed: &[&str]) {
        for d in PER_LAYER {
            if bypassed.iter().any(|p| d.name.starts_with(p)) {
                self.values.entry(d.name).or_insert(0.0);
            }
        }
    }

    /// The metrics this run must report, in table order.
    pub fn table(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of the run's table. A
    /// run that attempted nothing is not correct. Panics when a metric is
    /// missing — a bug in the workload code.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = Vec::new();
        for d in Self::table(trace) {
            let v = *self
                .values
                .get(d.name)
                .unwrap_or_else(|| panic!("workload did not report {}", d.name));
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become 0 so the line stays
/// valid JSON.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(
                all[i + 1..].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` declares the same metrics, units, directions and
    /// bounds as this table.
    #[test]
    fn benchmark_json_mirrors_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                d.name,
                d.unit,
                d.better.name(),
                json_number(d.bound.unwrap())
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                d.name,
                d.unit,
                d.better.name()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        for d in END_TO_END {
            o.set(d.name, 1.25);
        }
        let line = o.result_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        o.mismatch("verdict 3 differs".into());
        assert!(o.result_line(false).starts_with("{\"correct\": false"));
        o.mismatches.clear();
        o.attempted = 0;
        assert!(o
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 0,"));
    }

    #[test]
    fn json_numbers_keep_all_digits() {
        assert_eq!(json_number(1.2034567891), "1.2034567891");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
