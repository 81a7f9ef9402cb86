//! Metric registry and output: the names `BENCHMARK.json` declares, the
//! host/config record, and the final result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fathom::ModelKind;

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("wall_us_per_item", "us"),
    ("rate_per_s", "1/s"),
];

/// The three models of the serving fleet, in fleet order.
pub const SERVED: [ModelKind; 3] = [ModelKind::Seq2Seq, ModelKind::Speech, ModelKind::Alexnet];

/// Paper op classes A-G, in `OpClass::ALL` order.
pub const CLASSES: [char; 7] = ['A', 'B', 'C', 'D', 'E', 'F', 'G'];

/// Shed reasons reported on the top ladder rung.
pub const SHED_REASONS: [&str; 3] = ["queue_full", "deadline_infeasible", "priority_evicted"];

/// Per-layer metrics (name, unit), emitted by every workload with
/// `--trace 1`. A workload that does not run a layer or model reports
/// 0 for it; README.md names the workload each metric belongs to.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for k in ModelKind::ALL {
        v.push((format!("core.step_ms.{k}"), "ms"));
    }
    for k in ModelKind::ALL {
        v.push((format!("core.build_ms.{k}"), "ms"));
    }
    v.push(("data.batch_ms".into(), "ms"));
    v.push(("dataflow.launches".into(), "count"));
    for c in CLASSES {
        v.push((format!("dataflow.op_ms.{c}"), "ms"));
    }
    v.push(("dataflow.exec_self_ms".into(), "ms"));
    for k in ModelKind::ALL {
        v.push((format!("runtime.speedup_2w.{k}"), "ratio"));
    }
    for name in [
        "runtime.steals",
        "runtime.wide_ops",
        "runtime.coscheduled_ops",
        "runtime.allocations",
    ] {
        v.push((name.into(), "count"));
    }
    v.push(("runtime.arena_mb".into(), "MB"));
    v.push(("recycle.hit_rate".into(), "ratio"));
    v.push(("tensor.gflops.A".into(), "GFLOP/s"));
    v.push(("tensor.gflops.B".into(), "GFLOP/s"));
    v.push(("tensor.gbps.C".into(), "GB/s"));
    v.push(("checkpoint.save_ms".into(), "ms"));
    for k in SERVED {
        v.push((format!("serve.batch_ms.{k}"), "ms"));
    }
    for k in SERVED {
        v.push((format!("serve.mean_batch.{k}"), "count"));
    }
    v.push(("serve.calibrate_ms".into(), "ms"));
    v.push(("serve.loop_self_us_per_req".into(), "us"));
    v.push(("serve.spill_frac".into(), "ratio"));
    for r in SHED_REASONS {
        v.push((format!("serve.shed_frac.{r}"), "ratio"));
    }
    v.push(("serve.interactive_p99_ms".into(), "ms"));
    v.push(("serve.max_rps".into(), "1/s"));
    v.push(("trace.overhead".into(), "ratio"));
    v
}

/// The metric names (and units) one mode emits.
pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: training steps, or requests issued plus
    /// replayed output samples.
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failed check.
    pub misses: Vec<String>,
    /// Key/value facts for the record line (sample counts, percentiles,
    /// ladder, labels).
    pub facts: BTreeMap<String, String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a fact for the record line.
    pub fn fact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.facts.insert(key.into(), value.to_string());
    }

    /// Counts one checked operation, recording `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.misses.push(what());
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become `null` so the line stays parseable.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A flat JSON object of string values.
pub fn json_object(pairs: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed`, and each
/// expected metric with its unit, in registry order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_sized() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate per-layer name");
        assert_eq!(names.len(), 59);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("p50_ms".into(), "ms", 1.5)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"p50_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\\n"), r#""a\"b\\\u000a""#);
    }
}
