//! Per-request observability building blocks for a serving run: the
//! latency distribution, shed reasons, and supervisor counters that
//! [`ClusterReport`](crate::cluster::ClusterReport) aggregates.
//!
//! Everything here is plain data; the report's hand-rolled JSON writer
//! (the vendored `serde` is marker-traits only; see `vendor/README.md`)
//! shares `json_f64` so every float degrades to `null` the same way.

use serde::Serialize;

/// Formats a float with `prec` decimals for the hand-rolled JSON
/// writers, degrading non-finite values to `null`. JSON has no
/// NaN/Infinity tokens — `format!("{:.3}", f64::NAN)` would emit a
/// bare `NaN` and corrupt the whole artifact — and a single poisoned
/// sample should cost one field, not the file. Finite values format
/// exactly as the inline `{:.prec$}` they replace, so well-formed
/// reports stay byte-identical.
pub(crate) fn json_f64(value: f64, prec: usize) -> String {
    if value.is_finite() {
        format!("{value:.prec$}")
    } else {
        "null".to_string()
    }
}

/// An exact-quantile latency recorder. Samples are kept raw (a serving
/// run records at most a few thousand requests), so percentiles are
/// computed from the sorted data rather than from bucket midpoints.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyHistogram {
    samples: Vec<f64>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record(&mut self, nanos: f64) {
        self.samples.push(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds, by the
    /// nearest-rank method: the smallest sample with at least `q * n`
    /// samples at or below it.
    ///
    /// Contract at the edges (covered by unit tests): an empty histogram
    /// returns 0 regardless of `q`; `q = 0.0` returns the minimum
    /// (rank clamps up to 1); `q = 1.0` returns the maximum; a singleton
    /// histogram returns its only sample for every `q`. Out-of-range or
    /// NaN `q` never panics or indexes out of bounds — the rank is
    /// clamped into `1..=n`, so `q < 0.0` and NaN degrade to the minimum
    /// and `q > 1.0` to the maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        // `ceil` then clamp: the float-to-usize cast saturates (NaN to
        // 0), and the clamp keeps every pathological rank in bounds.
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Largest sample in nanoseconds (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().cloned().fold(0.0, f64::max)
    }

    /// Folds another histogram's samples into this one. Because samples
    /// are kept raw, merging per-shard histograms yields exactly the
    /// quantiles a single combined histogram would report — the property
    /// the cluster report relies on for cross-shard aggregation (covered
    /// by `tests/metrics_properties.rs`).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }
}

/// Supervisor activity over one serving run: how often replicas failed
/// and what the recovery machinery did about it. All zeros on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryCounters {
    /// Batch dispatches that returned an error (replica crash).
    pub crashes: u64,
    /// Requests re-queued for another attempt after their batch failed.
    pub retried: u64,
    /// Requests dropped after exhausting the retry budget (these are
    /// also counted as shed so conservation holds).
    pub dropped: u64,
    /// Times a replica entered quarantine after a failure.
    pub quarantines: u64,
    /// Successful replica rebuilds (quarantine exits back to service).
    pub recoveries: u64,
    /// Replicas retired permanently after exhausting restarts.
    pub dead_replicas: u64,
}

impl RecoveryCounters {
    /// True when any failure or recovery activity was recorded.
    pub fn any(&self) -> bool {
        *self != RecoveryCounters::default()
    }
}

/// Why requests were shed, itemized. The sum of the fields equals the
/// report's `shed` counter; a run that sheds nothing leaves all fields
/// zero and the breakdown out of the JSON entirely (so no-shed output
/// stays byte-identical to earlier builds, like the `recovery` block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShedBreakdown {
    /// Refused at admission because the queue was at capacity.
    pub queue_full: u64,
    /// Refused at admission because the backlog made the request's
    /// deadline provably unmeetable.
    pub deadline_infeasible: u64,
    /// Evicted from the queue to make room for a higher-priority
    /// arrival.
    pub priority_evicted: u64,
    /// Lost to replica failure: retry budget exhausted after crashed
    /// batches, or stranded when every replica died.
    pub replica_loss: u64,
}

impl ShedBreakdown {
    /// True when any shed was recorded.
    pub fn any(&self) -> bool {
        *self != ShedBreakdown::default()
    }

    /// Sum across all reasons — must equal the companion `shed` counter.
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline_infeasible + self.priority_evicted + self.replica_loss
    }

    /// Folds another breakdown into this one (cross-shard aggregation).
    pub fn merge(&mut self, other: &ShedBreakdown) {
        self.queue_full += other.queue_full;
        self.deadline_infeasible += other.deadline_infeasible;
        self.priority_evicted += other.priority_evicted;
        self.replica_loss += other.replica_loss;
    }

    /// The breakdown as a JSON object string.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_full\": {}, \"deadline_infeasible\": {}, \"priority_evicted\": {}, \"replica_loss\": {}}}",
            self.queue_full, self.deadline_infeasible, self.priority_evicted, self.replica_loss
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for v in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 50.0);
        assert_eq!(h.quantile(0.99), 100.0);
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantile_edge_ranks() {
        let mut h = LatencyHistogram::new();
        for v in [30.0, 10.0, 20.0] {
            h.record(v);
        }
        // q=0 clamps the rank up to 1 (the minimum), q=1 lands exactly
        // on rank n (the maximum) — no off-by-one at either edge.
        assert_eq!(h.quantile(0.0), 10.0);
        assert_eq!(h.quantile(1.0), 30.0);
        // One third of 3 samples is exactly rank 1.
        assert_eq!(h.quantile(1.0 / 3.0), 10.0);
        assert_eq!(h.quantile(1.0 / 3.0 + 1e-9), 20.0);
    }

    #[test]
    fn singleton_histogram_returns_its_sample_for_every_q() {
        let mut h = LatencyHistogram::new();
        h.record(42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0);
        }
    }

    #[test]
    fn pathological_q_never_panics() {
        let mut h = LatencyHistogram::new();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        // Out-of-range and NaN q degrade to the edges instead of
        // panicking or indexing out of bounds.
        assert_eq!(h.quantile(-0.5), 10.0);
        assert_eq!(h.quantile(f64::NAN), 10.0);
        assert_eq!(h.quantile(1.5), 30.0);
        assert_eq!(h.quantile(f64::INFINITY), 30.0);
    }

    #[test]
    fn merged_histograms_match_a_single_combined_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for (i, v) in [5.0, 90.0, 15.0, 70.0, 30.0, 55.0, 10.0, 85.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            combined.record(*v);
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), combined.count());
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), combined.quantile(q), "q={q}");
        }
        assert_eq!(merged.mean(), combined.mean());
        assert_eq!(merged.max(), combined.max());
    }

    #[test]
    fn merging_an_empty_histogram_is_a_noop() {
        let mut h = LatencyHistogram::new();
        h.record(7.0);
        h.merge(&LatencyHistogram::new());
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 7.0);
        let mut empty = LatencyHistogram::new();
        empty.merge(&h);
        assert_eq!(empty.quantile(1.0), 7.0);
    }

    #[test]
    fn shed_breakdown_totals_and_merge() {
        let mut a = ShedBreakdown { queue_full: 2, ..ShedBreakdown::default() };
        assert!(a.any());
        assert_eq!(a.total(), 2);
        let b = ShedBreakdown { deadline_infeasible: 1, priority_evicted: 3, replica_loss: 4, ..ShedBreakdown::default() };
        a.merge(&b);
        assert_eq!(a.total(), 10);
        assert!(!ShedBreakdown::default().any());
    }

    #[test]
    fn finite_floats_format_exactly_as_before_the_null_guard() {
        assert_eq!(json_f64(1.0, 3), "1.000");
        assert_eq!(json_f64(0.12349, 3), "0.123");
        assert_eq!(json_f64(250.0, 0), "250");
        assert_eq!(json_f64(f64::NAN, 3), "null");
        assert_eq!(json_f64(f64::INFINITY, 0), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY, 2), "null");
    }
}
