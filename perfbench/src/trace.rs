//! Folds the op traces sessions already record (`Session::take_trace`)
//! into per-class time, work and launch counts.

use std::collections::HashSet;

use fathom_dataflow::trace::RunTrace;
use fathom_dataflow::{OpClass, RuntimeCounters};

use crate::report::{Outcome, CLASSES};

/// Op-trace totals over a leg of traced runs.
#[derive(Debug, Default)]
pub struct TraceAgg {
    /// Op nanoseconds by paper class, `OpClass::ALL` order.
    nanos: [f64; 7],
    flops: [f64; 7],
    bytes: [f64; 7],
    /// Distinct graph nodes executed, summed over runs.
    launches: u64,
    /// Runtime counters summed over runs (`arena_bytes` ignored).
    runtime: RuntimeCounters,
}

impl TraceAgg {
    /// Adds one taken trace.
    pub fn add(&mut self, trace: &RunTrace) {
        let mut nodes = HashSet::new();
        for e in &trace.events {
            // Invariant: OpClass::ALL lists all seven classes.
            let c = OpClass::ALL
                .iter()
                .position(|k| *k == e.class)
                .expect("A-G class");
            self.nanos[c] += e.nanos;
            self.flops[c] += e.cost.flops;
            self.bytes[c] += e.cost.bytes;
            nodes.insert((e.step, e.node));
        }
        self.launches += nodes.len() as u64;
        self.add_counters(&trace.runtime);
    }

    /// Folds another aggregate into this one.
    pub fn merge(&mut self, other: &TraceAgg) {
        for c in 0..7 {
            self.nanos[c] += other.nanos[c];
            self.flops[c] += other.flops[c];
            self.bytes[c] += other.bytes[c];
        }
        self.launches += other.launches;
        self.add_counters(&other.runtime);
    }

    fn add_counters(&mut self, r: &RuntimeCounters) {
        self.runtime.allocations += r.allocations;
        self.runtime.steal_count += r.steal_count;
        self.runtime.wide_ops += r.wide_ops;
        self.runtime.coscheduled_ops += r.coscheduled_ops;
    }

    /// Total op nanoseconds.
    pub fn op_nanos(&self) -> f64 {
        self.nanos.iter().sum()
    }

    /// Puts the dataflow, runtime-counter and tensor-rate metrics, each
    /// count divided by `per` (rounds, or thousands of requests).
    pub fn put(&self, out: &mut Outcome, per: f64) {
        out.put("dataflow.launches", self.launches as f64 / per);
        for (c, letter) in CLASSES.iter().enumerate() {
            out.put(
                format!("dataflow.op_ms.{letter}"),
                self.nanos[c] / 1e6 / per,
            );
        }
        out.put("runtime.steals", self.runtime.steal_count as f64 / per);
        out.put("runtime.wide_ops", self.runtime.wide_ops as f64 / per);
        out.put(
            "runtime.coscheduled_ops",
            self.runtime.coscheduled_ops as f64 / per,
        );
        out.put("runtime.allocations", self.runtime.allocations as f64 / per);
        // flops per nanosecond is GFLOP/s; bytes per nanosecond is GB/s.
        let rate = |work: f64, nanos: f64| if nanos > 0.0 { work / nanos } else { 0.0 };
        out.put("tensor.gflops.A", rate(self.flops[0], self.nanos[0]));
        out.put("tensor.gflops.B", rate(self.flops[1], self.nanos[1]));
        out.put("tensor.gbps.C", rate(self.bytes[2], self.nanos[2]));
    }
}
