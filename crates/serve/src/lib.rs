//! `fathom-serve` — batched inference serving for the Fathom workloads.
//!
//! The paper frames its workloads as *reference benchmarks* for both
//! training and deployment; this crate adds the deployment half's
//! missing piece: a serving layer that coalesces independent inference
//! requests into the minibatches the graphs are built for, with the
//! admission-control and observability machinery a real model server
//! needs. It is deliberately framework-free and reuses the suite's own
//! substrate end to end:
//!
//! * [`worker::SessionWorker`] — one pre-built inference [`Session`]
//!   (with the inter-op executor and buffer recycling from
//!   `fathom-dataflow`) per replica, packing and splitting request
//!   tensors via `fathom_dataflow::batch` along each workload's declared
//!   [`BatchSpec`](fathom::BatchSpec);
//! * [`cluster::serve_cluster`] — the one deterministic virtual-time
//!   serving loop: multiple models, each behind a group of shards, with
//!   consistent-hash routing and load-aware spill ([`router::Router`]),
//!   per-request SLO classes and deadline-aware admission
//!   ([`slo::SloClass`]), continuous batching versus fixed rounds
//!   ([`cluster::BatchPolicy`]), open- or closed-loop load, bounded
//!   queues, graceful drain, and zero-drop hot model reload from a v2
//!   checkpoint ([`cluster::ReloadPlan`]). Single-model serving is a
//!   one-model, one-shard cluster with fixed rounds;
//! * [`cluster::ClusterReport`] — per-class and per-model latency
//!   quantiles, shed/timeout counters with typed shed reasons, batch
//!   shape, queue depth, and op-class time slices fed from the session
//!   trace ([`metrics::LatencyHistogram`] keeps exact quantiles);
//! * supervised recovery — a failed replica is quarantined with
//!   exponential backoff and rebuilt from its checkpoint, its in-flight
//!   batch retries on a healthy replica, and
//!   [`metrics::RecoveryCounters`] account for every crash. The
//!   [`chaos::FaultyRunner`] wrapper drives all of it deterministically
//!   from a seeded [`FaultPlan`](fathom_dataflow::FaultPlan).
//!
//! The correctness contract is *batch independence*: a request's output
//! is bitwise identical whether it rode in a batch of one or a full
//! batch (verified for all eight workloads in `tests/serving.rs`).
//!
//! [`Session`]: fathom_dataflow::Session

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod metrics;
pub mod router;
pub mod slo;
pub mod worker;

pub use chaos::FaultyRunner;
pub use cluster::{
    serve_cluster, BatchPolicy, ClassStats, ClosedLoop, ClusterConfig, ClusterReport,
    ClusterRunner, ModelReport, ModelSpec, RecoveryPolicy, ReloadPlan, SynthFn,
};
pub use metrics::{LatencyHistogram, RecoveryCounters, ShedBreakdown};
pub use router::{HashRing, Placement, Router};
pub use slo::{SloClass, SloMix, SloPolicy};
pub use worker::{synth_inputs, BatchResult, BatchRunner, Request, ServeError, SessionWorker};
