//! `serve-mix`: open-loop Poisson arrivals through `serve_cluster`, in
//! the serving layer's virtual time, over a fleet of seq2seq (f32),
//! speech (int8) and alexnet (f32).

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use fathom::{BuildConfig, FusionLevel, ModelKind};
use fathom_dataflow::{checkpoint, Device, RuntimeCounters};
use fathom_serve::{
    serve_cluster, synth_inputs, BatchResult, BatchRunner, ClusterConfig, ClusterReport,
    ClusterRunner, LatencyHistogram, ModelSpec, Request, ServeError, SessionWorker, ShedBreakdown,
    SloClass, SloPolicy,
};
use fathom_tensor::{Rng, Runtime, Tensor};

use crate::host;
use crate::report::{Outcome, SERVED};
use crate::stats::{median, tail_percentile};
use crate::trace::TraceAgg;
use crate::{ms_since, set_up_repeatedly, Args, INTER_OPS, INTRA_THREADS, SETUP_REPEATS};

/// Coalescing limit, and the batch extent every serving graph is built at.
const MAX_BATCH: usize = 4;
/// Shards per model, one replica each.
const SHARDS: usize = 2;
/// Pre-generated request payloads per model.
const PAYLOADS: usize = 64;
/// Full batches each replica runs during set-up.
const WARMUP_BATCHES: usize = 3;
/// Synthetic batches speech is calibrated on before int8 serving.
const CALIBRATION_BATCHES: usize = 4;
/// Virtual arrival window of one leg at the nominal rate. At 2500
/// requests per second it holds about 1250, enough for a p99 with ten
/// beyond it.
const NOMINAL_LEG_SECONDS: f64 = 0.5;
/// Share of `--seconds` the untraced run spends at the nominal rate;
/// the rest goes to the top rung.
const NOMINAL_SHARE: f64 = 0.6;
/// Virtual arrival window of each higher ladder rung.
const RUNG_SECONDS: f64 = 0.5;
/// Measured batch times per replica whose median is reported to the
/// serving layer as a batch's service time.
const SERVICE_WINDOW: usize = 9;
/// Every this many request ids, a served output is kept for replay.
const SAMPLE_EVERY: u64 = 61;
/// Most outputs kept per replica.
const SAMPLES_PER_REPLICA: usize = 12;
/// Latency limit on the reported tail for a rung to count as sustained.
const RUNG_P99_LIMIT_MS: f64 = 250.0;
/// Largest shed-plus-timed-out share for a rung to count as sustained.
const RUNG_FAIL_LIMIT: f64 = 0.01;

/// Offered rates in requests per second for each model, in [`SERVED`]
/// order. Against per-model batch-4 capacities of about 1900, 6300 and
/// 1800 rps (two replicas at measured batch times of 4.2, 1.3 and
/// 4.5 ms), the rungs sit at 0.25x (the nominal rate), 0.5x and 1.5x.
/// Short batches are padded, so the fleet sheds from about 0.8x: the
/// middle rung passes and the top one does not, each with a margin for
/// host noise. The nominal rate stays low because queueing amplifies
/// any drift in the batch times virtual latency is built from.
pub const LADDER: [[f64; 3]; 3] = [
    [475.0, 1575.0, 450.0],
    [950.0, 3150.0, 900.0],
    [2850.0, 9450.0, 2700.0],
];

/// The ladder's top rung, above the fleet's capacity.
const TOP: usize = LADDER.len() - 1;

/// Whether a model serves through the int8 path.
fn int8(kind: ModelKind) -> bool {
    kind == ModelKind::Speech
}

fn config(seed: u64, device: Device) -> BuildConfig {
    BuildConfig::inference()
        .with_seed(seed)
        .with_device(device)
        .with_batch(MAX_BATCH)
        .with_fusion_level(FusionLevel::Full)
}

/// A replica wrapper that times each batch, optionally traces it, and
/// keeps a sample of served outputs for the replay check.
///
/// The serving layer's virtual clock advances by each batch's reported
/// service time. The wrapper reports the median of this replica's last
/// [`SERVICE_WINDOW`] measured batch times rather than the last one
/// alone: on a shared host a batch is sometimes descheduled for several
/// times its compute, and queueing would turn each such stall into a
/// burst of late requests that says nothing about the program.
struct Timed {
    worker: SessionWorker,
    batch_ms: Vec<f64>,
    samples: Vec<(Vec<Tensor>, Tensor)>,
    agg: Option<TraceAgg>,
}

impl BatchRunner for Timed {
    fn capacity(&self) -> usize {
        self.worker.capacity()
    }

    fn run_batch(&mut self, reqs: &[&Request]) -> Result<BatchResult, ServeError> {
        if self.agg.is_some() {
            self.worker.workload_mut().session_mut().enable_tracing();
        }
        let t = Instant::now();
        let mut result = self.worker.run_batch(reqs);
        self.batch_ms.push(ms_since(t));
        if let Ok(r) = result.as_mut() {
            let recent = &self.batch_ms[self.batch_ms.len().saturating_sub(SERVICE_WINDOW)..];
            r.service_nanos = median(recent) * 1e6;
        }
        if let Some(agg) = self.agg.as_mut() {
            agg.add(&self.worker.workload_mut().session_mut().take_trace());
        }
        if let Ok(r) = &result {
            for (req, out) in reqs.iter().zip(&r.outputs) {
                if req.id % SAMPLE_EVERY == 0 && self.samples.len() < SAMPLES_PER_REPLICA {
                    self.samples.push((req.inputs.clone(), out.clone()));
                }
            }
        }
        result
    }

    fn recover(&mut self) -> Result<(), ServeError> {
        self.worker.recover()
    }

    fn runtime_counters(&self) -> RuntimeCounters {
        self.worker.runtime_counters()
    }
}

impl ClusterRunner for Timed {
    fn reload(&mut self, checkpoint: &[u8]) -> Result<(), ServeError> {
        self.worker.reload(checkpoint)
    }
}

/// The serving fleet and its request payloads.
struct Fleet {
    /// `replicas[m][s]`: model `m`'s replica in shard `s`.
    replicas: Vec<Vec<Timed>>,
    payloads: Vec<Vec<Vec<Tensor>>>,
    build_ms: Vec<f64>,
    calibrate_ms: f64,
}

/// Builds every replica, calibrates speech to int8 (its second replica
/// warm-starts from the first's calibrated checkpoint), generates the
/// payload pool from the seed, and warms each replica up.
fn set_up(seed: u64, rt: &Arc<Runtime>) -> Result<Fleet, ServeError> {
    let mut fleet = Fleet {
        replicas: Vec::new(),
        payloads: Vec::new(),
        build_ms: Vec::new(),
        calibrate_ms: 0.0,
    };
    for (m, kind) in SERVED.into_iter().enumerate() {
        let cfg = config(seed, Device::cpu_on_runtime(rt, INTRA_THREADS, INTER_OPS));
        let mut workers = Vec::new();
        let mut build_ms = Vec::new();
        for _ in 0..SHARDS {
            let t = Instant::now();
            workers.push(SessionWorker::new(kind, &cfg)?);
            build_ms.push(ms_since(t));
        }
        fleet.build_ms.push(median(&build_ms));
        let mut rng = Rng::seeded(seed ^ (0x5EED_0000 + m as u64));
        if int8(kind) {
            let t = Instant::now();
            workers[0].quantize(CALIBRATION_BATCHES, &mut rng)?;
            fleet.calibrate_ms = ms_since(t);
            let mut calibrated = Vec::new();
            checkpoint::save(workers[0].workload_mut().session(), &mut calibrated)?;
            for w in &mut workers[1..] {
                w.warm_start(calibrated.as_slice())?;
            }
        }
        let (shapes, domains) = (workers[0].item_shapes(), workers[0].domains());
        let payloads: Vec<Vec<Tensor>> = (0..PAYLOADS)
            .map(|_| synth_inputs(&shapes, &domains, &mut rng))
            .collect();
        for w in &mut workers {
            for b in 0..WARMUP_BATCHES {
                let reqs: Vec<Request> = (0..MAX_BATCH)
                    .map(|i| Request {
                        id: 0,
                        arrival: 0,
                        inputs: payloads[(b * MAX_BATCH + i) % PAYLOADS].clone(),
                    })
                    .collect();
                w.run_batch(&reqs.iter().collect::<Vec<_>>())?;
            }
        }
        fleet.payloads.push(payloads);
        fleet.replicas.push(
            workers
                .into_iter()
                .map(|worker| Timed {
                    worker,
                    batch_ms: Vec::new(),
                    samples: Vec::new(),
                    agg: None,
                })
                .collect(),
        );
    }
    Ok(fleet)
}

/// One `serve_cluster` call and what the benchmark timed around it.
struct Leg {
    report: ClusterReport,
    wall_ms: f64,
    synth_ms: f64,
    batch_ms: f64,
}

/// Serves one arrival window of `seconds` at `rates` (one per model).
fn leg(fleet: &mut Fleet, rates: &[f64; 3], seed: u64, seconds: f64) -> Result<Leg, ServeError> {
    let synth_nanos = Cell::new(0.0f64);
    let batch_ms_before: f64 = fleet
        .replicas
        .iter()
        .flatten()
        .map(|r| r.batch_ms.iter().sum::<f64>())
        .sum();
    let Fleet {
        replicas, payloads, ..
    } = fleet;
    let mut specs: Vec<ModelSpec<'_>> = replicas
        .iter_mut()
        .zip(payloads.iter())
        .zip(SERVED)
        .zip(rates)
        .map(|(((shards, pool), kind), &rps)| {
            let synth_nanos = &synth_nanos;
            ModelSpec {
                name: kind.name().to_string(),
                shards: shards
                    .iter_mut()
                    .map(|r| vec![r as &mut dyn ClusterRunner])
                    .collect(),
                rps,
                synth: Box::new(move |_rng: &mut Rng, id: u64| {
                    let t = Instant::now();
                    let payload = pool[id as usize % pool.len()].clone();
                    synth_nanos.set(synth_nanos.get() + t.elapsed().as_nanos() as f64);
                    payload
                }),
            }
        })
        .collect();
    let cfg = ClusterConfig {
        duration_nanos: (seconds * 1e9) as u64,
        seed,
        ..ClusterConfig::new(MAX_BATCH)
    };
    let t = Instant::now();
    let report = serve_cluster(&mut specs, &cfg)?;
    let wall_ms = ms_since(t);
    drop(specs);
    let batch_ms_after: f64 = fleet
        .replicas
        .iter()
        .flatten()
        .map(|r| r.batch_ms.iter().sum::<f64>())
        .sum();
    Ok(Leg {
        report,
        wall_ms,
        synth_ms: synth_nanos.get() / 1e6,
        batch_ms: batch_ms_after - batch_ms_before,
    })
}

/// Latency of every completed request, all classes.
fn all_latency(report: &ClusterReport) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for c in &report.per_class {
        h.merge(&c.latency);
    }
    h
}

/// Latency of model `m`'s completed requests, all classes.
fn model_latency(report: &ClusterReport, m: usize) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for c in &report.models[m].per_class {
        h.merge(&c.latency);
    }
    h
}

/// How one ladder rung went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// p99 latency of completed requests, ms (virtual).
    pub p99_ms: f64,
    /// Shed plus timed out, over issued.
    pub fail_frac: f64,
}

impl Rung {
    /// The rung as served over `legs`.
    fn pooled<'a>(legs: impl IntoIterator<Item = &'a Leg>) -> Rung {
        let (mut latency, mut issued, mut lost) = (LatencyHistogram::new(), 0, 0);
        for l in legs {
            latency.merge(&all_latency(&l.report));
            issued += l.report.issued();
            lost += l.report.shed() + l.report.timed_out();
        }
        Rung {
            p99_ms: latency.quantile(0.99) / 1e6,
            fail_frac: lost as f64 / issued.max(1) as f64,
        }
    }

    /// Whether the fleet sustained this rung.
    pub fn sustained(&self) -> bool {
        self.p99_ms <= RUNG_P99_LIMIT_MS && self.fail_frac <= RUNG_FAIL_LIMIT
    }
}

/// Index of the highest rung the fleet sustained, if any.
pub fn max_sustained(rungs: &[Rung]) -> Option<usize> {
    rungs.iter().rposition(Rung::sustained)
}

/// Completed requests whose latency is within `limit_nanos`.
fn count_within(h: &LatencyHistogram, limit_nanos: f64) -> usize {
    let n = h.count();
    // The sample at rank k is quantile((k - 0.5) / n); find the largest
    // k whose sample is within the limit.
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if h.quantile((mid as f64 - 0.5) / n as f64) <= limit_nanos {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Requests completed within their class deadline, per virtual second
/// of a `seconds` arrival window.
fn goodput_rps(report: &ClusterReport, seconds: f64) -> f64 {
    let slo = SloPolicy::default_serving();
    let good: usize = SloClass::ALL
        .iter()
        .map(|&c| {
            let h = &report.per_class[c.idx()].latency;
            match slo.deadline(c) {
                Some(d) => count_within(h, d as f64),
                None => h.count(),
            }
        })
        .sum();
    good as f64 / seconds
}

/// Serves legs of `seconds` at `rates` until `until_s` seconds have
/// passed since `since` (at least one leg), checking each leg's report
/// for conservation.
fn legs_until(
    fleet: &mut Fleet,
    rates: &[f64; 3],
    seconds: f64,
    since: Instant,
    until_s: f64,
    next_seed: &mut impl FnMut() -> u64,
    out: &mut Outcome,
) -> Result<Vec<Leg>, ServeError> {
    let mut legs = Vec::new();
    while legs.is_empty() || since.elapsed().as_secs_f64() < until_s {
        let l = leg(fleet, rates, next_seed(), seconds)?;
        out.check(l.report.conserved(), || {
            format!("cluster report does not conserve requests: {:?}", l.report)
        });
        legs.push(l);
    }
    Ok(legs)
}

/// Counts the requests of nominal-rate legs as attempted operations,
/// and the shed and timed-out ones as failed.
fn count_requests(legs: &[Leg], out: &mut Outcome) {
    for l in legs {
        out.attempted += l.report.issued();
        out.failed += l.report.shed() + l.report.timed_out();
    }
}

/// Median over `legs` of `f`.
fn over_legs(legs: &[Leg], f: impl Fn(&Leg) -> f64) -> f64 {
    median(&legs.iter().map(f).collect::<Vec<_>>())
}

/// Runs the serving workload.
pub fn run(args: &Args, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_checked(args, started, &mut out) {
        out.check(false, || format!("serving failed: {e}"));
    }
    out
}

fn run_checked(args: &Args, started: Instant, out: &mut Outcome) -> Result<(), ServeError> {
    let rt = Arc::new(Runtime::new(INTRA_THREADS.max(INTER_OPS)));
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (mut fleet, setup_s) = set_up_repeatedly(repeats, started, || set_up(args.seed, &rt))?;
    out.fact("setup.repeats", repeats);
    out.fact("precision", "seq2seq f32, speech int8, alexnet f32");
    out.fact(
        "fleet",
        format!(
            "{SHARDS} shards x 1 replica per model, max_batch {MAX_BATCH}, continuous batching"
        ),
    );
    out.fact(
        "ladder_rps",
        format!("{LADDER:?} (seq2seq, speech, alexnet per rung)"),
    );
    out.fact(
        "leg_virtual_s",
        format!("nominal {NOMINAL_LEG_SECONDS}, higher rungs {RUNG_SECONDS}"),
    );
    out.fact(
        "generator_lateness_ms",
        "0 by construction: arrivals are exact in virtual time",
    );

    let mut legs_run = 0u64;
    let mut next_seed = || {
        legs_run += 1;
        args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ legs_run
    };
    if args.trace {
        traced(args, &mut fleet, &mut next_seed, out)?;
    } else {
        measured(args, &mut fleet, &setup_s, &mut next_seed, out)?;
    }
    replay_check(args.seed, &mut fleet, out)
}

/// The untraced run: nominal legs for [`NOMINAL_SHARE`] of `--seconds`,
/// then top-rung legs for the rest.
fn measured(
    args: &Args,
    fleet: &mut Fleet,
    setup_s: &[f64],
    next_seed: &mut impl FnMut() -> u64,
    out: &mut Outcome,
) -> Result<(), ServeError> {
    let start = Instant::now();
    let nominal_s = NOMINAL_SHARE * args.seconds;
    let nominal = legs_until(
        fleet,
        &LADDER[0],
        NOMINAL_LEG_SECONDS,
        start,
        nominal_s,
        next_seed,
        out,
    )?;
    count_requests(&nominal, out);
    let top = legs_until(
        fleet,
        &LADDER[TOP],
        RUNG_SECONDS,
        start,
        args.seconds,
        next_seed,
        out,
    )?;
    // Every figure is taken per leg and reported as the median over
    // legs, so a host stall during one leg does not set the run's value.
    let fewest = nominal
        .iter()
        .map(|l| l.report.completed())
        .min()
        .unwrap_or(0);
    let tail_p = tail_percentile(fewest as usize, 99.0).unwrap_or(100.0);
    out.put("setup_s", median(setup_s));
    out.put("peak_rss_mb", host::peak_rss_mb());
    // Speech carries most requests at a third of the others' batch
    // time, so the median over all requests falls in the sparse gap
    // between the models' latency modes; each model's own median is
    // taken instead, with the three weighted equally.
    let model_p50 = |m: usize| {
        over_legs(&nominal, |l| {
            model_latency(&l.report, m).quantile(0.5) / 1e6
        })
    };
    out.put(
        "p50_ms",
        (0..SERVED.len()).map(model_p50).sum::<f64>() / SERVED.len() as f64,
    );
    out.put(
        "tail_ms",
        over_legs(&nominal, |l| {
            all_latency(&l.report).quantile(tail_p / 100.0) / 1e6
        }),
    );
    out.put(
        "wall_us_per_item",
        over_legs(&nominal, |l| {
            l.wall_ms * 1e3 / l.report.issued().max(1) as f64
        }),
    );
    out.put(
        "rate_per_s",
        over_legs(&top, |l| goodput_rps(&l.report, RUNG_SECONDS)),
    );
    out.fact("nominal_legs", nominal.len());
    out.fact("top_legs", top.len());
    out.fact("tail_ms.percentile", tail_p);
    out.fact("latency.samples_per_leg.min", fewest);
    out.fact("label.peak_rss_mb", "measured VmHWM at the end of the run");
    out.fact("label.p50_ms", "virtual-time latency at the nominal rate, with each batch's service time the median of its replica's last 9 measured batch times: each model's p50 per leg, median over legs, mean over the three models");
    out.fact("label.tail_ms", "virtual-time latency of all requests at the nominal rate, service times as for p50_ms: per leg the highest percentile up to p99 with >= 10 requests beyond it, median over legs");
    out.fact(
        "label.wall_us_per_item",
        "measured wall time of a nominal serve_cluster call per request issued, median over legs",
    );
    out.fact("label.rate_per_s", "goodput on the top rung: requests completed within their class deadline per virtual second, median over legs");
    Ok(())
}

/// The traced run: untraced then traced nominal legs, one leg on the
/// middle rung, then top-rung legs.
fn traced(
    args: &Args,
    fleet: &mut Fleet,
    next_seed: &mut impl FnMut() -> u64,
    out: &mut Outcome,
) -> Result<(), ServeError> {
    // Untraced nominal legs: batch times, batching, spill and loop self
    // time. The wrappers have timed no batch before these legs.
    let start = Instant::now();
    let secs = args.seconds;
    let plain = legs_until(
        fleet,
        &LADDER[0],
        NOMINAL_LEG_SECONDS,
        start,
        0.3 * secs,
        next_seed,
        out,
    )?;
    count_requests(&plain, out);
    let issued: u64 = plain.iter().map(|l| l.report.issued()).sum();
    let per_req = |f: &dyn Fn(&Leg) -> f64| plain.iter().map(f).sum::<f64>() / issued as f64;
    for (m, kind) in SERVED.iter().enumerate() {
        let times: Vec<f64> = fleet.replicas[m]
            .iter()
            .flat_map(|r| r.batch_ms.iter().copied())
            .collect();
        out.put(format!("serve.batch_ms.{kind}"), median(&times));
        let batches: u64 = plain.iter().map(|l| l.report.models[m].batches).sum();
        let carried: u64 = plain
            .iter()
            .map(|l| l.report.models[m].batched_requests)
            .sum();
        out.put(
            format!("serve.mean_batch.{kind}"),
            carried as f64 / batches.max(1) as f64,
        );
        out.put(format!("core.build_ms.{kind}"), fleet.build_ms[m]);
    }
    out.put("serve.calibrate_ms", fleet.calibrate_ms);
    out.put(
        "serve.loop_self_us_per_req",
        per_req(&|l| l.wall_ms - l.batch_ms - l.synth_ms) * 1e3,
    );
    out.put("serve.spill_frac", per_req(&|l| l.report.spilled() as f64));
    out.put("data.batch_ms", per_req(&|l| l.synth_ms) * 1e3);

    // Traced nominal legs: op classes, launches and runtime counters per
    // thousand requests.
    for r in fleet.replicas.iter_mut().flatten() {
        r.agg = Some(TraceAgg::default());
    }
    let recycle_before: Vec<_> = fleet
        .replicas
        .iter_mut()
        .flatten()
        .map(|r| r.worker.workload_mut().session().recycle_stats())
        .collect();
    let traced = legs_until(
        fleet,
        &LADDER[0],
        NOMINAL_LEG_SECONDS,
        start,
        0.6 * secs,
        next_seed,
        out,
    )?;
    count_requests(&traced, out);
    let traced_issued: u64 = traced.iter().map(|l| l.report.issued()).sum();
    let traced_wall: f64 = traced.iter().map(|l| l.wall_ms).sum();
    let mut agg = TraceAgg::default();
    let (mut hits, mut lookups, mut arena) = (0u64, 0u64, 0u64);
    for (r, before) in fleet.replicas.iter_mut().flatten().zip(&recycle_before) {
        // Invariant: every replica got an aggregator above.
        let a = r.agg.take().expect("traced replica");
        agg.merge(&a);
        let session = r.worker.workload_mut().session();
        let now = session.recycle_stats();
        hits += now.hits - before.hits;
        lookups += (now.hits + now.misses) - (before.hits + before.misses);
        arena += session.runtime_counters().arena_bytes;
    }
    agg.put(out, traced_issued as f64 / 1e3);
    out.put("runtime.arena_mb", arena as f64 / (1 << 20) as f64);
    out.put(
        "recycle.hit_rate",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    out.put(
        "trace.overhead",
        (traced_wall / traced_issued as f64) / per_req(&|l| l.wall_ms) - 1.0,
    );

    // The ladder: the middle rung once, then the top rung's shed
    // reasons and interactive tail.
    let middle = legs_until(
        fleet,
        &LADDER[1],
        RUNG_SECONDS,
        Instant::now(),
        0.0,
        next_seed,
        out,
    )?;
    let top = legs_until(
        fleet,
        &LADDER[TOP],
        RUNG_SECONDS,
        start,
        secs,
        next_seed,
        out,
    )?;
    let rungs = [
        Rung::pooled(&plain),
        Rung::pooled(&middle),
        Rung::pooled(&top),
    ];
    let max_rps = max_sustained(&rungs).map_or(0.0, |i| LADDER[i].iter().sum());
    out.put("serve.max_rps", max_rps);
    out.fact("rungs", format!("{rungs:?}"));
    let (mut shed, mut issued_top) = (ShedBreakdown::default(), 0u64);
    let mut interactive = LatencyHistogram::new();
    for l in &top {
        shed.merge(&l.report.shed_reasons());
        issued_top += l.report.issued();
        interactive.merge(&l.report.per_class[SloClass::Interactive.idx()].latency);
    }
    let n = issued_top.max(1) as f64;
    out.put("serve.shed_frac.queue_full", shed.queue_full as f64 / n);
    out.put(
        "serve.shed_frac.deadline_infeasible",
        shed.deadline_infeasible as f64 / n,
    );
    out.put(
        "serve.shed_frac.priority_evicted",
        shed.priority_evicted as f64 / n,
    );
    out.put("serve.interactive_p99_ms", interactive.quantile(0.99) / 1e6);

    let t = Instant::now();
    for r in fleet.replicas.iter_mut().flatten() {
        let mut bytes = Vec::new();
        checkpoint::save(r.worker.workload_mut().session(), &mut bytes)?;
    }
    out.put("checkpoint.save_ms", ms_since(t));
    Ok(())
}

/// Replays each kept output as a batch of one through a serial
/// reference worker of the same precision (warm-started from a served
/// replica's checkpoint) and checks the outputs match bit for bit.
fn replay_check(seed: u64, fleet: &mut Fleet, out: &mut Outcome) -> Result<(), ServeError> {
    for (m, kind) in SERVED.into_iter().enumerate() {
        let mut served = Vec::new();
        checkpoint::save(
            fleet.replicas[m][0].worker.workload_mut().session(),
            &mut served,
        )?;
        let mut reference = SessionWorker::new(kind, &config(seed, Device::cpu(1)))?;
        reference.warm_start(served.as_slice())?;
        out.check(reference.is_quantized() == int8(kind), || {
            format!("{kind}: reference precision differs")
        });
        for r in &fleet.replicas[m] {
            for (i, (inputs, output)) in r.samples.iter().enumerate() {
                let req = Request {
                    id: i as u64,
                    arrival: 0,
                    inputs: inputs.clone(),
                };
                let replay = reference.run_batch(&[&req])?;
                let same = replay.outputs[0]
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(output.data().iter().map(|x| x.to_bits()));
                out.check(same && output.all_finite(), || {
                    format!("{kind}: served output {i} differs from its batch-of-one replay")
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(p99_ms: f64, fail_frac: f64) -> Rung {
        Rung { p99_ms, fail_frac }
    }

    #[test]
    fn max_sustained_picks_the_highest_rung_within_both_limits() {
        let ladder = [rung(7.0, 0.0), rung(40.0, 0.004), rung(900.0, 0.3)];
        assert_eq!(max_sustained(&ladder), Some(1));
        // p99 exactly at the limit and 1% failed still count as sustained.
        assert_eq!(max_sustained(&[rung(250.0, 0.01)]), Some(0));
        // Either limit alone disqualifies a rung.
        assert_eq!(max_sustained(&[rung(251.0, 0.0)]), None);
        assert_eq!(max_sustained(&[rung(5.0, 0.011)]), None);
        // The highest sustained rung wins even above a failed one.
        let bumpy = [rung(7.0, 0.0), rung(300.0, 0.0), rung(20.0, 0.0)];
        assert_eq!(max_sustained(&bumpy), Some(2));
        assert_eq!(max_sustained(&[]), None);
    }

    #[test]
    fn ladder_rises_on_every_model() {
        for pair in LADDER.windows(2) {
            assert!(
                pair[0].iter().zip(&pair[1]).all(|(lo, hi)| lo < hi),
                "{pair:?}"
            );
        }
    }

    #[test]
    fn count_within_counts_samples_at_or_below_the_limit() {
        let mut h = LatencyHistogram::new();
        for x in [5.0, 1.0, 3.0, 3.0, 9.0] {
            h.record(x);
        }
        assert_eq!(count_within(&h, 0.5), 0);
        assert_eq!(count_within(&h, 3.0), 3);
        assert_eq!(count_within(&h, 8.9), 4);
        assert_eq!(count_within(&h, 9.0), 5);
        assert_eq!(count_within(&LatencyHistogram::new(), 1.0), 0);
    }
}
