//! `train-conv` and `train-seq`: a closed loop with one caller, each
//! round one training step of each of four models.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use fathom::{BuildConfig, FusionLevel, ModelKind, Workload};
use fathom_dataflow::{checkpoint, Device};
use fathom_tensor::Runtime;

use crate::host;
use crate::report::Outcome;
use crate::stats::{median, tail, windows};
use crate::trace::TraceAgg;
use crate::{ms_since, set_up_repeatedly, Args, INTER_OPS, INTRA_THREADS, SETUP_REPEATS};

/// The paper's convolutional cluster.
pub const CONV: [ModelKind; 4] = [
    ModelKind::Alexnet,
    ModelKind::Vgg,
    ModelKind::Residual,
    ModelKind::Deepq,
];
/// The paper's other cluster.
pub const SEQ: [ModelKind; 4] = [
    ModelKind::Seq2Seq,
    ModelKind::Memnet,
    ModelKind::Speech,
    ModelKind::Autoenc,
];

/// Steps each model takes during set-up, before timing starts.
const WARMUP_STEPS: usize = 3;
/// Leading warm-up steps replayed on a serial device for the bitwise check.
const REPLAY_STEPS: usize = 2;
/// Tail percentile reported: a 30 s run of train-conv holds about 180
/// rounds, enough for p90 but not p95.
const TAIL_CAP: f64 = 90.0;
/// Fewest rounds per window: the smallest sample with ten rounds beyond
/// its p90.
const TAIL_WINDOW: usize = 100;
/// Timed rounds after which `peak_rss_mb` is read. deepq's replay
/// buffer grows with every step, so reading after a fixed amount of
/// work keeps a faster program from being charged for running more.
const RSS_ROUNDS: usize = 20;

/// The training build: reference scale, f32, full fusion.
fn config(seed: u64, device: Device) -> BuildConfig {
    BuildConfig::training()
        .with_seed(seed)
        .with_device(device)
        .with_fusion_level(FusionLevel::Full)
}

/// Built, warmed-up models.
struct Fleet {
    models: Vec<Box<dyn Workload>>,
    build_ms: Vec<f64>,
    warm_losses: Vec<Vec<Option<f32>>>,
}

/// Builds each model on the shared runtime and takes its warm-up steps.
fn set_up(kinds: &[ModelKind], seed: u64, rt: &Arc<Runtime>, out: &mut Outcome) -> Fleet {
    let mut fleet = Fleet {
        models: Vec::new(),
        build_ms: Vec::new(),
        warm_losses: Vec::new(),
    };
    for &kind in kinds {
        let t = Instant::now();
        let mut model = kind.build(&config(
            seed,
            Device::cpu_on_runtime(rt, INTRA_THREADS, INTER_OPS),
        ));
        fleet.build_ms.push(ms_since(t));
        let losses = (0..WARMUP_STEPS)
            .map(|_| step(model.as_mut(), out))
            .collect();
        fleet.warm_losses.push(losses);
        fleet.models.push(model);
    }
    fleet
}

/// One checked training step; returns its loss.
fn step(model: &mut dyn Workload, out: &mut Outcome) -> Option<f32> {
    match model.try_step() {
        Ok(s) => {
            let finite = s.loss.is_none_or(f32::is_finite);
            out.check(finite, || {
                format!("{}: non-finite loss {:?}", model.name(), s.loss)
            });
            s.loss
        }
        Err(e) => {
            out.check(false, || format!("{}: step failed: {e}", model.name()));
            None
        }
    }
}

/// Per-round and per-step wall times of one leg.
#[derive(Default)]
struct Leg {
    round_ms: Vec<f64>,
    step_ms: Vec<Vec<f64>>,
    /// Peak RSS after [`RSS_ROUNDS`] rounds (or the whole leg if shorter).
    rss_mb: f64,
    /// Per round, the time of one `skip_batch` on every twin.
    data_ms: Vec<f64>,
}

/// Runs rounds for `seconds` (at least `min_rounds`). With `agg`, every
/// step is traced into it; with `twins`, each round also times one
/// `skip_batch` per twin.
fn leg(
    models: &mut [Box<dyn Workload>],
    seconds: f64,
    min_rounds: usize,
    mut agg: Option<&mut TraceAgg>,
    twins: &mut [Box<dyn Workload>],
    out: &mut Outcome,
) -> Leg {
    let mut leg = Leg {
        step_ms: vec![Vec::new(); models.len()],
        ..Leg::default()
    };
    let start = Instant::now();
    while leg.round_ms.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let round = Instant::now();
        for (i, model) in models.iter_mut().enumerate() {
            if agg.is_some() {
                model.session_mut().enable_tracing();
            }
            let t = Instant::now();
            step(model.as_mut(), out);
            leg.step_ms[i].push(ms_since(t));
            if let Some(agg) = agg.as_deref_mut() {
                agg.add(&model.session_mut().take_trace());
            }
        }
        leg.round_ms.push(ms_since(round));
        if leg.round_ms.len() == RSS_ROUNDS {
            leg.rss_mb = host::peak_rss_mb();
        }
        if !twins.is_empty() {
            let t = Instant::now();
            for twin in twins.iter_mut() {
                twin.skip_batch();
            }
            leg.data_ms.push(ms_since(t));
        }
    }
    if leg.round_ms.len() < RSS_ROUNDS {
        leg.rss_mb = host::peak_rss_mb();
    }
    leg
}

/// Replays each model's leading warm-up steps on `Device::cpu(1)` and
/// checks the losses match bit for bit.
fn replay_check(kinds: &[ModelKind], seed: u64, fleet: &Fleet, out: &mut Outcome) {
    for (k, &kind) in kinds.iter().enumerate() {
        let mut serial = kind.build(&config(seed, Device::cpu(1)));
        for s in 0..REPLAY_STEPS {
            let got = step(serial.as_mut(), out).map(f32::to_bits);
            let want = fleet.warm_losses[k][s].map(f32::to_bits);
            out.check(got == want, || {
                format!("{kind}: warm-up loss {s} is {want:?} on 2 workers, {got:?} serially")
            });
        }
    }
}

/// Runs one training workload over `kinds`.
pub fn run(kinds: &[ModelKind], args: &Args, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let rt = Arc::new(Runtime::new(INTRA_THREADS.max(INTER_OPS)));
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let Ok::<_, Infallible>((mut fleet, setup_s)) = set_up_repeatedly(repeats, started, || {
        Ok(set_up(kinds, args.seed, &rt, &mut out))
    });
    out.fact("setup.repeats", repeats);
    out.fact("warmup_steps", WARMUP_STEPS);

    if args.trace {
        traced(kinds, args, &mut fleet, &mut out);
    } else {
        measured(kinds, args, &mut fleet, &setup_s, &mut out);
    }
    replay_check(kinds, args.seed, &fleet, &mut out);
    out
}

/// The untraced run: rounds on 2 workers for `--seconds`.
fn measured(
    kinds: &[ModelKind],
    args: &Args,
    fleet: &mut Fleet,
    setup_s: &[f64],
    out: &mut Outcome,
) {
    let leg = leg(&mut fleet.models, args.seconds, 1, None, &mut [], out);
    // Each figure is taken per window of at least TAIL_WINDOW rounds and
    // reported as the median over windows, so a host stall during part
    // of the run does not set the run's value.
    let windows = windows(&leg.round_ms, TAIL_WINDOW);
    let over_windows =
        |f: &dyn Fn(&[f64]) -> f64| median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>());
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    let steps = kinds.len() as f64;
    out.put("setup_s", median(setup_s));
    out.put("peak_rss_mb", leg.rss_mb);
    out.put("p50_ms", over_windows(&|w| median(w)));
    out.put("tail_ms", over_windows(&|w| tail(w, TAIL_CAP).value));
    out.put("wall_us_per_item", over_windows(&|w| mean(w) * 1e3 / steps));
    out.put("rate_per_s", over_windows(&|w| steps * 1e3 / mean(w)));
    out.fact("rounds", leg.round_ms.len());
    out.fact("windows", windows.len());
    out.fact("tail_ms.percentile", tail(windows[0], TAIL_CAP).percentile);
    out.fact(
        "label.peak_rss_mb",
        format!("measured VmHWM after set-up and {RSS_ROUNDS} timed rounds"),
    );
    out.fact(
        "label.p50_ms",
        "measured wall time of one round (one step of each model): median per window of >= 100 rounds, median over windows",
    );
    out.fact(
        "label.tail_ms",
        "measured wall time of one round: p90 per window of >= 100 rounds (the rule: highest percentile up to p90 with >= 10 rounds beyond it), median over windows",
    );
    out.fact(
        "label.wall_us_per_item",
        "measured mean wall time per training step, per window, median over windows",
    );
    out.fact(
        "label.rate_per_s",
        "measured training steps per second of round time, per window, median over windows",
    );
}

/// The traced run: an untraced and a traced leg on 2 workers, then an
/// untraced and a traced leg on one worker.
fn traced(kinds: &[ModelKind], args: &Args, fleet: &mut Fleet, out: &mut Outcome) {
    let secs = args.seconds;
    let plain = leg(&mut fleet.models, 0.35 * secs, 3, None, &mut [], out);

    // Twins draw the same batches as the timed models without running
    // them, so data synthesis is timed apart from the step it feeds.
    let mut twins: Vec<Box<dyn Workload>> = kinds
        .iter()
        .map(|k| {
            let mut twin = k.build(&config(args.seed, Device::cpu(1)));
            for _ in 0..WARMUP_STEPS {
                step(twin.as_mut(), out);
            }
            twin
        })
        .collect();
    let recycle_before: Vec<_> = fleet
        .models
        .iter()
        .map(|m| m.session().recycle_stats())
        .collect();
    let mut agg = TraceAgg::default();
    let traced_leg = leg(
        &mut fleet.models,
        0.35 * secs,
        3,
        Some(&mut agg),
        &mut twins,
        out,
    );
    drop(twins);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (m, before) in fleet.models.iter().zip(&recycle_before) {
        let now = m.session().recycle_stats();
        hits += now.hits - before.hits;
        lookups += (now.hits + now.misses) - (before.hits + before.misses);
    }
    let arena: u64 = fleet
        .models
        .iter()
        .map(|m| m.session().runtime_counters().arena_bytes)
        .sum();

    for model in fleet.models.iter_mut() {
        model.session_mut().set_device(Device::cpu(1));
        step(model.as_mut(), out);
    }
    let serial = leg(&mut fleet.models, 0.15 * secs, 3, None, &mut [], out);
    let mut serial_agg = TraceAgg::default();
    let serial_traced = leg(
        &mut fleet.models,
        0.15 * secs,
        3,
        Some(&mut serial_agg),
        &mut [],
        out,
    );

    for (i, k) in kinds.iter().enumerate() {
        let step_p50 = median(&plain.step_ms[i]);
        out.put(format!("core.step_ms.{k}"), step_p50);
        out.put(format!("core.build_ms.{k}"), fleet.build_ms[i]);
        out.put(
            format!("runtime.speedup_2w.{k}"),
            median(&serial.step_ms[i]) / step_p50,
        );
    }
    let rounds = traced_leg.round_ms.len() as f64;
    agg.put(out, rounds);
    let data = median(&traced_leg.data_ms);
    out.put("data.batch_ms", data);
    let serial_rounds = serial_traced.round_ms.len() as f64;
    let serial_self_ms =
        (serial_traced.round_ms.iter().sum::<f64>() - serial_agg.op_nanos() / 1e6) / serial_rounds;
    out.put("dataflow.exec_self_ms", serial_self_ms - data);
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
        median(&traced_leg.round_ms) / median(&plain.round_ms) - 1.0,
    );

    let t = Instant::now();
    for model in &fleet.models {
        let mut bytes = Vec::new();
        let saved = checkpoint::save(model.session(), &mut bytes);
        out.check(saved.is_ok(), || {
            format!("{}: checkpoint save failed: {saved:?}", model.name())
        });
    }
    out.put("checkpoint.save_ms", ms_since(t));

    out.fact("rounds.plain", plain.round_ms.len());
    out.fact("rounds.traced", traced_leg.round_ms.len());
    out.fact("rounds.serial", serial.round_ms.len());
    out.fact("rounds.serial_traced", serial_traced.round_ms.len());
}
