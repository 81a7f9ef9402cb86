//! Inter-op scheduler ablation: training-step wall time vs inter-op
//! worker count, across all eight workloads.
//!
//! Worker counts the host can actually run (`workers <= cores`) are
//! measured with the real dependency-counting executor
//! ([`Device::cpu_inter_op`]); counts beyond the host's cores are modeled
//! by replaying a traced serial step through the greedy list scheduler in
//! [`fathom_dataflow::sched::modeled_makespan`] — the same
//! measure-or-model split as the intra-op sweeps (`fig6`). Besides the
//! human-readable table, the experiment emits machine-readable
//! `BENCH_scheduler.json` (median per-workload step time at each worker
//! count) into both `target/fathom-results/` and the repository root so
//! the perf trajectory is tracked across PRs.

use std::fmt::Write as _;
use std::time::Instant;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::{sched, Device};

use crate::{median, write_artifact, Effort};

/// Inter-op worker counts swept.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One (worker count, median step time) sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerPoint {
    /// Inter-op workers.
    pub workers: usize,
    /// Median training-step wall time, milliseconds.
    pub millis: f64,
    /// `false` when measured with the real parallel executor, `true`
    /// when projected by the makespan model.
    pub modeled: bool,
}

/// The sweep for one workload.
#[derive(Debug, Clone)]
pub struct SchedulerSweep {
    /// Workload name.
    pub workload: &'static str,
    /// One point per entry of [`WORKERS`].
    pub points: Vec<SchedulerPoint>,
}

impl SchedulerSweep {
    /// Serial-to-widest speedup (t[1 worker] / t[max workers]).
    pub fn speedup(&self) -> f64 {
        let serial = self.points.first().map_or(0.0, |p| p.millis);
        let widest = self.points.last().map_or(0.0, |p| p.millis);
        if widest > 0.0 { serial / widest } else { 0.0 }
    }
}

/// Median step wall time (ms) of a freshly built training workload on
/// `device`.
fn measure_median_ms(kind: ModelKind, device: Device, effort: &Effort) -> f64 {
    let cfg = BuildConfig::training().with_device(device);
    let mut workload = kind.build(&cfg);
    for _ in 0..effort.warmup {
        workload.step();
    }
    let mut samples: Vec<f64> = (0..effort.steps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            workload.step();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// Modeled serial→`workers` time ratios from one traced serial step,
/// one entry per requested worker count.
///
/// A workload step may issue several `Session::run` calls; the trace is
/// grouped by run and the per-run makespans are summed, so each ratio
/// covers the whole step. The step is traced once and shared across
/// worker counts, so the ratios are mutually consistent (monotone up to
/// model ties) rather than perturbed by per-count timing noise.
fn modeled_ratios(kind: ModelKind, workers: &[usize], effort: &Effort) -> Vec<f64> {
    if workers.is_empty() {
        return Vec::new();
    }
    let cfg = BuildConfig::training().with_device(Device::cpu(1));
    let mut workload = kind.build(&cfg);
    for _ in 0..effort.warmup {
        workload.step();
    }
    workload.session_mut().enable_tracing();
    workload.step();
    let trace = workload.session_mut().take_trace();
    let graph = workload.session().graph();
    let mut runs: Vec<&[fathom_dataflow::trace::TraceEvent]> = Vec::new();
    let mut start = 0;
    while start < trace.events.len() {
        let run_step = trace.events[start].step;
        let mut end = start;
        while end < trace.events.len() && trace.events[end].step == run_step {
            end += 1;
        }
        runs.push(&trace.events[start..end]);
        start = end;
    }
    let serial_total: f64 = runs.iter().map(|run| sched::modeled_makespan(graph, run, 1)).sum();
    workers
        .iter()
        .map(|&w| {
            let parallel_total: f64 =
                runs.iter().map(|run| sched::modeled_makespan(graph, run, w)).sum();
            if serial_total > 0.0 {
                parallel_total / serial_total
            } else {
                1.0
            }
        })
        .collect()
}

/// Sweeps one workload over [`WORKERS`].
pub fn sweep(kind: ModelKind, effort: &Effort) -> SchedulerSweep {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial_ms = measure_median_ms(kind, Device::cpu(1), effort);
    let modeled_counts: Vec<usize> = WORKERS.iter().copied().filter(|&w| w > 1 && w > cores).collect();
    let ratios = modeled_ratios(kind, &modeled_counts, effort);
    let points = WORKERS
        .iter()
        .map(|&w| {
            if w == 1 {
                SchedulerPoint { workers: w, millis: serial_ms, modeled: false }
            } else if w <= cores {
                let ms = measure_median_ms(kind, Device::cpu_inter_op(1, w), effort);
                SchedulerPoint { workers: w, millis: ms, modeled: false }
            } else {
                let at = modeled_counts.iter().position(|&c| c == w).expect("counted above");
                SchedulerPoint { workers: w, millis: serial_ms * ratios[at], modeled: true }
            }
        })
        .collect();
    SchedulerSweep { workload: kind.name(), points }
}

/// Renders the sweeps as `BENCH_scheduler.json` (written by hand; the
/// suite carries no JSON dependency).
pub fn to_json(sweeps: &[SchedulerSweep], host_cores: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"ablation_scheduler\",\n");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "  \"workers\": [{}],",
        WORKERS.map(|w| w.to_string()).join(", ")
    );
    out.push_str("  \"workloads\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{}\", \"steps\": [", s.workload);
        for (j, p) in s.points.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"workers\": {}, \"millis\": {:.4}, \"mode\": \"{}\"}}",
                p.workers,
                p.millis,
                if p.modeled { "modeled" } else { "measured" }
            );
        }
        let _ = write!(out, "], \"speedup_at_{}\": {:.3}}}", WORKERS[WORKERS.len() - 1], s.speedup());
        out.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the scheduler ablation over every workload.
pub fn run(effort: &Effort) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: training-step time vs inter-op workers (ms/step, median)\n\
         (host has {cores} core(s); worker counts beyond that use the greedy\n\
         list-scheduling makespan model over a traced serial step -- see DESIGN.md)\n"
    );
    let _ = write!(out, "{:<12}", "workload");
    for w in WORKERS {
        let _ = write!(out, " {:>10}", format!("{w}w"));
    }
    let _ = writeln!(out, " {:>9}", "speedup");
    let sweeps: Vec<SchedulerSweep> = ModelKind::ALL.iter().map(|&k| sweep(k, effort)).collect();
    for s in &sweeps {
        let _ = write!(out, "{:<12}", s.workload);
        for p in &s.points {
            let _ = write!(out, " {:>9.2}{}", p.millis, if p.modeled { "*" } else { " " });
        }
        let _ = writeln!(out, " {:>8.2}x", s.speedup());
    }
    let at_goal = sweeps.iter().filter(|s| s.speedup() >= 1.3).count();
    let _ = writeln!(
        out,
        "\n(* = modeled)  workloads at >=1.30x with {} workers: {}/{}",
        WORKERS[WORKERS.len() - 1],
        at_goal,
        sweeps.len()
    );
    let json = to_json(&sweeps, cores);
    write_artifact("BENCH_scheduler.json", &json);
    // Also drop it at the repository root, where the PR driver tracks it.
    let repo_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(repo_root.join("BENCH_scheduler.json"), &json)
        .expect("can write BENCH_scheduler.json at the repo root");
    write_artifact("ablation_scheduler.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_worker_count() {
        let s = sweep(ModelKind::Memnet, &Effort::quick());
        assert_eq!(s.points.len(), WORKERS.len());
        for (p, &w) in s.points.iter().zip(WORKERS.iter()) {
            assert_eq!(p.workers, w);
            assert!(p.millis > 0.0);
        }
        assert!(!s.points[0].modeled, "the serial baseline is always measured");
    }

    #[test]
    fn json_shape() {
        let sweeps = vec![SchedulerSweep {
            workload: "memnet",
            points: vec![
                SchedulerPoint { workers: 1, millis: 10.0, modeled: false },
                SchedulerPoint { workers: 8, millis: 5.0, modeled: true },
            ],
        }];
        let json = to_json(&sweeps, 1);
        assert!(json.contains("\"experiment\": \"ablation_scheduler\""));
        assert!(json.contains("\"name\": \"memnet\""));
        assert!(json.contains("\"mode\": \"modeled\""));
        assert!(json.contains("\"speedup_at_8\": 2.000"));
    }

}
