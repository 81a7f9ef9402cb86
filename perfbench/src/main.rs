//! The fathom-rs benchmark: three workloads driven through the public
//! APIs of `fathom`, `fathom-dataflow`, `fathom-tensor` and
//! `fathom-serve` in one process. See README.md for usage.

mod host;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use report::{expected, json_object, result_line, Outcome};

/// Workers of the one shared runtime (config, not read from the host).
pub const INTRA_THREADS: usize = 2;
/// Operations a session may run at once on that runtime.
pub const INTER_OPS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["train-conv", "train-seq", "serve-mix"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Emit per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <train-conv|train-seq|serve-mix> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --smoke";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                kv.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Sets up `repeats` times (at least once), dropping each result before
/// the next, and returns the last with every set-up's duration in
/// seconds. The first is timed from `started`, the process start.
pub fn set_up_repeatedly<T, E>(
    repeats: usize,
    started: Instant,
    mut set_up: impl FnMut() -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut secs = Vec::new();
    let mut last = None;
    for r in 0..repeats.max(1) {
        let t = if r == 0 { started } else { Instant::now() };
        drop(last.take());
        last = Some(set_up()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    // Invariant: the loop ran at least once.
    Ok((last.expect("at least one set-up"), secs))
}

/// Runs one workload and returns its outcome with every expected metric
/// present: per-layer metrics of layers the workload does not run are
/// 0 and listed under `not_exercised`.
fn run(args: &Args, started: Instant) -> Outcome {
    let mut out = match args.workload.as_str() {
        "train-conv" => train::run(&train::CONV, args, started),
        "train-seq" => train::run(&train::SEQ, args, started),
        _ => serve::run(args, started),
    };
    let mut idle = Vec::new();
    for (name, _) in expected(args.trace) {
        if !out.metrics.contains_key(&name) {
            assert!(args.trace, "end-to-end metric {name} was not measured");
            out.put(name.clone(), 0.0);
            idle.push(name);
        }
    }
    if !idle.is_empty() {
        out.fact("not_exercised", idle.join(" "));
    }
    out
}

/// The config and host facts every output carries.
fn record(args: &Args, out: &Outcome) -> BTreeMap<String, String> {
    let mut r = host::record();
    r.insert("workload".into(), args.workload.clone());
    r.insert("seed".into(), args.seed.to_string());
    r.insert("seconds".into(), args.seconds.to_string());
    r.insert("trace".into(), args.trace.to_string());
    r.insert(
        "runtime_workers".into(),
        INTRA_THREADS.max(INTER_OPS).to_string(),
    );
    r.insert(
        "device".into(),
        format!("cpu_on_runtime(intra {INTRA_THREADS}, inter_ops {INTER_OPS})"),
    );
    r.insert("fusion".into(), "Full".into());
    r.insert("scale".into(), "Reference".into());
    if args.trace {
        r.insert(
            "label.per_layer".into(),
            "measured wall time, trace nanos and counters; serve.interactive_p99_ms is virtual time, each batch taking the median of its replica's last 9 measured batch times".into(),
        );
    }
    r.extend(out.facts.clone());
    r
}

/// Prints the human-readable lines, the record and the result line.
fn emit(args: &Args, out: &Outcome) -> bool {
    // Shed or timed-out requests count as failed operations, but only a
    // missed output check makes the run incorrect.
    let correct = out.misses.is_empty();
    for miss in &out.misses {
        println!("check failed: {miss}");
    }
    let metrics: Vec<(String, &str, f64)> = expected(args.trace)
        .into_iter()
        .map(|(name, unit)| {
            let v = out.metrics[&name];
            (name, unit, v)
        })
        .collect();
    for (name, unit, value) in &metrics {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<40} {:>14.4} ratio  ({} of {} checked operations)",
        "fail_frac", fail_frac, out.failed, out.attempted
    );
    println!("{{\"record\": {}}}", json_object(&record(args, out)));
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &metrics)
    );
    correct
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--smoke"] {
        return smoke();
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args, started);
    if emit(&args, &out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload briefly in both modes and checks that the
/// emitted names and units match `BENCHMARK.json`.
fn smoke() -> ExitCode {
    let declared = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot read BENCHMARK.json in the working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let mut want = declared_metrics(&declared, section);
        want.sort();
        let units: BTreeMap<String, &str> = expected(trace).into_iter().collect();
        for workload in WORKLOADS {
            let args = Args {
                workload: workload.into(),
                seed: 1,
                seconds: 0.5,
                trace,
            };
            let out = run(&args, Instant::now());
            let got: Vec<(String, String)> = out
                .metrics
                .keys()
                .map(|n| (n.clone(), units.get(n).unwrap_or(&"undeclared").to_string()))
                .collect();
            let same = got == want;
            println!(
                "smoke {workload:<10} {section:<10} {} metrics, {}",
                got.len(),
                if same { "match" } else { "MISMATCH" }
            );
            if !out.misses.is_empty() {
                println!("smoke {workload}: check(s) failed: {:?}", out.misses);
            }
            ok &= same && out.misses.is_empty();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// in file order. The file is this benchmark's own and flat enough that
/// scanning for the section's `"name"`/`"unit"` pairs suffices.
fn declared_metrics(json: &str, section: &str) -> Vec<(String, String)> {
    let Some(start) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let end = body.find(']').unwrap_or(body.len());
    let string_after = |s: &str, key: &str| -> Option<String> {
        let at = s.find(&format!("\"{key}\""))?;
        let rest = &s[at + key.len() + 2..];
        let open = rest.find('"')?;
        let close = rest[open + 1..].find('"')?;
        Some(rest[open + 1..open + 1 + close].to_string())
    };
    body[..end]
        .split('{')
        .skip(1)
        .filter_map(|obj| Some((string_after(obj, "name")?, string_after(obj, "unit")?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload serve-mix --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, true)
        );
        assert!(parse(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload train-seq --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload train-seq --seed 7 --trace 0")).is_err());
        assert!(parse(&argv("--workload train-seq --seed 7 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for trace in [false, true] {
            let section = if trace { "per_layer" } else { "end_to_end" };
            let want: Vec<(String, String)> = expected(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            assert_eq!(declared_metrics(&json, section), want, "{section}");
        }
    }

    #[test]
    fn set_up_repeats_and_keeps_the_last() {
        let mut n = 0;
        let (last, secs) = set_up_repeatedly(3, Instant::now(), || {
            n += 1;
            Ok::<_, ()>(n)
        })
        .expect("no error");
        assert_eq!((last, secs.len()), (3, 3));
        let failed = set_up_repeatedly(3, Instant::now(), || Err::<u8, _>("boom"));
        assert_eq!(failed.err(), Some("boom"));
    }

    #[test]
    fn section_scanner_reads_names_and_units() {
        let json = r#"{"end_to_end": [{"name": "a", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "b", "unit": "1/s", "better": "higher", "bound": 0.2}], "per_layer": [{"name": "c", "unit": "count", "better": "lower"}]}"#;
        assert_eq!(
            declared_metrics(json, "end_to_end"),
            vec![
                ("a".to_string(), "ms".to_string()),
                ("b".to_string(), "1/s".to_string())
            ]
        );
        assert_eq!(
            declared_metrics(json, "per_layer"),
            vec![("c".to_string(), "count".to_string())]
        );
    }
}
