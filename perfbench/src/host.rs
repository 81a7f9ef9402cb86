//! What the numbers were measured on: CPU, cores, ISA features, peak
//! memory, and the source revision.

use std::collections::BTreeMap;
use std::fs;

/// ISA features the kernels dispatch on (bf16 GEMM, int8 dot products).
const ISA_FLAGS: [&str; 3] = ["avx512_bf16", "avx512_vnni", "amx_int8"];

/// Host facts for the record line.
pub fn record() -> BTreeMap<String, String> {
    let mut r = BTreeMap::new();
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    r.insert(
        "cpu_model".into(),
        field("model name").unwrap_or_else(|| "unknown".into()),
    );
    let flags = field("flags").unwrap_or_default();
    for f in ISA_FLAGS {
        let has = flags.split_whitespace().any(|x| x == f);
        r.insert(format!("isa.{f}"), has.to_string());
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.insert("nproc".into(), nproc.to_string());
    r.insert(
        "git_revision".into(),
        git_revision().unwrap_or_else(|| "unknown (not a git checkout)".into()),
    );
    r
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git.
fn git_revision() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
