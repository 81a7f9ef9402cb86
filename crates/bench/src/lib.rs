//! Benchmark harness regenerating every table and figure of the Fathom
//! paper's evaluation (§II Table I, §IV Table II, §V Figures 1-6).
//!
//! Each experiment lives in [`experiments`] as a `run(&Effort) -> String`
//! function that prints the same rows/series the paper reports and writes
//! CSV under `target/fathom-results/`. The `benches/` targets (run via
//! `cargo bench -p fathom-bench`) are thin wrappers over these functions;
//! see EXPERIMENTS.md for the paper-vs-measured record.

#![warn(missing_docs)]

pub mod experiments;

use std::path::PathBuf;

/// How much work each experiment performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Untraced warm-up steps per configuration.
    pub warmup: usize,
    /// Measured steps per configuration.
    pub steps: usize,
    /// Interleaved repetitions of each timed configuration; experiments
    /// that honor this keep the best (minimum) median across repeats,
    /// which rejects transient host slowdowns a single pass would bake
    /// into one leg of an A/B comparison.
    pub repeats: usize,
}

impl Effort {
    /// The default effort used by `cargo bench`.
    pub fn standard() -> Self {
        Effort { warmup: 1, steps: 4, repeats: 1 }
    }

    /// A minimal effort for smoke tests (1 step, no warm-up).
    pub fn quick() -> Self {
        Effort { warmup: 0, steps: 1, repeats: 1 }
    }

    /// Reads `FATHOM_STEPS` / `FATHOM_WARMUP` / `FATHOM_REPEATS`
    /// overrides from the environment, falling back to
    /// [`Effort::standard`].
    pub fn from_env() -> Self {
        let mut e = Effort::standard();
        if let Ok(s) = std::env::var("FATHOM_STEPS") {
            if let Ok(v) = s.parse() {
                e.steps = v;
            }
        }
        if let Ok(s) = std::env::var("FATHOM_WARMUP") {
            if let Ok(v) = s.parse() {
                e.warmup = v;
            }
        }
        if let Ok(s) = std::env::var("FATHOM_REPEATS") {
            if let Ok(v) = s.parse::<usize>() {
                e.repeats = v.max(1);
            }
        }
        e
    }
}

impl Default for Effort {
    fn default() -> Self {
        Effort::standard()
    }
}

/// Directory where experiments drop their CSV artifacts
/// (`target/fathom-results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/fathom-results");
    std::fs::create_dir_all(&dir).expect("can create results directory");
    dir
}

/// Writes an artifact file into [`results_dir`], returning its path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("can write results artifact");
    path
}

/// Median of a sample set (mean of the middle two for even sizes, 0
/// when empty). Sorts in place by `f64::total_cmp`, so a NaN sample
/// sorts to an end instead of panicking the sort.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        // A NaN sample (a broken timer) sorts last rather than panicking.
        assert_eq!(median(&mut [f64::NAN, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn effort_defaults() {
        assert_eq!(Effort::standard().steps, 4);
        assert_eq!(Effort::quick().steps, 1);
    }

    #[test]
    fn artifacts_round_trip() {
        let path = write_artifact("test_artifact.txt", "hello");
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
    }
}
