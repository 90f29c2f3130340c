//! The htd benchmark: three workloads that drive the `htd` binary and
//! the `htdserve` wire protocol, their end-to-end metrics, and a
//! per-layer ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload lot-cold --seed 2015 --seconds 30 --trace 0
//! ```
//!
//! Run from the root of a checkout; the benchmark builds `htd` there.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the human-readable log goes to
//! standard error. See `benchmark/README.md` for the metrics and the
//! reasons behind each workload.

mod check;
mod ledger;
mod loadgen;
mod lot;
mod percentile;
mod proc;
mod serve;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use check::Ops;
use proc::Htd;

/// The seeded generator behind every benchmark input (suspect order,
/// arrivals, request mix). SplitMix64: tiny, and its stream is fixed
/// forever, so a seed means the same inputs on every commit.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every operation attempted and failed.
    pub ops: Ops,
    /// Checks outside the operations that failed: set-up outputs that
    /// differ, counts that do not repeat, a ledger that does not match
    /// the program's own counters.
    pub broken: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a failed check that is not an operation.
    pub fn broken(&mut self, why: impl Into<String>) {
        self.broken.push(why.into());
    }
}

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    /// The `htd` binary and the run's scratch directory.
    pub htd: Htd,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the timed part of the run measures.
    pub seconds: Duration,
}

impl Ctx {
    /// A path in the run's scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.htd.scratch.join(name)
    }
}

/// `String`-ified arguments for [`Htd::run`].
pub fn args<const N: usize>(items: [&str; N]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["lot-cold", "lot-averaging", "serve-mixed"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 2015u64;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Renders a metric value as a JSON number with every digit.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn run(cli: &Cli, root: &Path) -> Result<Report, String> {
    // The benchmark needs the repository around it; with only its own
    // files present it refuses before doing anything.
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err("run from the root of an htd checkout".into());
    }
    let bin = proc::build_htd(root).map_err(|e| e.to_string())?;
    let scratch = root.join(".bench_work").join(format!(
        "{}-{}-{}",
        cli.workload,
        cli.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        htd: Htd {
            bin,
            scratch: scratch.clone(),
        },
        seed: cli.seed,
        seconds: Duration::from_secs(cli.seconds),
    };
    let result = match cli.workload.as_str() {
        "serve-mixed" => serve::run(&ctx, cli.trace),
        "lot-cold" => lot::run(&ctx, &lot::LOT_COLD, cli.trace),
        _ => lot::run(&ctx, &lot::LOT_AVERAGING, cli.trace),
    };
    std::fs::remove_dir_all(&scratch).ok();
    // Leaves `.bench_work` only while another run still uses it.
    std::fs::remove_dir(root.join(".bench_work")).ok();
    result
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cli, &root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for why in report.ops.reasons().iter().chain(&report.broken) {
        eprintln!("FAILED: {why}");
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.ops.failed == 0 && report.broken.is_empty() && finite;
    println!("{}", result_line(correct, &report.ops, &report.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let mut ops = Ops::default();
        ops.record(true, String::new);
        let line = result_line(
            true,
            &ops,
            &[metric("setup_s", 0.8127, "s"), metric("p50_ms", 1.25, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let parsed = htd_obs::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.as_obj("result").expect("object").len(), 4);
    }

    #[test]
    fn splitmix_is_a_fixed_stream() {
        let mut a = SplitMix::new(2015);
        let mut b = SplitMix::new(2015);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items = [1, 2, 3, 4, 5];
        SplitMix::new(1).shuffle(&mut items);
        let mut sorted = items;
        sorted.sort();
        assert_eq!(sorted, [1, 2, 3, 4, 5]);
        assert!((0..1000).all(|_| a.below(7) < 7));
    }
}
