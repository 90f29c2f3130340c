//! The lot workloads: characterize one golden lot (set-up), then score
//! the same suspects against it again and again (the timed operations).

use std::time::{Duration, Instant};

use crate::check::{fn_err_pp, fused_fn_rates};
use crate::percentile::{median, nearest_rank, sorted, tail};
use crate::traced::{layer_metrics, run_op, ScoreOp, ServeLayers};
use crate::{args, metric, Ctx, Report, SplitMix};

/// Shape of a lot workload.
#[derive(Debug)]
pub struct LotShape {
    /// `htd characterize --mode`.
    pub mode: &'static str,
    /// Dies of the golden (and of every suspect) lot.
    pub dies: usize,
    /// Delay-sweep (plaintext, key) pairs.
    pub pairs: usize,
    /// Sweep repetitions per pair.
    pub reps: usize,
}

/// A score operation slower than this misses its latency limit: three
/// operations' worth on the reference machine (≈0.7 s per `lot-cold`
/// score, ≈0.5 s per `lot-averaging` score).
const LIMIT: Duration = Duration::from_secs(3);

/// Many dies, few pairs and repetitions: every (design, die, pair) is
/// simulated once, so replay, binning, convolution, annotation and
/// settle dominate.
pub const LOT_COLD: LotShape = LotShape {
    mode: "golden",
    dies: 32,
    pairs: 2,
    reps: 2,
};

/// Few dies, few pairs, many repetitions, reference-free scoring: after
/// the first repetition every cache hits, and the per-repetition sweep
/// read-out, the metrics and the repetition fan-out do the work. Four
/// pairs rather than one: with one, which pair the seed draws sways
/// `fn_err_pp` by ±20 % from seed to seed; four halve that at the same
/// number of sweeps.
pub const LOT_AVERAGING: LotShape = LotShape {
    mode: "reference-free",
    dies: 8,
    pairs: 4,
    reps: 512,
};

/// Suspects scored by every operation; their order comes from the seed.
const SUSPECTS: [&str; 4] = ["ht1", "ht2", "ht3", "ht-seq"];

/// Campaign worker count of every timed operation.
const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Timed operations per run, at least, however short `--seconds` is.
const MIN_OPS: usize = 3;

/// Runs a lot workload: end-to-end metrics, or with `trace` the
/// per-layer ledger.
pub fn run(ctx: &Ctx, shape: &LotShape, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut suspects: Vec<String> = SUSPECTS.iter().map(|s| s.to_string()).collect();
    SplitMix::new(ctx.seed).shuffle(&mut suspects);
    let mut peak_kb = 0u64;

    // Set-up: characterize the golden lot, several times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut goldens = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let out = ctx.path(&format!("golden-{k}.htd"));
        let run = ctx
            .htd
            .run(
                &[
                    args(["characterize", "--out"]),
                    vec![out.display().to_string()],
                    args(["--mode", shape.mode, "--channels", "em,delay"]),
                    vec![
                        "--dies".into(),
                        shape.dies.to_string(),
                        "--pairs".into(),
                        shape.pairs.to_string(),
                        "--reps".into(),
                        shape.reps.to_string(),
                        "--seed".into(),
                        ctx.seed.to_string(),
                        "--workers".into(),
                        WORKERS.to_string(),
                    ],
                ]
                .concat(),
            )
            .map_err(|e| format!("htd characterize: {e}"))?;
        if !run.exit.success() {
            return Err(format!("htd characterize failed: {}", run.stderr.trim()));
        }
        peak_kb = peak_kb.max(run.exit.peak_rss_kb);
        setups.push(run.wall.as_secs_f64());
        goldens.push(std::fs::read(&out).map_err(|e| e.to_string())?);
    }
    if goldens.iter().any(|g| g != &goldens[0]) {
        report.broken("repeated characterizations wrote different artifacts");
    }
    // The expected report: a serial score, untimed and outside set-up.
    let reference = ctx.path("reference.htd");
    let mut op = ScoreOp {
        golden: ctx.path("golden-0.htd"),
        suspects,
        expected: Vec::new(),
    };
    let run = ctx
        .htd
        .run(&op.args(1, &reference.display().to_string()))
        .map_err(|e| format!("htd score: {e}"))?;
    if !run.exit.success() {
        return Err(format!("reference score failed: {}", run.stderr.trim()));
    }
    peak_kb = peak_kb.max(run.exit.peak_rss_kb);
    op.expected = std::fs::read(&reference).map_err(|e| e.to_string())?;
    let fn_err = fn_err_pp(&fused_fn_rates(&String::from_utf8_lossy(&op.expected)))
        .ok_or("the reference report has no paper trojan rows")?;

    if trace {
        report.metrics = layer_metrics(
            ctx,
            &mut report,
            std::slice::from_ref(&op),
            WORKERS,
            ctx.seconds,
            ServeLayers::default(),
        )?;
        return Ok(report);
    }

    // Timed operations: closed loop, one at a time.
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_OPS || started.elapsed() < ctx.seconds {
        let (wall, kb) = run_op(ctx, &mut report, &op, WORKERS, &[])?;
        peak_kb = peak_kb.max(kb);
        walls.push(wall.as_secs_f64());
    }

    let op_s = median(&walls).ok_or("no operations")?;
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let p50 = nearest_rank(&sorted(&ms), 0.5).unwrap_or(0.0);
    let tail = tail(&ms).ok_or("no operations")?;
    let limit_ms = LIMIT.as_secs_f64() * 1e3;
    let within = ms.iter().filter(|&&m| m <= limit_ms).count();
    // One closed-loop client never builds a backlog; the highest rate it
    // sustains within the limit is its completion rate.
    let max_rps = if tail.value <= limit_ms {
        1.0 / op_s
    } else {
        0.0
    };
    eprintln!(
        "{} ops, p50 {p50:.1} ms, tail p{:.1} of n={} = {:.1} ms, limit {limit_ms} ms",
        walls.len(),
        100.0 * tail.q,
        tail.n,
        tail.value
    );
    report.metrics = vec![
        metric("setup_s", median(&setups).unwrap_or(0.0), "s"),
        metric(
            "score_dies_per_s",
            (shape.dies * op.suspects.len()) as f64 / op_s,
            "dies/s",
        ),
        metric("peak_rss_mb", peak_kb as f64 / 1024.0, "MiB"),
        metric("ops_ok_pct", report.ops.ok_pct(), "%"),
        metric("fn_err_pp", fn_err, "pp"),
        metric("p50_ms", p50, "ms"),
        metric("tail_ms", tail.value, "ms"),
        metric("slo_pct", 100.0 * within as f64 / ms.len() as f64, "%"),
        metric("max_rps", max_rps, "1/s"),
    ];
    Ok(report)
}
