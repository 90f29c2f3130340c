//! The traced run: per-layer metrics of a workload's scoring
//! operations.
//!
//! Each round runs every operation four ways — serial and untraced (the
//! time the ledger must explain), through the ledger (layer self
//! times), traced with `--metrics`/`--trace` (the program's own
//! counters, cache and pool statistics) and untraced at the workload's
//! worker count (for the tracing overhead) — and every output is
//! checked. Rounds repeat until the time budget is spent; each metric
//! is the median over rounds, per operation.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use htd_core::{Design, Lab, ProgrammedDevice};
use htd_obs::RunManifest;
use htd_serve::protocol::{Request, Response};
use htd_store::ScorableArtifact;
use htd_trojan::TrojanSpec;

use crate::ledger::{replay_score, Counts, Ledger};
use crate::percentile::median;
use crate::{metric, Ctx, Metric, Report};

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("aes.elaborate_ms", "ms"),
    ("trojan.insert_ms", "ms"),
    ("fabric.die_us", "us"),
    ("timing.annotate_ms", "ms"),
    ("timing.compile_ms", "ms"),
    ("timing.replay_ms", "ms"),
    ("timing.replay_events", "count"),
    ("timing.replay_ns_per_event", "ns"),
    ("timing.settle_ms", "ms"),
    ("timing.sweep_ms", "ms"),
    ("em.activity_ms", "ms"),
    ("em.bin_ms", "ms"),
    ("em.convolve_ms", "ms"),
    ("em.events_binned", "count"),
    ("em.read_out_us", "us"),
    ("core.acquire_cold_ms", "ms"),
    ("core.acquire_warm_us", "us"),
    ("core.activity_hit_ratio", "ratio"),
    ("core.settle_hit_ratio", "ratio"),
    ("stats.metric_us", "us"),
    ("stats.fit_us", "us"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.bytes", "bytes"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.result_hit_ratio", "ratio"),
    ("serve.batch_size", "count"),
    ("serve.busy", "count"),
    ("serve.queue_depth_max", "count"),
    ("par.occupancy", "ratio"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.late_ms", "ms"),
    ("ledger.unattributed_pct", "%"),
    ("ledger.op_ms", "ms"),
];

/// Ledger spans and the per-layer metric each one feeds, with the
/// factor from seconds to the metric's unit.
const SPANS: [(&str, &str, f64); 15] = [
    ("aes.elaborate", "aes.elaborate_ms", 1e3),
    ("trojan.insert", "trojan.insert_ms", 1e3),
    ("fabric.die", "fabric.die_us", 1e6),
    ("timing.annotate", "timing.annotate_ms", 1e3),
    ("timing.compile", "timing.compile_ms", 1e3),
    ("timing.replay", "timing.replay_ms", 1e3),
    ("timing.settle", "timing.settle_ms", 1e3),
    ("timing.sweep", "timing.sweep_ms", 1e3),
    ("em.activity", "em.activity_ms", 1e3),
    ("em.bin", "em.bin_ms", 1e3),
    ("em.convolve", "em.convolve_ms", 1e3),
    ("em.read_out", "em.read_out_us", 1e6),
    ("stats.metric", "stats.metric_us", 1e6),
    ("stats.fit", "stats.fit_us", 1e6),
    ("store.load", "store.load_ms", 1e3),
];

/// One `htd score` operation of a workload.
#[derive(Debug, Clone)]
pub struct ScoreOp {
    /// The golden (or reference-free) artifact scored against.
    pub golden: PathBuf,
    /// Suspect tokens, in campaign order.
    pub suspects: Vec<String>,
    /// The report the operation must write, byte for byte.
    pub expected: Vec<u8>,
}

impl ScoreOp {
    /// `htd score` arguments for this operation.
    pub fn args(&self, workers: usize, report: &str) -> Vec<String> {
        vec![
            "score".into(),
            "--golden".into(),
            self.golden.display().to_string(),
            "--trojans".into(),
            self.suspects.join(","),
            "--report".into(),
            report.into(),
            "--workers".into(),
            workers.to_string(),
        ]
    }
}

/// Runs `op` through `htd`, records it as one operation judged against
/// its expected report, and returns its wall time and peak RSS (KiB).
pub fn run_op(
    ctx: &Ctx,
    report: &mut Report,
    op: &ScoreOp,
    workers: usize,
    extra: &[String],
) -> Result<(Duration, u64), String> {
    let out = ctx.path("op-report.htd");
    std::fs::remove_file(&out).ok();
    let mut args = op.args(workers, &out.display().to_string());
    args.extend_from_slice(extra);
    let run = ctx.htd.run(&args).map_err(|e| format!("htd score: {e}"))?;
    let written = if run.exit.success() {
        std::fs::read(&out).ok()
    } else {
        None
    };
    let what = format!(
        "score {} (exit {:?}) {}",
        op.suspects.join(","),
        run.exit.code,
        run.stderr.trim()
    );
    report.ops.judge(&what, written.as_deref(), &op.expected);
    Ok((run.wall, run.exit.peak_rss_kb))
}

/// Serve-side per-layer values measured by the caller (zero where the
/// workload runs no server): `serve.result_hit_ratio`,
/// `serve.batch_size`, `serve.busy`, `serve.queue_depth_max` and
/// `loadgen.late_ms`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    pub result_hit_ratio: f64,
    pub batch_size: f64,
    pub busy: f64,
    pub queue_depth_max: f64,
    pub late_ms: f64,
}

/// A counter of a run manifest, 0 when absent.
pub fn counter(m: &RunManifest, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Hits over lookups, 0 when there were none.
pub fn ratio(hit: u64, miss: u64) -> f64 {
    if hit + miss == 0 {
        0.0
    } else {
        hit as f64 / (hit + miss) as f64
    }
}

/// Times the encoding and parsing of the frames that would carry `op`
/// over the wire (request and response, per suspect); returns
/// (encode, parse) per frame pair.
fn framing(op: &ScoreOp, plan: &str) -> Result<(Duration, Duration), String> {
    const REPEAT: u32 = 64;
    let report = String::from_utf8(op.expected.clone()).map_err(|e| e.to_string())?;
    let frames: Vec<(Request, Response)> = op
        .suspects
        .iter()
        .map(|s| {
            (
                Request::Score {
                    golden: op.golden.display().to_string(),
                    suspect: s.clone(),
                    model: None,
                    request: None,
                },
                Response::Score {
                    plan: plan.to_string(),
                    suspect: s.clone(),
                    request: None,
                    report: report.clone(),
                },
            )
        })
        .collect();
    let start = Instant::now();
    let mut texts = Vec::new();
    for _ in 0..REPEAT {
        texts.clear();
        for (req, resp) in &frames {
            texts.push(std::hint::black_box((req.to_text(), resp.to_text())));
        }
    }
    let encode = start.elapsed();
    let start = Instant::now();
    for _ in 0..REPEAT {
        for (req, resp) in &texts {
            let r = Request::parse(req).map_err(|e| e.to_string())?;
            let p = Response::parse(resp).map_err(|e| e.to_string())?;
            std::hint::black_box((r, p));
        }
    }
    let parse = start.elapsed();
    let per = REPEAT * frames.len() as u32;
    Ok((encode / per, parse / per))
}

/// First (cold) and repeated (warm) EM acquisition of die 0 of the
/// first suspect of `op`, through the program's cached device path.
fn acquire_probe(lab: &Lab, op: &ScoreOp) -> Result<(Duration, Duration), String> {
    let text = std::fs::read_to_string(&op.golden).map_err(|e| e.to_string())?;
    let artifact = ScorableArtifact::from_text_at(&text, "golden").map_err(|e| e.to_string())?;
    let plan = artifact.plan();
    let token = op.suspects.first().ok_or("no suspects")?;
    let spec = TrojanSpec::from_token(token).ok_or(format!("unknown suspect {token}"))?;
    let design = Design::infected(lab, &spec).map_err(|e| e.to_string())?;
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(lab, &design, &die);
    let start = Instant::now();
    dev.acquire_em_trace(&plan.pt, &plan.key, 1)
        .map_err(|e| e.to_string())?;
    let cold = start.elapsed();
    let start = Instant::now();
    dev.acquire_em_trace(&plan.pt, &plan.key, 2)
        .map_err(|e| e.to_string())?;
    Ok((cold, start.elapsed()))
}

/// Saves the golden artifact of `op` through the store (into scratch)
/// and returns the time and the bytes written.
fn save_probe(ctx: &Ctx, op: &ScoreOp) -> Result<(Duration, u64), String> {
    let text = std::fs::read_to_string(&op.golden).map_err(|e| e.to_string())?;
    let artifact = ScorableArtifact::from_text_at(&text, "golden").map_err(|e| e.to_string())?;
    let out = ctx.path("saved.htd");
    let start = Instant::now();
    match &artifact {
        ScorableArtifact::Golden(a) => htd_store::save(&out, a),
        ScorableArtifact::ReferenceFree(a) => htd_store::save(&out, a),
    }
    .map_err(|e| e.to_string())?;
    let took = start.elapsed();
    let bytes = std::fs::metadata(&out).map_err(|e| e.to_string())?.len();
    Ok((took, bytes))
}

/// Runs rounds over `ops` until `budget` is spent (at least one round)
/// and returns every per-layer metric, `serve` filling the serve-side
/// ones. `workers` is the workload's campaign worker count.
pub fn layer_metrics(
    ctx: &Ctx,
    report: &mut Report,
    ops: &[ScoreOp],
    workers: usize,
    budget: Duration,
    serve: ServeLayers,
) -> Result<Vec<Metric>, String> {
    let lab = Lab::paper();
    let n_ops = ops.len() as f64;
    let metrics_path = ctx.path("op-metrics.json");
    let trace_path = ctx.path("op-trace.json");
    let traced_args = vec![
        "--metrics".to_string(),
        metrics_path.display().to_string(),
        "--trace".to_string(),
        trace_path.display().to_string(),
    ];
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_counts: Option<Counts> = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed() < budget {
        let mut ledger = Ledger::default();
        let mut counts = Counts::default();
        let (mut serial, mut traced, mut plain) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut binned = 0u64;
        let (mut act, mut settle) = ((0u64, 0u64), (0u64, 0u64));
        let (mut items, mut slots) = (0u64, 0u64);
        let (mut encode, mut parse) = (Duration::ZERO, Duration::ZERO);
        for op in ops {
            serial += run_op(ctx, report, op, 1, &[])?.0;
            replay_score(&mut ledger, &lab, &op.golden, &op.suspects, &mut counts)?;
            traced += run_op(ctx, report, op, workers, &traced_args)?.0;
            plain += run_op(ctx, report, op, workers, &[])?.0;
            let text = std::fs::read_to_string(&metrics_path).map_err(|e| e.to_string())?;
            let m = RunManifest::parse(&text).map_err(|e| e.to_string())?;
            binned += counter(&m, "acquire.events.binned");
            act.0 += counter(&m, "cache.activity.hit");
            act.1 += counter(&m, "cache.activity.miss");
            settle.0 += counter(&m, "cache.settle.hit");
            settle.1 += counter(&m, "cache.settle.miss");
            for o in &m.occupancy {
                items += o.items.iter().sum::<u64>();
                slots += workers as u64 * o.items.iter().copied().max().unwrap_or(0);
            }
            let (e, p) = framing(op, &m.plan_digest)?;
            encode += e;
            parse += p;
        }
        if counts.events_binned != binned {
            report.broken(format!(
                "ledger binned {} events, the program {binned}",
                counts.events_binned
            ));
        }
        match first_counts {
            None => first_counts = Some(counts),
            Some(first) if first != counts => {
                report.broken(format!("replay counts changed: {first:?} then {counts:?}"))
            }
            Some(_) => {}
        }
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, name, scale) in SPANS {
            let total = ledger
                .layers()
                .get(span)
                .map(|l| l.total)
                .unwrap_or_default();
            v.insert(name, total.as_secs_f64() * scale / n_ops);
        }
        let replay_ns = ledger
            .layers()
            .get("timing.replay")
            .map(|l| l.total.as_secs_f64() * 1e9)
            .unwrap_or(0.0);
        v.insert("timing.replay_events", counts.replay_events as f64 / n_ops);
        v.insert(
            "timing.replay_ns_per_event",
            replay_ns / (counts.replay_events.max(1) as f64),
        );
        v.insert("em.events_binned", counts.events_binned as f64 / n_ops);
        let (cold, warm) = acquire_probe(&lab, &ops[0])?;
        v.insert("core.acquire_cold_ms", cold.as_secs_f64() * 1e3);
        v.insert("core.acquire_warm_us", warm.as_secs_f64() * 1e6);
        v.insert("core.activity_hit_ratio", ratio(act.0, act.1));
        v.insert("core.settle_hit_ratio", ratio(settle.0, settle.1));
        let (save, bytes) = save_probe(ctx, &ops[0])?;
        v.insert("store.save_ms", save.as_secs_f64() * 1e3);
        v.insert("store.bytes", bytes as f64);
        v.insert("serve.encode_us", encode.as_secs_f64() * 1e6 / n_ops);
        v.insert("serve.parse_us", parse.as_secs_f64() * 1e6 / n_ops);
        v.insert(
            "par.occupancy",
            if slots == 0 {
                0.0
            } else {
                items as f64 / slots as f64
            },
        );
        let (traced_s, plain_s) = (traced.as_secs_f64(), plain.as_secs_f64());
        v.insert(
            "obs.trace_overhead_pct",
            100.0 * (traced_s - plain_s) / plain_s,
        );
        let serial_s = serial.as_secs_f64();
        v.insert(
            "ledger.unattributed_pct",
            100.0 * (serial_s - ledger.attributed().as_secs_f64()) / serial_s,
        );
        v.insert("ledger.op_ms", serial_s * 1e3 / n_ops);
        log_round(rounds.len(), &ledger, serial_s / n_ops);
        rounds.push(v);
    }

    let med = |name: &str| -> f64 {
        let xs: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
        median(&xs).unwrap_or(0.0)
    };
    let fixed: BTreeMap<&str, f64> = [
        ("serve.result_hit_ratio", serve.result_hit_ratio),
        ("serve.batch_size", serve.batch_size),
        ("serve.busy", serve.busy),
        ("serve.queue_depth_max", serve.queue_depth_max),
        ("loadgen.late_ms", serve.late_ms),
    ]
    .into_iter()
    .collect();
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            metric(
                name,
                fixed.get(name).copied().unwrap_or_else(|| med(name)),
                unit,
            )
        })
        .collect())
}

/// Logs one round's layer shares, largest first.
fn log_round(round: usize, ledger: &Ledger, op_s: f64) {
    let mut layers: Vec<(&str, Duration, u64)> = ledger
        .layers()
        .iter()
        .map(|(k, l)| (*k, l.total, l.calls))
        .collect();
    layers.sort_by_key(|l| std::cmp::Reverse(l.1));
    let total: f64 = layers.iter().map(|l| l.1.as_secs_f64()).sum();
    eprintln!("ledger round {round}: serial op {:.1} ms", op_s * 1e3);
    for (name, t, calls) in layers {
        eprintln!(
            "  {name:<16} {:>10.3} ms {:>5.1}% {calls:>8} calls",
            t.as_secs_f64() * 1e3,
            100.0 * t.as_secs_f64() / total
        );
    }
}
