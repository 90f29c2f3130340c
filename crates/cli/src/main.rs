//! `htd` — the detection pipeline as a command line.
//!
//! The binary splits the paper's experiment at its natural seam:
//! `htd characterize` measures a golden population once and stores the
//! result as a checksummed artifact; `htd score` loads that artifact and
//! scores suspect designs against it — any number of times, in any
//! process, with bit-identical results. `htd fuse`, `htd report` and
//! `htd diff` operate purely on stored artifacts, no simulation at all.
//! `htd serve` exposes the scoring half as a long-lived TCP service
//! (batched, cached, observable), and `htd bench --serve` load-tests it.

use std::process::ExitCode;

use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{
    self, fuse_scored_channels, masked_feature_rows, Campaign, GoldenCharacterization,
    MultiChannelReport, Reference, ScoredChannel,
};
use htd_core::reffree::ReferenceFreeCharacterization;
use htd_core::report::{health_table, multi_channel_table, pct, Table};
use htd_core::resilience::{ChannelHealth, RetryPolicy};
use htd_core::{CampaignPlan, Engine, Error, Lab};
use htd_faults::FaultPlan;
use htd_obs::{HealthRecord, Json, Obs, RunManifest, ToolInfo};
use htd_serve::{ManifestConfig, ServeConfig};
use htd_stats::logistic::{train as train_logistic, TrainConfig};
use htd_stats::Gaussian;
use htd_store::{
    sniff_kind, Artifact, ChannelFit, ClassifierModel, GoldenArtifact, ReferenceFreeArtifact,
    ScorableArtifact,
};
use htd_trojan::{Payload, PlacementStrategy, Trigger, TrojanSpec, ZooConfig, ZooTrigger};

const USAGE: &str = "\
htd — hardware-trojan detection: characterize once, score many

USAGE:
  htd characterize --out FILE [--mode golden|reference-free|learned]
                   [--dies N] [--pairs N] [--reps N] [--seed N]
                   [--channels em,delay,power] [--metric solm|max|sum|l2]
                   [--pt HEX32] [--key HEX32] [--workers N] [--fits-dir DIR]
                   [--faults FILE] [--max-retries N] [--allow-degraded]
                   [--model FILE] [--metrics FILE] [--trace FILE]
      Measure a golden population and store it as a golden artifact.
      --mode reference-free needs no golden netlist trust anchor: every
      die is scored against its own symmetric path pairs, and the
      artifact stores the reference lot's self-score baseline instead of
      a golden reference (kind `reffree`, at least 3 dies). --mode
      learned writes the usual golden artifact. In every mode, --model
      FILE checks a classifier against the channel set, for pipelines
      that score with `htd score --model`.

  htd score --golden FILE [--trojans ht1,ht2,...] [--report FILE]
            [--model FILE] [--csv FILE] [--kv FILE] [--scores-dir DIR]
            [--workers N] [--faults FILE] [--max-retries N]
            [--allow-degraded] [--max-drop-rate F] [--metrics FILE]
            [--trace FILE]
      Score suspect designs against a stored golden artifact. The
      artifact's kind picks the mode: a `golden` artifact scores against
      the stored reference, a `reffree` artifact scores each suspect die
      against its own symmetric path pairs and compares with the stored
      self-score baseline. --model FILE replaces the analytic fused
      column with a trained logistic classifier (see `htd train`).
      Trojans: ht1 ht2 ht3 ht-comb ht-seq stealth sweep (= ht1,ht2,ht3).
      --faults replays a stored fault plan; failed acquisitions retry up
      to --max-retries times with fresh derived seeds. With
      --allow-degraded, dies that stay faulted are dropped (and a
      damaged golden artifact is salvaged instead of rejected); the
      report then carries a per-channel health section. Exit 3 when any
      channel's drop rate exceeds --max-drop-rate.
      --metrics FILE writes a machine-readable run manifest (JSON):
      per-stage timings, event counters, pool occupancy and health.
      Counters are bit-identical at any --workers value; timings are
      observational and never enter checksummed artifacts.
      --trace FILE additionally exports the run's span tree as Chrome
      trace-event JSON (open in chrome://tracing or Perfetto). Tracing
      never changes counters or stored artifacts.

  htd zoo [--golden FILE] [--sizes 8,16,32] [--kinds comb,ctr,fsm]
          [--placement near-taps|corner|spread] [--dies N] [--pairs N]
          [--reps N] [--seed N] [--channels em,delay,power]
          [--metric solm|max|sum|l2] [--workers N] [--csv FILE]
          [--metrics FILE]
      Sweep a parametric trojan zoo (trigger kind × trigger size) against
      a golden population and print a detection-rate heat map (per
      channel, plus the fused column when several channels ran). Sizes
      are tap counts for comb/fsm triggers and counter widths for ctr.
      Reuses a stored golden artifact with --golden, otherwise
      characterizes in-process with the given campaign parameters. The
      heat map and CSV are bit-identical at any --workers value.

  htd train --out FILE [--golden FILE] [--sizes 8,16,32]
            [--kinds comb,ctr,fsm] [--holdout comb|ctr|fsm]
            [--placement near-taps|corner|spread] [--dies N] [--pairs N]
            [--reps N] [--seed N] [--channels em,delay,power]
            [--metric solm|max|sum|l2] [--iterations N] [--rate F]
            [--train-seed N] [--workers N] [--metrics FILE]
      Train a logistic classifier over per-channel detection scores and
      store it as a `classifier` artifact for `htd score --model`. The
      labelled set is built in-process: golden dies (label 0) plus every
      die of a zoo-generated trojan grid (label 1). --holdout keeps one
      trigger family out of training so the classifier is evaluated on
      trojans it never saw. Training is deterministic: fixed-iteration
      gradient descent seeded by --train-seed, invariant to sample
      order and --workers.

  htd fuse FILE FILE...
      Fuse two or more stored per-channel score artifacts (z-score sum).

  htd report FILE [--csv | --kv]
  htd report --metrics FILE [--counters]
      Render a stored report (aligned table, CSV, or key=value lines),
      or a run manifest written by --metrics (--counters prints only the
      deterministic counter section, one `name value` per line).

  htd serve [--addr HOST:PORT] [--queue-depth N] [--cache-bytes N]
            [--result-cache N] [--workers N] [--faults FILE]
            [--max-retries N] [--allow-degraded] [--metrics FILE]
            [--metrics-every N] [--trace FILE]
      Serve scoring over TCP (see DESIGN.md §serve for the protocol).
      Clients name a stored golden artifact by server-side path and a
      suspect token; responses embed the byte-identical report `htd
      score` writes offline, at any --workers value. Requests batch by
      golden content digest; parsed goldens stay hot in an LRU bounded by
      --cache-bytes, finished reports memoize in a --result-cache entry
      LRU (0 disables). Past --queue-depth waiting requests, new ones
      are shed with an explicit `busy` response. Prints `serving on
      HOST:PORT` once bound (port 0 picks a free port) and runs until a
      client sends `shutdown`. --metrics rewrites a run manifest every
      --metrics-every scored requests (and once at shutdown). --trace
      exports the span tree of the whole serve run as Chrome trace-event
      JSON at shutdown; every request's spans (accept → queue → batch →
      score → respond) are tagged with its request id — the one the
      client sent on the wire, or a server-assigned `srv-N`.

  htd top --addr HOST:PORT [--interval-ms N] [--iterations K] [--plain]
      Poll a running serve instance's `stats` verb into a refreshing
      live table: uptime, queue depth, workers, request/batch counters
      and cache hit rates. --iterations K stops after K polls (0 = until
      the server goes away); --plain prints one `name value` block per
      poll with no screen control, for scripts and tests.

  htd bench --serve --golden FILE[,FILE...] [--addr A[,A...]]
            [--suspects ht1,ht2,...] [--requests N] [--clients N]
            [--json FILE] [--dump FILE] [--shutdown]
      Drive one or more serve instances and report throughput plus
      latency percentiles. With several --addr instances, requests
      shard by plan-digest modulus. --dump saves the first response's
      embedded report (for fixture diffing), --json writes the
      measurements, --shutdown stops every instance afterwards.
      Latency percentiles come from the shared log2 histogram
      (bucket-granular upper bounds, the same derivation --metrics
      manifests use).

  htd bench diff OLD NEW [--gate PCT]
      Structurally compare two run manifests (--metrics output) or two
      bench measurement files (bench --json output). Deterministic
      fields — counters, plan digest, command, request mix — must be
      identical; observational timings are ignored unless --gate PCT
      sets a noise band (new may exceed old by at most PCT percent).
      Exit 4 on any regression, 0 when within tolerance. CI diffs the
      committed baselines under tests/fixtures/ this way.

  htd diff FILE FILE
      Compare two stored artifacts of the same kind. Golden artifacts
      diff by campaign plan digest (printed for both sides — the serve
      wire/shard key); reports print content digests and then diff
      row by row.

  htd version [--json]
      Print binary version, store format version and enabled features.

EXIT CODES:
  0  success (for diff: the reports match)
  1  diff: the reports differ
  2  error (bad usage, malformed artifact, I/O or campaign failure)
  3  score: a channel's drop rate exceeded --max-drop-rate
  4  bench diff: a counter or gated timing regressed
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("htd: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let Some((cmd, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "characterize" => characterize(rest),
        "score" => score(rest),
        "train" => train(rest),
        "zoo" => zoo(rest),
        "serve" => serve(rest),
        "bench" => bench(rest),
        "top" => top(rest),
        "fuse" => fuse(rest),
        "report" => report(rest),
        "diff" => diff(rest),
        "version" | "--version" | "-V" => version(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}` (see `htd help`)").into()),
    }
}

// ---------------------------------------------------------------------------
// Option parsing (hand-rolled: the container has no argument-parser crate).

struct Opts {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], valued: &[&str], boolean: &[&str]) -> Result<Opts, String> {
        let mut opts = Opts {
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if boolean.contains(&name) {
                    opts.switches.push(name.to_string());
                } else if valued.contains(&name) {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    opts.values.push((name.to_string(), value.clone()));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                opts.positional.push(arg.clone());
            }
        }
        Ok(opts)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|n| n == name)
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, token: &str) -> Result<T, String> {
    token
        .parse()
        .map_err(|_| format!("--{name}: bad number `{token}`"))
}

fn parse_hex16(name: &str, token: &str) -> Result<[u8; 16], String> {
    let err = || format!("--{name}: `{token}` must be 32 hex digits");
    if token.len() != 32 || !token.is_ascii() {
        return Err(err());
    }
    let mut block = [0u8; 16];
    for (i, out) in block.iter_mut().enumerate() {
        *out = u8::from_str_radix(&token[2 * i..2 * i + 2], 16).map_err(|_| err())?;
    }
    Ok(block)
}

fn engine_for(opts: &Opts) -> Result<Engine, String> {
    match opts.get("workers") {
        None => Ok(Engine::auto()),
        Some(token) => {
            let n: usize = parse_num("workers", token)?;
            Ok(if n == 0 {
                Engine::auto()
            } else {
                Engine::with_workers(n)
            })
        }
    }
}

fn channel_specs(csv: &str, metric: TraceMetric) -> Result<Vec<ChannelSpec>, String> {
    let mut specs = Vec::new();
    for name in csv.split(',').filter(|s| !s.is_empty()) {
        specs.push(match name {
            "em" => ChannelSpec::Em(metric),
            "power" => ChannelSpec::Power(metric),
            "delay" => ChannelSpec::Delay,
            other => return Err(format!("unknown channel `{other}` (em, power, delay)")),
        });
    }
    if specs.is_empty() {
        return Err("--channels selected no channels".to_string());
    }
    Ok(specs)
}

/// The suspects `--trojans` names, with aliases and `sweep` expanded. A
/// suspect named twice is refused: it would be scored twice under two
/// seed streams and its `--scores-dir` files written twice.
fn trojan_specs(csv: &str) -> Result<Vec<TrojanSpec>, String> {
    let mut specs: Vec<TrojanSpec> = Vec::new();
    for name in csv.split(',').filter(|s| !s.is_empty()) {
        let named = if name.eq_ignore_ascii_case("sweep") {
            TrojanSpec::size_sweep()
        } else if let Some(spec) = TrojanSpec::from_token(name) {
            vec![spec]
        } else {
            return Err(format!(
                "unknown trojan `{name}` (ht1, ht2, ht3, ht-comb, ht-seq, stealth, sweep)"
            ));
        };
        for spec in named {
            if specs.iter().any(|seen| seen.name == spec.name) {
                return Err(format!(
                    "--trojans: `{name}` names {} again (each suspect is scored once)",
                    spec.name
                ));
            }
            specs.push(spec);
        }
    }
    if specs.is_empty() {
        return Err("--trojans selected no trojans".to_string());
    }
    Ok(specs)
}

/// The campaign context shared by `characterize` and `score`: the
/// `--workers` engine recording into `obs`, `--faults FILE` replaying a
/// stored plan (default: no faults), `--max-retries N` bounding per-die
/// retries, and `--allow-degraded` letting the campaign drop what stays
/// faulted instead of erroring out.
fn campaign_opts(opts: &Opts, obs: &Obs) -> Result<Campaign, Box<dyn std::error::Error>> {
    let engine = engine_for(opts)?.with_obs(obs.clone());
    let faults = match opts.get("faults") {
        None => FaultPlan::none(),
        Some(path) => htd_store::load_with(path, obs)?,
    };
    let policy = RetryPolicy {
        max_retries: parse_num("max-retries", opts.get("max-retries").unwrap_or("0"))?,
        allow_degraded: opts.has("allow-degraded"),
    };
    Ok(Campaign {
        engine,
        faults,
        policy,
    })
}

/// A filesystem-safe slug of a channel or trojan label.
fn slug(label: &str) -> String {
    let mut s: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    while s.contains("--") {
        s = s.replace("--", "-");
    }
    s.trim_matches('-').to_string()
}

// ---------------------------------------------------------------------------
// Run manifests (--metrics).

/// Provenance stamped into manifests and `htd version`.
fn tool_info() -> ToolInfo {
    ToolInfo {
        name: "htd".to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        format_version: u64::from(htd_store::FORMAT_VERSION),
        features: [
            "delay", "em", "power", "faults", "metrics", "reffree", "salvage", "serve", "top",
            "trace", "train", "zoo",
        ]
        .iter()
        .map(|f| f.to_string())
        .collect(),
    }
}

/// The tool section as standalone JSON (`htd version --json`).
fn tool_info_json(info: &ToolInfo) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(info.name.clone())),
        ("version".to_string(), Json::Str(info.version.clone())),
        (
            "format_version".to_string(),
            Json::UInt(info.format_version),
        ),
        (
            "features".to_string(),
            Json::Arr(info.features.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
    ])
}

/// The observability handle for a run plus the output paths it feeds:
/// tracing when `--trace` was given (a tracing recorder also serves
/// `--metrics`), recording when only `--metrics` was, disabled
/// otherwise. Returns `(obs, metrics_path, trace_path)`.
fn metrics_obs(opts: &Opts) -> (Obs, Option<String>, Option<String>) {
    let metrics = opts.get("metrics").map(str::to_string);
    let trace = opts.get("trace").map(str::to_string);
    let obs = if trace.is_some() {
        Obs::recording_traced()
    } else if metrics.is_some() {
        Obs::recording()
    } else {
        Obs::noop()
    };
    (obs, metrics, trace)
}

/// Writes the Chrome trace-event export of a completed run (`--trace`).
fn write_trace(path: &str, obs: &Obs) -> Result<(), Box<dyn std::error::Error>> {
    let json = obs
        .trace_json()
        .ok_or("--trace: the run's recorder was not tracing")?;
    std::fs::write(path, json).map_err(|e| Error::io(path, e))?;
    println!("wrote {path}");
    Ok(())
}

/// Mirrors the pipeline's health ledger into the manifest's (core-free)
/// record type.
fn health_records(health: &[ChannelHealth]) -> Vec<HealthRecord> {
    health
        .iter()
        .map(|h| HealthRecord {
            channel: h.channel.clone(),
            attempted: h.attempted as u64,
            retried: h.retried as u64,
            dropped: h.dropped as u64,
            reps_attempted: h.reps_attempted as u64,
            reps_dropped: h.reps_dropped as u64,
            lost: h.lost,
        })
        .collect()
}

/// The inverse of [`health_records`], for rendering a manifest's health
/// section through the existing [`health_table`].
fn health_from_records(records: &[HealthRecord]) -> Vec<ChannelHealth> {
    records
        .iter()
        .map(|r| ChannelHealth {
            channel: r.channel.clone(),
            attempted: r.attempted as usize,
            retried: r.retried as usize,
            dropped: r.dropped as usize,
            reps_attempted: r.reps_attempted as usize,
            reps_dropped: r.reps_dropped as usize,
            lost: r.lost,
        })
        .collect()
}

/// Writes the run manifest for a completed `characterize`/`score` run.
fn write_manifest(
    path: &str,
    command: &str,
    engine: &Engine,
    plan: &CampaignPlan,
    obs: &Obs,
    health: &[ChannelHealth],
) -> Result<(), Box<dyn std::error::Error>> {
    let snapshot = obs.snapshot().unwrap_or_default();
    let manifest = RunManifest::new(
        tool_info(),
        command,
        engine.workers(),
        &htd_store::plan_digest_hex(plan),
        &snapshot,
        health_records(health),
    );
    std::fs::write(path, manifest.to_pretty()).map_err(|e| Error::io(path, e))?;
    println!("wrote {path}");
    Ok(())
}

// ---------------------------------------------------------------------------
// Subcommands.

fn characterize(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(
        args,
        &[
            "out",
            "mode",
            "model",
            "dies",
            "pairs",
            "reps",
            "seed",
            "channels",
            "metric",
            "pt",
            "key",
            "workers",
            "fits-dir",
            "faults",
            "max-retries",
            "metrics",
            "trace",
        ],
        &["allow-degraded"],
    )?;
    let out = opts.require("out")?.to_string();
    let mode = opts.get("mode").unwrap_or("golden");
    if !matches!(mode, "golden" | "learned" | "reference-free" | "reffree") {
        return Err(
            format!("--mode: unknown mode `{mode}` (golden, reference-free, learned)").into(),
        );
    }
    let dies: usize = parse_num("dies", opts.get("dies").unwrap_or("8"))?;
    let pairs: usize = parse_num("pairs", opts.get("pairs").unwrap_or("10"))?;
    let reps: usize = parse_num("reps", opts.get("reps").unwrap_or("3"))?;
    let seed: u64 = parse_num("seed", opts.get("seed").unwrap_or("24301"))?;
    let metric = opts.get("metric").unwrap_or("solm");
    let metric = TraceMetric::from_token(metric)
        .ok_or_else(|| format!("--metric: unknown metric `{metric}` (solm, max, sum, l2)"))?;
    let specs = channel_specs(opts.get("channels").unwrap_or("em,delay"), metric)?;
    let pt = parse_hex16("pt", opts.get("pt").unwrap_or(&"42".repeat(16)))?;
    let key = parse_hex16("key", opts.get("key").unwrap_or(&"0f".repeat(16)))?;
    let (obs, metrics_path, trace_path) = metrics_obs(&opts);
    let campaign = campaign_opts(&opts, &obs)?;

    let lab = Lab::paper();
    let plan = CampaignPlan::with_random_pairs(dies, pairs, reps, pt, key, seed);
    let channels: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();

    // The mode picks the characterization type; everything after this
    // is the same for every kind.
    let (artifact, lot) = if matches!(mode, "reference-free" | "reffree") {
        let charac: ReferenceFreeCharacterization =
            fusion::characterize(&campaign, &lab, &plan, &refs)?;
        let specs = surviving_specs(specs, &charac);
        let artifact = ReferenceFreeArtifact::new(specs, charac)?;
        (
            ScorableArtifact::ReferenceFree(artifact),
            "dies reference-free",
        )
    } else {
        let charac: GoldenCharacterization = fusion::characterize(&campaign, &lab, &plan, &refs)?;
        let specs = surviving_specs(specs, &charac);
        let artifact = GoldenArtifact::new(specs, charac)?;
        (ScorableArtifact::Golden(artifact), "golden dies")
    };
    let reference = artifact.reference();
    for lost in reference.lost() {
        eprintln!(
            "htd: channel {} lost during characterization ({} calibration attempt(s))",
            lost.channel, lost.attempted
        );
    }
    let stored = reference.channels();
    let names: Vec<&str> = stored.iter().map(|s| s.name).collect();

    // A classifier is applied at scoring time, so all there is to pin
    // down here is that a named model actually matches this campaign's
    // channel set.
    if let Some(path) = opts.get("model") {
        let model: ClassifierModel = htd_store::load_with(path, &obs)?;
        fusion::check_model_features(&model, names.iter().copied()).map_err(|_| {
            format!(
                "--model {path}: classifier features [{}] do not match the channel set [{}]",
                model.features.join(", "),
                names.join(", ")
            )
        })?;
        println!("model {path} matches channel set [{}]", names.join(", "));
    }

    if let Some(dir) = opts.get("fits-dir") {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(dir, e))?;
        for channel in &stored {
            let fit =
                Gaussian::fit(channel.scores).map_err(|source| Error::DegeneratePopulation {
                    channel: channel.name.to_string(),
                    samples: channel.scores.len(),
                    source,
                })?;
            let path = std::path::Path::new(dir).join(format!("{}.fit.htd", slug(channel.name)));
            htd_store::save_with(
                &path,
                &ChannelFit {
                    channel: channel.name.to_string(),
                    fit,
                },
                &obs,
            )?;
            println!("wrote {}", path.display());
        }
    }

    artifact.save_with(&out, &obs)?;
    println!(
        "characterized {dies} {lot} over {} channel(s) [{}] → {out}",
        names.len(),
        names.join(", "),
    );
    if let Some(path) = metrics_path {
        let health: Vec<ChannelHealth> = stored
            .iter()
            .map(|s| s.health.clone())
            .chain(reference.lost().iter().cloned())
            .collect();
        write_manifest(
            &path,
            "characterize",
            &campaign.engine,
            reference.plan(),
            &obs,
            &health,
        )?;
    }
    if let Some(path) = &trace_path {
        write_trace(path, &obs)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The specs of the channels that survived characterization: lost
/// channels drop out of the stored states but keep their spot in the
/// lost list, so the spec list is kept in lockstep with the survivors.
fn surviving_specs(specs: Vec<ChannelSpec>, reference: &dyn Reference) -> Vec<ChannelSpec> {
    let stored = reference.channels();
    let mut next = stored.iter().peekable();
    specs
        .into_iter()
        .filter(|spec| next.next_if(|s| s.name == spec.name()).is_some())
        .collect()
}

fn score(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(
        args,
        &[
            "golden",
            "model",
            "trojans",
            "report",
            "csv",
            "kv",
            "scores-dir",
            "workers",
            "faults",
            "max-retries",
            "max-drop-rate",
            "metrics",
            "trace",
        ],
        &["allow-degraded"],
    )?;
    let golden_path = opts.require("golden")?;
    let specs = trojan_specs(opts.get("trojans").unwrap_or("ht1,ht2,ht3"))?;
    let (obs, metrics_path, trace_path) = metrics_obs(&opts);
    let campaign = campaign_opts(&opts, &obs)?;
    let max_drop_rate: f64 = parse_num("max-drop-rate", opts.get("max-drop-rate").unwrap_or("1"))?;

    let model: Option<ClassifierModel> = match opts.get("model") {
        None => None,
        Some(path) => Some(htd_store::load_with(path, &obs)?),
    };
    let lab = Lab::paper();

    // The artifact's kind picks the scoring mode. Under --allow-degraded
    // a damaged artifact is salvaged: the surviving channel blocks are
    // kept and the read is flagged, instead of the whole file being
    // rejected for one bad line.
    let loaded = ScorableArtifact::load_with(golden_path, &obs, campaign.policy.allow_degraded)?;
    if loaded.recovered {
        eprintln!(
            "htd: salvaged {golden_path} ({} damaged line(s) dropped)",
            loaded.dropped_lines
        );
    }
    let artifact = loaded.artifact;
    let channels = artifact.build_channels();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let scored = fusion::score(
        &campaign,
        &lab,
        artifact.reference(),
        &specs,
        &refs,
        model.as_ref(),
    )?;
    let report = &scored.report;

    if let Some(dir) = opts.get("scores-dir") {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(dir, e))?;
        for design in &scored.designs {
            for set in &design.scored {
                let path = std::path::Path::new(dir).join(format!(
                    "{}.{}.scores.htd",
                    slug(&design.name),
                    slug(&set.channel)
                ));
                htd_store::save_with(&path, set, &obs)?;
                println!("wrote {}", path.display());
            }
        }
    }

    let table = multi_channel_table(report);
    print!("{table}");
    if !report.health.is_empty() {
        println!("channel health:");
        print!("{}", health_table(&report.health));
    }
    if let Some(path) = opts.get("csv") {
        std::fs::write(path, table.to_csv()).map_err(|e| Error::io(path, e))?;
        println!("wrote {path}");
    }
    if let Some(path) = opts.get("kv") {
        std::fs::write(path, table.to_kv()).map_err(|e| Error::io(path, e))?;
        println!("wrote {path}");
    }
    if let Some(path) = opts.get("report") {
        htd_store::save_with(path, report, &obs)?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        write_manifest(
            path,
            "score",
            &campaign.engine,
            artifact.plan(),
            &obs,
            &report.health,
        )?;
    }
    if let Some(path) = &trace_path {
        write_trace(path, &obs)?;
    }
    let worst = report
        .health
        .iter()
        .map(htd_core::resilience::ChannelHealth::drop_rate)
        .fold(0.0, f64::max);
    if worst > max_drop_rate {
        eprintln!(
            "htd: worst channel drop rate {worst:.3} exceeds --max-drop-rate {max_drop_rate}"
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn train(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(
        args,
        &[
            "out",
            "golden",
            "sizes",
            "kinds",
            "holdout",
            "placement",
            "dies",
            "pairs",
            "reps",
            "seed",
            "channels",
            "metric",
            "iterations",
            "rate",
            "train-seed",
            "workers",
            "metrics",
        ],
        &[],
    )?;
    let out = opts.require("out")?.to_string();
    let cfg = zoo_config(&opts)?;
    let (train_specs, held_out) = match opts.get("holdout") {
        None => (cfg.generate()?, Vec::new()),
        Some(tag) => {
            let kind = ZooTrigger::from_tag(tag).ok_or_else(|| {
                format!("--holdout: unknown trigger kind `{tag}` (comb, ctr, fsm)")
            })?;
            cfg.split_holdout(kind)?
        }
    };
    if train_specs.is_empty() {
        return Err("--holdout left no training trojans".into());
    }

    let (obs, metrics_path, _) = metrics_obs(&opts);
    // Training campaigns run fault-free and strict: every die survives,
    // so golden and infected feature rows line up one-to-one with dies.
    let campaign = Campaign::with_engine(engine_for(&opts)?.with_obs(obs.clone()));
    let lab = Lab::paper();
    let (channels, charac) = golden_side(&opts, &campaign, &lab, &obs)?;
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let scored = fusion::score(&campaign, &lab, &charac, &train_specs, &refs, None)?;

    // Labelled samples: one feature row per die — golden dies label 0,
    // every die of every training trojan label 1. The trainer itself
    // canonicalises sample order, so assembly order is free.
    let n_dies = charac.plan.n_dies;
    let features: Vec<String> = charac.states.iter().map(|s| s.channel.clone()).collect();
    let mut samples: Vec<(Vec<f64>, bool)> = Vec::new();
    let golden_masked: Vec<(&[usize], &[f64])> = charac
        .states
        .iter()
        .map(|s| (s.kept.as_slice(), s.scores.as_slice()))
        .collect();
    for row in masked_feature_rows(&golden_masked, n_dies) {
        samples.push((row, false));
    }
    for design in &scored.designs {
        let kept: Vec<Vec<usize>> = design
            .scored
            .iter()
            .map(|set| (0..set.infected.len()).collect())
            .collect();
        let masked: Vec<(&[usize], &[f64])> = design
            .scored
            .iter()
            .zip(&kept)
            .map(|(set, k)| (k.as_slice(), set.infected.as_slice()))
            .collect();
        for row in masked_feature_rows(&masked, n_dies) {
            samples.push((row, true));
        }
    }

    let defaults = TrainConfig::default();
    let config = TrainConfig {
        seed: parse_num("train-seed", opts.get("train-seed").unwrap_or("2015"))?,
        iterations: parse_num(
            "iterations",
            opts.get("iterations")
                .unwrap_or(&defaults.iterations.to_string()),
        )?,
        rate: parse_num(
            "rate",
            opts.get("rate").unwrap_or(&defaults.rate.to_string()),
        )?,
    };
    // Recorded once on the main thread, so worker-invariant by
    // construction.
    obs.add("train.designs", scored.designs.len() as u64);
    obs.add("train.samples", samples.len() as u64);
    obs.add("train.iterations", config.iterations as u64);

    let model = train_logistic(&features, &samples, &config)?;
    htd_store::save_with(&out, &model, &obs)?;
    println!(
        "trained classifier on {} sample(s) over {} design(s), {} feature(s) [{}] → {out}",
        samples.len(),
        scored.designs.len(),
        features.len(),
        features.join(", "),
    );
    if !held_out.is_empty() {
        let names: Vec<&str> = held_out.iter().map(|s| s.name.as_str()).collect();
        println!("held out: {}", names.join(", "));
    }
    if let Some(path) = &metrics_path {
        write_manifest(
            path,
            "train",
            &campaign.engine,
            &charac.plan,
            &obs,
            &scored.report.health,
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Live channels next to the golden characterization they score against.
type GoldenSide = (Vec<Box<dyn Channel>>, GoldenCharacterization);

/// The golden side of `htd train` and `htd zoo`: the stored artifact
/// named by `--golden`, or a fresh in-process characterization of the
/// `--dies`/`--pairs`/`--reps`/`--seed`/`--channels`/`--metric` campaign
/// under `campaign`.
fn golden_side(
    opts: &Opts,
    campaign: &Campaign,
    lab: &Lab,
    obs: &Obs,
) -> Result<GoldenSide, Box<dyn std::error::Error>> {
    if let Some(path) = opts.get("golden") {
        let artifact: GoldenArtifact = htd_store::load_with(path, obs)?;
        return Ok((artifact.build_channels(), artifact.into_characterization()));
    }
    let dies: usize = parse_num("dies", opts.get("dies").unwrap_or("6"))?;
    let pairs: usize = parse_num("pairs", opts.get("pairs").unwrap_or("2"))?;
    let reps: usize = parse_num("reps", opts.get("reps").unwrap_or("2"))?;
    let seed: u64 = parse_num("seed", opts.get("seed").unwrap_or("24301"))?;
    let metric = opts.get("metric").unwrap_or("solm");
    let metric = TraceMetric::from_token(metric)
        .ok_or_else(|| format!("--metric: unknown metric `{metric}` (solm, max, sum, l2)"))?;
    let specs = channel_specs(opts.get("channels").unwrap_or("em,delay"), metric)?;
    let channels: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
    let pt = parse_hex16("pt", &"42".repeat(16))?;
    let key = parse_hex16("key", &"0f".repeat(16))?;
    let plan = CampaignPlan::with_random_pairs(dies, pairs, reps, pt, key, seed);
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac = fusion::characterize(campaign, lab, &plan, &refs)?;
    Ok((channels, charac))
}

/// Trigger size of a zoo spec for the heat map's `size` column: tap
/// count for comparator/state-machine/stealth triggers, counter width
/// for the sequential counter.
fn trigger_size(spec: &TrojanSpec) -> usize {
    match spec.trigger {
        Trigger::CombinationalAllOnes { taps }
        | Trigger::StealthProbe { taps }
        | Trigger::StateMachine { taps, .. } => taps,
        Trigger::SequentialCounter { width, .. } => width,
    }
}

/// The first entry of `list` that repeats an earlier one.
fn first_repeat<T: PartialEq>(list: &[T]) -> Option<&T> {
    list.iter()
        .enumerate()
        .find(|(i, x)| list[..*i].contains(x))
        .map(|(_, x)| x)
}

/// The zoo grid shared by `htd zoo` and `htd train`: `--sizes`,
/// `--kinds` and `--placement` with the same defaults in both commands.
/// A repeated size or kind is refused: it would add a second grid row
/// of the same name.
fn zoo_config(opts: &Opts) -> Result<ZooConfig, Box<dyn std::error::Error>> {
    let sizes = opts
        .get("sizes")
        .unwrap_or("8,16,32")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_num::<usize>("sizes", s))
        .collect::<Result<Vec<_>, _>>()?;
    let kinds = opts
        .get("kinds")
        .unwrap_or("comb,ctr,fsm")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|tag| {
            ZooTrigger::from_tag(tag)
                .ok_or_else(|| format!("--kinds: unknown trigger kind `{tag}` (comb, ctr, fsm)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(size) = first_repeat(&sizes) {
        return Err(format!("--sizes: {size} is listed twice").into());
    }
    if let Some(kind) = first_repeat(&kinds) {
        return Err(format!("--kinds: `{}` is listed twice", kind.tag()).into());
    }
    let placement = match opts.get("placement").unwrap_or("near-taps") {
        "near-taps" | "near" => PlacementStrategy::NearTaps,
        "corner" => PlacementStrategy::Corner,
        "spread" => PlacementStrategy::Spread,
        other => {
            return Err(format!(
                "--placement: unknown strategy `{other}` (near-taps, corner, spread)"
            )
            .into())
        }
    };
    Ok(ZooConfig {
        sizes,
        kinds,
        payload: Payload::default(),
        placement,
    })
}

fn zoo(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(
        args,
        &[
            "golden",
            "sizes",
            "kinds",
            "placement",
            "dies",
            "pairs",
            "reps",
            "seed",
            "channels",
            "metric",
            "workers",
            "csv",
            "metrics",
        ],
        &[],
    )?;
    let cfg = zoo_config(&opts)?;
    let specs = cfg.generate()?;

    let (obs, metrics_path, _) = metrics_obs(&opts);
    let campaign = Campaign::with_engine(engine_for(&opts)?.with_obs(obs.clone()));
    let lab = Lab::paper();
    let (channels, charac) = golden_side(&opts, &campaign, &lab, &obs)?;

    // Per-zoo-point counters, recorded once on the main thread so they
    // are worker-invariant by construction.
    obs.add("zoo.points", specs.len() as u64);
    for &kind in &cfg.kinds {
        obs.add(&format!("zoo.kind.{}", kind.tag()), cfg.sizes.len() as u64);
    }

    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let scored = fusion::score(&campaign, &lab, &charac, &specs, &refs, None)?;
    let report = &scored.report;

    // Heat map: one row per zoo point, one detection-rate column per
    // channel (plus the fused column when several channels ran).
    let mut header: Vec<String> = vec!["trojan".into(), "size".into()];
    header.extend(report.channel_names.iter().cloned());
    let has_fused = report.rows.iter().any(|r| r.fused.is_some());
    if has_fused {
        header.push("fused".into());
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (spec, row) in specs.iter().zip(&report.rows) {
        let mut cells = vec![row.name.clone(), trigger_size(spec).to_string()];
        for c in &row.channels {
            cells.push(pct(1.0 - c.analytic_fn_rate));
        }
        if has_fused {
            cells.push(
                row.fused
                    .as_ref()
                    .map(|c| pct(1.0 - c.analytic_fn_rate))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        table.push_row(&cells);
    }
    println!(
        "zoo: {} point(s), detection rate (1 − analytic FN rate, Eq. 5) per channel:",
        specs.len()
    );
    print!("{table}");
    if let Some(path) = opts.get("csv") {
        std::fs::write(path, table.to_csv()).map_err(|e| Error::io(path, e))?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        write_manifest(
            path,
            "zoo",
            &campaign.engine,
            &charac.plan,
            &obs,
            &report.health,
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "queue-depth",
            "cache-bytes",
            "result-cache",
            "workers",
            "faults",
            "max-retries",
            "metrics",
            "metrics-every",
            "trace",
        ],
        &["allow-degraded"],
    )?;
    let (obs, metrics_path, trace_path) = metrics_obs(&opts);
    let Campaign { faults, policy, .. } = campaign_opts(&opts, &obs)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        queue_depth: parse_num(
            "queue-depth",
            opts.get("queue-depth")
                .unwrap_or(&defaults.queue_depth.to_string()),
        )?,
        cache_bytes: parse_num(
            "cache-bytes",
            opts.get("cache-bytes")
                .unwrap_or(&defaults.cache_bytes.to_string()),
        )?,
        result_cache: parse_num(
            "result-cache",
            opts.get("result-cache")
                .unwrap_or(&defaults.result_cache.to_string()),
        )?,
        workers: parse_num("workers", opts.get("workers").unwrap_or("0"))?,
        faults,
        policy,
        tool: tool_info(),
        manifest: metrics_path
            .map(|path| -> Result<ManifestConfig, String> {
                Ok(ManifestConfig {
                    path: path.into(),
                    every: parse_num("metrics-every", opts.get("metrics-every").unwrap_or("256"))?,
                    tool: tool_info(),
                })
            })
            .transpose()?,
    };
    let report = htd_serve::serve(config, &obs, |addr| {
        // Flushed before blocking: the line is the startup handshake
        // scripts and tests poll for (port 0 resolves here).
        println!("serving on {addr}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
    })?;
    println!(
        "served {} request(s) in {} batch(es): {} ok, {} error, {} busy",
        report.requests,
        report.batches,
        report.responses_ok,
        report.responses_error,
        report.responses_busy
    );
    if let Some(path) = &trace_path {
        write_trace(path, &obs)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// One benched request's routing: which shard, which golden path, which
/// suspect token.
struct BenchPlan {
    shard: usize,
    golden: String,
    suspect: String,
}

fn bench(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    if args.first().map(String::as_str) == Some("diff") {
        return bench_diff(&args[1..]);
    }
    let opts = Opts::parse(
        args,
        &[
            "addr", "golden", "suspects", "requests", "clients", "json", "dump",
        ],
        &["serve", "shutdown"],
    )?;
    if !opts.has("serve") {
        return Err("bench has two modes: --serve and diff (see `htd help`)".into());
    }
    let addrs: Vec<String> = opts
        .get("addr")
        .unwrap_or("127.0.0.1:7140")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if addrs.is_empty() {
        return Err("--addr selected no instances".into());
    }
    let goldens: Vec<String> = opts
        .require("golden")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if goldens.is_empty() {
        return Err("--golden selected no artifacts".into());
    }
    let suspects: Vec<String> = opts
        .get("suspects")
        .unwrap_or("ht1,ht2,ht3")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if suspects.is_empty() {
        return Err("--suspects selected no suspects".into());
    }
    let requests: usize = parse_num("requests", opts.get("requests").unwrap_or("100"))?;
    let clients: usize = parse_num::<usize>("clients", opts.get("clients").unwrap_or("4"))?.max(1);

    // Shard routing needs each golden's plan digest; load every named
    // artifact once, client-side, and pin its shard by digest modulus —
    // the same key the server groups batches by, so one golden's
    // requests always land where its caches are warm.
    let shard_of: Vec<(String, usize, String)> = goldens
        .iter()
        .map(|path| -> Result<_, Error> {
            let artifact: GoldenArtifact = htd_store::load(path)?;
            let digest = htd_store::plan_digest(&artifact.characterization().plan);
            Ok((
                path.clone(),
                (digest % addrs.len() as u64) as usize,
                format!("fnv1a64:{digest:016x}"),
            ))
        })
        .collect::<Result<_, _>>()?;
    for (path, shard, digest) in &shard_of {
        println!(
            "golden {path} (plan {digest}) → shard {shard} [{}]",
            addrs[*shard]
        );
    }

    // Deterministic request mix: golden and suspect both rotate.
    let mix: Vec<BenchPlan> = (0..requests)
        .map(|i| {
            let (path, shard, _) = &shard_of[i % shard_of.len()];
            BenchPlan {
                shard: *shard,
                golden: path.clone(),
                suspect: suspects[i % suspects.len()].clone(),
            }
        })
        .collect();

    if let Some(path) = opts.get("dump") {
        let (golden_path, shard, _) = &shard_of[0];
        let mut client = htd_serve::Client::connect(addrs[*shard].as_str())?;
        let response = client.call(&htd_serve::Request::Score {
            golden: golden_path.clone(),
            suspect: suspects[0].clone(),
            model: None,
            request: None,
        })?;
        let htd_serve::Response::Score { report, .. } = response else {
            return Err(format!("dump request failed: {response:?}").into());
        };
        std::fs::write(path, report).map_err(|e| Error::io(path, e))?;
        println!("wrote {path}");
    }

    // Fan the mix across client threads round-robin; each thread opens
    // its own connection per shard and retries shed requests.
    let started = std::time::Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let work: Vec<(usize, String, String)> = mix
            .iter()
            .enumerate()
            .filter(|(i, _)| i % clients == c)
            .map(|(_, p)| (p.shard, p.golden.clone(), p.suspect.clone()))
            .collect();
        let addrs = addrs.clone();
        handles.push(std::thread::spawn(move || -> Result<_, String> {
            let mut conns: Vec<Option<htd_serve::Client>> =
                (0..addrs.len()).map(|_| None).collect();
            let mut latencies_ns: Vec<u64> = Vec::with_capacity(work.len());
            let (mut ok, mut errors, mut busy) = (0u64, 0u64, 0u64);
            for (shard, golden, suspect) in work {
                let conn = match &mut conns[shard] {
                    Some(conn) => conn,
                    slot => slot.insert(
                        htd_serve::Client::connect(addrs[shard].as_str())
                            .map_err(|e| format!("{}: {e}", addrs[shard]))?,
                    ),
                };
                let request = htd_serve::Request::Score {
                    golden,
                    suspect,
                    model: None,
                    request: None,
                };
                let t0 = std::time::Instant::now();
                loop {
                    match conn.call(&request).map_err(|e| e.to_string())? {
                        htd_serve::Response::Score { .. } => {
                            ok += 1;
                            break;
                        }
                        htd_serve::Response::Busy { .. } => {
                            busy += 1;
                            std::thread::yield_now();
                        }
                        htd_serve::Response::Error { .. } => {
                            errors += 1;
                            break;
                        }
                        htd_serve::Response::Done => {
                            return Err("server answered a score with a bare ok".into())
                        }
                        htd_serve::Response::Stats { .. } => {
                            return Err("server answered a score with stats".into())
                        }
                    }
                }
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
            }
            Ok((latencies_ns, ok, errors, busy))
        }));
    }
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(requests);
    let (mut ok, mut errors, mut busy) = (0u64, 0u64, 0u64);
    for handle in handles {
        let (lat, o, e, b) = handle.join().expect("bench client panicked")?;
        latencies_ns.extend(lat);
        ok += o;
        errors += e;
        busy += b;
    }
    let elapsed = started.elapsed();

    // Percentiles come from the shared log2 histogram — the same
    // bucket-granular derivation `--metrics` manifests use — so bench
    // numbers and manifest timings are directly comparable.
    let mut hist = htd_obs::Histogram::new();
    for &ns in &latencies_ns {
        hist.record(ns);
    }
    let (p50, p99) = (hist.percentile(0.50), hist.percentile(0.99));
    let per_sec = if elapsed.as_secs_f64() > 0.0 {
        ok as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "bench --serve: {requests} request(s), {clients} client(s), {} shard(s)",
        addrs.len()
    );
    println!(
        "  {ok} ok, {errors} error, {busy} busy retries in {:.3} s → {per_sec:.0} scores/sec",
        elapsed.as_secs_f64()
    );
    println!(
        "  latency p50 {:.3} ms, p99 {:.3} ms",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6
    );

    if let Some(path) = opts.get("json") {
        let json = Json::Obj(vec![
            ("bench".to_string(), Json::Str("serve".to_string())),
            ("requests".to_string(), Json::UInt(requests as u64)),
            ("clients".to_string(), Json::UInt(clients as u64)),
            ("shards".to_string(), Json::UInt(addrs.len() as u64)),
            ("ok".to_string(), Json::UInt(ok)),
            ("errors".to_string(), Json::UInt(errors)),
            ("busy_retries".to_string(), Json::UInt(busy)),
            (
                "elapsed_ms".to_string(),
                Json::Float(elapsed.as_secs_f64() * 1e3),
            ),
            ("scores_per_sec".to_string(), Json::Float(per_sec)),
            ("p50_ms".to_string(), Json::Float(p50 as f64 / 1e6)),
            ("p99_ms".to_string(), Json::Float(p99 as f64 / 1e6)),
        ]);
        std::fs::write(path, json.to_pretty()).map_err(|e| Error::io(path, e))?;
        println!("wrote {path}");
    }

    if opts.has("shutdown") {
        for addr in &addrs {
            let mut client = htd_serve::Client::connect(addr.as_str())?;
            client.call(&htd_serve::Request::Shutdown)?;
        }
        println!("sent shutdown to {} instance(s)", addrs.len());
    }
    if errors > 0 {
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// Finds a counter by name in a manifest; absent counters read 0 (a
/// counter that never fired is never serialized).
fn counter(run: &RunManifest, name: &str) -> u64 {
    run.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// `hits / (hits + misses)` as a percent string, `-` before any lookup.
fn hit_rate(hits: u64, misses: u64) -> String {
    let total = hits + misses;
    if total == 0 {
        return "-".to_string();
    }
    format!("{:.1}%", 100.0 * hits as f64 / total as f64)
}

fn top(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(args, &["addr", "interval-ms", "iterations"], &["plain"])?;
    let addr = opts.require("addr")?;
    let interval_ms: u64 = parse_num("interval-ms", opts.get("interval-ms").unwrap_or("1000"))?;
    let iterations: u64 = parse_num("iterations", opts.get("iterations").unwrap_or("0"))?;
    let plain = opts.has("plain");
    let mut client = htd_serve::Client::connect(addr)?;
    let mut polled = 0u64;
    loop {
        let response = client.call(&htd_serve::Request::Stats)?;
        let htd_serve::Response::Stats {
            uptime_ns,
            queue,
            manifest,
        } = response
        else {
            return Err(format!("{addr}: expected a stats response, got {response:?}").into());
        };
        let run =
            RunManifest::parse(&manifest).map_err(|e| format!("{addr}: stats manifest: {e}"))?;
        polled += 1;
        if plain {
            println!("uptime_ns {uptime_ns}");
            println!("queue {queue}");
            println!("workers {}", run.workers);
            print!("{}", run.counters_text());
            println!();
        } else {
            // Home the cursor and clear to the end instead of wiping
            // the whole screen: no flicker at refresh rates.
            print!("\x1b[H\x1b[J");
            println!(
                "htd top — {addr} ({} {}, poll {polled})",
                run.tool.name, run.tool.version
            );
            println!(
                "uptime {:.1} s   queue {queue}   workers {}",
                uptime_ns as f64 / 1e9,
                run.workers
            );
            println!(
                "requests {} in {} batch(es): {} ok, {} error, {} busy",
                counter(&run, "serve.requests"),
                counter(&run, "serve.batches"),
                counter(&run, "serve.responses.ok"),
                counter(&run, "serve.responses.error"),
                counter(&run, "serve.responses.busy"),
            );
            println!(
                "golden cache {} hit   result cache {} hit   stats polls {}",
                hit_rate(
                    counter(&run, "store.cache.hit"),
                    counter(&run, "store.cache.miss")
                ),
                hit_rate(
                    counter(&run, "serve.cache.result.hit"),
                    counter(&run, "serve.cache.result.miss")
                ),
                counter(&run, "serve.stats.requests"),
            );
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if iterations != 0 && polled >= iterations {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// bench diff (the perf-regression gate).

/// A file `bench diff` understands: a `--metrics` run manifest or a
/// `bench --json` measurement file, sniffed by top-level key.
enum BenchFile {
    Manifest(Box<RunManifest>),
    Bench(Vec<(String, Json)>),
}

fn load_bench_file(path: &str) -> Result<BenchFile, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Json::Obj(fields) = &json else {
        return Err(format!("{path}: expected a JSON object").into());
    };
    if fields.iter().any(|(k, _)| k == "manifest_version") {
        let manifest = RunManifest::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        return Ok(BenchFile::Manifest(Box::new(manifest)));
    }
    if fields.iter().any(|(k, _)| k == "bench") {
        let Json::Obj(fields) = json else {
            unreachable!("matched above")
        };
        return Ok(BenchFile::Bench(fields));
    }
    Err(format!("{path}: neither a run manifest nor a bench measurement file").into())
}

/// The numeric value of a JSON field, whichever way the writer kept it.
fn json_num(value: &Json) -> Option<f64> {
    match value {
        Json::UInt(n) => Some(*n as f64),
        Json::Float(x) => Some(*x),
        _ => None,
    }
}

/// Deterministic sections must be identical; timings only bound by the
/// `--gate` noise band. Every regression is one human-readable line.
fn diff_manifests(old: &RunManifest, new: &RunManifest, gate: Option<f64>) -> Vec<String> {
    let mut out = Vec::new();
    if old.manifest_version != new.manifest_version {
        out.push(format!(
            "manifest_version: {} vs {}",
            old.manifest_version, new.manifest_version
        ));
    }
    if old.command != new.command {
        out.push(format!("command: `{}` vs `{}`", old.command, new.command));
    }
    if old.plan_digest != new.plan_digest {
        out.push(format!(
            "plan digest: {} vs {}",
            old.plan_digest, new.plan_digest
        ));
    }
    // Counters are the deterministic contract: the name set and every
    // value must match exactly. (tool/workers/timings/occupancy are
    // observational or provenance and never gate by themselves.)
    for (name, old_value) in &old.counters {
        match new.counters.iter().find(|(n, _)| n == name) {
            None => out.push(format!("counter {name} disappeared (was {old_value})")),
            Some((_, new_value)) if new_value != old_value => {
                out.push(format!("counter {name}: {old_value} vs {new_value}"));
            }
            Some(_) => {}
        }
    }
    for (name, new_value) in &new.counters {
        if !old.counters.iter().any(|(n, _)| n == name) {
            out.push(format!("counter {name} appeared ({new_value})"));
        }
    }
    if old.health != new.health {
        out.push(format!(
            "health: {} vs {} record(s), or their counts differ",
            old.health.len(),
            new.health.len()
        ));
    }
    if let Some(pct) = gate {
        let band = 1.0 + pct / 100.0;
        for t in &old.timings {
            let Some(n) = new.timings.iter().find(|n| n.stage == t.stage) else {
                continue; // vanished stages already show as counter drift
            };
            let bound = t.mean_ns as f64 * band;
            if n.mean_ns as f64 > bound {
                out.push(format!(
                    "timing {}: mean {} ns vs {} ns (> {pct}% over baseline)",
                    t.stage, t.mean_ns, n.mean_ns
                ));
            }
        }
    }
    out
}

/// Bench measurement files: the request mix and outcome counts are
/// deterministic; throughput and latency only gate with `--gate`.
fn diff_bench_json(
    old: &[(String, Json)],
    new: &[(String, Json)],
    gate: Option<f64>,
) -> Vec<String> {
    let field = |fields: &[(String, Json)], name: &str| -> Option<Json> {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    let mut out = Vec::new();
    for name in ["bench", "requests", "clients", "shards", "ok", "errors"] {
        let (a, b) = (field(old, name), field(new, name));
        if a != b {
            out.push(format!("{name}: {a:?} vs {b:?}"));
        }
    }
    if let Some(pct) = gate {
        let band = 1.0 + pct / 100.0;
        // Larger-is-worse latencies bound above, throughput below.
        for name in ["elapsed_ms", "p50_ms", "p99_ms"] {
            if let (Some(a), Some(b)) = (
                field(old, name).as_ref().and_then(json_num),
                field(new, name).as_ref().and_then(json_num),
            ) {
                if b > a * band {
                    out.push(format!("{name}: {a:.3} vs {b:.3} (> {pct}% over baseline)"));
                }
            }
        }
        if let (Some(a), Some(b)) = (
            field(old, "scores_per_sec").as_ref().and_then(json_num),
            field(new, "scores_per_sec").as_ref().and_then(json_num),
        ) {
            if b < a / band {
                out.push(format!(
                    "scores_per_sec: {a:.0} vs {b:.0} (> {pct}% under baseline)"
                ));
            }
        }
    }
    out
}

fn bench_diff(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(args, &["gate"], &[])?;
    let [old_path, new_path] = opts.positional.as_slice() else {
        return Err("bench diff needs exactly two files (OLD NEW)".into());
    };
    let gate: Option<f64> = opts.get("gate").map(|t| parse_num("gate", t)).transpose()?;
    if gate.is_some_and(|pct| !pct.is_finite() || pct < 0.0) {
        return Err("--gate: the noise band must be a non-negative percentage".into());
    }
    let regressions = match (load_bench_file(old_path)?, load_bench_file(new_path)?) {
        (BenchFile::Manifest(old), BenchFile::Manifest(new)) => diff_manifests(&old, &new, gate),
        (BenchFile::Bench(old), BenchFile::Bench(new)) => diff_bench_json(&old, &new, gate),
        _ => return Err("cannot diff a run manifest against a bench measurement file".into()),
    };
    if regressions.is_empty() {
        println!("bench diff: {old_path} vs {new_path}: no regression");
        return Ok(ExitCode::SUCCESS);
    }
    for r in &regressions {
        println!("regression: {r}");
    }
    println!("bench diff: {} regression(s)", regressions.len());
    Ok(ExitCode::from(4))
}

fn fuse(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(args, &[], &[])?;
    if opts.positional.len() < 2 {
        return Err("fuse needs at least two score artifacts".into());
    }
    let sets = opts
        .positional
        .iter()
        .map(htd_store::load::<ScoredChannel>)
        .collect::<Result<Vec<_>, _>>()?;
    let (per_channel, fused) = fuse_scored_channels(&sets)?;
    let mut table = Table::new(&["channel", "µ", "σ", "FN rate", "FN emp", "FP emp"]);
    for r in per_channel.iter().chain([&fused]) {
        table.push_row(&[
            r.channel.clone(),
            format!("{:.3}", r.mu),
            format!("{:.3}", r.sigma),
            pct(r.analytic_fn_rate),
            pct(r.empirical_fn_rate),
            pct(r.empirical_fp_rate),
        ]);
    }
    print!("{table}");
    Ok(ExitCode::SUCCESS)
}

fn report(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(args, &["metrics"], &["csv", "kv", "counters"])?;
    if let Some(path) = opts.get("metrics") {
        if !opts.positional.is_empty() {
            return Err("report --metrics takes no report artifact".into());
        }
        return report_metrics(path, opts.has("counters"));
    }
    let [path] = opts.positional.as_slice() else {
        return Err("report needs exactly one report artifact".into());
    };
    let report: MultiChannelReport = htd_store::load(path)?;
    let table = multi_channel_table(&report);
    if opts.has("csv") {
        print!("{}", table.to_csv());
    } else if opts.has("kv") {
        print!("{}", table.to_kv());
    } else {
        print!("{table}");
        if !report.health.is_empty() {
            println!("channel health:");
            print!("{}", health_table(&report.health));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a run manifest: the full human tables, or (with
/// `--counters`) just the deterministic counter section as `name value`
/// lines — the form CI diffs across worker counts and machines.
fn report_metrics(path: &str, counters_only: bool) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    let manifest = RunManifest::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if counters_only {
        print!("{}", manifest.counters_text());
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "run: {} {} (store format {}), command `{}`, {} worker(s)",
        manifest.tool.name,
        manifest.tool.version,
        manifest.tool.format_version,
        manifest.command,
        manifest.workers
    );
    println!("plan: {}", manifest.plan_digest);

    let mut counters = Table::new(&["counter", "value"]);
    for (name, value) in &manifest.counters {
        counters.push_row(&[name.clone(), value.to_string()]);
    }
    println!("counters (deterministic):");
    print!("{counters}");

    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let mut timings = Table::new(&["stage", "count", "total ms", "mean ms", "max ms"]);
    for t in &manifest.timings {
        timings.push_row(&[
            t.stage.clone(),
            t.count.to_string(),
            ms(t.total_ns),
            ms(t.mean_ns),
            ms(t.max_ns),
        ]);
    }
    println!("timings (observational):");
    print!("{timings}");

    if !manifest.occupancy.is_empty() {
        let mut occ = Table::new(&["workers", "items per slot"]);
        for o in &manifest.occupancy {
            let items: Vec<String> = o.items.iter().map(u64::to_string).collect();
            occ.push_row(&[o.workers.to_string(), items.join(" ")]);
        }
        println!("occupancy (observational):");
        print!("{occ}");
    }

    if !manifest.health.is_empty() {
        println!("channel health:");
        print!("{}", health_table(&health_from_records(&manifest.health)));
    }
    Ok(ExitCode::SUCCESS)
}

fn version(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(args, &[], &["json"])?;
    let info = tool_info();
    if opts.has("json") {
        print!("{}", tool_info_json(&info).to_pretty());
    } else {
        println!(
            "htd {} (store format {}, features: {})",
            info.version,
            info.format_version,
            info.features.join(", ")
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn diff(args: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let opts = Opts::parse(args, &[], &[])?;
    let [path_a, path_b] = opts.positional.as_slice() else {
        return Err("diff needs exactly two artifacts".into());
    };
    let text_a = std::fs::read_to_string(path_a).map_err(|e| Error::io(path_a, e))?;
    let text_b = std::fs::read_to_string(path_b).map_err(|e| Error::io(path_b, e))?;
    let (kind_a, kind_b) = (sniff_kind(&text_a), sniff_kind(&text_b));
    if kind_a != kind_b {
        return Err(format!(
            "cannot diff a `{}` against a `{}`",
            kind_a.unwrap_or("?"),
            kind_b.unwrap_or("?")
        )
        .into());
    }

    // Characterization artifacts (golden or reference-free) diff by
    // identity of their campaign plan — the digest printed here is the
    // serve wire/shard key, so two artifacts with the same line land on
    // the same scoring instance (the serve caches themselves key by
    // artifact content, which the row diff below distinguishes).
    if matches!(
        kind_a,
        Some(GoldenArtifact::KIND | ReferenceFreeArtifact::KIND)
    ) {
        let a = ScorableArtifact::from_text_at(&text_a, path_a)?;
        let b = ScorableArtifact::from_text_at(&text_b, path_b)?;
        println!("plan {path_a}: {}", htd_store::plan_digest_hex(a.plan()));
        println!("plan {path_b}: {}", htd_store::plan_digest_hex(b.plan()));
        if a == b {
            println!("artifacts match");
            return Ok(ExitCode::SUCCESS);
        }
        if a.plan() != b.plan() {
            println!("campaign plans differ");
        } else {
            println!("same plan, different characterizations");
        }
        return Ok(ExitCode::from(1));
    }

    let a: MultiChannelReport = htd_store::from_text_at(&text_a, path_a)?;
    let b: MultiChannelReport = htd_store::from_text_at(&text_b, path_b)?;
    println!(
        "content {path_a}: fnv1a64:{:016x}",
        htd_store::fnv1a64(text_a.as_bytes())
    );
    println!(
        "content {path_b}: fnv1a64:{:016x}",
        htd_store::fnv1a64(text_b.as_bytes())
    );
    let differences = report_differences(&a, &b);
    if differences.is_empty() {
        println!("reports match");
        return Ok(ExitCode::SUCCESS);
    }
    for d in &differences {
        println!("{d}");
    }
    Ok(ExitCode::from(1))
}

/// Human-readable differences between two reports; empty when identical.
fn report_differences(a: &MultiChannelReport, b: &MultiChannelReport) -> Vec<String> {
    let mut out = Vec::new();
    if a.n_dies != b.n_dies {
        out.push(format!("die count: {} vs {}", a.n_dies, b.n_dies));
    }
    if a.channel_names != b.channel_names {
        out.push(format!(
            "channels: [{}] vs [{}]",
            a.channel_names.join(", "),
            b.channel_names.join(", ")
        ));
    }
    if a.rows.len() != b.rows.len() {
        out.push(format!("row count: {} vs {}", a.rows.len(), b.rows.len()));
    }
    if a.health != b.health {
        out.push(format!(
            "health: {} vs {} record(s), or their counters differ",
            a.health.len(),
            b.health.len()
        ));
    }
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        if ra.name != rb.name {
            out.push(format!("row name: `{}` vs `{}`", ra.name, rb.name));
        } else if ra != rb {
            out.push(format!("row `{}` differs", ra.name));
        }
    }
    out
}
