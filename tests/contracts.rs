//! The contract table: every byte-identity claim of the pipeline, checked
//! for every pinned shape. A campaign row is one `htd` pipeline (mode,
//! channels, dies × pairs × reps, seed, suspects, the phases the
//! committed fault plan applies to, train or zoo grid) plus the fixtures
//! it pins; a value row pairs a hand-built stored value with its grammar
//! fixture. Each row is its own `#[test]`, so rows run in parallel and a
//! failure names its row.
//!
//! Every campaign row checks each contract its verb allows:
//!
//! 1. its fixtures reproduce byte for byte (run manifests: only the
//!    deterministic sections — tool, command, plan digest, counters and
//!    health);
//! 2. at 1, 2 and 8 workers the products (artifact, model, report, CSV,
//!    stdout) and the counter sections are identical;
//! 3. `--metrics` and `--trace` change no product byte, and `--trace`
//!    changes no counter;
//! 4. the fault-free phases produce the same bytes with no `--faults`,
//!    under a parsed all-zero plan, and under a plan that sets only the
//!    store-read rate, which no campaign fires;
//! 5. every suspect served through an in-process `htd_serve::serve`, at
//!    1 and 8 workers with the result cache off, equals the offline
//!    single-suspect report, and the serve counters do not depend on the
//!    worker count;
//! 6. the library run in memory (`fusion::characterize` and
//!    `fusion::score`, no disk) equals the CLI run through disk.
//!
//! Row-specific assertions (the fault plan fired, replay and lint-pass
//! counts, training samples, zoo points) run on the 1-worker run. A value
//! row checks that rendering its value gives the fixture bytes and that
//! parsing the fixture gives the value.
//!
//! After a deliberate change to a format or a measurement chain, re-pin
//! every fixture through the same code the checks run:
//!
//! ```sh
//! cargo test -p htd-cli --test contracts -- --ignored regenerate
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Acquisition, Calibration, Channel, ChannelSpec, GoldenReference};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{
    characterize, score, Campaign, GoldenCharacterization, MultiChannelReport, Reference,
    ScoredChannel,
};
use htd_core::reffree::ReferenceFreeCharacterization;
use htd_core::report::multi_channel_table;
use htd_core::resilience::RetryPolicy;
use htd_core::{Engine, Lab};
use htd_faults::FaultPlan;
use htd_obs::{Obs, RunManifest};
use htd_serve::{Client, Request, Response, ServeConfig};
use htd_stats::Gaussian;
use htd_store::{Artifact, ChannelFit, ClassifierModel, GoldenArtifact, ReferenceFreeArtifact};
use htd_trojan::TrojanSpec;
use Faulted::{Both, Neither, Scoring};
use Pin::{Manifest, Output as Out};

// ---------------------------------------------------------------------------
// The table.

/// The table: `name: shape => [pins];` for a campaign row, `name: value
/// => "fixture";` for a value row. Each row becomes its own `#[test]`.
macro_rules! table {
    (
        campaigns { $($campaign:ident: $shape:expr => [$($pin:expr),*];)* }
        values { $($value:ident: $built:expr => $fixture:literal;)* }
    ) => {
        const ROWS: &[Row] = &[
            $(Row {
                name: stringify!($campaign),
                kind: Kind::Campaign($shape),
                pins: &[$($pin),*],
            },)*
            $(Row {
                name: stringify!($value),
                kind: Kind::Value(|| value($built)),
                pins: &[Pin::Value($fixture)],
            },)*
        ];
        $(#[test] fn $campaign() { check(stringify!($campaign)); })*
        $(#[test] fn $value() { check(stringify!($value)); })*
    };
}

table! {
    campaigns {
        smoke: Shape { extras: &[fired], ..SMOKE } => [Out("report.htd", "degraded_report.htd")];
        smoke_faulted: Shape { faults: Both, extras: &[fired, lints_clean], ..SMOKE } => [];
        // Prints its report: the pinned manifests count no store write.
        headline: Shape {
            dies: 8,
            seed: 2015,
            verb: Verb::Score { suspects: "sweep", store: false, train: None },
            faults: Neither,
            extras: &[lints_clean, counters_print],
            ..SMOKE
        } => [Manifest(2, "run_manifest.json"), Manifest(1, "bench_baseline_pipeline.json")];
        reffree: REFFREE => [Out("report.htd", "reffree_report.htd")];
        reffree_degraded: Shape { faults: Scoring, extras: &[fired, self_scored], ..REFFREE }
            => [Out("report.htd", "reffree_degraded_report.htd")];
        reffree_faulted: Shape { faults: Both, extras: &[fired, self_scored], ..REFFREE } => [];
        reps256: Shape { reps: 256, ..REFFREE }
            => [Out("report.htd", "reffree_reps256_report.htd")];
        power: POWER => [Out("report.htd", "power_report.htd")];
        power_reffree: Shape { mode: "reference-free", ..POWER }
            => [Out("report.htd", "reffree_power_report.htd")];
        power_faulted: Shape { dies: 6, faults: Both, extras: &[fired, replayed_once], ..POWER }
            => [];
        power_reffree_faulted: Shape {
            mode: "reference-free",
            dies: 6,
            faults: Both,
            extras: &[fired, replayed_once],
            ..POWER
        } => [];
        serve: Shape {
            dies: 3,
            verb: Verb::Score { suspects: "ht1", store: true, train: None },
            faults: Neither,
            ..SMOKE
        } => [Out("report.htd", "serve_response.htd")];
        zoo: Shape {
            dies: 3,
            verb: Verb::Zoo(&["--sizes", "4,8", "--kinds", "comb,fsm"]),
            faults: Neither,
            extras: &[zoo_points, lints_clean],
            ..SMOKE
        } => [Out("zoo.csv", "zoo_smoke.csv")];
        learned: Shape {
            verb: Verb::Score {
                suspects: "ht-seq",
                store: true,
                train: Some(&[
                    "--sizes", "8,16", "--kinds", "comb,ctr,fsm",
                    "--holdout", "ctr", "--iterations", "50",
                ]),
            },
            faults: Neither,
            extras: &[learned_row],
            ..SMOKE
        } => [Out("report.csv", "learned_smoke.csv")];
    }
    values {
        plan: values::plan() => "plan.htd";
        calibration: Calibration::Glitch(values::glitch()) => "calibration.htd";
        acquisition: Acquisition::Trace(values::trace()) => "acquisition.htd";
        reference: GoldenReference::MeanMatrix(values::matrix()) => "reference.htd";
        fit: ChannelFit {
            channel: "EM".to_string(),
            fit: Gaussian::new(300261.7222222223, 1234.5).unwrap(),
        } => "fit.htd";
        scores: ScoredChannel {
            channel: "delay".to_string(),
            golden: vec![40.0, 41.5, 39.0, 40.25],
            infected: vec![1142.076, 1138.5, 1151.0, 1147.25],
        } => "scores.htd";
        report: values::report() => "report.htd";
        golden: values::golden() => "golden.htd";
        faultplan: FaultPlan { seed: 7, acquire_rate: 0.2, rep_rate: 0.1, ..FaultPlan::none() }
            => "faultplan.htd";
        classifier: values::classifier() => "classifier.htd";
        reffree_artifact: values::reffree() => "reffree.htd";
    }
}

/// The ci.sh smoke campaign: `--dies 6 --pairs 2 --reps 2 --seed 42
/// --channels em,delay`, `ht2` scored under the committed fault plan.
const SMOKE: Shape = Shape {
    mode: "golden",
    channels: "em,delay",
    dies: 6,
    pairs: 2,
    reps: 2,
    seed: 42,
    verb: Verb::Score {
        suspects: "ht2",
        store: true,
        train: None,
    },
    faults: Faulted::Scoring,
    extras: &[],
};

const REFFREE: Shape = Shape {
    mode: "reference-free",
    dies: 4,
    faults: Faulted::Neither,
    extras: &[self_scored],
    ..SMOKE
};

const POWER: Shape = Shape {
    channels: "em,power,delay",
    dies: 4,
    faults: Faulted::Neither,
    extras: &[replayed_once],
    ..SMOKE
};

/// Fixtures no row pins: a negative schema input and a `bench diff`
/// input, each read by the test of its feature.
const UNPINNED: [&str; 2] = ["run_manifest_malformed.json", "bench_baseline_serve.json"];

struct Row {
    name: &'static str,
    kind: Kind,
    pins: &'static [Pin],
}

enum Kind {
    Campaign(Shape),
    Value(fn() -> Value),
}

/// A fixture under `tests/fixtures/` and what its row compares it with.
enum Pin {
    /// A product of the 1-worker run, byte for byte.
    Output(&'static str, &'static str),
    /// The score step's run manifest at this worker count, its
    /// deterministic sections only.
    Manifest(usize, &'static str),
    /// A value row's rendered text, byte for byte.
    Value(&'static str),
}

impl Pin {
    fn fixture(&self) -> &'static str {
        match self {
            Pin::Output(_, fixture) | Pin::Manifest(_, fixture) | Pin::Value(fixture) => fixture,
        }
    }
}

/// One campaign: the flags every step shares, the verb, the phases the
/// committed fault plan applies to and the row-specific assertions.
struct Shape {
    mode: &'static str,
    channels: &'static str,
    dies: usize,
    pairs: usize,
    reps: usize,
    seed: u64,
    verb: Verb,
    faults: Faulted,
    extras: &'static [fn(&Shape, &Run)],
}

/// What a campaign row runs after its shared flags.
enum Verb {
    /// `htd characterize`, then `htd score --trojans <suspects> --csv`,
    /// storing its report when `store`. With `train`, `htd train
    /// <train>` first fits the classifier the score step applies through
    /// `--model`.
    Score {
        suspects: &'static str,
        store: bool,
        train: Option<&'static [&'static str]>,
    },
    /// `htd zoo <grid> --csv`, which characterizes in-process.
    Zoo(&'static [&'static str]),
}

/// The phases that replay `tests/fixtures/faultplan.htd` with
/// `--max-retries 2 --allow-degraded`.
#[derive(Clone, Copy, PartialEq)]
enum Faulted {
    Neither,
    Scoring,
    Both,
}

#[test]
fn every_fixture_is_pinned_by_exactly_one_row() {
    for entry in std::fs::read_dir(fixture_dir()).expect("tests/fixtures") {
        let name = entry.expect("fixture entry").file_name();
        let name = name.to_str().expect("utf-8 fixture name");
        if UNPINNED.contains(&name) {
            continue;
        }
        let pinned_by: Vec<&str> = ROWS
            .iter()
            .flat_map(|r| r.pins.iter().map(move |p| (r.name, p.fixture())))
            .filter(|&(_, fixture)| fixture == name)
            .map(|(row, _)| row)
            .collect();
        assert_eq!(
            pinned_by.len(),
            1,
            "tests/fixtures/{name} is pinned by {pinned_by:?}"
        );
    }
}

/// Re-pins every row's fixtures from the current pipeline.
#[test]
#[ignore = "rewrites the checked-in fixtures"]
fn regenerate() {
    for row in ROWS {
        let shape = match &row.kind {
            Kind::Value(build) => {
                write_fixture(row.pins[0].fixture(), build().text.as_bytes());
                continue;
            }
            Kind::Campaign(shape) => shape,
        };
        let root = scratch(&format!("regenerate-{}", row.name));
        let mut runs: BTreeMap<usize, Run> = BTreeMap::new();
        for pin in row.pins {
            let workers = if let Manifest(workers, _) = pin {
                *workers
            } else {
                1
            };
            let run = runs
                .entry(workers)
                .or_insert_with(|| Run::new(shape, &root, Variant::metrics(workers)));
            let bytes = match pin {
                Out(output, _) => run.products[*output].clone(),
                _ => std::fs::read(run.dir.join("score.json")).expect("score manifest"),
            };
            write_fixture(pin.fixture(), &bytes);
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

// ---------------------------------------------------------------------------
// The contracts.

fn check(name: &str) {
    let row = ROWS.iter().find(|r| r.name == name).expect("a table row");
    let shape = match &row.kind {
        Kind::Value(build) => return check_value(row, &build()),
        Kind::Campaign(shape) => shape,
    };
    let root = scratch(name);
    let runs: Vec<Run> = [1, 2, 8]
        .map(|workers| Run::new(shape, &root, Variant::metrics(workers)))
        .into();

    // 1. The fixtures.
    for pin in row.pins {
        let fixture = pin.fixture();
        if let Out(output, _) = pin {
            assert!(
                runs[0].products[*output] == read_fixture(fixture),
                "{name}: contract 1: {output} drifted from tests/fixtures/{fixture}"
            );
        } else if let Manifest(workers, _) = pin {
            let run = runs.iter().find(|r| r.variant.workers == *workers).unwrap();
            let pinned = String::from_utf8(read_fixture(fixture)).unwrap();
            let pinned = RunManifest::parse(&pinned).expect("the fixture parses strictly");
            assert_eq!(
                deterministic(run.manifest("score")),
                deterministic(&pinned),
                "{name}: contract 1: the score manifest drifted from tests/fixtures/{fixture}"
            );
        }
    }

    // 2. Any worker count.
    for run in &runs[1..] {
        assert_same_products(&runs[0], run, &format!("{name}: contract 2"));
        assert_eq!(
            runs[0].counters(),
            run.counters(),
            "{name}: contract 2: counters of {} differ from {}",
            run.variant,
            runs[0].variant
        );
    }

    // 3. Observation is free of effect.
    let off = Run::new(shape, &root, Variant::off(None));
    let traced = Run::new(
        shape,
        &root,
        Variant {
            recording: Recording::Traced,
            ..Variant::metrics(2)
        },
    );
    assert_same_products(&runs[1], &off, &format!("{name}: contract 3"));
    assert_same_products(&runs[1], &traced, &format!("{name}: contract 3"));
    assert_eq!(
        runs[1].counters(),
        traced.counters(),
        "{name}: contract 3: --trace changed the counters"
    );

    // 4. An inert fault plan is no fault plan.
    if shape.faults != Faulted::Both && matches!(shape.verb, Verb::Score { .. }) {
        let zero = FaultPlan {
            seed: 7,
            ..FaultPlan::none()
        };
        let store_only = FaultPlan {
            store_rate: 0.5,
            ..zero.clone()
        };
        for (tag, plan) in [("zero", zero), ("store-only", store_only)] {
            let path = root.join(format!("{tag}.faults.htd"));
            std::fs::write(&path, htd_store::to_text(&plan)).expect("inert plan written");
            let inert = Run::new(shape, &root, Variant::off(Some(path)));
            assert_same_products(&off, &inert, &format!("{name}: contract 4"));
        }
    }

    for extra in shape.extras {
        extra(shape, &runs[0]);
    }

    if let Verb::Score { suspects, .. } = shape.verb {
        // 5. Served equals offline.
        check_served(name, shape, &runs[0], suspects);

        // 6. In memory equals through disk.
        let (artifact, report) = in_memory(shape, &runs[0]);
        let csv = multi_channel_table(&report).to_csv();
        let report = htd_store::to_text(&report);
        for (product, bytes) in [
            ("golden.htd", &artifact),
            ("report.htd", &report),
            ("report.csv", &csv),
        ] {
            assert!(
                runs[0]
                    .products
                    .get(product)
                    .is_none_or(|cli| cli == bytes.as_bytes()),
                "{name}: contract 6: the CLI's {product} differs from the in-memory run"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

fn check_value(row: &Row, value: &Value) {
    let fixture = row.pins[0].fixture();
    let stored = String::from_utf8(read_fixture(fixture)).expect("utf-8 fixture");
    assert!(
        value.text == stored,
        "{}: rendering drifted from tests/fixtures/{fixture}; \
         if intentional, bump FORMAT_VERSION and regenerate",
        row.name
    );
    assert!(
        (value.parses_back)(&stored),
        "{}: tests/fixtures/{fixture} parses to a different value",
        row.name
    );
}

/// Every product of `b` equals `a`'s, and neither run has one the other
/// lacks.
fn assert_same_products(a: &Run, b: &Run, contract: &str) {
    let names = |r: &Run| r.products.keys().cloned().collect::<Vec<_>>();
    assert_eq!(names(a), names(b), "{contract}: product sets differ");
    for (product, bytes) in &a.products {
        assert!(
            &b.products[product] == bytes,
            "{contract}: {product} of {} differs from {}",
            b.variant,
            a.variant
        );
    }
}

/// Contract 5: each suspect, twice, through an in-process server at 1
/// and 8 workers with the result cache off, under the score phase's
/// fault plan and policy and the row's model.
fn check_served(name: &str, shape: &Shape, run: &Run, suspects: &str) {
    let tokens = match suspects {
        "sweep" => vec!["ht1", "ht2", "ht3"],
        _ => suspects.split(',').collect(),
    };
    let faulted = shape.faults != Faulted::Neither;
    let offline: Vec<(&str, String)> = match run.products.get("report.htd") {
        Some(report) if tokens.len() == 1 => {
            vec![(tokens[0], String::from_utf8(report.clone()).unwrap())]
        }
        _ => tokens
            .iter()
            .map(|&token| {
                let report = format!("single-{token}.htd");
                let mut args = score_args(shape, token);
                args.extend(["--report".into(), report.clone()]);
                args.extend(fault_flags(faulted, None));
                htd_ok(&run.dir, &args);
                let text = std::fs::read_to_string(run.dir.join(report)).unwrap();
                (token, text)
            })
            .collect(),
    };
    let golden = run.dir.join("golden.htd").display().to_string();
    let model = shape
        .train()
        .map(|_| run.dir.join("model.htd").display().to_string());
    let (faults, policy) = fault_policy(faulted);

    let mut counters = Vec::new();
    for workers in [1, 8] {
        let obs = Obs::recording();
        let config = ServeConfig {
            workers,
            result_cache: 0,
            faults: faults.clone(),
            policy,
            ..ServeConfig::default()
        };
        let (bound, addr) = std::sync::mpsc::channel();
        let server = {
            let obs = obs.clone();
            std::thread::spawn(move || {
                htd_serve::serve(config, &obs, move |addr| bound.send(addr).unwrap())
            })
        };
        let mut client = Client::connect(addr.recv().expect("bound")).expect("connects");
        for _round in 0..2 {
            for (token, expected) in &offline {
                let request = Request::Score {
                    golden: golden.clone(),
                    suspect: token.to_string(),
                    model: model.clone(),
                    request: None,
                };
                let response = client.call(&request).expect("score answered");
                assert!(
                    matches!(&response, Response::Score { report, suspect, request: None, .. }
                        if report == expected && suspect == token),
                    "{name}: contract 5: served {token} at {workers} workers differs from \
                     the offline single-suspect report"
                );
            }
        }
        assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::Done);
        server.join().unwrap().expect("serve exits cleanly");
        counters.push(obs.snapshot().expect("recording").counters);
    }
    assert_eq!(
        counters[0], counters[1],
        "{name}: contract 5: serve counters at 8 workers differ from 1 worker"
    );
    let get = |key: &str| counters[0].iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    let requests = 2 * offline.len() as u64;
    assert_eq!(get("serve.requests"), Some(requests), "{name}");
    assert_eq!(get("serve.batches"), Some(requests), "{name}");
    assert_eq!(get("store.cache.miss"), Some(1), "{name}");
    assert_eq!(get("store.cache.hit"), Some(requests - 1), "{name}");
}

/// Contract 6's library run: the row's characterize and score on
/// [`Lab::paper`], in memory. Returns the stored artifact's text and the
/// report.
fn in_memory(shape: &Shape, run: &Run) -> (String, MultiChannelReport) {
    let Verb::Score {
        suspects, train, ..
    } = shape.verb
    else {
        unreachable!("only score rows characterize and score")
    };
    let specs: Vec<ChannelSpec> = shape
        .channels
        .split(',')
        .map(|name| match name {
            "em" => ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            "power" => ChannelSpec::Power(TraceMetric::SumOfLocalMaxima),
            _ => ChannelSpec::Delay,
        })
        .collect();
    let trojans: Vec<TrojanSpec> = suspects
        .split(',')
        .flat_map(|token| match token {
            "sweep" => TrojanSpec::size_sweep(),
            _ => vec![TrojanSpec::from_token(token).expect("known suspect")],
        })
        .collect();
    let model: Option<ClassifierModel> =
        train.map(|_| htd_store::from_text(&run.text("model.htd")).expect("model parses"));
    let plan = CampaignPlan::with_random_pairs(
        shape.dies,
        shape.pairs,
        shape.reps,
        [0x42; 16],
        [0x0f; 16],
        shape.seed,
    );
    let campaign = |faulted: bool| {
        let (faults, policy) = fault_policy(faulted);
        Campaign {
            engine: Engine::with_workers(2),
            faults,
            policy,
        }
    };
    let characterize_with = campaign(shape.faults == Faulted::Both);
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let score_it = |charac: &dyn Reference| {
        let score_with = campaign(shape.faults != Faulted::Neither);
        score(&score_with, &lab, charac, &trojans, &refs, model.as_ref())
            .expect("score")
            .report
    };
    // The CLI stores one spec per surviving channel, in execution order.
    let surviving = |charac: &dyn Reference| -> Vec<ChannelSpec> {
        let names: Vec<String> = charac.channels().iter().map(|c| c.name.into()).collect();
        specs
            .iter()
            .filter(|s| names.iter().any(|n| *n == s.name()))
            .cloned()
            .collect()
    };
    if shape.mode == "golden" {
        let charac: GoldenCharacterization =
            characterize(&characterize_with, &lab, &plan, &refs).expect("characterize");
        let report = score_it(&charac);
        let artifact = GoldenArtifact::new(surviving(&charac), charac).expect("storable");
        (htd_store::to_text(&artifact), report)
    } else {
        let charac: ReferenceFreeCharacterization =
            characterize(&characterize_with, &lab, &plan, &refs).expect("characterize");
        let report = score_it(&charac);
        let artifact = ReferenceFreeArtifact::new(surviving(&charac), charac).expect("storable");
        (htd_store::to_text(&artifact), report)
    }
}

/// The fault plan and retry policy of a phase: the committed plan with
/// two retries and degraded completion, or none and strict.
fn fault_policy(faulted: bool) -> (FaultPlan, RetryPolicy) {
    if faulted {
        let text = String::from_utf8(read_fixture("faultplan.htd")).unwrap();
        let plan = htd_store::from_text(&text).expect("the committed fault plan parses");
        (plan, RetryPolicy::degraded(2))
    } else {
        (FaultPlan::none(), RetryPolicy::strict())
    }
}

/// The deterministic sections of a run manifest: everything but the
/// worker count, the timings and the occupancy.
fn deterministic(m: &RunManifest) -> String {
    format!(
        "manifest {}\ntool {:?}\ncommand {}\nplan {}\n{}health {:?}\n",
        m.manifest_version,
        m.tool,
        m.command,
        m.plan_digest,
        m.counters_text(),
        m.health
    )
}

// ---------------------------------------------------------------------------
// Row-specific assertions.

/// The fault plan fired: the report's health section records retries or
/// drops.
fn fired(_: &Shape, run: &Run) {
    let report: MultiChannelReport =
        htd_store::from_text(&run.text("report.htd")).expect("report parses");
    let activity: usize = report
        .health
        .iter()
        .map(|h| h.retried + h.dropped + h.reps_dropped)
        .sum();
    assert!(activity > 0, "the fault plan fired nowhere: {report:?}");
}

/// A die task reads its die once: the characterization replays each die
/// once, and scoring once per (die, suspect).
fn replayed_once(shape: &Shape, run: &Run) {
    let replays = |step: &str| run.counter(step, "span.timing.replay");
    let designs = run.counter("score", "score.designs");
    assert_eq!(replays("characterize"), shape.dies as u64);
    assert_eq!(replays("score"), shape.dies as u64 * designs);
}

/// The lint gate ran each check pass once per scored design, found
/// nothing and removed nothing.
fn lints_clean(_: &Shape, run: &Run) {
    let (step, _) = run.manifests.last().unwrap();
    let designs = run.counter(step, "score.designs");
    assert!(designs > 0);
    for pass in ["check_unconnected", "check_comb_loops", "check_fanout"] {
        assert_eq!(run.counter(step, &format!("pass.{pass}.runs")), designs);
        for outcome in ["lints", "cells_removed", "nets_removed"] {
            assert_eq!(run.counter(step, &format!("pass.{pass}.{outcome}")), 0);
        }
    }
}

/// `htd report --metrics --counters` prints exactly the manifest's
/// counter section, and the characterize manifest carries health.
fn counters_print(_: &Shape, run: &Run) {
    let printed = htd_ok(
        &run.dir,
        &["report", "--metrics", "score.json", "--counters"],
    );
    assert_eq!(
        String::from_utf8(printed.stdout).unwrap(),
        run.manifest("score").counters_text()
    );
    assert!(!run.manifest("characterize").health.is_empty());
}

/// Reference-free scoring registered its within-die self-scores.
fn self_scored(_: &Shape, run: &Run) {
    assert!(run.counter("score", "score.reffree.selfscores") > 0);
    assert_eq!(run.counter("score", "score.reffree.designs"), 1);
}

/// Every grid point reached the heat map, and the per-kind counters
/// count them.
fn zoo_points(_: &Shape, run: &Run) {
    assert_eq!(run.counter("zoo", "zoo.points"), 4);
    assert_eq!(run.counter("zoo", "zoo.kind.comb"), 2);
    assert_eq!(run.counter("zoo", "zoo.kind.fsm"), 2);
    for point in ["zoo-comb-4", "zoo-fsm-4", "zoo-comb-8", "zoo-fsm-8"] {
        assert!(run.text("zoo.out").contains(point), "stdout lacks {point}");
        assert!(run.text("zoo.csv").contains(point), "csv lacks {point}");
    }
}

/// The classifier trained on the golden dies plus every die of each
/// training design, and the report carries its row.
fn learned_row(shape: &Shape, run: &Run) {
    let designs = run.counter("train", "train.designs");
    let samples = shape.dies as u64 * (1 + designs);
    assert!(designs > 0);
    assert_eq!(run.counter("train", "train.samples"), samples);
    assert_eq!(run.counter("train", "train.iterations"), 50);
    assert!(run.text("report.htd").contains("learned"));
}

// ---------------------------------------------------------------------------
// Running a campaign row through the `htd` binary.

#[derive(Clone, Copy, PartialEq)]
enum Recording {
    Off,
    Metrics,
    Traced,
}

/// How one run of a row differs from the others.
struct Variant {
    workers: usize,
    recording: Recording,
    /// An inert fault plan passed to every fault-free campaign step.
    inert: Option<PathBuf>,
}

impl Variant {
    fn metrics(workers: usize) -> Variant {
        Variant {
            workers,
            recording: Recording::Metrics,
            inert: None,
        }
    }

    fn off(inert: Option<PathBuf>) -> Variant {
        Variant {
            workers: 2,
            recording: Recording::Off,
            inert,
        }
    }
}

/// Names the run in messages and its directory: `w8-metrics`,
/// `w2-off-store-only.faults.htd`, …
impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let recording = match self.recording {
            Recording::Off => "off",
            Recording::Metrics => "metrics",
            Recording::Traced => "traced",
        };
        write!(f, "w{}-{recording}", self.workers)?;
        match &self.inert {
            Some(plan) => write!(f, "-{}", plan.file_name().unwrap().to_string_lossy()),
            None => Ok(()),
        }
    }
}

/// One run of a campaign row: its products (output files, and each
/// step's stdout without its `wrote …` lines) and its run manifests.
struct Run {
    dir: PathBuf,
    variant: Variant,
    products: BTreeMap<String, Vec<u8>>,
    manifests: Vec<(String, RunManifest)>,
}

impl Shape {
    fn train(&self) -> Option<&'static [&'static str]> {
        match self.verb {
            Verb::Score { train, .. } => train,
            Verb::Zoo(_) => None,
        }
    }
}

/// `htd score` of the row's golden (and model) for `suspects`.
fn score_args(shape: &Shape, suspects: &str) -> Vec<String> {
    let head = ["score", "--golden", "golden.htd", "--trojans", suspects];
    let mut args = head.map(String::from).to_vec();
    if shape.train().is_some() {
        args.extend(["--model".into(), "model.htd".into()]);
    }
    args
}

/// A campaign step's fault flags: the committed plan when its phase is
/// faulted, else the run's inert plan if it has one.
fn fault_flags(faulted: bool, inert: Option<&Path>) -> Vec<String> {
    match (faulted, inert) {
        (true, _) => {
            let plan = fixture_dir().join("faultplan.htd").display().to_string();
            ["--faults", &plan, "--max-retries", "2", "--allow-degraded"]
                .map(String::from)
                .to_vec()
        }
        (false, Some(plan)) => vec!["--faults".into(), plan.display().to_string()],
        (false, None) => vec![],
    }
}

impl Run {
    fn new(shape: &Shape, root: &Path, variant: Variant) -> Run {
        let dir = root.join(variant.to_string());
        std::fs::create_dir_all(&dir).expect("run dir");
        let mut run = Run {
            dir,
            variant,
            products: BTreeMap::new(),
            manifests: Vec::new(),
        };
        let campaign = [
            ("--dies", shape.dies.to_string()),
            ("--pairs", shape.pairs.to_string()),
            ("--reps", shape.reps.to_string()),
            ("--seed", shape.seed.to_string()),
            ("--channels", shape.channels.to_string()),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value]);
        let with = |head: &[&str], tail: &[&str]| -> Vec<String> {
            let head = head.iter().chain(tail).map(|a| a.to_string());
            head.chain(campaign.clone()).collect()
        };
        match shape.verb {
            Verb::Score {
                suspects,
                store,
                train,
            } => {
                let characterize = ["characterize", "--out", "golden.htd", "--mode", shape.mode];
                let faulted = shape.faults == Faulted::Both;
                run.step(with(&characterize, &[]), faulted, &["golden.htd"]);
                if let Some(train) = train {
                    let args = with(&["train", "--out", "model.htd"], train);
                    run.step(args, false, &["model.htd"]);
                }
                let mut args = score_args(shape, suspects);
                let mut outputs = vec!["report.csv"];
                args.extend(["--csv".into(), "report.csv".into()]);
                if store {
                    args.extend(["--report".into(), "report.htd".into()]);
                    outputs.push("report.htd");
                }
                run.step(args, shape.faults != Faulted::Neither, &outputs);
            }
            Verb::Zoo(grid) => {
                let args = with(&["zoo", "--csv", "zoo.csv"], grid);
                run.step(args, false, &["zoo.csv"]);
            }
        }
        run
    }

    /// Runs one `htd` step in the run's directory under the variant's
    /// worker count, recording and fault plan.
    fn step(&mut self, mut args: Vec<String>, faulted: bool, outputs: &[&str]) {
        let verb = args[0].clone();
        // Only the campaign verbs take fault plans and traces.
        let campaign_verb = verb == "characterize" || verb == "score";
        args.extend(["--workers".into(), self.variant.workers.to_string()]);
        if self.variant.recording != Recording::Off {
            args.extend(["--metrics".into(), format!("{verb}.json")]);
        }
        if self.variant.recording == Recording::Traced && campaign_verb {
            args.extend(["--trace".into(), format!("{verb}.trace.json")]);
        }
        if campaign_verb {
            args.extend(fault_flags(faulted, self.variant.inert.as_deref()));
        }
        let stdout = String::from_utf8(htd_ok(&self.dir, &args).stdout).unwrap();
        let stdout: String = stdout
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .map(|l| format!("{l}\n"))
            .collect();
        self.products.insert(format!("{verb}.out"), stdout.into());
        for output in outputs {
            let bytes = std::fs::read(self.dir.join(output)).expect("step output written");
            self.products.insert(output.to_string(), bytes);
        }
        if self.variant.recording != Recording::Off {
            let text = std::fs::read_to_string(self.dir.join(format!("{verb}.json"))).unwrap();
            let manifest = RunManifest::parse(&text).expect("manifest parses strictly");
            assert_eq!(manifest.command, verb);
            assert_eq!(manifest.workers as usize, self.variant.workers);
            self.manifests.push((verb, manifest));
        }
    }

    fn text(&self, product: &str) -> String {
        String::from_utf8(self.products[product].clone()).expect("utf-8 product")
    }

    fn manifest(&self, step: &str) -> &RunManifest {
        let found = self.manifests.iter().find(|(s, _)| s == step);
        &found.unwrap_or_else(|| panic!("no {step} manifest")).1
    }

    fn counter(&self, step: &str, name: &str) -> u64 {
        let counters = &self.manifest(step).counters;
        let found = counters.iter().find(|(k, _)| k == name);
        found
            .unwrap_or_else(|| panic!("no {step} counter {name:?} in {counters:?}"))
            .1
    }

    /// Every step's counter section, in step order.
    fn counters(&self) -> String {
        self.manifests
            .iter()
            .map(|(step, m)| format!("[{step}]\n{}", m.counters_text()))
            .collect()
    }
}

/// Runs `htd args…` in `dir` and insists on success.
fn htd_ok<S: AsRef<std::ffi::OsStr> + std::fmt::Debug>(dir: &Path, args: &[S]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_htd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("htd spawns");
    assert!(
        out.status.success(),
        "htd {args:?} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()))
}

fn write_fixture(name: &str, bytes: &[u8]) {
    let path = fixture_dir().join(name);
    std::fs::write(&path, bytes).unwrap();
    println!("wrote {}", path.display());
}

/// A fresh scratch directory per row, so parallel rows never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-contracts-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// ---------------------------------------------------------------------------
// The values of the value rows.

/// A value row's check: the value's rendered text, and whether a text
/// parses back to the value.
struct Value {
    text: String,
    parses_back: Box<dyn Fn(&str) -> bool>,
}

fn value<A: Artifact + PartialEq + 'static>(value: A) -> Value {
    Value {
        text: htd_store::to_text(&value),
        parses_back: Box::new(move |text| htd_store::from_text(text).is_ok_and(|v: A| v == value)),
    }
}

mod values {
    use htd_core::campaign::CampaignPlan;
    use htd_core::channel::{Calibration, ChannelSpec, GoldenReference};
    use htd_core::delay_detect::DelayMatrix;
    use htd_core::em_detect::TraceMetric;
    use htd_core::fusion::{
        ChannelResult, ChannelState, GoldenCharacterization, MultiChannelReport, MultiChannelRow,
    };
    use htd_core::reffree::{ReferenceFreeCharacterization, ReferenceFreeFit, ReferenceFreeState};
    use htd_core::resilience::ChannelHealth;
    use htd_em::Trace;
    use htd_store::{ClassifierModel, GoldenArtifact, ReferenceFreeArtifact};
    use htd_timing::GlitchParams;

    pub fn glitch() -> GlitchParams {
        GlitchParams {
            start_period_ps: 5200.0,
            step_ps: 25.0,
            steps: 96,
            setup_ps: 180.0,
            noise_ps: 12.5,
        }
    }

    pub fn plan() -> CampaignPlan {
        CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7)
    }

    pub fn trace() -> Trace {
        Trace::new(vec![0.5, -1.25, 1.0 / 3.0, 300261.7222222223], 125.0)
    }

    pub fn matrix() -> DelayMatrix {
        DelayMatrix {
            mean_onset_steps: vec![vec![4.5, 6.0], vec![5.25, 7.125]],
        }
    }

    pub fn report() -> MultiChannelReport {
        let result = |channel: &str, mu| ChannelResult {
            channel: channel.to_string(),
            mu,
            sigma: 1.0 / 3.0,
            analytic_fn_rate: 1e-9,
            empirical_fn_rate: 0.0,
            empirical_fp_rate: 0.125,
        };
        MultiChannelReport {
            rows: vec![MultiChannelRow {
                name: "HT \"fixture\"".to_string(),
                size_fraction: 0.0123,
                channels: vec![result("EM", 12.5), result("delay", 135.078)],
                fused: Some(result("fused", 3.245)),
            }],
            n_dies: 4,
            channel_names: vec!["EM".to_string(), "delay".to_string()],
            health: vec![],
        }
    }

    fn em_delay() -> Vec<ChannelSpec> {
        vec![
            ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            ChannelSpec::Delay,
        ]
    }

    pub fn golden() -> GoldenArtifact {
        let states = vec![
            ChannelState::pristine(
                "EM",
                Calibration::None,
                GoldenReference::MeanTrace(trace()),
                vec![1.0, 2.5, -3.0, 0.125],
            ),
            ChannelState::pristine(
                "delay",
                Calibration::Glitch(glitch()),
                GoldenReference::MeanMatrix(matrix()),
                vec![40.0, 41.5, 39.0, 40.25],
            ),
        ];
        let plan = plan();
        let lost = vec![];
        GoldenArtifact::new(em_delay(), GoldenCharacterization { plan, states, lost }).unwrap()
    }

    pub fn classifier() -> ClassifierModel {
        ClassifierModel {
            features: vec!["EM".to_string(), "delay".to_string()],
            bias: -0.125,
            weights: vec![1.5, -2.25],
            means: vec![300261.7222222223, 40.5],
            stds: vec![1234.5, 1.0 / 3.0],
            seed: 2015,
            iterations: 200,
            rate: 0.5,
        }
    }

    pub fn reffree() -> ReferenceFreeArtifact {
        let mut delay_health = ChannelHealth::pristine("delay", 4);
        delay_health.dropped = 1;
        let state = |channel: &str, calibration, self_scores, fit, kept, health| {
            let channel = channel.to_string();
            ReferenceFreeState {
                channel,
                calibration,
                self_scores,
                fit,
                kept,
                health,
            }
        };
        let fit = |mean, std, n_dies| ReferenceFreeFit { mean, std, n_dies };
        let states = vec![
            state(
                "EM",
                Calibration::None,
                vec![1.0, 2.5, -3.0, 0.125],
                fit(0.15625, 2.0078, 4),
                vec![0, 1, 2, 3],
                ChannelHealth::pristine("EM", 4),
            ),
            state(
                "delay",
                Calibration::Glitch(glitch()),
                vec![40.0, 39.0, 40.25],
                fit(39.75, 0.5401, 3),
                vec![0, 2, 3],
                delay_health,
            ),
        ];
        let (plan, lost) = (plan(), vec![]);
        let charac = ReferenceFreeCharacterization { plan, states, lost };
        ReferenceFreeArtifact::new(em_delay(), charac).unwrap()
    }
}
