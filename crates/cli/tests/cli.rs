//! End-to-end tests of the `htd` binary: characterize → score → fuse →
//! report → diff, all through the real executable, plus the headline
//! guarantee — the report `htd score` writes from a stored golden
//! artifact is byte-identical to the in-memory experiment, at every
//! worker count.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{characterize, score, Campaign, GoldenCharacterization, MultiChannelReport};
use htd_core::{CampaignPlan, Engine, Lab};
use htd_trojan::TrojanSpec;

fn htd(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_htd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn htd")
}

fn expect_success(out: &Output) -> String {
    assert!(
        out.status.success(),
        "htd failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn pipeline_roundtrips_and_matches_the_in_memory_experiment() {
    let dir = workdir();

    // Characterize a small golden population.
    let out = htd(
        &dir,
        &[
            "characterize",
            "--out",
            "golden.htd",
            "--dies",
            "6",
            "--pairs",
            "2",
            "--reps",
            "2",
            "--seed",
            "42",
            "--channels",
            "em,delay",
            "--fits-dir",
            "fits",
        ],
    );
    let stdout = expect_success(&out);
    assert!(stdout.contains("characterized 6 golden dies"), "{stdout}");
    assert!(dir.join("fits/em.fit.htd").is_file());
    assert!(dir.join("fits/delay.fit.htd").is_file());

    // Score two suspects at one worker, then at four: identical artifacts.
    let score_args = |report: &str, workers: &str| {
        [
            "score",
            "--golden",
            "golden.htd",
            "--trojans",
            "ht2,ht-seq",
            "--report",
            report.to_string().leak(),
            "--csv",
            "report.csv",
            "--scores-dir",
            "scores",
            "--workers",
            workers.to_string().leak(),
        ]
    };
    let stdout = expect_success(&htd(&dir, &score_args("report1.htd", "1")));
    assert!(
        stdout.contains("HT 2") && stdout.contains("fused"),
        "{stdout}"
    );
    expect_success(&htd(&dir, &score_args("report4.htd", "4")));
    let report1 = std::fs::read_to_string(dir.join("report1.htd")).unwrap();
    let report4 = std::fs::read_to_string(dir.join("report4.htd")).unwrap();
    assert_eq!(report1, report4, "worker count changed the stored report");

    // The stored report equals the in-memory experiment, byte for byte.
    let lab = Lab::paper();
    let plan = CampaignPlan::with_random_pairs(6, 2, 2, [0x42; 16], [0x0f; 16], 42);
    let specs = [
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ];
    let channels: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let trojans = [TrojanSpec::ht2(), TrojanSpec::ht_seq()];
    let campaign = Campaign::with_engine(Engine::serial());
    let charac: GoldenCharacterization = characterize(&campaign, &lab, &plan, &refs).unwrap();
    let in_memory = score(&campaign, &lab, &charac, &trojans, &refs, None)
        .unwrap()
        .report;
    assert_eq!(report1, htd_store::to_text(&in_memory));

    // Fusing the stored per-channel scores reproduces the fused row.
    let stdout = expect_success(&htd(
        &dir,
        &[
            "fuse",
            "scores/ht-2.em.scores.htd",
            "scores/ht-2.delay.scores.htd",
        ],
    ));
    let fused_row = in_memory.rows[0].fused.as_ref().unwrap();
    assert!(stdout.contains("fused"), "{stdout}");
    assert!(stdout.contains(&format!("{:.3}", fused_row.mu)), "{stdout}");

    // Render the stored report as CSV and key=value.
    let stdout = expect_success(&htd(&dir, &["report", "report1.htd", "--csv"]));
    assert!(stdout.starts_with("HT,channel,"), "{stdout}");
    let stdout = expect_success(&htd(&dir, &["report", "report1.htd", "--kv"]));
    assert!(stdout.contains("row0.ht=HT 2"), "{stdout}");

    // diff: identical → 0, modified → 1, malformed → 2.
    let out = htd(&dir, &["diff", "report1.htd", "report4.htd"]);
    assert_eq!(out.status.code(), Some(0));
    let mut other: MultiChannelReport = htd_store::load(dir.join("report1.htd")).unwrap();
    other.rows[0].name = "HT 2 (tampered)".to_string();
    htd_store::save(dir.join("other.htd"), &other).unwrap();
    let out = htd(&dir, &["diff", "report1.htd", "other.htd"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("row name"),
        "diff output"
    );
    std::fs::write(dir.join("corrupt.htd"), &report1[..report1.len() / 2]).unwrap();
    let out = htd(&dir, &["diff", "report1.htd", "corrupt.htd"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt.htd"),
        "error must carry the path"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A private workdir per test, so concurrent tests never race on
/// cleanup.
fn labdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htd-cli-test-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

#[test]
fn error_paths_locate_the_fault_and_never_exit_zero() {
    let dir = labdir("errors");

    // Missing file: exit 2, message carries the path.
    let out = htd(&dir, &["score", "--golden", "missing.htd"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("missing.htd"), "{stderr}");

    // Wrong kind: a campaign plan is not a report, and the message says
    // where (path:line) and why.
    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7);
    htd_store::save(dir.join("plan.htd"), &plan).unwrap();
    let out = htd(&dir, &["report", "plan.htd"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("plan.htd:1:"), "{stderr}");
    assert!(stderr.contains("expected `report`"), "{stderr}");

    // Corrupt trailer: flip one checksum digit. Exit 2, message carries
    // the trailer's line number and names the checksum.
    let text = std::fs::read_to_string(dir.join("plan.htd")).unwrap();
    let mut corrupt = text.trim_end().to_string();
    let last = corrupt.pop().unwrap();
    corrupt.push(if last == '0' { '1' } else { '0' });
    corrupt.push('\n');
    let trailer_line = corrupt.lines().count();
    std::fs::write(dir.join("corrupt.htd"), &corrupt).unwrap();
    let out = htd(&dir, &["report", "corrupt.htd"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains(&format!("corrupt.htd:{trailer_line}:")),
        "{stderr}"
    );
    assert!(stderr.contains("checksum mismatch"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_flags_retry_degrade_and_gate_on_drop_rate() {
    let dir = labdir("faults");
    expect_success(&htd(
        &dir,
        &[
            "characterize",
            "--out",
            "golden.htd",
            "--dies",
            "6",
            "--pairs",
            "2",
            "--reps",
            "2",
            "--seed",
            "42",
            "--channels",
            "em,delay",
        ],
    ));
    std::fs::copy(fixture("faultplan.htd"), dir.join("faultplan.htd")).unwrap();

    // Strict (no retries, no degradation): an injected fault is fatal.
    let out = htd(
        &dir,
        &[
            "score",
            "--golden",
            "golden.htd",
            "--trojans",
            "ht2",
            "--faults",
            "faultplan.htd",
        ],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("htd:"));

    // With retries and --allow-degraded the campaign completes and prints
    // a health section (the contract table's `smoke` row pins its bytes).
    let out = htd(
        &dir,
        &[
            "score",
            "--golden",
            "golden.htd",
            "--trojans",
            "ht2",
            "--faults",
            "faultplan.htd",
            "--max-retries",
            "2",
            "--allow-degraded",
        ],
    );
    let stdout = expect_success(&out);
    assert!(stdout.contains("channel health:"), "{stdout}");

    // The drop-rate gate: with no retry budget some die stays dropped,
    // and a zero tolerance turns completion into exit 3.
    let out = htd(
        &dir,
        &[
            "score",
            "--golden",
            "golden.htd",
            "--trojans",
            "ht2",
            "--faults",
            "faultplan.htd",
            "--max-retries",
            "0",
            "--allow-degraded",
            "--max-drop-rate",
            "0",
        ],
    );
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-drop-rate"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_with_usage_errors() {
    let dir = workdir();
    // Unknown command.
    let out = htd(&dir, &["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    // Missing required flag.
    let out = htd(&dir, &["characterize"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
    // Unknown trojan name.
    let out = htd(
        &dir,
        &["score", "--golden", "missing.htd", "--trojans", "nope"],
    );
    assert_eq!(out.status.code(), Some(2));
    // Help succeeds.
    let out = htd(&dir, &["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("characterize"));
}

#[test]
fn characterize_checks_the_model_against_the_channels_in_every_mode() {
    let dir = labdir("model-check");
    std::fs::copy(fixture("classifier.htd"), dir.join("model.htd")).unwrap();
    let characterize = |mode: &str, channels: &str| {
        htd(
            &dir,
            &[
                "characterize",
                "--out",
                "artifact.htd",
                "--mode",
                mode,
                "--dies",
                "3",
                "--pairs",
                "1",
                "--reps",
                "1",
                "--seed",
                "42",
                "--channels",
                channels,
                "--model",
                "model.htd",
            ],
        )
    };
    // The fixture classifier's features are [EM, delay]: an EM-only
    // campaign cannot use it, whatever the mode.
    for mode in ["golden", "reference-free"] {
        let out = characterize(mode, "em");
        assert_eq!(out.status.code(), Some(2), "--mode {mode}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("do not match the channel set"), "{stderr}");
    }
    let stdout = expect_success(&characterize("reference-free", "em,delay"));
    assert!(
        stdout.contains("model model.htd matches channel set [EM, delay]"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_compares_characterization_artifacts_of_either_kind_by_plan() {
    let dir = labdir("diff-kinds");
    for mode in ["golden", "reference-free"] {
        for seed in ["1", "2"] {
            expect_success(&htd(
                &dir,
                &[
                    "characterize",
                    "--out",
                    &format!("{mode}-{seed}.htd"),
                    "--mode",
                    mode,
                    "--dies",
                    "3",
                    "--pairs",
                    "1",
                    "--reps",
                    "1",
                    "--seed",
                    seed,
                    "--channels",
                    "em",
                ],
            ));
        }
        let a = format!("{mode}-1.htd");
        let b = format!("{mode}-2.htd");
        let out = htd(&dir, &["diff", &a, &a]);
        assert_eq!(out.status.code(), Some(0), "--mode {mode}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("artifacts match"));
        let out = htd(&dir, &["diff", &a, &b]);
        assert_eq!(out.status.code(), Some(1), "--mode {mode}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("campaign plans differ"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `tests/fixtures/golden.htd` with its EM block removed: a
/// checksum-valid, delay-only golden whose 2 × 2 reference matrix does
/// not match the pairs × 128-bit onset matrices the lab acquires.
fn delay_only_golden() -> String {
    let text = std::fs::read_to_string(fixture("golden.htd")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let em = lines.iter().position(|l| *l == "channel em solm").unwrap();
    let delay = lines.iter().position(|l| *l == "channel delay").unwrap();
    let mut body: String = lines[..em]
        .iter()
        .chain(&lines[delay..lines.len() - 1])
        .map(|l| match *l {
            "channels 2" => "channels 1\n".to_string(),
            l => format!("{l}\n"),
        })
        .collect();
    let sum = htd_store::fnv1a64(body.as_bytes());
    body.push_str(&format!("checksum fnv1a64 {sum:016x}\n"));
    body
}

#[test]
fn a_mis_shaped_stored_reference_is_rejected_not_a_crash() {
    let dir = labdir("mis-shaped");
    std::fs::copy(fixture("golden.htd"), dir.join("golden.htd")).unwrap();
    std::fs::write(dir.join("delay-only.htd"), delay_only_golden()).unwrap();
    // The committed golden fixture carries a 4-sample EM trace; the
    // delay-only variant a 2 × 2 onset matrix. Both are checksum-valid,
    // and both must be refused as a usage error naming the channel —
    // never a panic (exit 101), never a score over a partial overlap.
    for (golden, channel) in [("golden.htd", "EM"), ("delay-only.htd", "delay")] {
        let out = htd(&dir, &["score", "--golden", golden, "--trojans", "ht2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{golden}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{channel} channel received data of the wrong shape"
            )),
            "{golden}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksum-valid golden whose glitch calibration performs zero steps:
/// the strict parser must refuse it as a usage error naming the
/// calibration. It used to pass, then panic on `steps - 1` in debug
/// builds (exit 101) and score a silently wrong verdict in release ones.
#[test]
fn a_zero_step_glitch_calibration_is_rejected_not_scored() {
    let dir = labdir("zero-steps");
    expect_success(&htd(
        &dir,
        &[
            "characterize",
            "--out",
            "golden.htd",
            "--dies",
            "4",
            "--pairs",
            "2",
            "--reps",
            "2",
            "--seed",
            "42",
            "--channels",
            "delay",
        ],
    ));
    let text = std::fs::read_to_string(dir.join("golden.htd")).unwrap();
    let mut body: String = text
        .lines()
        .filter(|l| !l.starts_with("checksum "))
        .map(|l| match l.strip_prefix("calibration glitch ") {
            Some(params) => {
                let mut words: Vec<&str> = params.split_whitespace().collect();
                words[2] = "0";
                format!("calibration glitch {}\n", words.join(" "))
            }
            None => format!("{l}\n"),
        })
        .collect();
    assert!(body.contains("calibration glitch "), "{body}");
    let sum = htd_store::fnv1a64(body.as_bytes());
    body.push_str(&format!("checksum fnv1a64 {sum:016x}\n"));
    std::fs::write(dir.join("zero-steps.htd"), body).unwrap();
    let out = htd(
        &dir,
        &["score", "--golden", "zero-steps.htd", "--trojans", "ht1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("glitch calibration"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A delay campaign with no pairs or no repetitions is refused as a
/// usage error, when characterizing and when scoring a stored plan. It
/// used to pass: zero repetitions were measured as one while the
/// artifact recorded zero, and zero pairs characterized an empty matrix
/// under a meaningless calibration.
#[test]
fn an_empty_delay_campaign_is_rejected_not_characterized() {
    let dir = labdir("empty-delay");
    let characterize = |out: &str, pairs: &str, reps: &str| {
        htd(
            &dir,
            &[
                "characterize",
                "--out",
                out,
                "--dies",
                "3",
                "--pairs",
                pairs,
                "--reps",
                reps,
                "--seed",
                "42",
                "--channels",
                "delay",
            ],
        )
    };
    for (pairs, reps, what) in [("2", "0", "repetitions"), ("0", "2", "pairs")] {
        let out = characterize("empty.htd", pairs, reps);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--pairs {pairs} --reps {reps}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("empty population: delay campaign {what}")),
            "{stderr}"
        );
        assert!(!dir.join("empty.htd").exists());
    }

    // A checksum-valid golden whose stored plan records zero repetitions
    // cannot be scored either.
    expect_success(&characterize("golden.htd", "2", "2"));
    let text = std::fs::read_to_string(dir.join("golden.htd")).unwrap();
    let mut body: String = text
        .lines()
        .filter(|l| !l.starts_with("checksum "))
        .map(|l| match l {
            "repetitions 2" => "repetitions 0\n".to_string(),
            l => format!("{l}\n"),
        })
        .collect();
    assert!(body.contains("repetitions 0\n"), "{body}");
    let sum = htd_store::fnv1a64(body.as_bytes());
    body.push_str(&format!("checksum fnv1a64 {sum:016x}\n"));
    std::fs::write(dir.join("zero-reps.htd"), body).unwrap();
    let out = htd(
        &dir,
        &["score", "--golden", "zero-reps.htd", "--trojans", "ht1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("empty population: delay campaign repetitions"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--channels em,em` used to acquire EM twice, score two identical EM
/// rows plus a "fused" row of EM with itself, and overwrite one
/// `--scores-dir` file with the other. Every command that characterizes
/// now refuses a repeated channel before it programs a device.
#[test]
fn duplicate_channels_are_rejected_before_any_measurement() {
    let dir = labdir("dup-channels");
    let campaign = [
        "--dies",
        "3",
        "--pairs",
        "1",
        "--reps",
        "1",
        "--channels",
        "em,em",
    ];
    let grid = ["--sizes", "4", "--kinds", "comb"];
    let commands: [Vec<&str>; 3] = [
        ["characterize", "--out", "dup.htd"]
            .into_iter()
            .chain(campaign)
            .collect(),
        ["train", "--out", "model.htd"]
            .into_iter()
            .chain(grid)
            .chain(campaign)
            .collect(),
        ["zoo"].into_iter().chain(grid).chain(campaign).collect(),
    ];
    for args in commands {
        let out = htd(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("expected distinct channel names"),
            "{}: {stderr}",
            args[0]
        );
    }
    assert!(!dir.join("dup.htd").exists());
    assert!(!dir.join("model.htd").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `htd fuse` given one channel's score artifact twice used to exit 0
/// and print two identical rows plus a "fused" row of the channel with
/// itself. Fusion now refuses a repeated channel as a usage error.
#[test]
fn fusing_one_channel_twice_is_rejected() {
    let dir = labdir("dup-fuse");
    let golden = [
        "characterize",
        "--out",
        "golden.htd",
        "--dies",
        "3",
        "--pairs",
        "1",
        "--reps",
        "1",
        "--channels",
        "em,delay",
    ];
    expect_success(&htd(&dir, &golden));
    let score = [
        "score",
        "--golden",
        "golden.htd",
        "--trojans",
        "ht1",
        "--scores-dir",
        "sd",
    ];
    expect_success(&htd(&dir, &score));
    let em = "sd/ht-1.em.scores.htd";
    assert!(dir.join(em).is_file());
    let out = htd(&dir, &["fuse", em, em]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("expected distinct channel names"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A suspect named twice — directly, through an alias, or inside
/// `sweep` — used to be scored twice under two seed streams, printing
/// two row groups with different numbers and writing its
/// `--scores-dir` files twice; a repeated zoo size or kind added a
/// second grid row of the same name. Each such list is now refused
/// before anything is characterized or scored.
#[test]
fn repeated_suspects_and_grid_entries_are_rejected_before_any_measurement() {
    let dir = labdir("dup-suspects");
    let campaign = [
        "--dies",
        "3",
        "--pairs",
        "1",
        "--reps",
        "1",
        "--channels",
        "em",
    ];
    let mut args = vec!["characterize", "--out", "golden.htd"];
    args.extend(campaign);
    expect_success(&htd(&dir, &args));
    for trojans in ["ht1,ht-1", "sweep,ht2", "HT3,ht3"] {
        let out = htd(
            &dir,
            &[
                "score",
                "--golden",
                "golden.htd",
                "--trojans",
                trojans,
                "--scores-dir",
                "scores",
            ],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{trojans}: {stderr}");
        assert!(
            stderr.contains("each suspect is scored once"),
            "{trojans}: {stderr}"
        );
    }
    assert!(!dir.join("scores").exists());
    for grid in [
        ["--sizes", "4,4", "--kinds", "comb"],
        ["--sizes", "4", "--kinds", "comb,comb"],
    ] {
        let mut args = vec!["zoo"];
        args.extend(grid);
        args.extend(campaign);
        let out = htd(&dir, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{grid:?}: {stderr}");
        assert!(stderr.contains("is listed twice"), "{grid:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{grid:?} printed rows");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The learned-mode smoke: train on the zoo grid with the whole
/// counter-trigger family held out, then score the paper's sequential
/// counter trojan (an unseen family) through the model. The report's
/// CSV must reproduce `tests/fixtures/learned_smoke.csv` byte for byte.
#[test]
fn a_held_out_learned_score_reproduces_the_pinned_csv() {
    let dir = labdir("learned-smoke");
    let campaign = ["--dies", "6", "--pairs", "2", "--reps", "2", "--seed", "42"];
    let characterize = [
        "characterize",
        "--out",
        "golden.htd",
        "--channels",
        "em,delay",
    ];
    let train = [
        "train",
        "--out",
        "model.htd",
        "--sizes",
        "8,16",
        "--kinds",
        "comb,ctr,fsm",
        "--holdout",
        "ctr",
        "--iterations",
        "50",
    ];
    for verb in [&characterize[..], &train[..]] {
        expect_success(&htd(&dir, &[verb, &campaign[..]].concat()));
    }
    expect_success(&htd(
        &dir,
        &[
            "score",
            "--golden",
            "golden.htd",
            "--model",
            "model.htd",
            "--trojans",
            "ht-seq",
            "--report",
            "learned.htd",
        ],
    ));
    let csv = expect_success(&htd(&dir, &["report", "learned.htd", "--csv"]));
    let pinned = std::fs::read_to_string(fixture("learned_smoke.csv")).unwrap();
    assert_eq!(csv, pinned, "learned CSV drifted from fixture");
    std::fs::remove_dir_all(&dir).ok();
}

/// `struct timeval` of the Linux 64-bit ABI.
#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux 64-bit ABI: two timevals followed by
/// fourteen longs, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Runs `htd args…` in `dir` to completion and returns its peak resident
/// set in KiB, from the kernel's per-child accounting (`wait4`'s
/// `ru_maxrss`), so the test harness's own memory never counts.
// The child is reaped by `wait4` below, which `std` cannot see.
#[allow(clippy::zombie_processes)]
fn peak_rss_kb(dir: &Path, args: &[&str]) -> u64 {
    let child = Command::new(env!("CARGO_BIN_EXE_htd"))
        .current_dir(dir)
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn htd");
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel ABI expects (`int` and `struct rusage`); `pid` names
        // this test's own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "wait4: {err}");
    }
    assert_eq!(status, 0, "htd {args:?} failed (wait status {status})");
    u64::try_from(usage.longs[0]).unwrap_or(0)
}

/// A campaign keeps at most `workers` programmed devices alive, so its
/// memory grows with what it keeps per die (one trace, one onset matrix
/// and one die's settle times), not with the ~0.55 MiB of simulation
/// state behind each device: a 256-die characterize peaks at most at
/// twice a 32-die one. Release-only (debug builds allocate
/// differently); `ci.sh` runs it by name:
///
/// ```sh
/// cargo test --release -p htd-cli --test cli -- --ignored characterize_peak_memory
/// ```
#[test]
#[ignore = "release-only memory bound; ci.sh runs it by name"]
fn characterize_peak_memory_grows_with_kept_rows_not_devices() {
    let dir = labdir("peak-rss");
    let peak = |dies: &str| {
        let out = format!("golden-{dies}.htd");
        peak_rss_kb(
            &dir,
            &[
                "characterize",
                "--out",
                &out,
                "--dies",
                dies,
                "--pairs",
                "2",
                "--reps",
                "2",
                "--channels",
                "em,delay",
                "--workers",
                "2",
            ],
        )
    };
    let (small, large) = (peak("32"), peak("256"));
    println!("peak RSS: 32 dies {small} KiB, 256 dies {large} KiB");
    assert!(
        large <= 2 * small,
        "256 dies peaked at {large} KiB, more than twice the 32-die {small} KiB"
    );
    std::fs::remove_dir_all(&dir).ok();
}
