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

    // With retries and --allow-degraded the campaign completes, prints a
    // health section, and stores exactly the committed degraded report.
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
            "--report",
            "degraded.htd",
        ],
    );
    let stdout = expect_success(&out);
    assert!(stdout.contains("channel health:"), "{stdout}");
    let stored = std::fs::read_to_string(dir.join("degraded.htd")).unwrap();
    let pinned = std::fs::read_to_string(fixture("degraded_report.htd")).unwrap();
    assert_eq!(stored, pinned, "CLI degraded report drifted from fixture");
    let out = htd(
        &dir,
        &[
            "diff",
            "degraded.htd",
            fixture("degraded_report.htd").to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0));

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
