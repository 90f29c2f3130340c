//! The global power chain, pinned byte for byte through characterize →
//! store → score. The three-channel campaign of the `ci.sh` power smoke
//! (`htd characterize --dies 4 --pairs 2 --reps 2 --seed 42 --channels
//! em,power,delay`, golden and `--mode reference-free`) is rendered as a
//! stored artifact, parsed back, and scored against `ht2`; the reports
//! must reproduce `tests/fixtures/power_report.htd` and
//! `tests/fixtures/reffree_power_report.htd` exactly.
//!
//! To regenerate after a deliberate change to a measurement chain:
//!
//! ```sh
//! cargo test -p htd-store --test power_chain -- --ignored regenerate
//! ```

use std::path::PathBuf;

use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{characterize, score, Campaign, GoldenCharacterization, Reference};
use htd_core::reffree::ReferenceFreeCharacterization;
use htd_core::{CampaignPlan, Engine, Error, Lab};
use htd_store::{GoldenArtifact, ReferenceFreeArtifact, ScorableArtifact};
use htd_trojan::TrojanSpec;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn plan() -> CampaignPlan {
    CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 42)
}

fn specs() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Power(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ]
}

/// Characterizes the campaign as `R` and renders it through `store` as
/// artifact text.
fn stored<R: Reference>(
    store: impl FnOnce(Vec<ChannelSpec>, R) -> Result<String, Error>,
) -> String {
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let campaign = Campaign::with_engine(Engine::with_workers(2));
    let charac: R = characterize(&campaign, &Lab::paper(), &plan(), &refs).expect("characterize");
    store(specs(), charac).expect("storable")
}

/// Parses stored artifact text back and scores `ht2` against it, with
/// the channels the artifact itself describes.
fn scored(text: &str) -> String {
    let artifact = ScorableArtifact::from_text_at(text, "power-chain").expect("artifact parses");
    let channels = artifact.build_channels();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let campaign = Campaign::with_engine(Engine::with_workers(2));
    let report = score(
        &campaign,
        &Lab::paper(),
        artifact.reference(),
        &[TrojanSpec::ht2()],
        &refs,
        None,
    )
    .expect("scoring completes")
    .report;
    htd_store::to_text(&report)
}

/// The two pinned reports: golden and reference-free.
fn power_fixtures() -> [(&'static str, String); 2] {
    [
        (
            "power_report.htd",
            scored(&stored(|specs, charac: GoldenCharacterization| {
                Ok(htd_store::to_text(&GoldenArtifact::new(specs, charac)?))
            })),
        ),
        (
            "reffree_power_report.htd",
            scored(&stored(|specs, charac: ReferenceFreeCharacterization| {
                Ok(htd_store::to_text(&ReferenceFreeArtifact::new(
                    specs, charac,
                )?))
            })),
        ),
    ]
}

#[test]
fn three_channel_campaigns_match_the_pinned_power_reports() {
    for (name, report) in power_fixtures() {
        let path = fixture_dir().join(name);
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run the regenerate test below",
                path.display()
            )
        });
        assert!(report.contains("result \"power\""), "{report}");
        assert_eq!(report, pinned, "report drifted from {}", path.display());
    }
}

/// Rewrites both power report fixtures from the current pipeline.
#[test]
#[ignore = "regenerates the checked-in power report fixtures"]
fn regenerate_power_reports() {
    for (name, report) in power_fixtures() {
        let path = fixture_dir().join(name);
        std::fs::write(&path, report).unwrap();
        println!("wrote {}", path.display());
    }
}
