//! Salvage-reader tests: recovering what survives of a damaged stored
//! characterization (golden or reference-free), while making it
//! impossible for a salvaged file to pass as pristine — the checksum
//! trailer is re-verified over exactly the kept lines, so dropped blocks,
//! truncation, *and* parseable bit-flips all mark the result `recovered`.
//! Every test runs once per artifact kind.

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Calibration, ChannelSpec, GoldenReference};
use htd_core::delay_detect::DelayMatrix;
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{ChannelState, GoldenCharacterization};
use htd_core::reffree::{ReferenceFreeCharacterization, ReferenceFreeFit, ReferenceFreeState};
use htd_core::resilience::ChannelHealth;
use htd_em::Trace;
use htd_faults::{FaultPlan, FaultSite};
use htd_store::{
    from_text, from_text_salvage, to_text, CharacterizationArtifact, GoldenArtifact,
    ReferenceFreeArtifact, StoredCharacterization,
};
use htd_timing::GlitchParams;

/// A stored characterization kind, as the salvage tests vary it.
trait Kind: StoredCharacterization + PartialEq + std::fmt::Debug {
    /// The first per-kind line of the EM block and of the delay block.
    const PAYLOAD: [&'static str; 2];

    /// A two-channel (EM, delay) artifact whose EM scores are
    /// `1 2.5 -3 0.125`.
    fn sample() -> CharacterizationArtifact<Self>;
}

fn plan() -> CampaignPlan {
    CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7)
}

fn glitch() -> Calibration {
    Calibration::Glitch(GlitchParams {
        start_period_ps: 5200.0,
        step_ps: 25.0,
        steps: 96,
        setup_ps: 180.0,
        noise_ps: 12.5,
    })
}

fn specs() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ]
}

impl Kind for GoldenCharacterization {
    const PAYLOAD: [&'static str; 2] = ["trace 125", "matrix 2 2"];

    fn sample() -> CharacterizationArtifact<Self> {
        let states = vec![
            ChannelState::pristine(
                "EM",
                Calibration::None,
                GoldenReference::MeanTrace(Trace::new(vec![0.5, -1.25, 1.0 / 3.0], 125.0)),
                vec![1.0, 2.5, -3.0, 0.125],
            ),
            ChannelState::pristine(
                "delay",
                glitch(),
                GoldenReference::MeanMatrix(DelayMatrix {
                    mean_onset_steps: vec![vec![4.5, 6.0], vec![5.25, 7.125]],
                }),
                vec![40.0, 41.5, 39.0, 40.25],
            ),
        ];
        let charac = GoldenCharacterization {
            plan: plan(),
            states,
            lost: vec![],
        };
        GoldenArtifact::new(specs(), charac).unwrap()
    }
}

impl Kind for ReferenceFreeCharacterization {
    const PAYLOAD: [&'static str; 2] = ["reffree-fit 0.15625", "reffree-fit 40.1875"];

    fn sample() -> CharacterizationArtifact<Self> {
        let state = |channel: &str, calibration, self_scores: Vec<f64>, mean| ReferenceFreeState {
            channel: channel.to_string(),
            calibration,
            fit: ReferenceFreeFit {
                mean,
                std: 1.5,
                n_dies: self_scores.len(),
            },
            kept: (0..self_scores.len()).collect(),
            health: ChannelHealth::pristine(channel, self_scores.len()),
            self_scores,
        };
        let states = vec![
            state(
                "EM",
                Calibration::None,
                vec![1.0, 2.5, -3.0, 0.125],
                0.15625,
            ),
            state("delay", glitch(), vec![40.0, 41.5, 39.0, 40.25], 40.1875),
        ];
        let charac = ReferenceFreeCharacterization {
            plan: plan(),
            states,
            lost: vec![],
        };
        ReferenceFreeArtifact::new(specs(), charac).unwrap()
    }
}

#[test]
fn pristine_files_salvage_as_not_recovered() {
    fn check<K: Kind>() {
        let artifact = K::sample();
        let text = to_text(&artifact);
        let s = from_text_salvage::<CharacterizationArtifact<K>>(&text).unwrap();
        assert!(!s.recovered, "untouched file must read as pristine");
        assert_eq!(s.dropped_lines, 0);
        assert_eq!(s.artifact, artifact);
    }
    check::<GoldenCharacterization>();
    check::<ReferenceFreeCharacterization>();
}

#[test]
fn a_parseable_bit_flip_cannot_masquerade_as_pristine() {
    fn check<K: Kind>() {
        let text = to_text(&K::sample());
        // Flip one score digit: the line still parses, but the checksum
        // (re-verified over the kept lines) is stale.
        assert!(text.contains("s 1 2.5 -3 0.125"), "{text}");
        let flipped = text.replace("s 1 2.5 -3 0.125", "s 1 2.5 -3 0.135");
        assert!(from_text::<CharacterizationArtifact<K>>(&flipped).is_err());
        let s = from_text_salvage::<CharacterizationArtifact<K>>(&flipped).unwrap();
        assert!(s.recovered, "stale checksum must demote the read");
        assert_eq!(s.dropped_lines, 0);
        assert_eq!(s.artifact.characterization().channels()[0].scores[3], 0.135);
    }
    check::<GoldenCharacterization>();
    check::<ReferenceFreeCharacterization>();
}

#[test]
fn a_corrupt_block_is_dropped_and_the_other_channel_survives() {
    fn check<K: Kind>() {
        let text = to_text(&K::sample());
        // Garble the EM channel's per-kind payload line.
        let [em_payload, _] = K::PAYLOAD;
        let keyword = em_payload.split(' ').next().unwrap();
        let corrupt = text.replacen(em_payload, &format!("{keyword} #!garbage"), 1);
        assert!(from_text::<CharacterizationArtifact<K>>(&corrupt).is_err());
        let s = from_text_salvage::<CharacterizationArtifact<K>>(&corrupt).unwrap();
        assert!(s.recovered);
        assert!(s.dropped_lines > 0);
        let channels = s.artifact.characterization().channels();
        assert_eq!(channels.len(), 1, "only the delay channel survives");
        assert_eq!(channels[0].name, "delay");
        assert_eq!(s.artifact.specs(), &[ChannelSpec::Delay]);
    }
    check::<GoldenCharacterization>();
    check::<ReferenceFreeCharacterization>();
}

#[test]
fn truncation_keeps_the_complete_leading_blocks() {
    fn check<K: Kind>() {
        let text = to_text(&K::sample());
        // Cut mid-way through the delay block: the EM block is complete,
        // the delay block (and the trailer) are gone.
        let [_, delay_payload] = K::PAYLOAD;
        let cut = text.find(delay_payload).expect("delay payload line");
        let s = from_text_salvage::<CharacterizationArtifact<K>>(&text[..cut]).unwrap();
        assert!(s.recovered, "no trailer means no pristine claim");
        let channels = s.artifact.characterization().channels();
        assert_eq!(channels.len(), 1);
        assert_eq!(channels[0].name, "EM");
    }
    check::<GoldenCharacterization>();
    check::<ReferenceFreeCharacterization>();
}

#[test]
fn damaged_headers_and_hopeless_bodies_still_error() {
    fn check<K: Kind>() {
        let text = to_text(&K::sample());
        // Header damage is unrecoverable (kind/version unknown).
        let bad_header = text.replacen("htdstore", "htdst0re", 1);
        assert!(from_text_salvage::<CharacterizationArtifact<K>>(&bad_header).is_err());
        // A body where no channel block survives is an error, not an
        // empty artifact.
        let no_blocks = text
            .replace("channel em", "chan#el em")
            .replace("channel delay", "chan#el delay");
        assert!(from_text_salvage::<CharacterizationArtifact<K>>(&no_blocks).is_err());
    }
    check::<GoldenCharacterization>();
    check::<ReferenceFreeCharacterization>();
    // Kinds without a salvage override stay fully strict.
    let plan_text = to_text(&plan());
    let s = from_text_salvage::<CampaignPlan>(&plan_text).unwrap();
    assert!(!s.recovered);
    let tampered = plan_text.replacen("dies 4", "dies x", 1);
    assert!(from_text_salvage::<CampaignPlan>(&tampered).is_err());
}

#[test]
fn faultplan_store_site_picks_the_lines_to_corrupt() {
    // The StoreRead site drives *which* stored lines a corruption
    // harness damages — deterministically, so the seed search below is
    // stable run to run. Only channel-block lines are candidates (the
    // plan prefix is required reading even for the salvage parser).
    fn check<K: Kind>() {
        let text = to_text(&K::sample());
        let lines: Vec<&str> = text.lines().collect();
        let first_block = lines
            .iter()
            .position(|l| l.starts_with("channel "))
            .expect("a channel block");
        let mut salvaged = None;
        for seed in 0..1000 {
            let fp = FaultPlan {
                seed,
                acquire_rate: 0.0,
                rep_rate: 0.0,
                calibrate_rate: 0.0,
                store_rate: 0.25,
            };
            let corrupt: Vec<String> = lines
                .iter()
                .enumerate()
                .map(|(i, line)| {
                    if i >= first_block
                        && i + 1 < lines.len()
                        && fp.fires(FaultSite::StoreRead, &[i as u64])
                    {
                        format!("#corrupt#{line}")
                    } else {
                        (*line).to_string()
                    }
                })
                .collect();
            let n_corrupt = corrupt
                .iter()
                .filter(|l| l.starts_with("#corrupt#"))
                .count();
            if n_corrupt == 0 {
                continue;
            }
            let damaged = corrupt.join("\n") + "\n";
            if let Ok(s) = from_text_salvage::<CharacterizationArtifact<K>>(&damaged) {
                salvaged = Some((n_corrupt, s));
                break;
            }
        }
        let (n_corrupt, s) = salvaged.expect("some seed leaves a salvageable artifact");
        assert!(s.recovered);
        assert!(s.dropped_lines >= n_corrupt);
        assert!(!s.artifact.characterization().channels().is_empty());
    }
    check::<GoldenCharacterization>();
    check::<ReferenceFreeCharacterization>();
}
