//! The store's headline guarantee: scoring a suspect population against
//! an artifact that went through disk — characterize → save → load →
//! score — produces bit-identical per-die scores and FN rates to scoring
//! the in-memory characterization on the same `CampaignPlan`, for every
//! artifact kind, at worker counts 1 and N.

use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{
    characterize, score, Campaign, GoldenCharacterization, Reference, ScoringSession,
};
use htd_core::reffree::ReferenceFreeCharacterization;
use htd_core::{CampaignPlan, Engine, Error, Lab};
use htd_obs::Obs;
use htd_store::{GoldenArtifact, ReferenceFreeArtifact, ScorableArtifact};
use htd_trojan::TrojanSpec;

fn specs() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ]
}

/// Characterizes in memory as `R`, stores the result through `store`,
/// reloads it from disk and checks that both score identically.
fn check_round_trip<R: Reference>(
    kind: &str,
    store: impl FnOnce(Vec<ChannelSpec>, R) -> Result<ScorableArtifact, Error>,
) {
    let lab = Lab::paper();
    let plan = CampaignPlan::with_random_pairs(6, 3, 2, [0x42; 16], [0x0f; 16], 0xA5A5);
    let trojans = [TrojanSpec::ht1(), TrojanSpec::ht3()];
    let channel_specs = specs();
    let channels: Vec<Box<dyn Channel>> = channel_specs.iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();

    // The all-in-memory reference run.
    let serial = Campaign::with_engine(Engine::serial());
    let charac: R = characterize(&serial, &lab, &plan, &refs).unwrap();
    let in_memory = score(&serial, &lab, &charac, &trojans, &refs, None).unwrap();

    // Round-trip the characterization through disk.
    let path =
        std::env::temp_dir().join(format!("htd-equivalence-{kind}-{}.htd", std::process::id()));
    store(channel_specs, charac)
        .unwrap()
        .save_with(&path, &Obs::noop())
        .unwrap();
    let loaded = ScorableArtifact::load_with(&path, &Obs::noop(), false).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!loaded.recovered, "{kind}: a fresh file loads pristine");
    let loaded = loaded.artifact;

    // The loaded artifact rebuilds its own channels.
    let rebuilt = loaded.build_channels();
    let rebuilt_refs: Vec<&dyn Channel> = rebuilt.iter().map(Box::as_ref).collect();
    let reference = loaded.reference();

    // Stored per-die reference-lot scores are all there.
    for (stored, name) in reference.channels().iter().zip(["EM", "delay"]) {
        assert_eq!(stored.name, name, "{kind}");
        assert_eq!(stored.scores.len(), plan.n_dies, "{kind}");
    }

    for workers in [1usize, 4] {
        let campaign = Campaign::with_engine(Engine::with_workers(workers));
        let scored = score(&campaign, &lab, reference, &trojans, &rebuilt_refs, None).unwrap();
        // Full-report equality covers every µ, σ, analytic FN rate and
        // empirical FN/FP rate of every channel and the fused rows.
        assert_eq!(scored, in_memory, "{kind}, workers = {workers}");

        // Per-die suspect scores, one suspect at a time through a
        // session, not just fitted summaries.
        let session = ScoringSession::new(&campaign, &lab, reference, &rebuilt_refs).unwrap();
        for (s, spec) in trojans.iter().enumerate() {
            let sets = session.score_spec_at(s, spec).unwrap().design.scored;
            assert_eq!(
                sets, in_memory.designs[s].scored,
                "{kind}, workers = {workers}"
            );
        }
    }
}

#[test]
fn scoring_a_loaded_artifact_is_bit_identical_to_the_in_memory_experiment() {
    check_round_trip("golden", |specs, charac: GoldenCharacterization| {
        GoldenArtifact::new(specs, charac).map(ScorableArtifact::Golden)
    });
    check_round_trip("reffree", |specs, charac: ReferenceFreeCharacterization| {
        ReferenceFreeArtifact::new(specs, charac).map(ScorableArtifact::ReferenceFree)
    });
}
