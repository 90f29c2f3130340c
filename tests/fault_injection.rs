//! End-to-end fault-injection behaviour of the library campaign API:
//! the strict/degraded policy split (exhaustion errors vs
//! quarantine-and-continue), lost channels, the precedence of a strict
//! campaign's first error, and the degraded and reference-free reports
//! the library produces. The same byte identity through the `htd` CLI —
//! at any worker count, under observation, and against the same pinned
//! reports — is checked by the contract table in `tests/contracts.rs`,
//! whose `regenerate` test re-pins every fixture.

use std::path::PathBuf;

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Channel, ChannelSpec};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{characterize, score, Campaign, GoldenCharacterization, MultiChannelReport};
use htd_core::reffree::ReferenceFreeCharacterization;
use htd_core::resilience::RetryPolicy;
use htd_core::{Engine, Error, Lab};
use htd_faults::{FaultPlan, FaultSite};
use htd_trojan::TrojanSpec;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The `smoke` row's campaign in `tests/contracts.rs`: `htd
/// characterize --dies 6 --pairs 2 --reps 2 --seed 42 --channels
/// em,delay`.
fn plan() -> CampaignPlan {
    CampaignPlan::with_random_pairs(6, 2, 2, [0x42; 16], [0x0f; 16], 42)
}

fn specs() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
        ChannelSpec::Delay,
    ]
}

/// The checked-in `tests/fixtures/faultplan.htd` value.
fn faultplan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        acquire_rate: 0.2,
        rep_rate: 0.1,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    }
}

/// A campaign on `workers` workers under `faults` + `policy`.
fn campaign(workers: usize, faults: &FaultPlan, policy: RetryPolicy) -> Campaign {
    Campaign {
        engine: Engine::with_workers(workers),
        faults: faults.clone(),
        policy,
    }
}

/// Characterizes and scores `ht2` under `faults` + `policy`, both
/// phases faulted, on `workers` workers.
fn faulted_campaign(
    workers: usize,
    faults: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(GoldenCharacterization, MultiChannelReport), Error> {
    let campaign = campaign(workers, faults, *policy);
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac: GoldenCharacterization = characterize(&campaign, &lab, &plan(), &refs)?;
    // A lost channel would leave `refs` out of lockstep with the states;
    // none of these tests expect that here.
    assert_eq!(charac.states.len(), refs.len(), "no channel lost");
    let scored = score(&campaign, &lab, &charac, &[TrojanSpec::ht2()], &refs, None)?;
    Ok((charac, scored.report))
}

#[test]
fn degraded_reports_are_bit_identical_across_worker_counts() {
    let faults = faultplan();
    let policy = RetryPolicy::degraded(2);
    let texts: Vec<String> = [1, 2, 8]
        .iter()
        .map(|&w| {
            let (_, report) = faulted_campaign(w, &faults, &policy).expect("campaign completes");
            htd_store::to_text(&report)
        })
        .collect();
    assert_eq!(texts[0], texts[1], "1 vs 2 workers");
    assert_eq!(texts[0], texts[2], "1 vs 8 workers");

    // The run must be *actually* degraded, not vacuously identical: the
    // health section exists and records fault activity.
    let (_, report) = faulted_campaign(1, &faults, &policy).unwrap();
    assert!(!report.health.is_empty(), "health section present");
    let activity: usize = report
        .health
        .iter()
        .map(|h| h.retried + h.dropped + h.reps_dropped)
        .sum();
    assert!(activity > 0, "the fault plan fired somewhere: {report:?}");
}

/// The CLI smoke flow, as a library call: a **pristine** golden artifact
/// (characterize runs fault-free) scored under the committed fault plan.
fn smoke_flow_report() -> MultiChannelReport {
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac: GoldenCharacterization = characterize(
        &Campaign::with_engine(Engine::with_workers(2)),
        &lab,
        &plan(),
        &refs,
    )
    .expect("characterize");
    let faulted = campaign(2, &faultplan(), RetryPolicy::degraded(2));
    score(&faulted, &lab, &charac, &[TrojanSpec::ht2()], &refs, None)
        .expect("degraded scoring completes")
        .report
}

#[test]
fn a_faulted_campaign_matches_the_pinned_degraded_report() {
    let path = fixture_dir().join("degraded_report.htd");
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); see tests/contracts.rs for the regenerate command",
            path.display()
        )
    });
    assert_eq!(
        htd_store::to_text(&smoke_flow_report()),
        stored,
        "degraded report drifted from {}",
        path.display()
    );
}

#[test]
fn strict_policies_surface_exhaustion_instead_of_degrading() {
    // At a 90% acquire fault rate, some die exhausts a zero-retry budget
    // with near certainty; strict policy must turn that into an error.
    let faults = FaultPlan {
        seed: 1,
        acquire_rate: 0.9,
        rep_rate: 0.0,
        calibrate_rate: 0.0,
        store_rate: 0.0,
    };
    let err = faulted_campaign(2, &faults, &RetryPolicy::strict()).unwrap_err();
    assert!(
        matches!(err, Error::AcquisitionExhausted { .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn moderate_drop_rates_complete_with_per_channel_health() {
    // A campaign with ~20% injected acquisition drops and *no* retry
    // budget must still complete under allow_degraded, quarantining the
    // faulted dies. Deterministic seed search: find a plan that drops at
    // least one die yet leaves every channel two dies to stand on.
    let policy = RetryPolicy {
        max_retries: 0,
        allow_degraded: true,
    };
    let mut outcome = None;
    for seed in 0..1000 {
        let faults = FaultPlan {
            seed,
            acquire_rate: 0.2,
            rep_rate: 0.0,
            calibrate_rate: 0.0,
            store_rate: 0.0,
        };
        let Ok((charac, report)) = faulted_campaign(2, &faults, &policy) else {
            continue;
        };
        let dropped: usize = charac.states.iter().map(|s| s.health.dropped).sum();
        if dropped == 0 {
            continue;
        }
        outcome = Some((charac, report));
        break;
    }
    let (charac, report) = outcome.expect("some seed drops a die but completes");
    for state in &charac.states {
        assert!(state.kept.len() >= 2);
        assert_eq!(state.kept.len(), charac.plan.n_dies - state.health.dropped);
    }
    assert_eq!(report.health.len(), 2, "one health record per channel");
    assert!(report.health.iter().all(|h| !h.lost));
}

#[test]
fn an_exhausted_calibration_loses_the_channel_but_not_the_campaign() {
    // Deterministic seed search on the fault plan alone (no simulation):
    // EM (channel 0) must diverge on all three calibration attempts while
    // delay (channel 1) calibrates within budget.
    let max_retries = 2;
    let seed = (0..1000)
        .find(|&seed| {
            let fp = FaultPlan {
                seed,
                acquire_rate: 0.0,
                rep_rate: 0.0,
                calibrate_rate: 0.5,
                store_rate: 0.0,
            };
            let all_fire =
                |c: u64| (0..=max_retries as u64).all(|a| fp.fires(FaultSite::Calibrate, &[c, a]));
            all_fire(0) && !all_fire(1)
        })
        .expect("some seed loses exactly the EM calibration");
    let faults = FaultPlan {
        seed,
        acquire_rate: 0.0,
        rep_rate: 0.0,
        calibrate_rate: 0.5,
        store_rate: 0.0,
    };
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let degraded = campaign(2, &faults, RetryPolicy::degraded(max_retries));
    let charac: GoldenCharacterization = characterize(&degraded, &lab, &plan(), &refs)
        .expect("the delay channel carries the campaign");
    let names: Vec<&str> = charac.states.iter().map(|s| s.channel.as_str()).collect();
    assert_eq!(names, ["delay"]);
    assert_eq!(charac.lost.len(), 1);
    assert_eq!(charac.lost[0].channel, "EM");
    assert!(charac.lost[0].lost);
    assert_eq!(charac.lost[0].attempted, max_retries + 1);

    // The degraded characterization still stores and round-trips.
    let artifact =
        htd_store::GoldenArtifact::new(vec![ChannelSpec::Delay], charac).expect("storable");
    let text = htd_store::to_text(&artifact);
    let back: htd_store::GoldenArtifact = htd_store::from_text(&text).expect("round-trips");
    assert_eq!(back, artifact);

    // Under the strict policy the same plan is a hard error.
    let strict = campaign(
        2,
        &faults,
        RetryPolicy {
            max_retries,
            allow_degraded: false,
        },
    );
    let err = characterize::<GoldenCharacterization>(&strict, &lab, &plan(), &refs).unwrap_err();
    assert!(
        matches!(err, Error::CalibrationDiverged { .. }),
        "unexpected error: {err}"
    );
}

/// The reference-free CI smoke campaign: `htd characterize --mode
/// reference-free --dies 4 --pairs 2 --reps 2 --seed 42 --channels
/// em,delay`.
fn reffree_plan() -> CampaignPlan {
    CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 42)
}

/// The reference-free smoke flow as a library call: a pristine
/// reference-free characterization scoring `ht2` under `faults` +
/// `policy`.
fn reffree_flow_report(faults: &FaultPlan, policy: &RetryPolicy) -> MultiChannelReport {
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let charac: ReferenceFreeCharacterization = characterize(
        &Campaign::with_engine(Engine::with_workers(2)),
        &lab,
        &reffree_plan(),
        &refs,
    )
    .expect("characterize reference-free");
    let faulted = campaign(2, faults, *policy);
    score(&faulted, &lab, &charac, &[TrojanSpec::ht2()], &refs, None)
        .expect("reference-free scoring completes")
        .report
}

/// The two pinned reference-free reports: fault-free, and under the
/// committed fault plan with two retries and degradation allowed.
fn reffree_fixtures() -> [(&'static str, MultiChannelReport); 2] {
    [
        (
            "reffree_report.htd",
            reffree_flow_report(&FaultPlan::none(), &RetryPolicy::strict()),
        ),
        (
            "reffree_degraded_report.htd",
            reffree_flow_report(&faultplan(), &RetryPolicy::degraded(2)),
        ),
    ]
}

#[test]
fn reference_free_campaigns_match_the_pinned_reports() {
    for (name, report) in reffree_fixtures() {
        let path = fixture_dir().join(name);
        let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); see tests/contracts.rs for the regenerate command",
                path.display()
            )
        });
        assert_eq!(
            htd_store::to_text(&report),
            stored,
            "reference-free report drifted from {}",
            path.display()
        );
    }
}

/// A fault plan under which, with no retries, EM (channel 0) first
/// exhausts die `em_die` while delay (channel 1) already exhausts the
/// lower die `delay_die`, in population `pop`. Found from the fault
/// decisions alone, without simulating.
fn em_high_delay_low(pop: u64) -> (FaultPlan, usize) {
    let n_dies = plan().n_dies as u64;
    (0..10_000)
        .find_map(|seed| {
            let faults = FaultPlan {
                seed,
                acquire_rate: 0.3,
                rep_rate: 0.0,
                calibrate_rate: 0.0,
                store_rate: 0.0,
            };
            let first =
                |c: u64| (0..n_dies).find(|&j| faults.fires(FaultSite::Acquire, &[c, pop, j, 0]));
            match (first(0), first(1)) {
                (Some(em), Some(delay)) if delay < em => Some((faults, em as usize)),
                _ => None,
            }
        })
        .expect("some seed exhausts a higher EM die and a lower delay die")
}

/// Under the strict policy the campaign's error is the first failing
/// channel's, then its lowest die — the precedence of running the
/// channels one after another — even though a die-major pass meets the
/// delay channel's lower die first.
#[test]
fn strict_campaigns_report_the_earlier_channel_before_the_lower_die() {
    let lab = Lab::paper();
    let channels: Vec<Box<dyn Channel>> = specs().iter().map(ChannelSpec::build).collect();
    let refs: Vec<&dyn Channel> = channels.iter().map(Box::as_ref).collect();
    let is_em_at = |err: &Error, want: usize| {
        matches!(err, Error::AcquisitionExhausted { channel, die, attempts: 1 }
            if channel == "EM" && *die == want)
    };

    let (faults, em_die) = em_high_delay_low(0);
    for workers in [1, 2, 8] {
        let strict = campaign(workers, &faults, RetryPolicy::strict());
        let err =
            characterize::<GoldenCharacterization>(&strict, &lab, &plan(), &refs).unwrap_err();
        assert!(
            is_em_at(&err, em_die),
            "characterize, {workers} workers: {err}"
        );
    }

    // Scoring: suspect 0 is fault population 1.
    let charac: GoldenCharacterization =
        characterize(&Campaign::default(), &lab, &plan(), &refs).expect("characterize");
    let (faults, em_die) = em_high_delay_low(1);
    for workers in [1, 2, 8] {
        let strict = campaign(workers, &faults, RetryPolicy::strict());
        let err = score(&strict, &lab, &charac, &[TrojanSpec::ht2()], &refs, None).unwrap_err();
        assert!(is_em_at(&err, em_die), "score, {workers} workers: {err}");
    }
}
