//! Property-based tests of the artifact format: round-trip identity for
//! every artifact kind over arbitrary values, and total rejection of
//! corrupted input — every truncation and every bit flip must yield an
//! `Err`, never a panic, never a silently wrong value.

use htd_core::campaign::CampaignPlan;
use htd_core::channel::{Acquisition, Calibration, ChannelSpec, GoldenReference};
use htd_core::delay_detect::DelayMatrix;
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{
    ChannelResult, ChannelState, GoldenCharacterization, MultiChannelReport, MultiChannelRow,
    ScoredChannel,
};
use htd_core::reffree::{ReferenceFreeCharacterization, ReferenceFreeFit, ReferenceFreeState};
use htd_core::resilience::ChannelHealth;
use htd_em::Trace;
use htd_faults::FaultPlan;
use htd_stats::Gaussian;
use htd_store::{from_text, to_text, ChannelFit, GoldenArtifact, ReferenceFreeArtifact};
use htd_timing::GlitchParams;
use proptest::prelude::*;

fn finite() -> std::ops::Range<f64> {
    -1.0e9..1.0e9
}

/// Labels stressing the quoting rules: quotes, backslashes, newlines.
fn label() -> impl Strategy<Value = String> {
    "[a-zEM\"\\\\\n µσ]{0,12}"
}

fn plan_strategy() -> impl Strategy<Value = CampaignPlan> {
    (
        (2usize..12, any::<[u8; 16]>(), any::<[u8; 16]>()),
        (
            proptest::collection::vec((any::<[u8; 16]>(), any::<[u8; 16]>()), 0..4),
            0usize..4,
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |((n_dies, pt, key), (pairs, repetitions, seed, spec_stride))| CampaignPlan {
                n_dies,
                pt,
                key,
                pairs,
                repetitions,
                seed,
                spec_stride,
            },
        )
}

fn calibration_strategy() -> impl Strategy<Value = Calibration> {
    (
        0usize..2,
        (
            1.0f64..20_000.0,
            0.1f64..200.0,
            1usize..200,
            0.0f64..500.0,
            0.0f64..50.0,
        ),
    )
        .prop_map(|(sel, (start, step, steps, setup, noise))| {
            if sel == 0 {
                Calibration::None
            } else {
                Calibration::Glitch(GlitchParams {
                    start_period_ps: start,
                    step_ps: step,
                    steps: steps as u16,
                    setup_ps: setup,
                    noise_ps: noise,
                })
            }
        })
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    (proptest::collection::vec(finite(), 0..40), 1.0f64..1000.0)
        .prop_map(|(samples, dt)| Trace::new(samples, dt))
}

/// Rectangular matrices (ragged rows are a format error by design).
fn matrix_strategy() -> impl Strategy<Value = DelayMatrix> {
    proptest::collection::vec(proptest::collection::vec(finite(), 1..5), 0..4).prop_map(|rows| {
        let bits = rows.iter().map(Vec::len).min().unwrap_or(0);
        DelayMatrix {
            mean_onset_steps: rows
                .into_iter()
                .map(|mut r| {
                    r.truncate(bits);
                    r
                })
                .collect(),
        }
    })
}

fn result_strategy() -> impl Strategy<Value = ChannelResult> {
    (
        label(),
        (
            finite(),
            0.001f64..1.0e6,
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..1.0,
        ),
    )
        .prop_map(|(channel, (mu, sigma, a, e, f))| ChannelResult {
            channel,
            mu,
            sigma,
            analytic_fn_rate: a,
            empirical_fn_rate: e,
            empirical_fp_rate: f,
        })
}

fn health_strategy() -> impl Strategy<Value = ChannelHealth> {
    (
        label(),
        (
            0usize..100,
            0usize..100,
            0usize..100,
            0usize..1000,
            0usize..1000,
        ),
        any::<bool>(),
    )
        .prop_map(
            |(channel, (attempted, retried, dropped, reps_attempted, reps_dropped), lost)| {
                ChannelHealth {
                    channel,
                    attempted,
                    retried,
                    dropped,
                    reps_attempted,
                    reps_dropped,
                    lost,
                }
            },
        )
}

fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    )
        .prop_map(
            |(seed, (acquire_rate, rep_rate, calibrate_rate, store_rate))| FaultPlan {
                seed,
                acquire_rate,
                rep_rate,
                calibrate_rate,
                store_rate,
            },
        )
}

fn report_strategy() -> impl Strategy<Value = MultiChannelReport> {
    let row = (
        (label(), 0.0f64..1.0),
        proptest::collection::vec(result_strategy(), 0..3),
        (0usize..2, result_strategy()),
    )
        .prop_map(
            |((name, size_fraction), channels, (has_fused, fused))| MultiChannelRow {
                name,
                size_fraction,
                channels,
                fused: (has_fused == 1).then_some(fused),
            },
        );
    (
        proptest::collection::vec(row, 0..3),
        2usize..20,
        proptest::collection::vec(label(), 0..3),
        proptest::collection::vec(health_strategy(), 0..3),
    )
        .prop_map(|(rows, n_dies, channel_names, health)| MultiChannelReport {
            rows,
            n_dies,
            channel_names,
            health,
        })
}

/// One channel block of a stored characterization, with every per-kind
/// payload drawn so either kind can be assembled from it.
#[derive(Debug)]
struct Block {
    spec: ChannelSpec,
    calibration: Calibration,
    reference: GoldenReference,
    fit: (f64, f64),
    scores: Vec<f64>,
    kept: Vec<usize>,
    health: ChannelHealth,
}

/// The shared shape of both stored characterization kinds: a plan, one
/// to three channel blocks and a possibly empty `lost` section.
fn stored_strategy() -> impl Strategy<Value = (CampaignPlan, Vec<Block>, Vec<ChannelHealth>)> {
    plan_strategy().prop_flat_map(|plan| {
        let n = plan.n_dies;
        (
            Just(plan),
            proptest::collection::vec(
                (
                    (0usize..3, calibration_strategy()),
                    (trace_strategy(), matrix_strategy()),
                    (finite(), 0.001f64..1.0e6),
                    proptest::collection::vec(finite(), n..n + 1),
                    proptest::collection::vec(any::<bool>(), n..n + 1),
                ),
                1..4,
            ),
            proptest::collection::vec(health_strategy(), 0..2),
        )
            .prop_map(|(plan, chans, mut lost)| {
                let n = plan.n_dies;
                let blocks = chans
                    .into_iter()
                    .map(|((sel, calibration), (trace, matrix), fit, scores, mask)| {
                        let spec = match sel {
                            0 => ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
                            1 => ChannelSpec::Power(TraceMetric::MaxPoint),
                            _ => ChannelSpec::Delay,
                        };
                        let reference = if matches!(spec, ChannelSpec::Delay) {
                            GoldenReference::MeanMatrix(matrix)
                        } else {
                            GoldenReference::MeanTrace(trace)
                        };
                        // Drop a random subset of dies (keeping at least
                        // two) so degraded kept/health markers round-trip
                        // too.
                        let kept: Vec<usize> = (0..n).filter(|&j| mask[j]).collect();
                        let (kept, scores) = if kept.len() < 2 {
                            ((0..n).collect::<Vec<_>>(), scores)
                        } else {
                            let scores = kept.iter().map(|&j| scores[j]).collect();
                            (kept, scores)
                        };
                        let mut health = ChannelHealth::pristine(spec.name(), n);
                        health.dropped = n - kept.len();
                        Block {
                            spec,
                            calibration,
                            reference,
                            fit,
                            scores,
                            kept,
                            health,
                        }
                    })
                    .collect();
                for h in &mut lost {
                    h.lost = true;
                }
                (plan, blocks, lost)
            })
    })
}

fn golden_strategy() -> impl Strategy<Value = GoldenArtifact> {
    stored_strategy().prop_map(|(plan, blocks, lost)| {
        let specs = blocks.iter().map(|b| b.spec).collect();
        let states = blocks
            .into_iter()
            .map(|b| ChannelState {
                channel: b.spec.name().to_string(),
                calibration: b.calibration,
                reference: b.reference,
                scores: b.scores,
                kept: b.kept,
                health: b.health,
            })
            .collect();
        GoldenArtifact::new(specs, GoldenCharacterization { plan, states, lost })
            .expect("strategy builds consistent artifacts")
    })
}

fn reffree_strategy() -> impl Strategy<Value = ReferenceFreeArtifact> {
    stored_strategy().prop_map(|(plan, blocks, lost)| {
        let specs = blocks.iter().map(|b| b.spec).collect();
        let states = blocks
            .into_iter()
            .map(|b| ReferenceFreeState {
                channel: b.spec.name().to_string(),
                calibration: b.calibration,
                fit: ReferenceFreeFit {
                    mean: b.fit.0,
                    std: b.fit.1,
                    n_dies: b.scores.len(),
                },
                self_scores: b.scores,
                kept: b.kept,
                health: b.health,
            })
            .collect();
        ReferenceFreeArtifact::new(specs, ReferenceFreeCharacterization { plan, states, lost })
            .expect("strategy builds consistent artifacts")
    })
}

/// Round-trip identity: parsing a rendered artifact recovers the exact
/// value, bit-for-bit on every float.
macro_rules! assert_roundtrip {
    ($ty:ty, $value:expr) => {{
        let value: $ty = $value;
        let text = to_text(&value);
        let back = from_text::<$ty>(&text).expect(&text);
        prop_assert_eq!(&back, &value, "artifact text:\n{}", text);
    }};
}

proptest! {
    #[test]
    fn plan_roundtrips(plan in plan_strategy()) {
        assert_roundtrip!(CampaignPlan, plan);
    }

    #[test]
    fn calibration_roundtrips(cal in calibration_strategy()) {
        assert_roundtrip!(Calibration, cal);
    }

    #[test]
    fn acquisition_roundtrips(sel in 0usize..2, t in trace_strategy(), m in matrix_strategy()) {
        if sel == 0 {
            assert_roundtrip!(Acquisition, Acquisition::Trace(t));
        } else {
            assert_roundtrip!(Acquisition, Acquisition::Matrix(m));
        }
    }

    #[test]
    fn reference_roundtrips(sel in 0usize..2, t in trace_strategy(), m in matrix_strategy()) {
        if sel == 0 {
            assert_roundtrip!(GoldenReference, GoldenReference::MeanTrace(t));
        } else {
            assert_roundtrip!(GoldenReference, GoldenReference::MeanMatrix(m));
        }
    }

    #[test]
    fn fit_roundtrips(channel in label(), mean in finite(), std in 0.001f64..1.0e6) {
        assert_roundtrip!(ChannelFit, ChannelFit { channel, fit: Gaussian::new(mean, std).unwrap() });
    }

    #[test]
    fn scores_roundtrip(
        channel in label(),
        golden in proptest::collection::vec(finite(), 0..30),
        infected in proptest::collection::vec(finite(), 0..30),
    ) {
        assert_roundtrip!(ScoredChannel, ScoredChannel { channel, golden, infected });
    }

    #[test]
    fn report_roundtrips(report in report_strategy()) {
        assert_roundtrip!(MultiChannelReport, report);
    }

    #[test]
    fn golden_roundtrips(artifact in golden_strategy()) {
        assert_roundtrip!(GoldenArtifact, artifact);
    }

    #[test]
    fn reffree_roundtrips(artifact in reffree_strategy()) {
        assert_roundtrip!(ReferenceFreeArtifact, artifact);
    }

    #[test]
    fn fault_plans_roundtrip(plan in fault_plan_strategy()) {
        assert_roundtrip!(FaultPlan, plan);
    }

    /// Random truncations of arbitrary golden artifacts always error.
    #[test]
    fn truncated_golden_artifacts_error(artifact in golden_strategy(), cut in any::<u64>()) {
        let text = to_text(&artifact);
        let cut = (cut % text.len() as u64) as usize;
        let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        prop_assert!(from_text::<GoldenArtifact>(&text[..cut]).is_err());
    }

    /// Random single-bit flips of arbitrary reports always error (or stop
    /// being UTF-8 at all).
    #[test]
    fn bit_flipped_reports_error(report in report_strategy(), pos in any::<u64>(), bit in 0usize..8) {
        let mut bytes = to_text(&report).into_bytes();
        let pos = (pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(text) = String::from_utf8(bytes) {
            prop_assert!(from_text::<MultiChannelReport>(&text).is_err());
        }
    }
}

/// A fixed, multi-channel golden artifact exercising every block type.
fn sample_golden() -> GoldenArtifact {
    let plan = CampaignPlan::with_random_pairs(4, 2, 2, [0x42; 16], [0x0f; 16], 7);
    let states = vec![
        ChannelState::pristine(
            "EM",
            Calibration::None,
            GoldenReference::MeanTrace(Trace::new(vec![0.5, -1.25, 1.0 / 3.0], 125.0)),
            vec![1.0, 2.5, -3.0, 0.125],
        ),
        ChannelState::pristine(
            "delay",
            Calibration::Glitch(GlitchParams {
                start_period_ps: 5200.0,
                step_ps: 25.0,
                steps: 96,
                setup_ps: 180.0,
                noise_ps: 12.5,
            }),
            GoldenReference::MeanMatrix(DelayMatrix {
                mean_onset_steps: vec![vec![4.5, 6.0], vec![5.25, 7.125]],
            }),
            vec![40.0, 41.5, 39.0, 40.25],
        ),
    ];
    GoldenArtifact::new(
        vec![
            ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            ChannelSpec::Delay,
        ],
        GoldenCharacterization {
            plan,
            states,
            lost: vec![],
        },
    )
    .unwrap()
}

/// Every possible truncation of a representative artifact is rejected.
#[test]
fn every_truncation_is_rejected() {
    let text = to_text(&sample_golden());
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            from_text::<GoldenArtifact>(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
}

/// Every possible single-bit flip of a representative artifact is
/// rejected (the FNV-1a trailer catches every single-byte substitution).
#[test]
fn every_bit_flip_is_rejected() {
    let text = to_text(&sample_golden());
    for pos in 0..text.len() {
        for bit in 0..8 {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            let Ok(corrupt) = String::from_utf8(bytes) else {
                continue;
            };
            assert!(
                from_text::<GoldenArtifact>(&corrupt).is_err(),
                "flip of bit {bit} at byte {pos} parsed"
            );
        }
    }
}
