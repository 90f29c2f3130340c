//! Golden-reference-free detection — scoring a suspect die against its
//! **own** symmetric path pairs, so no trusted golden population is ever
//! fabricated (the variability-aware self-referencing approach of
//! arXiv:2201.09668, applied to this repository's delay/EM channels).
//!
//! Two self-referencing ideas compose:
//!
//! * **Symmetric-path common-mode removal** — every acquisition is first
//!   normalised against itself: a trace loses its own sample mean, an
//!   onset matrix loses each pair-row's mean. Whatever shifts *all* of a
//!   die's symmetric paths together (global process corners, supply
//!   droop) cancels, while a trojan's *localised* insertion survives as a
//!   differential residue. The die's self-score is the magnitude of that
//!   residue — the channel metric of the normalised acquisition against
//!   a zero reference.
//! * **A reference-lot baseline** — the *distribution* a suspect die's
//!   self-score is judged against comes from the dies of a reference lot
//!   ([`ReferenceFreeFit`]). The lot calibrates only the expected
//!   residual *level*; no die ever serves as another die's reference, so
//!   a trojan present in *every* die of a suspect lot (the realistic
//!   fab-infection model) still displaces each die's within-die residual.
//!
//! [`ReferenceFreeCharacterization`] is the mode's [`Reference`]: the
//! shared [`characterize`](crate::fusion::characterize) loop pins the
//! reference lot's self-score distribution as the baseline, and the
//! shared [`ScoringSession`](crate::fusion::ScoringSession) compares a
//! suspect lot's folded self-scores with it through the same
//! [`ChannelResult`](crate::fusion::ChannelResult) machinery (Eq. 5
//! rates, fused z-scores, or the learned classifier) as the golden mode.
//! The lot needs no golden trust beyond "was fabricated from the audited
//! netlist"; no per-die reference payload is stored.

use std::borrow::Cow;

use htd_obs::Obs;

use crate::campaign::CampaignPlan;
use crate::channel::{Acquisition, Calibration, Channel, GoldenReference};
use crate::delay_detect::DelayMatrix;
use crate::error::Error;
use crate::fusion::{fit_population, PopulationAcquisition, Reference, StoredChannel};
use crate::resilience::ChannelHealth;
use htd_em::Trace;

/// The baseline self-score distribution of one channel on the reference
/// lot: the Gaussian the suspect lot's within-die residual scores are
/// compared against. This is the reference-free analogue of the golden
/// fit — and the whole payload `htd-store`'s `reffree` artifact needs
/// per channel beyond the calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceFreeFit {
    /// Mean of the baseline self-scores.
    pub mean: f64,
    /// Standard deviation of the baseline self-scores.
    pub std: f64,
    /// Number of dies behind the fit (= `self_scores.len()`).
    pub n_dies: usize,
}

/// One channel's durable reference-free state: calibration, the baseline
/// self-score population and its fit. No [`GoldenReference`] payload —
/// every suspect die is its own reference at scoring time.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceFreeState {
    /// The channel's label ([`Channel::name`]).
    pub channel: String,
    /// Measurement parameters established on the reference lot.
    pub calibration: Calibration,
    /// Baseline within-die residual self-scores, in kept-die order.
    pub self_scores: Vec<f64>,
    /// Gaussian fit of `self_scores`.
    pub fit: ReferenceFreeFit,
    /// Die indices the self-scores cover, ascending.
    pub kept: Vec<usize>,
    /// Acquisition health of the characterization run for this channel.
    pub health: ChannelHealth,
}

/// A reference-free characterization: the campaign plan plus every
/// channel's baseline [`ReferenceFreeState`]. The reference-free
/// counterpart of [`GoldenCharacterization`], persisted by `htd-store`
/// as the `reffree` artifact kind.
///
/// [`GoldenCharacterization`]: crate::fusion::GoldenCharacterization
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceFreeCharacterization {
    /// The campaign the reference lot was measured under.
    pub plan: CampaignPlan,
    /// Per-channel baseline state, in channel execution order.
    pub states: Vec<ReferenceFreeState>,
    /// Channels lost entirely during characterization.
    pub lost: Vec<ChannelHealth>,
}

/// Removes the acquisition's common mode — the symmetric-path
/// self-reference. A trace loses its own sample mean; an onset matrix
/// loses each pair-row's mean (the paired launch/capture paths of one
/// pair are each other's symmetric references).
fn common_mode_removed(acquisition: &Acquisition) -> Acquisition {
    match acquisition {
        Acquisition::Trace(t) => {
            let samples = t.samples();
            let mean = if samples.is_empty() {
                0.0
            } else {
                samples.iter().sum::<f64>() / samples.len() as f64
            };
            Acquisition::Trace(Trace::new(
                samples.iter().map(|x| x - mean).collect(),
                t.dt_ps(),
            ))
        }
        Acquisition::Matrix(m) => {
            let rows = m
                .mean_onset_steps
                .iter()
                .map(|row| {
                    let mean = if row.is_empty() {
                        0.0
                    } else {
                        row.iter().sum::<f64>() / row.len() as f64
                    };
                    row.iter().map(|x| x - mean).collect()
                })
                .collect();
            Acquisition::Matrix(DelayMatrix {
                mean_onset_steps: rows,
            })
        }
    }
}

/// The zero reference matching an acquisition's shape — scoring a
/// common-mode-removed acquisition against it measures the magnitude of
/// the die's own within-die residual through the channel's metric.
fn zero_reference(acquisition: &Acquisition) -> GoldenReference {
    match acquisition {
        Acquisition::Trace(t) => {
            GoldenReference::MeanTrace(Trace::new(vec![0.0; t.samples().len()], t.dt_ps()))
        }
        Acquisition::Matrix(m) => GoldenReference::MeanMatrix(DelayMatrix {
            mean_onset_steps: m
                .mean_onset_steps
                .iter()
                .map(|row| vec![0.0; row.len()])
                .collect(),
        }),
    }
}

/// Within-die residual self-scores of a population: each acquisition
/// loses its common mode and is scored against the zero reference, so
/// the score is the channel metric of whatever survives the die's own
/// common-mode removal. The residual's nominal component is common to
/// every die and cancels in the baseline-vs-suspect comparison; a
/// trojan's symmetric-path asymmetry inflates it on *every* infected
/// die, so a homogeneously infected lot still separates from the
/// baseline. Order is die order, so the result is worker-invariant by
/// construction — the scoring is pure arithmetic on already-acquired
/// data.
fn residual_self_scores(
    obs: &Obs,
    channel: &dyn Channel,
    acquisitions: &[Acquisition],
    calibration: &Calibration,
) -> Result<Vec<f64>, Error> {
    let scores = acquisitions
        .iter()
        .map(|a| {
            let normalized = common_mode_removed(a);
            channel.score(&normalized, &zero_reference(&normalized), calibration)
        })
        .collect::<Result<Vec<f64>, Error>>()?;
    obs.add("score.reffree.selfscores", scores.len() as u64);
    Ok(scores)
}

/// Folds a self-score population around the baseline mean: the
/// detection statistic is the absolute displacement of a die's residual
/// level from the reference lot's typical level. Folding makes the
/// detector two-sided — a trojan can displace a channel's residual in
/// either direction (an EM insertion can move switching activity away
/// from the probe as easily as under it), and either displacement is
/// evidence.
fn folded(scores: &[f64], baseline_mean: f64) -> Vec<f64> {
    scores.iter().map(|s| (s - baseline_mean).abs()).collect()
}

/// Reference-free mode: each die is scored against its own common mode,
/// and suspects' folded self-scores are compared with the reference
/// lot's.
impl Reference for ReferenceFreeCharacterization {
    /// Three: folding two self-scores around their own mean yields two
    /// equal values, a baseline with no spread.
    fn min_dies(&self) -> usize {
        3
    }

    fn plan(&self) -> &CampaignPlan {
        &self.plan
    }

    fn channels(&self) -> Vec<StoredChannel<'_>> {
        self.states
            .iter()
            .map(|s| StoredChannel {
                name: &s.channel,
                calibration: &s.calibration,
                scores: &s.self_scores,
                kept: &s.kept,
                health: &s.health,
            })
            .collect()
    }

    fn lost(&self) -> &[ChannelHealth] {
        &self.lost
    }

    /// The folded self-scores. The fold derives from the stored
    /// self-scores, so a reloaded characterization fuses identically to
    /// a fresh one.
    fn baseline(&self, c: usize) -> Cow<'_, [f64]> {
        let state = &self.states[c];
        Cow::Owned(folded(&state.self_scores, state.fit.mean))
    }

    fn score(
        &self,
        obs: &Obs,
        c: usize,
        channel: &dyn Channel,
        acquisitions: &[Acquisition],
    ) -> Result<Vec<f64>, Error> {
        let state = &self.states[c];
        let scores = residual_self_scores(obs, channel, acquisitions, &state.calibration)?;
        Ok(folded(&scores, state.fit.mean))
    }

    fn count_design(&self, obs: &Obs) {
        obs.incr("score.reffree.designs");
    }

    fn empty(plan: CampaignPlan) -> Self {
        ReferenceFreeCharacterization {
            plan,
            states: Vec::new(),
            lost: Vec::new(),
        }
    }

    fn push_channel(
        &mut self,
        obs: &Obs,
        channel: &dyn Channel,
        calibration: Calibration,
        population: PopulationAcquisition,
    ) -> Result<(), Error> {
        let self_scores =
            residual_self_scores(obs, channel, &population.acquisitions, &calibration)?;
        let g = fit_population(channel.name(), &self_scores)?;
        let fit = ReferenceFreeFit {
            mean: g.mean(),
            std: g.std(),
            n_dies: self_scores.len(),
        };
        self.states.push(ReferenceFreeState {
            channel: channel.name().to_string(),
            calibration,
            self_scores,
            fit,
            kept: population.kept,
            health: population.health,
        });
        Ok(())
    }

    fn push_lost(&mut self, health: ChannelHealth) {
        self.lost.push(health);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelSpec, DelayChannel, EmChannel};
    use crate::em_detect::TraceMetric;
    use crate::fusion::{characterize, score, Campaign, ScoredCampaign, ScoringSession};
    use crate::{Engine, Lab};
    use htd_trojan::TrojanSpec;

    fn plan() -> CampaignPlan {
        CampaignPlan::with_random_pairs(4, 2, 2, [0x13; 16], [0x7f; 16], 42)
    }

    fn characterize_reference_free(
        engine: Engine,
        lab: &Lab,
        plan: &CampaignPlan,
        channels: &[&dyn Channel],
    ) -> Result<ReferenceFreeCharacterization, Error> {
        characterize(&Campaign::with_engine(engine), lab, plan, channels)
    }

    fn score_on(
        engine: Engine,
        lab: &Lab,
        charac: &ReferenceFreeCharacterization,
        specs: &[TrojanSpec],
        channels: &[&dyn Channel],
    ) -> ScoredCampaign {
        score(
            &Campaign::with_engine(engine),
            lab,
            charac,
            specs,
            channels,
            None,
        )
        .unwrap()
    }

    #[test]
    fn common_mode_removal_centres_traces_and_rows() {
        let t = Acquisition::Trace(Trace::new(vec![1.0, 2.0, 3.0], 200.0));
        let Acquisition::Trace(out) = common_mode_removed(&t) else {
            panic!("trace in, trace out");
        };
        assert_eq!(out.samples(), &[-1.0, 0.0, 1.0]);

        let m = Acquisition::Matrix(DelayMatrix {
            mean_onset_steps: vec![vec![2.0, 4.0], vec![10.0, 10.0]],
        });
        let Acquisition::Matrix(out) = common_mode_removed(&m) else {
            panic!("matrix in, matrix out");
        };
        assert_eq!(out.mean_onset_steps, vec![vec![-1.0, 1.0], vec![0.0, 0.0]]);
    }

    #[test]
    fn characterize_then_score_is_deterministic() {
        let lab = Lab::paper();
        let plan = plan();
        let em = EmChannel::paper();
        let delay = DelayChannel;
        let channels: [&dyn Channel; 2] = [&em, &delay];
        let charac =
            characterize_reference_free(Engine::default(), &lab, &plan, &channels).unwrap();
        assert_eq!(charac.states.len(), 2);
        for state in &charac.states {
            assert_eq!(state.self_scores.len(), plan.n_dies);
            assert_eq!(state.fit.n_dies, plan.n_dies);
            assert!(state.fit.std > 0.0);
        }
        let charac2 =
            characterize_reference_free(Engine::with_workers(2), &lab, &plan, &channels).unwrap();
        assert_eq!(charac, charac2);

        let specs = [TrojanSpec::ht1()];
        let scored = score_on(Engine::serial(), &lab, &charac, &specs, &channels);
        let scored2 = score_on(Engine::with_workers(2), &lab, &charac, &specs, &channels);
        assert_eq!(scored, scored2);
        let row = &scored.report.rows[0];
        assert_eq!(row.channels.len(), 2);
        assert!(row.fused.is_some());
        assert!(scored.report.health.is_empty());
    }

    #[test]
    fn single_report_matches_campaign_row() {
        let lab = Lab::paper();
        let plan = plan();
        let em = EmChannel::paper();
        let channels: [&dyn Channel; 1] = [&em];
        let charac =
            characterize_reference_free(Engine::default(), &lab, &plan, &channels).unwrap();
        let campaign = Campaign::with_engine(Engine::serial());
        let session = ScoringSession::new(&campaign, &lab, &charac, &channels).unwrap();
        let spec = TrojanSpec::ht2();
        let report = session.single_report(&session.score_spec_at(0, &spec).unwrap());
        let scored = score_on(
            Engine::serial(),
            &lab,
            &charac,
            std::slice::from_ref(&spec),
            &channels,
        );
        assert_eq!(report, scored.report);
    }

    #[test]
    fn a_homogeneously_infected_lot_separates_from_the_baseline() {
        // The defining property of the mode: a lot where EVERY die
        // carries the trojan still displaces from the reference lot's
        // baseline, because the within-die residual changes on each
        // infected die. An inter-die reference would cancel the common
        // trojan and pin µ at zero.
        let lab = Lab::paper();
        let plan = CampaignPlan::with_random_pairs(6, 2, 2, [0x13; 16], [0x7f; 16], 42);
        let delay = DelayChannel;
        let channels: [&dyn Channel; 1] = [&delay];
        let charac =
            characterize_reference_free(Engine::default(), &lab, &plan, &channels).unwrap();
        let scored = score_on(
            Engine::serial(),
            &lab,
            &charac,
            &[TrojanSpec::ht3()],
            &channels,
        );
        let result = &scored.report.rows[0].channels[0];
        assert!(
            result.mu > 0.0,
            "infected lot must displace the folded residual level, got µ = {}",
            result.mu
        );
        assert!(
            result.analytic_fn_rate < 0.5,
            "detection must beat a coin flip, got FN = {}",
            result.analytic_fn_rate
        );
    }

    #[test]
    fn too_few_dies_is_rejected() {
        let lab = Lab::paper();
        let plan = CampaignPlan::with_random_pairs(2, 2, 2, [0x13; 16], [0x7f; 16], 42);
        let em = EmChannel::paper();
        let channels: [&dyn Channel; 1] = [&em];
        let err =
            characterize_reference_free(Engine::default(), &lab, &plan, &channels).unwrap_err();
        assert!(matches!(err, Error::NotEnoughDies { got: 2, need: 3 }));
    }

    #[test]
    fn channel_specs_round_trip_into_sessions() {
        // The CLI builds channels from specs; make sure the reference-free
        // path accepts the same construction.
        let lab = Lab::paper();
        let plan = plan();
        let specs = [ChannelSpec::Em(TraceMetric::SumOfLocalMaxima)];
        let built: Vec<Box<dyn Channel>> = specs.iter().map(|s| s.build()).collect();
        let refs: Vec<&dyn Channel> = built.iter().map(|b| b.as_ref()).collect();
        let charac = characterize_reference_free(Engine::default(), &lab, &plan, &refs).unwrap();
        assert_eq!(charac.states[0].channel, "EM");
    }
}
