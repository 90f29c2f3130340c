//! Multi-channel detection under inter-die process variations — the
//! paper's stated perspective (Section VI): *"a more precise evaluation of
//! impact of process variations on detection probability using **both**
//! delay and EM measurements."*
//!
//! The campaign is split into the two halves of the paper's methodology,
//! so a trusted characterization can be produced **once** and amortised
//! over many scoring runs (the `htd-store` crate persists it between
//! processes):
//!
//! * [`characterize`] — calibrate every channel on a reference lot,
//!   acquire it, and fold the per-channel results into a durable
//!   [`Reference`]: a [`GoldenCharacterization`] (golden reference plus
//!   golden scores) or a
//!   [`ReferenceFreeCharacterization`](crate::reffree::ReferenceFreeCharacterization)
//!   (within-die self-score baseline).
//! * [`score`] — score any set of suspect designs against a (possibly
//!   reloaded) reference through one [`ScoringSession`], producing a
//!   [`MultiChannelReport`].
//!
//! Both halves run under a [`Campaign`] (engine, fault plan, retry
//! policy) and derive every seed from the [`CampaignPlan`] seed tree, so
//! reports are bit-identical for every worker count *and* across the
//! save/load boundary. Only what differs between scoring modes lives in
//! the [`Reference`] implementations.
//!
//! Channels:
//!
//! * **EM channel** — the Section V sum-of-local-maxima metric.
//! * **Delay channel** — an inter-die generalisation of Section III: the
//!   golden *population mean* onset matrix replaces the same-die golden
//!   model, and the per-die statistic is the mean absolute onset deviation
//!   (in ps) over all pairs and bits.
//! * **Power channel** — the paper's A4 global-supply baseline, run
//!   through the identical pipeline for a like-for-like comparison.
//! * **Fused channel** — the sum of the channels' baseline-normalised
//!   z-scores; independent evidence adds, so the fused separation µ/σ is
//!   at best the quadrature sum of the channels'.

use std::borrow::Cow;

use htd_faults::{retry_seed, FaultPlan, FaultSite};
use htd_obs::Obs;
use htd_stats::detection::{empirical_rates, equal_error_rate};
use htd_stats::logistic::LogisticModel;
use htd_stats::Gaussian;
use htd_trojan::TrojanSpec;

use crate::campaign::CampaignPlan;
use crate::channel::{Acquisition, Calibration, Channel, DelayChannel, EmChannel, GoldenReference};
use crate::engine::Attempt;
use crate::error::Error;
use crate::resilience::{ChannelHealth, RetryPolicy};
use crate::{Design, Engine, Lab, ProgrammedDevice};
use htd_fabric::DieVariation;

/// Population tag of the reference lot in fault-decision contexts;
/// suspect design `s` uses `s + 1`.
const POP_REFERENCE: u64 = 0;

/// Per-channel population statistics for one trojan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelResult {
    /// Channel label (`"EM"`, `"delay"`, `"power"`, `"fused"`).
    pub channel: String,
    /// Metric offset µ between infected and golden populations.
    pub mu: f64,
    /// Pooled metric standard deviation.
    pub sigma: f64,
    /// Eq. (5) analytic equal error rate.
    pub analytic_fn_rate: f64,
    /// Empirical false-negative rate at the midpoint threshold.
    pub empirical_fn_rate: f64,
    /// Empirical false-positive rate at the midpoint threshold.
    pub empirical_fp_rate: f64,
}

impl ChannelResult {
    /// Fits Eq. (5) Gaussians to the two metric populations and evaluates
    /// the analytic and empirical (midpoint-threshold) error rates.
    ///
    /// # Errors
    ///
    /// [`Error::DegeneratePopulation`] if either population has no spread
    /// (or too few samples) — e.g. constant metrics from a campaign with
    /// zero measurement noise.
    pub fn fit(
        channel: impl Into<String>,
        golden: &[f64],
        infected: &[f64],
    ) -> Result<Self, Error> {
        Self::fit_at(channel.into(), golden, infected, None)
    }

    /// [`ChannelResult::fit`] with the empirical rates taken at
    /// `threshold` instead of the two-Gaussian midpoint when one is given.
    fn fit_at(
        channel: String,
        golden: &[f64],
        infected: &[f64],
        threshold: Option<f64>,
    ) -> Result<Self, Error> {
        let g = fit_population(&channel, golden)?;
        let t = fit_population(&channel, infected)?;
        let mu = t.mean() - g.mean();
        let sigma = ((g.std() * g.std() + t.std() * t.std()) / 2.0).sqrt();
        let analytic = if mu > 0.0 {
            equal_error_rate(mu, sigma)
        } else {
            0.5
        };
        let threshold = threshold.unwrap_or(g.mean() + mu / 2.0);
        let (fp, fnr) = empirical_rates(golden, infected, threshold);
        Ok(ChannelResult {
            channel,
            mu,
            sigma,
            analytic_fn_rate: analytic,
            empirical_fn_rate: fnr,
            empirical_fp_rate: fp,
        })
    }
}

/// Fits the Gaussian of one channel's metric population.
///
/// # Errors
///
/// [`Error::DegeneratePopulation`] when the population has no spread or
/// fewer than two samples.
pub(crate) fn fit_population(channel: &str, samples: &[f64]) -> Result<Gaussian, Error> {
    Gaussian::fit(samples).map_err(|source| Error::DegeneratePopulation {
        channel: channel.to_string(),
        samples: samples.len(),
        source,
    })
}

/// One trojan's results across every channel of a multi-channel campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelRow {
    /// Trojan name.
    pub name: String,
    /// Trojan area as a fraction of the AES design.
    pub size_fraction: f64,
    /// One result per channel, in the order the channels were supplied.
    pub channels: Vec<ChannelResult>,
    /// The fused (z-score sum) channel; present when at least two
    /// channels ran.
    pub fused: Option<ChannelResult>,
}

/// The result of a multi-channel scoring campaign ([`score`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelReport {
    /// One row per trojan, in the order supplied.
    pub rows: Vec<MultiChannelRow>,
    /// Population size.
    pub n_dies: usize,
    /// The channel labels, in execution order.
    pub channel_names: Vec<String>,
    /// Per-channel health of the campaign: present (one entry per
    /// surviving channel, then one per lost channel) when the campaign
    /// ran under an active [`FaultPlan`] or against a degraded
    /// characterization; empty for a pristine campaign.
    pub health: Vec<ChannelHealth>,
}

/// Results of the historical two-channel experiment for one trojan.
#[derive(Debug, Clone)]
pub struct FusionRow {
    /// Trojan name.
    pub name: String,
    /// EM-only channel.
    pub em: ChannelResult,
    /// Delay-only channel.
    pub delay: ChannelResult,
    /// Fused (z-score sum) channel.
    pub fused: ChannelResult,
}

/// The full two-channel report (a [`MultiChannelReport`] view kept for
/// the paper's delay+EM experiment).
#[derive(Debug, Clone)]
pub struct FusionReport {
    /// One row per trojan.
    pub rows: Vec<FusionRow>,
    /// Population size.
    pub n_dies: usize,
}

/// One channel's durable golden-population state: everything scoring
/// needs once the golden devices have left the bench. Produced by
/// [`characterize`]; persisted by `htd-store`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelState {
    /// The channel's label ([`Channel::name`]).
    pub channel: String,
    /// Measurement parameters established on the golden population.
    pub calibration: Calibration,
    /// The golden-population reference (`E_n(G)` / mean onset matrix).
    pub reference: GoldenReference,
    /// Per-die golden scores against the reference (die order).
    pub scores: Vec<f64>,
    /// Die indices the scores cover, ascending. `0..n_dies` for a
    /// fault-free characterization; a strict subset when dies were
    /// quarantined under a degraded policy.
    pub kept: Vec<usize>,
    /// Acquisition health of the characterization run for this channel.
    pub health: ChannelHealth,
}

impl ChannelState {
    /// A fault-free channel state: `kept` covers every score index and
    /// the health record is pristine.
    pub fn pristine(
        channel: impl Into<String>,
        calibration: Calibration,
        reference: GoldenReference,
        scores: Vec<f64>,
    ) -> Self {
        let channel = channel.into();
        let health = ChannelHealth::pristine(channel.clone(), scores.len());
        ChannelState {
            channel,
            calibration,
            reference,
            kept: (0..scores.len()).collect(),
            scores,
            health,
        }
    }
}

/// A trusted characterization of one golden population: the campaign it
/// was measured under plus every channel's [`ChannelState`]. This is the
/// paper's "golden model", in amortisable form — characterize once with
/// [`characterize_campaign`], then score any number of suspect
/// populations with [`score`].
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCharacterization {
    /// The campaign the golden population was measured under. Scoring
    /// re-derives every suspect seed from this plan's seed tree.
    pub plan: CampaignPlan,
    /// Per-channel golden state, in channel execution order.
    pub states: Vec<ChannelState>,
    /// Channels lost entirely during characterization (calibration
    /// diverged, or too few dies survived), recorded so a degraded
    /// characterization cannot pass for a complete one. Empty for a
    /// fault-free run.
    pub lost: Vec<ChannelHealth>,
}

/// One channel's scored populations for a single suspect design: the
/// baseline per-die scores (from the characterization) next to the
/// suspect's. This is the unit `htd fuse` consumes from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredChannel {
    /// The channel's label.
    pub channel: String,
    /// Per-die baseline scores.
    pub golden: Vec<f64>,
    /// Per-die suspect scores.
    pub infected: Vec<f64>,
}

/// One suspect design's scored channel populations, as produced inside
/// [`score`] (the per-design artifacts `htd score --scores-dir`
/// persists).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDesign {
    /// The design's name.
    pub name: String,
    /// Trojan area as a fraction of the AES design.
    pub size_fraction: f64,
    /// One scored population per surviving channel, in channel order.
    pub scored: Vec<ScoredChannel>,
}

/// The full outcome of a scoring campaign: the rendered report plus the
/// per-design scored populations it was reduced from.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCampaign {
    /// The multi-channel report, including its health section.
    pub report: MultiChannelReport,
    /// Per-design scored channel populations.
    pub designs: Vec<ScoredDesign>,
}

/// What a campaign runs under besides its plan: the measurement
/// [`Engine`], the [`FaultPlan`] it replays and the [`RetryPolicy`] it
/// answers faults with. The default — auto-sized engine, no faults,
/// strict policy — is the historical fault-oblivious pipeline, bit for
/// bit.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The worker pool (and observability handle) every fan runs on.
    pub engine: Engine,
    /// Faults injected into calibration and acquisition.
    pub faults: FaultPlan,
    /// Retry budget and whether the campaign may degrade.
    pub policy: RetryPolicy,
}

impl Campaign {
    /// A fault-free, strict campaign on `engine`.
    pub fn with_engine(engine: Engine) -> Self {
        Campaign {
            engine,
            faults: FaultPlan::none(),
            policy: RetryPolicy::strict(),
        }
    }
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::with_engine(Engine::default())
    }
}

/// One surviving channel of a stored characterization, as every scoring
/// mode sees it.
#[derive(Debug, Clone, Copy)]
pub struct StoredChannel<'a> {
    /// The channel's label ([`Channel::name`]).
    pub name: &'a str,
    /// Measurement parameters established on the reference lot.
    pub calibration: &'a Calibration,
    /// The reference lot's own per-die scores (golden scores, or
    /// within-die self-scores), in kept-die order.
    pub scores: &'a [f64],
    /// Die indices the scores cover, ascending.
    pub kept: &'a [usize],
    /// Acquisition health of the characterization run.
    pub health: &'a ChannelHealth,
}

/// A stored characterization that suspects are scored against — one
/// implementation per scoring mode. The trait carries only what differs
/// between modes; the characterize loop ([`characterize`]), the
/// [`ScoringSession`] and the report assembly are shared.
pub trait Reference {
    /// Fewest dies a channel population may keep, at characterization
    /// and at scoring time.
    fn min_dies(&self) -> usize;

    /// The campaign the reference lot was measured under.
    fn plan(&self) -> &CampaignPlan;

    /// The surviving channels, in execution order.
    fn channels(&self) -> Vec<StoredChannel<'_>>;

    /// Channels lost entirely during characterization.
    fn lost(&self) -> &[ChannelHealth];

    /// The per-die population channel `c`'s suspect scores are compared
    /// against, in kept-die order.
    fn baseline(&self, c: usize) -> Cow<'_, [f64]>;

    /// Turns channel `c`'s suspect acquisitions into scores comparable
    /// with [`Reference::baseline`].
    ///
    /// # Errors
    ///
    /// Channel scoring failures (shape mismatches).
    fn score(
        &self,
        obs: &Obs,
        c: usize,
        channel: &dyn Channel,
        acquisitions: &[Acquisition],
    ) -> Result<Vec<f64>, Error>;

    /// Records the mode's own counters for one scored design.
    fn count_design(&self, _obs: &Obs) {}

    /// An empty characterization of `plan`, filled by [`characterize`].
    fn empty(plan: CampaignPlan) -> Self
    where
        Self: Sized;

    /// Builds one channel's state from its calibrated reference-lot
    /// population and appends it.
    ///
    /// # Errors
    ///
    /// Channel characterization and scoring failures.
    fn push_channel(
        &mut self,
        obs: &Obs,
        channel: &dyn Channel,
        calibration: Calibration,
        population: PopulationAcquisition,
    ) -> Result<(), Error>
    where
        Self: Sized;

    /// Records a channel lost during characterization.
    fn push_lost(&mut self, health: ChannelHealth)
    where
        Self: Sized;
}

/// Scores acquisitions against a golden reference.
fn score_against(
    channel: &dyn Channel,
    acquisitions: &[Acquisition],
    reference: &GoldenReference,
    calibration: &Calibration,
) -> Result<Vec<f64>, Error> {
    acquisitions
        .iter()
        .map(|a| channel.score(a, reference, calibration))
        .collect()
}

/// Golden-reference mode: each die is scored against the golden
/// population's reference, and suspects are compared with the golden
/// scores.
impl Reference for GoldenCharacterization {
    fn min_dies(&self) -> usize {
        2
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
                scores: &s.scores,
                kept: &s.kept,
                health: &s.health,
            })
            .collect()
    }

    fn lost(&self) -> &[ChannelHealth] {
        &self.lost
    }

    fn baseline(&self, c: usize) -> Cow<'_, [f64]> {
        Cow::Borrowed(&self.states[c].scores)
    }

    fn score(
        &self,
        _obs: &Obs,
        c: usize,
        channel: &dyn Channel,
        acquisitions: &[Acquisition],
    ) -> Result<Vec<f64>, Error> {
        let state = &self.states[c];
        score_against(channel, acquisitions, &state.reference, &state.calibration)
    }

    fn empty(plan: CampaignPlan) -> Self {
        GoldenCharacterization {
            plan,
            states: Vec::new(),
            lost: Vec::new(),
        }
    }

    fn push_channel(
        &mut self,
        _obs: &Obs,
        channel: &dyn Channel,
        calibration: Calibration,
        population: PopulationAcquisition,
    ) -> Result<(), Error> {
        let reference = channel.characterize_golden(&population.acquisitions, &calibration)?;
        let scores = score_against(channel, &population.acquisitions, &reference, &calibration)?;
        self.states.push(ChannelState {
            channel: channel.name().to_string(),
            calibration,
            reference,
            scores,
            kept: population.kept,
            health: population.health,
        });
        Ok(())
    }

    fn push_lost(&mut self, health: ChannelHealth) {
        self.lost.push(health);
    }
}

/// The fused statistic over partially-kept populations: each channel
/// supplies `(kept die indices, scores)`, and a die contributes the sum
/// over channels of its baseline-normalised z-score only when **every**
/// channel kept it (a z-score sum with a missing addend would not be
/// comparable). Channel order fixes the summation order.
fn fuse_masked(fits: &[Gaussian], per_channel: &[(&[usize], &[f64])], n_dies: usize) -> Vec<f64> {
    masked_feature_rows(per_channel, n_dies)
        .iter()
        .map(|row| {
            fits.iter()
                .zip(row)
                .fold(0.0f64, |sum, (g, x)| sum + (x - g.mean()) / g.std())
        })
        .collect()
}

/// Gathers the per-die feature rows of a population over partially-kept
/// channels: row `x` holds one value per channel, and a die contributes
/// a row only when **every** channel kept it (the masking rule of the
/// fused channel, shared by the learned classifier). Rows come out in
/// die order, so downstream reductions are presentation-order stable.
pub fn masked_feature_rows(per_channel: &[(&[usize], &[f64])], n_dies: usize) -> Vec<Vec<f64>> {
    let dense: Vec<Vec<Option<f64>>> = per_channel
        .iter()
        .map(|(kept, scores)| {
            let mut d = vec![None; n_dies];
            for (k, &die) in kept.iter().enumerate() {
                d[die] = Some(scores[k]);
            }
            d
        })
        .collect();
    (0..n_dies)
        .filter_map(|j| dense.iter().map(|d| d[j]).collect::<Option<Vec<f64>>>())
        .collect()
}

/// Checks a classifier's feature labels against a campaign's channel
/// names (count, names, order).
///
/// # Errors
///
/// [`Error::ChannelShapeMismatch`] on any difference.
pub fn check_model_features<'n>(
    model: &LogisticModel,
    names: impl ExactSizeIterator<Item = &'n str>,
) -> Result<(), Error> {
    let mismatch = || Error::ChannelShapeMismatch {
        channel: model.features.join("+"),
        expected: "classifier features matching the channel set",
    };
    if model.features.len() != names.len() {
        return Err(mismatch());
    }
    for (feature, name) in model.features.iter().zip(names) {
        if feature != name {
            return Err(mismatch());
        }
    }
    Ok(())
}

/// The learned analogue of the fused channel: per-die classifier logits
/// over the dies kept by every channel, reduced exactly like any other
/// metric population. The empirical rates are taken at logit `0` — the
/// classifier's trained 0.5-probability boundary — instead of the
/// two-Gaussian midpoint, which is precisely how the learned mode
/// replaces the erf threshold.
fn learned_result(
    model: &LogisticModel,
    baseline: &[(&[usize], &[f64])],
    suspect: &[(&[usize], &[f64])],
    n_dies: usize,
) -> Result<ChannelResult, Error> {
    let logits = |per_channel: &[(&[usize], &[f64])]| -> Result<Vec<f64>, Error> {
        masked_feature_rows(per_channel, n_dies)
            .iter()
            .map(|row| model.logit(row).map_err(Error::from))
            .collect()
    };
    ChannelResult::fit_at(
        "learned".to_string(),
        &logits(baseline)?,
        &logits(suspect)?,
        Some(0.0),
    )
}

/// Characterizes the golden population of `plan` under every supplied
/// channel: [`characterize`] under the default [`Campaign`].
///
/// # Errors
///
/// See [`characterize`].
pub fn characterize_campaign(
    lab: &Lab,
    plan: &CampaignPlan,
    channels: &[&dyn Channel],
) -> Result<GoldenCharacterization, Error> {
    characterize(&Campaign::default(), lab, plan, channels)
}

/// Characterizes the reference lot of `plan` under every supplied
/// channel, in the scoring mode `R` picks.
///
/// Each reference-lot device is programmed **once** and reused — with
/// its simulation caches warm — across calibration and acquisition.
/// Calibrations that diverge and acquisitions that fail are retried up
/// to the campaign's budget with fresh index-derived seeds; with
/// `allow_degraded`, exhausted dies are quarantined (recorded in the
/// channel's [`ChannelHealth`]) and exhausted calibrations, or
/// populations left below [`Reference::min_dies`], lose the whole
/// channel (recorded in [`Reference::lost`]).
///
/// Determinism: every seed comes from the plan's seed tree and every
/// fault decision and retry seed from the event's indices, so the
/// characterization is bit-identical at any worker count.
///
/// # Errors
///
/// [`Error::EmptyPopulation`] with no channels or when every channel is
/// lost, [`Error::NotEnoughDies`] below [`Reference::min_dies`] dies,
/// [`Error::AcquisitionExhausted`] / [`Error::CalibrationDiverged`] when
/// a budget runs out under the strict policy; design and simulation
/// failures otherwise.
pub fn characterize<R: Reference>(
    campaign: &Campaign,
    lab: &Lab,
    plan: &CampaignPlan,
    channels: &[&dyn Channel],
) -> Result<R, Error> {
    let Campaign {
        engine,
        faults,
        policy,
    } = campaign;
    let mut reference = R::empty(plan.clone());
    let need = reference.min_dies();
    if channels.is_empty() {
        return Err(Error::EmptyPopulation {
            what: "channel list",
        });
    }
    if plan.n_dies < need {
        return Err(Error::NotEnoughDies {
            got: plan.n_dies,
            need,
        });
    }
    let _span = engine.obs().span("characterize");
    let golden = Design::golden(lab)?;
    let dies = lab.fabricate_batch(plan.n_dies);
    let devs: Vec<ProgrammedDevice<'_>> = {
        let _span = engine.obs().span("program");
        engine.map(&dies, |_, die| {
            ProgrammedDevice::with_obs(lab, &golden, die, engine.obs().clone())
        })
    };

    for (c, channel) in channels.iter().enumerate() {
        // Calibration, re-run on injected divergence.
        let mut calibration = None;
        let mut cal_attempts = 0usize;
        {
            let _span = engine.obs().span(&format!("calibrate.{}", channel.name()));
            for attempt in 0..=policy.max_retries {
                cal_attempts = attempt + 1;
                if faults.fires(FaultSite::Calibrate, &[c as u64, attempt as u64]) {
                    engine.obs().incr("faults.calibrate.fired");
                    continue;
                }
                calibration = Some(channel.calibrate(engine, plan, &devs)?);
                break;
            }
            engine
                .obs()
                .add("retry.calibrate", (cal_attempts - 1) as u64);
        }
        let Some(calibration) = calibration else {
            if !policy.allow_degraded {
                return Err(Error::CalibrationDiverged {
                    channel: channel.name().to_string(),
                    attempts: cal_attempts,
                });
            }
            // For a lost channel the attempt counters record the
            // calibration attempts that exhausted the budget.
            let mut health = ChannelHealth::pristine(channel.name(), cal_attempts);
            health.retried = cal_attempts - 1;
            health.lost = true;
            reference.push_lost(health);
            continue;
        };
        let mut population = acquire_population_faulted(
            engine,
            *channel,
            c,
            &devs,
            plan,
            &calibration,
            faults,
            policy,
            POP_REFERENCE,
            |j| plan.die_seed(j),
        )?;
        // Calibration retries count as retries without changing the
        // distinct-die population.
        population.health.attempted += cal_attempts - 1;
        population.health.retried += cal_attempts - 1;
        if population.kept.len() < need {
            // Only reachable under allow_degraded (otherwise the first
            // exhausted die already aborted above).
            population.health.lost = true;
            reference.push_lost(population.health);
            continue;
        }
        reference.push_channel(engine.obs(), *channel, calibration, population)?;
    }
    if reference.channels().is_empty() {
        return Err(Error::EmptyPopulation {
            what: "surviving channels",
        });
    }
    Ok(reference)
}

/// One channel's population acquisition under a fault plan: the kept die
/// indices (ascending), their acquisitions, and the health ledger.
#[derive(Debug)]
pub struct PopulationAcquisition {
    /// Die indices that produced an acquisition, ascending.
    pub kept: Vec<usize>,
    /// One acquisition per kept die.
    pub acquisitions: Vec<Acquisition>,
    /// Attempts, retries and quarantines of the acquisition run.
    pub health: ChannelHealth,
}

/// Acquires one channel over a device population with retry and
/// quarantine. Fault decisions and retry seeds derive from
/// `(channel index, population tag, die index, attempt)` — indices,
/// never scheduling — so the same plan quarantines the same dies at any
/// worker count. Under [`FaultPlan::none`] and the strict policy this
/// performs exactly the acquisitions of the historical fault-oblivious
/// loop.
#[allow(clippy::too_many_arguments)]
fn acquire_population_faulted(
    engine: &Engine,
    channel: &dyn Channel,
    channel_index: usize,
    devs: &[ProgrammedDevice<'_>],
    plan: &CampaignPlan,
    calibration: &Calibration,
    faults: &FaultPlan,
    policy: &RetryPolicy,
    pop: u64,
    seed_of: impl Fn(usize) -> u64 + Sync,
) -> Result<PopulationAcquisition, Error> {
    let _span = engine.obs().span(&format!("acquire.{}", channel.name()));
    let outcomes = engine.map_retry(devs.len(), policy.max_retries, |j, attempt| {
        let ctx = [channel_index as u64, pop, j as u64, attempt as u64];
        if faults.fires(FaultSite::Acquire, &ctx) {
            engine.obs().incr("faults.acquire.fired");
            return Attempt::Faulted;
        }
        let seed = retry_seed(seed_of(j), attempt);
        match channel.acquire_faulted(
            &engine.serial_like(),
            &devs[j],
            plan,
            calibration,
            seed,
            faults,
            &ctx,
        ) {
            Ok(Some(value)) => Attempt::Ok(value),
            Ok(None) => Attempt::Faulted,
            Err(e) => Attempt::Fatal(e),
        }
    })?;
    // Repetition counters stay zero under the none-plan so a fault-free
    // run reports exactly the pristine health record.
    let track_reps = !faults.is_none();
    let mut health = ChannelHealth::pristine(channel.name(), 0);
    let mut kept = Vec::with_capacity(devs.len());
    let mut acquisitions = Vec::with_capacity(devs.len());
    for (j, outcome) in outcomes.into_iter().enumerate() {
        health.attempted += outcome.attempts;
        health.retried += outcome.attempts - 1;
        match outcome.value {
            Some((acquisition, reps)) => {
                if track_reps {
                    health.reps_attempted += reps.attempted;
                    health.reps_dropped += reps.dropped;
                }
                kept.push(j);
                acquisitions.push(acquisition);
            }
            None => {
                if !policy.allow_degraded {
                    return Err(Error::AcquisitionExhausted {
                        channel: channel.name().to_string(),
                        die: j,
                        attempts: outcome.attempts,
                    });
                }
                health.dropped += 1;
            }
        }
    }
    // Retry totals are index-pure (see above), so this counter is as
    // worker-invariant as the health ledger it mirrors.
    engine.obs().add("retry.acquire", health.retried as u64);
    Ok(PopulationAcquisition {
        kept,
        acquisitions,
        health,
    })
}

/// Checks that the supplied channels match the stored channels
/// one-to-one (same count, same names, same order).
fn check_channels_match(
    stored: &[StoredChannel<'_>],
    channels: &[&dyn Channel],
) -> Result<(), Error> {
    if channels.len() != stored.len() {
        return Err(Error::ChannelShapeMismatch {
            channel: format!("{} stored channel state(s)", stored.len()),
            expected: "one live channel per stored state",
        });
    }
    for (channel, stored) in channels.iter().zip(stored) {
        if channel.name() != stored.name {
            return Err(Error::ChannelShapeMismatch {
                channel: stored.name.to_string(),
                expected: "a live channel with the stored state's name",
            });
        }
    }
    Ok(())
}

/// Fuses stored per-channel scored populations into per-channel
/// [`ChannelResult`]s plus the fused (z-score sum) result — the math of
/// `htd fuse`, usable on any mix of channels scored under the same
/// campaign.
///
/// # Errors
///
/// [`Error::ChannelShapeMismatch`] below two channels or on mismatched
/// population sizes; [`Error::DegeneratePopulation`] when a golden
/// population has no spread.
pub fn fuse_scored_channels(
    sets: &[ScoredChannel],
) -> Result<(Vec<ChannelResult>, ChannelResult), Error> {
    let Some(first) = sets.first() else {
        return Err(Error::EmptyPopulation {
            what: "scored channel list",
        });
    };
    if sets.len() < 2 {
        return Err(Error::ChannelShapeMismatch {
            channel: first.channel.clone(),
            expected: "at least two channels to fuse",
        });
    }
    let n_dies = first.golden.len();
    for set in sets {
        if set.golden.len() != n_dies || set.infected.len() != n_dies {
            return Err(Error::ChannelShapeMismatch {
                channel: set.channel.clone(),
                expected: "equal population sizes across every fused channel",
            });
        }
    }
    let per_channel = sets
        .iter()
        .map(|set| ChannelResult::fit(set.channel.clone(), &set.golden, &set.infected))
        .collect::<Result<Vec<_>, _>>()?;
    let fits = sets
        .iter()
        .map(|set| fit_population(&set.channel, &set.golden))
        .collect::<Result<Vec<_>, _>>()?;
    // Every die is kept in a stored population.
    let all: Vec<usize> = (0..n_dies).collect();
    let golden: Vec<(&[usize], &[f64])> = sets.iter().map(|s| (&all[..], &s.golden[..])).collect();
    let infected: Vec<(&[usize], &[f64])> =
        sets.iter().map(|s| (&all[..], &s.infected[..])).collect();
    let fused = ChannelResult::fit(
        "fused",
        &fuse_masked(&fits, &golden, n_dies),
        &fuse_masked(&fits, &infected, n_dies),
    )?;
    Ok((per_channel, fused))
}

/// Scores suspect designs against a stored [`Reference`] under
/// `campaign`: the second half of the paper's method, runnable any
/// number of times (and in any process) against the same
/// characterization without re-measuring the reference lot.
///
/// Suspect acquisitions retry and quarantine exactly like the
/// characterization's (suspect design `s` uses population tag `s + 1`
/// in the fault-decision context), fusion runs over the dies kept by
/// *every* channel, and the report carries a per-channel
/// [`ChannelHealth`] section whenever the fault plan is active or the
/// characterization is degraded. With `model`, every row's fused slot
/// carries the `learned` channel (see [`ScoringSession::with_model`])
/// instead of the z-score sum.
///
/// # Errors
///
/// [`Error::ChannelShapeMismatch`] when `channels` (or the model's
/// features) do not match the stored channels; plus all of
/// [`ScoringSession::score_spec_at`]'s errors.
pub fn score(
    campaign: &Campaign,
    lab: &Lab,
    reference: &dyn Reference,
    specs: &[TrojanSpec],
    channels: &[&dyn Channel],
    model: Option<&LogisticModel>,
) -> Result<ScoredCampaign, Error> {
    let _span = campaign.engine.obs().span("score");
    let mut session = ScoringSession::new(campaign, lab, reference, channels)?;
    if let Some(model) = model {
        session = session.with_model(model)?;
    }

    // Scoring health accumulates per channel across every design.
    let mut scoring_health: Vec<Option<ChannelHealth>> = vec![None; channels.len()];
    let mut rows = Vec::with_capacity(specs.len());
    let mut designs = Vec::with_capacity(specs.len());
    for (s, spec) in specs.iter().enumerate() {
        let scored = session.score_spec_at(s, spec)?;
        for (c, h) in scored.health.iter().enumerate() {
            match &mut scoring_health[c] {
                Some(acc) => acc.merge(h),
                slot => *slot = Some(h.clone()),
            }
        }
        rows.push(scored.row);
        designs.push(scored.design);
    }
    let report = session.report(rows, &scoring_health);
    Ok(ScoredCampaign { report, designs })
}

/// The amortized half of suspect scoring: everything that depends only
/// on the reference, not on any particular suspect — the golden
/// design's slice count, the fabricated die population, the baseline
/// populations and (for multi-channel campaigns) the baseline fusion
/// fits.
///
/// [`score`] builds one session per campaign; `htd serve` builds one
/// per artifact batch so this setup is paid once per batch instead of
/// once per request. Scoring through a session *is* the batched campaign
/// path, so a suspect scored alone at `index` is bit-identical to the
/// same suspect inside any batch at position `index`, at any worker
/// count.
pub struct ScoringSession<'a> {
    campaign: &'a Campaign,
    lab: &'a Lab,
    reference: &'a dyn Reference,
    channels: &'a [&'a dyn Channel],
    stored: Vec<StoredChannel<'a>>,
    baselines: Vec<Cow<'a, [f64]>>,
    golden_slices: usize,
    dies: Vec<DieVariation>,
    fits: Vec<Gaussian>,
    baseline_fused: Option<Vec<f64>>,
    model: Option<&'a LogisticModel>,
}

/// One suspect design scored through a [`ScoringSession`]: the report
/// row, the stored per-channel populations, and the per-channel scoring
/// health (one record per surviving channel, in characterization order)
/// for the caller's campaign ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecScore {
    /// The suspect's report row (per-channel results plus fused).
    pub row: MultiChannelRow,
    /// The raw scored populations behind the row.
    pub design: ScoredDesign,
    /// Scoring health per channel, aligned with the stored states.
    pub health: Vec<ChannelHealth>,
}

/// Pairs each stored channel's kept dies with one population per
/// channel, in the form [`fuse_masked`] and [`masked_feature_rows`]
/// take.
fn masked<'s, P: AsRef<[f64]>>(
    stored: &'s [StoredChannel<'_>],
    populations: &'s [P],
) -> Vec<(&'s [usize], &'s [f64])> {
    stored
        .iter()
        .zip(populations)
        .map(|(s, p)| (s.kept, p.as_ref()))
        .collect()
}

impl<'a> ScoringSession<'a> {
    /// Prepares the shared scoring state for `reference`.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] when `channels` does not match
    /// the stored channels; [`Error::DegeneratePopulation`] when a
    /// baseline population has no spread (multi-channel only); design
    /// failures otherwise.
    pub fn new(
        campaign: &'a Campaign,
        lab: &'a Lab,
        reference: &'a dyn Reference,
        channels: &'a [&'a dyn Channel],
    ) -> Result<Self, Error> {
        let stored = reference.channels();
        check_channels_match(&stored, channels)?;
        let plan = reference.plan();
        let golden = Design::golden(lab)?;
        let golden_slices = golden.used_slices();
        let dies = lab.fabricate_batch(plan.n_dies);
        let baselines: Vec<Cow<'a, [f64]>> =
            (0..stored.len()).map(|c| reference.baseline(c)).collect();

        // Fusion normalisation: the baseline fit of each channel. Only
        // needed (and only required to be non-degenerate) when there is
        // something to fuse.
        let (fits, baseline_fused) = if channels.len() >= 2 {
            let _span = campaign.engine.obs().span("fuse");
            let fits = stored
                .iter()
                .zip(&baselines)
                .map(|(s, baseline)| fit_population(s.name, baseline))
                .collect::<Result<Vec<_>, _>>()?;
            let fused = fuse_masked(&fits, &masked(&stored, &baselines), plan.n_dies);
            (fits, Some(fused))
        } else {
            (Vec::new(), None)
        };
        Ok(ScoringSession {
            campaign,
            lab,
            reference,
            channels,
            stored,
            baselines,
            golden_slices,
            dies,
            fits,
            baseline_fused,
            model: None,
        })
    }

    /// Attaches a trained classifier: every subsequent score replaces
    /// the z-score-sum fused channel with the `learned` channel (per-die
    /// classifier logits, empirical rates at the trained logit-0
    /// boundary). Works for any channel count, including one.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] when the model's feature labels
    /// do not match the stored channels (count, names, order).
    pub fn with_model(mut self, model: &'a LogisticModel) -> Result<Self, Error> {
        check_model_features(model, self.stored.iter().map(|s| s.name))?;
        self.model = Some(model);
        Ok(self)
    }

    /// Scores one suspect at campaign position `index`: the index picks
    /// the design's seed stream ([`CampaignPlan::spec_die_seed`]) and
    /// fault-population tag, so a standalone score at `index` equals the
    /// same spec inside a batched campaign at that position.
    ///
    /// # Errors
    ///
    /// [`Error::AcquisitionExhausted`] when a suspect die exhausts its
    /// budget under the strict policy; [`Error::ChannelDegraded`] when
    /// quarantine leaves a population below [`Reference::min_dies`];
    /// design and simulation failures otherwise.
    pub fn score_spec_at(&self, index: usize, spec: &TrojanSpec) -> Result<SpecScore, Error> {
        let Campaign {
            engine,
            faults,
            policy,
        } = self.campaign;
        let plan = self.reference.plan();
        let need = self.reference.min_dies();
        let infected = Design::infected_with_obs(self.lab, spec, engine.obs())?;
        let infected_devs: Vec<ProgrammedDevice<'_>> = {
            let _span = engine.obs().span("program");
            engine.map(&self.dies, |_, die| {
                ProgrammedDevice::with_obs(self.lab, &infected, die, engine.obs().clone())
            })
        };
        let mut per_channel: Vec<(Vec<usize>, Vec<f64>)> = Vec::with_capacity(self.channels.len());
        let mut scored_sets = Vec::with_capacity(self.channels.len());
        let mut health = Vec::with_capacity(self.channels.len());
        for (c, (channel, stored)) in self.channels.iter().zip(&self.stored).enumerate() {
            let population = acquire_population_faulted(
                engine,
                *channel,
                c,
                &infected_devs,
                plan,
                stored.calibration,
                faults,
                policy,
                (index as u64) + 1,
                |j| plan.spec_die_seed(index, j),
            )?;
            if population.kept.len() < need {
                return Err(Error::ChannelDegraded {
                    channel: stored.name.to_string(),
                    kept: population.kept.len(),
                    need,
                });
            }
            let scores =
                self.reference
                    .score(engine.obs(), c, *channel, &population.acquisitions)?;
            health.push(population.health);
            scored_sets.push(ScoredChannel {
                channel: stored.name.to_string(),
                golden: self.baselines[c].to_vec(),
                infected: scores.clone(),
            });
            per_channel.push((population.kept, scores));
        }
        let channel_results = self
            .stored
            .iter()
            .zip(&self.baselines)
            .zip(&per_channel)
            .map(|((stored, baseline), (_, scores))| {
                ChannelResult::fit(stored.name, baseline, scores)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let suspect_masked: Vec<(&[usize], &[f64])> = per_channel
            .iter()
            .map(|(kept, scores)| (kept.as_slice(), scores.as_slice()))
            .collect();
        let fused = if let Some(model) = self.model {
            let _span = engine.obs().span("fuse");
            Some(learned_result(
                model,
                &masked(&self.stored, &self.baselines),
                &suspect_masked,
                plan.n_dies,
            )?)
        } else {
            match &self.baseline_fused {
                Some(baseline_fused) => {
                    let _span = engine.obs().span("fuse");
                    let infected_fused = fuse_masked(&self.fits, &suspect_masked, plan.n_dies);
                    Some(ChannelResult::fit(
                        "fused",
                        baseline_fused,
                        &infected_fused,
                    )?)
                }
                None => None,
            }
        };
        let size_fraction = infected
            .trojan()
            .map(|t| t.fraction_of_design(self.golden_slices))
            .unwrap_or(0.0);
        engine.obs().incr("score.designs");
        self.reference.count_design(engine.obs());
        Ok(SpecScore {
            row: MultiChannelRow {
                name: spec.name.clone(),
                size_fraction,
                channels: channel_results,
                fused,
            },
            design: ScoredDesign {
                name: spec.name.clone(),
                size_fraction,
                scored: scored_sets,
            },
            health,
        })
    }

    /// Assembles the one-row [`MultiChannelReport`] of a single suspect
    /// scored through this session — exactly the report `htd score`
    /// writes for the same (artifact, suspect) pair, which is what lets
    /// the serve path promise byte-identical responses.
    pub fn single_report(&self, score: &SpecScore) -> MultiChannelReport {
        let scoring: Vec<Option<ChannelHealth>> = score.health.iter().cloned().map(Some).collect();
        self.report(vec![score.row.clone()], &scoring)
    }

    /// The report over `rows`, with the health section of the reference
    /// merged with `scoring_health` (one optional record per stored
    /// channel). The section appears whenever faults could have fired or
    /// the characterization already lost something, so a pristine
    /// campaign keeps the historical (empty) shape.
    fn report(
        &self,
        rows: Vec<MultiChannelRow>,
        scoring_health: &[Option<ChannelHealth>],
    ) -> MultiChannelReport {
        let n_dies = self.reference.plan().n_dies;
        let lost = self.reference.lost();
        let degraded = !lost.is_empty()
            || self
                .stored
                .iter()
                .any(|s| s.kept.len() != n_dies || !s.health.is_pristine(n_dies));
        let mut health = Vec::new();
        if !self.campaign.faults.is_none() || degraded {
            for (c, stored) in self.stored.iter().enumerate() {
                let mut h = stored.health.clone();
                if let Some(scoring) = scoring_health.get(c).and_then(Option::as_ref) {
                    h.merge(scoring);
                }
                health.push(h);
            }
            health.extend(lost.iter().cloned());
        }
        MultiChannelReport {
            rows,
            n_dies,
            channel_names: self.stored.iter().map(|s| s.name.to_string()).collect(),
            health,
        }
    }
}

/// Runs the fused delay+EM experiment over `n_dies` dies on `engine`:
/// the historical two-channel view of a golden [`characterize`] +
/// [`score`] campaign.
///
/// The delay campaign is intentionally small (a handful of pairs) — the
/// point is channel comparison, not full fingerprinting.
///
/// # Errors
///
/// Propagates design construction, simulation and fitting failures.
#[allow(clippy::too_many_arguments)]
pub fn fusion_experiment_with(
    engine: &Engine,
    lab: &Lab,
    specs: &[TrojanSpec],
    n_dies: usize,
    campaign_pairs: usize,
    pt: &[u8; 16],
    key: &[u8; 16],
    seed: u64,
) -> Result<FusionReport, Error> {
    let plan = CampaignPlan::with_random_pairs(n_dies, campaign_pairs, 3, *pt, *key, seed);
    let em = EmChannel::paper();
    let delay = DelayChannel;
    let channels: [&dyn Channel; 2] = [&em, &delay];
    let campaign = Campaign::with_engine(engine.clone());
    let charac: GoldenCharacterization = characterize(&campaign, lab, &plan, &channels)?;
    let report = score(&campaign, lab, &charac, specs, &channels, None)?.report;
    let mut rows = Vec::with_capacity(report.rows.len());
    for row in report.rows {
        let mut channels = row.channels.into_iter();
        let (Some(em), Some(delay), Some(fused)) = (channels.next(), channels.next(), row.fused)
        else {
            return Err(Error::EmptyPopulation {
                what: "per-channel results",
            });
        };
        rows.push(FusionRow {
            name: row.name,
            em,
            delay,
            fused,
        });
    }
    Ok(FusionReport { rows, n_dies })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::PowerChannel;
    use crate::em_detect::TraceMetric;

    /// A golden characterize + score campaign under the default
    /// [`Campaign`].
    fn experiment(
        lab: &Lab,
        plan: &CampaignPlan,
        specs: &[TrojanSpec],
        channels: &[&dyn Channel],
    ) -> Result<MultiChannelReport, Error> {
        let campaign = Campaign::default();
        let charac: GoldenCharacterization = characterize(&campaign, lab, plan, channels)?;
        Ok(score(&campaign, lab, &charac, specs, channels, None)?.report)
    }

    fn small_fusion_experiment(lab: &Lab) -> FusionReport {
        fusion_experiment_with(
            &Engine::default(),
            lab,
            &[TrojanSpec::ht2()],
            6,
            2,
            &[0x11u8; 16],
            &[0x22u8; 16],
            42,
        )
        .unwrap()
    }

    #[test]
    fn channel_result_computes_separation() {
        let golden = vec![1.0, 2.0, 3.0, 2.0, 1.5, 2.5];
        let infected: Vec<f64> = golden.iter().map(|x| x + 5.0).collect();
        let r = ChannelResult::fit("EM", &golden, &infected).unwrap();
        assert!((r.mu - 5.0).abs() < 1e-12);
        assert!(r.analytic_fn_rate < 0.01);
        assert_eq!(r.empirical_fn_rate, 0.0);
        assert_eq!(r.empirical_fp_rate, 0.0);
    }

    #[test]
    fn constant_population_is_a_degenerate_error() {
        let constant = vec![3.25; 6];
        let spread = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let err = ChannelResult::fit("EM", &constant, &spread).unwrap_err();
        match err {
            Error::DegeneratePopulation {
                channel, samples, ..
            } => {
                assert_eq!(channel, "EM");
                assert_eq!(samples, 6);
            }
            other => panic!("expected DegeneratePopulation, got {other:?}"),
        }
        // The infected side degenerating reports the same channel.
        assert!(matches!(
            ChannelResult::fit("delay", &spread, &constant),
            Err(Error::DegeneratePopulation { .. })
        ));
    }

    #[test]
    fn small_fusion_experiment_runs() {
        let lab = Lab::paper();
        let report = small_fusion_experiment(&lab);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.em.mu > 0.0, "EM channel must separate");
        // The fused channel should never be *worse* than the best single
        // channel by much (z-score fusion of a useless channel costs at
        // most √2 in σ).
        let best = row.em.analytic_fn_rate.min(row.delay.analytic_fn_rate);
        assert!(
            row.fused.analytic_fn_rate < best + 0.2,
            "fused {} vs best {}",
            row.fused.analytic_fn_rate,
            best
        );
    }

    #[test]
    fn three_channel_experiment_reports_every_channel_and_fusion() {
        let lab = Lab::paper();
        let plan = CampaignPlan::with_random_pairs(6, 2, 3, [0x11u8; 16], [0x22u8; 16], 42);
        let em = EmChannel::paper();
        let delay = DelayChannel;
        let power = PowerChannel::new(TraceMetric::SumOfLocalMaxima);
        let report = experiment(&lab, &plan, &[TrojanSpec::ht2()], &[&em, &delay, &power]).unwrap();
        assert_eq!(report.channel_names, vec!["EM", "delay", "power"]);
        let row = &report.rows[0];
        assert_eq!(row.channels.len(), 3);
        assert!(row.size_fraction > 0.0);
        let fused = row.fused.as_ref().expect("three channels fuse");
        assert_eq!(fused.channel, "fused");
        for c in &row.channels {
            assert!(c.sigma > 0.0, "{} sigma", c.channel);
        }
        // The two-channel EM/delay numbers are unchanged by the extra
        // power channel riding along in the same campaign.
        let two = small_fusion_experiment(&lab);
        assert_eq!(row.channels[0].mu, two.rows[0].em.mu);
        assert_eq!(row.channels[1].mu, two.rows[0].delay.mu);
    }

    #[test]
    fn runner_rejects_empty_and_undersized_campaigns() {
        let lab = Lab::paper();
        let plan = CampaignPlan::traces(4, [0u8; 16], [0u8; 16], 1);
        assert!(matches!(
            experiment(&lab, &plan, &[], &[]),
            Err(Error::EmptyPopulation { .. })
        ));
        let em = EmChannel::paper();
        let tiny = CampaignPlan::traces(1, [0u8; 16], [0u8; 16], 1);
        assert!(matches!(
            experiment(&lab, &tiny, &[], &[&em]),
            Err(Error::NotEnoughDies { got: 1, need: 2 })
        ));
    }

    #[test]
    fn scoring_rejects_mismatched_channel_sets() {
        let charac = GoldenCharacterization {
            plan: CampaignPlan::traces(2, [0u8; 16], [0u8; 16], 1),
            states: vec![ChannelState::pristine(
                "EM",
                Calibration::None,
                GoldenReference::MeanTrace(htd_em::Trace::new(vec![0.0], 200.0)),
                vec![1.0, 2.0],
            )],
            lost: vec![],
        };
        let lab = Lab::paper();
        let em = EmChannel::paper();
        let delay = DelayChannel;
        let campaign = Campaign::default();
        let score_on =
            |channels: &[&dyn Channel]| score(&campaign, &lab, &charac, &[], channels, None);
        // Wrong count.
        assert!(matches!(
            score_on(&[&em, &delay]),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        // Wrong name.
        assert!(matches!(
            score_on(&[&delay]),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        // Matching channels, no suspects: an empty report.
        let report = score_on(&[&em]).unwrap().report;
        assert!(report.rows.is_empty());
        assert_eq!(report.channel_names, vec!["EM"]);
    }

    #[test]
    fn fuse_scored_channels_matches_manual_z_scores() {
        let a = ScoredChannel {
            channel: "EM".into(),
            golden: vec![1.0, 2.0, 3.0, 4.0],
            infected: vec![5.0, 6.0, 7.0, 8.0],
        };
        let b = ScoredChannel {
            channel: "delay".into(),
            golden: vec![10.0, 20.0, 30.0, 40.0],
            infected: vec![11.0, 21.0, 31.0, 41.0],
        };
        let (per_channel, fused) = fuse_scored_channels(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(per_channel.len(), 2);
        assert_eq!(per_channel[0].channel, "EM");
        assert_eq!(per_channel[1].channel, "delay");
        assert_eq!(fused.channel, "fused");
        // Manual fusion: z-scores against the golden fits.
        let ga = Gaussian::fit(&a.golden).unwrap();
        let gb = Gaussian::fit(&b.golden).unwrap();
        let z = |x: f64, g: &Gaussian| (x - g.mean()) / g.std();
        let golden_fused: Vec<f64> = (0..4)
            .map(|j| z(a.golden[j], &ga) + z(b.golden[j], &gb))
            .collect();
        let infected_fused: Vec<f64> = (0..4)
            .map(|j| z(a.infected[j], &ga) + z(b.infected[j], &gb))
            .collect();
        let manual = ChannelResult::fit("fused", &golden_fused, &infected_fused).unwrap();
        assert_eq!(fused, manual);
    }

    #[test]
    fn fuse_scored_channels_rejects_bad_shapes() {
        let a = ScoredChannel {
            channel: "EM".into(),
            golden: vec![1.0, 2.0, 3.0],
            infected: vec![4.0, 5.0, 6.0],
        };
        assert!(matches!(
            fuse_scored_channels(&[]),
            Err(Error::EmptyPopulation { .. })
        ));
        assert!(matches!(
            fuse_scored_channels(std::slice::from_ref(&a)),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        let short = ScoredChannel {
            channel: "delay".into(),
            golden: vec![1.0, 2.0],
            infected: vec![3.0, 4.0],
        };
        assert!(matches!(
            fuse_scored_channels(&[a, short]),
            Err(Error::ChannelShapeMismatch { .. })
        ));
    }
}
