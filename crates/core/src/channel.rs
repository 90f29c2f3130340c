//! The pluggable measurement-channel abstraction.
//!
//! The paper's Section VI perspective — detection "using both delay and
//! EM measurements" — generalises to *N* side channels over one die
//! population. Every channel follows the same stage shape:
//!
//! 1. **calibrate** — establish measurement parameters on the golden
//!    devices (the delay channel aims its glitch sweep here; trace
//!    channels need no calibration),
//! 2. **acquire** — one raw measurement per device (a trace, or a
//!    mean-onset matrix),
//! 3. **characterize_golden** — fold the golden acquisitions into the
//!    channel's population reference (`E_n(G)` / the mean onset matrix),
//! 4. **score** — reduce one acquisition against the reference to a
//!    scalar decision metric.
//!
//! [`fusion::characterize`](crate::fusion::characterize) and
//! [`fusion::score`](crate::fusion::score) drive any `&[&dyn Channel]`
//! through these stages with one shared loop: per-channel seeding comes
//! from the [`CampaignPlan`] seed tree (indices, never scheduling), so
//! every campaign is bit-identical at every worker count; the fused
//! decision is the channel-ordered sum of baseline-normalised z-scores.
//!
//! Three channels ship today: [`EmChannel`] (Section V),
//! [`DelayChannel`] (the inter-die generalisation of Section III) and
//! [`PowerChannel`] (the global power baseline the paper argues EM
//! beats). A future channel — TVLA, golden-free delay, learning-assisted
//! — is one more `impl Channel`.

use htd_em::Trace;
use htd_faults::{FaultPlan, RepHealth};
use htd_timing::GlitchParams;

use crate::campaign::CampaignPlan;
use crate::delay_detect::{measure_matrix_faulted, measure_matrix_with, DelayMatrix};
use crate::em_detect::{SideChannel, TraceMetric};
use crate::error::Error;
use crate::{Engine, ProgrammedDevice};

/// Channel-specific measurement parameters established by
/// [`Channel::calibrate`] and threaded through the later stages.
#[derive(Debug, Clone, PartialEq)]
pub enum Calibration {
    /// The channel needs no calibration (trace channels).
    None,
    /// A clock-glitch sweep aimed on the golden population (delay
    /// channel).
    Glitch(GlitchParams),
}

impl Calibration {
    /// The glitch parameters, or a shape error for `channel`.
    pub fn glitch(&self, channel: &str) -> Result<&GlitchParams, Error> {
        match self {
            Calibration::Glitch(p) => Ok(p),
            Calibration::None => Err(Error::ChannelShapeMismatch {
                channel: channel.to_string(),
                expected: "glitch calibration",
            }),
        }
    }
}

/// One device's raw measurement, as produced by [`Channel::acquire`].
#[derive(Debug, Clone, PartialEq)]
pub enum Acquisition {
    /// A side-channel trace (EM or power chain).
    Trace(Trace),
    /// A mean fault-onset matrix (delay chain).
    Matrix(DelayMatrix),
}

impl Acquisition {
    /// The trace, or a shape error for `channel`.
    pub fn trace(&self, channel: &str) -> Result<&Trace, Error> {
        match self {
            Acquisition::Trace(t) => Ok(t),
            Acquisition::Matrix(_) => Err(Error::ChannelShapeMismatch {
                channel: channel.to_string(),
                expected: "trace acquisition",
            }),
        }
    }

    /// The onset matrix, or a shape error for `channel`.
    pub fn matrix(&self, channel: &str) -> Result<&DelayMatrix, Error> {
        match self {
            Acquisition::Matrix(m) => Ok(m),
            Acquisition::Trace(_) => Err(Error::ChannelShapeMismatch {
                channel: channel.to_string(),
                expected: "matrix acquisition",
            }),
        }
    }
}

/// A channel's golden-population reference, as produced by
/// [`Channel::characterize_golden`].
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenReference {
    /// The golden mean trace `E_n(G)` (Section V-A).
    MeanTrace(Trace),
    /// The golden population-mean onset matrix.
    MeanMatrix(DelayMatrix),
}

impl GoldenReference {
    /// The mean trace, or a shape error for `channel`.
    pub fn mean_trace(&self, channel: &str) -> Result<&Trace, Error> {
        match self {
            GoldenReference::MeanTrace(t) => Ok(t),
            GoldenReference::MeanMatrix(_) => Err(Error::ChannelShapeMismatch {
                channel: channel.to_string(),
                expected: "mean-trace reference",
            }),
        }
    }

    /// The mean matrix, or a shape error for `channel`.
    pub fn mean_matrix(&self, channel: &str) -> Result<&DelayMatrix, Error> {
        match self {
            GoldenReference::MeanMatrix(m) => Ok(m),
            GoldenReference::MeanTrace(_) => Err(Error::ChannelShapeMismatch {
                channel: channel.to_string(),
                expected: "mean-matrix reference",
            }),
        }
    }
}

/// One pluggable detection channel: the acquire → characterize_golden →
/// score stage pipeline over a die population.
///
/// Implementations must be `Sync` (stages fan across the
/// [`Engine`] worker pool) and must derive **all**
/// randomness from the `seed` passed to [`Channel::acquire`], never from
/// scheduling order — that is what keeps multi-channel campaigns
/// bit-identical for every worker count.
pub trait Channel: Sync {
    /// Channel label used in reports and error messages.
    fn name(&self) -> &'static str;

    /// Establishes measurement parameters on the golden devices. The
    /// default needs none ([`Calibration::None`]).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures from the golden devices.
    fn calibrate(
        &self,
        engine: &Engine,
        plan: &CampaignPlan,
        golden_devices: &[ProgrammedDevice<'_>],
    ) -> Result<Calibration, Error> {
        let _ = (engine, plan, golden_devices);
        Ok(Calibration::None)
    }

    /// Acquires one device's raw measurement. `seed` comes from the
    /// plan's seed tree ([`CampaignPlan::die_seed`] /
    /// [`CampaignPlan::spec_die_seed`]) and must fully determine the
    /// measurement noise.
    ///
    /// # Errors
    ///
    /// Propagates simulation and calibration-shape failures.
    fn acquire(
        &self,
        engine: &Engine,
        device: &ProgrammedDevice<'_>,
        plan: &CampaignPlan,
        calibration: &Calibration,
        seed: u64,
    ) -> Result<Acquisition, Error>;

    /// [`Channel::acquire`] under a [`FaultPlan`]: one acquisition
    /// attempt whose internal repetitions may be quarantined. Returns
    /// `Ok(None)` when injected repetition faults destroy the whole
    /// attempt (a delay sweep losing every repetition of some pair) —
    /// the caller re-acquires with a fresh [`htd_faults::retry_seed`].
    /// `ctx` names the attempt (channel index, population tag, die
    /// index, attempt number) so fault decisions stay index-pure.
    ///
    /// The default implementation is for channels without internal
    /// repetitions: it delegates to [`Channel::acquire`] and reports a
    /// fault-free [`RepHealth`]. Fed [`FaultPlan::none`], every
    /// implementation must be bit-identical to [`Channel::acquire`].
    ///
    /// # Errors
    ///
    /// Propagates simulation and calibration-shape failures.
    #[allow(clippy::too_many_arguments)]
    fn acquire_faulted(
        &self,
        engine: &Engine,
        device: &ProgrammedDevice<'_>,
        plan: &CampaignPlan,
        calibration: &Calibration,
        seed: u64,
        faults: &FaultPlan,
        ctx: &[u64; 4],
    ) -> Result<Option<(Acquisition, RepHealth)>, Error> {
        let _ = (faults, ctx);
        Ok(Some((
            self.acquire(engine, device, plan, calibration, seed)?,
            RepHealth::default(),
        )))
    }

    /// Folds the golden acquisitions into the channel's population
    /// reference.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyPopulation`] on zero acquisitions; shape errors if
    /// fed another channel's acquisitions.
    fn characterize_golden(
        &self,
        acquisitions: &[Acquisition],
        calibration: &Calibration,
    ) -> Result<GoldenReference, Error>;

    /// Scores one acquisition against the golden reference.
    ///
    /// # Errors
    ///
    /// Shape errors if fed another channel's acquisition or reference.
    fn score(
        &self,
        acquisition: &Acquisition,
        reference: &GoldenReference,
        calibration: &Calibration,
    ) -> Result<f64, Error>;
}

/// The near-field EM channel (paper Section V): averaged-trace
/// acquisition, golden mean trace `E_n(G)`, and a [`TraceMetric`] over
/// the deviation `D = |trace − E_n(G)|`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmChannel {
    metric: TraceMetric,
}

impl EmChannel {
    /// An EM channel with an explicit deviation metric.
    pub fn new(metric: TraceMetric) -> Self {
        EmChannel { metric }
    }

    /// The paper's channel: the sum-of-local-maxima metric.
    pub fn paper() -> Self {
        Self::new(TraceMetric::SumOfLocalMaxima)
    }
}

impl Channel for EmChannel {
    fn name(&self) -> &'static str {
        "EM"
    }

    fn acquire(
        &self,
        _engine: &Engine,
        device: &ProgrammedDevice<'_>,
        plan: &CampaignPlan,
        _calibration: &Calibration,
        seed: u64,
    ) -> Result<Acquisition, Error> {
        Ok(Acquisition::Trace(
            device.acquire_em_trace(&plan.pt, &plan.key, seed)?,
        ))
    }

    fn characterize_golden(
        &self,
        acquisitions: &[Acquisition],
        _calibration: &Calibration,
    ) -> Result<GoldenReference, Error> {
        mean_trace_reference(self.name(), acquisitions)
    }

    fn score(
        &self,
        acquisition: &Acquisition,
        reference: &GoldenReference,
        _calibration: &Calibration,
    ) -> Result<f64, Error> {
        score_trace(self.name(), self.metric, acquisition, reference)
    }
}

/// The global power channel (the paper's A4 baseline): the same stage
/// pipeline as [`EmChannel`], acquired through
/// [`htd_em::PowerSetup`]'s RC-filtered, position-blind supply chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerChannel {
    metric: TraceMetric,
}

impl PowerChannel {
    /// A power channel with an explicit deviation metric.
    pub fn new(metric: TraceMetric) -> Self {
        PowerChannel { metric }
    }
}

impl Channel for PowerChannel {
    fn name(&self) -> &'static str {
        "power"
    }

    fn acquire(
        &self,
        _engine: &Engine,
        device: &ProgrammedDevice<'_>,
        plan: &CampaignPlan,
        _calibration: &Calibration,
        seed: u64,
    ) -> Result<Acquisition, Error> {
        Ok(Acquisition::Trace(
            device.acquire_power_trace(&plan.pt, &plan.key, seed)?,
        ))
    }

    fn characterize_golden(
        &self,
        acquisitions: &[Acquisition],
        _calibration: &Calibration,
    ) -> Result<GoldenReference, Error> {
        mean_trace_reference(self.name(), acquisitions)
    }

    fn score(
        &self,
        acquisition: &Acquisition,
        reference: &GoldenReference,
        _calibration: &Calibration,
    ) -> Result<f64, Error> {
        score_trace(self.name(), self.metric, acquisition, reference)
    }
}

/// The inter-die delay channel (the generalisation of Section III used
/// by the fused experiment): calibrates a glitch sweep so even the
/// slowest die's slowest path faults, acquires one mean-onset matrix per
/// die, references the golden population-mean matrix, and scores the
/// mean absolute onset deviation in ps.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayChannel;

impl Channel for DelayChannel {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn calibrate(
        &self,
        engine: &Engine,
        plan: &CampaignPlan,
        golden_devices: &[ProgrammedDevice<'_>],
    ) -> Result<Calibration, Error> {
        // Aim the glitch sweep so even the slowest die's slowest path
        // faults. Setup and measurement noise are technology constants,
        // identical on every die. The settles land in the device caches
        // and are reused by every matrix acquisition that follows.
        let first = golden_devices
            .first()
            .ok_or(Error::NotEnoughDies { got: 0, need: 1 })?;
        let setup = first.annotation().setup_ps();
        let noise = first.annotation().measurement_noise_ps();
        let per_die_max = engine.map(golden_devices, |_, dev| {
            let mut max_required: f64 = 0.0;
            for (pt, key) in &plan.pairs {
                let settles = dev.round10_settle_times_cached(pt, key)?;
                for s in settles.iter().flatten() {
                    max_required = max_required.max(s + setup);
                }
            }
            Ok::<f64, Error>(max_required)
        });
        let mut max_required: f64 = 0.0;
        for m in per_die_max {
            max_required = max_required.max(m?);
        }
        Ok(Calibration::Glitch(GlitchParams::paper_sweep(
            max_required,
            setup,
            noise,
        )))
    }

    fn acquire(
        &self,
        engine: &Engine,
        device: &ProgrammedDevice<'_>,
        plan: &CampaignPlan,
        calibration: &Calibration,
        seed: u64,
    ) -> Result<Acquisition, Error> {
        let params = calibration.glitch(self.name())?;
        let campaign = plan.delay_campaign();
        Ok(Acquisition::Matrix(measure_matrix_with(
            engine, device, &campaign, params, seed,
        )?))
    }

    fn acquire_faulted(
        &self,
        engine: &Engine,
        device: &ProgrammedDevice<'_>,
        plan: &CampaignPlan,
        calibration: &Calibration,
        seed: u64,
        faults: &FaultPlan,
        ctx: &[u64; 4],
    ) -> Result<Option<(Acquisition, RepHealth)>, Error> {
        let params = calibration.glitch(self.name())?;
        let campaign = plan.delay_campaign();
        Ok(
            measure_matrix_faulted(engine, device, &campaign, params, seed, faults, ctx)?
                .map(|(matrix, reps)| (Acquisition::Matrix(matrix), reps)),
        )
    }

    fn characterize_golden(
        &self,
        acquisitions: &[Acquisition],
        _calibration: &Calibration,
    ) -> Result<GoldenReference, Error> {
        if acquisitions.is_empty() {
            return Err(Error::EmptyPopulation {
                what: "golden matrix acquisitions",
            });
        }
        let matrices = acquisitions
            .iter()
            .map(|a| a.matrix(self.name()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GoldenReference::MeanMatrix(mean_matrix(&matrices)))
    }

    fn score(
        &self,
        acquisition: &Acquisition,
        reference: &GoldenReference,
        calibration: &Calibration,
    ) -> Result<f64, Error> {
        let matrix = acquisition.matrix(self.name())?;
        let mean = reference.mean_matrix(self.name())?;
        let params = calibration.glitch(self.name())?;
        Ok(delay_metric(matrix, mean, params.step_ps))
    }
}

/// The trace channel for a measurement chain — [`EmChannel`] for the
/// probe, [`PowerChannel`] for the supply baseline.
pub fn trace_channel(chain: SideChannel, metric: TraceMetric) -> Box<dyn Channel> {
    match chain {
        SideChannel::Em => Box::new(EmChannel::new(metric)),
        SideChannel::Power => Box::new(PowerChannel::new(metric)),
    }
}

/// A constructible description of one channel — the piece of channel
/// configuration that can live in a stored artifact (or a CLI flag) and
/// be rebuilt into a live [`Channel`] later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelSpec {
    /// The near-field EM channel with its deviation metric.
    Em(TraceMetric),
    /// The global power baseline with its deviation metric.
    Power(TraceMetric),
    /// The clock-glitch delay channel.
    Delay,
}

impl ChannelSpec {
    /// The label the built channel will report ([`Channel::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            ChannelSpec::Em(_) => "EM",
            ChannelSpec::Power(_) => "power",
            ChannelSpec::Delay => "delay",
        }
    }

    /// Builds the live channel this spec describes.
    pub fn build(&self) -> Box<dyn Channel> {
        match self {
            ChannelSpec::Em(metric) => Box::new(EmChannel::new(*metric)),
            ChannelSpec::Power(metric) => Box::new(PowerChannel::new(*metric)),
            ChannelSpec::Delay => Box::new(DelayChannel),
        }
    }

    /// The spec's stable serialization token (`"em <metric>"`,
    /// `"power <metric>"`, `"delay"`), the inverse of
    /// [`ChannelSpec::from_token`].
    pub fn token(&self) -> String {
        match self {
            ChannelSpec::Em(m) => format!("em {}", m.token()),
            ChannelSpec::Power(m) => format!("power {}", m.token()),
            ChannelSpec::Delay => "delay".to_string(),
        }
    }

    /// Parses a [`ChannelSpec::token`] string. Returns `None` on any
    /// unknown kind, unknown metric, or trailing garbage.
    pub fn from_token(token: &str) -> Option<Self> {
        let mut words = token.split_whitespace();
        let spec = match (words.next()?, words.next()) {
            ("em", Some(m)) => ChannelSpec::Em(TraceMetric::from_token(m)?),
            ("power", Some(m)) => ChannelSpec::Power(TraceMetric::from_token(m)?),
            ("delay", None) => ChannelSpec::Delay,
            _ => return None,
        };
        match words.next() {
            Some(_) => None,
            None => Some(spec),
        }
    }
}

/// Shared stage 3 of the trace channels: the golden mean trace.
fn mean_trace_reference(
    channel: &'static str,
    acquisitions: &[Acquisition],
) -> Result<GoldenReference, Error> {
    if acquisitions.is_empty() {
        return Err(Error::EmptyPopulation {
            what: "golden trace acquisitions",
        });
    }
    let traces = acquisitions
        .iter()
        .map(|a| a.trace(channel).cloned())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GoldenReference::MeanTrace(Trace::mean_of(&traces)))
}

/// Shared stage 4 of the trace channels: the deviation metric against
/// `E_n(G)`.
fn score_trace(
    channel: &'static str,
    metric: TraceMetric,
    acquisition: &Acquisition,
    reference: &GoldenReference,
) -> Result<f64, Error> {
    let trace = acquisition.trace(channel)?;
    let mean = reference.mean_trace(channel)?;
    Ok(metric.evaluate(trace.abs_diff(mean).samples()))
}

/// Mean absolute onset deviation (ps) of a matrix against a reference.
pub(crate) fn delay_metric(matrix: &DelayMatrix, reference: &DelayMatrix, step_ps: f64) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (row, ref_row) in matrix
        .mean_onset_steps
        .iter()
        .zip(&reference.mean_onset_steps)
    {
        for (a, b) in row.iter().zip(ref_row) {
            sum += (a - b).abs() * step_ps;
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Element-wise mean of a set of onset matrices.
pub(crate) fn mean_matrix(matrices: &[&DelayMatrix]) -> DelayMatrix {
    let pairs = matrices[0].mean_onset_steps.len();
    let bits = matrices[0]
        .mean_onset_steps
        .first()
        .map(Vec::len)
        .unwrap_or(0);
    let mut mean = vec![vec![0.0f64; bits]; pairs];
    for m in matrices {
        for (p, row) in m.mean_onset_steps.iter().enumerate() {
            for (b, v) in row.iter().enumerate() {
                mean[p][b] += v;
            }
        }
    }
    let n = matrices.len() as f64;
    for row in &mut mean {
        for v in row.iter_mut() {
            *v /= n;
        }
    }
    DelayMatrix {
        mean_onset_steps: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_metric_is_mean_absolute_deviation() {
        let a = DelayMatrix {
            mean_onset_steps: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        };
        let b = DelayMatrix {
            mean_onset_steps: vec![vec![2.0, 2.0], vec![3.0, 0.0]],
        };
        // |Δ| = [1, 0, 0, 4], mean = 1.25 steps × 35 ps.
        assert!((delay_metric(&a, &b, 35.0) - 1.25 * 35.0).abs() < 1e-12);
    }

    #[test]
    fn mean_matrix_averages_elementwise() {
        let a = DelayMatrix {
            mean_onset_steps: vec![vec![0.0, 4.0]],
        };
        let b = DelayMatrix {
            mean_onset_steps: vec![vec![2.0, 0.0]],
        };
        let m = mean_matrix(&[&a, &b]);
        assert_eq!(m.mean_onset_steps, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn stage_shapes_are_checked() {
        let trace_acq = Acquisition::Trace(Trace::new(vec![1.0, 2.0], 200.0));
        let matrix_acq = Acquisition::Matrix(DelayMatrix {
            mean_onset_steps: vec![vec![1.0]],
        });
        assert!(trace_acq.trace("EM").is_ok());
        assert!(matches!(
            trace_acq.matrix("delay"),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        assert!(matrix_acq.matrix("delay").is_ok());
        assert!(matches!(
            matrix_acq.trace("EM"),
            Err(Error::ChannelShapeMismatch { .. })
        ));
        assert!(matches!(
            Calibration::None.glitch("delay"),
            Err(Error::ChannelShapeMismatch { .. })
        ));
    }

    #[test]
    fn trace_channel_picks_the_chain() {
        assert_eq!(
            trace_channel(SideChannel::Em, TraceMetric::SumOfLocalMaxima).name(),
            "EM"
        );
        assert_eq!(
            trace_channel(SideChannel::Power, TraceMetric::SumOfLocalMaxima).name(),
            "power"
        );
    }

    #[test]
    fn channel_spec_tokens_roundtrip() {
        let specs = [
            ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            ChannelSpec::Em(TraceMetric::L2Norm),
            ChannelSpec::Power(TraceMetric::MaxPoint),
            ChannelSpec::Power(TraceMetric::SumAll),
            ChannelSpec::Delay,
        ];
        for spec in specs {
            let token = spec.token();
            assert_eq!(ChannelSpec::from_token(&token), Some(spec), "{token}");
            assert_eq!(spec.build().name(), spec.name());
        }
        for bad in ["", "em", "em bogus", "delay extra", "laser solm"] {
            assert_eq!(ChannelSpec::from_token(bad), None, "{bad}");
        }
    }

    #[test]
    fn empty_golden_population_is_an_error() {
        let ch = EmChannel::paper();
        assert!(matches!(
            ch.characterize_golden(&[], &Calibration::None),
            Err(Error::EmptyPopulation { .. })
        ));
        assert!(matches!(
            DelayChannel.characterize_golden(&[], &Calibration::None),
            Err(Error::EmptyPopulation { .. })
        ));
    }
}
