//! The pluggable measurement-channel abstraction.
//!
//! The paper's Section VI perspective — detection "using both delay and
//! EM measurements" — generalises to *N* side channels over one die
//! population. Every channel follows the same stage shape:
//!
//! 1. **calibrate** — establish measurement parameters, from the plan
//!    alone or from the golden lot (the delay channel aims its glitch
//!    sweep on every golden die's settle times; trace channels need no
//!    calibration),
//! 2. **acquire** — one raw measurement per die (a trace, or a
//!    mean-onset matrix) out of the die's [`DieReading`], one attempt
//!    under a fault plan that may quarantine the attempt's internal
//!    repetitions,
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
//! Two channel types ship today: [`TraceChannel`], over either
//! measurement chain — the near-field EM probe (Section V) or the global
//! power baseline the paper argues EM beats — and [`DelayChannel`] (the
//! inter-die generalisation of Section III). A future channel — TVLA,
//! golden-free delay, learning-assisted — is one more `impl Channel`.

use std::sync::OnceLock;

use htd_em::Trace;
use htd_faults::{FaultPlan, RepHealth};
use htd_timing::GlitchParams;

use crate::campaign::CampaignPlan;
use crate::delay_detect::{sweep_matrix_faulted, DelayMatrix, DieSettles};
use crate::design::PairActivity;
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

/// What a die task reads from its programmed die under a plan, each part
/// once, on its first request: the activity replay of the plan's trace
/// pair, read out by every trace channel (EM and power) and attempt, and
/// the settle times of its delay pairs ([`DieSettles`]), swept by every
/// delay attempt. A campaign also builds readings of kept settles alone,
/// which serve sweeps after their device is gone.
#[derive(Debug)]
pub struct DieReading<'d> {
    plan: &'d CampaignPlan,
    device: Option<&'d ProgrammedDevice<'d>>,
    activity: OnceLock<PairActivity>,
    settles: OnceLock<DieSettles>,
}

/// `cell`'s value, initialised by `init` if empty (an error leaves it
/// empty).
fn get_or_try_init<T>(
    cell: &OnceLock<T>,
    init: impl FnOnce() -> Result<T, Error>,
) -> Result<&T, Error> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = init()?;
    Ok(cell.get_or_init(|| value))
}

impl<'d> DieReading<'d> {
    /// A reading of `device` under `plan`; nothing is simulated until a
    /// channel asks.
    pub fn new(device: &'d ProgrammedDevice<'d>, plan: &'d CampaignPlan) -> Self {
        DieReading {
            plan,
            device: Some(device),
            activity: OnceLock::new(),
            settles: OnceLock::new(),
        }
    }

    /// A reading of a die whose device is gone: only the `settles` read
    /// while it was programmed.
    pub(crate) fn settled(plan: &'d CampaignPlan, settles: DieSettles) -> Self {
        DieReading {
            plan,
            device: None,
            activity: OnceLock::new(),
            settles: OnceLock::from(settles),
        }
    }

    /// The plan the die is read under.
    pub fn plan(&self) -> &'d CampaignPlan {
        self.plan
    }

    /// The programmed device, or a shape error for a settled reading.
    fn device(&self) -> Result<&'d ProgrammedDevice<'d>, Error> {
        self.device.ok_or_else(|| Error::ChannelShapeMismatch {
            channel: "die reading".to_string(),
            expected: "a die reading with its device programmed",
        })
    }

    /// One averaged trace of the plan's pair through `chain`
    /// (see [`ProgrammedDevice::acquire_trace`]), read out of the die's
    /// one activity replay.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; [`Error::ChannelShapeMismatch`]
    /// for a chain the device does not bin or a settled reading.
    pub fn trace(&self, chain: SideChannel, measure_seed: u64) -> Result<Trace, Error> {
        let device = self.device()?;
        let activity = get_or_try_init(&self.activity, || {
            device.binned_activity(&self.plan.pt, &self.plan.key)
        })?;
        device.read_trace(activity, chain, measure_seed)
    }

    /// The die's settle times for the plan's pairs, read on the first
    /// request (one task per pair on `engine`).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn settles(&self, engine: &Engine) -> Result<&DieSettles, Error> {
        get_or_try_init(&self.settles, || {
            DieSettles::read(engine, self.device()?, &self.plan.pairs)
        })
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

    /// The measurement chain [`Channel::acquire`] reads traces through,
    /// if any: a campaign programs its devices to bin only the chains
    /// its channels read. The default reads none.
    fn chain(&self) -> Option<SideChannel> {
        None
    }

    /// Whether the channel is aimed on the reference lot's settle times
    /// (the delay channel). A campaign then reads every reference die's
    /// [`DieSettles`] while the die is programmed, calibrates from all of
    /// them, and acquires each die from a [`DieReading`] of its kept
    /// settles alone. The default (`false`) calibrates from the plan
    /// alone, before any device is programmed.
    fn aims_on_settles(&self) -> bool {
        false
    }

    /// Establishes measurement parameters: from the plan alone (`lot`
    /// empty), or — for a channel that [aims on
    /// settles](Channel::aims_on_settles) — from the settle times of
    /// every reference-lot die, in die order. The default needs none
    /// ([`Calibration::None`]).
    ///
    /// # Errors
    ///
    /// Campaign-shape failures (no pairs, no repetitions, no dies).
    fn calibrate(&self, plan: &CampaignPlan, lot: &[DieSettles]) -> Result<Calibration, Error> {
        let _ = (plan, lot);
        Ok(Calibration::None)
    }

    /// One acquisition attempt on one die, read out of the die's
    /// [`DieReading`] (shared by every channel and attempt on the die).
    /// `seed` (from the plan's seed tree, through
    /// [`htd_faults::retry_seed`]) must fully determine the measurement
    /// noise; `ctx` (channel index, population tag, die index, attempt)
    /// keys the fault decisions of the attempt's internal repetitions.
    /// Returns `Ok(None)` when injected faults destroy the whole attempt
    /// (a delay sweep losing every repetition of some pair); channels
    /// without repetitions ignore `faults` and report a fault-free
    /// [`RepHealth`]. Under [`FaultPlan::none`] an attempt is the
    /// fault-oblivious measurement, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates simulation and calibration-shape failures.
    fn acquire(
        &self,
        engine: &Engine,
        die: &DieReading<'_>,
        calibration: &Calibration,
        seed: u64,
        faults: &FaultPlan,
        ctx: &[u64; 4],
    ) -> Result<Option<(Acquisition, RepHealth)>, Error>;

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
    /// Shape errors if fed another channel's acquisition or reference,
    /// or a reference (say, a stored one) whose shape does not match
    /// the acquisition's.
    fn score(
        &self,
        acquisition: &Acquisition,
        reference: &GoldenReference,
        calibration: &Calibration,
    ) -> Result<f64, Error>;
}

/// A side-channel trace channel: one averaged trace per device through
/// a measurement chain, the golden mean trace `E_n(G)` as reference, and
/// a [`TraceMetric`] over the deviation `D = |trace − E_n(G)|`. On
/// [`SideChannel::Em`] it is the paper's near-field EM channel
/// (Section V); on [`SideChannel::Power`] it is the global power
/// baseline (the paper's A4), acquired through [`htd_em::PowerSetup`]'s
/// RC-filtered, position-blind supply chain.
#[derive(Debug, Clone, Copy)]
pub struct TraceChannel {
    chain: SideChannel,
    metric: TraceMetric,
}

impl TraceChannel {
    /// A trace channel over `chain` with an explicit deviation metric.
    pub fn new(chain: SideChannel, metric: TraceMetric) -> Self {
        TraceChannel { chain, metric }
    }

    /// The paper's channel: the EM chain with the sum-of-local-maxima
    /// metric.
    pub fn paper() -> Self {
        Self::new(SideChannel::Em, TraceMetric::SumOfLocalMaxima)
    }
}

impl Channel for TraceChannel {
    fn name(&self) -> &'static str {
        match self.chain {
            SideChannel::Em => "EM",
            SideChannel::Power => "power",
        }
    }

    fn chain(&self) -> Option<SideChannel> {
        Some(self.chain)
    }

    fn acquire(
        &self,
        _engine: &Engine,
        die: &DieReading<'_>,
        _calibration: &Calibration,
        seed: u64,
        _faults: &FaultPlan,
        _ctx: &[u64; 4],
    ) -> Result<Option<(Acquisition, RepHealth)>, Error> {
        let trace = die.trace(self.chain, seed)?;
        Ok(Some((Acquisition::Trace(trace), RepHealth::default())))
    }

    fn characterize_golden(
        &self,
        acquisitions: &[Acquisition],
        _calibration: &Calibration,
    ) -> Result<GoldenReference, Error> {
        if acquisitions.is_empty() {
            return Err(Error::EmptyPopulation {
                what: "golden trace acquisitions",
            });
        }
        // Borrowed, not cloned: a lot's traces are held once.
        let traces = acquisitions
            .iter()
            .map(|a| a.trace(self.name()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GoldenReference::MeanTrace(Trace::mean_of(traces)))
    }

    fn score(
        &self,
        acquisition: &Acquisition,
        reference: &GoldenReference,
        _calibration: &Calibration,
    ) -> Result<f64, Error> {
        let trace = acquisition.trace(self.name())?;
        let mean = reference.mean_trace(self.name())?;
        if !trace.compatible(mean) {
            return Err(Error::ChannelShapeMismatch {
                channel: self.name().to_string(),
                expected: "a mean trace of the acquisition's length and time base",
            });
        }
        Ok(self.metric.evaluate(trace.abs_diff(mean).samples()))
    }
}

/// The inter-die delay channel (the generalisation of Section III used
/// by the fused experiment): calibrates a glitch sweep so even the
/// slowest die's slowest path faults, acquires one mean-onset matrix per
/// die, references the golden population-mean matrix, and scores the
/// mean absolute onset deviation in ps.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayChannel;

/// Rejects a delay campaign with no pairs or no repetitions: the former
/// yields an empty matrix and a meaningless calibration, the latter
/// would be measured as one repetition while the plan records zero.
fn check_delay_plan(plan: &CampaignPlan) -> Result<(), Error> {
    if plan.pairs.is_empty() {
        return Err(Error::EmptyPopulation {
            what: "delay campaign pairs",
        });
    }
    if plan.repetitions == 0 {
        return Err(Error::EmptyPopulation {
            what: "delay campaign repetitions",
        });
    }
    Ok(())
}

impl Channel for DelayChannel {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn aims_on_settles(&self) -> bool {
        true
    }

    fn calibrate(&self, plan: &CampaignPlan, lot: &[DieSettles]) -> Result<Calibration, Error> {
        check_delay_plan(plan)?;
        // Aim the glitch sweep so even the slowest die's slowest path
        // faults. Setup and measurement noise are taken from the first
        // die, like the physical bench aimed on its first board.
        let first = lot
            .first()
            .ok_or(Error::NotEnoughDies { got: 0, need: 1 })?;
        let (setup, noise) = (first.setup_ps, first.noise_ps);
        let mut max_required: f64 = 0.0;
        for row in lot.iter().flat_map(|die| &die.rows) {
            for s in row.iter().flatten() {
                max_required = max_required.max(s + setup);
            }
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
        die: &DieReading<'_>,
        calibration: &Calibration,
        seed: u64,
        faults: &FaultPlan,
        ctx: &[u64; 4],
    ) -> Result<Option<(Acquisition, RepHealth)>, Error> {
        let plan = die.plan();
        check_delay_plan(plan)?;
        let params = calibration.glitch(self.name())?;
        let settles = die.settles(engine)?;
        Ok(sweep_matrix_faulted(
            engine,
            settles,
            plan.repetitions,
            plan.seed,
            params,
            seed,
            faults,
            ctx,
        )
        .map(|(matrix, reps)| (Acquisition::Matrix(matrix), reps)))
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
        if !matrix.same_shape(mean) {
            return Err(Error::ChannelShapeMismatch {
                channel: self.name().to_string(),
                expected: "a mean matrix of the acquisition's pairs × bits shape",
            });
        }
        let params = calibration.glitch(self.name())?;
        Ok(delay_metric(matrix, mean, params.step_ps))
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
            ChannelSpec::Em(metric) => Box::new(TraceChannel::new(SideChannel::Em, *metric)),
            ChannelSpec::Power(metric) => Box::new(TraceChannel::new(SideChannel::Power, *metric)),
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
        let channel = |chain| TraceChannel::new(chain, TraceMetric::SumOfLocalMaxima);
        assert_eq!(channel(SideChannel::Em).name(), "EM");
        assert_eq!(channel(SideChannel::Power).name(), "power");
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
        let ch = TraceChannel::paper();
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
