//! EM-based HT detection (paper Sections IV and V).
//!
//! Two regimes:
//!
//! * **Same die** (Section IV, Fig. 5): golden and infected bitstreams are
//!   loaded into *the same* FPGA, so process variation cancels and the
//!   averaged traces can be compared directly sample by sample.
//! * **Across dies** (Section V, Fig. 6–7): genuine and suspect devices
//!   are distinct chips. The reference is the golden population mean
//!   `E_n(G)`; the decision statistic is the **sum of the local maxima**
//!   of `D = |trace − E_n(G)|`, and inter-die process variation sets the
//!   false-positive/false-negative trade-off of Eq. (5).

use htd_em::Trace;
use htd_stats::peaks::sum_of_local_maxima;
use htd_stats::Gaussian;
use htd_trojan::TrojanSpec;

use crate::campaign::CampaignPlan;
use crate::channel::{Channel, TraceChannel};
use crate::error::Error;
use crate::fusion::{characterize, fit_population, score, Campaign, GoldenCharacterization};
use crate::{Engine, Lab};

/// Which measurement chain an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideChannel {
    /// The near-field EM probe (the paper's method).
    Em,
    /// The global power measurement (baseline for the resolution claim).
    Power,
}

/// Scalarisation of a deviation trace `D = |trace − reference|` into a
/// decision statistic. The paper uses [`TraceMetric::SumOfLocalMaxima`];
/// the alternatives exist for the `ablation_metric` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMetric {
    /// The paper's metric: sum of the local maxima of `D` (Section V-B).
    #[default]
    SumOfLocalMaxima,
    /// The single largest deviation sample.
    MaxPoint,
    /// The L1 norm (sum of all deviation samples).
    SumAll,
    /// The L2 norm of the deviation trace.
    L2Norm,
}

impl TraceMetric {
    /// Evaluates the metric on a deviation trace's samples.
    pub fn evaluate(self, deviation: &[f64]) -> f64 {
        match self {
            TraceMetric::SumOfLocalMaxima => sum_of_local_maxima(deviation),
            TraceMetric::MaxPoint => deviation.iter().cloned().fold(0.0, f64::max),
            TraceMetric::SumAll => deviation.iter().sum(),
            TraceMetric::L2Norm => deviation.iter().map(|d| d * d).sum::<f64>().sqrt(),
        }
    }

    /// The metric's stable serialization token (used by the artifact
    /// store and the `htd` CLI), the inverse of
    /// [`TraceMetric::from_token`].
    pub fn token(self) -> &'static str {
        match self {
            TraceMetric::SumOfLocalMaxima => "solm",
            TraceMetric::MaxPoint => "max",
            TraceMetric::SumAll => "sum",
            TraceMetric::L2Norm => "l2",
        }
    }

    /// Parses a [`TraceMetric::token`]. Returns `None` for unknown
    /// tokens.
    pub fn from_token(token: &str) -> Option<Self> {
        match token {
            "solm" => Some(TraceMetric::SumOfLocalMaxima),
            "max" => Some(TraceMetric::MaxPoint),
            "sum" => Some(TraceMetric::SumAll),
            "l2" => Some(TraceMetric::L2Norm),
            _ => None,
        }
    }
}

/// Result of the same-die direct comparison (Fig. 5).
#[derive(Debug, Clone)]
pub struct DirectComparison {
    /// Largest |genuine − suspect| sample difference.
    pub max_abs_diff: f64,
    /// Largest |genuine₁ − genuine₂| difference (measurement/setup noise
    /// floor, from two independent golden acquisitions).
    pub noise_floor: f64,
    /// Sample index of the largest difference.
    pub argmax: usize,
    /// Verdict: the suspect deviates significantly above the noise floor.
    pub infected: bool,
}

/// Compares a suspect trace against two independent golden acquisitions of
/// the same die and plaintext (the paper's Fig. 5 procedure: the repeated
/// golden capture bounds the setup noise).
pub fn direct_compare(golden1: &Trace, golden2: &Trace, suspect: &Trace) -> DirectComparison {
    let noise_floor = golden1.abs_diff(golden2).peak();
    let d = golden1.abs_diff(suspect);
    let (argmax, max_abs_diff) =
        d.samples()
            .iter()
            .enumerate()
            .fold(
                (0usize, 0.0f64),
                |(ai, am), (i, &v)| {
                    if v > am {
                        (i, v)
                    } else {
                        (ai, am)
                    }
                },
            );
    DirectComparison {
        max_abs_diff,
        noise_floor,
        argmax,
        infected: max_abs_diff > 3.0 * noise_floor.max(1e-12),
    }
}

/// The golden population model for inter-die detection: the mean trace
/// `E_n(G)` and the golden metric distribution.
#[derive(Debug, Clone)]
pub struct EmGoldenModel {
    /// The golden mean trace `E_n(G)`.
    pub mean_trace: Trace,
    /// Sum-of-local-maxima metric of each golden die's deviation from the
    /// mean.
    pub golden_metrics: Vec<f64>,
    /// Gaussian fit of the golden metric population.
    pub gaussian: Gaussian,
}

/// Characterises the golden population over a batch of `n_dies` dies
/// (`lab.fabricate_batch(n_dies, _)`): one averaged acquisition per die with
/// a fixed (but arbitrary) plaintext, as in Section V-A. This is
/// [`characterize`] with the chain's sum-of-local-maxima trace channel
/// under the default [`Campaign`], so the model is bit-identical for
/// every worker count.
///
/// # Errors
///
/// [`Error::NotEnoughDies`] for fewer than two dies (the population
/// spread is undefined); [`Error::DegeneratePopulation`] if the golden
/// metrics have no spread; simulation failures otherwise.
pub fn characterize_em_golden(
    lab: &Lab,
    n_dies: usize,
    chain: SideChannel,
    pt: &[u8; 16],
    key: &[u8; 16],
    seed: u64,
) -> Result<EmGoldenModel, Error> {
    let plan = CampaignPlan::traces(n_dies, *pt, *key, seed);
    let channel = TraceChannel::new(chain, TraceMetric::SumOfLocalMaxima);
    let mut charac: GoldenCharacterization =
        characterize(&Campaign::default(), lab, &plan, &[&channel])?;
    // Under the strict default policy the one channel survives or
    // `characterize` fails.
    let state = charac.states.swap_remove(0);
    Ok(EmGoldenModel {
        mean_trace: state.reference.mean_trace(channel.name())?.clone(),
        gaussian: fit_population(channel.name(), &state.scores)?,
        golden_metrics: state.scores,
    })
}

/// The inter-die EM detector: golden model plus decision threshold on the
/// sum-of-local-maxima metric.
#[derive(Debug, Clone)]
pub struct EmDetector {
    model: EmGoldenModel,
    threshold: f64,
}

impl EmDetector {
    /// Calibrates the threshold for a target false-positive rate on the
    /// golden population (only golden devices are needed — the realistic
    /// deployment).
    ///
    /// # Errors
    ///
    /// [`Error::ProbabilityOutOfRange`] if `false_positive_rate` is
    /// outside `(0, 1)`.
    pub fn with_false_positive_rate(
        model: EmGoldenModel,
        false_positive_rate: f64,
    ) -> Result<Self, Error> {
        if !(false_positive_rate > 0.0 && false_positive_rate < 1.0) {
            return Err(Error::ProbabilityOutOfRange {
                value: false_positive_rate,
            });
        }
        let threshold = model.gaussian.quantile(1.0 - false_positive_rate)?;
        Ok(EmDetector { model, threshold })
    }

    /// The golden model.
    pub fn model(&self) -> &EmGoldenModel {
        &self.model
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The paper's metric for one suspect trace: the sum of local maxima
    /// of its deviation from the golden mean.
    pub fn metric(&self, trace: &Trace) -> f64 {
        sum_of_local_maxima(trace.abs_diff(&self.model.mean_trace).samples())
    }

    /// Classifies one suspect trace.
    pub fn is_infected(&self, trace: &Trace) -> bool {
        self.metric(trace) > self.threshold
    }
}

/// One row of the paper's headline table: a trojan size vs its
/// false-negative rate.
#[derive(Debug, Clone)]
pub struct FnRateRow {
    /// Trojan name.
    pub name: String,
    /// Trojan area as a fraction of the AES design (the paper's
    /// 0.5/1.0/1.7 %).
    pub size_fraction: f64,
    /// Metric offset µ = mean(infected) − mean(golden).
    pub mu: f64,
    /// Pooled metric standard deviation σ.
    pub sigma: f64,
    /// Eq. (5): analytic equal error rate from the fitted Gaussians.
    pub analytic_fn_rate: f64,
    /// Empirical false-negative rate at the midpoint threshold.
    pub empirical_fn_rate: f64,
    /// Empirical false-positive rate at the midpoint threshold.
    pub empirical_fp_rate: f64,
}

impl FnRateRow {
    /// Detection probability `1 − P_fn` (analytic).
    pub fn detection_probability(&self) -> f64 {
        1.0 - self.analytic_fn_rate
    }
}

/// The full Section V experiment result.
#[derive(Debug, Clone)]
pub struct FnRateReport {
    /// One row per trojan size, in the order supplied.
    pub rows: Vec<FnRateRow>,
    /// Number of dies in the population.
    pub n_dies: usize,
}

/// Runs the Section V experiment: a batch of `n_dies` dies, the golden
/// design and each infected design measured once per die, the
/// sum-of-local-maxima metric computed against `E_n(G)`, and Gaussian
/// FN/FP rates per Eq. (5).
///
/// The paper uses `n_dies = 8`; its "perspectives" section proposes
/// n ≫ 8, which this function supports directly (see the
/// `extension_many_dies` bench).
#[allow(clippy::too_many_arguments)]
pub fn fn_rate_experiment(
    lab: &Lab,
    specs: &[TrojanSpec],
    chain: SideChannel,
    n_dies: usize,
    pt: &[u8; 16],
    key: &[u8; 16],
    seed: u64,
) -> Result<FnRateReport, Error> {
    fn_rate_experiment_with_metric(
        &Engine::default(),
        lab,
        specs,
        chain,
        TraceMetric::SumOfLocalMaxima,
        n_dies,
        pt,
        key,
        seed,
    )
}

/// [`fn_rate_experiment`] with an explicit [`TraceMetric`] (used by the
/// metric ablation) and [`Engine`]. A thin wrapper over the generic
/// multi-channel runner with a single trace channel: each die keeps its
/// plan-derived seed, so the report is bit-identical for every worker
/// count.
///
/// # Errors
///
/// Propagates design construction, simulation and fitting failures.
#[allow(clippy::too_many_arguments)]
pub fn fn_rate_experiment_with_metric(
    engine: &Engine,
    lab: &Lab,
    specs: &[TrojanSpec],
    chain: SideChannel,
    metric: TraceMetric,
    n_dies: usize,
    pt: &[u8; 16],
    key: &[u8; 16],
    seed: u64,
) -> Result<FnRateReport, Error> {
    let plan = CampaignPlan::traces(n_dies, *pt, *key, seed);
    let channel = TraceChannel::new(chain, metric);
    let channels: [&dyn Channel; 1] = [&channel];
    let campaign = Campaign::with_engine(engine.clone());
    let charac: GoldenCharacterization = characterize(&campaign, lab, &plan, &channels)?;
    let report = score(&campaign, lab, &charac, specs, &channels, None)?.report;
    let mut rows = Vec::with_capacity(report.rows.len());
    for row in report.rows {
        let result = row
            .channels
            .into_iter()
            .next()
            .ok_or(Error::EmptyPopulation {
                what: "per-channel results",
            })?;
        rows.push(FnRateRow {
            name: row.name,
            size_fraction: row.size_fraction,
            mu: result.mu,
            sigma: result.sigma,
            analytic_fn_rate: result.analytic_fn_rate,
            empirical_fn_rate: result.empirical_fn_rate,
            empirical_fp_rate: result.empirical_fp_rate,
        });
    }
    Ok(FnRateReport { rows, n_dies })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_compare_flags_clear_deviations() {
        let g1 = Trace::new(vec![0.0, 10.0, 0.0, 5.0], 200.0);
        let g2 = Trace::new(vec![0.1, 10.1, -0.1, 5.0], 200.0);
        let bad = Trace::new(vec![0.0, 10.0, 4.0, 5.0], 200.0);
        let cmp = direct_compare(&g1, &g2, &bad);
        assert!(cmp.infected);
        assert_eq!(cmp.argmax, 2);
        assert!((cmp.max_abs_diff - 4.0).abs() < 1e-12);
        let ok = direct_compare(&g1, &g2, &g2);
        assert!(!ok.infected);
    }

    #[test]
    fn trace_metrics_reduce_hand_built_deviations() {
        // D = [1, 3, 2, 5, 0]: interior local maxima at 3 and 5.
        let d = [1.0, 3.0, 2.0, 5.0, 0.0];
        assert_eq!(TraceMetric::SumOfLocalMaxima.evaluate(&d), 8.0);
        assert_eq!(TraceMetric::MaxPoint.evaluate(&d), 5.0);
        assert_eq!(TraceMetric::SumAll.evaluate(&d), 11.0);
        let l2 = TraceMetric::L2Norm.evaluate(&d);
        assert!((l2 - 39.0f64.sqrt()).abs() < 1e-12, "{l2}");
    }

    #[test]
    fn trace_metrics_degenerate_inputs() {
        // A monotone ramp has no interior local maximum.
        let ramp = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(TraceMetric::SumOfLocalMaxima.evaluate(&ramp), 0.0);
        assert_eq!(TraceMetric::MaxPoint.evaluate(&ramp), 4.0);
        // All-zero deviation reduces to zero under every metric.
        let zero = [0.0; 4];
        for metric in [
            TraceMetric::SumOfLocalMaxima,
            TraceMetric::MaxPoint,
            TraceMetric::SumAll,
            TraceMetric::L2Norm,
        ] {
            assert_eq!(metric.evaluate(&zero), 0.0, "{metric:?}");
        }
    }
}
