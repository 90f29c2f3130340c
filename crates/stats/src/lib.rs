//! Statistics for side-channel hardware-trojan detection.
//!
//! This crate implements, from scratch, every statistical tool the DATE 2015
//! paper's methodology needs:
//!
//! * [`erf`]/[`erfc`]/[`erf_inv`] — the error function family behind the
//!   paper's Eq. (5) false-negative model, accurate to near machine
//!   precision (Taylor series + Lentz continued fraction).
//! * [`Gaussian`] — pdf/cdf/quantile and moment fitting for the
//!   process-variation noise model (paper ref. \[6\], Bowman et al.).
//! * [`descriptive`] — means, variances, percentiles for trace statistics.
//! * [`peaks`] — the local-maxima detector and the paper's
//!   *sum-of-local-maxima* decision metric (Section V-B).
//! * [`detection`] — two-Gaussian detection theory: Eq. (5) equal-error
//!   rates, optimal thresholds, ROC curves, empirical rate estimation.
//! * [`ks`] — one-sample Kolmogorov–Smirnov goodness of fit, used to check
//!   the Fig. 7 Gaussian-population assumption on measured metrics.
//! * [`logistic`] — a seeded, presentation-order-invariant
//!   logistic-regression trainer: the learning-assisted scorer that can
//!   replace the fixed erf threshold (LASCA, arXiv:2001.06476).
//!
//! # Example
//!
//! The paper's headline computation — the false-negative rate of an HT whose
//! side-channel offset is `µ` against inter-die process noise `σ`
//! (Eq. 5: `P_fn = 1/2 − ½·erf(µ / (2σ√2))`):
//!
//! ```
//! use htd_stats::detection::equal_error_rate;
//!
//! let p = equal_error_rate(3.2897, 1.0); // µ ≈ 3.29σ
//! assert!((p - 0.05).abs() < 0.001);     // ≈ 5% false negatives
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
pub mod detection;
mod erf;
mod gaussian;
pub mod ks;
pub mod logistic;
pub mod peaks;

pub use erf::{erf, erf_inv, erfc};
pub use gaussian::Gaussian;

/// Errors reported by statistical routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input sample set was empty (or too small for the estimator).
    NotEnoughSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// A scale parameter (standard deviation, bin width…) was not positive.
    NonPositiveScale {
        /// The offending value.
        value: f64,
    },
    /// A probability argument lay outside `(0, 1)`.
    ProbabilityOutOfRange {
        /// The offending value.
        value: f64,
    },
}

impl core::fmt::Display for StatsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StatsError::NotEnoughSamples { got, need } => {
                write!(f, "need at least {need} samples, got {got}")
            }
            StatsError::NonPositiveScale { value } => {
                write!(f, "scale parameter must be positive, got {value}")
            }
            StatsError::ProbabilityOutOfRange { value } => {
                write!(f, "probability must lie in (0, 1), got {value}")
            }
        }
    }
}

impl std::error::Error for StatsError {}
