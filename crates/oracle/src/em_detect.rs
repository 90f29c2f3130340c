//! The TVLA-style leakage assessment: an alternative same-die detector
//! the EXPERIMENTS "TVLA t-test" section reproduces through
//! `tests/end_to_end_em.rs`.

use htd_core::Error;
use htd_em::Trace;

use crate::welch::welch_t_test;

/// Result of a TVLA-style pointwise Welch t-test between two trace
/// populations (see [`ttest_compare`]).
#[derive(Debug, Clone)]
pub struct TtestComparison {
    /// |t| statistic per sample.
    pub t_abs: Vec<f64>,
    /// The largest |t| value.
    pub max_t: f64,
    /// Sample index of the largest |t|.
    pub argmax: usize,
    /// Number of samples whose |t| exceeds the TVLA threshold of 4.5.
    pub leaking_samples: usize,
    /// Verdict: any sample beyond the threshold.
    pub infected: bool,
}

/// The classical TVLA threshold on |t|.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Pointwise Welch t-test between two populations of *raw* (low-averaged)
/// traces — the standard side-channel leakage-assessment methodology,
/// an alternative same-die detector to the paper's direct comparison of
/// ×1000-averaged traces. Samples with degenerate statistics
/// (zero variance in both populations) are skipped.
///
/// # Errors
///
/// [`Error::EmptyPopulation`] if either population is empty;
/// [`Error::TraceLengthMismatch`] if any trace's length differs from the
/// first genuine trace's.
pub fn ttest_compare(genuine: &[Trace], suspect: &[Trace]) -> Result<TtestComparison, Error> {
    let first = genuine.first().ok_or(Error::EmptyPopulation {
        what: "genuine trace population",
    })?;
    if suspect.is_empty() {
        return Err(Error::EmptyPopulation {
            what: "suspect trace population",
        });
    }
    let n = first.len();
    for t in genuine.iter().chain(suspect) {
        if t.len() != n {
            return Err(Error::TraceLengthMismatch {
                expected: n,
                got: t.len(),
            });
        }
    }
    let mut t_abs = vec![0.0f64; n];
    let mut max_t = 0.0f64;
    let mut argmax = 0usize;
    let mut leaking = 0usize;
    let mut ga = Vec::with_capacity(genuine.len());
    let mut gb = Vec::with_capacity(suspect.len());
    for i in 0..n {
        ga.clear();
        gb.clear();
        ga.extend(genuine.iter().map(|t| t[i]));
        gb.extend(suspect.iter().map(|t| t[i]));
        if let Ok(test) = welch_t_test(&ga, &gb) {
            let t = test.t.abs();
            t_abs[i] = t;
            if t > max_t {
                max_t = t;
                argmax = i;
            }
            if t > TVLA_THRESHOLD {
                leaking += 1;
            }
        }
    }
    Ok(TtestComparison {
        t_abs,
        max_t,
        argmax,
        leaking_samples: leaking,
        infected: max_t > TVLA_THRESHOLD,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttest_compare_rejects_bad_populations() {
        let t = Trace::new(vec![1.0, 2.0], 200.0);
        let short = Trace::new(vec![1.0], 200.0);
        assert!(matches!(
            ttest_compare(&[], std::slice::from_ref(&t)),
            Err(Error::EmptyPopulation { .. })
        ));
        assert!(matches!(
            ttest_compare(std::slice::from_ref(&t), &[]),
            Err(Error::EmptyPopulation { .. })
        ));
        assert!(matches!(
            ttest_compare(&[t.clone(), t.clone()], &[short]),
            Err(Error::TraceLengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }
}
