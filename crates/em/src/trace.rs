//! Side-channel trace container and arithmetic.

use std::ops::{Index, Sub};

/// A sampled side-channel trace (EM or power).
///
/// Samples are in scope units (quantised ADC counts scaled to `f64`); the
/// time base is `dt_ps` per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    samples: Vec<f64>,
    dt_ps: f64,
}

impl Trace {
    /// Wraps raw samples with their sample period.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ps` is not strictly positive.
    pub fn new(samples: Vec<f64>, dt_ps: f64) -> Self {
        assert!(dt_ps > 0.0, "sample period must be positive");
        Trace { samples, dt_ps }
    }

    /// Non-panicking constructor for strict deserializers: `None` unless
    /// the sample period is strictly positive and finite and every
    /// sample is finite.
    pub fn try_new(samples: Vec<f64>, dt_ps: f64) -> Option<Self> {
        if dt_ps <= 0.0 || !dt_ps.is_finite() || samples.iter().any(|s| !s.is_finite()) {
            return None;
        }
        Some(Trace { samples, dt_ps })
    }

    /// Sample values.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample period, ps.
    pub fn dt_ps(&self) -> f64 {
        self.dt_ps
    }

    /// Point-wise absolute difference `|self − other|` (the paper's
    /// `D = |trace − reference|` statistic).
    ///
    /// # Panics
    ///
    /// Panics if lengths or time bases differ.
    pub fn abs_diff(&self, other: &Trace) -> Trace {
        self.check_compatible(other);
        Trace {
            samples: self
                .samples
                .iter()
                .zip(&other.samples)
                .map(|(a, b)| (a - b).abs())
                .collect(),
            dt_ps: self.dt_ps,
        }
    }

    /// Point-wise mean of a non-empty set of equal-shape traces (the
    /// paper's `E₈(G)` golden reference).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or shapes differ.
    pub fn mean_of<'t>(traces: impl IntoIterator<Item = &'t Trace>) -> Trace {
        let mut traces = traces.into_iter().peekable();
        let first = *traces.peek().expect("mean of zero traces");
        let mut acc = vec![0.0f64; first.len()];
        let mut count = 0usize;
        for t in traces {
            first.check_compatible(t);
            for (a, s) in acc.iter_mut().zip(t.samples()) {
                *a += s;
            }
            count += 1;
        }
        let n = count as f64;
        acc.iter_mut().for_each(|a| *a /= n);
        Trace {
            samples: acc,
            dt_ps: first.dt_ps,
        }
    }

    /// Largest absolute sample value.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |m, &s| m.max(s.abs()))
    }

    /// Root-mean-square of the samples.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.samples.iter().map(|s| s * s).sum::<f64>() / self.samples.len() as f64).sqrt()
    }

    /// A sub-trace covering sample indices `[from, to)` (for zooming on a
    /// region of interest, as in the paper's Fig. 5 inset).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn window(&self, from: usize, to: usize) -> Trace {
        assert!(from <= to && to <= self.samples.len(), "bad window");
        Trace {
            samples: self.samples[from..to].to_vec(),
            dt_ps: self.dt_ps,
        }
    }

    /// Whether `other` has the same length and time base — the shape
    /// every point-wise operation ([`Trace::abs_diff`], subtraction,
    /// [`Trace::mean_of`]) requires.
    pub fn compatible(&self, other: &Trace) -> bool {
        // Exact-or-relative: an absolute tolerance would reject equal
        // periods that differ by float rounding at large magnitudes and
        // accept genuinely different ones near zero.
        let (a, b) = (self.dt_ps, other.dt_ps);
        self.len() == other.len() && (a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()))
    }

    fn check_compatible(&self, other: &Trace) {
        assert!(
            self.compatible(other),
            "{} mismatch ({} samples at {} ps vs {} samples at {} ps)",
            if self.len() != other.len() {
                "length"
            } else {
                "time-base"
            },
            self.len(),
            self.dt_ps,
            other.len(),
            other.dt_ps
        );
    }
}

impl Index<usize> for Trace {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.samples[i]
    }
}

impl Sub<&Trace> for &Trace {
    type Output = Trace;

    /// Point-wise (signed) difference.
    fn sub(self, rhs: &Trace) -> Trace {
        self.check_compatible(rhs);
        Trace {
            samples: self
                .samples
                .iter()
                .zip(&rhs.samples)
                .map(|(a, b)| a - b)
                .collect(),
            dt_ps: self.dt_ps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_diff_and_sub() {
        let a = Trace::new(vec![1.0, -2.0, 3.0], 200.0);
        let b = Trace::new(vec![0.5, 1.0, 3.0], 200.0);
        assert_eq!(a.abs_diff(&b).samples(), &[0.5, 3.0, 0.0]);
        assert_eq!((&a - &b).samples(), &[0.5, -3.0, 0.0]);
    }

    #[test]
    fn mean_of_traces() {
        let a = Trace::new(vec![1.0, 2.0], 200.0);
        let b = Trace::new(vec![3.0, 6.0], 200.0);
        let m = Trace::mean_of(&[a, b]);
        assert_eq!(m.samples(), &[2.0, 4.0]);
    }

    #[test]
    fn peak_rms_window() {
        let t = Trace::new(vec![1.0, -4.0, 2.0, 0.0], 200.0);
        assert_eq!(t.peak(), 4.0);
        assert!((t.rms() - (21.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert_eq!(t.window(1, 3).samples(), &[-4.0, 2.0]);
        assert_eq!(t[2], 2.0);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn incompatible_lengths_panic() {
        let a = Trace::new(vec![1.0], 200.0);
        let b = Trace::new(vec![1.0, 2.0], 200.0);
        let _ = a.abs_diff(&b);
    }

    #[test]
    fn compatible_checks_length_and_time_base_without_panicking() {
        let a = Trace::new(vec![1.0, 2.0], 200.0);
        assert!(a.compatible(&Trace::new(vec![3.0, 4.0], 200.0)));
        assert!(!a.compatible(&Trace::new(vec![1.0], 200.0)));
        assert!(!a.compatible(&Trace::new(vec![1.0, 2.0], 200.1)));
    }

    #[test]
    #[should_panic(expected = "sample period must be positive")]
    fn zero_dt_rejected() {
        Trace::new(vec![], 0.0);
    }

    #[test]
    fn large_dt_rounding_is_compatible() {
        // 10^9 ps periods that differ by a few ULPs (e.g. accumulated
        // through different float paths) are the same time base. The old
        // absolute 1e-9 tolerance rejected these.
        let dt = 1.0e9;
        let dt_rounded = dt * (1.0 + 4.0 * f64::EPSILON);
        assert!(dt != dt_rounded && (dt - dt_rounded).abs() > 1e-9);
        let a = Trace::new(vec![1.0, 2.0], dt);
        let b = Trace::new(vec![3.0, 4.0], dt_rounded);
        assert_eq!((&a - &b).samples(), &[-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "time-base mismatch")]
    fn tiny_but_different_dts_are_incompatible() {
        // 1 fs vs 2 fs is a 2× rate mismatch; the old absolute tolerance
        // silently accepted it.
        let a = Trace::new(vec![1.0], 1.0e-3);
        let b = Trace::new(vec![1.0], 2.0e-3);
        let _ = a.abs_diff(&b);
    }

    #[test]
    #[should_panic(expected = "time-base mismatch")]
    fn clearly_different_dts_are_incompatible() {
        let a = Trace::new(vec![1.0], 200.0);
        let b = Trace::new(vec![1.0], 200.1);
        let _ = a.abs_diff(&b);
    }
}
