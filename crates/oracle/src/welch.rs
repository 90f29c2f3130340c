//! Welch's unequal-variance t-test.
//!
//! The standard side-channel leakage-assessment baseline (TVLA style):
//! [`crate::ttest_compare`] uses it to confirm, independently of the
//! paper's sum-of-local-maxima metric, that genuine and infected trace
//! populations differ significantly at points of interest.

use htd_stats::descriptive::{mean, variance};
use htd_stats::StatsError;

/// Result of a Welch t-test between two sample sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchTest {
    /// The t statistic (positive when the second set's mean is smaller).
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Runs Welch's t-test on two independent sample sets.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughSamples`] if either set has fewer than two
/// samples, and [`StatsError::NonPositiveScale`] if both sets have zero
/// variance (the statistic is undefined).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<WelchTest, StatsError> {
    if a.len() < 2 {
        return Err(StatsError::NotEnoughSamples {
            got: a.len(),
            need: 2,
        });
    }
    if b.len() < 2 {
        return Err(StatsError::NotEnoughSamples {
            got: b.len(),
            need: 2,
        });
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return Err(StatsError::NonPositiveScale { value: se2 });
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let p_value = 2.0 * student_t_sf(t.abs(), df);
    Ok(WelchTest { t, df, p_value })
}

/// Upper-tail probability `P(T > t)` of Student's t with `df` degrees of
/// freedom, via the regularized incomplete beta function.
pub fn student_t_sf(t: f64, df: f64) -> f64 {
    if t.is_nan() || df <= 0.0 {
        return f64::NAN;
    }
    if t == f64::INFINITY {
        return 0.0;
    }
    let x = df / (df + t * t);
    0.5 * incomplete_beta_reg(0.5 * df, 0.5, x)
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction of Numerical Recipes (`betacf`), accurate to ~1e-14.
pub fn incomplete_beta_reg(a: f64, b: f64, x: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    const EPS: f64 = 1e-15;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300u32 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9),
/// accurate to ~1e-13 for positive arguments.
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-11);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn incomplete_beta_edges_and_symmetry() {
        assert_eq!(incomplete_beta_reg(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta_reg(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        let v = incomplete_beta_reg(2.5, 1.5, 0.3);
        let w = incomplete_beta_reg(1.5, 2.5, 0.7);
        assert!((v + w - 1.0).abs() < 1e-12);
        // I_x(1,1) = x.
        assert!((incomplete_beta_reg(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn student_t_sf_matches_tables() {
        // df = 10, t = 1.812: one-sided 5%.
        assert!((student_t_sf(1.812, 10.0) - 0.05).abs() < 2e-4);
        // df = 1 (Cauchy): P(T > 1) = 0.25.
        assert!((student_t_sf(1.0, 1.0) - 0.25).abs() < 1e-10);
        // Large df approaches the normal tail.
        assert!((student_t_sf(1.96, 1e6) - 0.025).abs() < 1e-4);
        assert_eq!(student_t_sf(f64::INFINITY, 5.0), 0.0);
    }

    #[test]
    fn welch_detects_separated_means() {
        let a: Vec<f64> = (0..50).map(|i| (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 2.0).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.t < -10.0);
        assert!(r.p_value < 1e-10);
    }

    #[test]
    fn welch_accepts_identical_distributions() {
        let a: Vec<f64> = (0..40).map(|i| ((i * 37) % 11) as f64).collect();
        let r = welch_t_test(&a, &a).unwrap();
        assert!(r.t.abs() < 1e-12);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn welch_rejects_tiny_or_degenerate_sets() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_err());
        assert!(welch_t_test(&[1.0, 2.0], &[1.0]).is_err());
        assert!(welch_t_test(&[3.0, 3.0], &[3.0, 3.0]).is_err());
    }
}
