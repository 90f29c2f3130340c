//! Property-based tests for Welch's t-test.

use htd_oracle::welch::welch_t_test;
use proptest::prelude::*;

/// A sample-set strategy with guaranteed spread (Welch needs variance):
/// two fixed, distinct anchors are appended to every generated set, so
/// no filtering is needed and every set has ≥ 6 samples.
fn spread_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, 4..20).prop_map(|mut xs| {
        xs.push(-1.0);
        xs.push(1.0);
        xs
    })
}

proptest! {
    /// A set tested against itself carries no evidence: t = 0, p = 1.
    #[test]
    fn welch_of_a_set_against_itself_is_null(a in spread_samples()) {
        let w = welch_t_test(&a, &a).unwrap();
        prop_assert!(w.t.abs() < 1e-12, "t = {}", w.t);
        prop_assert!((w.p_value - 1.0).abs() < 1e-12, "p = {}", w.p_value);
    }

    /// Swapping the sets flips the sign of t and nothing else.
    #[test]
    fn welch_is_antisymmetric(a in spread_samples(), b in spread_samples()) {
        let ab = welch_t_test(&a, &b).unwrap();
        let ba = welch_t_test(&b, &a).unwrap();
        prop_assert!((ab.t + ba.t).abs() < 1e-10);
        prop_assert!((ab.df - ba.df).abs() < 1e-9);
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-10);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
    }

    /// t is invariant under a common affine transform of both sets.
    #[test]
    fn welch_is_affine_invariant(
        a in spread_samples(),
        b in spread_samples(),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let w0 = welch_t_test(&a, &b).unwrap();
        let fa: Vec<f64> = a.iter().map(|x| x * scale + shift).collect();
        let fb: Vec<f64> = b.iter().map(|x| x * scale + shift).collect();
        let w1 = welch_t_test(&fa, &fb).unwrap();
        prop_assert!((w0.t - w1.t).abs() < 1e-6 * (1.0 + w0.t.abs()), "{} vs {}", w0.t, w1.t);
        prop_assert!((w0.df - w1.df).abs() < 1e-6 * (1.0 + w0.df));
    }
}

// ---------------------------------------------------------------------------
// Hand-computed reference vectors (exact closed forms, not regression pins).

/// a = [1,2,3,4], b = [2,4,6,8]: var(a) = 5/3, var(b) = 20/3, so
/// t = (2.5 − 5)/√(25/12) = −√3 and the Welch–Satterthwaite df is
/// (25/12)² / ((5/12)²/3 + (20/12)²/3) = 75/17.
#[test]
fn welch_matches_the_hand_computed_vector() {
    let w = welch_t_test(&[1.0, 2.0, 3.0, 4.0], &[2.0, 4.0, 6.0, 8.0]).unwrap();
    assert!((w.t + 3.0f64.sqrt()).abs() < 1e-12, "t = {}", w.t);
    assert!((w.df - 75.0 / 17.0).abs() < 1e-12, "df = {}", w.df);
    assert!(w.p_value > 0.0 && w.p_value < 1.0);
}

/// Clearly separated populations must reject the null hypothesis.
#[test]
fn welch_rejects_separated_populations() {
    let a: Vec<f64> = (0..12).map(|i| (i as f64 * 0.9).sin()).collect();
    let b: Vec<f64> = a.iter().map(|x| x + 10.0).collect();
    let w = welch_t_test(&a, &b).unwrap();
    assert!(w.p_value < 1e-6, "p = {}", w.p_value);
    assert!(w.t < 0.0, "second mean is larger, t must be negative");
}
