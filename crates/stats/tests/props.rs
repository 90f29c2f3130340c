//! Property-based tests for the statistics crate.

use htd_stats::detection::{empirical_rates, equal_error_rate, separation_for_rate};
use htd_stats::ks::{ks_test, ks_test_normal};
use htd_stats::peaks::{local_maxima, sum_of_local_maxima};
use htd_stats::{erf, erf_inv, erfc, Gaussian};
use proptest::prelude::*;

/// A sample-set strategy with guaranteed spread (the fitted normal needs
/// variance): two fixed, distinct anchors are appended to every generated
/// set, so no filtering is needed and every set has ≥ 6 samples.
fn spread_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, 4..20).prop_map(|mut xs| {
        xs.push(-1.0);
        xs.push(1.0);
        xs
    })
}

proptest! {
    /// erf is odd, bounded and monotone.
    #[test]
    fn erf_is_odd_bounded_monotone(x in -6.0f64..6.0, y in -6.0f64..6.0) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-14);
        prop_assert!(erf(x).abs() <= 1.0);
        if x < y {
            prop_assert!(erf(x) <= erf(y));
        }
    }

    /// erfc complements erf everywhere.
    #[test]
    fn erfc_complements(x in -6.0f64..6.0) {
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13);
    }

    /// erf_inv inverts erf over the full open interval.
    #[test]
    fn erf_inv_inverts(p in -0.999999f64..0.999999) {
        let x = erf_inv(p);
        prop_assert!((erf(x) - p).abs() < 1e-11, "p = {p}, x = {x}");
    }

    /// Gaussian cdf is monotone and quantile inverts it.
    #[test]
    fn gaussian_cdf_quantile(mean in -100.0f64..100.0, std in 0.01f64..100.0, p in 0.001f64..0.999) {
        let g = Gaussian::new(mean, std).unwrap();
        let x = g.quantile(p).unwrap();
        prop_assert!((g.cdf(x) - p).abs() < 1e-10);
        prop_assert!((g.cdf(x) + g.sf(x) - 1.0).abs() < 1e-12);
    }

    /// Eq. 5: larger separation can only lower the equal error rate, and
    /// the rate stays in (0, 0.5].
    #[test]
    fn eq5_monotone(mu in 0.0f64..20.0, extra in 0.001f64..5.0, sigma in 0.01f64..10.0) {
        let base = equal_error_rate(mu, sigma);
        let better = equal_error_rate(mu + extra, sigma);
        prop_assert!(better <= base);
        prop_assert!((0.0..=0.5).contains(&base));
    }

    /// separation_for_rate inverts equal_error_rate.
    #[test]
    fn separation_roundtrip(rate in 0.0001f64..0.4999) {
        let mu = separation_for_rate(rate).unwrap();
        prop_assert!((equal_error_rate(mu, 1.0) - rate).abs() < 1e-9);
    }

    /// Every reported local maximum is strictly above both neighbours, and
    /// the metric equals the sum of reported peak values.
    #[test]
    fn peaks_are_really_peaks(xs in proptest::collection::vec(-100.0f64..100.0, 0..60)) {
        let peaks = local_maxima(&xs);
        let mut sum = 0.0;
        for p in &peaks {
            prop_assert!(p.index > 0 && p.index + 1 < xs.len());
            prop_assert!(xs[p.index] > xs[p.index - 1]);
            // Plateau-aware: the next *different* value must be lower.
            let mut j = p.index + 1;
            while j < xs.len() && xs[j] == xs[p.index] {
                j += 1;
            }
            prop_assert!(j < xs.len() && xs[j] < xs[p.index]);
            sum += p.value;
        }
        prop_assert!((sum_of_local_maxima(&xs) - sum).abs() < 1e-9);
    }

    /// Adding a uniform offset to every sample never changes the peak set.
    #[test]
    fn peaks_are_shift_invariant(xs in proptest::collection::vec(-10.0f64..10.0, 3..40), c in -5.0f64..5.0) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + c).collect();
        let a: Vec<usize> = local_maxima(&xs).iter().map(|p| p.index).collect();
        let b: Vec<usize> = local_maxima(&shifted).iter().map(|p| p.index).collect();
        prop_assert_eq!(a, b);
    }

    /// Empirical rates are proper frequencies and move monotonically with
    /// the threshold.
    #[test]
    fn empirical_rates_monotone(
        genuine in proptest::collection::vec(-10.0f64..10.0, 1..40),
        infected in proptest::collection::vec(-10.0f64..10.0, 1..40),
        t1 in -12.0f64..12.0,
        dt in 0.0f64..5.0,
    ) {
        let (fp1, fn1) = empirical_rates(&genuine, &infected, t1);
        let (fp2, fn2) = empirical_rates(&genuine, &infected, t1 + dt);
        prop_assert!((0.0..=1.0).contains(&fp1) && (0.0..=1.0).contains(&fn1));
        prop_assert!(fp2 <= fp1); // higher threshold, fewer false alarms
        prop_assert!(fn2 >= fn1); // ... and more misses
    }

    /// Gaussian fit round-trips affine transforms of the sample set.
    #[test]
    fn gaussian_fit_affine(scale in 0.1f64..10.0, shift in -50.0f64..50.0) {
        let base: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let mapped: Vec<f64> = base.iter().map(|x| x * scale + shift).collect();
        let g0 = Gaussian::fit(&base).unwrap();
        let g1 = Gaussian::fit(&mapped).unwrap();
        prop_assert!((g1.mean() - (g0.mean() * scale + shift)).abs() < 1e-9);
        prop_assert!((g1.std() - g0.std() * scale).abs() < 1e-9);
    }

    /// The KS statistic is a sup of probability differences: in [0, 1],
    /// with a valid p-value.
    #[test]
    fn ks_statistic_and_p_are_probabilities(xs in proptest::collection::vec(-10.0f64..10.0, 5..40)) {
        let k = ks_test(&xs, |x| Gaussian::standard().cdf(x)).unwrap();
        prop_assert!((0.0..=1.0).contains(&k.statistic), "D = {}", k.statistic);
        prop_assert!((0.0..=1.0).contains(&k.p_value), "p = {}", k.p_value);
    }

    /// The fitted-normal KS check is invariant under affine maps of the
    /// samples (the fit absorbs them).
    #[test]
    fn ks_normal_is_affine_invariant(
        xs in spread_samples(),
        scale in 0.1f64..10.0,
        shift in -50.0f64..50.0,
    ) {
        let k0 = ks_test_normal(&xs).unwrap();
        let mapped: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
        let k1 = ks_test_normal(&mapped).unwrap();
        prop_assert!((k0.statistic - k1.statistic).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Hand-computed reference vectors (exact closed forms, not regression pins).

/// Equally spaced mid-quantiles of U(0,1) sit D = 1/(2n) … here exactly
/// 0.1 away from the uniform CDF at every step.
#[test]
fn ks_matches_the_hand_computed_vector() {
    let k = ks_test(&[0.1, 0.3, 0.5, 0.7, 0.9], |x| x.clamp(0.0, 1.0)).unwrap();
    assert!((k.statistic - 0.1).abs() < 1e-15, "D = {}", k.statistic);
    assert_eq!(k.n, 5);
}

/// Gaussian::fit([1..5]) has mean 3 and sample std √2.5 exactly.
#[test]
fn gaussian_fit_matches_the_hand_computed_vector() {
    let g = Gaussian::fit(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
    assert!((g.mean() - 3.0).abs() < 1e-15);
    assert!((g.std() - 2.5f64.sqrt()).abs() < 1e-15);
}
