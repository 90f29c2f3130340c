//! The scalar digitiser reference the staged htd-em acquisition kernels
//! are pinned to.

use rand::RngCore;

use htd_em::{AcquisitionParams, BinStats, CurrentEvent, Scope, Trace};
use htd_fabric::variation::standard_normal;

/// The original scalar digitiser back-end: per-event sparse bin +
/// convolve, then the noise/quantise pass. The staged path
/// ([`htd_em::ImpulseTrain`] → [`htd_em::convolve_kernel`] →
/// [`htd_em::read_out`]) must stay bit-for-bit identical to this function — `tests` and the htd-em
/// property suite pin that equality.
#[allow(clippy::too_many_arguments)]
pub fn acquire_with_reference<R: RngCore + ?Sized>(
    events: &[CurrentEvent],
    params: &AcquisitionParams,
    scope: &Scope,
    gain: f64,
    setup_gain_jitter: f64,
    kernel: &[f64],
    weight: impl Fn(&CurrentEvent) -> f64,
    rng: &mut R,
) -> (Trace, BinStats) {
    let dt = scope.sample_period_ps;
    let n = params.n_samples(dt);
    // Bin the charge impulses, skipping (and counting) anything outside
    // the window — a negative or NaN time must not smear into bin 0.
    let mut stats = BinStats::default();
    let mut impulses = vec![0.0f64; n];
    for e in events {
        let bin = (e.time_ps / dt).floor();
        if bin >= 0.0 && (bin as usize) < n {
            impulses[bin as usize] += e.charge * weight(e);
            stats.binned += 1;
        } else {
            stats.dropped += 1;
        }
    }
    // Convolve with the front-end impulse response.
    let mut signal = vec![0.0f64; n];
    for (i, &imp) in impulses.iter().enumerate() {
        if imp == 0.0 {
            continue;
        }
        for (k, &h) in kernel.iter().enumerate() {
            if let Some(s) = signal.get_mut(i + k) {
                *s += imp * h;
            }
        }
    }
    // Amplify with a per-acquisition installation gain error.
    let install_gain = gain * (1.0 + setup_gain_jitter * standard_normal(rng));
    let noise_std = scope.noise_std / (params.averages.max(1) as f64).sqrt();
    let q = scope.quantization_step;
    let samples = signal
        .into_iter()
        .map(|s| {
            let v = s * install_gain + noise_std * standard_normal(rng);
            (v / q).round() * q
        })
        .collect();
    (Trace::new(samples, dt), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_em::{EmSetup, ImpulseTrain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn burst(t0: f64, n: usize, charge: f64) -> Vec<CurrentEvent> {
        (0..n)
            .map(|i| CurrentEvent {
                time_ps: t0 + i as f64 * 37.0,
                charge,
                position: (10.0, 10.0),
            })
            .collect()
    }

    fn params() -> AcquisitionParams {
        AcquisitionParams {
            clock_period_ps: 10_000.0,
            n_cycles: 4,
            averages: 1_000,
        }
    }

    #[test]
    fn out_of_window_events_are_dropped_not_smeared() {
        // Regression: a negative or NaN time used to saturate
        // `(t / dt).floor() as usize` to bin 0, smearing charge into the
        // first sample. Such events must now be skipped and counted.
        let setup = EmSetup::bench((10.0, 10.0));
        let p = params();
        let valid = burst(500.0, 5, 10.0);
        let mut polluted = valid.clone();
        for t in [-1.0, -40_000.0, f64::NAN, 1.0e9] {
            polluted.push(CurrentEvent {
                time_ps: t,
                charge: 1_000.0,
                position: (10.0, 10.0),
            });
        }
        let kernel = setup.probe.impulse_response(setup.scope.sample_period_ps);
        let weight = |e: &CurrentEvent| setup.probe.coupling(e.position);
        let mut rng = StdRng::seed_from_u64(11);
        let (clean_trace, clean_stats) = acquire_with_reference(
            &valid,
            &p,
            &setup.scope,
            setup.gain,
            setup.setup_gain_jitter,
            &kernel,
            weight,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let (polluted_trace, polluted_stats) = acquire_with_reference(
            &polluted,
            &p,
            &setup.scope,
            setup.gain,
            setup.setup_gain_jitter,
            &kernel,
            weight,
            &mut rng,
        );
        assert_eq!(
            clean_stats,
            BinStats {
                binned: 5,
                dropped: 0
            }
        );
        assert_eq!(
            polluted_stats,
            BinStats {
                binned: 5,
                dropped: 4
            }
        );
        assert_eq!(clean_trace, polluted_trace, "dropped events leaked charge");

        // The staged path agrees on both counts.
        let dt = setup.scope.sample_period_ps;
        let mut train = ImpulseTrain::new(dt, p.n_samples(dt));
        for e in &polluted {
            train.add(e.time_ps, e.charge * weight(e));
        }
        assert_eq!(train.stats(), polluted_stats);
        let mut rng = StdRng::seed_from_u64(11);
        let staged_trace = setup.acquire(&polluted, &p, &mut rng);
        assert_eq!(staged_trace, clean_trace);
    }
}
