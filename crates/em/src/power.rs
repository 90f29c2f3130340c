//! Global power-measurement baseline.
//!
//! The paper motivates EM because it "provides a better spatial and
//! temporal resolution than power measurements". This chain is the
//! comparison point: a shunt/supply measurement that (a) integrates the
//! whole die with **no spatial selectivity** and (b) sees the activity
//! through the PDN's decoupling network — a slow RC low-pass instead of
//! the probe's fast resonant response.

use rand::RngCore;

use crate::chain::{acquire_events, AcquisitionParams, Scope};
use crate::{CurrentEvent, Trace};

/// A global power-consumption measurement chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSetup {
    /// The digitiser (shared with the EM path).
    pub scope: Scope,
    /// Linear gain of the shunt amplifier.
    pub gain: f64,
    /// RC time constant of the supply/decoupling network, ps.
    pub rc_ps: f64,
    /// Relative gain error per installation.
    pub setup_gain_jitter: f64,
}

impl PowerSetup {
    /// A typical shunt-resistor bench on the same scope.
    pub fn bench() -> Self {
        PowerSetup {
            scope: Scope::agilent_54853a(),
            gain: 31.6,
            rc_ps: 12_000.0,
            setup_gain_jitter: 0.004,
        }
    }

    /// The RC low-pass impulse response sampled at the scope rate.
    pub fn impulse_response(&self, dt_ps: f64) -> Vec<f64> {
        let n = (self.rc_ps * 6.0 / dt_ps).ceil() as usize;
        (0..n)
            .map(|i| (-(i as f64) * dt_ps / self.rc_ps).exp())
            .collect()
    }

    /// Acquires one (averaged) power trace: every on-die event couples
    /// equally, filtered by the supply RC.
    pub fn acquire<R: RngCore + ?Sized>(
        &self,
        events: &[CurrentEvent],
        params: &AcquisitionParams,
        rng: &mut R,
    ) -> Trace {
        let kernel = self.impulse_response(self.scope.sample_period_ps);
        acquire_events(
            events,
            params,
            &self.scope,
            self.gain,
            self.setup_gain_jitter,
            &kernel,
            |_| 1.0,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spike(t: f64) -> CurrentEvent {
        CurrentEvent {
            time_ps: t,
            charge: 100.0,
            position: (0.0, 0.0),
        }
    }

    fn quiet_params() -> AcquisitionParams {
        AcquisitionParams {
            clock_period_ps: 50_000.0,
            n_cycles: 2,
            averages: 1_000_000,
        }
    }

    #[test]
    fn power_is_position_blind() {
        let setup = PowerSetup::bench();
        let here = CurrentEvent {
            position: (0.0, 0.0),
            ..spike(1_000.0)
        };
        let there = CurrentEvent {
            position: (100.0, 100.0),
            ..spike(1_000.0)
        };
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let t1 = setup.acquire(&[here], &quiet_params(), &mut r1);
        let t2 = setup.acquire(&[there], &quiet_params(), &mut r2);
        assert_eq!(t1.samples(), t2.samples());
    }

    #[test]
    fn power_smears_two_close_spikes_that_em_resolves() {
        let power = PowerSetup::bench();
        let em = crate::EmSetup::bench((0.0, 0.0));
        let events = vec![spike(1_000.0), spike(6_000.0)];
        let mut rng = StdRng::seed_from_u64(2);
        let tp = power.acquire(&events, &quiet_params(), &mut rng);
        let mut rng = StdRng::seed_from_u64(2);
        let te = em.acquire(&events, &quiet_params(), &mut rng);
        // Count zero crossings / dips between the spikes: the EM trace
        // separates them (returns near zero in between) while the RC tail
        // of the power trace never comes back down.
        let between = 1_000.0 / 200.0;
        let (a, b) = (between as usize + 2, (6_000.0 / 200.0) as usize);
        let p_min: f64 = tp.samples()[a..b]
            .iter()
            .fold(f64::INFINITY, |m, &s| m.min(s.abs()));
        let p_peak = tp.peak();
        // Power trace stays above 40 % of its peak between the spikes.
        assert!(p_min > 0.4 * p_peak, "p_min {p_min} p_peak {p_peak}");
        // EM trace rings down substantially within the same window.
        let e_min: f64 = te.samples()[a..b]
            .iter()
            .fold(f64::INFINITY, |m, &s| m.min(s.abs()));
        assert!(
            e_min < 0.2 * te.peak(),
            "e_min {e_min} e_peak {}",
            te.peak()
        );
    }

    #[test]
    fn impulse_response_is_monotone_decay() {
        let p = PowerSetup::bench();
        let h = p.impulse_response(200.0);
        assert!(h[0] == 1.0);
        for w in h.windows(2) {
            assert!(w[1] < w[0]);
        }
    }
}
