//! The acquisition chain: amplifier, oscilloscope, averaging.
//!
//! The digitiser back-end is split into three stages — [`ImpulseTrain`]
//! (charge impulses binned onto the scope time base, one event at a
//! time), [`convolve_kernel`] (dense causal convolution with the
//! front-end response) and [`read_out`] (installation gain, averaged
//! noise, quantisation) — so callers can cache the noise-free
//! intermediate and pay only the read-out per repetition. The original
//! scalar per-event pipeline survives as the semantic reference
//! `acquire_with_reference` in the dev-only `htd-oracle` crate, which
//! pins the staged path against it bit for bit.

use rand::RngCore;

use htd_fabric::variation::standard_normal;

use crate::{CurrentEvent, Probe, Trace};

/// Oscilloscope front-end parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scope {
    /// Sample period, ps (5 GS/s → 200 ps).
    pub sample_period_ps: f64,
    /// Additive noise standard deviation of a *single* acquisition, in
    /// output units (after amplification).
    pub noise_std: f64,
    /// ADC quantisation step in output units.
    pub quantization_step: f64,
}

impl Scope {
    /// The paper's Agilent 54853A at 5 GS/s.
    pub fn agilent_54853a() -> Self {
        Scope {
            sample_period_ps: 200.0,
            noise_std: 2_000.0,
            quantization_step: 1.0,
        }
    }
}

/// Timing/averaging parameters of one acquisition campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquisitionParams {
    /// Device clock period, ps (24 MHz → 41 667 ps).
    pub clock_period_ps: f64,
    /// Number of clock cycles covered by the trace.
    pub n_cycles: usize,
    /// Number of on-scope trace averages (the paper uses 1 000).
    pub averages: usize,
}

impl AcquisitionParams {
    /// The paper's bench: 24 MHz clock, ×1000 averaging, enough cycles for
    /// load + 10 rounds + margin (≈ 2 750 samples at 5 GS/s — the ~3 000
    /// sample window of Fig. 4).
    pub fn paper_bench() -> Self {
        AcquisitionParams {
            clock_period_ps: 41_666.7,
            n_cycles: 13,
            averages: 1_000,
        }
    }

    /// Trace length in samples at a `dt_ps` sample period.
    pub fn n_samples(&self, dt_ps: f64) -> usize {
        ((self.clock_period_ps * self.n_cycles as f64) / dt_ps).ceil() as usize
    }
}

/// Accounting from binning one event stream: nothing is ever silently
/// discarded. `dropped` counts events whose time is NaN, negative, or
/// past the acquisition window — before this accounting, a negative or
/// NaN time saturated `as usize` to bin 0 and smeared out-of-window
/// charge into the first sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinStats {
    /// Events accumulated into the impulse train.
    pub binned: u64,
    /// Events outside the acquisition window (or with non-finite times).
    pub dropped: u64,
}

/// Bins indexed activity rows (`times_ps[i]` toggles net `nets[i]`)
/// against a per-net weighted-charge table
/// ([`crate::ActivityTable::weighted_charges`]): `impulses` is replaced
/// by `n_samples` bins, accumulated in event order through
/// [`ImpulseTrain::add`], so the result is bit-identical to streaming
/// the same events into a train.
pub fn bin_events_indexed(
    times_ps: &[f64],
    nets: &[u32],
    weighted: &[f64],
    dt_ps: f64,
    n_samples: usize,
    impulses: &mut Vec<f64>,
) -> BinStats {
    let mut train = ImpulseTrain::new(dt_ps, n_samples);
    for (&t, &net) in times_ps.iter().zip(nets) {
        train.add(t, weighted[net as usize]);
    }
    let stats = train.stats();
    *impulses = train.into_impulses();
    stats
}

/// An impulse train filled one event at a time, for a producer that
/// sees each event once and never stores it (`htd-core` bins straight
/// from the event replay).
///
/// [`Self::add`] is the crate's one binning rule: `x = time / dt`, kept
/// only if `x >= 0.0 && (x as usize) < n`, then one add into bin
/// `x as usize`, in event order (f64 accumulation order is part of the
/// contract). Truncation equals `floor` on every non-negative `x`; the
/// guard rejects NaN and negative fractions that `floor` would send to
/// −1, and `-0.0` passes both forms into bin 0 — so the train matches
/// the `floor` rule of the reference `acquire_with_reference` bit for bit
/// (pinned in `tests`). Baseline x86-64 has no SSE4.1 `roundsd`, so `floor` would
/// be a libm call per event.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpulseTrain {
    dt_ps: f64,
    impulses: Vec<f64>,
    stats: BinStats,
}

impl ImpulseTrain {
    /// An all-zero train of `n_samples` bins of width `dt_ps`.
    pub fn new(dt_ps: f64, n_samples: usize) -> Self {
        ImpulseTrain {
            dt_ps,
            impulses: vec![0.0; n_samples],
            stats: BinStats::default(),
        }
    }

    /// Bins one already-weighted impulse at absolute time `time_ps`, or
    /// counts it as dropped when it falls outside the window.
    #[inline]
    pub fn add(&mut self, time_ps: f64, weighted_charge: f64) {
        let x = time_ps / self.dt_ps;
        if x >= 0.0 && (x as usize) < self.impulses.len() {
            self.impulses[x as usize] += weighted_charge;
            self.stats.binned += 1;
        } else {
            self.stats.dropped += 1;
        }
    }

    /// The accumulated bins.
    pub fn impulses(&self) -> &[f64] {
        &self.impulses
    }

    /// Consumes the train, handing back its bins.
    pub fn into_impulses(self) -> Vec<f64> {
        self.impulses
    }

    /// How many impulses were binned and dropped so far.
    pub fn stats(&self) -> BinStats {
        self.stats
    }
}

/// Causal convolution of the binned impulse train with the front-end
/// impulse response, over dense slices that autovectorize. `signal` is
/// cleared and resized to the impulse length. Zero bins are skipped —
/// bit-safe because the accumulator can never be `-0.0` (IEEE addition
/// only yields `-0.0` from two negative zeros, and the accumulator
/// starts at `+0.0`).
pub fn convolve_kernel(impulses: &[f64], kernel: &[f64], signal: &mut Vec<f64>) {
    let n = impulses.len();
    signal.clear();
    signal.resize(n, 0.0);
    for (i, &imp) in impulses.iter().enumerate() {
        if imp == 0.0 {
            continue;
        }
        let m = kernel.len().min(n - i);
        for (s, &h) in signal[i..i + m].iter_mut().zip(&kernel[..m]) {
            *s += imp * h;
        }
    }
}

/// The per-repetition read-out of a noise-free convolved signal: one
/// installation-gain draw, then per-sample averaged scope noise and ADC
/// quantisation. This is the only stage that consumes the RNG, so a
/// cached `clean` signal replayed through `read_out` is bit-identical to
/// a full acquisition with the same RNG state.
pub fn read_out<R: RngCore + ?Sized>(
    clean: &[f64],
    scope: &Scope,
    gain: f64,
    setup_gain_jitter: f64,
    averages: usize,
    rng: &mut R,
) -> Trace {
    let install_gain = gain * (1.0 + setup_gain_jitter * standard_normal(rng));
    let noise_std = scope.noise_std / (averages.max(1) as f64).sqrt();
    let q = scope.quantization_step;
    let samples = clean
        .iter()
        .map(|&s| {
            let v = s * install_gain + noise_std * standard_normal(rng);
            (v / q).round() * q
        })
        .collect();
    Trace::new(samples, scope.sample_period_ps)
}

/// The complete EM measurement chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmSetup {
    /// The near-field probe.
    pub probe: Probe,
    /// The digitiser.
    pub scope: Scope,
    /// Linear amplifier gain (30 dB ≈ ×31.6).
    pub gain: f64,
    /// Relative gain error drawn once per acquisition — the probe/bench
    /// re-installation noise the paper examines in Fig. 5.
    pub setup_gain_jitter: f64,
}

impl EmSetup {
    /// The paper's bench: RFU-5-2-class probe over the die centre, 30 dB
    /// amplifier, Agilent scope.
    pub fn bench(die_center: (f64, f64)) -> Self {
        EmSetup {
            probe: Probe::rfu5_like(die_center),
            scope: Scope::agilent_54853a(),
            gain: 31.6,
            setup_gain_jitter: 0.004,
        }
    }

    /// Acquires one (averaged) EM trace of the given current events.
    ///
    /// Averaging is applied analytically: the additive scope noise scales
    /// as `1/√averages` (exact for the Gaussian noise model; see
    /// DESIGN.md §5), while the per-installation gain error does *not*
    /// average out — exactly why the paper's Fig. 5 check matters.
    pub fn acquire<R: RngCore + ?Sized>(
        &self,
        events: &[CurrentEvent],
        params: &AcquisitionParams,
        rng: &mut R,
    ) -> Trace {
        let kernel = self.probe.impulse_response(self.scope.sample_period_ps);
        acquire_events(
            events,
            params,
            &self.scope,
            self.gain,
            self.setup_gain_jitter,
            &kernel,
            |e| self.probe.coupling(e.position),
            rng,
        )
    }
}

/// The staged acquisition both chains share: each event's charge times
/// its chain `weight` binned into an [`ImpulseTrain`] on the `scope` time
/// base, convolved with the chain's sampled front-end `kernel`, then one
/// [`read_out`] through the amplifier `gain` and its per-installation
/// `setup_gain_jitter`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn acquire_events<R: RngCore + ?Sized>(
    events: &[CurrentEvent],
    params: &AcquisitionParams,
    scope: &Scope,
    gain: f64,
    setup_gain_jitter: f64,
    kernel: &[f64],
    weight: impl Fn(&CurrentEvent) -> f64,
    rng: &mut R,
) -> Trace {
    let dt = scope.sample_period_ps;
    let mut train = ImpulseTrain::new(dt, params.n_samples(dt));
    for e in events {
        train.add(e.time_ps, e.charge * weight(e));
    }
    let mut clean = Vec::new();
    convolve_kernel(train.impulses(), kernel, &mut clean);
    read_out(&clean, scope, gain, setup_gain_jitter, params.averages, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn truncating_binning_matches_floor_binning_on_every_edge() {
        // `ImpulseTrain` (and `bin_events_indexed`, which feeds one) bins
        // with `x as usize` behind `x >= 0.0`; the historical rule is `x.floor()` behind `floor >= 0.0`. Both must
        // agree on NaN, ±0, negative fractions, ±inf and both window
        // edges, in the bins and in the drop accounting.
        let (dt, n) = (200.0, 50usize);
        let end = dt * n as f64;
        let times = [
            f64::NAN,
            0.0,
            -0.0,
            -1.0e-300,
            -0.5 * dt,
            -dt,
            -1.5 * dt,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            0.5 * dt,
            dt,
            end - dt,
            end - 1.0e-9,
            end,
            end + 1.0e-9,
            1.0e300,
        ];
        let charges: Vec<f64> = (0..times.len()).map(|i| 1.0 + i as f64).collect();
        let mut want = vec![0.0f64; n];
        let mut want_stats = BinStats::default();
        for (&t, &c) in times.iter().zip(&charges) {
            let bin = (t / dt).floor();
            if bin >= 0.0 && (bin as usize) < n {
                want[bin as usize] += c;
                want_stats.binned += 1;
            } else {
                want_stats.dropped += 1;
            }
        }
        assert_eq!(
            want_stats,
            BinStats {
                binned: 7,
                dropped: 10
            }
        );
        let nets: Vec<u32> = (0..times.len() as u32).collect();
        let mut b = Vec::new();
        assert_eq!(
            bin_events_indexed(&times, &nets, &charges, dt, n, &mut b),
            want_stats
        );
        // The streaming train, fed the same events one at a time.
        let mut train = ImpulseTrain::new(dt, n);
        for (&t, &c) in times.iter().zip(&charges) {
            train.add(t, c);
        }
        assert_eq!(train.stats(), want_stats);
        for got in [&b, &train.impulses().to_vec()] {
            let bits: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, want.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn trace_has_expected_length_and_timebase() {
        let setup = EmSetup::bench((10.0, 10.0));
        let mut rng = StdRng::seed_from_u64(0);
        let t = setup.acquire(&burst(0.0, 10, 1.0), &params(), &mut rng);
        assert_eq!(t.len(), 200); // 40 000 ps / 200 ps
        assert_eq!(t.dt_ps(), 200.0);
    }

    #[test]
    fn bursts_appear_at_their_cycle_positions() {
        let setup = EmSetup::bench((10.0, 10.0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut events = burst(0.0, 50, 10.0);
        events.extend(burst(15_000.0, 50, 10.0));
        let t = setup.acquire(&events, &params(), &mut rng);
        // Energy near the bursts dwarfs energy after the second burst's
        // ring has fully decayed (last event ≈ 16.9 ns + 11.5 ns horizon
        // ≈ sample 142).
        let e0: f64 = t.samples()[0..50].iter().map(|s| s * s).sum();
        let e2: f64 = t.samples()[160..200].iter().map(|s| s * s).sum();
        assert!(e0 > 100.0 * e2.max(1.0), "e0 {e0} e2 {e2}");
    }

    #[test]
    fn averaging_reduces_noise() {
        let setup = EmSetup::bench((10.0, 10.0));
        let single = AcquisitionParams {
            averages: 1,
            ..params()
        };
        let averaged = AcquisitionParams {
            averages: 1_000,
            ..params()
        };
        // No events: traces are pure noise.
        let noise_rms = |p: &AcquisitionParams, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            setup.acquire(&[], p, &mut rng).rms()
        };
        let r1 = noise_rms(&single, 2);
        let r1000 = noise_rms(&averaged, 2);
        assert!(
            r1 > 20.0 * r1000,
            "averaging must shrink noise: {r1} vs {r1000}"
        );
    }

    #[test]
    fn closer_events_couple_more() {
        let setup = EmSetup::bench((10.0, 10.0));
        let p = params();
        let near = CurrentEvent {
            time_ps: 100.0,
            charge: 100.0,
            position: (10.0, 10.0),
        };
        let far = CurrentEvent {
            time_ps: 100.0,
            charge: 100.0,
            position: (80.0, 80.0),
        };
        let quiet = AcquisitionParams {
            averages: 1_000_000,
            ..p
        };
        let mut rng = StdRng::seed_from_u64(3);
        let tn = setup.acquire(&[near], &quiet, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let tf = setup.acquire(&[far], &quiet, &mut rng);
        assert!(tn.peak() > 2.0 * tf.peak());
    }

    #[test]
    fn quantisation_rounds_to_steps() {
        let mut setup = EmSetup::bench((10.0, 10.0));
        setup.scope.quantization_step = 8.0;
        setup.scope.noise_std = 0.0;
        setup.setup_gain_jitter = 0.0;
        let mut rng = StdRng::seed_from_u64(4);
        let t = setup.acquire(&burst(0.0, 50, 1.0), &params(), &mut rng);
        for &s in t.samples() {
            assert_eq!(s % 8.0, 0.0, "sample {s} not on the ADC grid");
        }
    }

    #[test]
    fn read_out_replays_identically_from_a_cached_clean_signal() {
        // The three-stage split exists so reps can reuse the clean signal:
        // bin+convolve once, read_out per rep — bit-identical to a full
        // acquisition at the same RNG state.
        let setup = EmSetup::bench((10.0, 10.0));
        let p = params();
        let events = burst(2_000.0, 30, 5.0);
        let kernel = setup.probe.impulse_response(setup.scope.sample_period_ps);
        let dt = setup.scope.sample_period_ps;
        let mut train = ImpulseTrain::new(dt, p.n_samples(dt));
        for e in &events {
            train.add(e.time_ps, e.charge * setup.probe.coupling(e.position));
        }
        let mut clean = Vec::new();
        convolve_kernel(train.impulses(), &kernel, &mut clean);
        for seed in [0u64, 1, 99] {
            let mut rng = StdRng::seed_from_u64(seed);
            let full = setup.acquire(&events, &p, &mut rng);
            let mut rng = StdRng::seed_from_u64(seed);
            let replay = read_out(
                &clean,
                &setup.scope,
                setup.gain,
                setup.setup_gain_jitter,
                p.averages,
                &mut rng,
            );
            assert_eq!(full, replay, "seed {seed}");
        }
    }

    #[test]
    fn paper_bench_window_matches_fig4_scale() {
        let p = AcquisitionParams::paper_bench();
        let n = (p.clock_period_ps * p.n_cycles as f64 / 200.0).ceil() as usize;
        assert!((2_500..3_200).contains(&n), "window {n} samples");
    }
}
