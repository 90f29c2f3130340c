//! Property-based tests for the EM measurement chain.

use htd_em::{AcquisitionParams, CurrentEvent, EmSetup, PowerSetup, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn events_strategy() -> impl Strategy<Value = Vec<CurrentEvent>> {
    proptest::collection::vec(
        (0.0f64..30_000.0, 0.1f64..50.0, 0.0f64..20.0, 0.0f64..20.0).prop_map(|(t, q, x, y)| {
            CurrentEvent {
                time_ps: t,
                charge: q,
                position: (x, y),
            }
        }),
        0..40,
    )
}

fn quiet_setup() -> EmSetup {
    let mut s = EmSetup::bench((10.0, 10.0));
    s.scope.noise_std = 0.0;
    s.setup_gain_jitter = 0.0;
    s.scope.quantization_step = 1e-9; // effectively unquantised
    s
}

fn params() -> AcquisitionParams {
    AcquisitionParams {
        clock_period_ps: 20_000.0,
        n_cycles: 3,
        averages: 1,
    }
}

proptest! {
    /// With noise off, acquisition is linear in charge: doubling every
    /// event's charge doubles every sample.
    #[test]
    fn acquisition_is_linear_in_charge(events in events_strategy()) {
        let setup = quiet_setup();
        let mut rng = StdRng::seed_from_u64(1);
        let t1 = setup.acquire(&events, &params(), &mut rng);
        let doubled: Vec<CurrentEvent> = events
            .iter()
            .map(|e| CurrentEvent { charge: e.charge * 2.0, ..*e })
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let t2 = setup.acquire(&doubled, &params(), &mut rng);
        for (a, b) in t1.samples().iter().zip(t2.samples()) {
            prop_assert!((b - 2.0 * a).abs() < 1e-6, "a {a} b {b}");
        }
    }

    /// Acquisition is additive: acquiring the union of two event sets
    /// equals the sample-wise sum (noise off).
    #[test]
    fn acquisition_is_additive(a in events_strategy(), b in events_strategy()) {
        let setup = quiet_setup();
        let acquire = |ev: &[CurrentEvent]| {
            let mut rng = StdRng::seed_from_u64(2);
            setup.acquire(ev, &params(), &mut rng)
        };
        let ta = acquire(&a);
        let tb = acquire(&b);
        let mut union = a.clone();
        union.extend(b.iter().cloned());
        let tu = acquire(&union);
        for i in 0..tu.len() {
            prop_assert!((tu[i] - (ta[i] + tb[i])).abs() < 1e-6);
        }
    }

    /// Events outside the acquisition window never contribute.
    #[test]
    fn late_events_are_ignored(q in 1.0f64..100.0) {
        let setup = quiet_setup();
        let late = CurrentEvent {
            time_ps: 120_000.0, // beyond 3 × 20 ns
            charge: q,
            position: (10.0, 10.0),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let t = setup.acquire(&[late], &params(), &mut rng);
        prop_assert!(t.peak() == 0.0);
    }

    /// Trace arithmetic: |a − b| is symmetric and zero iff equal.
    #[test]
    fn abs_diff_properties(xs in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let a = Trace::new(xs.clone(), 200.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 1.0).collect();
        let b = Trace::new(shifted, 200.0);
        let ab = a.abs_diff(&b);
        let ba = b.abs_diff(&a);
        prop_assert_eq!(ab.samples(), ba.samples());
        prop_assert!(a.abs_diff(&a).peak() == 0.0);
        prop_assert!((a.abs_diff(&b).peak() - 1.0).abs() < 1e-12);
    }

    /// The mean of N copies of a trace is the trace itself.
    #[test]
    fn mean_of_copies_is_identity(xs in proptest::collection::vec(-50.0f64..50.0, 1..30), n in 1usize..5) {
        let t = Trace::new(xs, 200.0);
        let copies: Vec<Trace> = (0..n).map(|_| t.clone()).collect();
        let m = Trace::mean_of(&copies);
        for (a, b) in m.samples().iter().zip(t.samples()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// The power chain is position-blind: translating every event leaves
    /// the trace unchanged.
    #[test]
    fn power_is_translation_invariant(events in events_strategy(), dx in -5.0f64..5.0) {
        let mut setup = PowerSetup::bench();
        setup.scope.noise_std = 0.0;
        setup.setup_gain_jitter = 0.0;
        let acquire = |ev: &[CurrentEvent], seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            setup.acquire(ev, &params(), &mut rng)
        };
        let t1 = acquire(&events, 7);
        let moved: Vec<CurrentEvent> = events
            .iter()
            .map(|e| CurrentEvent {
                position: (e.position.0 + dx, e.position.1 - dx),
                ..*e
            })
            .collect();
        let t2 = acquire(&moved, 7);
        prop_assert_eq!(t1.samples(), t2.samples());
    }
}

/// The staged kernels (`ImpulseTrain` → `convolve_kernel` → `read_out`)
/// are pinned bit-for-bit against the retained scalar reference across
/// random event streams (including negative, NaN and past-window times),
/// acquisition params and quantisation steps.
mod kernel_pinning {
    use super::*;
    use htd_em::{BinStats, ImpulseTrain};
    use htd_oracle::acquire_with_reference;

    /// Bins `events` (charge × `weight`) through a streaming train.
    fn train_of(
        events: &[CurrentEvent],
        weight: impl Fn(&CurrentEvent) -> f64,
        dt: f64,
        n: usize,
    ) -> ImpulseTrain {
        let mut train = ImpulseTrain::new(dt, n);
        for e in events {
            train.add(e.time_ps, e.charge * weight(e));
        }
        train
    }

    /// Event streams that exercise every binning edge: in-window,
    /// negative, far-future, and NaN times, with signed charges.
    fn adversarial_events() -> impl Strategy<Value = Vec<CurrentEvent>> {
        proptest::collection::vec(
            (
                -50_000.0f64..200_000.0,
                -20.0f64..50.0,
                0.0f64..20.0,
                0u8..16,
            )
                .prop_map(|(t, q, x, nan)| CurrentEvent {
                    // ~1 in 16 events carries a NaN time.
                    time_ps: if nan == 0 { f64::NAN } else { t },
                    charge: q,
                    position: (x, 20.0 - x),
                }),
            0..60,
        )
    }

    proptest! {
        /// EM chain: staged == reference, bit for bit, trace and stats.
        #[test]
        fn em_batched_matches_reference(
            events in adversarial_events(),
            noise in 0.0f64..100.0,
            jitter in 0.0f64..0.01,
            quant in 0.5f64..8.0,
            averages in 1usize..1000,
            seed in any::<u64>(),
        ) {
            let mut setup = EmSetup::bench((10.0, 10.0));
            setup.scope.noise_std = noise;
            setup.setup_gain_jitter = jitter;
            setup.scope.quantization_step = quant;
            let p = AcquisitionParams { clock_period_ps: 20_000.0, n_cycles: 3, averages };
            let kernel = setup.probe.impulse_response(setup.scope.sample_period_ps);

            let mut rng = StdRng::seed_from_u64(seed);
            let (want, want_stats) = acquire_with_reference(
                &events, &p, &setup.scope, setup.gain, setup.setup_gain_jitter,
                &kernel, |e| setup.probe.coupling(e.position), &mut rng,
            );
            let dt = setup.scope.sample_period_ps;
            let got_stats =
                train_of(&events, |e| setup.probe.coupling(e.position), dt, p.n_samples(dt)).stats();
            let mut rng = StdRng::seed_from_u64(seed);
            let got = setup.acquire(&events, &p, &mut rng);

            prop_assert_eq!(got_stats, want_stats);
            prop_assert_eq!(
                got_stats.binned + got_stats.dropped,
                events.len() as u64
            );
            prop_assert_eq!(got.len(), want.len());
            for (i, (a, b)) in want.samples().iter().zip(got.samples()).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "sample {} differs: {} vs {}", i, a, b);
            }
        }

        /// The streaming train, fed one event at a time, bins exactly
        /// like the scalar reference's `floor` rule: same bits, same
        /// accounting.
        #[test]
        fn streaming_train_matches_batch_binning(
            events in adversarial_events(),
            scope_dt in any::<bool>(),
            dt in 1.0f64..1_000.0,
            n in 0usize..400,
        ) {
            let dt = if scope_dt { 200.0 } else { dt };
            let mut want = vec![0.0f64; n];
            let mut want_stats = BinStats::default();
            for e in &events {
                let bin = (e.time_ps / dt).floor();
                if bin >= 0.0 && (bin as usize) < n {
                    want[bin as usize] += e.charge * e.position.0;
                    want_stats.binned += 1;
                } else {
                    want_stats.dropped += 1;
                }
            }
            let train = train_of(&events, |e| e.position.0, dt, n);
            prop_assert_eq!(train.stats(), want_stats);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(train.impulses()), bits(&want));
        }

        /// Power chain: staged == reference, bit for bit.
        #[test]
        fn power_batched_matches_reference(
            events in adversarial_events(),
            averages in 1usize..100,
            seed in any::<u64>(),
        ) {
            let setup = PowerSetup::bench();
            let p = AcquisitionParams { clock_period_ps: 20_000.0, n_cycles: 3, averages };
            let kernel = setup.impulse_response(setup.scope.sample_period_ps);

            let mut rng = StdRng::seed_from_u64(seed);
            let (want, want_stats) = acquire_with_reference(
                &events, &p, &setup.scope, setup.gain, setup.setup_gain_jitter,
                &kernel, |_| 1.0, &mut rng,
            );
            let dt = setup.scope.sample_period_ps;
            let got_stats = train_of(&events, |_| 1.0, dt, p.n_samples(dt)).stats();
            let mut rng = StdRng::seed_from_u64(seed);
            let got = setup.acquire(&events, &p, &mut rng);

            prop_assert_eq!(got_stats, want_stats);
            for (a, b) in want.samples().iter().zip(got.samples()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// Cartography scan invariants on arbitrary event sets.
mod scan_props {
    use super::*;
    use htd_em::scan::{hottest, scan, ScanGrid};

    proptest! {
        /// Every scan point is on the grid and metrics are non-negative;
        /// the hottest point's rms is the maximum.
        #[test]
        fn scan_points_are_consistent(events in events_strategy(), n in 2usize..5) {
            let setup = quiet_setup();
            let grid = ScanGrid::over_device(20, 20, n);
            let points = scan(&events, &setup, &params(), &grid, 5);
            prop_assert_eq!(points.len(), n * n);
            for p in &points {
                prop_assert!(p.rms >= 0.0 && p.peak >= 0.0);
                prop_assert!(p.position.0 >= 0.0 && p.position.0 <= 20.0);
                prop_assert!(p.position.1 >= 0.0 && p.position.1 <= 20.0);
            }
            if let Some(hot) = hottest(&points) {
                for p in &points {
                    prop_assert!(hot.rms >= p.rms);
                }
            }
        }
    }
}
