//! Differential tests of the glitch sweep's certified fast onsets: every
//! onset [`GlitchSweep::fault_onsets`] returns, and the RNG state it
//! leaves behind, must equal the exact reference — a full Box–Muller
//! draw per toggled bit, `settle + setup + noise · z`, then
//! [`GlitchSweep::onset_for_required`].

use htd_fabric::variation::{box_muller, standard_normal};
use htd_timing::{FaultOnset, GlitchParams, GlitchSweep};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The sweep as it was computed before the fast path: the oracle.
fn reference_onsets<R: RngCore + ?Sized>(
    sweep: &GlitchSweep,
    settles: &[Option<f64>],
    rng: &mut R,
) -> Vec<FaultOnset> {
    let p = sweep.params();
    settles
        .iter()
        .map(|&settle| match settle {
            Some(settle) => {
                sweep.onset_for_required(settle + p.setup_ps + p.noise_ps * standard_normal(rng))
            }
            None => FaultOnset::Never,
        })
        .collect()
}

/// Runs both paths from the same seed and asserts identical onsets and
/// identical RNG state afterwards.
fn assert_matches_reference(params: GlitchParams, settles: &[Option<f64>], seed: u64) {
    let sweep = GlitchSweep::new(params);
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut ref_rng = StdRng::seed_from_u64(seed);
    let fast = sweep.fault_onsets(settles, &mut fast_rng);
    let want = reference_onsets(&sweep, settles, &mut ref_rng);
    assert_eq!(fast, want, "params {params:?}, seed {seed}");
    assert_eq!(fast_rng, ref_rng, "RNG stream diverged");
}

/// An RNG that replays a fixed list of raw 64-bit outputs, so a test can
/// choose the uniforms `u1 = (x >> 11) · 2⁻⁵³` behind each draw.
struct Replay {
    words: Vec<u64>,
    next: usize,
}

impl RngCore for Replay {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        let w = self.words[self.next];
        self.next += 1;
        w
    }
}

/// The raw word whose `gen::<f64>()` is `n · 2⁻⁵³`.
fn word(n: u64) -> u64 {
    n << 11
}

/// The uniform `gen::<f64>()` makes of `word(n)`.
fn uniform(n: u64) -> f64 {
    n as f64 / (1u64 << 53) as f64
}

fn paper(noise_ps: f64) -> GlitchParams {
    GlitchParams {
        start_period_ps: 9_205.0,
        step_ps: 35.0,
        steps: 51,
        setup_ps: 180.0,
        noise_ps,
    }
}

fn params_strategy() -> impl Strategy<Value = GlitchParams> {
    (
        100.0f64..20_000.0,
        0.01f64..200.0,
        1u16..=120,
        0.0f64..500.0,
        0.0f64..300.0,
    )
        .prop_map(
            |(start_period_ps, step_ps, steps, setup_ps, noise_ps)| GlitchParams {
                start_period_ps,
                step_ps,
                steps,
                setup_ps,
                noise_ps,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random sweeps, settles and seeds: identical onsets, identical
    /// RNG state.
    #[test]
    fn fast_onsets_equal_the_exact_draws(
        params in params_strategy(),
        spread in 0.0f64..1.5,
        picks in proptest::collection::vec((any::<bool>(), 0.0f64..1.0), 1..=160),
        seed in any::<u64>(),
    ) {
        // Settles spread around the sweep's range (and past both ends).
        let span = params.step_ps * f64::from(params.steps);
        let settles: Vec<Option<f64>> = picks
            .iter()
            .map(|&(toggles, u)| {
                toggles.then_some(
                    params.start_period_ps - params.setup_ps + (u - 0.5) * 2.0 * span * spread,
                )
            })
            .collect();
        assert_matches_reference(params, &settles, seed);
    }
}

#[test]
fn a_million_paper_draws_equal_the_exact_draws() {
    // The paper's sweep at its 12 ps noise, with settles spread over the
    // whole sweep: the statistically typical workload of a lot score.
    let params = paper(12.0);
    let mut pick = StdRng::seed_from_u64(2015);
    let settles: Vec<Option<f64>> = (0..128)
        .map(|_| {
            let u = rand::Rng::gen::<f64>(&mut pick);
            Some(7_400.0 + u * 2_000.0)
        })
        .collect();
    // 8192 repetitions × 128 bits: 2²⁰ draws.
    for rep in 0..8192u64 {
        assert_matches_reference(params, &settles, rep);
    }
}

#[test]
fn requirements_on_every_boundary_take_the_exact_decision() {
    // Requirements placed within 1e-12 ps (and within a few ulps) of
    // each step boundary and of both clamp comparisons (the sweep start
    // and the floor at `steps - 1`), through chosen uniforms: u1 at both
    // ends of its range and in the middle, u2 on and off the zeros of
    // the cosine.
    for noise_ps in [0.0, 12.0, 35.0] {
        let params = paper(noise_ps);
        let sweep = GlitchSweep::new(params);
        let u1s = [0, 1, 1 << 30, 1 << 52, (1 << 53) - 1];
        let u2s = [
            0,
            1 << 51,
            1 << 52,
            3 << 51,
            (1 << 53) - 1,
            0x1234_5678_9ABC,
        ];
        for &n1 in &u1s {
            for &n2 in &u2s {
                let z = box_muller(uniform(n1).max(f64::MIN_POSITIVE), uniform(n2));
                let mut boundaries: Vec<f64> =
                    (0..params.steps).map(|k| params.period_at(k)).collect();
                boundaries.push(params.start_period_ps);
                for target in boundaries {
                    let base = target - params.setup_ps - noise_ps * z;
                    let mut settles = Vec::new();
                    for delta in [-1e-12, 0.0, 1e-12] {
                        settles.push(Some(base + delta));
                    }
                    let mut s = base;
                    for _ in 0..4 {
                        s = s.next_up();
                        settles.push(Some(s));
                    }
                    let mut s = base;
                    for _ in 0..4 {
                        s = s.next_down();
                        settles.push(Some(s));
                    }
                    for settle in settles {
                        let words = vec![word(n1), word(n2)];
                        let mut fast = Replay {
                            words: words.clone(),
                            next: 0,
                        };
                        let mut exact = Replay { words, next: 0 };
                        let got = sweep.fault_onsets(&[settle], &mut fast);
                        let want = reference_onsets(&sweep, &[settle], &mut exact);
                        assert_eq!(
                            got, want,
                            "noise {noise_ps}, u1 = {n1}·2⁻⁵³, u2 = {n2}·2⁻⁵³, settle {settle:?}"
                        );
                        assert_eq!(fast.next, 2, "exactly two draws per toggled bit");
                    }
                }
            }
        }
    }
}

#[test]
fn extreme_uniforms_single_step_and_zero_noise_sweeps_agree() {
    // u1 = 0 (nudged to the smallest normal), 2⁻⁵³ and 1 − 2⁻⁵³, on a
    // one-step sweep and on noise-free sweeps, across the whole range of
    // requirements.
    let one_step = GlitchParams {
        steps: 1,
        ..paper(12.0)
    };
    for params in [one_step, paper(0.0), paper(12.0), paper(250.0)] {
        let sweep = GlitchSweep::new(params);
        let settles: Vec<Option<f64>> = (0..400)
            .map(|i| Some(7_000.0 + f64::from(i) * 6.25))
            .chain([None])
            .collect();
        for &n1 in &[0, 1, (1 << 53) - 1] {
            for &n2 in &[0, 1 << 51, 12_345_678_901] {
                let words: Vec<u64> = std::iter::repeat_n([word(n1), word(n2)], settles.len())
                    .flatten()
                    .collect();
                let mut fast = Replay {
                    words: words.clone(),
                    next: 0,
                };
                let mut exact = Replay { words, next: 0 };
                assert_eq!(
                    sweep.fault_onsets(&settles, &mut fast),
                    reference_onsets(&sweep, &settles, &mut exact),
                    "{params:?}, u1 = {n1}·2⁻⁵³, u2 = {n2}·2⁻⁵³"
                );
                assert_eq!(fast.next, exact.next);
            }
        }
        for seed in 0..8 {
            assert_matches_reference(params, &settles, seed);
        }
    }
}

#[test]
fn non_finite_requirements_fall_back_to_the_exact_path() {
    let params = paper(12.0);
    let settles = [
        Some(f64::NAN),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        Some(f64::MAX),
        Some(-f64::MAX),
    ];
    for seed in 0..4 {
        assert_matches_reference(params, &settles, seed);
    }
}
