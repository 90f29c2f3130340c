//! The clock-glitch delay measurement (paper Section III, Fig. 2).
//!
//! The physical setup shortens the clock period feeding one round in 35 ps
//! steps; a bit whose data path has not settled `setup` before the early
//! edge samples a stale/meta-stable value and shows up as a fault in the
//! ciphertext. The **step index at which each bit first faults** is the
//! measurement: it encodes that bit's data-dependent path delay to within
//! one step plus the per-measurement noise `dM` of Eq. (2).
//!
//! This module reproduces exactly that readout from simulated settling
//! times. It is deliberately independent of AES — any set of observed
//! endpoints works.

use std::sync::OnceLock;

use rand::{Rng, RngCore};

use htd_fabric::variation::box_muller;

/// Sweep parameters. The paper used 51 steps of 35 ps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchParams {
    /// Clock period at step 0 (the widest/safest glitch), ps.
    pub start_period_ps: f64,
    /// Period decrement per step, ps.
    pub step_ps: f64,
    /// Number of decrement steps performed.
    pub steps: u16,
    /// Flip-flop setup time, ps.
    pub setup_ps: f64,
    /// Standard deviation of the per-measurement noise `dM`, ps.
    pub noise_ps: f64,
}

impl GlitchParams {
    /// The paper's sweep (51 × 35 ps) aimed so that the slowest observed
    /// path (`max_required_ps` = settle + setup) faults a few steps into
    /// the sweep and the sweep floor still reaches ~1.7 ns below it.
    pub fn paper_sweep(max_required_ps: f64, setup_ps: f64, noise_ps: f64) -> Self {
        let step_ps = 35.0;
        GlitchParams {
            start_period_ps: max_required_ps + 3.0 * step_ps,
            step_ps,
            steps: 51,
            setup_ps,
            noise_ps,
        }
    }

    /// Whether the parameters describe a realisable sweep: at least one
    /// step, finite, strictly positive start period and step, and a
    /// positive, finite setup time and noise level (zero noise allowed).
    /// Strict deserializers use this to reject corrupted calibration
    /// artifacts before they reach the measurement code.
    pub fn is_physical(&self) -> bool {
        self.steps >= 1
            && self.start_period_ps.is_finite()
            && self.start_period_ps > 0.0
            && self.step_ps.is_finite()
            && self.step_ps > 0.0
            && self.setup_ps.is_finite()
            && self.setup_ps >= 0.0
            && self.noise_ps.is_finite()
            && self.noise_ps >= 0.0
    }

    /// The glitch period applied at `step`.
    pub fn period_at(&self, step: u16) -> f64 {
        self.start_period_ps - self.step_ps * step as f64
    }

    /// Converts a fault-onset step back into a delay estimate, ps: the
    /// first violating period (the true requirement lies within one step
    /// above it).
    pub fn delay_estimate_ps(&self, onset: u16) -> f64 {
        self.period_at(onset)
    }

    /// The numeric encoding of [`FaultOnset::Never`] in a mean-onset
    /// matrix: one step **past the end of the sweep** (`steps`).
    ///
    /// Genuine onsets are clamped to at most `steps - 1` by
    /// [`GlitchSweep::onset_for_required`], so this sentinel is distinct
    /// from every real measurement: a path that genuinely faults on the
    /// very last step is one `step_ps` "faster" than a path the sweep
    /// never reached.
    pub fn never_onset_steps(&self) -> f64 {
        f64::from(self.steps)
    }
}

/// Fault onset of one observed bit in one sweep repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOnset {
    /// The bit first faulted at this step index (0-based).
    Step(u16),
    /// The bit never faulted within the sweep (its path is faster than the
    /// sweep floor, or it did not toggle this cycle).
    Never,
}

impl FaultOnset {
    /// The step index, if the bit faulted.
    pub fn step(self) -> Option<u16> {
        match self {
            FaultOnset::Step(s) => Some(s),
            FaultOnset::Never => None,
        }
    }
}

/// One glitch sweep: maps settling times to fault onsets.
///
/// Each noisy onset is decided from the same two uniform draws as
/// [`standard_normal`](htd_fabric::variation::standard_normal), but
/// without evaluating `ln` and `cos` to full precision: the sweep keeps
/// only an integer step per draw, so a table-interpolated normal sample
/// with a proven error bound decides it whenever the bound places the
/// required period clear of every step boundary. The rare draws it cannot
/// place (about one in 10⁴ at the paper's 12 ps noise) take the exact
/// Box–Muller expression. Every onset, and the RNG stream, is therefore
/// bit-identical to evaluating `settle + setup + noise · z` exactly and
/// calling [`Self::onset_for_required`].
#[derive(Debug, Clone)]
pub struct GlitchSweep {
    params: GlitchParams,
    /// `1 / step_ps`, for the step guess (a guess only: `edges` decides).
    inv_step: f64,
    /// The draw-independent part of the certification margin, for
    /// `√x ≥ 1` and `√x < 1` (see [`NormalTables`]).
    margin_fixed: [f64; 2],
    /// The margin per unit of the table sample's `√x`.
    margin_per_s: f64,
    /// Exact class boundaries of [`Self::onset_for_required`]: a required
    /// period `x` has onset ordinal `k` (`Step(k)`, or `steps` for
    /// `Never`) exactly when `edges[k + 1] <= x < edges[k]`. `steps + 2`
    /// entries, from `+inf` down to `-inf`.
    edges: Vec<f64>,
    tables: &'static NormalTables,
}

impl GlitchSweep {
    /// Creates a sweep with the given parameters.
    pub fn new(params: GlitchParams) -> Self {
        let tables = NormalTables::get();
        let noise = params.noise_ps.abs();
        // |required + noise·z − (required + noise·z_exact)| is at most
        // noise·|z − z_exact| plus a few half-ulps of |required| and of
        // noise·(|z| + 1); MARGIN_REL covers those many times over, with
        // |z| + 1 ≤ Z_MAX + 1 (see NormalTables).
        let rounding = MARGIN_REL * noise * (Z_MAX + 1.0);
        let fixed = |sqrt_err: f64| noise * (sqrt_err + Z_LIB_ERR) + rounding;
        GlitchSweep {
            params,
            inv_step: 1.0 / params.step_ps,
            margin_fixed: [fixed(tables.sqrt_err_large), fixed(tables.sqrt_err_small)],
            margin_per_s: noise * COS_ERR,
            edges: class_edges(&params),
            tables,
        }
    }

    /// The sweep parameters.
    pub fn params(&self) -> &GlitchParams {
        &self.params
    }

    /// Runs one repetition of the full sweep over the observed bits.
    ///
    /// `settle_at_sink_ps[i]` is bit `i`'s settling time at its register's
    /// `D` pin (`None` if the bit did not toggle — such a bit can never
    /// violate setup and thus never faults). Each bit receives an
    /// independent `dM` noise draw per repetition, as in the paper's 10
    /// repeated experiments.
    pub fn fault_onsets<R: RngCore + ?Sized>(
        &self,
        settle_at_sink_ps: &[Option<f64>],
        rng: &mut R,
    ) -> Vec<FaultOnset> {
        settle_at_sink_ps
            .iter()
            .map(|&settle| match settle {
                Some(settle) => self.noisy_onset(settle + self.params.setup_ps, rng),
                None => FaultOnset::Never,
            })
            .collect()
    }

    /// The onset of one toggling bit in one repetition: draws the bit's
    /// `dM` noise from `rng` (two uniforms, as
    /// [`standard_normal`](htd_fabric::variation::standard_normal)) and
    /// returns the onset for `required_ps + noise_ps · z`, where
    /// `required_ps` is the bit's noise-free `settle + setup`.
    /// [`Self::fault_onsets`] calls this per bit; a caller that repeats a
    /// sweep many times can add `setup_ps` once and call it directly.
    pub fn noisy_onset<R: RngCore + ?Sized>(&self, required_ps: f64, rng: &mut R) -> FaultOnset {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        match self.certified_onset(required_ps, u1, u2) {
            Some(onset) => onset,
            None => self.exact_onset(required_ps, u1, u2),
        }
    }

    /// The onset from the exact Box–Muller sample: the reference the
    /// certified path reproduces, taken when it cannot decide. Kept out
    /// of line so the libm calls do not crowd the hot loop's registers.
    #[cold]
    #[inline(never)]
    fn exact_onset(&self, required_ps: f64, u1: f64, u2: f64) -> FaultOnset {
        self.onset_for_required(required_ps + self.params.noise_ps * box_muller(u1, u2))
    }

    /// The onset for `required_ps + noise_ps · box_muller(u1, u2)` from
    /// the table sample, or `None` when its error bound cannot place the
    /// required period inside one onset class.
    #[inline]
    fn certified_onset(&self, required_ps: f64, u1: f64, u2: f64) -> Option<FaultOnset> {
        let (z, s) = self.tables.normal(u1, u2);
        let noisy = required_ps + self.params.noise_ps * z;
        // The exact `required_ps + noise_ps * box_muller(u1, u2)` lies
        // within `margin` of `noisy` (the terms are set up in `new`).
        let margin = self.margin_fixed[usize::from(s < 1.0)]
            + s * self.margin_per_s
            + MARGIN_REL * required_ps.abs();
        let (lo, hi) = (noisy - margin, noisy + margin);
        let steps = usize::from(self.params.steps);
        let guess = ((self.params.start_period_ps - noisy) * self.inv_step + 1.0) as i64;
        let k = guess.clamp(0, steps as i64) as usize;
        // `onset_for_required` is monotone in the required period, so if
        // both ends of the interval fall in class `k`, so does the exact
        // value. NaN anywhere fails the comparison.
        let onset = if k == steps {
            FaultOnset::Never
        } else {
            FaultOnset::Step(k as u16)
        };
        (self.edges[k + 1] <= lo && hi < self.edges[k]).then_some(onset)
    }

    /// The onset step for a given required period (no noise) — the
    /// smallest step whose period undercuts the requirement.
    pub fn onset_for_required(&self, required_ps: f64) -> FaultOnset {
        onset_for_required(&self.params, required_ps)
    }
}

/// [`GlitchSweep::onset_for_required`] on bare parameters.
fn onset_for_required(params: &GlitchParams, required_ps: f64) -> FaultOnset {
    if params.period_at(0) < required_ps {
        return FaultOnset::Step(0);
    }
    let floor = params.period_at(params.steps - 1);
    if floor >= required_ps {
        return FaultOnset::Never;
    }
    // period_at(k) < required  ⇔  k > (start - required) / step.
    let k = ((params.start_period_ps - required_ps) / params.step_ps).floor() as u16 + 1;
    FaultOnset::Step(k.min(params.steps - 1))
}

/// Relative slack in the certification margin: 2⁻⁴⁰ of the magnitudes
/// involved, thousands of times the few half-ulps of rounding in
/// `required + noise · z`, in the margin arithmetic and in `lo`/`hi`.
const MARGIN_REL: f64 = 1.0 / (1u64 << 40) as f64;

/// The exact class boundaries of `onset_for_required` (see
/// [`GlitchSweep::edges`]), found by bisection on the function itself, so
/// no reasoning about its rounding is needed — only that it is monotone
/// (non-increasing) in the required period, which holds for every
/// parameter set with `steps >= 1`: each branch compares against a fixed
/// value, and the middle branch composes `start - x`, a division by the
/// step, `floor`, a saturating cast and a `min`, all monotone for a
/// positive step (for any other step that branch is unreachable or
/// constant). A sweep with no steps gets an empty class for every guess,
/// so every draw takes the exact path.
fn class_edges(params: &GlitchParams) -> Vec<f64> {
    if params.steps == 0 {
        return vec![f64::NEG_INFINITY, f64::INFINITY];
    }
    let steps = usize::from(params.steps);
    let ordinal = |x: f64| match onset_for_required(params, x) {
        FaultOnset::Step(s) => usize::from(s),
        FaultOnset::Never => steps,
    };
    let mut edges = Vec::with_capacity(steps + 2);
    edges.push(f64::INFINITY);
    for k in 0..steps {
        // Class k's lower edge sits at period_at(k) up to rounding.
        let guess = params.period_at(k as u16);
        edges.push(least_satisfying(guess, |x| ordinal(x) <= k));
    }
    edges.push(f64::NEG_INFINITY);
    edges
}

/// The least `x` (in the total order of non-NaN `f64`s, infinities
/// included) for which the monotone predicate `holds` is true: `-inf` if
/// it holds everywhere, NaN — which fails every later comparison — if it
/// holds nowhere. Bisects within 64 ulps of `guess` when that brackets
/// the answer, else over the whole line.
fn least_satisfying(guess: f64, holds: impl Fn(f64) -> bool) -> f64 {
    let (min, max) = (order_key(f64::NEG_INFINITY), order_key(f64::INFINITY));
    if holds(f64::NEG_INFINITY) {
        return f64::NEG_INFINITY;
    }
    if !holds(f64::INFINITY) {
        return f64::NAN;
    }
    // Invariant: !holds(key lo) && holds(key hi).
    let (mut lo, mut hi) = (min, max);
    if !guess.is_nan() {
        let g = order_key(guess);
        let (a, b) = (g.saturating_sub(64).max(min), g.saturating_add(64).min(max));
        if !holds(from_order_key(a)) && holds(from_order_key(b)) {
            (lo, hi) = (a, b);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(from_order_key(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    from_order_key(hi)
}

/// Maps a non-NaN `f64` to a `u64` with the same order.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// log2 of the number of linear-interpolation intervals per table.
const TABLE_BITS: u32 = 10;
const TABLE_LEN: usize = 1 << TABLE_BITS;

/// Bound on |ln(u1) − table ln(u1)|: linear interpolation of ln on
/// `[1, 2)` with step h = 2⁻¹⁰ errs by at most h²/8 · max|ln''| = 2⁻²³,
/// plus 10⁻¹² for the rounding of the table entries, the interpolation
/// and `e · ln 2` (all below 10⁻¹³).
const LN_ERR: f64 = 1.0 / (8.0 * (TABLE_LEN * TABLE_LEN) as f64) + 1e-12;

/// Bound on |cos(2πu2) − table cos(2πu2)|: h²/8 · max|d²/du² cos(2πu)|
/// = (2π/2¹⁰)²/8 ≈ 4.7·10⁻⁶, plus 10⁻¹² for rounding.
const COS_ERR: f64 = {
    let h = 2.0 * std::f64::consts::PI / TABLE_LEN as f64;
    h * h / 8.0 + 1e-12
};

/// Allowance for the exact path's own libm rounding (ln, cos, sqrt and
/// the products: a few ulps of |z| ≤ Z_MAX, below 10⁻¹³).
const Z_LIB_ERR: f64 = 1e-9;

/// A bound on |z| for every `u1` ≥ the smallest normal `f64`:
/// √(2 · 1022 · ln 2) ≈ 37.7, for the exact sample and the table one.
const Z_MAX: f64 = 39.0;

/// Linear-interpolation tables for a fast Box–Muller sample with a
/// certified absolute error (see [`NormalTables::normal`]).
#[derive(Debug)]
struct NormalTables {
    /// `ln(1 + i / TABLE_LEN)` for `i` in `0..=TABLE_LEN`.
    ln: [f64; TABLE_LEN + 1],
    /// `cos(2π i / TABLE_LEN)` for `i` in `0..=TABLE_LEN`.
    cos: [f64; TABLE_LEN + 1],
    /// Bound on |√x_a − √x| when x_a ≥ 1 (x = −2 ln u1, x_a its table
    /// value, |x_a − x| ≤ δ = 2·LN_ERR): δ / (√x_a + √x) ≤ δ, widened
    /// by `(1 + 2·COS_ERR)` for the product with the cosine.
    sqrt_err_large: f64,
    /// The same when x_a < 1 (u1 near 1, where √ is steep): √δ.
    sqrt_err_small: f64,
}

impl NormalTables {
    fn get() -> &'static NormalTables {
        static TABLES: OnceLock<NormalTables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let n = TABLE_LEN as f64;
            let widen = 1.0 + 2.0 * COS_ERR;
            let delta = 2.0 * LN_ERR;
            NormalTables {
                ln: std::array::from_fn(|i| (1.0 + i as f64 / n).ln()),
                cos: std::array::from_fn(|i| (2.0 * std::f64::consts::PI * i as f64 / n).cos()),
                sqrt_err_large: (delta + 1e-12) * widen,
                sqrt_err_small: (delta.sqrt() + 1e-12) * widen,
            }
        })
    }

    /// An approximation `z` of `box_muller(u1, u2)`, and its `√x`: `u1`
    /// must be a positive normal number (every nudged `gen::<f64>()` draw
    /// is) and `u2` in `[0, 1)`.
    ///
    /// ln(u1) = e·ln 2 + ln(m) with `m` in `[1, 2)` read off the bits.
    /// With √ exact to rounding, |z − z_exact| ≤ δ√·(1 + 2·COS_ERR) +
    /// √x·COS_ERR + Z_LIB_ERR, where δ√ is `sqrt_err_large` when
    /// `√x ≥ 1` and `sqrt_err_small` otherwise.
    #[inline]
    fn normal(&self, u1: f64, u2: f64) -> (f64, f64) {
        const FRAC_BITS: u32 = 52 - TABLE_BITS;
        let bits = u1.to_bits();
        let exponent = (bits >> 52) as i64 - 1023;
        let mantissa = bits & ((1 << 52) - 1);
        let i = (mantissa >> FRAC_BITS) as usize;
        let f = (mantissa & ((1 << FRAC_BITS) - 1)) as f64 / (1u64 << FRAC_BITS) as f64;
        let ln_m = self.ln[i] + (self.ln[i + 1] - self.ln[i]) * f;
        let x = (-2.0 * (exponent as f64 * std::f64::consts::LN_2 + ln_m)).max(0.0);
        let s = x.sqrt();
        // `p` is in [0, TABLE_LEN), so the cast is exact truncation.
        let p = u2 * TABLE_LEN as f64;
        let j = (p as i64 as usize) & (TABLE_LEN - 1);
        let g = p - j as f64;
        let c = self.cos[j] + (self.cos[j + 1] - self.cos[j]) * g;
        (s * c, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> GlitchParams {
        GlitchParams {
            start_period_ps: 10_000.0,
            step_ps: 35.0,
            steps: 51,
            setup_ps: 180.0,
            noise_ps: 0.0,
        }
    }

    #[test]
    fn period_decreases_linearly() {
        let p = params();
        assert_eq!(p.period_at(0), 10_000.0);
        assert_eq!(p.period_at(1), 9_965.0);
        assert_eq!(p.period_at(50), 10_000.0 - 50.0 * 35.0);
    }

    #[test]
    fn onset_matches_linear_search() {
        let sweep = GlitchSweep::new(params());
        for required in [9_990.0, 9_965.1, 9_930.0, 8_260.0, 10_100.0, 8_100.0] {
            // Reference: first k with period < required.
            let mut want = FaultOnset::Never;
            for k in 0..51 {
                if sweep.params().period_at(k) < required {
                    want = FaultOnset::Step(k);
                    break;
                }
            }
            assert_eq!(
                sweep.onset_for_required(required),
                want,
                "required {required}"
            );
        }
    }

    #[test]
    fn slower_paths_fault_earlier() {
        let sweep = GlitchSweep::new(params());
        let mut rng = StdRng::seed_from_u64(1);
        let onsets = sweep.fault_onsets(
            &[Some(9_500.0), Some(9_000.0), Some(8_500.0), None],
            &mut rng,
        );
        let s: Vec<Option<u16>> = onsets.iter().map(|o| o.step()).collect();
        assert!(s[0].unwrap() < s[1].unwrap());
        assert!(s[1].unwrap() < s[2].unwrap());
        assert_eq!(s[3], None);
    }

    #[test]
    fn delay_estimate_inverts_onset_within_one_step() {
        let sweep = GlitchSweep::new(params());
        let required = 9_471.0;
        let FaultOnset::Step(k) = sweep.onset_for_required(required) else {
            panic!("must fault");
        };
        let est = sweep.params().delay_estimate_ps(k);
        assert!(est < required && est > required - 35.0 - 1e-9, "est {est}");
    }

    #[test]
    fn noise_jitters_the_onset_by_about_one_step() {
        let p = GlitchParams {
            noise_ps: 20.0,
            ..params()
        };
        let sweep = GlitchSweep::new(p);
        // Fixed-seed statistical check: the seed is pinned to a stream
        // that keeps the 200-draw extreme within ±3σ (the bound below is
        // a ~2/3-probability event per stream, so the pin matters).
        let mut rng = StdRng::seed_from_u64(1);
        // Requirement placed exactly between two steps.
        let settle = vec![Some(9_482.5 - p.setup_ps)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            if let Some(s) = sweep.fault_onsets(&settle, &mut rng)[0].step() {
                seen.insert(s);
            }
        }
        assert!(seen.len() >= 2, "noise should straddle steps: {seen:?}");
        assert!(seen.len() <= 4, "noise too violent: {seen:?}");
    }

    #[test]
    fn never_sentinel_is_distinct_from_every_real_onset() {
        let p = params();
        let sweep = GlitchSweep::new(p);
        // A requirement just barely above the sweep floor faults exactly on
        // the last step; the clamp in onset_for_required keeps it at
        // steps - 1.
        let floor = p.period_at(p.steps - 1);
        assert_eq!(
            sweep.onset_for_required(floor + 0.5),
            FaultOnset::Step(p.steps - 1)
        );
        // A requirement below the floor never faults, and its numeric
        // encoding sits strictly past every genuine onset.
        assert_eq!(sweep.onset_for_required(floor - 0.5), FaultOnset::Never);
        assert_eq!(p.never_onset_steps(), f64::from(p.steps));
        for k in 0..p.steps {
            assert!(f64::from(k) < p.never_onset_steps());
        }
    }

    #[test]
    fn the_table_sample_decides_almost_every_paper_draw() {
        // The paper's sweep at its 12 ps noise over 2²⁰ draws with the
        // requirement spread across the sweep: the certified path must
        // decide all but a sliver of them (each fallback costs a full
        // Box–Muller draw), and agree with the exact path where it does.
        let sweep = GlitchSweep::new(GlitchParams::paper_sweep(9_000.0, 180.0, 12.0));
        let mut rng = StdRng::seed_from_u64(2015);
        let draws = 1u32 << 20;
        let mut fallbacks = 0u32;
        for _ in 0..draws {
            let required = 7_300.0 + 2_000.0 * rng.gen::<f64>();
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let exact = sweep.onset_for_required(required + 12.0 * box_muller(u1, u2));
            match sweep.certified_onset(required, u1, u2) {
                Some(onset) => assert_eq!(onset, exact, "required {required}, u1 {u1}, u2 {u2}"),
                None => fallbacks += 1,
            }
        }
        let rate = f64::from(fallbacks) / f64::from(draws);
        eprintln!("fallback rate {rate:.2e} ({fallbacks} of {draws})");
        assert!(rate < 1e-3, "fallback rate {rate}");
    }

    #[test]
    fn paper_sweep_covers_the_slowest_path() {
        let p = GlitchParams::paper_sweep(9_000.0, 180.0, 12.0);
        assert_eq!(p.steps, 51);
        assert_eq!(p.step_ps, 35.0);
        let sweep = GlitchSweep::new(p);
        // The slowest path faults a few steps in.
        let FaultOnset::Step(k) = sweep.onset_for_required(9_000.0) else {
            panic!("must fault within sweep");
        };
        assert!((2..=5).contains(&k), "k = {k}");
    }
}
