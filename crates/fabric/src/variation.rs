//! Process-variation models: inter-die (global) and spatially-correlated
//! intra-die (per-slice) Gaussian perturbations.
//!
//! The paper models process variation as Gaussian noise (Section V-B,
//! citing Bowman et al. \[6\]) and distinguishes:
//!
//! * **intra-die** variation `dPV` — the per-net random delay inside one
//!   die (Eq. 2), which we realise as a spatially-correlated per-slice
//!   field (neighbouring slices track, distant slices decorrelate), and
//! * **inter-die** variation — the die-to-die personality spread that makes
//!   the 8-FPGA golden population of Section V disperse ("some FPGAs will
//!   emit more and some less").
//!
//! Every die is generated from a single `u64` seed so experiments are
//! exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::device::{Device, SliceCoord};

/// Draws a standard-normal sample via the Box–Muller transform.
///
/// `rand`'s core crate (the only RNG dependency allowed here) provides
/// uniform sampling only, so the Gaussian transform is implemented locally.
pub fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    box_muller(u1, u2)
}

/// The Box–Muller transform [`standard_normal`] applies to its two
/// uniform draws: `u1` in `(0, 1)` (already nudged away from zero) and
/// `u2` in `[0, 1)`. Exposed so a consumer that draws the uniforms
/// itself reproduces the sample bit for bit.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Statistical parameters of the process-variation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Relative sigma of the die-wide delay factor (inter-die).
    pub inter_die_delay_sigma: f64,
    /// Relative sigma of the per-slice delay factor (intra-die).
    pub intra_die_delay_sigma: f64,
    /// Relative sigma of the die-wide switching-current factor (inter-die).
    pub inter_die_current_sigma: f64,
    /// Relative sigma of the per-slice switching-current factor (intra-die).
    pub intra_die_current_sigma: f64,
    /// Correlation length of the intra-die field, in slice pitches.
    pub correlation_length: f64,
}

impl VariationModel {
    /// Parameters representative of a 65 nm process: a few percent global
    /// spread, ~1.5 % local delay spread with an 8-slice correlation
    /// length.
    pub fn nm65() -> Self {
        VariationModel {
            // The die-to-die speed spread dominates the EM-metric
            // dispersion (timing warp moves trace edges by about a sample),
            // so it is the calibrated knob for the paper's Section V
            // false-negative rates: 4 % puts HT 1 at a ~30 % FN rate and
            // HT 3 well past the paper's 95 % detection bar.
            inter_die_delay_sigma: 0.040,
            intra_die_delay_sigma: 0.015,
            inter_die_current_sigma: 0.060,
            intra_die_current_sigma: 0.025,
            correlation_length: 8.0,
        }
    }

    /// A zero-variation model (every factor exactly 1) — useful to isolate
    /// other effects in tests.
    pub fn none() -> Self {
        VariationModel {
            inter_die_delay_sigma: 0.0,
            intra_die_delay_sigma: 0.0,
            inter_die_current_sigma: 0.0,
            intra_die_current_sigma: 0.0,
            correlation_length: 8.0,
        }
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        VariationModel::nm65()
    }
}

/// The realised process variation of one fabricated (virtual) die.
#[derive(Debug, Clone, PartialEq)]
pub struct DieVariation {
    seed: u64,
    global_delay: f64,
    global_current: f64,
    slice_delay: Vec<f64>,
    slice_current: Vec<f64>,
    cols: u16,
}

impl DieVariation {
    /// Fabricates a die: draws the global factors and the correlated
    /// per-slice fields from `seed`.
    pub fn generate(model: &VariationModel, device: &Device, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let global_delay = 1.0 + model.inter_die_delay_sigma * standard_normal(&mut rng);
        let global_current = 1.0 + model.inter_die_current_sigma * standard_normal(&mut rng);
        let slice_delay = correlated_field(
            &mut rng,
            device,
            model.intra_die_delay_sigma,
            model.correlation_length,
        );
        let slice_current = correlated_field(
            &mut rng,
            device,
            model.intra_die_current_sigma,
            model.correlation_length,
        );
        DieVariation {
            seed,
            global_delay: global_delay.max(0.5),
            global_current: global_current.max(0.5),
            slice_delay,
            slice_current,
            cols: device.config().cols(),
        }
    }

    /// The seed this die was fabricated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Die-wide delay factor (1.0 = nominal).
    pub fn global_delay_factor(&self) -> f64 {
        self.global_delay
    }

    /// Die-wide switching-current factor (1.0 = nominal).
    pub fn global_current_factor(&self) -> f64 {
        self.global_current
    }

    /// Combined delay factor for logic in `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` lies outside the die this variation was generated
    /// for.
    pub fn delay_factor(&self, slice: SliceCoord) -> f64 {
        let idx = slice.y as usize * self.cols as usize + slice.x as usize;
        self.global_delay * self.slice_delay[idx]
    }

    /// Combined switching-current factor for logic in `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` lies outside the die.
    pub fn current_factor(&self, slice: SliceCoord) -> f64 {
        let idx = slice.y as usize * self.cols as usize + slice.x as usize;
        self.global_current * self.slice_current[idx]
    }
}

/// Generates a spatially-correlated multiplicative field with mean 1 and
/// standard deviation ≈ `sigma`: a coarse Gaussian grid at the correlation
/// length, bilinearly interpolated, mixed with an independent per-slice
/// term.
fn correlated_field<R: Rng>(
    rng: &mut R,
    device: &Device,
    sigma: f64,
    correlation_length: f64,
) -> Vec<f64> {
    let cols = device.config().cols() as usize;
    let rows = device.config().rows() as usize;
    if sigma == 0.0 {
        return vec![1.0; cols * rows];
    }
    let step = correlation_length.max(1.0);
    let gx = (cols as f64 / step).ceil() as usize + 2;
    let gy = (rows as f64 / step).ceil() as usize + 2;
    let coarse: Vec<f64> = (0..gx * gy).map(|_| standard_normal(rng)).collect();
    // Split the variance between correlated and independent components.
    let w_corr = (0.7f64).sqrt();
    let w_ind = (0.3f64).sqrt();
    let mut field = Vec::with_capacity(cols * rows);
    for y in 0..rows {
        for x in 0..cols {
            let fx = x as f64 / step;
            let fy = y as f64 / step;
            let x0 = fx.floor() as usize;
            let y0 = fy.floor() as usize;
            let tx = fx - x0 as f64;
            let ty = fy - y0 as f64;
            let g = |i: usize, j: usize| coarse[j.min(gy - 1) * gx + i.min(gx - 1)];
            let interp = g(x0, y0) * (1.0 - tx) * (1.0 - ty)
                + g(x0 + 1, y0) * tx * (1.0 - ty)
                + g(x0, y0 + 1) * (1.0 - tx) * ty
                + g(x0 + 1, y0 + 1) * tx * ty;
            let value = 1.0 + sigma * (w_corr * interp + w_ind * standard_normal(rng));
            field.push(value.max(0.5));
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    fn device() -> Device {
        Device::new(DeviceConfig::new(24, 24))
    }

    #[test]
    fn same_seed_same_die() {
        let m = VariationModel::nm65();
        let d = device();
        let a = DieVariation::generate(&m, &d, 7);
        let b = DieVariation::generate(&m, &d, 7);
        assert_eq!(a.global_delay_factor(), b.global_delay_factor());
        for s in d.slices() {
            assert_eq!(a.delay_factor(s), b.delay_factor(s));
            assert_eq!(a.current_factor(s), b.current_factor(s));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let m = VariationModel::nm65();
        let d = device();
        let a = DieVariation::generate(&m, &d, 1);
        let b = DieVariation::generate(&m, &d, 2);
        assert_ne!(a.global_delay_factor(), b.global_delay_factor());
    }

    #[test]
    fn zero_model_is_exactly_nominal() {
        let m = VariationModel::none();
        let d = device();
        let v = DieVariation::generate(&m, &d, 3);
        assert_eq!(v.global_delay_factor(), 1.0);
        for s in d.slices() {
            assert_eq!(v.delay_factor(s), 1.0);
            assert_eq!(v.current_factor(s), 1.0);
        }
    }

    #[test]
    fn intra_die_spread_has_roughly_requested_sigma() {
        let m = VariationModel::nm65();
        let d = device();
        let v = DieVariation::generate(&m, &d, 11);
        let g = v.global_delay_factor();
        let samples: Vec<f64> = d.slices().map(|s| v.delay_factor(s) / g - 1.0).collect();
        let sd = htd_stats_like_std(&samples);
        assert!(
            sd > m.intra_die_delay_sigma * 0.4 && sd < m.intra_die_delay_sigma * 2.0,
            "sd = {sd}"
        );
    }

    #[test]
    fn neighbours_correlate_more_than_distant_slices() {
        let m = VariationModel::nm65();
        let d = device();
        // Average over many dies to expose the correlation structure.
        let mut near = Vec::new();
        let mut far = Vec::new();
        for seed in 0..200 {
            let v = DieVariation::generate(&m, &d, seed);
            // Strip the die-wide factor: only the intra-die field carries
            // the spatial correlation structure.
            let g = v.global_delay_factor();
            let a = v.delay_factor(SliceCoord::new(5, 5)) / g;
            let b = v.delay_factor(SliceCoord::new(6, 5)) / g; // 1 pitch away
            let c = v.delay_factor(SliceCoord::new(20, 20)) / g; // far away
            near.push((a, b));
            far.push((a, c));
        }
        let corr = |pairs: &[(f64, f64)]| {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            pearson_like(&xs, &ys)
        };
        assert!(
            corr(&near) > corr(&far) + 0.1,
            "near {} far {}",
            corr(&near),
            corr(&far)
        );
    }

    #[test]
    fn gaussian_sampler_has_unit_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..20000).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    fn htd_stats_like_std(xs: &[f64]) -> f64 {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
    }

    fn pearson_like(xs: &[f64], ys: &[f64]) -> f64 {
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
        }
        sxy / (sxx * syy).sqrt()
    }
}
