//! Delay-based HT detection (paper Section III).
//!
//! Protocol, as in the paper:
//!
//! 1. Pick a set of random (plaintext, key) pairs. For each pair, run the
//!    encryption up to round 10 and sweep the glitched clock period down in
//!    35 ps steps, 51 steps total, repeating each sweep (default 10×) to
//!    average the measurement noise `dM`.
//! 2. The mean fault-onset step of each ciphertext bit is its delay
//!    estimate (Fig. 2).
//! 3. Characterise the Golden Model once; compare any device under test
//!    bit-by-bit and pair-by-pair via Eq. (4):
//!    `∆D(Na) = |∆D̄₁₀(Na) − D_HT(Na)|`. Bits whose difference exceeds the
//!    decision threshold are evidence of an HT; more pairs sample more
//!    bits and accumulate more evidence (Section III-B).
//!
//! The `*_with` entry points fan the campaign (settle simulation per
//! pair, then one task per pair × repetition cell) across an [`Engine`]'s
//! worker pool; the others run on the default engine. Noise streams are
//! derived from cell indices, never from scheduling order, so the
//! results are bit-identical for every worker count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htd_faults::{FaultPlan, FaultSite, RepHealth};
use htd_timing::{GlitchParams, GlitchSweep};

use crate::error::Error;
use crate::{Engine, ProgrammedDevice};

/// A delay-measurement campaign: the (plaintext, key) pairs, the per-pair
/// sweep repetitions and the base seed for measurement noise.
#[derive(Debug, Clone)]
pub struct DelayCampaign {
    /// The (plaintext, key) pairs exercised (the paper uses 50 for Fig. 3).
    pub pairs: Vec<([u8; 16], [u8; 16])>,
    /// Sweep repetitions per pair (the paper repeats 10×).
    pub repetitions: usize,
    /// Base seed for the measurement-noise draws.
    pub seed: u64,
}

impl DelayCampaign {
    /// A campaign over `n_pairs` uniformly random pairs.
    pub fn random(n_pairs: usize, repetitions: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00D3_1A7C_0A31_9B2D);
        let pairs = (0..n_pairs)
            .map(|_| {
                let mut pt = [0u8; 16];
                let mut key = [0u8; 16];
                rng.fill(&mut pt);
                rng.fill(&mut key);
                (pt, key)
            })
            .collect();
        DelayCampaign {
            pairs,
            repetitions,
            seed,
        }
    }

    /// The paper's Fig. 3 campaign: 50 pairs × 10 repetitions.
    pub fn paper(seed: u64) -> Self {
        Self::random(50, 10, seed)
    }
}

/// Mean fault-onset steps: `mean_onset_steps[pair][bit]`. Bits that never
/// faulted carry the [`GlitchParams::never_onset_steps`] sentinel — one
/// step past the end of the sweep, distinct from a genuine last-step
/// onset.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayMatrix {
    /// Mean onset step per pair per ciphertext bit.
    pub mean_onset_steps: Vec<Vec<f64>>,
}

impl DelayMatrix {
    /// Number of pairs measured.
    pub fn pair_count(&self) -> usize {
        self.mean_onset_steps.len()
    }

    /// Whether `other` has the same pairs × bits shape (the shape every
    /// element-wise comparison requires).
    pub(crate) fn same_shape(&self, other: &DelayMatrix) -> bool {
        self.pair_count() == other.pair_count()
            && self
                .mean_onset_steps
                .iter()
                .zip(&other.mean_onset_steps)
                .all(|(a, b)| a.len() == b.len())
    }
}

/// The characterised golden reference: sweep parameters (shared with every
/// later measurement, like the physical glitch bench) and the golden delay
/// matrix.
#[derive(Debug, Clone)]
pub struct GoldenDelayModel {
    /// Sweep parameters established on the golden device.
    pub params: GlitchParams,
    /// The golden mean-onset matrix.
    pub matrix: DelayMatrix,
    /// The campaign the matrix was measured with (a DUT must be measured
    /// with the same pairs for Eq. (4) to compare like with like).
    pub campaign: DelayCampaign,
}

/// The measurement-noise RNG stream of one (pair, repetition) cell. A
/// pure function of (campaign seed, noise salt, pair index, repetition
/// index): fanned sweeps draw identical noise no matter which worker
/// runs which cell. Repetition 0 reproduces the historical per-pair
/// stream head.
fn rep_noise_seed(campaign_seed: u64, noise_salt: u64, pair_idx: usize, rep: usize) -> u64 {
    campaign_seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(pair_idx as u64)
        .wrapping_add(noise_salt.wrapping_mul(0x51ED_270F))
        ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F)
}

/// Measures the mean-onset matrix of `device` under `campaign` using
/// `params`. `noise_salt` decorrelates the `dM` draws of independent
/// characterisations (golden vs DUT runs — `r1` vs `r2` in Eqns. 2–3).
///
/// The campaign fans in two stages: settle-time simulation per pair
/// (through the device's settle cache), then one task per
/// pair × repetition cell. Repetitions are reduced to means in
/// repetition order for every pair, so floating-point accumulation is
/// scheduling-independent and the matrix is bit-identical for every
/// worker count.
///
/// # Errors
///
/// Propagates settle-time simulation failures.
pub fn measure_matrix_with(
    engine: &Engine,
    device: &ProgrammedDevice<'_>,
    campaign: &DelayCampaign,
    params: &GlitchParams,
    noise_salt: u64,
) -> Result<DelayMatrix, Error> {
    match measure_matrix_faulted(
        engine,
        device,
        campaign,
        params,
        noise_salt,
        &FaultPlan::none(),
        &[0; 4],
    )? {
        // With the no-fault plan every repetition survives.
        Some((matrix, _)) => Ok(matrix),
        None => unreachable!("the no-fault plan drops no repetitions"),
    }
}

/// [`measure_matrix_with`] under a [`FaultPlan`]: each (pair, repetition)
/// cell may be quarantined at [`FaultSite::Rep`], and the per-pair mean
/// is taken over the surviving repetitions only (in repetition order, so
/// the reduction stays scheduling-independent). Returns `Ok(None)` when
/// some pair loses *every* repetition — the whole acquisition attempt is
/// unusable and the caller should re-acquire with a fresh seed.
///
/// `ctx` names the enclosing acquisition (channel, population, die,
/// attempt); the pair and repetition indices are appended per cell, so
/// the same plan quarantines the same cells at any worker count. Fed
/// [`FaultPlan::none`], this is bit-identical to the historical
/// fault-oblivious measurement.
///
/// # Errors
///
/// Propagates settle-time simulation failures.
pub fn measure_matrix_faulted(
    engine: &Engine,
    device: &ProgrammedDevice<'_>,
    campaign: &DelayCampaign,
    params: &GlitchParams,
    noise_salt: u64,
    faults: &FaultPlan,
    ctx: &[u64; 4],
) -> Result<Option<(DelayMatrix, RepHealth)>, Error> {
    let sweep = GlitchSweep::new(*params);
    let saturation = params.never_onset_steps();
    let settles = engine
        .map(&campaign.pairs, |_, (pt, key)| {
            device.round10_settle_times_cached(pt, key)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let reps = campaign.repetitions.max(1);
    let cells = engine.map_indexed(campaign.pairs.len() * reps, |cell| {
        let pair_idx = cell / reps;
        let rep = cell % reps;
        if faults.fires(
            FaultSite::Rep,
            &[ctx[0], ctx[1], ctx[2], ctx[3], pair_idx as u64, rep as u64],
        ) {
            engine.obs().incr("faults.rep.fired");
            return None;
        }
        let mut rng =
            StdRng::seed_from_u64(rep_noise_seed(campaign.seed, noise_salt, pair_idx, rep));
        Some(
            sweep
                .fault_onsets(&settles[pair_idx], &mut rng)
                .iter()
                .map(|o| o.step().map(f64::from).unwrap_or(saturation))
                .collect::<Vec<f64>>(),
        )
    });
    let mut health = RepHealth {
        attempted: cells.len(),
        dropped: 0,
    };
    let mut mean_onset_steps = Vec::with_capacity(campaign.pairs.len());
    for pair_idx in 0..campaign.pairs.len() {
        let rows = &cells[pair_idx * reps..(pair_idx + 1) * reps];
        let survivors = rows.iter().filter(|r| r.is_some()).count();
        health.dropped += reps - survivors;
        if survivors == 0 {
            return Ok(None);
        }
        let bits = settles[pair_idx].len();
        let mut acc = vec![0.0f64; bits];
        for rep_row in rows.iter().flatten() {
            for (bit, v) in rep_row.iter().enumerate() {
                acc[bit] += v;
            }
        }
        mean_onset_steps.push(acc.iter().map(|a| a / survivors as f64).collect());
    }
    Ok(Some((DelayMatrix { mean_onset_steps }, health)))
}

/// Characterises a golden device: establishes the sweep aim from the
/// measured settling times (the physical procedure — widen until nothing
/// faults, then step down) and records the golden matrix.
///
/// Uses the default (auto-sized) [`Engine`].
///
/// # Errors
///
/// Propagates settle-time simulation failures.
pub fn characterize_golden(
    device: &ProgrammedDevice<'_>,
    campaign: DelayCampaign,
) -> Result<GoldenDelayModel, Error> {
    characterize_golden_with(&Engine::default(), device, campaign)
}

/// [`characterize_golden`] on an explicit [`Engine`].
///
/// The aiming pass runs through the device's settle cache, so the matrix
/// measurement that follows re-uses every simulated settle instead of
/// simulating the whole campaign a second time.
///
/// # Errors
///
/// Propagates settle-time simulation failures.
pub fn characterize_golden_with(
    engine: &Engine,
    device: &ProgrammedDevice<'_>,
    campaign: DelayCampaign,
) -> Result<GoldenDelayModel, Error> {
    // Aim the sweep at the slowest observed path over all pairs.
    let settles = engine
        .map(&campaign.pairs, |_, (pt, key)| {
            device.round10_settle_times_cached(pt, key)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let mut max_required: f64 = 0.0;
    for per_pair in &settles {
        for s in per_pair.iter().flatten() {
            max_required = max_required.max(*s);
        }
    }
    let tech_setup = device.annotation().setup_ps();
    let noise = device.annotation().measurement_noise_ps();
    let params = GlitchParams::paper_sweep(max_required + tech_setup, tech_setup, noise);
    let matrix = measure_matrix_with(engine, device, &campaign, &params, 0)?;
    Ok(GoldenDelayModel {
        params,
        matrix,
        campaign,
    })
}

/// Per-device examination result.
#[derive(Debug, Clone)]
pub struct DelayEvidence {
    /// `diff_ps[pair][bit]`: Eq. (4) delay difference in ps.
    pub diff_ps: Vec<Vec<f64>>,
    /// Largest difference observed anywhere.
    pub max_diff_ps: f64,
    /// Distinct bits exceeding the threshold in at least one pair.
    pub flagged_bits: usize,
    /// Decision threshold used, ps.
    pub threshold_ps: f64,
    /// The verdict: `true` = hardware trojan suspected.
    pub infected: bool,
}

impl DelayEvidence {
    /// The per-bit maximum difference over all pairs (the y-values of the
    /// paper's Fig. 3, taking the worst pair per bit).
    pub fn per_bit_max(&self) -> Vec<f64> {
        if self.diff_ps.is_empty() {
            return Vec::new();
        }
        let bits = self.diff_ps[0].len();
        (0..bits)
            .map(|b| self.diff_ps.iter().map(|p| p[b]).fold(0.0, f64::max))
            .collect()
    }
}

/// The delay-based detector: a golden model plus a decision threshold.
#[derive(Debug, Clone)]
pub struct DelayDetector {
    golden: GoldenDelayModel,
    threshold_ps: f64,
}

impl DelayDetector {
    /// Default decision threshold: two glitch steps (70 ps). Clean-vs-clean
    /// residue is bounded by the measurement noise over √repetitions,
    /// comfortably below it; HT-induced shifts (Fig. 3) are far above it.
    pub const DEFAULT_THRESHOLD_PS: f64 = 70.0;

    /// Builds a detector from a characterised golden model.
    pub fn new(golden: GoldenDelayModel) -> Self {
        DelayDetector {
            golden,
            threshold_ps: Self::DEFAULT_THRESHOLD_PS,
        }
    }

    /// Overrides the decision threshold.
    pub fn with_threshold_ps(mut self, threshold_ps: f64) -> Self {
        self.threshold_ps = threshold_ps;
        self
    }

    /// The golden model.
    pub fn golden(&self) -> &GoldenDelayModel {
        &self.golden
    }

    /// Measures `device` with the golden campaign/sweep and evaluates
    /// Eq. (4) on every pair and bit. Uses the default (auto-sized)
    /// [`Engine`].
    ///
    /// # Errors
    ///
    /// Propagates settle-time simulation failures.
    pub fn examine(
        &self,
        device: &ProgrammedDevice<'_>,
        noise_salt: u64,
    ) -> Result<DelayEvidence, Error> {
        let n_pairs = self.golden.campaign.pairs.len();
        self.examine_pairs_with(&Engine::default(), device, noise_salt, n_pairs)
    }

    /// Like [`DelayDetector::examine`] on an explicit [`Engine`], using
    /// only the first `n_pairs` pairs — the evidence-vs-pairs ablation of
    /// Section III-B.
    ///
    /// # Errors
    ///
    /// [`Error::PairCountExceedsCampaign`] if `n_pairs` exceeds the golden
    /// campaign (the extra pairs would have no golden rows to compare
    /// against).
    pub fn examine_pairs_with(
        &self,
        engine: &Engine,
        device: &ProgrammedDevice<'_>,
        noise_salt: u64,
        n_pairs: usize,
    ) -> Result<DelayEvidence, Error> {
        let available = self.golden.campaign.pairs.len();
        if n_pairs > available {
            return Err(Error::PairCountExceedsCampaign {
                requested: n_pairs,
                available,
            });
        }
        let mut campaign = self.golden.campaign.clone();
        campaign.pairs.truncate(n_pairs);
        let dut = measure_matrix_with(engine, device, &campaign, &self.golden.params, noise_salt)?;
        let step = self.golden.params.step_ps;
        let mut max_diff = 0.0f64;
        let bits = self
            .golden
            .matrix
            .mean_onset_steps
            .first()
            .map(Vec::len)
            .unwrap_or(0);
        let mut bit_flagged = vec![false; bits];
        let diff_ps: Vec<Vec<f64>> = dut
            .mean_onset_steps
            .iter()
            .enumerate()
            .map(|(p, dut_row)| {
                let gm_row = &self.golden.matrix.mean_onset_steps[p];
                dut_row
                    .iter()
                    .zip(gm_row)
                    .enumerate()
                    .map(|(b, (d, g))| {
                        let diff = (d - g).abs() * step;
                        if diff > self.threshold_ps {
                            bit_flagged[b] = true;
                        }
                        max_diff = max_diff.max(diff);
                        diff
                    })
                    .collect()
            })
            .collect();
        let flagged_bits = bit_flagged.iter().filter(|&&f| f).count();
        Ok(DelayEvidence {
            diff_ps,
            max_diff_ps: max_diff,
            flagged_bits,
            threshold_ps: self.threshold_ps,
            infected: flagged_bits > 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_reproducible_and_distinct_by_seed() {
        let a = DelayCampaign::random(5, 10, 1);
        let b = DelayCampaign::random(5, 10, 1);
        let c = DelayCampaign::random(5, 10, 2);
        assert_eq!(a.pairs, b.pairs);
        assert_ne!(a.pairs, c.pairs);
        assert_eq!(DelayCampaign::paper(0).pairs.len(), 50);
        assert_eq!(DelayCampaign::paper(0).repetitions, 10);
    }

    #[test]
    fn rep_streams_are_distinct_and_anchored() {
        // Repetition 0 is the historical per-pair stream head; later
        // repetitions branch off without colliding across pairs.
        let base = rep_noise_seed(17, 3, 4, 0);
        assert_eq!(
            base,
            17u64
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(4)
                .wrapping_add(3u64.wrapping_mul(0x51ED_270F))
        );
        let mut seen = std::collections::BTreeSet::new();
        for pair in 0..8 {
            for rep in 0..10 {
                seen.insert(rep_noise_seed(17, 3, pair, rep));
            }
        }
        assert_eq!(seen.len(), 80);
    }
}
