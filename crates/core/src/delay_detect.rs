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

use std::sync::atomic::{AtomicU16, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htd_faults::{FaultPlan, FaultSite, RepHealth};
use htd_timing::{FaultOnset, GlitchParams, GlitchSweep};

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
/// The campaign fans in two stages: one settle read per pair
/// ([`DieSettles::read`]), then one sweep task per pair × repetition
/// cell. Each cell's noise stream is a function of its indices, and
/// repetitions are reduced to means by exact integer sums of onset
/// steps, so the matrix is bit-identical for every worker count.
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
    let settles = DieSettles::read(engine, device, &campaign.pairs)?;
    Ok(settles.sweep(engine, campaign, params, noise_salt))
}

/// What the glitch bench reads from one programmed die: the round-10
/// settle time of every ciphertext bit for each campaign pair (about 128
/// values per pair), plus the die's register setup time and measurement
/// noise. A sweep needs nothing else from the device, so a campaign can
/// read this, drop the device, and sweep later — after the whole lot's
/// settles have aimed the sweep.
#[derive(Debug, Clone)]
pub struct DieSettles {
    /// `rows[pair][bit]`: the settle time in ps, `None` for a bit that
    /// did not toggle (it can never violate setup).
    pub rows: Vec<Vec<Option<f64>>>,
    /// The die's register setup time, ps.
    pub setup_ps: f64,
    /// Standard deviation of the per-measurement noise `dM`, ps.
    pub noise_ps: f64,
}

impl DieSettles {
    /// Reads the settle times of `pairs` from `device`: one settle
    /// simulation per pair, one task each on `engine`.
    ///
    /// # Errors
    ///
    /// Propagates settle-time simulation failures.
    pub fn read(
        engine: &Engine,
        device: &ProgrammedDevice<'_>,
        pairs: &[([u8; 16], [u8; 16])],
    ) -> Result<Self, Error> {
        let rows = engine
            .map(pairs, |_, (pt, key)| device.round10_settle_times(pt, key))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DieSettles {
            rows,
            setup_ps: device.annotation().setup_ps(),
            noise_ps: device.annotation().measurement_noise_ps(),
        })
    }

    /// The fault-free sweep of these settles under `campaign`'s
    /// repetitions and seed.
    fn sweep(
        &self,
        engine: &Engine,
        campaign: &DelayCampaign,
        params: &GlitchParams,
        noise_salt: u64,
    ) -> DelayMatrix {
        let (reps, seed, none) = (campaign.repetitions, campaign.seed, FaultPlan::none());
        match sweep_matrix_faulted(engine, self, reps, seed, params, noise_salt, &none, &[0; 4]) {
            // With the no-fault plan every repetition survives.
            Some((matrix, _)) => matrix,
            None => unreachable!("the no-fault plan drops no repetitions"),
        }
    }
}

/// The delay channel's acquisition: the noisy glitch sweep over
/// `settle + setup` of one die's read settle times, one task per
/// pair × repetition cell. `repetitions` and `campaign_seed` come from
/// the campaign, `noise_salt` decorrelates independent measurements.
///
/// Each cell may be quarantined at [`FaultSite::Rep`], and the per-pair
/// mean is taken over the surviving repetitions only. Returns `None`
/// when some pair loses *every* repetition — the whole acquisition
/// attempt is unusable and the caller should re-acquire with a fresh
/// seed. `ctx` names the enclosing acquisition (channel, population,
/// die, attempt); the pair and repetition indices are appended per
/// cell, so the same plan quarantines the same cells at any worker
/// count. Fed [`FaultPlan::none`], this is bit-identical to the
/// historical fault-oblivious measurement.
#[allow(clippy::too_many_arguments)]
pub fn sweep_matrix_faulted(
    engine: &Engine,
    settles: &DieSettles,
    repetitions: usize,
    campaign_seed: u64,
    params: &GlitchParams,
    noise_salt: u64,
    faults: &FaultPlan,
    ctx: &[u64; 4],
) -> Option<(DelayMatrix, RepHealth)> {
    let sweep = GlitchSweep::new(*params);
    // `settle + setup` per (pair, bit), hoisted out of the repetitions:
    // the sweep adds `noise · z` to it, the association `fault_onsets`
    // uses, so every onset is unchanged.
    let required: Vec<Vec<Option<f64>>> = settles
        .rows
        .iter()
        .map(|row| row.iter().map(|s| s.map(|s| s + params.setup_ps)).collect())
        .collect();
    let pairs = required.len();
    let reps = repetitions.max(1);
    // Every pair observes the same bits. Each (pair, repetition) cell
    // writes its onset ordinals (`steps` for `Never`, the sentinel's
    // value) into its own `bits`-wide slice of one buffer. `Relaxed`
    // suffices: the fan joins its workers before it returns, which orders
    // every store before the loads that reduce them.
    let bits = required.first().map_or(0, Vec::len);
    let cells = pairs * reps;
    let onsets: Vec<AtomicU16> = (0..cells * bits).map(|_| AtomicU16::new(0)).collect();
    let survived = engine.map_indexed(cells, |cell| {
        let pair_idx = cell / reps;
        let rep = cell % reps;
        if faults.fires(
            FaultSite::Rep,
            &[ctx[0], ctx[1], ctx[2], ctx[3], pair_idx as u64, rep as u64],
        ) {
            engine.obs().incr("faults.rep.fired");
            return false;
        }
        let mut rng =
            StdRng::seed_from_u64(rep_noise_seed(campaign_seed, noise_salt, pair_idx, rep));
        let row = &onsets[cell * bits..(cell + 1) * bits];
        for (slot, base) in row.iter().zip(&required[pair_idx]) {
            let onset = base.map_or(FaultOnset::Never, |b| sweep.noisy_onset(b, &mut rng));
            slot.store(onset.step().unwrap_or(params.steps), Ordering::Relaxed);
        }
        true
    });
    let mut health = RepHealth {
        attempted: survived.len(),
        dropped: 0,
    };
    let mut mean_onset_steps = Vec::with_capacity(pairs);
    for pair_idx in 0..pairs {
        let kept = &survived[pair_idx * reps..(pair_idx + 1) * reps];
        let survivors = kept.iter().filter(|&&k| k).count();
        health.dropped += reps - survivors;
        if survivors == 0 {
            return None;
        }
        // Integer sums are exact in any order, and each equals the f64
        // running sum of the same integers in repetition order, so the
        // mean is bit-identical to accumulating floats rep by rep.
        let mut acc = vec![0u64; bits];
        for rep in (0..reps).filter(|&rep| kept[rep]) {
            let cell = pair_idx * reps + rep;
            for (a, slot) in acc.iter_mut().zip(&onsets[cell * bits..(cell + 1) * bits]) {
                *a += u64::from(slot.load(Ordering::Relaxed));
            }
        }
        mean_onset_steps.push(acc.iter().map(|&a| a as f64 / survivors as f64).collect());
    }
    Some((DelayMatrix { mean_onset_steps }, health))
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
/// The settles are read once: the sweep is aimed on them, then swept
/// over them.
///
/// # Errors
///
/// Propagates settle-time simulation failures.
pub fn characterize_golden_with(
    engine: &Engine,
    device: &ProgrammedDevice<'_>,
    campaign: DelayCampaign,
) -> Result<GoldenDelayModel, Error> {
    let settles = DieSettles::read(engine, device, &campaign.pairs)?;
    // Aim the sweep at the slowest observed path over all pairs.
    let rows = settles.rows.iter().flatten();
    let max_required = rows.flatten().fold(0.0f64, |max, &s| max.max(s));
    let setup = settles.setup_ps;
    let params = GlitchParams::paper_sweep(max_required + setup, setup, settles.noise_ps);
    let matrix = settles.sweep(engine, &campaign, &params, 0);
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

/// The delay-based detector: a golden model plus the decision threshold
/// [`Self::DEFAULT_THRESHOLD_PS`].
#[derive(Debug, Clone)]
pub struct DelayDetector {
    golden: GoldenDelayModel,
}

impl DelayDetector {
    /// The decision threshold: two glitch steps (70 ps). Clean-vs-clean
    /// residue is bounded by the measurement noise over √repetitions,
    /// comfortably below it; HT-induced shifts (Fig. 3) are far above it.
    pub const DEFAULT_THRESHOLD_PS: f64 = 70.0;

    /// Builds a detector from a characterised golden model.
    pub fn new(golden: GoldenDelayModel) -> Self {
        DelayDetector { golden }
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
                        if diff > Self::DEFAULT_THRESHOLD_PS {
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
            threshold_ps: Self::DEFAULT_THRESHOLD_PS,
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

    #[test]
    fn the_sweep_keeps_the_pinned_fan_task_and_settle_counters() {
        // Aim + measure a 3-pair × 5-rep golden, then examine 2 pairs of
        // a second device: one settle fan and one pairs × reps fan per
        // matrix, one settle simulation per (device, pair) — the golden's
        // aim and sweep share one read.
        use crate::{Design, Lab};
        use htd_obs::Obs;
        let lab = Lab::paper();
        let golden = Design::golden(&lab).unwrap();
        let (die_a, die_b) = (lab.fabricate_die(0), lab.fabricate_die(1));
        let obs = Obs::recording();
        let engine = Engine::with_workers(2).with_obs(obs.clone());
        let dev_a = ProgrammedDevice::with_obs(&lab, &golden, &die_a, obs.clone());
        let dev_b = ProgrammedDevice::with_obs(&lab, &golden, &die_b, obs.clone());
        let model =
            characterize_golden_with(&engine, &dev_a, DelayCampaign::random(3, 5, 11)).unwrap();
        DelayDetector::new(model)
            .examine_pairs_with(&engine, &dev_b, 1, 2)
            .unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            obs.snapshot().unwrap().counters.into_iter().collect();
        for (name, want) in [
            ("engine.fans", 4),
            ("engine.tasks", 30),
            ("span.timing.settle", 5),
        ] {
            assert_eq!(counters.get(name), Some(&want), "{name}");
        }
    }
}
