//! The campaign descriptor shared by every detection channel.
//!
//! A [`CampaignPlan`] collects, in one first-class value, everything that
//! used to be scattered across `DelayCampaign`, ad-hoc function arguments
//! and experiment parameter lists: the die population size, the trace
//! stimulus, the glitch-sweep (plaintext, key) pairs and repetitions, and
//! the **hierarchical seed tree** every measurement's randomness derives
//! from. Seeds are pure functions of (base seed, spec index, die index),
//! never of scheduling order, so any campaign executed through the
//! [`Channel`](crate::channel::Channel) stages is bit-identical for every
//! worker count.

use crate::delay_detect::DelayCampaign;

/// One multi-channel measurement campaign: population size, stimulus,
/// delay-sweep pairs and the seed hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Dies in the population (the paper uses 8; the Monte-Carlo
    /// extensions use hundreds).
    pub n_dies: usize,
    /// Plaintext of the trace stimulus (EM/power channels).
    pub pt: [u8; 16],
    /// Key of the trace stimulus (EM/power channels).
    pub key: [u8; 16],
    /// (plaintext, key) pairs of the glitch-sweep campaign (delay
    /// channel). May be empty for trace-only campaigns.
    pub pairs: Vec<([u8; 16], [u8; 16])>,
    /// Glitch-sweep repetitions per pair (averaging of `dM`).
    pub repetitions: usize,
    /// Base seed every measurement stream derives from.
    pub seed: u64,
    /// Seed stride between design populations: design `s` (0 = first
    /// suspect) measures with base `seed + spec_stride × (s + 1)`, so the
    /// golden (`seed` itself) and every suspect population draw disjoint
    /// noise streams.
    pub spec_stride: u64,
}

impl CampaignPlan {
    /// Seed stride used by the historical fused delay+EM experiment.
    pub const FUSION_SPEC_STRIDE: u64 = 0x2000;
    /// Seed stride used by the historical Section V FN-rate experiment.
    pub const FN_RATE_SPEC_STRIDE: u64 = 0x1000;

    /// A trace-only plan (no glitch pairs): what the Section V FN-rate
    /// experiment needs.
    pub fn traces(n_dies: usize, pt: [u8; 16], key: [u8; 16], seed: u64) -> Self {
        CampaignPlan {
            n_dies,
            pt,
            key,
            pairs: Vec::new(),
            repetitions: 0,
            seed,
            spec_stride: Self::FN_RATE_SPEC_STRIDE,
        }
    }

    /// A full multi-channel plan with `n_pairs` random glitch pairs ×
    /// `repetitions` sweeps (drawn exactly like
    /// [`DelayCampaign::random`], so historical fused campaigns replay
    /// bit-identically).
    pub fn with_random_pairs(
        n_dies: usize,
        n_pairs: usize,
        repetitions: usize,
        pt: [u8; 16],
        key: [u8; 16],
        seed: u64,
    ) -> Self {
        let delay = DelayCampaign::random(n_pairs, repetitions, seed);
        CampaignPlan {
            n_dies,
            pt,
            key,
            pairs: delay.pairs,
            repetitions,
            seed,
            spec_stride: Self::FUSION_SPEC_STRIDE,
        }
    }

    /// Overrides the spec seed stride (see [`CampaignPlan::spec_stride`]).
    pub fn with_spec_stride(mut self, spec_stride: u64) -> Self {
        self.spec_stride = spec_stride;
        self
    }

    /// Seed of golden die `j`'s measurements.
    pub fn die_seed(&self, die: usize) -> u64 {
        self.seed.wrapping_add(die as u64)
    }

    /// Base seed of suspect design `spec`'s population.
    pub fn spec_seed(&self, spec: usize) -> u64 {
        self.seed
            .wrapping_add(self.spec_stride.wrapping_mul(spec as u64 + 1))
    }

    /// Seed of die `j` within suspect design `spec`'s population.
    pub fn spec_die_seed(&self, spec: usize, die: usize) -> u64 {
        self.spec_seed(spec).wrapping_add(die as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_tree_is_hierarchical_and_disjoint() {
        let plan = CampaignPlan::traces(4, [0u8; 16], [1u8; 16], 100);
        assert_eq!(plan.die_seed(0), 100);
        assert_eq!(plan.die_seed(3), 103);
        assert_eq!(plan.spec_seed(0), 100 + 0x1000);
        assert_eq!(plan.spec_die_seed(1, 2), 100 + 0x2000 + 2);
        let fused = plan.with_spec_stride(CampaignPlan::FUSION_SPEC_STRIDE);
        assert_eq!(fused.spec_seed(0), 100 + 0x2000);
    }

    #[test]
    fn random_pairs_match_the_historical_delay_campaign() {
        let plan = CampaignPlan::with_random_pairs(8, 5, 3, [0u8; 16], [0u8; 16], 42);
        let legacy = DelayCampaign::random(5, 3, 42);
        assert_eq!(plan.pairs, legacy.pairs);
        assert_eq!(plan.repetitions, legacy.repetitions);
        assert_eq!(plan.seed, legacy.seed);
    }
}
