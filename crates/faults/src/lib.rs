//! # htd-faults — deterministic, index-derived fault injection
//!
//! A [`FaultPlan`] decides, purely from a seed and the *identity* of a
//! measurement event — never from scheduling order, wall-clock time or
//! worker count — whether that event fails. The decision function mirrors
//! the engine's per-(pair, rep) noise-seed schedule: every fault site is
//! keyed by the index words that name the event (channel index,
//! population tag, die index, attempt number, …), so a campaign replayed
//! with 1, 2 or 8 workers injects the *same* faults at the *same* places
//! and degrades to a bit-identical report.
//!
//! Four sites cover the bench failure modes the paper's protocol has to
//! survive:
//!
//! * [`FaultSite::Acquire`] — a whole acquisition is garbage (scope
//!   glitch, lost trigger). The caller re-acquires with a fresh seed from
//!   [`retry_seed`].
//! * [`FaultSite::Rep`] — one sweep repetition inside a delay acquisition
//!   is dropped; surviving repetitions are averaged ([`RepHealth`] counts
//!   the quarantine).
//! * [`FaultSite::Calibrate`] — a calibration pass diverges and must be
//!   re-run.
//! * [`FaultSite::StoreRead`] — an artifact read hits a corrupt block.
//!   No reader or campaign fires this site; store-corruption tests
//!   consult it to decide *which* stored lines to corrupt/drop when
//!   exercising the store's salvage path.
//!
//! The no-fault plan is free: [`FaultPlan::none`] short-circuits before
//! any hashing, and [`retry_seed`] is the identity on attempt 0, so a
//! fault-aware code path fed the none-plan performs exactly the same
//! floating-point work as its fault-oblivious ancestor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A named failure site inside the measurement stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A whole channel acquisition fails (returns garbage / times out).
    Acquire,
    /// One sweep repetition inside an acquisition is dropped.
    Rep,
    /// A calibration pass diverges.
    Calibrate,
    /// A stored artifact block is read back corrupt.
    StoreRead,
}

impl FaultSite {
    /// The site's domain-separation tag mixed into every decision hash.
    fn tag(self) -> u64 {
        match self {
            FaultSite::Acquire => 0x4143_5155_4952_4531,
            FaultSite::Rep => 0x5245_5045_5449_5431,
            FaultSite::Calibrate => 0x4341_4C49_4252_4131,
            FaultSite::StoreRead => 0x5354_4F52_4552_4431,
        }
    }
}

/// A seeded, index-derived fault schedule: one firing rate per
/// [`FaultSite`], evaluated by hashing the event's index words.
///
/// Rates are probabilities in `[0, 1]`. A rate of `0` never fires (and
/// skips hashing entirely); a rate of `1` always fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed of the fault schedule.
    pub seed: u64,
    /// Probability that an acquisition attempt fails.
    pub acquire_rate: f64,
    /// Probability that one sweep repetition is dropped.
    pub rep_rate: f64,
    /// Probability that a calibration attempt diverges.
    pub calibrate_rate: f64,
    /// Probability that a stored block reads back corrupt (consulted by
    /// store-corruption harnesses, not by the measurement loop).
    pub store_rate: f64,
}

impl FaultPlan {
    /// The no-fault plan: every rate zero. [`FaultPlan::fires`] is
    /// constant `false` and costs no hashing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            acquire_rate: 0.0,
            rep_rate: 0.0,
            calibrate_rate: 0.0,
            store_rate: 0.0,
        }
    }

    /// `true` when no site a measurement campaign fires — acquisition,
    /// repetition, calibration — can fire. The store-read rate does not
    /// count: no campaign fires that site, so a plan setting only it
    /// leaves a campaign pristine.
    pub fn is_inert(&self) -> bool {
        self.acquire_rate <= 0.0 && self.rep_rate <= 0.0 && self.calibrate_rate <= 0.0
    }

    /// The firing rate configured for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::Acquire => self.acquire_rate,
            FaultSite::Rep => self.rep_rate,
            FaultSite::Calibrate => self.calibrate_rate,
            FaultSite::StoreRead => self.store_rate,
        }
    }

    /// Whether the event identified by `ctx` fails at `site`.
    ///
    /// Pure in `(self.seed, site, ctx)`: the same words always produce
    /// the same verdict, regardless of call order or thread. Callers
    /// must include every index that names the event — and the attempt
    /// number, so a retry of the same event rolls a fresh decision.
    pub fn fires(&self, site: FaultSite, ctx: &[u64]) -> bool {
        let rate = self.rate(site);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut h = splitmix64(self.seed ^ site.tag());
        for &word in ctx {
            h = splitmix64(h ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        unit(h) < rate
    }
}

/// The acquisition seed for retry `attempt` of an event whose first
/// attempt uses `base`.
///
/// Attempt 0 returns `base` unchanged — the guarantee that lets the
/// fault-aware acquire path reproduce the historical no-fault streams
/// bit-for-bit. Later attempts derive fresh, decorrelated seeds, the
/// "backoff" being in seed space rather than wall-clock: a retry is a
/// re-measurement with new noise, not a replay of the failed one.
pub fn retry_seed(base: u64, attempt: usize) -> u64 {
    if attempt == 0 {
        return base;
    }
    splitmix64(base ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Repetition-level quarantine statistics of one acquisition attempt
/// (delay sweeps only; trace channels have no internal repetitions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepHealth {
    /// Sweep cells (pair × repetition) the attempt scheduled.
    pub attempted: usize,
    /// Sweep cells dropped by injected repetition faults.
    pub dropped: usize,
}

/// `splitmix64` finalizer: the avalanche permutation behind both the
/// decision hash and the retry-seed derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to the unit interval `[0, 1)` with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half() -> FaultPlan {
        FaultPlan {
            seed: 7,
            acquire_rate: 0.5,
            rep_rate: 0.5,
            calibrate_rate: 0.5,
            store_rate: 0.5,
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_site_and_ctx() {
        let plan = half();
        for i in 0..64u64 {
            let ctx = [i, i * 3, i ^ 5, 0];
            assert_eq!(
                plan.fires(FaultSite::Acquire, &ctx),
                plan.fires(FaultSite::Acquire, &ctx)
            );
        }
        // Different sites and seeds decorrelate.
        let other = FaultPlan { seed: 8, ..half() };
        let agree_site = (0..256u64)
            .filter(|&i| plan.fires(FaultSite::Acquire, &[i]) == plan.fires(FaultSite::Rep, &[i]))
            .count();
        let agree_seed = (0..256u64)
            .filter(|&i| {
                plan.fires(FaultSite::Acquire, &[i]) == other.fires(FaultSite::Acquire, &[i])
            })
            .count();
        assert!(
            (64..192).contains(&agree_site),
            "sites correlated: {agree_site}"
        );
        assert!(
            (64..192).contains(&agree_seed),
            "seeds correlated: {agree_seed}"
        );
    }

    #[test]
    fn rate_extremes_short_circuit() {
        let none = FaultPlan::none();
        assert!(none.is_inert());
        assert!(FaultPlan {
            store_rate: 1.0,
            ..FaultPlan::none()
        }
        .is_inert());
        let all = FaultPlan {
            seed: 1,
            acquire_rate: 1.0,
            rep_rate: 0.0,
            calibrate_rate: 0.0,
            store_rate: 0.0,
        };
        assert!(!all.is_inert());
        for i in 0..100u64 {
            assert!(!none.fires(FaultSite::Acquire, &[i]));
            assert!(all.fires(FaultSite::Acquire, &[i]));
            assert!(!all.fires(FaultSite::Rep, &[i]));
        }
    }

    #[test]
    fn observed_frequency_tracks_the_rate() {
        for &rate in &[0.1, 0.25, 0.5, 0.9] {
            let plan = FaultPlan {
                seed: 0xD1CE,
                acquire_rate: rate,
                rep_rate: 0.0,
                calibrate_rate: 0.0,
                store_rate: 0.0,
            };
            let n = 20_000u64;
            let hits = (0..n)
                .filter(|&i| plan.fires(FaultSite::Acquire, &[i, i / 7]))
                .count();
            let observed = hits as f64 / n as f64;
            assert!(
                (observed - rate).abs() < 0.02,
                "rate {rate}: observed {observed}"
            );
        }
    }

    #[test]
    fn attempt_zero_retry_seed_is_the_identity() {
        for base in [0u64, 1, 42, u64::MAX] {
            assert_eq!(retry_seed(base, 0), base);
            let later: Vec<u64> = (1..5).map(|a| retry_seed(base, a)).collect();
            assert!(!later.contains(&base));
            let mut uniq = later.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), later.len(), "retry seeds collide for {base}");
        }
    }

    #[test]
    fn ctx_words_all_matter() {
        let plan = half();
        let base = [3u64, 1, 4, 1];
        let flips = (0..4)
            .filter(|&w| {
                let mut ctx = base;
                ctx[w] ^= 0x8000_0000_0000_0001;
                // Perturbing any single word must be *able* to flip the
                // verdict somewhere; scan a few neighbourhoods.
                (0..64u64).any(|k| {
                    let mut a = base;
                    let mut b = ctx;
                    a[3] = k;
                    b[3] = k;
                    if w == 3 {
                        b[3] = k ^ 0x8000_0000_0000_0001;
                    }
                    plan.fires(FaultSite::Acquire, &a) != plan.fires(FaultSite::Acquire, &b)
                })
            })
            .count();
        assert_eq!(flips, 4);
    }
}
