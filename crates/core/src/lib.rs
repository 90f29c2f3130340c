//! Hardware trojan detection by delay and electromagnetic measurements —
//! a full reproduction of Ngo et al., DATE 2015.
//!
//! This crate ties the substrates together into the paper's methodology:
//!
//! * [`Lab`] — the virtual laboratory: device, technology, process
//!   variation statistics, power grid, EM/power measurement chains and
//!   acquisition parameters, all matching the paper's bench (Appendix A/B).
//! * [`Design`] — a placed golden or trojan-infected AES-128
//!   (Section II), and [`ProgrammedDevice`] — a design loaded onto one
//!   seeded virtual die, ready for timed simulation and side-channel
//!   acquisition. An acquisition streams: its compiled replay bins every
//!   emitting toggle straight into each measurement chain's impulse
//!   train (a few thousand samples per chain), never storing the ~86 k
//!   toggles. The device holds only per-die constants, no per-pair
//!   result.
//! * [`delay_detect`] — Section III: the clock-glitch delay fingerprint.
//!   A [`GoldenDelayModel`](delay_detect::GoldenDelayModel) characterises
//!   the golden device per (plaintext, key) pair; the
//!   [`DelayDetector`](delay_detect::DelayDetector) compares a device
//!   under test bit by bit via Eq. (4).
//! * [`em_detect`] — Sections IV and V: direct averaged-trace comparison
//!   on one die (Fig. 5), the inter-die deviation statistic
//!   `D = |trace − E_n(G)|` (Fig. 6), the sum-of-local-maxima metric, and
//!   false-negative-rate estimation (Eq. 5, the headline 26 %/17 %/5 %
//!   table).
//! * [`channel`] — the pluggable channel architecture: every detection
//!   channel ([`TraceChannel`](channel::TraceChannel) over the EM or
//!   power chain, [`DelayChannel`](channel::DelayChannel)) implements
//!   the same acquire → characterize_golden → score stages.
//! * [`fusion`] — the one scoring pipeline: [`fusion::characterize`]
//!   drives any set of channels over one shared die population described
//!   by a [`CampaignPlan`], and [`fusion::score`] scores suspects against
//!   the result. A [`fusion::Reference`] picks the scoring mode — golden
//!   reference, or the self-referencing [`reffree`] mode — and a
//!   [`fusion::Campaign`] carries the engine, fault plan and retry
//!   policy.
//! * [`engine`] — the deterministic measurement engine: it fans pairs,
//!   repetitions and dies across a worker pool. Results are
//!   **bit-identical for every worker count** (noise streams derive from
//!   item indices, never from scheduling). Campaigns fan out over dies:
//!   each die task reads its die once through a
//!   [`DieReading`](channel::DieReading) — one activity replay shared by
//!   the EM and power channels, one settle read per pair shared by the
//!   delay channel's attempts — and drops the device once its die is
//!   measured, so a campaign holds at most one device per worker.
//! * [`report`] — plain-text table rendering shared by the benches.
//!
//! Every fallible API returns the unified [`Error`]; library code never
//! panics on fallible paths.
//!
//! # Quickstart
//!
//! ```
//! use htd_core::prelude::*;
//!
//! let lab = Lab::paper();
//! let golden = Design::golden(&lab)?;
//! let infected = Design::infected(&lab, &TrojanSpec::ht3())?;
//!
//! // Same die, same plaintext, averaged traces — the paper's Fig. 5.
//! let die = lab.fabricate_die(1);
//! let pt = [0x42u8; 16];
//! let key = [0x0Fu8; 16];
//! let g = ProgrammedDevice::new(&lab, &golden, &die).acquire_em_trace(&pt, &key, 7)?;
//! let t = ProgrammedDevice::new(&lab, &infected, &die).acquire_em_trace(&pt, &key, 8)?;
//! let diff = g.abs_diff(&t);
//! assert!(diff.peak() > 0.0);
//! # Ok::<(), htd_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod lab;

pub mod campaign;
pub mod channel;
pub mod delay_detect;
pub mod em_detect;
pub mod engine;
pub mod error;
pub mod fusion;
pub mod reffree;
pub mod report;
pub mod resilience;

pub use campaign::CampaignPlan;
pub use design::{Design, ProgrammedDevice};
pub use engine::Engine;
pub use error::Error;
pub use lab::Lab;

/// Convenient re-exports of the whole suite's primary types.
pub mod prelude {
    pub use crate::channel::{Channel, ChannelSpec, DelayChannel, DieReading, TraceChannel};
    pub use crate::delay_detect::{DelayDetector, DelayEvidence, GoldenDelayModel};
    pub use crate::em_detect::{EmDetector, EmGoldenModel, FnRateReport, SideChannel, TraceMetric};
    pub use crate::fusion::{
        masked_feature_rows, Campaign, ChannelResult, ChannelState, GoldenCharacterization,
        MultiChannelReport, MultiChannelRow, Reference, ScoredCampaign, ScoredChannel,
        ScoredDesign, ScoringSession, SpecScore,
    };
    pub use crate::reffree::{ReferenceFreeCharacterization, ReferenceFreeFit, ReferenceFreeState};
    pub use crate::resilience::{ChannelHealth, RetryPolicy};
    pub use crate::Engine;
    pub use crate::{CampaignPlan, Design, Error, Lab, ProgrammedDevice};
    pub use htd_aes::AesNetlist;
    pub use htd_em::Trace;
    pub use htd_fabric::{Device, DeviceConfig, Technology, VariationModel};
    pub use htd_faults::{FaultPlan, FaultSite};
    pub use htd_trojan::TrojanSpec;
}
