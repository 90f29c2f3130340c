//! Electromagnetic (and power) side-channel measurement chain simulation.
//!
//! Models the paper's bench (Appendix B): a Langer RFU-5-2-class probe over
//! a Virtex-5, a 30 dB amplifier and an Agilent 54853A oscilloscope at
//! 5 GS/s, with the device clocked at 24 MHz. The pipeline is physical at
//! every stage:
//!
//! 1. [`ActivityTable`] turns each toggle of a timed clock cycle
//!    ([`htd_timing::TimedRun`]) into a charge injection at a die
//!    position ([`CurrentEvent`]), scaled by the die's process-variation
//!    current factors (this is where inter-die EM personality comes from).
//! 2. [`Probe`] weights each event by its position coupling and rings with
//!    a damped-sinusoid impulse response.
//! 3. [`EmSetup::acquire`] bins the weighted events onto the scope time
//!    base through [`ImpulseTrain`] (the crate's one binning kernel,
//!    which `htd-core` also feeds straight from its event replay),
//!    convolves, applies amplifier gain, adds acquisition noise (scaled
//!    by `1/√N` for N-fold trace averaging, exact for the
//!    additive-Gaussian noise model) plus a small per-installation gain
//!    error (the "setup noise" the paper cancels by averaging in Fig. 5),
//!    and quantises like an 8-bit scope front-end.
//! 4. [`PowerSetup`] is the global power-measurement baseline: no spatial
//!    selectivity and a lower measurement bandwidth — the comparison point
//!    for the paper's claim that EM gives better spatial and temporal
//!    resolution.
//!
//! Traces live in [`Trace`], which also carries the arithmetic the
//! detection metrics need (differences, absolute values, means).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod chain;
mod power;
mod probe;
pub mod scan;
mod trace;

pub use activity::{ActivityTable, CurrentEvent};
pub use chain::{
    bin_events_indexed, convolve_kernel, read_out, AcquisitionParams, BinStats, EmSetup,
    ImpulseTrain, Scope,
};
pub use power::PowerSetup;
pub use probe::Probe;
pub use trace::Trace;
