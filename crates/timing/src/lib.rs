//! Timing engine: delay annotation, static timing analysis, timed event
//! simulation and the clock-glitch measurement of the paper's Section III.
//!
//! The pipeline mirrors a hardware timing flow:
//!
//! 1. [`DelayAnnotation::annotate`] stamps every cell and net of a *placed*
//!    netlist with a delay — intrinsic cell delay × process variation,
//!    plus a routed-wire delay from placement geometry, plus any
//!    trojan-induced increments registered later
//!    ([`DelayAnnotation::add_net_delay_ps`]).
//! 2. [`Sta`] computes worst-case arrival times and critical paths
//!    (data-independent upper bounds, used to aim the glitch sweep).
//! 3. [`CompiledSimulator`] replays one clock cycle with transport delays
//!    over a flattened [`CompiledTiming`], yielding each net's
//!    **data-dependent settling time** and the full toggle stream (which
//!    the EM crate turns into emanation traces).
//! 4. [`GlitchSweep`] converts settling times into the paper's measurement:
//!    the clock period shrinks in 35 ps steps until each observed bit
//!    faults; the step index at fault onset *is* the delay estimate
//!    (Fig. 2), blurred by the per-measurement noise `dM` of Eq. (2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotate;
mod compiled;
mod glitch;
mod sta;

pub use annotate::DelayAnnotation;
pub use compiled::{CompiledSimulator, CompiledTiming, TimedRun, Toggle};
pub use glitch::{FaultOnset, GlitchParams, GlitchSweep};
pub use sta::{CriticalPath, Sta};
