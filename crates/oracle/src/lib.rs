//! Reference oracles for the `htd` test suites.
//!
//! Every hot path in the library crates is pinned, bit for bit, to a
//! simpler implementation of the same semantics. Those references live
//! here, apart from the transforms they check, so the crates `htd` links
//! ship none of them. Only tests and benches depend on this crate.
//!
//! | oracle | pins |
//! |---|---|
//! | [`OptimizeReference`] | `Netlist::optimize` / `optimize_once` |
//! | [`EventSimulator`] | `htd_timing::CompiledSimulator` |
//! | [`collect_activity`] | `htd_em::ActivityTable` |
//! | [`acquire_with_reference`] | the staged `htd_em` acquisition kernels |
//! | [`timed_encryption_activity_reference`] | `ProgrammedDevice`'s compiled replay |
//!
//! [`ttest_compare`] (with [`welch`]) is the TVLA leakage assessment that
//! `tests/end_to_end_em.rs` runs as an alternative same-die detector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod chain;
mod design;
mod em_detect;
mod eventsim;
mod opt;
pub mod welch;

pub use activity::collect_activity;
pub use chain::acquire_with_reference;
pub use design::timed_encryption_activity_reference;
pub use em_detect::{ttest_compare, TtestComparison, TVLA_THRESHOLD};
pub use eventsim::EventSimulator;
pub use opt::OptimizeReference;
