//! The structural rewrite pass.
//!
//! [`FullOptimize`] runs the rebuild kernel
//! ([`kernel::rewrite`](super::kernel)) and is the canned pipeline behind
//! [`Netlist::optimize`](crate::Netlist::optimize): constant propagation,
//! dead-logic elimination, pin dropping, buffer sweeping and duplicate
//! merging, applied jointly in one rebuild per sweep.

use super::kernel;
use super::{Diagnostics, Pass, PassOutcome};
use crate::{Netlist, NetlistError};

/// The fused optimizer: constant propagation, constant-buffer
/// elimination, dead/undriven-net elimination, unused-pin dropping,
/// buffer sweeping and duplicate merging applied jointly in one rebuild
/// per sweep — the legacy `optimize_once` algorithm, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullOptimize;

impl Pass for FullOptimize {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn run(&self, netlist: &Netlist, diags: &mut Diagnostics) -> Result<PassOutcome, NetlistError> {
        diags.record_run(self.name());
        let opt = kernel::rewrite(netlist)?;
        diags.record_rewrite(self.name(), netlist, &opt.netlist);
        Ok(PassOutcome::Rewritten(opt))
    }
}
