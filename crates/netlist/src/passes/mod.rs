//! Composable netlist pass framework.
//!
//! A [`Pass`] is a named analysis or transformation over a [`Netlist`];
//! a [`PassManager`] runs an ordered pipeline of passes to a fixed point
//! and aggregates their [`Diagnostics`]. The framework follows the style
//! of rhdl's flow-graph passes: one fused structural rewrite
//! ([`FullOptimize`]: constant propagation, dead-logic elimination,
//! buffer sweeping, duplicate merging) plus pure *lint* passes that
//! report structural problems without touching the netlist.
//!
//! Because [`Netlist`] ids are stable-by-construction (cells are never
//! removed in place), rewrite passes do not mutate the input: they
//! rebuild a fresh netlist and return it as
//! [`PassOutcome::Rewritten`] together with the old→new id maps, exactly
//! like the legacy optimizer. The manager composes those maps across the
//! pipeline so callers can still translate original ids after any number
//! of sweeps.
//!
//! # Determinism rules
//!
//! * A pass's output is a pure function of its input netlist — no
//!   randomness, no ordering dependence on hash-map iteration, no clocks.
//! * Passes run in pipeline order; the manager re-sweeps until the
//!   netlist size (LUTs + nets) stabilises, capped at 32 re-sweeps,
//!   mirroring the legacy fixpoint loop.
//! * Diagnostics counters are keyed by pass name in sorted order, so the
//!   `pass.<name>.*` counter section is worker-invariant and
//!   byte-reproducible.
//!
//! # Example
//!
//! ```
//! use htd_netlist::passes::PassManager;
//! use htd_netlist::Netlist;
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let t = nl.const_net(true);
//! let x = nl.and2(a, t); // = a
//! nl.add_output("x", x)?;
//! let report = PassManager::standard().run(&nl)?;
//! assert_eq!(report.optimized.netlist.stats().luts, 0);
//! # Ok::<(), htd_netlist::NetlistError>(())
//! ```

pub(crate) mod kernel;
mod lint;
mod rewrite;

use std::collections::BTreeMap;
use std::fmt;

use crate::opt::Optimized;
use crate::{CellId, NetId, Netlist, NetlistError};

pub use lint::{CheckCombLoops, CheckFanout, CheckUnconnected};
pub use rewrite::FullOptimize;

/// Cap on the re-sweeps after the first, like the legacy optimizer.
const MAX_ITERATIONS: usize = 32;

/// What a pass did to the netlist.
#[derive(Debug, Clone)]
pub enum PassOutcome {
    /// The pass changed nothing (analyses and lint passes always return
    /// this).
    Clean,
    /// The pass rebuilt the netlist; the [`Optimized`] carries the new
    /// netlist plus old→new id maps.
    Rewritten(Optimized),
}

/// A named, deterministic analysis or transformation over a netlist.
pub trait Pass {
    /// Stable identifier used in diagnostics and `pass.<name>.*`
    /// counters. Lowercase snake_case by convention.
    fn name(&self) -> &'static str;

    /// Runs the pass. Rewrite passes return
    /// [`PassOutcome::Rewritten`]; lint passes record findings in
    /// `diags` and return [`PassOutcome::Clean`].
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from reconstruction (an internal
    /// invariant violation, not a user error).
    fn run(&self, netlist: &Netlist, diags: &mut Diagnostics) -> Result<PassOutcome, NetlistError>;
}

/// Per-pass aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// How many times the pass ran.
    pub runs: u64,
    /// Cells removed across all runs (old count − new count, saturating).
    pub cells_removed: u64,
    /// Nets removed across all runs (old count − new count, saturating).
    pub nets_removed: u64,
    /// Lint findings reported across all runs.
    pub lints: u64,
}

/// One lint finding: a structural problem a lint pass reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Name of the reporting pass.
    pub pass: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pass, self.message)
    }
}

/// Deterministic diagnostics sink shared by every pass in a pipeline.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    stats: BTreeMap<&'static str, PassStats>,
    lints: Vec<Lint>,
}

impl Diagnostics {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of `pass`.
    pub fn record_run(&mut self, pass: &'static str) {
        self.stats.entry(pass).or_default().runs += 1;
    }

    /// Records the size delta of a rewrite (saturating: a rebuild may
    /// legitimately add constant cells).
    pub fn record_rewrite(&mut self, pass: &'static str, before: &Netlist, after: &Netlist) {
        let s = self.stats.entry(pass).or_default();
        s.cells_removed += before.cell_count().saturating_sub(after.cell_count()) as u64;
        s.nets_removed += before.net_count().saturating_sub(after.net_count()) as u64;
    }

    /// Records one lint finding for `pass`.
    pub fn lint(&mut self, pass: &'static str, message: impl Into<String>) {
        self.stats.entry(pass).or_default().lints += 1;
        self.lints.push(Lint {
            pass,
            message: message.into(),
        });
    }

    /// Every lint finding, in emission order.
    pub fn lints(&self) -> &[Lint] {
        &self.lints
    }

    /// `true` when no lint pass reported anything.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// Statistics for one pass, if it ran.
    pub fn stats(&self, pass: &str) -> Option<PassStats> {
        self.stats.get(pass).copied()
    }

    /// All per-pass statistics, sorted by pass name.
    pub fn passes(&self) -> impl Iterator<Item = (&'static str, PassStats)> + '_ {
        self.stats.iter().map(|(&name, &s)| (name, s))
    }

    /// The diagnostics as deterministic observability counters:
    /// `pass.<name>.{runs,cells_removed,nets_removed,lints}` for every
    /// pass that ran, in sorted order, zeros included (so the counter
    /// schema does not depend on what the passes found).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.stats.len() * 4);
        for (name, s) in &self.stats {
            out.push((format!("pass.{name}.runs"), s.runs));
            out.push((format!("pass.{name}.cells_removed"), s.cells_removed));
            out.push((format!("pass.{name}.nets_removed"), s.nets_removed));
            out.push((format!("pass.{name}.lints"), s.lints));
        }
        out
    }
}

/// Result of a [`PassManager`] run: the final rebuilt netlist with
/// composed id maps, plus the aggregated diagnostics.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// The final netlist and the old→new id maps composed across every
    /// sweep (identity maps if no pass rewrote anything).
    pub optimized: Optimized,
    /// Aggregated per-pass statistics and lint findings.
    pub diagnostics: Diagnostics,
}

/// An ordered, deterministic pipeline of passes with fixed-point
/// iteration.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The canned optimization pipeline behind
    /// [`Netlist::optimize`](crate::Netlist::optimize): the fused
    /// [`FullOptimize`] rewrite, which applies every structural
    /// transformation jointly in one rebuild per sweep. The fusion is
    /// load-bearing: it is what keeps the pipeline bit-identical to the
    /// historical monolithic optimizer.
    pub fn standard() -> Self {
        Self::new().with_pass(FullOptimize)
    }

    /// The structural lint pipeline: unconnected-pin, combinational-loop
    /// and fanout-cap checks. Lint passes never rewrite, so this
    /// pipeline runs in a single sweep.
    pub fn lints() -> Self {
        Self::new()
            .with_pass(CheckUnconnected)
            .with_pass(CheckCombLoops)
            .with_pass(CheckFanout::default())
    }

    /// Appends a pass to the pipeline.
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs the pipeline to a fixed point and returns the final netlist,
    /// the composed id maps and the aggregated diagnostics.
    ///
    /// The pipeline sweeps once unconditionally; if any pass rewrote the
    /// netlist it keeps sweeping until the LUT and net counts stabilise
    /// (or the iteration cap is hit) — the same fixpoint criterion as
    /// the legacy `optimize`. Lint-only pipelines therefore run exactly
    /// one sweep; mixed pipelines re-run their lints each sweep.
    ///
    /// # Errors
    ///
    /// Propagates the first [`NetlistError`] a pass returns.
    pub fn run(&self, nl: &Netlist) -> Result<PassReport, NetlistError> {
        let mut diags = Diagnostics::new();
        let mut acc = Optimized {
            netlist: nl.clone(),
            cell_map: (0..nl.cell_count())
                .map(|i| Some(CellId::from_index(i)))
                .collect(),
            net_map: (0..nl.net_count())
                .map(|i| Some(NetId::from_index(i)))
                .collect(),
        };
        let rewrote = self.sweep(&mut acc, &mut diags)?;
        if rewrote {
            // Rewrites discovered *during* a rebuild only reach their
            // readers on the next sweep; iterate until the size
            // stabilises.
            for _ in 0..MAX_ITERATIONS {
                let before = acc.netlist.stats();
                self.sweep(&mut acc, &mut diags)?;
                let after = acc.netlist.stats();
                if after.luts == before.luts && after.nets == before.nets {
                    break;
                }
            }
        }
        Ok(PassReport {
            optimized: acc,
            diagnostics: diags,
        })
    }

    /// One in-order run of every pass, composing id maps across
    /// rewrites. Returns whether any pass rewrote the netlist.
    fn sweep(&self, acc: &mut Optimized, diags: &mut Diagnostics) -> Result<bool, NetlistError> {
        let mut rewrote = false;
        for pass in &self.passes {
            match pass.run(&acc.netlist, diags)? {
                PassOutcome::Clean => {}
                PassOutcome::Rewritten(next) => {
                    *acc = Optimized {
                        cell_map: acc
                            .cell_map
                            .iter()
                            .map(|m| m.and_then(|c| next.cell(c)))
                            .collect(),
                        net_map: acc
                            .net_map
                            .iter()
                            .map(|m| m.and_then(|n| next.net(n)))
                            .collect(),
                        netlist: next.netlist,
                    };
                    rewrote = true;
                }
            }
        }
        Ok(rewrote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_heavy() -> (Netlist, NetId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let t = nl.const_net(true);
        let f = nl.const_net(false);
        let x = nl.and2(a, f); // always 0
        let y = nl.or2(x, t); // always 1
        let z = nl.xor2(y, a); // = !a
        nl.add_output("z", z).unwrap();
        (nl, z)
    }

    #[test]
    fn standard_pipeline_matches_legacy_optimize() {
        let (nl, _) = const_heavy();
        let legacy = nl.optimize().unwrap();
        let report = PassManager::standard().run(&nl).unwrap();
        assert_eq!(legacy.netlist.to_text(), report.optimized.netlist.to_text());
        assert_eq!(legacy.cell_map, report.optimized.cell_map);
        assert_eq!(legacy.net_map, report.optimized.net_map);
    }

    #[test]
    fn diagnostics_counters_are_deterministic_and_complete() {
        let (nl, _) = const_heavy();
        let r1 = PassManager::standard().run(&nl).unwrap();
        let r2 = PassManager::standard().run(&nl).unwrap();
        let c1 = r1.diagnostics.counters();
        assert_eq!(c1, r2.diagnostics.counters());
        let names: Vec<&str> = c1.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"pass.optimize.runs"));
        assert!(names.contains(&"pass.optimize.cells_removed"));
        assert!(names.contains(&"pass.optimize.nets_removed"));
        assert!(names.contains(&"pass.optimize.lints"));
        let runs = r1.diagnostics.stats("optimize").unwrap().runs;
        assert!(runs >= 2, "fixpoint needs a confirming sweep, got {runs}");
    }

    #[test]
    fn lint_pipeline_runs_a_single_sweep() {
        let (nl, _) = const_heavy();
        let report = PassManager::lints().run(&nl).unwrap();
        assert!(report.diagnostics.is_clean());
        for (name, s) in report.diagnostics.passes() {
            assert_eq!(s.runs, 1, "{name} ran more than once");
        }
        // A lint-only pipeline leaves the netlist untouched, maps identity.
        assert_eq!(report.optimized.netlist.to_text(), nl.to_text());
        assert!(report
            .optimized
            .cell_map
            .iter()
            .enumerate()
            .all(|(i, m)| *m == Some(CellId::from_index(i))));
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let (nl, _) = const_heavy();
        let report = PassManager::new().run(&nl).unwrap();
        assert_eq!(report.optimized.netlist.to_text(), nl.to_text());
        assert!(report.diagnostics.counters().is_empty());
    }
}
