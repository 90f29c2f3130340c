//! Netlist optimization: constant folding, dead-cell elimination,
//! buffer sweeping and duplicate merging.
//!
//! Because [`Netlist`] ids are stable-by-construction (cells are never
//! removed in place), optimization builds a *new* netlist and returns the
//! old→new mapping, like a real EDA flow emitting a fresh database after
//! each pass.
//!
//! [`Netlist::optimize`] re-runs the rewrite kernel
//! ([`Netlist::optimize_once`]) to a fixed point and is pinned
//! **bit-identical** to the historical monolithic optimizer: a frozen
//! copy of that implementation lives in the dev-only `htd-oracle` crate,
//! and migration-equivalence tests compare the two byte for byte
//! (serialised netlist and both id maps) on the full AES netlist and a
//! property-based corpus.

use crate::passes::kernel;
use crate::{CellId, NetId, Netlist, NetlistError};

/// Cap on the re-sweeps after the first in [`Netlist::optimize`].
const MAX_RESWEEPS: usize = 32;

/// Result of an optimization pass: the new netlist plus id mappings.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rebuilt netlist.
    pub netlist: Netlist,
    /// For each old cell: its new id, or `None` if it was removed.
    pub cell_map: Vec<Option<CellId>>,
    /// For each old net: the new net carrying the same logical signal, or
    /// `None` if the signal vanished (dead logic).
    pub net_map: Vec<Option<NetId>>,
}

impl Optimized {
    /// Translates an old net id, if it survived.
    pub fn net(&self, old: NetId) -> Option<NetId> {
        self.net_map.get(old.index()).copied().flatten()
    }

    /// Translates an old cell id, if it survived.
    pub fn cell(&self, old: CellId) -> Option<CellId> {
        self.cell_map.get(old.index()).copied().flatten()
    }
}

impl Netlist {
    /// Runs constant folding + buffer sweeping + dead-cell elimination
    /// **until fixpoint** and returns the rebuilt netlist.
    ///
    /// One sweep of the rewrite kernel, then up to 32 re-sweeps until the
    /// LUT and net counts stop changing, with the id maps composed across
    /// sweeps. Pinned bit-identical to the historical monolithic
    /// optimizer.
    ///
    /// Guarantees:
    /// * ports and flip-flops are always preserved (sequential state and
    ///   the external interface are never optimized away);
    /// * the new netlist is functionally equivalent on every input/state;
    /// * a second `optimize` of the result changes nothing (idempotence).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from reconstruction (which indicates an
    /// internal bug, not a user error).
    pub fn optimize(&self) -> Result<Optimized, NetlistError> {
        let mut acc = kernel::rewrite(self)?;
        // Rewrites discovered *during* a rebuild only reach their readers
        // on the next sweep; iterate until the size stabilises.
        for _ in 0..MAX_RESWEEPS {
            let before = acc.netlist.stats();
            let next = kernel::rewrite(&acc.netlist)?;
            acc = Optimized {
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
            let after = acc.netlist.stats();
            if after.luts == before.luts && after.nets == before.nets {
                break;
            }
        }
        Ok(acc)
    }

    /// One optimization pass (see [`Netlist::optimize`], which iterates
    /// this to fixpoint): one sweep of the fused rewrite kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from reconstruction.
    pub fn optimize_once(&self) -> Result<Optimized, NetlistError> {
        kernel::rewrite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LutMask;

    #[test]
    fn constants_fold_through_logic() {
        let mut nl = Netlist::new("fold");
        let a = nl.add_input("a");
        let t = nl.const_net(true);
        let f = nl.const_net(false);
        let x = nl.and2(a, f); // always 0
        let y = nl.or2(x, t); // always 1
        let z = nl.xor2(y, a); // = !a
        nl.add_output("z", z).unwrap();
        let opt = nl.optimize().unwrap();
        // Everything folds to a single inverter.
        assert_eq!(opt.netlist.stats().luts, 1);
        // Equivalence.
        for va in [false, true] {
            let mut s0 = nl.simulator().unwrap();
            s0.set(a, va);
            s0.settle();
            let want = s0.get(z);
            let mut s1 = opt.netlist.simulator().unwrap();
            let a_new = opt.netlist.input_nets()[0];
            s1.set(a_new, va);
            s1.settle();
            let z_new = opt.netlist.output_nets()[0];
            assert_eq!(s1.get(z_new), want, "a = {va}");
        }
    }

    #[test]
    fn dead_cones_are_removed() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let keep = nl.xor2(a, b);
        // Dead cone: drives nothing.
        let d1 = nl.and2(a, b);
        let _d2 = nl.or2(d1, a);
        nl.add_output("k", keep).unwrap();
        let opt = nl.optimize().unwrap();
        assert_eq!(opt.netlist.stats().luts, 1);
        assert!(opt.net(keep).is_some());
        assert!(opt.net(d1).is_none());
    }

    #[test]
    fn buffers_are_swept() {
        let mut nl = Netlist::new("buf");
        let a = nl.add_input("a");
        let b1 = nl.buf_gate(a);
        let b2 = nl.buf_gate(b1);
        let y = nl.not_gate(b2);
        nl.add_output("y", y).unwrap();
        let opt = nl.optimize().unwrap();
        assert_eq!(opt.netlist.stats().luts, 1);
        // The buffers' signals alias the input net.
        assert_eq!(opt.net(b1), opt.net(a));
        assert_eq!(opt.net(b2), opt.net(a));
    }

    #[test]
    fn dff_with_constant_d_is_preserved() {
        // Sequential elements are never removed, even if fed a constant.
        let mut nl = Netlist::new("seq");
        let t = nl.const_net(true);
        let q = nl.add_dff(t, "r").unwrap();
        nl.add_output("q", q).unwrap();
        let opt = nl.optimize().unwrap();
        assert_eq!(opt.netlist.stats().dffs, 1);
        let mut sim = opt.netlist.simulator().unwrap();
        sim.settle();
        sim.clock();
        assert!(sim.get(opt.net(q).unwrap()));
    }

    #[test]
    fn dead_pins_are_dropped() {
        let mut nl = Netlist::new("pins");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        // f(a, b) = a — pin b is dead.
        let mask = LutMask::from_fn(2, |r| r & 1 == 1);
        let y = nl.add_lut(&[a, b], mask).unwrap();
        nl.add_output("y", y).unwrap();
        let opt = nl.optimize().unwrap();
        // The identity LUT then sweeps as a buffer: zero LUTs remain.
        assert_eq!(opt.netlist.stats().luts, 0);
        assert_eq!(opt.net(y), opt.net(a));
    }

    #[test]
    fn common_subexpressions_are_merged() {
        let mut nl = Netlist::new("cse");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        // Same function twice, with commuted inputs the second time.
        let x1 = nl.xor2(a, b);
        let x2 = nl.xor2(b, a);
        let y = nl.and2(x1, x2); // == x1 since x1 == x2
        nl.add_output("y", y).unwrap();
        let opt = nl.optimize().unwrap();
        // x1/x2 merge; the AND of a net with itself sweeps to a buffer.
        assert_eq!(opt.netlist.stats().luts, 1);
        assert_eq!(opt.net(x1), opt.net(x2));
        assert_eq!(opt.net(y), opt.net(x1));
        // Behaviour preserved.
        for (va, vb) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut s = opt.netlist.simulator().unwrap();
            let ins = opt.netlist.input_nets();
            s.set(ins[0], va);
            s.set(ins[1], vb);
            s.settle();
            assert_eq!(s.get(opt.net(y).unwrap()), va ^ vb);
        }
    }

    #[test]
    fn feedback_loops_optimize_correctly() {
        // Toggle flop with a redundant buffer in the feedback path.
        let mut nl = Netlist::new("tff");
        let (dff, q) = nl.add_dff_uninit("r");
        let nq = nl.not_gate(q);
        let buffered = nl.buf_gate(nq);
        nl.connect_dff_d(dff, buffered).unwrap();
        nl.add_output("q", q).unwrap();
        let opt = nl.optimize().unwrap();
        assert_eq!(opt.netlist.stats().luts, 1); // buffer swept, inverter kept
        let mut sim = opt.netlist.simulator().unwrap();
        sim.settle();
        let q_new = opt.net(q).unwrap();
        let mut seq = Vec::new();
        for _ in 0..4 {
            seq.push(sim.get(q_new));
            sim.clock();
        }
        assert_eq!(seq, vec![false, true, false, true]);
    }
}
