//! The netlist's two whole-netlist jobs: the rewrite kernel behind
//! [`Netlist::optimize`](crate::Netlist::optimize) and the structural
//! lint gate [`lint`].
//!
//! The kernel rebuilds a fresh netlist (ids are stable by construction,
//! so nothing is removed in place) and returns it with the old→new id
//! maps; `optimize` re-sweeps it to a fixed point and composes the maps.
//! The lint gate only reads: it runs three checks on the borrowed
//! netlist (unconnected pins, combinational loops, runaway fan-out) and
//! returns their findings as [`Diagnostics`].
//!
//! # Determinism rules
//!
//! * Both jobs are pure functions of the input netlist — no randomness,
//!   no ordering dependence on hash-map iteration, no clocks.
//! * The lint checks run in a fixed order, and their
//!   `pass.<check>.*` counters are emitted sorted by check name, so the
//!   counter section is worker-invariant and byte-reproducible.
//!
//! # Example
//!
//! ```
//! use htd_netlist::{lint, Netlist};
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let t = nl.const_net(true);
//! let x = nl.and2(a, t); // = a
//! nl.add_output("x", x)?;
//! assert!(lint(&nl).is_clean());
//! assert_eq!(nl.optimize()?.netlist.stats().luts, 0);
//! # Ok::<(), htd_netlist::NetlistError>(())
//! ```

pub(crate) mod kernel;
mod lint;

pub use lint::{lint, Diagnostics, Lint};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;

    #[test]
    fn lint_pipeline_runs_a_single_sweep() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let t = nl.const_net(true);
        let f = nl.const_net(false);
        let x = nl.and2(a, f); // always 0
        let y = nl.or2(x, t); // always 1
        let z = nl.xor2(y, a); // = !a
        nl.add_output("z", z).unwrap();
        let diags = lint(&nl);
        assert!(diags.is_clean());
        for (name, value) in diags.counters() {
            if name.ends_with(".runs") {
                assert_eq!(value, 1, "{name} ran more than once");
            }
        }
    }
}
