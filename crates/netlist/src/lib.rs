//! Gate-level netlist intermediate representation for the `htd` suite.
//!
//! This crate provides the circuit data structure shared by every other
//! `htd` crate: a flat, LUT-mapped gate-level netlist with a single implicit
//! clock domain, in the spirit of a Xilinx *Native Circuit Description*
//! (NCD) after technology mapping.
//!
//! The IR is deliberately small:
//!
//! * [`Netlist`] owns [`Cell`]s and [`Net`]s addressed by the typed ids
//!   [`CellId`] and [`NetId`].
//! * Cells are *k*-input LUTs (`k ≤ 6`, Virtex-5 style), D flip-flops,
//!   constants and top-level ports — see [`CellKind`].
//! * Every net has at most one driver (enforced at construction) and an
//!   explicit sink list, so fan-out cones and electrical loading are cheap
//!   to query.
//!
//! Higher-level logic (XOR trees, muxes, adders, comparators) is emitted
//! through the builder methods on [`Netlist`] and the [`builder`] module,
//! which pack wide XOR/AND networks into 6-input LUTs the way a technology
//! mapper would.
//!
//! Two whole-netlist jobs round the IR off (see [`passes`]):
//! [`Netlist::optimize`] folds constants, drops dead logic, sweeps buffers
//! and merges duplicate functions to a fixed point, and [`lint`] is the
//! structural gate every generated netlist passes before it is measured.
//!
//! # Example
//!
//! Build and simulate a full adder:
//!
//! ```
//! use htd_netlist::Netlist;
//!
//! let mut nl = Netlist::new("full_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let cin = nl.add_input("cin");
//! let sum = nl.xor_many(&[a, b, cin]);
//! let carry = nl.majority3(a, b, cin);
//! nl.add_output("sum", sum);
//! nl.add_output("carry", carry);
//!
//! let mut sim = nl.simulator()?;
//! sim.set(a, true);
//! sim.set(b, true);
//! sim.set(cin, false);
//! sim.settle();
//! assert_eq!(sim.get(sum), false);
//! assert_eq!(sim.get(carry), true);
//! # Ok::<(), htd_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod cell;
mod error;
mod id;
mod net;
mod netlist;
pub mod opt;
pub mod passes;
pub mod serdes;
mod sim;
mod stats;
mod topo;

pub use cell::{Cell, CellKind, LutMask};
pub use error::NetlistError;
pub use id::{CellId, NetId};
pub use net::Net;
pub use netlist::Netlist;
pub use opt::Optimized;
pub use passes::{lint, Diagnostics, Lint};
pub use sim::Simulator;
pub use stats::NetlistStats;
pub use topo::{CombCycle, FaninCone, Levelization};
