//! The structural lint gate.
//!
//! [`lint`] never rewrites: it scans the netlist with three checks and
//! reports what they find. It gates generated netlists (every trojaned
//! netlist is linted before a campaign measures it) and doubles as the
//! sanity layer for hand-built designs.

use std::fmt;

use crate::{CellKind, Netlist};

const CHECK_UNCONNECTED: &str = "check_unconnected";
const CHECK_COMB_LOOPS: &str = "check_comb_loops";
const CHECK_FANOUT: &str = "check_fanout";

/// The checks [`lint`] runs, in run order.
const CHECKS: [&str; 3] = [CHECK_UNCONNECTED, CHECK_COMB_LOOPS, CHECK_FANOUT];

/// Fan-out cap, chosen comfortably above the AES structural netlist's
/// worst net (the global `load` enable) so real designs lint clean.
const FANOUT_CAP: usize = 1024;

/// One lint finding: a structural problem a check reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Name of the reporting check.
    pub pass: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pass, self.message)
    }
}

/// The findings of one [`lint`] run.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    lints: Vec<Lint>,
}

impl Diagnostics {
    fn push(&mut self, pass: &'static str, message: String) {
        self.lints.push(Lint { pass, message });
    }

    /// Every lint finding, in check order.
    pub fn lints(&self) -> &[Lint] {
        &self.lints
    }

    /// `true` when no check reported anything.
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    /// The diagnostics as deterministic observability counters:
    /// `pass.<check>.{runs,cells_removed,nets_removed,lints}` for every
    /// check, sorted by check name, zeros included (so the counter
    /// schema does not depend on what the checks found). Each check runs
    /// once and never removes anything.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut names = CHECKS;
        names.sort_unstable();
        let mut out = Vec::with_capacity(names.len() * 4);
        for name in names {
            let lints = self.lints.iter().filter(|l| l.pass == name).count();
            out.push((format!("pass.{name}.runs"), 1));
            out.push((format!("pass.{name}.cells_removed"), 0));
            out.push((format!("pass.{name}.nets_removed"), 0));
            out.push((format!("pass.{name}.lints"), lints as u64));
        }
        out
    }
}

/// Runs the structural checks on `netlist`, in this order:
///
/// 1. unconnected pins: flip-flops whose `D` pin was never connected
///    (this single-implicit-clock IR's analog of an unconnected
///    clock/reset) and nets that are read but have no driver;
/// 2. combinational loops, reported instead of failing;
/// 3. fan-out above 1024 sinks. High fan-out is not an error in this
///    IR, but runaway fan-out in a generated netlist usually means a
///    broken generator (e.g. a trigger tapping far more nets than
///    specified).
pub fn lint(netlist: &Netlist) -> Diagnostics {
    let mut diags = Diagnostics { lints: Vec::new() };
    for (id, cell) in netlist.cells() {
        if matches!(cell.kind(), CellKind::Dff) && cell.inputs().is_empty() {
            diags.push(
                CHECK_UNCONNECTED,
                format!("flip-flop {id} `{}` has an unconnected D pin", cell.name()),
            );
        }
    }
    for (id, net) in netlist.nets() {
        if net.driver().is_none() && !net.sinks().is_empty() {
            diags.push(
                CHECK_UNCONNECTED,
                format!(
                    "net {id} `{}` is read by {} sink(s) but has no driver",
                    net.name(),
                    net.sinks().len()
                ),
            );
        }
    }
    if let Err(e) = netlist.levelize() {
        diags.push(CHECK_COMB_LOOPS, e.to_string());
    }
    for (id, net) in netlist.nets() {
        let fanout = net.fanout();
        if fanout > FANOUT_CAP {
            diags.push(
                CHECK_FANOUT,
                format!(
                    "net {id} `{}` fans out to {fanout} sinks (cap {FANOUT_CAP})",
                    net.name()
                ),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::LutMask;
    use crate::NetId;

    /// A net `a` driving `sinks` inverters.
    fn fan(sinks: usize) -> Netlist {
        let mut nl = Netlist::new("fan");
        let a = nl.add_input("a");
        for i in 0..sinks {
            let x = nl.not_gate(a);
            nl.add_output(format!("o{i}"), x).unwrap();
        }
        nl
    }

    /// Closes a two-inverter combinational cycle and returns its output.
    fn close_loop(nl: &mut Netlist) -> NetId {
        let fwd = nl.add_net("fwd");
        let mask = LutMask::from_fn(1, |r| r & 1 == 0);
        let back = nl.add_lut(&[fwd], mask).unwrap();
        // Close the cycle: a second inverter drives `fwd` from `back`.
        nl.add_lut_to(fwd, &[back], mask, "close".into()).unwrap();
        back
    }

    #[test]
    fn open_dff_and_floating_net_are_linted() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let (_ff, _q) = nl.add_dff_uninit("open"); // D never connected
        let float = nl.add_net("floating");
        let mask = LutMask::from_fn(2, |r| r & 1 == 1);
        let y = nl.add_lut(&[a, float], mask).unwrap();
        nl.add_output("y", y).unwrap();
        let diags = lint(&nl);
        let msgs: Vec<String> = diags.lints().iter().map(|l| l.to_string()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("unconnected D")),
            "missing open-DFF lint in {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("no driver")),
            "missing floating-net lint in {msgs:?}"
        );
        assert!(!diags.is_clean());
    }

    #[test]
    fn comb_loop_is_linted_not_fatal() {
        let mut nl = Netlist::new("loop");
        let back = close_loop(&mut nl);
        nl.add_output("o", back).unwrap();
        assert!(nl.levelize().is_err(), "test needs a real cycle");
        let diags = lint(&nl);
        assert_eq!(diags.lints().len(), 1);
        assert_eq!(diags.lints()[0].pass, CHECK_COMB_LOOPS);
        assert!(diags.lints()[0].message.contains("combinational cycle"));
    }

    #[test]
    fn fanout_cap_is_enforced() {
        let diags = lint(&fan(FANOUT_CAP + 1));
        assert_eq!(diags.lints().len(), 1);
        assert!(diags.lints()[0]
            .message
            .contains("fans out to 1025 sinks (cap 1024)"));
        assert!(lint(&fan(FANOUT_CAP)).is_clean());
    }

    #[test]
    fn counters_report_every_check_with_lints_in_check_order() {
        // Trips all three checks: an open flip-flop and a floating net
        // (two unconnected-pin findings), one combinational cycle and
        // one net above the fan-out cap.
        let mut nl = fan(FANOUT_CAP + 1);
        let (_ff, _q) = nl.add_dff_uninit("open");
        let float = nl.add_net("floating");
        let y = nl.not_gate(float);
        nl.add_output("y", y).unwrap();
        close_loop(&mut nl);

        let diags = lint(&nl);
        let order: Vec<&str> = diags.lints().iter().map(|l| l.pass).collect();
        assert_eq!(
            order,
            [
                CHECK_UNCONNECTED,
                CHECK_UNCONNECTED,
                CHECK_COMB_LOOPS,
                CHECK_FANOUT
            ]
        );
        let want: Vec<(String, u64)> = [
            ("pass.check_comb_loops.runs", 1),
            ("pass.check_comb_loops.cells_removed", 0),
            ("pass.check_comb_loops.nets_removed", 0),
            ("pass.check_comb_loops.lints", 1),
            ("pass.check_fanout.runs", 1),
            ("pass.check_fanout.cells_removed", 0),
            ("pass.check_fanout.nets_removed", 0),
            ("pass.check_fanout.lints", 1),
            ("pass.check_unconnected.runs", 1),
            ("pass.check_unconnected.cells_removed", 0),
            ("pass.check_unconnected.nets_removed", 0),
            ("pass.check_unconnected.lints", 2),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
        assert_eq!(diags.counters(), want);
    }
}
