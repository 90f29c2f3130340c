//! Timed event-driven simulation (transport delays): the reference
//! semantics `htd_timing::CompiledSimulator` is pinned to bit for bit.
//!
//! One [`EventSimulator::clock_cycle`] call replays a single clock period:
//! flip-flop outputs switch at `clk2q`, changes ripple through the LUT
//! network with annotated cell + net delays, and every net records the time
//! of its **last transition** — the data-dependent settling time that the
//! paper's clock-glitch attack measures, plus the full toggle stream that
//! the EM crate integrates into emanation traces.
//!
//! Transport-delay semantics deliberately let a LUT output toggle several
//! times within a cycle (glitches): real combinational logic does exactly
//! that, and those hazard toggles carry a large share of the EM signature.
//!
//! # Event semantics
//!
//! Events are *sink-visible* transitions: an event `(t, net, v)` means "at
//! time `t`, `net`'s value — as seen by its sinks — becomes `v`". A LUT
//! therefore evaluates exactly when an input arrives, and its output's
//! sink-visible event fires after `cell_delay + output_net_delay`. Because
//! that latency is constant per LUT, deliveries to any given LUT are
//! processed in causal order and the last scheduled event carries the final
//! value. (Net delays are lumped per net, so all sinks of a net see it at
//! the same time — the granularity at which the paper reasons about net
//! delays.)

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use htd_netlist::{CellKind, NetId, Netlist};
use htd_timing::{DelayAnnotation, TimedRun, Toggle};

#[derive(Debug, Clone, Copy)]
struct Event {
    time_ps: f64,
    seq: u64,
    net: NetId,
    value: bool,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversal at the call site; order by time then seq
        // for determinism.
        self.time_ps
            .total_cmp(&other.time_ps)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Event-driven timed simulator over a fixed netlist.
///
/// Create it from a settled functional-simulation snapshot
/// ([`htd_netlist::Simulator::snapshot`]), queue any primary-input changes,
/// then call [`EventSimulator::clock_cycle`] once per clock.
#[derive(Debug, Clone)]
pub struct EventSimulator<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    pending_inputs: Vec<(NetId, bool)>,
}

impl<'a> EventSimulator<'a> {
    /// Starts from a settled snapshot of net values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the netlist's net count.
    pub fn from_snapshot(netlist: &'a Netlist, values: Vec<bool>) -> Self {
        assert_eq!(values.len(), netlist.net_count(), "snapshot size mismatch");
        EventSimulator {
            netlist,
            values,
            pending_inputs: Vec::new(),
        }
    }

    /// Queues a primary-input change: the new value becomes visible to the
    /// input net's sinks at its net delay past the next clock edge.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.pending_inputs.push((net, value));
    }

    /// Current (sink-visible) value of a net.
    pub fn get(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Runs one clock cycle with the given delays and returns the timing
    /// record. State (net values) persists into the next cycle.
    pub fn clock_cycle(&mut self, delays: &DelayAnnotation) -> TimedRun {
        let n_nets = self.netlist.net_count();
        let mut last_transition = vec![f64::NEG_INFINITY; n_nets];
        let mut toggles = Vec::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;

        // Flip-flop capture: D is sampled at the edge; the new Q value
        // reaches the Q net's sinks at clk2q + net delay.
        for (_, cell) in self.netlist.cells() {
            if cell.kind() == CellKind::Dff {
                let d = cell.inputs()[0];
                let q = cell.output().expect("dff drives q");
                let d_val = self.values[d.index()];
                if d_val != self.values[q.index()] {
                    heap.push(std::cmp::Reverse(Event {
                        time_ps: delays.clk2q_ps() + delays.net_delay_ps(q),
                        seq,
                        net: q,
                        value: d_val,
                    }));
                    seq += 1;
                }
            }
        }
        // Primary-input changes land right after the edge.
        for (net, value) in self.pending_inputs.drain(..) {
            heap.push(std::cmp::Reverse(Event {
                time_ps: delays.net_delay_ps(net),
                seq,
                net,
                value,
            }));
            seq += 1;
        }

        let mut settle = 0.0f64;
        let mut guard = 0usize;
        while let Some(std::cmp::Reverse(ev)) = heap.pop() {
            guard += 1;
            assert!(
                guard < 50_000_000,
                "event budget exceeded — combinational oscillation?"
            );
            if self.values[ev.net.index()] == ev.value {
                continue;
            }
            self.values[ev.net.index()] = ev.value;
            last_transition[ev.net.index()] = ev.time_ps;
            settle = settle.max(ev.time_ps);
            toggles.push(Toggle {
                time_ps: ev.time_ps,
                net: ev.net,
                new_value: ev.value,
            });
            for &sink in self.netlist.net(ev.net).sinks() {
                let cell = self.netlist.cell(sink);
                if let CellKind::Lut(mask) = cell.kind() {
                    let mut row = 0u64;
                    for (pin, &inp) in cell.inputs().iter().enumerate() {
                        row |= (self.values[inp.index()] as u64) << pin;
                    }
                    let out_val = mask.eval_row(row);
                    let out = cell.output().expect("lut drives a net");
                    // Schedule unconditionally: the fixed per-LUT latency
                    // keeps deliveries causal, so the last event wins with
                    // the correct final value.
                    heap.push(std::cmp::Reverse(Event {
                        time_ps: ev.time_ps + delays.cell_delay_ps(sink) + delays.net_delay_ps(out),
                        seq,
                        net: out,
                        value: out_val,
                    }));
                    seq += 1;
                }
            }
        }
        toggles.sort_by(|a, b| a.time_ps.total_cmp(&b.time_ps));
        TimedRun {
            last_transition_ps: last_transition,
            toggles,
            settle_ps: settle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_netlist::Netlist;

    #[test]
    fn chain_settles_at_sum_of_delays() {
        let mut nl = Netlist::new("chain");
        let d = nl.add_input("d");
        let q = nl.add_dff(d, "r").unwrap();
        let a = nl.not_gate(q);
        let b = nl.not_gate(a);
        nl.add_output("b", b).unwrap();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let mut fsim = nl.simulator().unwrap();
        fsim.set(d, true);
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        let run = esim.clock_cycle(&ann);
        // Q visible at 300+50 = 350; a at 350+100+50 = 500; b at 650.
        assert_eq!(run.last_transition_ps[q.index()], 350.0);
        assert_eq!(run.last_transition_ps[a.index()], 500.0);
        assert_eq!(run.last_transition_ps[b.index()], 650.0);
        assert_eq!(run.settle_ps, 650.0);
        assert_eq!(run.arrival_at_sinks_ps(b, &ann), Some(650.0));
        assert_eq!(run.toggles.len(), 3);
    }

    #[test]
    fn no_change_means_no_toggles() {
        let mut nl = Netlist::new("idle");
        let d = nl.add_input("d");
        let q = nl.add_dff(d, "r").unwrap();
        nl.add_output("q", q).unwrap();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let fsim = nl.simulator().unwrap();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        let run = esim.clock_cycle(&ann);
        assert!(run.toggles.is_empty());
        assert_eq!(run.settle_ps, 0.0);
        assert_eq!(run.arrival_at_sinks_ps(q, &ann), None);
    }

    #[test]
    fn hazard_glitch_is_recorded() {
        // y = a XOR a' where a' is a delayed copy: a rising edge produces a
        // transient pulse on y (classic hazard).
        let mut nl = Netlist::new("hazard");
        let d = nl.add_input("d");
        let q = nl.add_dff(d, "r").unwrap();
        let slow = nl.buf_gate(q); // extra stage = extra delay
        let y = nl.xor2(q, slow);
        nl.add_output("y", y).unwrap();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let mut fsim = nl.simulator().unwrap();
        fsim.set(d, true);
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        let run = esim.clock_cycle(&ann);
        // y toggles twice: up when q arrives, back down when slow arrives.
        let y_toggles: Vec<_> = run.toggles.iter().filter(|t| t.net == y).collect();
        assert_eq!(y_toggles.len(), 2);
        assert!(y_toggles[0].new_value);
        assert!(!y_toggles[1].new_value);
        // Final value matches functional sim.
        fsim.clock();
        assert_eq!(esim.get(y), fsim.get(y));
    }

    #[test]
    fn unequal_net_delays_still_converge_to_functional_values() {
        // Two reconvergent branches with very different net delays feeding
        // one AND: the final value must match the zero-delay simulation
        // regardless of delivery order (regression test for the stale-event
        // race fixed by sink-visible semantics).
        let mut nl = Netlist::new("race");
        let d = nl.add_input("d");
        let q = nl.add_dff(d, "r").unwrap();
        let slow_branch = nl.buf_gate(q);
        let fast_branch = nl.not_gate(q);
        let y = nl.and2(slow_branch, fast_branch);
        nl.add_output("y", y).unwrap();
        let mut ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        // Make the slow branch's net extremely slow.
        ann.add_net_delay_ps(slow_branch, 5_000.0);
        let mut fsim = nl.simulator().unwrap();
        fsim.set(d, true);
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        esim.clock_cycle(&ann);
        fsim.clock();
        assert_eq!(esim.get(y), fsim.get(y));
        assert_eq!(esim.get(slow_branch), fsim.get(slow_branch));
    }

    #[test]
    fn input_events_propagate_from_their_net_delay() {
        let mut nl = Netlist::new("in");
        let a = nl.add_input("a");
        let y = nl.not_gate(a);
        nl.add_output("y", y).unwrap();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let mut fsim = nl.simulator().unwrap();
        fsim.settle(); // y = !a = true in the settled snapshot
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        esim.set_input(a, true);
        let run = esim.clock_cycle(&ann);
        assert_eq!(run.last_transition_ps[a.index()], 50.0);
        assert_eq!(run.last_transition_ps[y.index()], 200.0);
        assert!(!esim.get(y));
    }

    #[test]
    fn multi_cycle_state_persists() {
        // Toggle flip-flop via inverter feedback.
        let mut nl = Netlist::new("t");
        let (dff, q) = nl.add_dff_uninit("r");
        let nq = nl.not_gate(q);
        nl.connect_dff_d(dff, nq).unwrap();
        nl.add_output("q", q).unwrap();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let mut fsim = nl.simulator().unwrap();
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        for cycle in 0..5 {
            let run = esim.clock_cycle(&ann);
            fsim.clock();
            assert_eq!(esim.get(q), fsim.get(q), "cycle {cycle}");
            assert!(!run.toggles.is_empty());
        }
    }
}
