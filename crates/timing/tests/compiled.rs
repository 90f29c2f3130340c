//! The compiled replay against the reference event simulator: bit-identical
//! toggle streams, settle times and last transitions on every toy
//! topology of the reference test suite.

use htd_netlist::{NetId, Netlist};
use htd_oracle::EventSimulator;
use htd_timing::{CompiledSimulator, CompiledTiming, DelayAnnotation};

/// Runs `cycles` clock cycles on both simulators from the same settled
/// snapshot (with optional queued input changes before cycle 0) and
/// asserts bit-identical `TimedRun`s.
fn assert_bit_identical(
    nl: &Netlist,
    ann: &DelayAnnotation,
    snapshot: Vec<bool>,
    inputs: &[(NetId, bool)],
    cycles: usize,
) {
    let mut reference = EventSimulator::from_snapshot(nl, snapshot.clone());
    let ct = CompiledTiming::compile(nl, ann);
    let mut compiled = CompiledSimulator::from_snapshot(&ct, snapshot);
    for &(net, value) in inputs {
        reference.set_input(net, value);
        compiled.set_input(net, value);
    }
    for cycle in 0..cycles {
        let r = reference.clock_cycle(ann);
        let c = compiled.clock_cycle();
        assert_eq!(
            r.toggles.len(),
            c.toggles.len(),
            "cycle {cycle}: toggle count"
        );
        for (i, (a, b)) in r.toggles.iter().zip(&c.toggles).enumerate() {
            assert_eq!(
                a.time_ps.to_bits(),
                b.time_ps.to_bits(),
                "cycle {cycle} #{i}"
            );
            assert_eq!(a.net, b.net, "cycle {cycle} toggle {i}: net");
            assert_eq!(a.new_value, b.new_value, "cycle {cycle} toggle {i}");
        }
        assert_eq!(
            r.settle_ps.to_bits(),
            c.settle_ps.to_bits(),
            "cycle {cycle}"
        );
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&r.last_transition_ps),
            bits(&c.last_transition_ps),
            "cycle {cycle}: last transitions"
        );
    }
    // Final net state agrees too.
    for i in 0..nl.net_count() {
        let net = NetId::from_index(i);
        assert_eq!(reference.get(net), compiled.get(net), "net {net:?}");
    }
}

fn settled(nl: &Netlist, set: &[(NetId, bool)]) -> Vec<bool> {
    let mut fsim = nl.simulator().unwrap();
    for &(n, v) in set {
        fsim.set(n, v);
    }
    fsim.settle();
    fsim.snapshot()
}

#[test]
fn matches_reference_on_chain() {
    let mut nl = Netlist::new("chain");
    let d = nl.add_input("d");
    let q = nl.add_dff(d, "r").unwrap();
    let a = nl.not_gate(q);
    let b = nl.not_gate(a);
    nl.add_output("b", b).unwrap();
    let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
    let snap = settled(&nl, &[(d, true)]);
    assert_bit_identical(&nl, &ann, snap, &[], 3);
}

#[test]
fn matches_reference_on_hazard_glitch() {
    let mut nl = Netlist::new("hazard");
    let d = nl.add_input("d");
    let q = nl.add_dff(d, "r").unwrap();
    let slow = nl.buf_gate(q);
    let y = nl.xor2(q, slow);
    nl.add_output("y", y).unwrap();
    let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
    let snap = settled(&nl, &[(d, true)]);
    assert_bit_identical(&nl, &ann, snap, &[], 3);
}

#[test]
fn matches_reference_on_reconvergent_race() {
    let mut nl = Netlist::new("race");
    let d = nl.add_input("d");
    let q = nl.add_dff(d, "r").unwrap();
    let slow_branch = nl.buf_gate(q);
    let fast_branch = nl.not_gate(q);
    let y = nl.and2(slow_branch, fast_branch);
    nl.add_output("y", y).unwrap();
    let mut ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
    ann.add_net_delay_ps(slow_branch, 5_000.0);
    let snap = settled(&nl, &[(d, true)]);
    assert_bit_identical(&nl, &ann, snap, &[], 3);
}

#[test]
fn matches_reference_with_input_events_and_state() {
    // Toggle flip-flop plus a primary-input change on the first cycle.
    let mut nl = Netlist::new("t");
    let (dff, q) = nl.add_dff_uninit("r");
    let nq = nl.not_gate(q);
    nl.connect_dff_d(dff, nq).unwrap();
    let en = nl.add_input("en");
    let y = nl.and2(q, en);
    nl.add_output("y", y).unwrap();
    let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
    let snap = settled(&nl, &[]);
    assert_bit_identical(&nl, &ann, snap, &[(en, true)], 5);
}

#[test]
fn redundant_input_event_is_a_no_op_in_both() {
    // Setting an input to its current value must not toggle anything in
    // either implementation (the reference filters it at pop time, the
    // compiled path at push time).
    let mut nl = Netlist::new("noop");
    let a = nl.add_input("a");
    let y = nl.not_gate(a);
    nl.add_output("y", y).unwrap();
    let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
    let snap = settled(&nl, &[]);
    assert_bit_identical(&nl, &ann, snap, &[(a, false)], 2);
}

#[test]
fn zero_latency_annotation_degenerates_to_heap_order() {
    // All-zero delays force inv_w = 0 (every event in bucket 0, drained
    // via the overflow heap) and still match the reference bit for bit.
    let mut nl = Netlist::new("zero");
    let d = nl.add_input("d");
    let q = nl.add_dff(d, "r").unwrap();
    let a = nl.not_gate(q);
    let b = nl.xor2(a, q);
    nl.add_output("b", b).unwrap();
    let ann = DelayAnnotation::uniform(&nl, 0.0, 0.0, 0.0, 0.0);
    let snap = settled(&nl, &[(d, true)]);
    assert_bit_identical(&nl, &ann, snap, &[], 2);
}
