//! Property-based tests: on arbitrary random netlists, the timed event
//! simulator must agree with the zero-delay functional simulator, STA
//! must upper-bound every observed settling time, and the compiled replay
//! must reproduce the event simulator bit for bit.

use htd_netlist::{LutMask, NetId, Netlist};
use htd_oracle::EventSimulator;
use htd_timing::{CompiledSimulator, CompiledTiming, DelayAnnotation, Sta};
use proptest::prelude::*;

/// Recipe for one random synchronous netlist.
#[derive(Debug, Clone)]
struct Recipe {
    n_inputs: usize,
    n_dffs: usize,
    luts: Vec<(u64, Vec<usize>)>, // (mask bits, input picks)
    dff_d_picks: Vec<usize>,
    stimulus: Vec<u64>, // input pattern per cycle
}

fn recipe() -> impl Strategy<Value = Recipe> {
    recipe_of(14)
}

/// [`recipe`] with up to `max_luts` LUTs.
fn recipe_of(max_luts: usize) -> impl Strategy<Value = Recipe> {
    (1usize..=4, 0usize..=3).prop_flat_map(move |(n_inputs, n_dffs)| {
        let luts = proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(0usize..64, 1..=4)),
            1..=max_luts,
        );
        let dff_d = proptest::collection::vec(0usize..64, n_dffs);
        let stim = proptest::collection::vec(any::<u64>(), 1..=5);
        (Just(n_inputs), Just(n_dffs), luts, dff_d, stim).prop_map(
            |(n_inputs, n_dffs, luts, dff_d_picks, stimulus)| Recipe {
                n_inputs,
                n_dffs,
                luts,
                dff_d_picks,
                stimulus,
            },
        )
    })
}

/// Materialises a recipe into a valid netlist (picks indices modulo the
/// set of nets available so far — always acyclic by construction).
fn build(recipe: &Recipe) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    let mut nl = Netlist::new("random");
    let inputs: Vec<NetId> = (0..recipe.n_inputs)
        .map(|i| nl.add_input(format!("in{i}")))
        .collect();
    let mut dff_cells = Vec::new();
    let mut nets: Vec<NetId> = inputs.clone();
    for i in 0..recipe.n_dffs {
        let (cell, q) = nl.add_dff_uninit(format!("r{i}"));
        dff_cells.push(cell);
        nets.push(q);
    }
    let mut observable = Vec::new();
    for (mask_bits, picks) in &recipe.luts {
        let ins: Vec<NetId> = picks.iter().map(|&p| nets[p % nets.len()]).collect();
        let mask = LutMask::new(ins.len(), *mask_bits).expect("≤6 inputs");
        let out = nl.add_lut(&ins, mask).expect("valid lut");
        nets.push(out);
        observable.push(out);
    }
    for (cell, pick) in dff_cells.iter().zip(&recipe.dff_d_picks) {
        nl.connect_dff_d(*cell, nets[pick % nets.len()])
            .expect("connects");
    }
    // Observe everything so nothing is trivially dead.
    for (i, &net) in observable.iter().enumerate() {
        nl.add_output(format!("o{i}"), net).expect("valid output");
    }
    (nl, inputs, observable)
}

/// The annotation a compiled-vs-reference case runs under.
#[derive(Debug, Clone)]
enum Delays {
    /// One delay per kind: many events share an exact time.
    Uniform {
        lut_ps: f64,
        net_ps: f64,
        clk2q: f64,
    },
    /// All zero: the calendar degenerates to the overflow heap.
    Zero,
    /// Uniform plus a per-net routed extra: few exact ties.
    Perturbed {
        lut_ps: f64,
        net_ps: f64,
        clk2q: f64,
        extra_ps: Vec<f64>,
    },
}

fn delays() -> impl Strategy<Value = Delays> {
    // Small integer delays make sums collide exactly, so the uniform
    // cases are dense in equal-key ties.
    let ps = || (1u32..=4).prop_map(|k| 25.0 * f64::from(k));
    (
        0u8..3,
        ps(),
        ps(),
        ps(),
        proptest::collection::vec(0.0f64..300.0, 64),
    )
        .prop_map(|(kind, lut_ps, net_ps, clk2q, extra_ps)| match kind {
            0 => Delays::Uniform {
                lut_ps,
                net_ps,
                clk2q,
            },
            1 => Delays::Zero,
            _ => Delays::Perturbed {
                lut_ps,
                net_ps,
                clk2q,
                extra_ps,
            },
        })
}

fn annotate(nl: &Netlist, delays: &Delays) -> DelayAnnotation {
    match delays {
        Delays::Uniform {
            lut_ps,
            net_ps,
            clk2q,
        } => DelayAnnotation::uniform(nl, *lut_ps, *net_ps, *clk2q, 50.0),
        Delays::Zero => DelayAnnotation::uniform(nl, 0.0, 0.0, 0.0, 0.0),
        Delays::Perturbed {
            lut_ps,
            net_ps,
            clk2q,
            extra_ps,
        } => {
            let mut ann = DelayAnnotation::uniform(nl, *lut_ps, *net_ps, *clk2q, 50.0);
            for i in 0..nl.net_count() {
                ann.add_net_delay_ps(NetId::from_index(i), extra_ps[i % extra_ps.len()]);
            }
            ann
        }
    }
}

/// Replays `r`'s stimulus on the event simulator and on the compiled
/// replay from the same settled state and compares every cycle bit for
/// bit: toggles (time bits, net, value, order), settle time, last
/// transitions, and the final net values.
fn compiled_equals_reference(r: &Recipe, delays: &Delays) -> Result<(), TestCaseError> {
    let (nl, inputs, _) = build(r);
    let ann = annotate(&nl, delays);
    let ct = CompiledTiming::compile(&nl, &ann);
    let mut fsim = nl.simulator().expect("valid netlist");
    fsim.settle();
    let mut reference = EventSimulator::from_snapshot(&nl, fsim.snapshot());
    let mut compiled = CompiledSimulator::from_snapshot(&ct, fsim.snapshot());
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    for (cycle, &pattern) in r.stimulus.iter().enumerate() {
        for (i, &inp) in inputs.iter().enumerate() {
            reference.set_input(inp, (pattern >> i) & 1 == 1);
            compiled.set_input(inp, (pattern >> i) & 1 == 1);
        }
        let want = reference.clock_cycle(&ann);
        let got = compiled.clock_cycle();
        prop_assert_eq!(want.toggles.len(), got.toggles.len(), "cycle {}", cycle);
        for (k, (a, b)) in want.toggles.iter().zip(&got.toggles).enumerate() {
            prop_assert_eq!(
                (a.time_ps.to_bits(), a.net, a.new_value),
                (b.time_ps.to_bits(), b.net, b.new_value),
                "cycle {} toggle {}",
                cycle,
                k
            );
        }
        prop_assert_eq!(want.settle_ps.to_bits(), got.settle_ps.to_bits());
        prop_assert_eq!(
            bits(&want.last_transition_ps),
            bits(&got.last_transition_ps)
        );
    }
    for i in 0..nl.net_count() {
        let net = NetId::from_index(i);
        prop_assert_eq!(reference.get(net), compiled.get(net), "net {}", net);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled replay equals the event simulator bit for bit on the
    /// random netlists, under uniform, zero and perturbed annotations.
    #[test]
    fn compiled_replay_matches_event_sim(r in recipe(), d in delays()) {
        compiled_equals_reference(&r, &d)?;
    }

    /// The same on wider netlists, whose uniform-delay cycles fill
    /// calendar buckets with dozens of tied events.
    #[test]
    fn compiled_replay_matches_event_sim_on_wide_netlists(r in recipe_of(64), d in delays()) {
        compiled_equals_reference(&r, &d)?;
    }

    /// After each clock cycle, every net value in the event simulator
    /// matches the functional simulator, for arbitrary circuits, delays
    /// and stimulus.
    #[test]
    fn event_sim_matches_functional(
        r in recipe(),
        lut_ps in 1.0f64..500.0,
        net_ps in 1.0f64..500.0,
        clk2q in 1.0f64..500.0,
    ) {
        let (nl, inputs, observable) = build(&r);
        let ann = DelayAnnotation::uniform(&nl, lut_ps, net_ps, clk2q, 50.0);
        let mut fsim = nl.simulator().expect("valid netlist");
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        for &pattern in &r.stimulus {
            // Event-sim semantics: inputs queued with set_input become
            // visible just *after* the next edge, so the edge captures the
            // old values and the new inputs settle during the cycle. The
            // functional mirror is: clock first, then apply + settle.
            for (i, &inp) in inputs.iter().enumerate() {
                esim.set_input(inp, (pattern >> i) & 1 == 1);
            }
            esim.clock_cycle(&ann);
            fsim.clock();
            for (i, &inp) in inputs.iter().enumerate() {
                fsim.set(inp, (pattern >> i) & 1 == 1);
            }
            fsim.settle();
            for &net in &observable {
                prop_assert_eq!(esim.get(net), fsim.get(net), "net {}", net);
            }
        }
    }

    /// STA's worst-case arrival bounds every event-sim settling time.
    #[test]
    fn sta_bounds_every_settle(r in recipe()) {
        let (nl, inputs, observable) = build(&r);
        let ann = DelayAnnotation::uniform(&nl, 120.0, 60.0, 250.0, 80.0);
        let sta = Sta::analyze(&nl, &ann).expect("acyclic");
        let mut fsim = nl.simulator().expect("valid netlist");
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        for (k, &pattern) in r.stimulus.iter().enumerate() {
            for (i, &inp) in inputs.iter().enumerate() {
                esim.set_input(inp, (pattern >> i) & 1 == 1);
            }
            let run = esim.clock_cycle(&ann);
            for &net in &observable {
                if let Some(t) = run.arrival_at_sinks_ps(net, &ann) {
                    let bound = sta.arrival_ps(net) + ann.net_delay_ps(net);
                    prop_assert!(
                        t <= bound + 1e-6,
                        "cycle {}: net {} settled at {} > bound {}",
                        k, net, t, bound
                    );
                }
            }
        }
    }

    /// The settle time reported equals the max over recorded toggles, and
    /// toggles are sorted by time.
    #[test]
    fn timed_run_invariants(r in recipe()) {
        let (nl, inputs, _) = build(&r);
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let mut fsim = nl.simulator().expect("valid netlist");
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        for &inp in &inputs {
            esim.set_input(inp, true);
        }
        let run = esim.clock_cycle(&ann);
        let max_toggle = run
            .toggles
            .iter()
            .map(|t| t.time_ps)
            .fold(0.0f64, f64::max);
        prop_assert_eq!(run.settle_ps, max_toggle.max(0.0));
        for w in run.toggles.windows(2) {
            prop_assert!(w[0].time_ps <= w[1].time_ps);
        }
        // Every toggle is also recorded as a last transition no earlier
        // than itself.
        for t in &run.toggles {
            prop_assert!(run.last_transition_ps[t.net.index()] >= t.time_ps);
        }
    }
}
