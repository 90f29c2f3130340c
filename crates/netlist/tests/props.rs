//! Property-based tests for the netlist IR and simulator.

use htd_netlist::{LutMask, Netlist};
use proptest::prelude::*;

proptest! {
    /// A LUT built from an arbitrary mask evaluates exactly per the mask.
    #[test]
    fn lut_eval_matches_mask(width in 1usize..=6, raw in any::<u64>(), row_seed in any::<u64>()) {
        let mask = LutMask::new(width, raw).unwrap();
        let row = row_seed & ((1 << width) - 1);
        let pins: Vec<bool> = (0..width).map(|i| (row >> i) & 1 == 1).collect();
        prop_assert_eq!(mask.eval(&pins), (mask.raw() >> row) & 1 == 1);
        prop_assert_eq!(mask.eval_row(row), mask.eval(&pins));
    }

    /// Wide XOR reduction equals bit-parity for arbitrary widths/patterns.
    #[test]
    fn xor_many_is_parity(width in 1usize..=80, pattern in proptest::collection::vec(any::<bool>(), 1..=80)) {
        let width = width.min(pattern.len());
        let mut nl = Netlist::new("p");
        let bits: Vec<_> = (0..width).map(|i| nl.add_input(format!("x{i}"))).collect();
        let out = nl.xor_many(&bits);
        nl.add_output("y", out).unwrap();
        let mut sim = nl.simulator().unwrap();
        for (i, &b) in bits.iter().enumerate() {
            sim.set(b, pattern[i]);
        }
        sim.settle();
        let expect = pattern[..width].iter().filter(|&&v| v).count() % 2 == 1;
        prop_assert_eq!(sim.get(out), expect);
    }

    /// AND/OR reductions equal all()/any().
    #[test]
    fn and_or_many_match_reference(pattern in proptest::collection::vec(any::<bool>(), 1..=64)) {
        let mut nl = Netlist::new("p");
        let bits: Vec<_> = (0..pattern.len()).map(|i| nl.add_input(format!("x{i}"))).collect();
        let and = nl.and_many(&bits);
        let or = nl.or_many(&bits);
        let mut sim = nl.simulator().unwrap();
        for (i, &b) in bits.iter().enumerate() {
            sim.set(b, pattern[i]);
        }
        sim.settle();
        prop_assert_eq!(sim.get(and), pattern.iter().all(|&v| v));
        prop_assert_eq!(sim.get(or), pattern.iter().any(|&v| v));
    }

    /// eq_const fires exactly on its own constant.
    #[test]
    fn eq_const_is_exact(width in 1usize..=48, value in any::<u64>(), probe in any::<u64>()) {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let value = value & mask;
        let probe = probe & mask;
        let mut nl = Netlist::new("p");
        let bits: Vec<_> = (0..width).map(|i| nl.add_input(format!("x{i}"))).collect();
        let hit = nl.eq_const(&bits, value);
        let mut sim = nl.simulator().unwrap();
        sim.set_bus(&bits, probe as u128);
        sim.settle();
        prop_assert_eq!(sim.get(hit), probe == value);
    }

    /// A register chain delays a bit pattern by its length.
    #[test]
    fn shift_register_delays(depth in 1usize..=12, stream in proptest::collection::vec(any::<bool>(), 13..=40)) {
        let mut nl = Netlist::new("sr");
        let din = nl.add_input("d");
        let mut stage = din;
        for i in 0..depth {
            stage = nl.add_dff(stage, format!("s{i}")).unwrap();
        }
        nl.add_output("q", stage).unwrap();
        let mut sim = nl.simulator().unwrap();
        let mut seen = Vec::new();
        for &bit in &stream {
            sim.set(din, bit);
            sim.settle();
            sim.clock();
            seen.push(sim.get(stage));
        }
        // Reading after the clock edge, an N-deep chain shows the input
        // from N-1 iterations ago once the pipeline has filled.
        for i in depth..stream.len() {
            prop_assert_eq!(seen[i], stream[i + 1 - depth], "i = {}", i);
        }
    }

    /// Bus set/get round-trips through byte packing.
    #[test]
    fn bus_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..=16)) {
        let mut nl = Netlist::new("b");
        let nets: Vec<_> = (0..bytes.len() * 8).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut sim = nl.simulator().unwrap();
        sim.set_bus_bytes(&nets, &bytes);
        prop_assert_eq!(sim.get_bus_bytes(&nets), bytes);
    }
}

/// Non-proptest sanity: simulation is deterministic across fresh simulators.
#[test]
fn simulation_is_deterministic() {
    let mut nl = Netlist::new("det");
    let bits: Vec<_> = (0..24).map(|i| nl.add_input(format!("x{i}"))).collect();
    let x = nl.xor_many(&bits);
    let a = nl.and_many(&bits[..12]);
    let y = nl.mux2(a, x, bits[0]);
    nl.add_output("y", y).unwrap();
    let run = || {
        let mut sim = nl.simulator().unwrap();
        sim.set_bus(&bits, 0xF0F0F0);
        sim.settle();
        sim.get(y)
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------
// Optimizer equivalence on random circuits
// ---------------------------------------------------------------------

mod opt_props {
    use htd_netlist::{LutMask, NetId, Netlist};
    use htd_oracle::OptimizeReference;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct Recipe {
        n_inputs: usize,
        n_dffs: usize,
        with_consts: bool,
        luts: Vec<(u64, Vec<usize>)>,
        dff_d_picks: Vec<usize>,
        stimulus: Vec<u64>,
    }

    fn recipe() -> impl Strategy<Value = Recipe> {
        (1usize..=4, 0usize..=3, any::<bool>()).prop_flat_map(|(n_inputs, n_dffs, with_consts)| {
            let luts = proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(0usize..64, 1..=4)),
                1..=12,
            );
            let dff_d = proptest::collection::vec(0usize..64, n_dffs);
            let stim = proptest::collection::vec(any::<u64>(), 1..=4);
            (
                Just(n_inputs),
                Just(n_dffs),
                Just(with_consts),
                luts,
                dff_d,
                stim,
            )
                .prop_map(
                    |(n_inputs, n_dffs, with_consts, luts, dff_d_picks, stimulus)| Recipe {
                        n_inputs,
                        n_dffs,
                        with_consts,
                        luts,
                        dff_d_picks,
                        stimulus,
                    },
                )
        })
    }

    fn build(r: &Recipe) -> (Netlist, Vec<NetId>, Vec<NetId>) {
        let mut nl = Netlist::new("rand");
        let inputs: Vec<NetId> = (0..r.n_inputs)
            .map(|i| nl.add_input(format!("in{i}")))
            .collect();
        let mut nets = inputs.clone();
        if r.with_consts {
            nets.push(nl.const_net(false));
            nets.push(nl.const_net(true));
        }
        let mut dff_cells = Vec::new();
        for i in 0..r.n_dffs {
            let (c, q) = nl.add_dff_uninit(format!("r{i}"));
            dff_cells.push(c);
            nets.push(q);
        }
        for (mask_bits, picks) in &r.luts {
            let ins: Vec<NetId> = picks.iter().map(|&p| nets[p % nets.len()]).collect();
            let mask = LutMask::new(ins.len(), *mask_bits).unwrap();
            let out = nl.add_lut(&ins, mask).unwrap();
            nets.push(out);
        }
        for (cell, pick) in dff_cells.iter().zip(&r.dff_d_picks) {
            nl.connect_dff_d(*cell, nets[pick % nets.len()]).unwrap();
        }
        // Observe a deterministic subset (every third net) plus the last.
        let mut observed = Vec::new();
        for (i, &n) in nets.iter().enumerate() {
            if i % 3 == 0 || i + 1 == nets.len() {
                nl.add_output(format!("o{i}"), n).unwrap();
                observed.push(n);
            }
        }
        (nl, inputs, observed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The optimized netlist is sequentially equivalent to the
        /// original on every observed net, over multiple clock cycles,
        /// and never grows.
        #[test]
        fn optimize_preserves_behaviour(r in recipe()) {
            let (nl, inputs, observed) = build(&r);
            let opt = nl.optimize().unwrap();
            prop_assert!(opt.netlist.stats().luts <= nl.stats().luts);
            prop_assert_eq!(opt.netlist.stats().dffs, nl.stats().dffs);
            let mut s0 = nl.simulator().unwrap();
            let mut s1 = opt.netlist.simulator().unwrap();
            s0.settle();
            s1.settle();
            let new_inputs = opt.netlist.input_nets();
            for &pattern in &r.stimulus {
                for (i, &inp) in inputs.iter().enumerate() {
                    s0.set(inp, (pattern >> i) & 1 == 1);
                    s1.set(new_inputs[i], (pattern >> i) & 1 == 1);
                }
                s0.settle();
                s1.settle();
                for &net in &observed {
                    let mapped = opt.net(net).expect("observed nets survive");
                    prop_assert_eq!(s0.get(net), s1.get(mapped), "net {} pre-clock", net);
                }
                s0.clock();
                s1.clock();
                for &net in &observed {
                    let mapped = opt.net(net).expect("observed nets survive");
                    prop_assert_eq!(s0.get(net), s1.get(mapped), "net {} post-clock", net);
                }
            }
        }

        /// Optimization is idempotent on its own output (sizes stabilise).
        #[test]
        fn optimize_is_idempotent(r in recipe()) {
            let (nl, _, _) = build(&r);
            let once = nl.optimize().unwrap();
            let twice = once.netlist.optimize().unwrap();
            prop_assert_eq!(once.netlist.stats().luts, twice.netlist.stats().luts);
            prop_assert_eq!(once.netlist.stats().dffs, twice.netlist.stats().dffs);
        }

        /// Migration equivalence: the fixpoint loop of `optimize()`
        /// reproduces the frozen pre-framework optimizer
        /// byte for byte — serialised netlist, cell map and net map —
        /// on the same random corpus.
        #[test]
        fn optimize_matches_frozen_reference(r in recipe()) {
            let (nl, _, _) = build(&r);
            let reference = nl.optimize_reference().unwrap();
            let pipeline = nl.optimize().unwrap();
            prop_assert_eq!(reference.netlist.to_text(), pipeline.netlist.to_text());
            prop_assert_eq!(reference.cell_map, pipeline.cell_map);
            prop_assert_eq!(reference.net_map, pipeline.net_map);
            let once_ref = nl.optimize_once_reference().unwrap();
            let once = nl.optimize_once().unwrap();
            prop_assert_eq!(once_ref.netlist.to_text(), once.netlist.to_text());
            prop_assert_eq!(once_ref.cell_map, once.cell_map);
            prop_assert_eq!(once_ref.net_map, once.net_map);
        }
    }
}

// ---------------------------------------------------------------------
// Text-serialization round-trips on random circuits
// ---------------------------------------------------------------------

mod serdes_props {
    use htd_netlist::{LutMask, Netlist};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// to_text/from_text round-trips arbitrary generated circuits
        /// exactly (structure and canonical text).
        #[test]
        fn text_roundtrip(
            n_inputs in 1usize..=4,
            n_dffs in 0usize..=3,
            luts in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(0usize..64, 1..=4)),
                1..=12,
            ),
            dff_d in proptest::collection::vec(0usize..64, 0..=3),
            weird_name in "[a-zA-Z0-9 _\\\\\"\\[\\]]{0,12}",
        ) {
            let mut nl = Netlist::new(weird_name);
            let mut nets: Vec<_> =
                (0..n_inputs).map(|i| nl.add_input(format!("in{i}"))).collect();
            let mut cells = Vec::new();
            for i in 0..n_dffs {
                let (c, q) = nl.add_dff_uninit(format!("r{i}"));
                cells.push(c);
                nets.push(q);
            }
            for (mask_bits, picks) in &luts {
                let ins: Vec<_> = picks.iter().map(|&p| nets[p % nets.len()]).collect();
                let mask = LutMask::new(ins.len(), *mask_bits).unwrap();
                nets.push(nl.add_lut(&ins, mask).unwrap());
            }
            for (i, c) in cells.iter().enumerate() {
                let pick = dff_d.get(i).copied().unwrap_or(0);
                nl.connect_dff_d(*c, nets[pick % nets.len()]).unwrap();
            }
            nl.add_output("o", *nets.last().unwrap()).unwrap();

            let text = nl.to_text();
            let back = Netlist::from_text(&text).unwrap();
            prop_assert_eq!(back.to_text(), text);
            prop_assert_eq!(back.cell_count(), nl.cell_count());
            prop_assert_eq!(back.net_count(), nl.net_count());
            for (id, cell) in nl.cells() {
                prop_assert_eq!(back.cell(id).kind(), cell.kind());
                prop_assert_eq!(back.cell(id).inputs(), cell.inputs());
            }
        }
    }

    /// A hand-written cyclic netlist parses but fails validation — the
    /// parser is the one entry point that can express a combinational
    /// cycle, and levelization catches it.
    #[test]
    fn parsed_cycle_is_rejected_by_validation() {
        let text = "htdnet 1 \"cycle\"\n\
            net n0 \"a\"\n\
            net n1 \"x\"\n\
            net n2 \"y\"\n\
            input c0 \"a\" -> n0\n\
            lut c1 \"l1\" 0x8 (n0 n2) -> n1\n\
            lut c2 \"l2\" 0x2 (n1) -> n2\n\
            output c3 \"o\" (n2)\n";
        let nl = Netlist::from_text(text).unwrap();
        assert!(matches!(
            nl.validate(),
            Err(htd_netlist::NetlistError::CombinationalCycle { .. })
        ));
    }
}
