//! The netlist optimizer must preserve AES-128 behaviour end to end — a
//! heavyweight equivalence check that exercises constant folding through
//! the incrementer's carry-in, the control decode and the S-box trees.

use htd_aes::soft::Aes128;
use htd_aes::AesNetlist;
use htd_oracle::OptimizeReference;

#[test]
fn optimized_aes_still_encrypts_correctly() {
    let aes = AesNetlist::generate().expect("generates");
    let original = aes.netlist();
    let opt = original.optimize().expect("optimizes");
    let before = original.stats();
    let after = opt.netlist.stats();
    // Optimization must not grow the design and must keep all state.
    assert!(
        after.luts <= before.luts,
        "{} -> {}",
        before.luts,
        after.luts
    );
    assert_eq!(after.dffs, before.dffs);
    assert_eq!(after.inputs, before.inputs);
    assert_eq!(after.outputs, before.outputs);

    // Run a full encryption on the optimized netlist through the mapped
    // pins.
    let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
    let key = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";
    let want = Aes128::new(&key).encrypt_block(&pt);

    let nl = &opt.netlist;
    let mut sim = nl.simulator().expect("valid optimized netlist");
    let map = |nets: &[htd_netlist::NetId]| -> Vec<htd_netlist::NetId> {
        nets.iter()
            .map(|&n| opt.net(n).expect("interface nets survive"))
            .collect()
    };
    let pt_nets = map(aes.plaintext());
    let key_nets = map(aes.key());
    let ct_nets = map(aes.ciphertext());
    let load = opt.net(aes.load()).expect("load survives");

    sim.set_bus_bytes(&pt_nets, &pt);
    sim.set_bus_bytes(&key_nets, &key);
    sim.set(load, true);
    sim.settle();
    sim.clock();
    sim.set(load, false);
    sim.settle();
    for _ in 0..10 {
        sim.clock();
    }
    let got: [u8; 16] = sim
        .get_bus_bytes(&ct_nets)
        .try_into()
        .expect("128-bit ciphertext");
    assert_eq!(got, want);
}

/// Migration equivalence on the full AES structural netlist: the
/// fixpoint loop of `optimize()` must reproduce the frozen
/// pre-framework optimizer byte for byte — serialised netlist plus the
/// complete cell and net remaps.
#[test]
fn optimize_pipeline_is_bit_identical_to_reference_on_aes() {
    let aes = AesNetlist::generate().expect("generates");
    let original = aes.netlist();
    let reference = original.optimize_reference().expect("reference optimizes");
    let pipeline = original.optimize().expect("pipeline optimizes");
    assert_eq!(
        reference.netlist.to_text(),
        pipeline.netlist.to_text(),
        "serialised netlists diverge"
    );
    assert_eq!(reference.cell_map, pipeline.cell_map, "cell remaps diverge");
    assert_eq!(reference.net_map, pipeline.net_map, "net remaps diverge");
}

/// The structural lint gate must pass the real AES netlist clean —
/// it gates every generated (trojaned) variant, so a false positive
/// here would reject all of them.
#[test]
fn aes_netlist_lints_clean() {
    let aes = AesNetlist::generate().expect("generates");
    let diagnostics = htd_netlist::lint(aes.netlist());
    assert!(
        diagnostics.is_clean(),
        "AES lints dirty: {:?}",
        diagnostics.lints()
    );
}
