//! Heavy differential of the cold acquisition path on the full AES:
//! 32 dies × {golden, HT-comb, HT-seq} × 2 (plaintext, key) pairs.
//!
//! For every (design, die, pair) the compiled replay's toggle stream must
//! equal the reference [`EventSimulator`]'s, cycle by cycle and bit for
//! bit, and a trace acquired on each chain (binned inside the replay)
//! must equal `EmSetup::acquire` / `PowerSetup::acquire` over the
//! reference activity with the same derived seed. Ignored by default (a
//! few seconds in release, minutes in debug); run it with
//!
//! ```sh
//! cargo test --release --test replay_differential -- --ignored
//! ```

use htd_core::em_detect::SideChannel;
use htd_core::{Design, Engine, Lab, ProgrammedDevice};
use htd_em::Trace;
use htd_oracle::{timed_encryption_activity_reference, EventSimulator};
use htd_timing::{CompiledSimulator, CompiledTiming};
use htd_trojan::TrojanSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIES: usize = 32;
const PAIRS: [([u8; 16], [u8; 16]); 2] = [([0x3C; 16], [0xA5; 16]), ([0x01; 16], [0xFE; 16])];
/// The per-chain seed salts of `ProgrammedDevice::acquire_trace`.
const EM_SALT: u64 = 0xE37A_11CE_55AA_0001;
const POWER_SALT: u64 = 0x0F0F_5A5A_3C3C_0002;

/// Compares the compiled and reference toggle streams of one full
/// encryption; returns the toggle count.
fn compare_toggle_streams(
    lab: &Lab,
    dev: &ProgrammedDevice<'_>,
    pt: &[u8; 16],
    key: &[u8; 16],
) -> usize {
    let aes = dev.design().aes();
    let netlist = aes.netlist();
    let mut fsim = netlist.simulator().expect("simulates");
    fsim.set_bus_bytes(aes.plaintext(), pt);
    fsim.set_bus_bytes(aes.key(), key);
    fsim.set(aes.load(), true);
    fsim.settle();
    let ct = CompiledTiming::compile(netlist, dev.annotation());
    let mut reference = EventSimulator::from_snapshot(netlist, fsim.snapshot());
    let mut compiled = CompiledSimulator::from_snapshot(&ct, fsim.snapshot());
    reference.set_input(aes.load(), false);
    compiled.set_input(aes.load(), false);
    let mut total = 0;
    for cycle in 0..lab.acquisition.n_cycles {
        let want = reference.clock_cycle(dev.annotation());
        let mut got = Vec::with_capacity(want.toggles.len());
        let settle = compiled.clock_cycle_visit(|t, net, v| got.push((t.to_bits(), net, v)));
        let want_stream: Vec<_> = want
            .toggles
            .iter()
            .map(|t| (t.time_ps.to_bits(), t.net, t.new_value))
            .collect();
        assert!(want_stream == got, "cycle {cycle}: toggle streams differ");
        assert_eq!(want.settle_ps.to_bits(), settle.to_bits(), "cycle {cycle}");
        total += got.len();
    }
    total
}

fn assert_traces_equal(want: &Trace, got: &Trace, what: &str) {
    let bits = |t: &Trace| t.samples().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        want.dt_ps().to_bits(),
        got.dt_ps().to_bits(),
        "{what}: time base"
    );
    assert!(bits(want) == bits(got), "{what}: samples differ");
}

#[test]
#[ignore = "heavy: 192 full-encryption replays against the reference simulator"]
fn cold_acquisitions_match_the_reference_over_many_dies_and_designs() {
    let lab = Lab::paper();
    let designs = [
        ("golden", Design::golden(&lab).expect("builds")),
        (
            "ht-comb",
            Design::infected(&lab, &TrojanSpec::ht_comb()).expect("inserts"),
        ),
        (
            "ht-seq",
            Design::infected(&lab, &TrojanSpec::ht_seq()).expect("inserts"),
        ),
    ];
    let engine = Engine::auto();
    let dies = lab.fabricate_batch(DIES, engine.workers());
    for (name, design) in &designs {
        let toggles: Vec<usize> = engine.map(&dies, |d, die| {
            let dev = ProgrammedDevice::new(&lab, design, die);
            let mut toggles = 0;
            for (p, (pt, key)) in PAIRS.iter().enumerate() {
                let what = format!("{name} die {d} pair {p}");
                toggles += compare_toggle_streams(&lab, &dev, pt, key);
                let events =
                    timed_encryption_activity_reference(&lab, &dev, pt, key).expect("simulates");
                let seed = (d * PAIRS.len() + p) as u64;
                let mut rng = StdRng::seed_from_u64(seed ^ EM_SALT);
                let want_em = lab.em.acquire(&events, &lab.acquisition, &mut rng);
                let got_em = dev
                    .acquire_trace(SideChannel::Em, pt, key, seed)
                    .expect("acquires");
                assert_traces_equal(&want_em, &got_em, &format!("{what}: EM"));
                let mut rng = StdRng::seed_from_u64(seed ^ POWER_SALT);
                let want_power = lab.power.acquire(&events, &lab.acquisition, &mut rng);
                let got_power = dev
                    .acquire_trace(SideChannel::Power, pt, key, seed)
                    .expect("acquires");
                assert_traces_equal(&want_power, &got_power, &format!("{what}: power"));
            }
            toggles
        });
        assert!(
            toggles.iter().all(|&t| t > 10_000),
            "{name}: implausibly quiet replay"
        );
    }
}
