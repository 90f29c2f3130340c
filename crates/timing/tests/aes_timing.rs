//! Timed simulation of the full AES-128 netlist: the event simulator must
//! agree functionally with the zero-delay simulator, and settling times
//! must behave like real path delays (data-dependent, PV-sensitive).

use htd_aes::structural::{AesNetlist, AesSim};
use htd_fabric::{Device, DeviceConfig, DieVariation, Placement, Technology, VariationModel};
use htd_oracle::EventSimulator;
use htd_timing::{DelayAnnotation, GlitchParams, GlitchSweep, Sta};

fn setup() -> (AesNetlist, Placement, Device) {
    let aes = AesNetlist::generate().expect("AES generates");
    let device = Device::new(DeviceConfig::virtex5_lx30_scaled());
    let placement = Placement::place(aes.netlist(), &device).expect("AES fits");
    (aes, placement, device)
}

#[test]
fn timed_round10_matches_functional_ciphertext() {
    let (aes, placement, device) = setup();
    let die = DieVariation::generate(&VariationModel::none(), &device, 0);
    let ann = DelayAnnotation::annotate(aes.netlist(), &placement, &Technology::virtex5(), &die);

    let pt = *b"\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34";
    let key = *b"\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c";

    // Drive up to the edge that launches round 10: after 8 round steps
    // the state holds trace[8] and the counter reads 9; the next timed
    // cycle (edge E9) launches trace[9] and lets the round-10 logic settle
    // at the state D pins, and the edge after that (E10) captures the
    // ciphertext.
    let mut sim = AesSim::new(&aes).unwrap();
    sim.start(&pt, &key);
    for _ in 0..8 {
        sim.step_round();
    }
    assert_eq!(sim.round(), 9);
    let mut esim = EventSimulator::from_snapshot(aes.netlist(), sim.simulator().snapshot());
    let _round9_launch = esim.clock_cycle(&ann); // edge E9: round-10 logic settles
    let run = esim.clock_cycle(&ann); // edge E10: ciphertext captured
                                      // Timed final state equals the functional ciphertext.
    sim.step_round();
    sim.step_round();
    let want = sim.state();
    let mut got = [0u8; 16];
    for (i, &q) in aes.ciphertext().iter().enumerate() {
        if esim.get(q) {
            got[i / 8] |= 1 << (i % 8);
        }
    }
    assert_eq!(got, want);
    // The round actually produced activity and settled in a plausible span.
    assert!(run.toggles.len() > 500, "toggles {}", run.toggles.len());
    assert!(
        run.settle_ps > 1_000.0 && run.settle_ps < 20_000.0,
        "settle {}",
        run.settle_ps
    );
}

#[test]
fn settle_times_are_data_dependent() {
    let (aes, placement, device) = setup();
    let die = DieVariation::generate(&VariationModel::none(), &device, 0);
    let ann = DelayAnnotation::annotate(aes.netlist(), &placement, &Technology::virtex5(), &die);

    let settle_for = |pt: &[u8; 16], key: &[u8; 16]| -> Vec<Option<f64>> {
        let mut sim = AesSim::new(&aes).unwrap();
        sim.start(pt, key);
        for _ in 0..8 {
            sim.step_round();
        }
        let mut esim = EventSimulator::from_snapshot(aes.netlist(), sim.simulator().snapshot());
        let run = esim.clock_cycle(&ann); // edge E9: round-10 evaluation
        aes.state_d()
            .iter()
            .map(|&d| run.arrival_at_sinks_ps(d, &ann))
            .collect()
    };
    let count_diffs = |a: &[Option<f64>], b: &[Option<f64>]| {
        a.iter()
            .zip(b)
            .filter(|(x, y)| match (x, y) {
                (Some(x), Some(y)) => (x - y).abs() > 1.0,
                (None, None) => false,
                _ => true,
            })
            .count()
    };

    // Varying the full (P, K) pair — the paper's experimental unit —
    // re-routes most bits' last-arriving transition.
    let a = settle_for(&[0u8; 16], &[0x55u8; 16]);
    let b = settle_for(&[0xA7u8; 16], &[0xC3u8; 16]);
    let diffs_pk = count_diffs(&a, &b);
    assert!(
        diffs_pk > 64,
        "expected broad (P,K)-dependence, got {diffs_pk} differing bits"
    );

    // With the key fixed, bits whose settling is dominated by the
    // (plaintext-independent) key-schedule arrival legitimately coincide,
    // but plaintext data paths must still move a visible subset.
    let c = settle_for(&[0xA7u8; 16], &[0x55u8; 16]);
    let diffs_p = count_diffs(&a, &c);
    assert!(
        diffs_p >= 5,
        "expected plaintext-dependence on some bits, got {diffs_p}"
    );
}

#[test]
fn sta_bounds_event_sim() {
    let (aes, placement, device) = setup();
    let die = DieVariation::generate(&VariationModel::nm65(), &device, 3);
    let ann = DelayAnnotation::annotate(aes.netlist(), &placement, &Technology::virtex5(), &die);
    let sta = Sta::analyze(aes.netlist(), &ann).unwrap();
    let bound = sta.max_arrival_ps(aes.netlist(), aes.state_d(), &ann);

    let mut sim = AesSim::new(&aes).unwrap();
    sim.start(&[0x13u8; 16], &[0x37u8; 16]);
    for _ in 0..8 {
        sim.step_round();
    }
    let mut esim = EventSimulator::from_snapshot(aes.netlist(), sim.simulator().snapshot());
    let run = esim.clock_cycle(&ann);
    for &d in aes.state_d() {
        if let Some(t) = run.arrival_at_sinks_ps(d, &ann) {
            assert!(
                t <= bound + 1e-6,
                "event sim ({t}) exceeded STA bound ({bound})"
            );
        }
    }
}

#[test]
fn glitch_sweep_faults_slow_bits_first_on_aes() {
    let (aes, placement, device) = setup();
    let die = DieVariation::generate(&VariationModel::none(), &device, 0);
    let tech = Technology::virtex5();
    let ann = DelayAnnotation::annotate(aes.netlist(), &placement, &tech, &die);

    let mut sim = AesSim::new(&aes).unwrap();
    sim.start(&[0x01u8; 16], &[0xFEu8; 16]);
    for _ in 0..8 {
        sim.step_round();
    }
    let mut esim = EventSimulator::from_snapshot(aes.netlist(), sim.simulator().snapshot());
    let run = esim.clock_cycle(&ann);
    let settles: Vec<Option<f64>> = aes
        .state_d()
        .iter()
        .map(|&d| run.arrival_at_sinks_ps(d, &ann))
        .collect();
    let max_required = settles.iter().flatten().fold(0.0f64, |a, &b| a.max(b)) + tech.dff_setup_ps;
    let sweep = GlitchSweep::new(GlitchParams::paper_sweep(
        max_required,
        tech.dff_setup_ps,
        0.0,
    ));
    let mut rng = rand::rngs::mock::StepRng::new(0, 0);
    let onsets = sweep.fault_onsets(&settles, &mut rng);
    // The slowest bit faults earliest; every toggling bit slower than the
    // sweep floor faults somewhere in the 51 steps.
    let steps: Vec<_> = onsets.iter().filter_map(|o| o.step()).collect();
    assert!(!steps.is_empty());
    let min_step = *steps.iter().min().unwrap();
    assert!((2..=5).contains(&min_step), "min {min_step}");
    // Delay spread over the faulted bits is hundreds of ps (data paths
    // differ), visible as a spread of onset steps.
    let max_step = *steps.iter().max().unwrap();
    assert!(max_step > min_step + 3, "spread {min_step}..{max_step}");
}
