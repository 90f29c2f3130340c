//! End-to-end delay-based detection (paper Section III): golden model
//! characterisation, Eq. (4) comparison, detection of both paper trojans,
//! and no false positive on a clean re-measurement.

use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::prelude::*;
use htd_core::ProgrammedDevice;

fn detector(lab: &Lab, golden_dev: &ProgrammedDevice<'_>, pairs: usize) -> DelayDetector {
    let _ = lab;
    let campaign = DelayCampaign::random(pairs, 10, 0xC0FFEE);
    DelayDetector::new(characterize_golden(golden_dev, campaign).unwrap())
}

#[test]
fn clean_remeasurement_is_not_flagged() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let det = detector(&lab, &dev, 10);
    // Same die, same design, fresh measurement noise (the paper's
    // Clean1/Clean2 curves in Fig. 3).
    let evidence = det.examine(&dev, 1).unwrap();
    assert!(
        !evidence.infected,
        "clean device flagged: {} bits over {} ps (max {})",
        evidence.flagged_bits, evidence.threshold_ps, evidence.max_diff_ps
    );
    assert!(evidence.max_diff_ps < 70.0);
}

#[test]
fn combinational_trojan_is_detected() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(0);
    let golden_dev = ProgrammedDevice::new(&lab, &golden, &die);
    let det = detector(&lab, &golden_dev, 10);
    let dut = ProgrammedDevice::new(&lab, &infected, &die);
    let evidence = det.examine(&dut, 2).unwrap();
    assert!(evidence.infected);
    assert!(
        evidence.flagged_bits >= 4,
        "only {} bits flagged",
        evidence.flagged_bits
    );
    // Fig. 3 scale: shifts of hundreds of ps.
    assert!(
        evidence.max_diff_ps > 150.0 && evidence.max_diff_ps < 3_000.0,
        "max diff {}",
        evidence.max_diff_ps
    );
}

#[test]
fn sequential_trojan_is_detected_without_activation() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_seq()).unwrap();
    let die = lab.fabricate_die(0);
    let golden_dev = ProgrammedDevice::new(&lab, &golden, &die);
    let det = detector(&lab, &golden_dev, 10);
    let dut = ProgrammedDevice::new(&lab, &infected, &die);
    let evidence = det.examine(&dut, 3).unwrap();
    assert!(
        evidence.infected,
        "HT-seq missed (max {})",
        evidence.max_diff_ps
    );
}

#[test]
fn more_pairs_accumulate_more_evidence() {
    // Section III-B: "the more (P,K) pairs are studied, the more bits will
    // be sampled, the more evidence about HT presence is collected".
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(0);
    let golden_dev = ProgrammedDevice::new(&lab, &golden, &die);
    let det = detector(&lab, &golden_dev, 12);
    let dut = ProgrammedDevice::new(&lab, &infected, &die);
    let engine = Engine::default();
    let few = det.examine_pairs_with(&engine, &dut, 4, 2).unwrap();
    let many = det.examine_pairs_with(&engine, &dut, 4, 12).unwrap();
    assert!(many.flagged_bits >= few.flagged_bits);
    assert!(many.infected);
    // Asking for more pairs than the golden campaign characterised is an
    // error, not a silent truncation.
    assert!(matches!(
        det.examine_pairs_with(&engine, &dut, 4, 13),
        Err(Error::PairCountExceedsCampaign {
            requested: 13,
            available: 12,
        })
    ));
}
