//! Ablation (Section III-B): "the more (P,K) pairs are studied, the more
//! bits will be sampled, the more evidence about HT presence is collected.
//! Furthermore, the false positive rate is decreased."

use htd_bench::{banner, lab};
use htd_core::delay_detect::{characterize_golden, DelayCampaign, DelayDetector};
use htd_core::report::{ps, Table};
use htd_core::{Design, Engine, ProgrammedDevice};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Ablation — evidence vs number of (P,K) pairs",
        "more pairs sample more bits and accumulate more evidence",
    );
    let lab = lab();
    let golden = Design::golden(&lab).expect("golden design builds");
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).expect("insertion succeeds");
    let die = lab.fabricate_die(0);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let dut = ProgrammedDevice::new(&lab, &infected, &die);
    let clean = ProgrammedDevice::new(&lab, &golden, &die);

    let campaign = DelayCampaign::paper(0x0A12);
    let detector = DelayDetector::new(
        characterize_golden(&gdev, campaign).expect("golden characterisation succeeds"),
    );

    let mut table = Table::new(&[
        "pairs",
        "HT: flagged bits",
        "HT: max |ΔD|",
        "HT verdict",
        "clean: flagged bits",
        "clean verdict",
    ]);
    let engine = Engine::default();
    for n in [1usize, 2, 5, 10, 20, 35, 50] {
        let e = detector
            .examine_pairs_with(&engine, &dut, 9, n)
            .expect("n within campaign");
        let c = detector
            .examine_pairs_with(&engine, &clean, 10, n)
            .expect("n within campaign");
        table.push_row(&[
            n.to_string(),
            e.flagged_bits.to_string(),
            ps(e.max_diff_ps),
            if e.infected { "HT!" } else { "clean" }.to_string(),
            c.flagged_bits.to_string(),
            if c.infected { "HT!" } else { "clean" }.to_string(),
        ]);
    }
    println!("\n{table}");
    println!("flagged-bit coverage grows with the pair count while the clean");
    println!("device stays unflagged — evidence accumulates without false positives.");
}
