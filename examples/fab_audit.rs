//! Incoming-inspection audit across distinct dies (the paper's Section V
//! scenario): genuine and suspect devices are *different chips*, so the
//! detector must overcome inter-die process variations using the golden
//! population statistics and the sum-of-local-maxima metric.
//!
//! ```sh
//! cargo run --release --example fab_audit
//! ```

use htd_core::em_detect::{characterize_em_golden, EmDetector, SideChannel};
use htd_core::prelude::*;
use htd_core::report::Table;
use htd_core::ProgrammedDevice;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lab = Lab::paper();
    let golden = Design::golden(&lab)?;
    let pt = [0x5Au8; 16];
    let key = [0xC3u8; 16];

    // Characterise the golden population on 8 reference boards (the
    // paper's batch) and calibrate for a 5 % false-positive budget.
    println!("characterising golden EM population over 8 reference dies...");
    let model = characterize_em_golden(&lab, 8, SideChannel::Em, &pt, &key, 1)?;
    println!(
        "golden metric: mean {:.0}, sigma {:.0}",
        model.gaussian.mean(),
        model.gaussian.std()
    );
    let detector = EmDetector::with_false_positive_rate(model, 0.05)?;
    println!("decision threshold: {:.0}\n", detector.threshold());

    // A mixed shipment of unseen dies.
    let designs: Vec<(&str, Design)> = vec![
        ("clean", golden.clone()),
        ("HT 1 (0.5%)", Design::infected(&lab, &TrojanSpec::ht1())?),
        ("HT 2 (1.0%)", Design::infected(&lab, &TrojanSpec::ht2())?),
        ("HT 3 (1.7%)", Design::infected(&lab, &TrojanSpec::ht3())?),
    ];
    let mut table = Table::new(&["die", "payload", "metric", "verdict", "ground truth"]);
    let mut correct = 0usize;
    let mut total = 0usize;
    for die_seed in 100..106u64 {
        let die = lab.fabricate_die(die_seed);
        for (label, design) in &designs {
            let dev = ProgrammedDevice::new(&lab, design, &die);
            let trace = dev.acquire_em_trace(&pt, &key, die_seed * 17 + total as u64)?;
            let metric = detector.metric(&trace);
            let verdict = detector.is_infected(&trace);
            let truth = design.trojan().is_some();
            total += 1;
            if verdict == truth {
                correct += 1;
            }
            table.push_row(&[
                format!("#{die_seed}"),
                label.to_string(),
                format!("{metric:.0}"),
                if verdict { "REJECT" } else { "accept" }.to_string(),
                if truth { "infected" } else { "clean" }.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "{correct}/{total} classifications correct; residual errors concentrate on\n\
         the smallest trojan, exactly as the paper's 26% FN rate predicts."
    );
    Ok(())
}
