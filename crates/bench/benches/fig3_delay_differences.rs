//! Fig. 3: per-bit delay differences vs the golden model, for two clean
//! re-measurements and both paper trojans, shown (like the paper) for the
//! representative pairs #13 and #47 of a 50-pair campaign.
//!
//! Paper: clean curves hug zero; HT-comb and HT-seq shift many bits, up to
//! ~1.4 ns, although neither sits on the critical path.

use htd_bench::{banner, lab, sparkline};
use htd_core::delay_detect::{characterize_golden_with, DelayCampaign, DelayDetector};
use htd_core::report::{ps, write_csv, Table};
use htd_core::{Design, Engine, ProgrammedDevice};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Fig. 3 — per-bit delay differences (pairs #13 and #47 of 50)",
        "Clean1/Clean2 ≈ 0; HT-comb and HT-seq shift bits by up to ~1.4 ns",
    );
    let lab = lab();
    let golden = Design::golden(&lab).expect("golden design builds");
    let die = lab.fabricate_die(0);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);

    // The paper's campaign: 50 pairs, 10 repetitions, fanned across the
    // measurement engine (see the ablation_threads bench for the
    // worker-count study; the figure is bit-identical at any count).
    let engine = Engine::auto();
    let campaign = DelayCampaign::paper(0xF1633);
    println!(
        "\ncharacterising the golden model (50 pairs × 10 sweeps, {} workers)...",
        engine.workers()
    );
    let detector = DelayDetector::new(
        characterize_golden_with(&engine, &gdev, campaign)
            .expect("golden characterisation succeeds"),
    );

    let designs: Vec<(String, Design, u64)> = vec![
        ("Clean1".into(), golden.clone(), 101),
        ("Clean2".into(), golden.clone(), 202),
        (
            "HTcomb".into(),
            Design::infected(&lab, &TrojanSpec::ht_comb()).expect("insertion succeeds"),
            303,
        ),
        (
            "HTseq".into(),
            Design::infected(&lab, &TrojanSpec::ht_seq()).expect("insertion succeeds"),
            404,
        ),
    ];

    let mut summary = Table::new(&["design", "max |ΔD|", "bits > 70 ps", "verdict", "paper"]);
    let mut csv_rows: Vec<Vec<String>> = (0..128).map(|b| vec![b.to_string()]).collect();
    let mut csv_headers: Vec<String> = vec!["bit".into()];
    for (name, design, salt) in &designs {
        let dev = ProgrammedDevice::new(&lab, design, &die);
        let n_pairs = detector.golden().campaign.pairs.len();
        let evidence = detector
            .examine_pairs_with(&engine, &dev, *salt, n_pairs)
            .expect("examination succeeds");
        for pair in [13usize, 47] {
            let series = &evidence.diff_ps[pair];
            println!(
                "{name:>7} pair #{pair:<2} |ΔD| per bit: {}",
                sparkline(series)
            );
            csv_headers.push(format!("{name}_pair{pair}_ps"));
            for (b, v) in series.iter().enumerate() {
                csv_rows[b].push(format!("{v:.1}"));
            }
        }
        let expected = match name.as_str() {
            "Clean1" | "Clean2" => "≈0 (no HT)",
            _ => "large shifts, detected",
        };
        summary.push_row(&[
            name.clone(),
            ps(evidence.max_diff_ps),
            evidence.flagged_bits.to_string(),
            if evidence.infected { "HT!" } else { "clean" }.to_string(),
            expected.to_string(),
        ]);
    }
    println!("\n{summary}");
    println!("each sparkline is 128 bits wide; spikes are HT-shifted bits.");

    let headers: Vec<&str> = csv_headers.iter().map(String::as_str).collect();
    let path = "target/paper_figures/fig3_delay_differences.csv";
    match write_csv(path, &headers, &csv_rows) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
