//! Fig. 6: impact of inter-die process variations — the deviation traces
//! `Dg_j = |G_j − E₈(G)|` of 8 golden dies vs `Dt_j = |T_j − E₈(G)|` of
//! the HT 2 (1 %) infected design on the same 8 dies.
//!
//! Paper: the genuine deviations form a PV fluctuation band; the HT 2
//! deviations exceed it at certain samples, so points of interest exist.

use htd_bench::{banner, lab, KEY, PT};
use htd_core::em_detect::{characterize_em_golden, SideChannel};
use htd_core::report::Table;
use htd_core::{Design, ProgrammedDevice};
use htd_em::Trace;
use htd_stats::peaks::sum_of_local_maxima;
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Fig. 6 — inter-die PV: |G_j − E₈(G)| vs |T_j − E₈(G)| (HT 2)",
        "HT 2 (1%) deviations exceed the PV fluctuation band at specific samples",
    );
    let lab = lab();
    let golden = Design::golden(&lab).expect("golden design builds");
    let infected = Design::infected(&lab, &TrojanSpec::ht2()).expect("insertion succeeds");
    let dies = lab.fabricate_batch(8, 0);
    let model = characterize_em_golden(&lab, dies.len(), SideChannel::Em, &PT, &KEY, 6000)
        .expect("golden characterisation succeeds");

    let mut table = Table::new(&[
        "die",
        "genuine: max Dg",
        "genuine: Σ local maxima",
        "infected: max Dt",
        "infected: Σ local maxima",
    ]);
    let mut g_metrics = Vec::new();
    let mut t_metrics = Vec::new();
    for (j, die) in dies.iter().enumerate() {
        let g = ProgrammedDevice::new(&lab, &golden, die)
            .acquire_em_trace(&PT, &KEY, 6000 + j as u64)
            .expect("EM trace acquires");
        let t = ProgrammedDevice::new(&lab, &infected, die)
            .acquire_em_trace(&PT, &KEY, 7000 + j as u64)
            .expect("EM trace acquires");
        let dg: Trace = g.abs_diff(&model.mean_trace);
        let dt: Trace = t.abs_diff(&model.mean_trace);
        let (mg, mt) = (
            sum_of_local_maxima(dg.samples()),
            sum_of_local_maxima(dt.samples()),
        );
        g_metrics.push(mg);
        t_metrics.push(mt);
        table.push_row(&[
            j.to_string(),
            format!("{:.0}", dg.peak()),
            format!("{mg:.0}"),
            format!("{:.0}", dt.peak()),
            format!("{mt:.0}"),
        ]);
    }
    println!("\n{table}");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "mean Σ-local-maxima: genuine {:.0}, HT 2 infected {:.0} (ratio {:.2})",
        mean(&g_metrics),
        mean(&t_metrics),
        mean(&t_metrics) / mean(&g_metrics)
    );
    let overlap = t_metrics
        .iter()
        .filter(|&&t| g_metrics.iter().any(|&g| g >= t))
        .count();
    println!(
        "{overlap}/8 infected dies fall inside the genuine band (the residual confusion Eq. 5 quantifies)"
    );
}
