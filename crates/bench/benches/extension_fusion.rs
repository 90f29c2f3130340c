//! Extension (Section VI perspectives): evaluating detection under
//! inter-die process variations "using both delay and EM measurements" —
//! each channel alone, then fused.

use htd_bench::{banner, lab, KEY, PT};
use htd_core::channel::Channel;
use htd_core::channel::{DelayChannel, EmChannel, PowerChannel};
use htd_core::em_detect::TraceMetric;
use htd_core::fusion::{
    characterize, fusion_experiment_with, score, Campaign, GoldenCharacterization,
};
use htd_core::report::{multi_channel_table, pct, Table};
use htd_core::{CampaignPlan, Engine};
use htd_trojan::TrojanSpec;

fn main() {
    banner(
        "Extension — fused delay + EM detection across dies",
        "the paper proposes using both channels for a more precise PV-aware evaluation",
    );
    let lab = lab();
    let n_dies = 48;
    println!("\nmeasuring EM traces and delay matrices over {n_dies} dies...");
    let report = fusion_experiment_with(
        &Engine::default(),
        &lab,
        &TrojanSpec::size_sweep(),
        n_dies,
        3, // (P,K) pairs in the delay campaign
        &PT,
        &KEY,
        4242,
    )
    .expect("experiment runs");

    let mut table = Table::new(&[
        "trojan",
        "EM µ/σ",
        "EM FN",
        "delay µ/σ",
        "delay FN",
        "fused µ/σ",
        "fused FN",
    ]);
    for row in &report.rows {
        table.push_row(&[
            row.name.clone(),
            format!("{:.2}", row.em.mu / row.em.sigma),
            pct(row.em.analytic_fn_rate),
            format!("{:.2}", row.delay.mu / row.delay.sigma),
            pct(row.delay.analytic_fn_rate),
            format!("{:.2}", row.fused.mu / row.fused.sigma),
            pct(row.fused.analytic_fn_rate),
        ]);
    }
    println!("{table}");

    // The same campaign through the generic channel runner, with the power
    // chain added as a third detector: per-channel and fused FN rates for
    // every trojan land in one report.
    let n3 = 24;
    println!("adding the power chain: EM + delay + power over {n3} dies...");
    let plan = CampaignPlan::with_random_pairs(n3, 3, 3, PT, KEY, 4242);
    let (em, power) = (
        EmChannel::paper(),
        PowerChannel::new(TraceMetric::SumOfLocalMaxima),
    );
    let channels: [&dyn Channel; 3] = [&em, &DelayChannel, &power];
    let campaign = Campaign::default();
    let charac: GoldenCharacterization =
        characterize(&campaign, &lab, &plan, &channels).expect("characterization runs");
    let report3 = score(
        &campaign,
        &lab,
        &charac,
        &TrojanSpec::size_sweep(),
        &channels,
        None,
    )
    .expect("three-channel experiment runs")
    .report;
    println!("{}", multi_channel_table(&report3));

    println!("finding: both channels sense the same die personality (a fast die");
    println!("is fast in delay AND shifts its EM trace), so their golden noise is");
    println!("correlated and the naive z-sum lands between the two channels");
    println!("instead of gaining the independent-evidence √2. A PV-aware combined");
    println!("detector must whiten against the common die-speed factor first —");
    println!("a concrete answer to the paper's future-work question.");
}
