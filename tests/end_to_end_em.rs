//! End-to-end EM-based detection (paper Sections IV–V): same-die direct
//! comparison, inter-die golden modelling, and classification with the
//! sum-of-local-maxima metric.

use htd_core::em_detect::{
    characterize_em_golden, direct_compare, EmDetector, EmGoldenModel, SideChannel,
};
use htd_core::prelude::*;
use htd_core::ProgrammedDevice;

const PT: [u8; 16] = [0x42u8; 16];
const KEY: [u8; 16] = [0x13u8; 16];

/// Pins a golden model bit for bit: the Gaussian's mean and standard
/// deviation, then every golden metric in die order.
fn assert_model_bits(model: &EmGoldenModel, want: &[u64]) {
    let got: Vec<u64> = [model.gaussian.mean(), model.gaussian.std()]
        .into_iter()
        .chain(model.golden_metrics.iter().copied())
        .map(f64::to_bits)
        .collect();
    let hex: Vec<String> = got.iter().map(|b| format!("{b:#018x}")).collect();
    assert_eq!(got, want, "golden model bits: [{}]", hex.join(", "));
}

#[test]
fn same_die_direct_comparison_flags_the_trojan() {
    // The paper's Fig. 5: two genuine captures bound the setup noise; the
    // infected capture deviates well above it.
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(3);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let tdev = ProgrammedDevice::new(&lab, &infected, &die);
    let g1 = gdev.acquire_em_trace(&PT, &KEY, 100).unwrap();
    let g2 = gdev.acquire_em_trace(&PT, &KEY, 200).unwrap(); // re-installed setup
    let t = tdev.acquire_em_trace(&PT, &KEY, 300).unwrap();
    let cmp = direct_compare(&g1, &g2, &t);
    assert!(
        cmp.infected,
        "HT not visible: diff {} vs floor {}",
        cmp.max_abs_diff, cmp.noise_floor
    );
    // And a third genuine capture is NOT flagged.
    let g3 = gdev.acquire_em_trace(&PT, &KEY, 400).unwrap();
    let cmp_clean = direct_compare(&g1, &g2, &g3);
    assert!(
        !cmp_clean.infected,
        "clean capture flagged: diff {} vs floor {}",
        cmp_clean.max_abs_diff, cmp_clean.noise_floor
    );
}

#[test]
fn interdie_detector_classifies_large_trojan_reliably() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht3()).unwrap();
    // The paper's batch size.
    let model = characterize_em_golden(&lab, 8, SideChannel::Em, &PT, &KEY, 500).unwrap();
    assert_model_bits(
        &model,
        &[
            0x4113cfd770000000,
            0x40ffac9a2d42de72,
            0x41122af600000000,
            0x4106d66e00000000,
            0x411c8aa680000000,
            0x4100838e00000000,
            0x410ce54a00000000,
            0x411ab2ae00000000,
            0x411c457980000000,
            0x4116b15480000000,
        ],
    );
    let det = EmDetector::with_false_positive_rate(model, 0.05).unwrap();
    // Fresh dies the model never saw.
    let mut detected = 0;
    let mut false_pos = 0;
    for seed in 100..108u64 {
        let die = lab.fabricate_die(seed);
        let t_inf = ProgrammedDevice::new(&lab, &infected, &die)
            .acquire_em_trace(&PT, &KEY, seed)
            .unwrap();
        if det.is_infected(&t_inf) {
            detected += 1;
        }
        let t_gold = ProgrammedDevice::new(&lab, &golden, &die)
            .acquire_em_trace(&PT, &KEY, seed + 50)
            .unwrap();
        if det.is_infected(&t_gold) {
            false_pos += 1;
        }
    }
    assert!(detected >= 7, "only {detected}/8 infected dies detected");
    assert!(false_pos <= 2, "{false_pos}/8 golden dies misclassified");
}

#[test]
fn metric_grows_with_trojan_size() {
    // Fig. 6's message: bigger trojans push the deviation statistic
    // further above the golden fluctuation band.
    let lab = Lab::paper();
    let model = characterize_em_golden(&lab, 6, SideChannel::Em, &PT, &KEY, 900).unwrap();
    assert_model_bits(
        &model,
        &[
            0x4111794700000001,
            0x41010579e7407cc5,
            0x4110c7c95555555e,
            0x4104f2eaaaaaaab0,
            0x411d80ea00000009,
            0x40fec49555555553,
            0x410dabd6aaaaaaaa,
            0x41198e70aaaaaaa2,
        ],
    );
    let det = EmDetector::with_false_positive_rate(model, 0.05).unwrap();
    let probe_die = lab.fabricate_die(77);
    let mut metrics = Vec::new();
    for spec in TrojanSpec::size_sweep() {
        let infected = Design::infected(&lab, &spec).unwrap();
        let t = ProgrammedDevice::new(&lab, &infected, &probe_die)
            .acquire_em_trace(&PT, &KEY, 901)
            .unwrap();
        metrics.push(det.metric(&t));
    }
    assert!(
        metrics[0] < metrics[1] && metrics[1] < metrics[2],
        "metrics not monotone in size: {metrics:?}"
    );
}

#[test]
fn tvla_ttest_flags_the_trojan_on_raw_traces() {
    // The TVLA alternative to the paper's averaged-trace comparison: two
    // populations of lightly averaged traces, pointwise Welch t-test.
    // Populations of 30 keep the t-distribution's tails close enough to
    // normal for the classical 4.5 threshold to control the false-positive
    // rate across ~2700 samples.
    let mut lab = Lab::paper();
    lab.acquisition.averages = 50; // raw-ish traces, real noise present
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(2);
    let gdev = ProgrammedDevice::new(&lab, &golden, &die);
    let tdev = ProgrammedDevice::new(&lab, &infected, &die);
    // Standard TVLA preprocessing: normalise each trace by its RMS so the
    // per-installation gain error (a fixed multiplicative effect) does not
    // masquerade as leakage.
    let normalize = |t: Trace| {
        let r = t.rms().max(1e-12);
        Trace::new(t.samples().iter().map(|s| s / r).collect(), t.dt_ps())
    };
    let g_pop: Vec<_> = (0..30)
        .map(|i| normalize(gdev.acquire_em_trace(&PT, &KEY, 10_000 + i).unwrap()))
        .collect();
    let t_pop: Vec<_> = (0..30)
        .map(|i| normalize(tdev.acquire_em_trace(&PT, &KEY, 20_000 + i).unwrap()))
        .collect();
    let cmp = htd_oracle::ttest_compare(&g_pop, &t_pop).unwrap();
    assert!(cmp.infected, "max |t| = {}", cmp.max_t);
    assert!(cmp.leaking_samples > 0);

    // Control: two genuine populations do not leak.
    let g_pop2: Vec<_> = (0..30)
        .map(|i| normalize(gdev.acquire_em_trace(&PT, &KEY, 30_000 + i).unwrap()))
        .collect();
    let clean = htd_oracle::ttest_compare(&g_pop, &g_pop2).unwrap();
    assert!(
        !clean.infected,
        "clean populations leaked: max |t| = {}",
        clean.max_t
    );
}
