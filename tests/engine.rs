//! Determinism guarantees of the parallel measurement engine: every
//! campaign result must be bit-identical for every worker count
//! (including 1), and a repeated measurement must reproduce a cold one.

use htd_core::delay_detect::{
    characterize_golden_with, measure_matrix_with, DelayCampaign, DelayDetector,
};
use htd_core::em_detect::{fn_rate_experiment_with_metric, SideChannel, TraceMetric};
use htd_core::prelude::*;

const PT: [u8; 16] = [0x42u8; 16];
const KEY: [u8; 16] = [0x0Fu8; 16];

#[test]
fn delay_evidence_is_bit_identical_across_worker_counts() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
    let die = lab.fabricate_die(0);
    let campaign = DelayCampaign::random(5, 3, 0xBEEF);

    let reference = {
        let gdev = ProgrammedDevice::new(&lab, &golden, &die);
        let dut = ProgrammedDevice::new(&lab, &infected, &die);
        let det = DelayDetector::new(
            characterize_golden_with(&Engine::serial(), &gdev, campaign.clone()).unwrap(),
        );
        det.examine_pairs_with(&Engine::serial(), &dut, 7, campaign.pairs.len())
            .unwrap()
    };

    // Worker counts beyond the pair count and the machine's core count
    // are deliberate: oversubscription must not change a single bit.
    for workers in [2usize, 3, 8] {
        let engine = Engine::with_workers(workers);
        let gdev = ProgrammedDevice::new(&lab, &golden, &die);
        let dut = ProgrammedDevice::new(&lab, &infected, &die);
        let det =
            DelayDetector::new(characterize_golden_with(&engine, &gdev, campaign.clone()).unwrap());
        let evidence = det
            .examine_pairs_with(&engine, &dut, 7, campaign.pairs.len())
            .unwrap();
        assert_eq!(
            evidence.diff_ps, reference.diff_ps,
            "diff_ps diverged at {workers} workers"
        );
        assert_eq!(evidence.max_diff_ps, reference.max_diff_ps);
        assert_eq!(evidence.flagged_bits, reference.flagged_bits);
        assert_eq!(evidence.infected, reference.infected);
    }
}

#[test]
fn fn_rate_experiment_is_bit_identical_across_worker_counts() {
    let lab = Lab::paper();
    let specs = [TrojanSpec::ht2()];
    let run = |engine: &Engine| {
        fn_rate_experiment_with_metric(
            engine,
            &lab,
            &specs,
            SideChannel::Em,
            TraceMetric::SumOfLocalMaxima,
            4,
            &PT,
            &KEY,
            99,
        )
        .unwrap()
    };
    let reference = run(&Engine::serial());
    for workers in [2usize, 5] {
        let report = run(&Engine::with_workers(workers));
        assert_eq!(report.n_dies, reference.n_dies);
        for (got, want) in report.rows.iter().zip(&reference.rows) {
            assert_eq!(got.mu, want.mu, "mu diverged at {workers} workers");
            assert_eq!(got.sigma, want.sigma);
            assert_eq!(got.analytic_fn_rate, want.analytic_fn_rate);
            assert_eq!(got.empirical_fn_rate, want.empirical_fn_rate);
            assert_eq!(got.empirical_fp_rate, want.empirical_fp_rate);
        }
    }
}

#[test]
fn repeated_matrices_reproduce_cold_simulation_exactly() {
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let die = lab.fabricate_die(1);
    let campaign = DelayCampaign::random(4, 2, 3);
    let params = htd_timing::GlitchParams::paper_sweep(9_000.0, 180.0, 12.0);

    // The device keeps no settles: measuring it again (at another worker
    // count) simulates every settle again and yields the same matrix.
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let cold = measure_matrix_with(&Engine::serial(), &dev, &campaign, &params, 5).unwrap();
    let again = measure_matrix_with(&Engine::with_workers(4), &dev, &campaign, &params, 5).unwrap();
    assert_eq!(again, cold);

    // A fresh device still produces the identical matrix.
    let fresh_dev = ProgrammedDevice::new(&lab, &golden, &die);
    let fresh =
        measure_matrix_with(&Engine::with_workers(3), &fresh_dev, &campaign, &params, 5).unwrap();
    assert_eq!(fresh, cold);
}

#[test]
fn never_faulted_bits_are_distinct_from_last_step_onsets() {
    // A sweep whose floor is far above every real path: nothing faults,
    // and every mean onset carries the one-past-the-end sentinel rather
    // than the clamped last step.
    let lab = Lab::paper();
    let golden = Design::golden(&lab).unwrap();
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let campaign = DelayCampaign::random(2, 2, 11);
    let wide = htd_timing::GlitchParams {
        start_period_ps: 1.0e9,
        step_ps: 35.0,
        steps: 51,
        setup_ps: 180.0,
        noise_ps: 0.0,
    };
    let matrix = measure_matrix_with(&Engine::serial(), &dev, &campaign, &wide, 0).unwrap();
    let sentinel = wide.never_onset_steps();
    assert_eq!(sentinel, 51.0);
    for row in &matrix.mean_onset_steps {
        for &v in row {
            assert_eq!(v, sentinel, "never-faulted bit must carry the sentinel");
            assert!(v > (wide.steps - 1) as f64);
        }
    }
}
