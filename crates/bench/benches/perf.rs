//! Criterion performance benchmarks of the simulation substrates: how fast
//! the suite elaborates, simulates and measures the AES target.

use criterion::{criterion_group, criterion_main, Criterion};
use htd_aes::structural::{AesNetlist, AesSim};
use htd_bench::{lab, KEY, PT};
use htd_core::{Design, ProgrammedDevice};
use htd_oracle::EventSimulator;
use htd_timing::DelayAnnotation;

fn bench_generate(c: &mut Criterion) {
    c.bench_function("aes_netlist_generate", |b| {
        b.iter(|| AesNetlist::generate().expect("generates"))
    });
}

fn bench_functional_encrypt(c: &mut Criterion) {
    let aes = AesNetlist::generate().expect("generates");
    c.bench_function("functional_encrypt_block", |b| {
        let mut sim = AesSim::new(&aes).expect("simulates");
        b.iter(|| sim.encrypt(&PT, &KEY))
    });
}

fn bench_timed_round(c: &mut Criterion) {
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let aes = golden.aes();
    let mut sim = AesSim::new(aes).expect("simulates");
    sim.start(&PT, &KEY);
    for _ in 0..8 {
        sim.step_round();
    }
    let snapshot = sim.simulator().snapshot();
    c.bench_function("timed_round10_event_sim", |b| {
        b.iter(|| {
            let mut esim = EventSimulator::from_snapshot(aes.netlist(), snapshot.clone());
            esim.clock_cycle(dev.annotation())
        })
    });
}

fn bench_em_acquisition(c: &mut Criterion) {
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    c.bench_function("em_trace_full_encryption", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            dev.acquire_em_trace(&PT, &KEY, seed)
        })
    });
}

fn bench_annotation(c: &mut Criterion) {
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    c.bench_function("delay_annotation", |b| {
        b.iter(|| {
            DelayAnnotation::annotate(golden.aes().netlist(), golden.placement(), &lab.tech, &die)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generate, bench_functional_encrypt, bench_timed_round, bench_em_acquisition, bench_annotation
}
criterion_main!(benches);
