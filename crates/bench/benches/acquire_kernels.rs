//! Per-stage benchmarks of the acquisition hot path: compiled event
//! replay, impulse-train binning, dense convolution, the per-rep
//! noise/quantise replay, and a whole cold acquisition on a fresh
//! device. Together with `perf.rs` these pin where the time goes inside
//! one `acquire.EM` span (see EXPERIMENTS.md, "Where the time goes").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use htd_aes::structural::AesSim;
use htd_bench::{lab, KEY, PT};
use htd_core::channel::DieReading;
use htd_core::em_detect::SideChannel;
use htd_core::{CampaignPlan, Design, ProgrammedDevice};
use htd_em::{convolve_kernel, read_out, ImpulseTrain};
use htd_timing::{CompiledSimulator, CompiledTiming};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_compile_timing(c: &mut Criterion) {
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    c.bench_function("compile_timing_tables", |b| {
        b.iter(|| CompiledTiming::compile(golden.aes().netlist(), dev.annotation()))
    });
}

fn bench_compiled_full_encryption(c: &mut Criterion) {
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let aes = golden.aes();
    let ct = CompiledTiming::compile(aes.netlist(), dev.annotation());
    let mut fsim = aes.netlist().simulator().expect("simulates");
    fsim.set_bus_bytes(aes.plaintext(), &PT);
    fsim.set_bus_bytes(aes.key(), &KEY);
    fsim.set(aes.load(), true);
    fsim.settle();
    let snapshot = fsim.snapshot();
    let n_cycles = lab.acquisition.n_cycles;
    // The streaming replay the acquisition path runs: toggles go to a
    // visitor, no `TimedRun` is built.
    c.bench_function("compiled_sim_full_encryption", |b| {
        b.iter(|| {
            let mut esim = CompiledSimulator::from_snapshot(&ct, snapshot.clone());
            esim.set_input(aes.load(), false);
            let mut toggles = 0usize;
            for _ in 0..n_cycles {
                esim.clock_cycle_visit(|_, _, _| toggles += 1);
            }
            toggles
        })
    });
}

fn bench_cold_acquire(c: &mut Criterion) {
    // One whole cold acquisition, as a lot-cold score pays it per (die,
    // pair): compile the timing tables, replay the encryption binning
    // every toggle, convolve and read out — on a fresh device each time.
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    c.bench_function("acquire_em_trace_cold", |b| {
        b.iter(|| {
            let dev = ProgrammedDevice::new(&lab, &golden, &die);
            dev.acquire_em_trace(&PT, &KEY, 0)
        })
    });
}

fn bench_kernel_stages(c: &mut Criterion) {
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let events = dev
        .timed_encryption_activity(&PT, &KEY)
        .expect("activity simulates");
    let em = &lab.em;
    let weighted: Vec<(f64, f64)> = events
        .iter()
        .map(|e| (e.time_ps, e.charge * em.probe.coupling(e.position)))
        .collect();
    let dt = em.scope.sample_period_ps;
    let kernel = em.probe.impulse_response(dt);
    let n = lab.acquisition.n_samples(dt);

    // The binning the cold acquisition ships: one `ImpulseTrain::add` per
    // weighted event, as the compiled replay delivers them. The id is
    // kept so existing stage-to-ledger mappings still name it.
    let bin = || {
        let mut train = ImpulseTrain::new(dt, n);
        for &(t, q) in &weighted {
            train.add(t, q);
        }
        train
    };
    c.bench_function("bin_events_full_encryption", |b| b.iter(bin));
    let impulses = bin().into_impulses();

    let mut clean = Vec::new();
    c.bench_function("convolve_probe_kernel", |b| {
        b.iter(|| convolve_kernel(&impulses, &kernel, &mut clean))
    });

    c.bench_function("read_out_noise_pass", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            read_out(
                &clean,
                &em.scope,
                em.gain,
                em.setup_gain_jitter,
                lab.acquisition.averages,
                &mut rng,
            )
        })
    });
}

fn bench_warm_acquire_rep(c: &mut Criterion) {
    // Repeated EM read-outs of one die reading: the replay and the
    // convolution are paid by the first, so each rep pays only the
    // read-out — the per-rep cost of an averaging study.
    let lab = lab();
    let golden = Design::golden(&lab).expect("builds");
    let die = lab.fabricate_die(0);
    let dev = ProgrammedDevice::new(&lab, &golden, &die);
    let plan = CampaignPlan::traces(1, PT, KEY, 0);
    let reading = DieReading::new(&dev, &plan);
    reading
        .trace(SideChannel::Em, 0)
        .expect("replays and convolves");
    c.bench_function("acquire_em_trace_warm_rep", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            reading.trace(SideChannel::Em, seed)
        })
    });
}

fn bench_settle_times(c: &mut Criterion) {
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
    let ct = CompiledTiming::compile(aes.netlist(), dev.annotation());
    c.bench_function("compiled_round10_cycle", |b| {
        b.iter(|| {
            let mut esim = CompiledSimulator::from_snapshot(&ct, snapshot.clone());
            black_box(esim.clock_cycle())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compile_timing, bench_compiled_full_encryption, bench_cold_acquire, bench_kernel_stages, bench_warm_acquire_rep, bench_settle_times
}
criterion_main!(benches);
