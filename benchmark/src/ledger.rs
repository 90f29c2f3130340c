//! The per-layer ledger: one scoring operation replayed through the
//! public calls of each layer, with one span per call.
//!
//! A replay does the work an `htd score` process does for the same
//! artifact and suspects — the same `Lab`, die seeds, plan, pairs,
//! repetitions and channels — but calls each layer's public entry point
//! itself, so the time of every call is charged to the layer that owns
//! it. Spans are per call (per die, per pair, per repetition), never per
//! event. The spans never nest, so a layer's self time is the sum of its
//! span durations.
//!
//! The replay runs on one thread; it is compared against a serial
//! (`--workers 1`) run of the same operation. What the layers do not
//! explain — process start, argument parsing, report rendering — is
//! reported as `ledger.unattributed_pct`.
//!
//! Measurement noise is drawn from the benchmark's own seeds, not the
//! program's, so the replayed traces differ from the program's in their
//! noise samples only; every call has the same shape and cost. Event
//! counts are structural and are checked against the program's own
//! counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use htd_aes::structural::AesSim;
use htd_core::channel::{Acquisition, Calibration, GoldenReference};
use htd_core::delay_detect::DelayMatrix;
use htd_core::fusion::ChannelResult;
use htd_core::{Design, Lab, ProgrammedDevice};
use htd_em::{bin_events_indexed, convolve_kernel, read_out, ActivityTable, Trace};
use htd_stats::Gaussian;
use htd_store::ScorableArtifact;
use htd_timing::{CompiledSimulator, CompiledTiming, GlitchSweep};
use htd_trojan::TrojanSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Summed span durations.
    pub total: Duration,
    /// Spans recorded.
    pub calls: u64,
}

/// Structural counts of a replay; they depend only on the inputs and
/// must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Net transitions the compiled simulator visited over the 13-cycle
    /// acquisition replays.
    pub replay_events: u64,
    /// Current events binned onto the EM scope's time base.
    pub events_binned: u64,
}

/// Spans of the layers, keyed by ledger name.
#[derive(Debug, Default)]
pub struct Ledger {
    layers: BTreeMap<&'static str, Layer>,
    /// A busy-wait added inside one layer's span. Only the attribution
    /// self-test sets it; a reported run never does.
    injected: Option<(&'static str, Duration)>,
}

impl Ledger {
    /// Runs `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        if let Some((name, wait)) = self.injected {
            if name == layer {
                let until = Instant::now() + wait;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        let elapsed = start.elapsed();
        let entry = self.layers.entry(layer).or_default();
        entry.total += elapsed;
        entry.calls += 1;
        out
    }

    /// Every layer recorded so far.
    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }

    /// Sum of every layer's self time.
    pub fn attributed(&self) -> Duration {
        self.layers.values().map(|l| l.total).sum()
    }
}

/// The per-channel state a replay scores against, for either artifact
/// kind.
struct ChannelView {
    calibration: Calibration,
    /// The golden reference (golden mode); `None` in reference-free
    /// mode, where each die is scored against its own common mode.
    reference: Option<GoldenReference>,
    /// Golden per-die scores, or the folded baseline self-scores.
    baseline: Vec<f64>,
    kept: Vec<usize>,
    /// Reference-free baseline mean suspect scores are folded around.
    fold_mean: Option<f64>,
}

fn views(artifact: &ScorableArtifact) -> Vec<ChannelView> {
    match artifact {
        ScorableArtifact::Golden(a) => a
            .characterization()
            .states
            .iter()
            .map(|s| ChannelView {
                calibration: s.calibration.clone(),
                reference: Some(s.reference.clone()),
                baseline: s.scores.clone(),
                kept: s.kept.clone(),
                fold_mean: None,
            })
            .collect(),
        ScorableArtifact::ReferenceFree(a) => a
            .characterization()
            .states
            .iter()
            .map(|s| ChannelView {
                calibration: s.calibration.clone(),
                reference: None,
                baseline: folded(&s.self_scores, s.fit.mean),
                kept: s.kept.clone(),
                fold_mean: Some(s.fit.mean),
            })
            .collect(),
    }
}

fn folded(scores: &[f64], mean: f64) -> Vec<f64> {
    scores.iter().map(|s| (s - mean).abs()).collect()
}

/// Removes an acquisition's common mode (reference-free scoring): a
/// trace loses its sample mean, a matrix each row's mean. Returns the
/// normalised acquisition and the zero reference of its shape.
fn self_referenced(acq: Acquisition) -> (Acquisition, GoldenReference) {
    let centre = |v: &[f64]| -> Vec<f64> {
        let mean = if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        };
        v.iter().map(|x| x - mean).collect()
    };
    match acq {
        Acquisition::Trace(t) => {
            let zero = Trace::new(vec![0.0; t.len()], t.dt_ps());
            (
                Acquisition::Trace(Trace::new(centre(t.samples()), t.dt_ps())),
                GoldenReference::MeanTrace(zero),
            )
        }
        Acquisition::Matrix(m) => {
            let zero = m
                .mean_onset_steps
                .iter()
                .map(|r| vec![0.0; r.len()])
                .collect();
            (
                Acquisition::Matrix(DelayMatrix {
                    mean_onset_steps: m.mean_onset_steps.iter().map(|r| centre(r)).collect(),
                }),
                GoldenReference::MeanMatrix(DelayMatrix {
                    mean_onset_steps: zero,
                }),
            )
        }
    }
}

/// Z-score sum of the channels per die (the fused channel), over the
/// dies every channel kept.
fn fuse(fits: &[Gaussian], per_channel: &[(&[usize], &[f64])], n_dies: usize) -> Vec<f64> {
    (0..n_dies)
        .filter_map(|die| {
            let mut sum = 0.0;
            for (fit, (kept, scores)) in fits.iter().zip(per_channel) {
                let k = kept.iter().position(|&d| d == die)?;
                sum += (scores[k] - fit.mean()) / fit.std();
            }
            Some(sum)
        })
        .collect()
}

/// Replays one `htd score --golden <golden> --trojans <suspects>` run
/// through the layers, charging every call to `ledger`.
pub fn replay_score(
    ledger: &mut Ledger,
    lab: &Lab,
    golden: &Path,
    suspects: &[String],
    counts: &mut Counts,
) -> Result<(), String> {
    let text = ledger
        .time("store.load", || std::fs::read_to_string(golden))
        .map_err(|e| format!("{}: {e}", golden.display()))?;
    let artifact = ledger
        .time("store.load", || {
            ScorableArtifact::from_text_at(&text, &golden.display().to_string())
        })
        .map_err(|e| e.to_string())?;
    let plan = artifact.plan().clone();
    let channels = artifact.build_channels();
    if let Some(c) = channels
        .iter()
        .find(|c| !matches!(c.name(), "EM" | "delay"))
    {
        return Err(format!("the ledger replays EM and delay, not {}", c.name()));
    }
    let views = views(&artifact);

    ledger
        .time("aes.elaborate", || Design::golden(lab))
        .map_err(|e| e.to_string())?;
    let dies: Vec<_> = (0..plan.n_dies)
        .map(|j| ledger.time("fabric.die", || lab.fabricate_die(j as u64)))
        .collect();
    let baseline_fits = if channels.len() >= 2 {
        ledger.time("stats.fit", || {
            views
                .iter()
                .map(|v| Gaussian::fit(&v.baseline).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()
        })?
    } else {
        Vec::new()
    };
    let baseline_fused = ledger.time("stats.fit", || {
        let masked: Vec<(&[usize], &[f64])> = views
            .iter()
            .map(|v| (v.kept.as_slice(), v.baseline.as_slice()))
            .collect();
        fuse(&baseline_fits, &masked, plan.n_dies)
    });

    let em = &lab.em;
    let dt = em.scope.sample_period_ps;
    let n_samples = lab.acquisition.n_samples(dt);
    let period = lab.acquisition.clock_period_ps;

    for (index, token) in suspects.iter().enumerate() {
        let spec = TrojanSpec::from_token(token).ok_or(format!("unknown suspect {token}"))?;
        let infected = ledger
            .time("trojan.insert", || Design::infected(lab, &spec))
            .map_err(|e| e.to_string())?;
        let aes = infected.aes();
        let netlist = aes.netlist();
        let mut scores: Vec<Vec<f64>> = vec![Vec::with_capacity(dies.len()); channels.len()];
        for (j, die) in dies.iter().enumerate() {
            let seed = plan.spec_die_seed(index, j);
            let dev = ledger.time("timing.annotate", || {
                ProgrammedDevice::new(lab, &infected, die)
            });
            let ct = ledger.time("timing.compile", || {
                CompiledTiming::compile(netlist, dev.annotation())
            });
            for (c, (channel, view)) in channels.iter().zip(&views).enumerate() {
                let acquisition = match &view.calibration {
                    Calibration::None => {
                        let (table, weights, kernel) = ledger.time("em.activity", || {
                            let table =
                                ActivityTable::build(netlist, infected.placement(), die, &lab.tech);
                            let weights = table.weighted_charges(|p| em.probe.coupling(p));
                            (table, weights, em.probe.impulse_response(dt))
                        });
                        let (times, nets, visited) = ledger.time("timing.replay", || {
                            let mut fsim = netlist.simulator().map_err(|e| e.to_string())?;
                            fsim.set_bus_bytes(aes.plaintext(), &plan.pt);
                            fsim.set_bus_bytes(aes.key(), &plan.key);
                            fsim.set(aes.load(), true);
                            fsim.settle();
                            let mut esim = CompiledSimulator::from_snapshot(&ct, fsim.snapshot());
                            esim.set_input(aes.load(), false);
                            let (mut times, mut nets, mut visited) = (Vec::new(), Vec::new(), 0u64);
                            for cycle in 0..lab.acquisition.n_cycles {
                                let start = cycle as f64 * period;
                                esim.clock_cycle_visit(|t, net, _| {
                                    visited += 1;
                                    if table.emits(net.index()) {
                                        times.push(start + t);
                                        nets.push(net.index() as u32);
                                    }
                                });
                            }
                            Ok::<_, String>((times, nets, visited))
                        })?;
                        counts.replay_events += visited;
                        let mut impulses = Vec::new();
                        let stats = ledger.time("em.bin", || {
                            bin_events_indexed(
                                &times,
                                &nets,
                                &weights,
                                dt,
                                n_samples,
                                &mut impulses,
                            )
                        });
                        counts.events_binned += stats.binned;
                        let mut clean = Vec::new();
                        ledger.time("em.convolve", || {
                            convolve_kernel(&impulses, &kernel, &mut clean)
                        });
                        let trace = ledger.time("em.read_out", || {
                            let mut rng = StdRng::seed_from_u64(seed);
                            read_out(
                                &clean,
                                &em.scope,
                                em.gain,
                                em.setup_gain_jitter,
                                lab.acquisition.averages,
                                &mut rng,
                            )
                        });
                        Acquisition::Trace(trace)
                    }
                    Calibration::Glitch(params) => {
                        let settles: Vec<Vec<Option<f64>>> = plan
                            .pairs
                            .iter()
                            .map(|(pt, key)| {
                                ledger.time("timing.settle", || {
                                    let mut sim = AesSim::new(aes).map_err(|e| e.to_string())?;
                                    sim.start(pt, key);
                                    for _ in 0..8 {
                                        sim.step_round();
                                    }
                                    let mut esim = CompiledSimulator::from_snapshot(
                                        &ct,
                                        sim.simulator().snapshot(),
                                    );
                                    let run = esim.clock_cycle();
                                    Ok::<_, String>(
                                        aes.state_d()
                                            .iter()
                                            .map(|&d| run.arrival_at_sinks_ps(d, dev.annotation()))
                                            .collect(),
                                    )
                                })
                            })
                            .collect::<Result<_, _>>()?;
                        let sweep = GlitchSweep::new(*params);
                        let saturation = params.never_onset_steps();
                        let reps = plan.repetitions.max(1);
                        let mut rows = Vec::with_capacity(settles.len());
                        for (p, settle) in settles.iter().enumerate() {
                            let mut acc = vec![0.0f64; settle.len()];
                            for rep in 0..reps {
                                let onsets = ledger.time("timing.sweep", || {
                                    let mut rng = StdRng::seed_from_u64(
                                        seed ^ ((p as u64) << 32) ^ rep as u64,
                                    );
                                    sweep.fault_onsets(settle, &mut rng)
                                });
                                for (a, o) in acc.iter_mut().zip(&onsets) {
                                    *a += o.step().map(f64::from).unwrap_or(saturation);
                                }
                            }
                            rows.push(acc.iter().map(|a| a / reps as f64).collect());
                        }
                        Acquisition::Matrix(DelayMatrix {
                            mean_onset_steps: rows,
                        })
                    }
                };
                let score = ledger.time("stats.metric", || match &view.reference {
                    Some(reference) => channel.score(&acquisition, reference, &view.calibration),
                    None => {
                        let (normalized, zero) = self_referenced(acquisition);
                        channel.score(&normalized, &zero, &view.calibration)
                    }
                });
                scores[c].push(score.map_err(|e| e.to_string())?);
            }
        }
        ledger.time("stats.fit", || {
            let all: Vec<usize> = (0..dies.len()).collect();
            let mut suspect = Vec::with_capacity(views.len());
            for ((channel, view), s) in channels.iter().zip(&views).zip(&mut scores) {
                if let Some(mean) = view.fold_mean {
                    *s = folded(s, mean);
                }
                ChannelResult::fit(channel.name(), &view.baseline, s).map_err(|e| e.to_string())?;
                suspect.push((all.as_slice(), s.as_slice()));
            }
            if !baseline_fits.is_empty() {
                let fused = fuse(&baseline_fits, &suspect, dies.len());
                ChannelResult::fit("fused", &baseline_fused, &fused).map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(())
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_core::channel::{Channel, ChannelSpec};
    use htd_core::em_detect::TraceMetric;
    use htd_core::fusion::characterize_campaign;
    use htd_core::CampaignPlan;
    use htd_store::GoldenArtifact;

    /// Replays a small golden scoring op and returns (attributed, wall).
    fn replay(ledger: &mut Ledger, golden: &Path) -> (Duration, Duration) {
        let lab = Lab::paper();
        let start = Instant::now();
        let mut counts = Counts::default();
        replay_score(ledger, &lab, golden, &["ht1".to_string()], &mut counts).expect("replays");
        (ledger.attributed(), start.elapsed())
    }

    #[test]
    fn an_injected_wait_is_charged_to_its_layer_not_to_unattributed() {
        let dir = std::env::temp_dir().join(format!("htd-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let golden = dir.join("golden.htd");
        let lab = Lab::paper();
        let plan = CampaignPlan::with_random_pairs(3, 1, 2, [0u8; 16], [1u8; 16], 5);
        let specs = vec![
            ChannelSpec::Em(TraceMetric::SumOfLocalMaxima),
            ChannelSpec::Delay,
        ];
        let built: Vec<Box<dyn Channel>> = specs.iter().map(ChannelSpec::build).collect();
        let refs: Vec<&dyn Channel> = built.iter().map(|c| c.as_ref()).collect();
        let charac = characterize_campaign(&lab, &plan, &refs).expect("characterizes");
        let artifact = GoldenArtifact::new(specs, charac).expect("consistent");
        htd_store::save(&golden, &artifact).expect("saves");

        let mut plain = Ledger::default();
        let (plain_attr, plain_wall) = replay(&mut plain, &golden);

        let wait = Duration::from_millis(20);
        let mut slowed = Ledger {
            injected: Some(("em.convolve", wait)),
            ..Ledger::default()
        };
        let (slow_attr, slow_wall) = replay(&mut slowed, &golden);
        std::fs::remove_dir_all(&dir).ok();

        let calls = slowed.layers()["em.convolve"].calls;
        assert_eq!(calls, 3, "one convolution per die");
        let injected = wait * calls as u32;
        let conv = |l: &Ledger| l.layers()["em.convolve"].total;
        // Both replays' own convolution times are well under a
        // millisecond; the tolerance covers their difference.
        let tolerance = Duration::from_millis(5);
        assert!(
            conv(&slowed) + tolerance >= conv(&plain) + injected,
            "the named layer carries the injected time"
        );
        // Unattributed = wall − attributed; the injected time must land
        // in the attributed sum, so unattributed barely moves.
        let unattributed = |attr: Duration, wall: Duration| wall.saturating_sub(attr);
        let before = unattributed(plain_attr, plain_wall);
        let after = unattributed(slow_attr, slow_wall);
        assert!(
            after < before + Duration::from_millis(10),
            "unattributed grew from {before:?} to {after:?}"
        );
        // Every other layer kept its share: no other layer grew by the
        // injected amount.
        for (name, layer) in slowed.layers() {
            if *name != "em.convolve" {
                let base = plain.layers()[name].total;
                assert!(
                    layer.total < base + injected / 2,
                    "{name} absorbed the wait"
                );
            }
        }
    }
}
