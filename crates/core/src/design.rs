//! Designs (golden / infected) and devices programmed with them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

use htd_aes::structural::AesSim;
use htd_aes::AesNetlist;
use htd_em::{convolve_kernel, read_out, ActivityTable, CurrentEvent, ImpulseTrain, Scope, Trace};
use htd_fabric::{DieVariation, Placement};
use htd_obs::Obs;
use htd_timing::{CompiledSimulator, CompiledTiming, DelayAnnotation};
use htd_trojan::{apply_coupling, insert, InsertedTrojan, TrojanSpec};

use crate::em_detect::SideChannel;
use crate::error::Error;
use crate::Lab;

/// Locks a memo mutex, recovering from poisoning. The memos hold pure
/// simulation results — a panicking holder can at worst leave a
/// fully-written entry or none at all, never a torn value — so the data
/// behind a poisoned lock is still valid and the campaign can continue.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A placed AES-128 bitstream: either the golden design or a
/// trojan-infected variant that shares its placement and routing
/// (Section II-A).
#[derive(Debug, Clone)]
pub struct Design {
    aes: AesNetlist,
    placement: Placement,
    trojan: Option<InsertedTrojan>,
    prefixes: Prefixes,
}

impl Design {
    /// Synthesizes and places the golden AES-128.
    ///
    /// # Errors
    ///
    /// Propagates netlist generation or placement failures.
    pub fn golden(lab: &Lab) -> Result<Self, Error> {
        let aes = AesNetlist::generate()?;
        let placement = Placement::place(aes.netlist(), &lab.device)?;
        Ok(Design {
            aes,
            placement,
            trojan: None,
            prefixes: Prefixes::default(),
        })
    }

    /// Builds the infected variant: the golden design plus `spec`, inserted
    /// into unused sites without touching the original placement.
    ///
    /// # Errors
    ///
    /// Propagates generation, placement or insertion failures, and
    /// rejects trojaned netlists that fail the structural lint gate.
    pub fn infected(lab: &Lab, spec: &TrojanSpec) -> Result<Self, Error> {
        Self::infected_with_obs(lab, spec, &Obs::noop())
    }

    /// [`Self::infected`] with an observability handle.
    ///
    /// Every trojaned netlist is validated by the structural lint gate
    /// ([`htd_netlist::lint`]) before use; the per-check diagnostics
    /// counters (`pass.<check>.{runs,cells_removed,nets_removed,lints}`)
    /// are mirrored into `obs`. The gate runs once per design on the
    /// calling thread, so the counters are worker-invariant by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`Error::LintFailed`] when the lints find anything, plus the
    /// failures of [`Self::infected`].
    pub fn infected_with_obs(lab: &Lab, spec: &TrojanSpec, obs: &Obs) -> Result<Self, Error> {
        let mut aes = AesNetlist::generate()?;
        let mut placement = Placement::place(aes.netlist(), &lab.device)?;
        let trojan = insert(&mut aes, &mut placement, spec)?;
        let diagnostics = htd_netlist::lint(aes.netlist());
        for (name, value) in diagnostics.counters() {
            obs.add(&name, value);
        }
        if !diagnostics.is_clean() {
            return Err(Error::LintFailed {
                design: spec.name.clone(),
                lints: diagnostics
                    .lints()
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
            });
        }
        Ok(Design {
            aes,
            placement,
            trojan: Some(trojan),
            prefixes: Prefixes::default(),
        })
    }

    /// The AES design (netlist + pin map).
    pub fn aes(&self) -> &AesNetlist {
        &self.aes
    }

    /// The placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The inserted trojan, if this is an infected design.
    pub fn trojan(&self) -> Option<&InsertedTrojan> {
        self.trojan.as_ref()
    }

    /// Slices used by the design (trojan included if present).
    pub fn used_slices(&self) -> usize {
        self.placement.used_slices()
    }

    /// Net values after the stimulus is loaded and 8 functional rounds
    /// have run: the state the round-10 settle cycle starts from.
    fn round9_snapshot(&self, pt: &[u8; 16], key: &[u8; 16]) -> Result<Arc<Vec<bool>>, Error> {
        memoised(&self.prefixes.round9, (*pt, *key), || {
            let mut sim = AesSim::new(&self.aes)?;
            sim.start(pt, key);
            for _ in 0..8 {
                sim.step_round();
            }
            Ok(sim.simulator().snapshot())
        })
    }

    /// Net values with the stimulus applied and the load strobe high,
    /// settled: the state the full-encryption activity replay starts from.
    fn loaded_snapshot(&self, pt: &[u8; 16], key: &[u8; 16]) -> Result<Arc<Vec<bool>>, Error> {
        memoised(&self.prefixes.loaded, (*pt, *key), || {
            let aes = &self.aes;
            let mut fsim = aes.netlist().simulator()?;
            fsim.set_bus_bytes(aes.plaintext(), pt);
            fsim.set_bus_bytes(aes.key(), key);
            fsim.set(aes.load(), true);
            fsim.settle();
            Ok(fsim.snapshot())
        })
    }

    /// Per net: the first ciphertext bit whose state register `D` pin it
    /// is, or `u32::MAX`.
    fn d_bit_of_net(&self) -> &[u32] {
        self.prefixes.d_bit_of_net.get_or_init(|| {
            let mut of_net = vec![u32::MAX; self.aes.netlist().net_count()];
            for (bit, d) in self.aes.state_d().iter().enumerate().rev() {
                of_net[d.index()] = bit as u32;
            }
            of_net
        })
    }
}

/// A memo of net-value snapshots per (plaintext, key) pair.
type SnapshotMemo = Mutex<HashMap<PairKey, Arc<Vec<bool>>>>;

/// The die-independent functional prefixes of a design's simulations.
/// Process variation changes delays, never logic values, so every device
/// programmed with the design starts its timed replays from the same
/// snapshots; they are computed once per (design, pair) instead of once
/// per die.
#[derive(Default)]
struct Prefixes {
    round9: SnapshotMemo,
    loaded: SnapshotMemo,
    d_bit_of_net: OnceLock<Vec<u32>>,
}

impl Clone for Prefixes {
    /// A clone starts empty and refills on demand (the memos are pure).
    fn clone(&self) -> Self {
        Prefixes::default()
    }
}

impl std::fmt::Debug for Prefixes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefixes")
            .field("round9", &lock_unpoisoned(&self.round9).len())
            .field("loaded", &lock_unpoisoned(&self.loaded).len())
            .finish_non_exhaustive()
    }
}

/// Looks `key` up in `memo`, computing and storing it on a miss. The
/// computation runs outside the lock; a concurrent duplicate computes the
/// same pure value, and the first stored one wins.
fn memoised(
    memo: &SnapshotMemo,
    key: PairKey,
    compute: impl FnOnce() -> Result<Vec<bool>, Error>,
) -> Result<Arc<Vec<bool>>, Error> {
    if let Some(hit) = lock_unpoisoned(memo).get(&key) {
        return Ok(Arc::clone(hit));
    }
    let value = Arc::new(compute()?);
    Ok(Arc::clone(
        lock_unpoisoned(memo).entry(key).or_insert(value),
    ))
}

/// Memo key for per-stimulus simulation results: the (plaintext, key)
/// pair.
type PairKey = ([u8; 16], [u8; 16]);

/// The measurement chains, in the order every per-chain array of a
/// device is indexed by (`SideChannel as usize`).
const CHAINS: [SideChannel; 2] = [SideChannel::Em, SideChannel::Power];

/// The switching activity of one full timed encryption of one pair on
/// one device, already binned by the replay itself into the impulse
/// train of every chain the device bins (the toggles are never stored),
/// plus each chain's noise-free convolved signal, built from its train
/// on the chain's first read-out.
#[derive(Debug)]
pub(crate) struct PairActivity {
    /// Impulse train per chain; `None` for a chain the device does not
    /// bin.
    trains: [Option<ImpulseTrain>; 2],
    /// Noise-free convolved signal per chain: read-outs replay it
    /// through [`read_out`], paying only the noise/quantise pass.
    clean: [OnceLock<Vec<f64>>; 2],
}

/// One measurement chain's per-device constants, pure functions of
/// (design, die).
#[derive(Debug, Default)]
struct ChainConstants {
    /// Per-net `charge × coupling`: the probe coupling for the EM chain,
    /// 1 for the position-blind power chain.
    weights: OnceLock<Vec<f64>>,
    /// Front-end impulse response (probe or supply RC) sampled on the
    /// chain's scope time base.
    kernel: OnceLock<Vec<f64>>,
}

/// A [`Design`] programmed onto one fabricated die: delays annotated with
/// that die's process variation and the trojan's parasitic coupling
/// applied. This is the unit every measurement runs against.
///
/// The device builds its per-die constants lazily, once each: the
/// compiled timing tables, the per-net activity table, and every
/// measurement chain's weights and front-end kernel. It holds no
/// per-pair result: each [`Self::round10_settle_times`] simulates the
/// settle cycle, and each [`Self::acquire_trace`] replays the whole
/// encryption. The replay streams — it bins every emitting toggle
/// straight into each chain's impulse train, so the ~86 k toggles of an
/// encryption are never stored. Reuse across a die's channels and
/// retries belongs to whoever measures the die: a campaign's die task
/// reads the die once through a [`DieReading`](crate::channel::DieReading)
/// (one replay and one settle read per pair) and hands that reading to
/// every channel and attempt. A campaign keeps a device only while it
/// measures that device's die.
#[derive(Debug)]
pub struct ProgrammedDevice<'a> {
    lab: &'a Lab,
    design: &'a Design,
    die: &'a DieVariation,
    annotation: DelayAnnotation,
    /// CSR timing tables compiled once per (design, die); every
    /// event-driven simulation on this device runs on them.
    compiled: OnceLock<CompiledTiming>,
    /// Per-net charge/position lookup, built once per (design, die).
    activity_table: OnceLock<ActivityTable>,
    /// One set of constants per measurement chain, indexed by
    /// [`SideChannel`].
    chains: [ChainConstants; 2],
    /// Which chains the replay bins, indexed by [`SideChannel`].
    binned: [bool; 2],
    obs: Obs,
}

impl<'a> ProgrammedDevice<'a> {
    /// Programs `design` onto `die`.
    pub fn new(lab: &'a Lab, design: &'a Design, die: &'a DieVariation) -> Self {
        Self::with_obs(lab, design, die, Obs::noop())
    }

    /// [`Self::new`] with an observability handle: every settle
    /// simulation opens a `timing.settle` span and every activity replay
    /// a `timing.replay` span, so run manifests count (and traces time)
    /// each one.
    pub fn with_obs(lab: &'a Lab, design: &'a Design, die: &'a DieVariation, obs: Obs) -> Self {
        Self::with_chains(lab, design, die, obs, [true; 2])
    }

    /// [`Self::with_obs`] binning only the chains `binned` selects
    /// (indexed by [`SideChannel`]): what a campaign programs, so a cold
    /// replay fills only the impulse trains its channels read. Acquiring
    /// through any other chain is a shape error.
    pub(crate) fn with_chains(
        lab: &'a Lab,
        design: &'a Design,
        die: &'a DieVariation,
        obs: Obs,
        binned: [bool; 2],
    ) -> Self {
        let mut annotation =
            DelayAnnotation::annotate(design.aes.netlist(), &design.placement, &lab.tech, die);
        if let Some(trojan) = &design.trojan {
            apply_coupling(
                &mut annotation,
                design.aes.netlist(),
                &design.placement,
                &lab.tech,
                &lab.power_grid,
                trojan,
            );
        }
        ProgrammedDevice {
            lab,
            design,
            die,
            annotation,
            compiled: OnceLock::new(),
            activity_table: OnceLock::new(),
            chains: Default::default(),
            binned,
            obs,
        }
    }

    /// The design loaded on this device.
    pub fn design(&self) -> &Design {
        self.design
    }

    /// The die this device was fabricated as.
    pub fn die(&self) -> &DieVariation {
        self.die
    }

    /// The annotated delays (including any trojan coupling).
    pub fn annotation(&self) -> &DelayAnnotation {
        &self.annotation
    }

    /// Timing tables in CSR form, compiled lazily on first simulation.
    /// Pure function of (design, die), so `OnceLock` racing is benign.
    fn compiled_timing(&self) -> &CompiledTiming {
        self.compiled
            .get_or_init(|| CompiledTiming::compile(self.design.aes.netlist(), &self.annotation))
    }

    /// Per-net charge/position table, built lazily on first acquisition.
    fn table(&self) -> &ActivityTable {
        self.activity_table.get_or_init(|| {
            ActivityTable::build(
                self.design.aes.netlist(),
                &self.design.placement,
                self.die,
                &self.lab.tech,
            )
        })
    }

    /// Functional encryption (sanity check; both golden and dormant
    /// infected devices must agree with the reference cipher).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn encrypt(&self, pt: &[u8; 16], key: &[u8; 16]) -> Result<[u8; 16], Error> {
        let mut sim = AesSim::new(&self.design.aes)?;
        Ok(sim.encrypt(pt, key))
    }

    /// Data-dependent settling time of each ciphertext bit's register `D`
    /// pin during the round-10 evaluation for the given pair — the
    /// quantity the clock-glitch sweep reads out (Section III-B).
    ///
    /// `None` entries are bits that did not toggle (they can never violate
    /// setup).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn round10_settle_times(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Vec<Option<f64>>, Error> {
        let _span = self.obs.span("timing.settle");
        let snapshot = self.design.round9_snapshot(pt, key)?;
        // The next edge launches round 9's result; during that cycle the
        // round-10 logic settles at the state D pins (see the timing-crate
        // integration tests for the cycle accounting). Only their last
        // transitions are kept — `TimedRun::arrival_at_sinks_ps` without
        // the run.
        let mut esim = CompiledSimulator::from_snapshot(self.compiled_timing(), snapshot.to_vec());
        let d_bit = self.design.d_bit_of_net();
        let state_d = self.design.aes.state_d();
        let mut last = vec![f64::NEG_INFINITY; state_d.len()];
        esim.clock_cycle_visit(|time_ps, net, _| {
            if let Some(t) = last.get_mut(d_bit[net.index()] as usize) {
                *t = time_ps;
            }
        });
        Ok(state_d
            .iter()
            .map(|d| {
                let t = last[d_bit[d.index()] as usize];
                (t != f64::NEG_INFINITY).then_some(t)
            })
            .collect())
    }

    /// Replays one full timed encryption on the compiled simulator and
    /// calls `visit(absolute time in ps, net index)` for every toggle of
    /// an emitting net, in delivery order. The absolute time is
    /// `cycle_start + time` — the same sum, and so the same bits, as the
    /// per-toggle reference (`htd-oracle`) over the reference simulator's
    /// cycles.
    fn replay_emitting(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
        mut visit: impl FnMut(f64, usize),
    ) -> Result<(), Error> {
        let _span = self.obs.span("timing.replay");
        let snapshot = self.design.loaded_snapshot(pt, key)?;
        let mut esim = CompiledSimulator::from_snapshot(self.compiled_timing(), snapshot.to_vec());
        // The load strobe drops during cycle 0, so edge 1 already captures
        // round 1 (synchronous testbench behaviour).
        esim.set_input(self.design.aes.load(), false);
        let period = self.lab.acquisition.clock_period_ps;
        let table = self.table();
        for cycle in 0..self.lab.acquisition.n_cycles {
            let cycle_start_ps = cycle as f64 * period;
            esim.clock_cycle_visit(|time_ps, net, _| {
                let i = net.index();
                if table.emits(i) {
                    visit(cycle_start_ps + time_ps, i);
                }
            });
        }
        Ok(())
    }

    /// The scope that digitises `chain`.
    fn scope(&self, chain: SideChannel) -> &Scope {
        match chain {
            SideChannel::Em => &self.lab.em.scope,
            SideChannel::Power => &self.lab.power.scope,
        }
    }

    /// Per-net `charge × coupling` of `chain`, built once per device.
    fn weights(&self, chain: SideChannel) -> &[f64] {
        self.chains[chain as usize]
            .weights
            .get_or_init(|| match chain {
                SideChannel::Em => self
                    .table()
                    .weighted_charges(|p| self.lab.em.probe.coupling(p)),
                SideChannel::Power => self.table().weighted_charges(|_| 1.0),
            })
    }

    /// Replays one full timed encryption and bins every emitting toggle
    /// into the impulse train of every chain the device bins, as it is
    /// delivered. Each toggle goes through
    /// [`htd_em::ImpulseTrain::add`], the workspace's one binning rule,
    /// in replay order, so each train is bit-identical to binning
    /// [`Self::timed_encryption_activity`] event by event, whichever
    /// other chains are binned alongside it.
    pub(crate) fn binned_activity(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<PairActivity, Error> {
        let mut bins = CHAINS.map(|chain| {
            self.binned[chain as usize].then(|| {
                let dt_ps = self.scope(chain).sample_period_ps;
                let train = ImpulseTrain::new(dt_ps, self.lab.acquisition.n_samples(dt_ps));
                (train, self.weights(chain))
            })
        });
        match &mut bins {
            [Some((em, em_weights)), Some((power, power_weights))] => {
                self.replay_emitting(pt, key, |time_ps, i| {
                    em.add(time_ps, em_weights[i]);
                    power.add(time_ps, power_weights[i]);
                })?;
            }
            [Some((train, weights)), None] | [None, Some((train, weights))] => {
                self.replay_emitting(pt, key, |time_ps, i| train.add(time_ps, weights[i]))?;
            }
            [None, None] => {}
        }
        Ok(PairActivity {
            trains: bins.map(|bin| bin.map(|(train, _)| train)),
            clean: Default::default(),
        })
    }

    /// Runs one full timed encryption and returns the current events of
    /// every cycle (the EM/power chains integrate these). Acquisitions
    /// never materialise this list (they bin during the replay); it is
    /// the event-level view for studies and tests.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn timed_encryption_activity(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Vec<CurrentEvent>, Error> {
        let table = self.table();
        let mut events = Vec::new();
        self.replay_emitting(pt, key, |time_ps, i| {
            events.push(CurrentEvent {
                time_ps,
                charge: table.charges()[i],
                position: table.positions()[i],
            });
        })?;
        Ok(events)
    }

    /// `chain`'s noise-free convolved signal for one pair's activity,
    /// convolving the chain's train on its first request. The
    /// `acquire.events.*` counters carry that train's binning accounting
    /// and are recorded only then — exactly once per (activity, chain),
    /// regardless of worker count.
    fn clean_signal<'p>(
        &self,
        activity: &'p PairActivity,
        chain: SideChannel,
    ) -> Result<&'p [f64], Error> {
        let c = chain as usize;
        let train = activity.trains[c]
            .as_ref()
            .ok_or_else(|| Error::ChannelShapeMismatch {
                channel: match chain {
                    SideChannel::Em => "EM",
                    SideChannel::Power => "power",
                }
                .to_string(),
                expected: "a measurement chain the device was programmed to bin",
            })?;
        Ok(activity.clean[c].get_or_init(|| {
            let kernel = self.chains[c].kernel.get_or_init(|| {
                let dt_ps = self.scope(chain).sample_period_ps;
                match chain {
                    SideChannel::Em => self.lab.em.probe.impulse_response(dt_ps),
                    SideChannel::Power => self.lab.power.impulse_response(dt_ps),
                }
            });
            let mut clean = Vec::new();
            convolve_kernel(train.impulses(), kernel, &mut clean);
            let stats = train.stats();
            self.obs.add("acquire.events.binned", stats.binned);
            self.obs.add("acquire.events.dropped", stats.dropped);
            clean
        }))
    }

    /// Acquires one averaged trace of one encryption (Section IV)
    /// through `chain`: the near-field EM probe or the global power
    /// baseline.
    ///
    /// `measure_seed` drives the acquisition noise (scope + installation);
    /// reusing a seed reproduces the exact trace, and each chain salts it
    /// with its own constant. Every call replays the encryption; to read
    /// one pair many times, replay it once
    /// ([`DieReading::trace`](crate::channel::DieReading::trace)).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures;
    /// [`Error::ChannelShapeMismatch`] for a chain the device does not
    /// bin.
    pub fn acquire_trace(
        &self,
        chain: SideChannel,
        pt: &[u8; 16],
        key: &[u8; 16],
        measure_seed: u64,
    ) -> Result<Trace, Error> {
        self.read_trace(&self.binned_activity(pt, key)?, chain, measure_seed)
    }

    /// One averaged trace through `chain`, read out of a pair's replayed
    /// `activity`: the noise/quantise pass over the chain's clean signal
    /// (convolved on the chain's first read-out of that activity).
    ///
    /// # Errors
    ///
    /// [`Error::ChannelShapeMismatch`] for a chain the device does not
    /// bin.
    pub(crate) fn read_trace(
        &self,
        activity: &PairActivity,
        chain: SideChannel,
        measure_seed: u64,
    ) -> Result<Trace, Error> {
        let (em, power) = (&self.lab.em, &self.lab.power);
        let (gain, jitter, salt) = match chain {
            SideChannel::Em => (em.gain, em.setup_gain_jitter, 0xE37A_11CE_55AA_0001),
            SideChannel::Power => (power.gain, power.setup_gain_jitter, 0x0F0F_5A5A_3C3C_0002),
        };
        let clean = self.clean_signal(activity, chain)?;
        let mut rng = StdRng::seed_from_u64(measure_seed ^ salt);
        Ok(read_out(
            clean,
            self.scope(chain),
            gain,
            jitter,
            self.lab.acquisition.averages,
            &mut rng,
        ))
    }

    /// [`Self::acquire_trace`] on the EM chain.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn acquire_em_trace(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
        measure_seed: u64,
    ) -> Result<Trace, Error> {
        self.acquire_trace(SideChannel::Em, pt, key, measure_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::DieReading;
    use crate::CampaignPlan;
    use htd_aes::soft::Aes128;

    fn lab() -> Lab {
        Lab::paper()
    }

    #[test]
    fn golden_device_encrypts_correctly() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(0);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0x11u8; 16];
        let key = [0x22u8; 16];
        assert_eq!(
            dev.encrypt(&pt, &key).unwrap(),
            Aes128::new(&key).encrypt_block(&pt)
        );
    }

    #[test]
    fn dormant_infected_device_is_functionally_identical() {
        let lab = lab();
        let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
        let die = lab.fabricate_die(0);
        let dev = ProgrammedDevice::new(&lab, &infected, &die);
        let pt = [0x33u8; 16];
        let key = [0x44u8; 16];
        assert_eq!(
            dev.encrypt(&pt, &key).unwrap(),
            Aes128::new(&key).encrypt_block(&pt)
        );
        assert!(infected.trojan().is_some());
    }

    #[test]
    fn infected_settle_times_shift_on_tapped_bits() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
        let die = lab.fabricate_die(0);
        let pt = [0x01u8; 16];
        let key = [0xFEu8; 16];
        let g = ProgrammedDevice::new(&lab, &golden, &die)
            .round10_settle_times(&pt, &key)
            .unwrap();
        let t = ProgrammedDevice::new(&lab, &infected, &die)
            .round10_settle_times(&pt, &key)
            .unwrap();
        let mut shifted = 0usize;
        let mut max_shift = 0.0f64;
        for (a, b) in g.iter().zip(&t) {
            if let (Some(a), Some(b)) = (a, b) {
                let d = (b - a).abs();
                if d > 30.0 {
                    shifted += 1;
                }
                max_shift = max_shift.max(d);
            }
        }
        assert!(shifted > 8, "only {shifted} bits shifted");
        assert!(
            max_shift > 100.0 && max_shift < 3_000.0,
            "max shift {max_shift}"
        );
    }

    #[test]
    fn em_traces_show_round_structure() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(0);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let trace = dev
            .acquire_em_trace(&[0x55u8; 16], &[0xAAu8; 16], 1)
            .unwrap();
        // ~208 samples per cycle; cycles 0..=10 carry activity.
        let per_cycle = (lab.acquisition.clock_period_ps / trace.dt_ps()) as usize;
        let cycle_rms = |c: usize| trace.window(c * per_cycle, (c + 1) * per_cycle).rms();
        // Every computing cycle is loud; the tail idle cycle is quiet.
        for c in 0..10 {
            assert!(cycle_rms(c) > 5.0 * cycle_rms(12).max(1.0), "cycle {c}");
        }
    }

    #[test]
    fn same_seed_reproduces_the_trace_exactly() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(2);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let a = dev.acquire_em_trace(&[1u8; 16], &[2u8; 16], 9).unwrap();
        let b = dev.acquire_em_trace(&[1u8; 16], &[2u8; 16], 9).unwrap();
        assert_eq!(a, b);
        let c = dev.acquire_em_trace(&[1u8; 16], &[2u8; 16], 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn repeated_reads_reproduce_cold_ones() {
        // The device keeps no per-pair result: a repeated settle read or
        // acquisition simulates again and reproduces the first bit for
        // bit, and so does a fresh device of the same (design, die).
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(3);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0x5Au8; 16];
        let key = [0xC3u8; 16];

        let settles = dev.round10_settle_times(&pt, &key).unwrap();
        assert_eq!(dev.round10_settle_times(&pt, &key).unwrap(), settles);
        let trace = dev.acquire_em_trace(&pt, &key, 7).unwrap();
        assert_eq!(dev.acquire_em_trace(&pt, &key, 7).unwrap(), trace);
        let power = dev.acquire_trace(SideChannel::Power, &pt, &key, 7).unwrap();

        let fresh = ProgrammedDevice::new(&lab, &golden, &die);
        assert_eq!(fresh.round10_settle_times(&pt, &key).unwrap(), settles);
        assert_eq!(fresh.acquire_em_trace(&pt, &key, 7).unwrap(), trace);
        assert_eq!(
            fresh
                .acquire_trace(SideChannel::Power, &pt, &key, 7)
                .unwrap(),
            power
        );
    }

    #[test]
    fn poisoned_cache_locks_recover() {
        // A panicking lock holder must not wedge a design's memos: the
        // memoised values are pure, so the guard recovers the data.
        let cache: Mutex<HashMap<u32, u32>> = Mutex::new(HashMap::from([(1, 10)]));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_unpoisoned(&cache);
            panic!("poison the lock");
        }));
        assert!(cache.is_poisoned());
        assert_eq!(lock_unpoisoned(&cache).get(&1), Some(&10));
        lock_unpoisoned(&cache).insert(2, 20);
        assert_eq!(lock_unpoisoned(&cache).len(), 2);
    }

    #[test]
    fn acquire_event_counters_are_recorded_once_per_pair_and_chain() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(8);
        let obs = Obs::recording();
        let dev = ProgrammedDevice::with_obs(&lab, &golden, &die, obs.clone());
        let plan = CampaignPlan::traces(1, [0x10u8; 16], [0x20u8; 16], 0);
        // Three EM reps + one power rep out of one die reading: one
        // replay, whose events are binned once per chain (EM and power
        // share the activity but convolve their own kernels), never per
        // rep.
        let reading = DieReading::new(&dev, &plan);
        for seed in 0..3 {
            reading.trace(SideChannel::Em, seed).unwrap();
        }
        reading.trace(SideChannel::Power, 0).unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            obs.snapshot().unwrap().counters.into_iter().collect();
        let events = ProgrammedDevice::new(&lab, &golden, &die)
            .timed_encryption_activity(&plan.pt, &plan.key)
            .unwrap();
        assert_eq!(
            counters.get("acquire.events.binned").copied().unwrap_or(0)
                + counters.get("acquire.events.dropped").copied().unwrap_or(0),
            2 * events.len() as u64
        );
        // All of this design's activity lies inside the acquisition
        // window, so nothing is dropped — but the counter still appears
        // (explicitly zero) so manifests always carry it.
        assert_eq!(counters.get("acquire.events.dropped"), Some(&0));
        assert_eq!(counters.get("span.timing.replay"), Some(&1));
    }

    #[test]
    fn an_em_only_device_bins_no_power_train_and_acquires_the_same_em_trace() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(9);
        let pt = [0x2Cu8; 16];
        let key = [0x93u8; 16];
        let both = ProgrammedDevice::new(&lab, &golden, &die);
        let em_only =
            ProgrammedDevice::with_chains(&lab, &golden, &die, Obs::noop(), [true, false]);
        let want = both.acquire_em_trace(&pt, &key, 3).unwrap();
        let got = em_only.acquire_em_trace(&pt, &key, 3).unwrap();
        assert_eq!(got.dt_ps().to_bits(), want.dt_ps().to_bits());
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.samples().iter().zip(want.samples()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
        // The replayed pair activity holds the EM train only.
        let activity = em_only.binned_activity(&pt, &key).unwrap();
        assert!(activity.trains[SideChannel::Em as usize].is_some());
        assert!(activity.trains[SideChannel::Power as usize].is_none());
        assert!(matches!(
            em_only.acquire_trace(SideChannel::Power, &pt, &key, 3),
            Err(Error::ChannelShapeMismatch { .. })
        ));
    }

    #[test]
    fn different_dies_emit_differently() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let d1 = lab.fabricate_die(1);
        let d2 = lab.fabricate_die(2);
        let pt = [0x77u8; 16];
        let key = [0x88u8; 16];
        let t1 = ProgrammedDevice::new(&lab, &golden, &d1)
            .acquire_em_trace(&pt, &key, 5)
            .unwrap();
        let t2 = ProgrammedDevice::new(&lab, &golden, &d2)
            .acquire_em_trace(&pt, &key, 5)
            .unwrap();
        let diff = t1.abs_diff(&t2);
        assert!(diff.peak() > 10.0, "inter-die difference {}", diff.peak());
    }
}
