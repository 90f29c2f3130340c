//! Designs (golden / infected) and devices programmed with them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

use htd_aes::structural::AesSim;
use htd_aes::AesNetlist;
use htd_em::{
    bin_events_indexed, collect_activity, convolve_kernel, read_out, ActivityTable, CurrentEvent,
    Trace,
};
use htd_fabric::{DieVariation, Placement};
use htd_obs::Obs;
use htd_timing::{CompiledSimulator, CompiledTiming, DelayAnnotation, EventSimulator, Sta};
use htd_trojan::{apply_coupling, insert, InsertedTrojan, TrojanSpec};

use crate::em_detect::SideChannel;
use crate::error::Error;
use crate::Lab;

/// Locks a cache mutex, recovering from poisoning. The caches hold pure
/// memoised simulation results — a panicking holder can at worst leave a
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
    /// Every trojaned netlist is validated by the structural lint
    /// pipeline ([`htd_netlist::PassManager::lints`]) before use; the
    /// per-pass diagnostics counters (`pass.<name>.{runs,cells_removed,
    /// nets_removed,lints}`) are mirrored into `obs`. The gate runs once
    /// per design on the calling thread, so the counters are
    /// worker-invariant by construction.
    ///
    /// # Errors
    ///
    /// [`Error::LintFailed`] when the lints find anything, plus the
    /// failures of [`Self::infected`].
    pub fn infected_with_obs(lab: &Lab, spec: &TrojanSpec, obs: &Obs) -> Result<Self, Error> {
        let mut aes = AesNetlist::generate()?;
        let mut placement = Placement::place(aes.netlist(), &lab.device)?;
        let trojan = insert(&mut aes, &mut placement, spec)?;
        let report = htd_netlist::PassManager::lints().run(aes.netlist())?;
        for (name, value) in report.diagnostics.counters() {
            obs.add(&name, value);
        }
        if !report.diagnostics.is_clean() {
            return Err(Error::LintFailed {
                design: spec.name.clone(),
                lints: report
                    .diagnostics
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
}

/// Cache key for per-stimulus simulation results: the (plaintext, key)
/// pair. The device itself pins the remaining key dimensions — a device
/// *is* one (design, die) combination — so caching on the device realises
/// the design × die × pair keying.
type PairKey = ([u8; 16], [u8; 16]);

/// Switching activity in SoA form: parallel `(absolute time, driver-net
/// index)` arrays. This is what the activity cache stores — the
/// acquisition kernels consume it directly, and the AoS
/// [`CurrentEvent`] view is reconstructed on demand from the device's
/// [`ActivityTable`] (bit-identical: same order, same per-net values).
#[derive(Debug, Default)]
struct IndexedActivity {
    times_ps: Vec<f64>,
    nets: Vec<u32>,
}

/// One measurement chain's per-device state. All of it is a pure
/// function of (design, die) and, for `clean`, the pair.
#[derive(Debug, Default)]
struct ChainCache {
    /// Per-net `charge × coupling`: the probe coupling for the EM chain,
    /// 1 for the position-blind power chain.
    weights: OnceLock<Vec<f64>>,
    /// Front-end impulse response (probe or supply RC) sampled on the
    /// chain's scope time base.
    kernel: OnceLock<Vec<f64>>,
    /// Noise-free convolved signal per pair: acquisitions replay it
    /// through [`read_out`], paying only the noise/quantise pass.
    clean: Mutex<HashMap<PairKey, Arc<Vec<f64>>>>,
}

/// Occupancy and hit counters of a device's simulation caches (see
/// [`ProgrammedDevice::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct (plaintext, key) pairs with cached settle times.
    pub settle_entries: usize,
    /// Settle-time lookups answered from cache.
    pub settle_hits: u64,
    /// Settle-time lookups that had to simulate.
    pub settle_misses: u64,
    /// Distinct (plaintext, key) pairs with cached switching activity.
    pub activity_entries: usize,
    /// Activity lookups answered from cache.
    pub activity_hits: u64,
    /// Activity lookups that had to simulate.
    pub activity_misses: u64,
    /// Cache lock acquisitions that recovered from a poisoned mutex.
    /// Non-zero means a worker panicked while holding a cache lock and
    /// the campaign silently continued on the (still valid) data.
    pub poisoned: u64,
}

/// A [`Design`] programmed onto one fabricated die: delays annotated with
/// that die's process variation and the trojan's parasitic coupling
/// applied. This is the unit every measurement runs against.
///
/// The device memoises its pure, expensive simulations per
/// (plaintext, key) pair: round-10 settle times, full-encryption
/// switching activity (stored SoA for the batched acquisition kernels),
/// and the noise-free convolved signal of each measurement chain. All
/// are deterministic functions of (design, die, pair) with no noise
/// involved, so caching cannot change any measured value; it only
/// removes duplicate work (e.g. between sweep aiming and matrix
/// measurement, or across the repeated acquisitions of an averaging
/// study, which now pay only the per-rep noise/quantise pass). The
/// caches are internally locked, so one device can be shared across
/// worker threads.
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
    settle_cache: Mutex<HashMap<PairKey, Arc<Vec<Option<f64>>>>>,
    activity_cache: Mutex<HashMap<PairKey, Arc<IndexedActivity>>>,
    /// One cache per measurement chain, indexed by [`SideChannel`].
    chains: [ChainCache; 2],
    /// Event count of the last simulated activity — a reserve hint so
    /// later pairs on this device stream into pre-sized SoA rows.
    activity_hint: AtomicU64,
    settle_hits: AtomicU64,
    settle_misses: AtomicU64,
    activity_hits: AtomicU64,
    activity_misses: AtomicU64,
    cache_poisoned: AtomicU64,
    obs: Obs,
}

impl<'a> ProgrammedDevice<'a> {
    /// Programs `design` onto `die`.
    pub fn new(lab: &'a Lab, design: &'a Design, die: &'a DieVariation) -> Self {
        Self::with_obs(lab, design, die, Obs::noop())
    }

    /// [`Self::new`] with an observability handle: cache hits/misses and
    /// poisoned-lock recoveries are mirrored into `obs` counters
    /// (`cache.settle.hit`, `cache.activity.miss`, `cache.poisoned`, …)
    /// so they surface in run manifests.
    pub fn with_obs(lab: &'a Lab, design: &'a Design, die: &'a DieVariation, obs: Obs) -> Self {
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
            settle_cache: Mutex::new(HashMap::new()),
            activity_cache: Mutex::new(HashMap::new()),
            chains: Default::default(),
            activity_hint: AtomicU64::new(0),
            settle_hits: AtomicU64::new(0),
            settle_misses: AtomicU64::new(0),
            activity_hits: AtomicU64::new(0),
            activity_misses: AtomicU64::new(0),
            cache_poisoned: AtomicU64::new(0),
            obs,
        }
    }

    /// Locks one of the device's cache mutexes, counting poisoned-lock
    /// recoveries: a recovery is safe (the memoised values are pure, see
    /// [`lock_unpoisoned`]) but means a worker panicked mid-campaign, so
    /// it must show up in manifests rather than pass silently.
    fn lock_cache<'m, T>(&self, mutex: &'m Mutex<T>) -> MutexGuard<'m, T> {
        if mutex.is_poisoned() {
            self.cache_poisoned.fetch_add(1, Ordering::Relaxed);
            self.obs.incr("cache.poisoned");
        }
        lock_unpoisoned(mutex)
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
        let aes = &self.design.aes;
        let mut sim = AesSim::new(aes)?;
        sim.start(pt, key);
        for _ in 0..8 {
            sim.step_round();
        }
        // The next edge launches round 9's result; during that cycle the
        // round-10 logic settles at the state D pins (see the timing-crate
        // integration tests for the cycle accounting).
        let mut esim =
            CompiledSimulator::from_snapshot(self.compiled_timing(), sim.simulator().snapshot());
        let run = esim.clock_cycle();
        Ok(aes
            .state_d()
            .iter()
            .map(|&d| run.arrival_at_sinks_ps(d, &self.annotation))
            .collect())
    }

    /// [`Self::round10_settle_times`] through the device's settle-time
    /// cache: the first request for a pair simulates and stores the
    /// result; later requests (from any thread) return the stored
    /// `Arc` without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures (never cached).
    pub fn round10_settle_times_cached(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Arc<Vec<Option<f64>>>, Error> {
        let key_pair: PairKey = (*pt, *key);
        if let Some(hit) = self.lock_cache(&self.settle_cache).get(&key_pair) {
            self.settle_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.incr("cache.settle.hit");
            return Ok(Arc::clone(hit));
        }
        self.settle_misses.fetch_add(1, Ordering::Relaxed);
        self.obs.incr("cache.settle.miss");
        // Simulate outside the lock; a concurrent duplicate computation of
        // the same pure function is benign and both arrive at the same
        // value.
        let settles = Arc::new(self.round10_settle_times(pt, key)?);
        self.lock_cache(&self.settle_cache)
            .entry(key_pair)
            .or_insert_with(|| Arc::clone(&settles));
        Ok(settles)
    }

    /// Static-timing upper bound of the round path (used to aim sweeps).
    ///
    /// # Errors
    ///
    /// Propagates levelization failures.
    pub fn sta_min_period_ps(&self) -> Result<f64, Error> {
        let sta = Sta::analyze(self.design.aes.netlist(), &self.annotation)?;
        Ok(sta.min_period_ps(
            self.design.aes.netlist(),
            self.design.aes.state_d(),
            &self.annotation,
        ))
    }

    /// Simulates one full timed encryption on the compiled simulator and
    /// returns the switching activity in SoA form (the representation
    /// the acquisition kernels consume).
    fn indexed_activity(&self, pt: &[u8; 16], key: &[u8; 16]) -> Result<IndexedActivity, Error> {
        let aes = &self.design.aes;
        let mut fsim = aes.netlist().simulator()?;
        fsim.set_bus_bytes(aes.plaintext(), pt);
        fsim.set_bus_bytes(aes.key(), key);
        fsim.set(aes.load(), true);
        fsim.settle();
        let mut esim = CompiledSimulator::from_snapshot(self.compiled_timing(), fsim.snapshot());
        // The load strobe drops during cycle 0, so edge 1 already captures
        // round 1 (synchronous testbench behaviour).
        esim.set_input(aes.load(), false);
        let period = self.lab.acquisition.clock_period_ps;
        let table = self.table();
        let mut idx = IndexedActivity::default();
        let hint = self.activity_hint.load(Ordering::Relaxed) as usize;
        idx.times_ps.reserve(hint);
        idx.nets.reserve(hint);
        for cycle in 0..self.lab.acquisition.n_cycles {
            // Stream toggles straight into the SoA rows — same filter and
            // bit patterns as `ActivityTable::extend_indexed` over a
            // `TimedRun`, without materialising the run.
            let cycle_start_ps = cycle as f64 * period;
            esim.clock_cycle_visit(|time_ps, net, _| {
                let i = net.index();
                if table.emits(i) {
                    idx.times_ps.push(cycle_start_ps + time_ps);
                    idx.nets.push(i as u32);
                }
            });
        }
        self.activity_hint
            .store(idx.times_ps.len() as u64, Ordering::Relaxed);
        Ok(idx)
    }

    /// [`Self::indexed_activity`] through the device's activity cache
    /// (see [`Self::round10_settle_times_cached`] for the policy).
    fn indexed_activity_cached(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Arc<IndexedActivity>, Error> {
        let key_pair: PairKey = (*pt, *key);
        if let Some(hit) = self.lock_cache(&self.activity_cache).get(&key_pair) {
            self.activity_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.incr("cache.activity.hit");
            return Ok(Arc::clone(hit));
        }
        self.activity_misses.fetch_add(1, Ordering::Relaxed);
        self.obs.incr("cache.activity.miss");
        let idx = Arc::new(self.indexed_activity(pt, key)?);
        self.lock_cache(&self.activity_cache)
            .entry(key_pair)
            .or_insert_with(|| Arc::clone(&idx));
        Ok(idx)
    }

    /// Runs one full timed encryption and returns the current events of
    /// every cycle (the EM/power chains integrate these).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn timed_encryption_activity(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Vec<CurrentEvent>, Error> {
        let idx = self.indexed_activity(pt, key)?;
        let mut events = Vec::new();
        self.table()
            .append_events(&idx.times_ps, &idx.nets, &mut events);
        Ok(events)
    }

    /// [`Self::timed_encryption_activity`] on the retained scalar
    /// reference path ([`EventSimulator`] + [`collect_activity`]). The
    /// compiled/SoA hot path is pinned bit-for-bit against this in
    /// tests; production code should not call it.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    #[doc(hidden)]
    pub fn timed_encryption_activity_reference(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Vec<CurrentEvent>, Error> {
        let aes = &self.design.aes;
        let netlist = aes.netlist();
        let mut fsim = netlist.simulator()?;
        fsim.set_bus_bytes(aes.plaintext(), pt);
        fsim.set_bus_bytes(aes.key(), key);
        fsim.set(aes.load(), true);
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(netlist, fsim.snapshot());
        esim.set_input(aes.load(), false);
        let period = self.lab.acquisition.clock_period_ps;
        let mut events = Vec::new();
        for cycle in 0..self.lab.acquisition.n_cycles {
            let run = esim.clock_cycle(&self.annotation);
            events.extend(collect_activity(
                &run,
                cycle as f64 * period,
                netlist,
                &self.design.placement,
                self.die,
                &self.lab.tech,
            ));
        }
        Ok(events)
    }

    /// [`Self::timed_encryption_activity`] through the device's activity
    /// cache (see [`Self::round10_settle_times_cached`] for the policy).
    /// The cache stores the SoA form; the AoS view returned here is
    /// reconstructed per call (cheap relative to simulation).
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures (never cached).
    pub fn timed_encryption_activity_cached(
        &self,
        pt: &[u8; 16],
        key: &[u8; 16],
    ) -> Result<Arc<Vec<CurrentEvent>>, Error> {
        let idx = self.indexed_activity_cached(pt, key)?;
        let mut events = Vec::new();
        self.table()
            .append_events(&idx.times_ps, &idx.nets, &mut events);
        Ok(Arc::new(events))
    }

    /// Looks up (or computes) the noise-free convolved signal of one
    /// chain for one pair, on the chain's scope time base `dt_ps`. The
    /// activity cache is consulted exactly once per call — hit or miss
    /// of the clean cache — so the `cache.activity.*` counter stream is
    /// identical to acquiring straight from events. `acquire.events.*`
    /// counters are recorded only when the clean signal is computed,
    /// which happens exactly once per (pair, chain) per device
    /// regardless of worker count.
    fn clean_signal_cached(
        &self,
        chain: SideChannel,
        pt: &[u8; 16],
        key: &[u8; 16],
        dt_ps: f64,
    ) -> Result<Arc<Vec<f64>>, Error> {
        let (em, power) = (&self.lab.em, &self.lab.power);
        let cache = &self.chains[chain as usize];
        let weighted = cache.weights.get_or_init(|| match chain {
            SideChannel::Em => self.table().weighted_charges(|p| em.probe.coupling(p)),
            SideChannel::Power => self.table().weighted_charges(|_| 1.0),
        });
        let kernel = cache.kernel.get_or_init(|| match chain {
            SideChannel::Em => em.probe.impulse_response(dt_ps),
            SideChannel::Power => power.impulse_response(dt_ps),
        });
        let idx = self.indexed_activity_cached(pt, key)?;
        let key_pair: PairKey = (*pt, *key);
        if let Some(hit) = self.lock_cache(&cache.clean).get(&key_pair) {
            return Ok(Arc::clone(hit));
        }
        let n = self.lab.acquisition.n_samples(dt_ps);
        let mut impulses = Vec::new();
        let mut clean = Vec::new();
        let stats = bin_events_indexed(&idx.times_ps, &idx.nets, weighted, dt_ps, n, &mut impulses);
        convolve_kernel(&impulses, kernel, &mut clean);
        self.obs.add("acquire.events.binned", stats.binned);
        self.obs.add("acquire.events.dropped", stats.dropped);
        let clean = Arc::new(clean);
        self.lock_cache(&cache.clean)
            .entry(key_pair)
            .or_insert_with(|| Arc::clone(&clean));
        Ok(clean)
    }

    /// Current occupancy and hit counts of the simulation caches.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            settle_entries: lock_unpoisoned(&self.settle_cache).len(),
            settle_hits: self.settle_hits.load(Ordering::Relaxed),
            settle_misses: self.settle_misses.load(Ordering::Relaxed),
            activity_entries: lock_unpoisoned(&self.activity_cache).len(),
            activity_hits: self.activity_hits.load(Ordering::Relaxed),
            activity_misses: self.activity_misses.load(Ordering::Relaxed),
            poisoned: self.cache_poisoned.load(Ordering::Relaxed),
        }
    }

    /// Acquires one averaged trace of one encryption (Section IV)
    /// through `chain`: the near-field EM probe or the global power
    /// baseline.
    ///
    /// `measure_seed` drives the acquisition noise (scope + installation);
    /// reusing a seed reproduces the exact trace, and each chain salts it
    /// with its own constant. The noise-free convolved signal comes
    /// through the chain's clean-signal cache (fed by the activity
    /// cache), so repeated acquisitions of the same pair pay only the
    /// per-rep noise/quantise pass.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures.
    pub fn acquire_trace(
        &self,
        chain: SideChannel,
        pt: &[u8; 16],
        key: &[u8; 16],
        measure_seed: u64,
    ) -> Result<Trace, Error> {
        let (em, power) = (&self.lab.em, &self.lab.power);
        let (scope, gain, jitter, salt) = match chain {
            SideChannel::Em => (
                &em.scope,
                em.gain,
                em.setup_gain_jitter,
                0xE37A_11CE_55AA_0001,
            ),
            SideChannel::Power => (
                &power.scope,
                power.gain,
                power.setup_gain_jitter,
                0x0F0F_5A5A_3C3C_0002,
            ),
        };
        let clean = self.clean_signal_cached(chain, pt, key, scope.sample_period_ps)?;
        let mut rng = StdRng::seed_from_u64(measure_seed ^ salt);
        Ok(read_out(
            &clean,
            scope,
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
    fn caches_return_cold_results_and_count_hits() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(3);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0x5Au8; 16];
        let key = [0xC3u8; 16];

        let cold = dev.round10_settle_times(&pt, &key).unwrap();
        let first = dev.round10_settle_times_cached(&pt, &key).unwrap();
        let second = dev.round10_settle_times_cached(&pt, &key).unwrap();
        assert_eq!(*first, cold);
        assert!(Arc::ptr_eq(&first, &second));

        let cold_events = dev.timed_encryption_activity(&pt, &key).unwrap();
        let cached_events = dev.timed_encryption_activity_cached(&pt, &key).unwrap();
        assert_eq!(*cached_events, cold_events);

        let stats = dev.cache_stats();
        assert_eq!(stats.settle_entries, 1);
        assert_eq!(stats.settle_hits, 1);
        assert_eq!(stats.activity_entries, 1);
        assert_eq!(stats.activity_hits, 0);

        // A trace acquisition goes through the activity cache.
        let a = dev.acquire_em_trace(&pt, &key, 7).unwrap();
        let b = dev.acquire_em_trace(&pt, &key, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(dev.cache_stats().activity_hits, 2);
    }

    #[test]
    fn poisoned_cache_locks_recover() {
        // A panicking lock holder must not wedge the device caches: the
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
    fn poisoned_recoveries_are_counted_and_reported() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(4);
        let obs = Obs::recording();
        let dev = ProgrammedDevice::with_obs(&lab, &golden, &die, obs.clone());
        let pt = [0x6Bu8; 16];
        let key = [0x0Du8; 16];
        dev.round10_settle_times_cached(&pt, &key).unwrap();
        assert_eq!(dev.cache_stats().poisoned, 0);

        // Poison the settle cache the way a panicking worker would.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = dev.settle_cache.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(dev.settle_cache.is_poisoned());

        // The lookup still answers from the recovered cache, and every
        // recovering lock acquisition is counted (once for this hit).
        let again = dev.round10_settle_times_cached(&pt, &key).unwrap();
        assert!(!again.is_empty());
        let stats = dev.cache_stats();
        assert_eq!(stats.poisoned, 1);
        assert_eq!(stats.settle_hits, 1);
        assert_eq!(stats.settle_misses, 1);

        let counters: std::collections::BTreeMap<String, u64> =
            obs.snapshot().unwrap().counters.into_iter().collect();
        assert_eq!(counters.get("cache.poisoned"), Some(&1));
        assert_eq!(counters.get("cache.settle.hit"), Some(&1));
        assert_eq!(counters.get("cache.settle.miss"), Some(&1));
    }

    #[test]
    fn compiled_activity_path_matches_reference_bit_for_bit() {
        // The full fast path (compiled simulator + ActivityTable) must
        // reproduce the scalar reference (EventSimulator +
        // collect_activity) exactly — times, charges and positions to
        // the bit, in the same order — on both a golden and an infected
        // device (the trojan exercises coupling-perturbed delays).
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let infected = Design::infected(&lab, &TrojanSpec::ht_comb()).unwrap();
        let die = lab.fabricate_die(5);
        let pt = [0x9Cu8; 16];
        let key = [0x3Eu8; 16];
        for design in [&golden, &infected] {
            let dev = ProgrammedDevice::new(&lab, design, &die);
            let fast = dev.timed_encryption_activity(&pt, &key).unwrap();
            let reference = dev.timed_encryption_activity_reference(&pt, &key).unwrap();
            assert_eq!(fast.len(), reference.len());
            assert!(!fast.is_empty());
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(a.time_ps.to_bits(), b.time_ps.to_bits(), "event {i} time");
                assert_eq!(a.charge.to_bits(), b.charge.to_bits(), "event {i} charge");
                assert_eq!(a.position, b.position, "event {i} position");
            }
        }
    }

    #[test]
    fn cached_clean_signal_reproduces_the_event_level_chain_bit_for_bit() {
        // An acquisition through the clean-signal cache must equal the
        // full per-event chain (EmSetup::acquire / PowerSetup::acquire
        // over the reference activity) with the same derived RNG seed.
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(6);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0xD4u8; 16];
        let key = [0x71u8; 16];
        let events = dev.timed_encryption_activity_reference(&pt, &key).unwrap();

        let mut rng = StdRng::seed_from_u64(11 ^ 0xE37A_11CE_55AA_0001);
        let want_em = lab.em.acquire(&events, &lab.acquisition, &mut rng);
        let got_em = dev.acquire_em_trace(&pt, &key, 11).unwrap();
        assert_eq!(want_em, got_em);

        let mut rng = StdRng::seed_from_u64(12 ^ 0x0F0F_5A5A_3C3C_0002);
        let want_power = lab.power.acquire(&events, &lab.acquisition, &mut rng);
        let got_power = dev
            .acquire_trace(SideChannel::Power, &pt, &key, 12)
            .unwrap();
        assert_eq!(want_power, got_power);
    }

    #[test]
    fn compiled_settle_times_match_reference_simulator() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(7);
        let dev = ProgrammedDevice::new(&lab, &golden, &die);
        let pt = [0x42u8; 16];
        let key = [0x24u8; 16];
        // Reference: the original EventSimulator-based computation.
        let aes = golden.aes();
        let mut sim = AesSim::new(aes).unwrap();
        sim.start(&pt, &key);
        for _ in 0..8 {
            sim.step_round();
        }
        let mut esim = EventSimulator::from_snapshot(aes.netlist(), sim.simulator().snapshot());
        let run = esim.clock_cycle(dev.annotation());
        let want: Vec<Option<f64>> = aes
            .state_d()
            .iter()
            .map(|&d| run.arrival_at_sinks_ps(d, dev.annotation()))
            .collect();
        let got = dev.round10_settle_times(&pt, &key).unwrap();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn acquire_event_counters_are_recorded_once_per_pair_and_chain() {
        let lab = lab();
        let golden = Design::golden(&lab).unwrap();
        let die = lab.fabricate_die(8);
        let obs = Obs::recording();
        let dev = ProgrammedDevice::with_obs(&lab, &golden, &die, obs.clone());
        let pt = [0x10u8; 16];
        let key = [0x20u8; 16];
        // Three EM reps + one power rep: the events are binned once per
        // chain (EM and power share the activity but convolve their own
        // kernels), never per rep.
        for seed in 0..3 {
            dev.acquire_em_trace(&pt, &key, seed).unwrap();
        }
        dev.acquire_trace(SideChannel::Power, &pt, &key, 0).unwrap();
        let events = dev.timed_encryption_activity(&pt, &key).unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            obs.snapshot().unwrap().counters.into_iter().collect();
        assert_eq!(
            counters.get("acquire.events.binned").copied().unwrap_or(0)
                + counters.get("acquire.events.dropped").copied().unwrap_or(0),
            2 * events.len() as u64
        );
        // All of this design's activity lies inside the acquisition
        // window, so nothing is dropped — but the counter still appears
        // (explicitly zero) so manifests always carry it.
        assert_eq!(counters.get("acquire.events.dropped"), Some(&0));
        // One activity miss (first EM rep), then three hits.
        assert_eq!(counters.get("cache.activity.miss"), Some(&1));
        assert_eq!(counters.get("cache.activity.hit"), Some(&3));
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
