//! # htd-obs — observability for the measurement pipeline
//!
//! Lightweight spans, counters and histograms threaded through the
//! engine, the channels and the artifact store, with one hard rule: the
//! **no-op default costs nothing on the hot path** and recording changes
//! no measured value. An [`Obs`] handle is either disabled (the default —
//! every call returns immediately without formatting, hashing or
//! locking) or carries an [`Arc<Recorder>`] that aggregates:
//!
//! * **counters** — monotonically increasing event counts (span entries,
//!   cache hits/misses, fault fires, retries, store bytes). Counter
//!   values are *deterministic*: in the campaign pipeline they are pure
//!   functions of the plan, bit-identical at any worker count.
//! * **timings** — per-stage wall-clock aggregates keyed by span name
//!   (and optional detail such as the die index). Durations are
//!   *observational only*: they vary run to run and must never enter
//!   checksummed artifacts or seed derivations.
//! * **occupancy** — per-worker item counts reported by the `htd-par`
//!   pool. Scheduling-dependent, hence observational like durations.
//!
//! The split is load-bearing: [`RunManifest`]'s `counters` section is
//! diffable across machines and worker counts, while `timings` and
//! `occupancy` describe one particular run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod manifest;
mod trace;

pub use json::Json;
pub use manifest::{HealthRecord, Occupancy, RunManifest, StageTiming, ToolInfo, MANIFEST_VERSION};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A saturating atomic event counter.
///
/// Additions that would overflow clamp at [`u64::MAX`] instead of
/// wrapping, so a runaway counter can never masquerade as a small one.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`, saturating at [`u64::MAX`].
    pub fn add(&self, n: u64) {
        // `fetch_update` with a total function never returns `Err`.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Adds one, saturating at [`u64::MAX`].
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`, with the top bucket
/// absorbing everything from `2^63` up.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-shape log2 histogram of `u64` samples (duration nanoseconds,
/// byte counts). The bucket layout is static, so merging and comparing
/// histograms never depends on the data that filled them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }

    /// The bucket index `value` falls into: 0 for 0, else
    /// `1 + floor(log2(value))`.
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The smallest value landing in bucket `index` (0 for bucket 0,
    /// `2^(index-1)` otherwise).
    ///
    /// # Panics
    ///
    /// If `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_floor(index: usize) -> u64 {
        assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one sample, saturating the bucket and total counts.
    pub fn record(&mut self, value: u64) {
        let i = Self::bucket_index(value);
        self.counts[i] = self.counts[i].saturating_add(1);
        self.total = self.total.saturating_add(1);
    }

    /// The count in bucket `index`.
    ///
    /// # Panics
    ///
    /// If `index >= HISTOGRAM_BUCKETS`.
    pub fn count(&self, index: usize) -> u64 {
        self.counts[index]
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All bucket counts, lowest bucket first.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), resolved to
    /// bucket granularity: the inclusive upper bound of the bucket
    /// holding the sample of rank `ceil(q · total)` — 0 for the zero
    /// bucket, `2^i − 1` for bucket `i`, [`u64::MAX`] for the top
    /// bucket. An empty histogram reports 0. This is the one shared
    /// p50/p99 derivation; callers must not re-derive percentiles from
    /// raw bucket counts.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // `total` is a count of real samples, far below 2^53.
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(count);
            if cumulative >= rank {
                return match index {
                    0 => 0,
                    64 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Wall-clock aggregate of one span key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TimingAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    hist: Histogram,
}

impl TimingAgg {
    fn new() -> Self {
        TimingAgg {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            hist: Histogram::new(),
        }
    }

    fn record(&mut self, ns: u64) {
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.hist.record(ns);
    }
}

/// The recorder's aggregation state, behind one mutex. Counters live in
/// a sorted map so snapshots (and manifests built from them) render in a
/// deterministic order without a sort pass.
#[derive(Debug, Default)]
struct RecorderState {
    counters: BTreeMap<String, u64>,
    timings: BTreeMap<String, TimingAgg>,
    occupancy: BTreeMap<u64, Vec<u64>>,
}

/// The recording sink behind an enabled [`Obs`] handle.
#[derive(Debug, Default)]
pub struct Recorder {
    state: Mutex<RecorderState>,
    /// Span-tree collection ([`Obs::recording_traced`]); `None` for
    /// plain recording handles, which then skip every tracing branch.
    trace: Option<Mutex<trace::TraceState>>,
}

/// Locks the recorder state, recovering from poisoning: the state holds
/// only monotone aggregates, so the data behind a poisoned lock is still
/// a valid (partial) record of the run.
fn lock_state(recorder: &Recorder) -> MutexGuard<'_, RecorderState> {
    recorder
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    fn traced() -> Self {
        Recorder {
            state: Mutex::default(),
            trace: Some(Mutex::new(trace::TraceState::new())),
        }
    }

    fn add(&self, name: &str, n: u64) {
        {
            let mut state = lock_state(self);
            match state.counters.get_mut(name) {
                Some(v) => *v = v.saturating_add(n),
                None => {
                    state.counters.insert(name.to_string(), n);
                }
            }
        }
        // Attribution copies the increment into the open span's delta
        // set; the counter totals above are the source of truth and are
        // identical with tracing on or off.
        if self.trace.is_some() {
            self.trace_attribute(name, n);
        }
    }

    fn record_duration(&self, key: &str, ns: u64) {
        let mut state = lock_state(self);
        match state.timings.get_mut(key) {
            Some(agg) => agg.record(ns),
            None => {
                let mut agg = TimingAgg::new();
                agg.record(ns);
                state.timings.insert(key.to_string(), agg);
            }
        }
    }

    fn record_occupancy(&self, workers: u64, per_worker: &[u64]) {
        let mut state = lock_state(self);
        let slots = state.occupancy.entry(workers).or_default();
        if slots.len() < per_worker.len() {
            slots.resize(per_worker.len(), 0);
        }
        for (slot, &n) in slots.iter_mut().zip(per_worker) {
            *slot = slot.saturating_add(n);
        }
    }
}

/// One counter's snapshot: `(name, value)`.
pub type CounterSnapshot = (String, u64);

/// One span key's wall-clock snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// The span key (`<stage>` or `<stage>/<detail>`).
    pub key: String,
    /// Completed span count.
    pub count: u64,
    /// Summed wall-clock nanoseconds.
    pub total_ns: u64,
    /// Largest single span in nanoseconds.
    pub max_ns: u64,
    /// Log2 distribution of span durations.
    pub hist: Histogram,
}

/// One worker-count's occupancy snapshot: items completed per pool slot,
/// summed over every fan that resolved to that worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// The resolved worker count of the fans aggregated here.
    pub workers: u64,
    /// Items completed by each worker slot.
    pub per_worker: Vec<u64>,
}

/// A point-in-time copy of everything a [`Recorder`] aggregated, in
/// deterministic (sorted) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Deterministic event counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Observational wall-clock aggregates, sorted by key.
    pub timings: Vec<TimingSnapshot>,
    /// Observational pool occupancy, sorted by worker count.
    pub occupancy: Vec<OccupancySnapshot>,
}

/// A cheap-to-clone observability handle: either disabled (the default;
/// every operation is a branch on `None` and nothing else) or recording
/// into a shared [`Recorder`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<Recorder>>,
}

impl Obs {
    /// The disabled handle: records nothing, costs (almost) nothing.
    pub fn noop() -> Self {
        Obs { recorder: None }
    }

    /// A fresh recording handle with its own [`Recorder`].
    pub fn recording() -> Self {
        Obs {
            recorder: Some(Arc::new(Recorder::default())),
        }
    }

    /// A recording handle that additionally collects the span tree for
    /// Chrome trace-event export ([`Obs::trace_json`]). Counters,
    /// timings and occupancy behave exactly as under
    /// [`Obs::recording`] — tracing adds parallel state, it never
    /// reroutes or adds a counter.
    pub fn recording_traced() -> Self {
        Obs {
            recorder: Some(Arc::new(Recorder::traced())),
        }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Whether this handle collects a span tree
    /// ([`Obs::recording_traced`]).
    pub fn tracing(&self) -> bool {
        self.recorder
            .as_ref()
            .is_some_and(|rec| rec.trace.is_some())
    }

    /// Adds `n` to the counter `name`. No-op when disabled.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(rec) = &self.recorder {
            rec.add(name, n);
        }
    }

    /// Adds one to the counter `name`. No-op when disabled.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Opens a span named `name`: the counter `span.<name>` is bumped
    /// immediately (deterministic), and the span's wall-clock is
    /// recorded under the timing key `name` when the guard drops
    /// (observational). Disabled handles return an inert guard.
    pub fn span(&self, name: &str) -> Span {
        self.span_keys(name, &[])
    }

    /// [`Obs::span`] with key/value tags attached to the span's trace
    /// event — a request id, a batch size. Tags are trace-only:
    /// counters and timings are exactly [`Obs::span`]'s, and without
    /// tracing the tags vanish for free.
    pub fn span_tagged(&self, name: &str, args: &[(&str, &str)]) -> Span {
        self.span_keys(name, args)
    }

    fn span_keys(&self, name: &str, args: &[(&str, &str)]) -> Span {
        match &self.recorder {
            None => Span { active: None },
            Some(rec) => {
                // The entry counter bumps before the trace span opens,
                // so it attributes to the *parent* span — the child's
                // delta set holds what happened strictly inside it.
                rec.add(&format!("span.{name}"), 1);
                let trace_id = rec.trace_open(name, args);
                Span {
                    active: Some(ActiveSpan {
                        recorder: Arc::clone(rec),
                        name: name.to_string(),
                        trace_id,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// The innermost traced span open on the calling thread, to hand to
    /// the worker threads of a fan ([`Obs::adopt_span`]); `None` unless
    /// tracing inside a span.
    pub fn current_span(&self) -> Option<u64> {
        self.recorder.as_ref()?.trace_current()
    }

    /// Makes `parent` — a [`Obs::current_span`] taken on another thread,
    /// still open there — the parent of the spans this thread opens, and
    /// the span its counter increments attribute to, until the guard
    /// drops. A span's parent is otherwise the innermost span open on
    /// its own thread, so without this every span a worker opens would
    /// be a root. `None` (or a handle that is not tracing) adopts
    /// nothing.
    pub fn adopt_span(&self, parent: Option<u64>) -> AdoptedSpan {
        let active = match (&self.recorder, parent) {
            (Some(rec), Some(id)) if rec.trace.is_some() => {
                rec.trace_adopt(id);
                Some((Arc::clone(rec), id))
            }
            _ => None,
        };
        AdoptedSpan { active }
    }

    /// Nanoseconds since this handle's trace epoch, for timestamping
    /// [`Obs::trace_async`] intervals. Returns 0 when not tracing.
    pub fn now_ns(&self) -> u64 {
        match &self.recorder {
            Some(rec) => rec.trace_now_ns(),
            None => 0,
        }
    }

    /// Records a non-nesting interval (e.g. one request's wait in a
    /// queue, begun on one thread and ended on another) into the trace
    /// as a Chrome async `b`/`e` pair correlated by `id`. Timestamps
    /// come from [`Obs::now_ns`]. No-op unless tracing.
    pub fn trace_async(
        &self,
        name: &str,
        id: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, &str)],
    ) {
        if let Some(rec) = &self.recorder {
            rec.trace_async(name, id, start_ns, end_ns, args);
        }
    }

    /// Exports the collected span tree as Chrome trace-event JSON — a
    /// deterministic rendering (sorted events, insertion-ordered keys)
    /// that `chrome://tracing` and Perfetto open directly. `None`
    /// unless tracing.
    pub fn trace_json(&self) -> Option<String> {
        self.recorder.as_ref()?.trace_json()
    }

    /// Records `value` into the observational distribution `name`: the
    /// same count/total/max/log2-histogram aggregate spans use, but fed
    /// a raw magnitude instead of nanoseconds — e.g. queue depths
    /// sampled at drain time, batch sizes, occupancy. The aggregate
    /// lands in the manifest's timings (observational) section and never
    /// in the deterministic counters. No-op when disabled.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(rec) = &self.recorder {
            rec.record_duration(name, value);
        }
    }

    /// Records one pool fan: `fans`/`tasks` counters (deterministic —
    /// the fan structure is a pure function of the campaign) plus the
    /// per-slot occupancy (observational — scheduling decides which slot
    /// ran what).
    pub fn record_fan(&self, tasks: u64, workers: u64, per_worker: &[u64]) {
        if let Some(rec) = &self.recorder {
            rec.add("engine.fans", 1);
            rec.add("engine.tasks", tasks);
            rec.record_occupancy(workers, per_worker);
        }
    }

    /// Takes a deterministic snapshot of the recorder, or `None` when
    /// disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let rec = self.recorder.as_ref()?;
        let state = lock_state(rec);
        Some(MetricsSnapshot {
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            timings: state
                .timings
                .iter()
                .map(|(k, agg)| TimingSnapshot {
                    key: k.clone(),
                    count: agg.count,
                    total_ns: agg.total_ns,
                    max_ns: agg.max_ns,
                    hist: agg.hist.clone(),
                })
                .collect(),
            occupancy: state
                .occupancy
                .iter()
                .map(|(workers, slots)| OccupancySnapshot {
                    workers: *workers,
                    per_worker: slots.clone(),
                })
                .collect(),
        })
    }
}

/// The live half of an enabled span guard.
#[derive(Debug)]
struct ActiveSpan {
    recorder: Arc<Recorder>,
    name: String,
    trace_id: Option<u64>,
    start: Instant,
}

/// An RAII span guard from [`Obs::span`]: entry was counted at creation;
/// dropping it records the elapsed wall-clock — unless the thread is
/// unwinding, in which case the aborted span is *counted* (under
/// `span.<name>.aborted`) but its truncated wall-clock never pollutes
/// the timing aggregates.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let aborted = std::thread::panicking();
            if let Some(id) = active.trace_id {
                // Close the trace span first: the aborted counter below
                // then attributes to the parent, not the dead span.
                active.recorder.trace_close(id, aborted);
            }
            if aborted {
                active
                    .recorder
                    .add(&format!("span.{}.aborted", active.name), 1);
            } else {
                let ns = u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                active.recorder.record_duration(&active.name, ns);
            }
        }
    }
}

/// The guard of [`Obs::adopt_span`]: the adopted span stays this
/// thread's innermost until it drops.
#[derive(Debug)]
#[must_use = "dropping the guard immediately releases the adopted span"]
pub struct AdoptedSpan {
    active: Option<(Arc<Recorder>, u64)>,
}

impl Drop for AdoptedSpan {
    fn drop(&mut self) {
        if let Some((recorder, id)) = self.active.take() {
            recorder.trace_release(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        c.incr();
        c.add(12345);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(64), 1u64 << 63);
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(11), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn noop_handle_records_nothing() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.incr("x");
        let _span = obs.span("stage");
        drop(_span);
        obs.record_fan(10, 4, &[3, 3, 2, 2]);
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn spans_count_deterministically_and_time_observationally() {
        let obs = Obs::recording();
        for _ in 0..3 {
            let _s = obs.span("acquire.EM");
        }
        {
            let _s = obs.span("fuse");
        }
        let snap = obs.snapshot().unwrap();
        let counters: std::collections::BTreeMap<_, _> = snap.counters.into_iter().collect();
        assert_eq!(counters.get("span.acquire.EM"), Some(&3));
        assert_eq!(counters.get("span.fuse"), Some(&1));
        // One timing key per span name, aggregating every entry.
        let keys: Vec<(&str, u64)> = snap
            .timings
            .iter()
            .map(|t| (t.key.as_str(), t.count))
            .collect();
        assert_eq!(keys, vec![("acquire.EM", 3), ("fuse", 1)]);
        for t in &snap.timings {
            assert_eq!(t.hist.total(), t.count);
            assert!(t.max_ns <= t.total_ns);
        }
    }

    #[test]
    fn clones_share_one_recorder() {
        let obs = Obs::recording();
        let clone = obs.clone();
        obs.add("a", 2);
        clone.add("a", 3);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counters, vec![("a".to_string(), 5)]);
    }

    #[test]
    fn occupancy_accumulates_per_worker_count() {
        let obs = Obs::recording();
        obs.record_fan(5, 2, &[3, 2]);
        obs.record_fan(7, 2, &[4, 3]);
        obs.record_fan(4, 4, &[1, 1, 1, 1]);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.occupancy.len(), 2);
        assert_eq!(snap.occupancy[0].workers, 2);
        assert_eq!(snap.occupancy[0].per_worker, vec![7, 5]);
        assert_eq!(snap.occupancy[1].workers, 4);
        let counters: std::collections::BTreeMap<_, _> = snap.counters.into_iter().collect();
        assert_eq!(counters.get("engine.fans"), Some(&3));
        assert_eq!(counters.get("engine.tasks"), Some(&16));
    }

    #[test]
    fn percentile_reports_bucket_upper_bounds() {
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.percentile(0.99), 0);

        let mut h = Histogram::new();
        // 10 samples: 5 zeros, 4 in bucket 3 ([4, 8)), 1 in bucket 11.
        for _ in 0..5 {
            h.record(0);
        }
        for _ in 0..4 {
            h.record(5);
        }
        h.record(1024);
        assert_eq!(h.percentile(0.0), 0, "rank clamps to the first sample");
        assert_eq!(h.percentile(0.5), 0, "rank 5 is still in the zero bucket");
        assert_eq!(h.percentile(0.6), 7, "rank 6 lands in [4, 8)");
        assert_eq!(h.percentile(0.9), 7);
        assert_eq!(h.percentile(0.99), 2047, "rank 10 is the 1024 sample");
        assert_eq!(h.percentile(1.0), 2047);
        assert_eq!(h.percentile(2.0), 2047, "q clamps to 1");

        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.percentile(0.5), u64::MAX);
    }

    #[test]
    fn panicking_span_counts_aborted_instead_of_timing() {
        let obs = Obs::recording();
        let clone = obs.clone();
        let result = std::panic::catch_unwind(move || {
            let _span = clone.span("score");
            panic!("mid-span failure");
        });
        assert!(result.is_err());
        {
            let _span = obs.span("score");
        }
        let snap = obs.snapshot().unwrap();
        let counters: std::collections::BTreeMap<_, _> = snap.counters.into_iter().collect();
        assert_eq!(counters.get("span.score"), Some(&2), "both entries counted");
        assert_eq!(counters.get("span.score.aborted"), Some(&1));
        // Only the clean span produced a timing sample.
        let timing = snap.timings.iter().find(|t| t.key == "score").unwrap();
        assert_eq!(timing.count, 1);
    }

    #[test]
    fn worker_threads_nest_their_spans_under_an_adopted_parent() {
        let obs = Obs::recording_traced();
        {
            let _outer = obs.span("campaign");
            let parent = obs.current_span();
            assert!(parent.is_some());
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _adopted = obs.adopt_span(parent);
                    let _die = obs.span("program");
                    obs.incr("work.die");
                });
            });
        }
        let json = obs.trace_json().unwrap();
        let Json::Obj(top) = Json::parse(&json).unwrap() else {
            panic!("trace must be an object")
        };
        let Some((_, Json::Arr(events))) = top.into_iter().find(|(k, _)| k == "traceEvents") else {
            panic!("traceEvents must be an array")
        };
        let field = |event: &Json, path: [&str; 2]| -> Option<String> {
            let Json::Obj(fields) = event else {
                return None;
            };
            let (_, Json::Obj(args)) = fields.iter().find(|(k, _)| k == path[0])? else {
                return None;
            };
            match args.iter().find(|(k, _)| k == path[1])? {
                (_, Json::Str(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let named = |name: &str| {
            events
                .iter()
                .find(|e| json_name(e) == Some(name))
                .unwrap_or_else(|| panic!("no {name} span in {json}"))
        };
        let campaign = field(named("campaign"), ["args", "span"]).unwrap();
        assert_eq!(field(named("program"), ["args", "parent"]), Some(campaign));
        assert!(json.contains("\"counter.work.die\": 1"), "{json}");
        // Untraced handles adopt nothing and cost nothing.
        let plain = Obs::recording();
        assert_eq!(plain.current_span(), None);
        let _inert = plain.adopt_span(Some(7));
    }

    /// The `name` of a trace event, if it has one.
    fn json_name(event: &Json) -> Option<&str> {
        let Json::Obj(fields) = event else {
            return None;
        };
        match fields.iter().find(|(k, _)| k == "name")? {
            (_, Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    #[test]
    fn traced_handle_builds_a_span_tree_with_counter_deltas() {
        let obs = Obs::recording_traced();
        assert!(obs.tracing() && obs.enabled());
        {
            let _outer = obs.span("campaign");
            obs.add("work.outer", 2);
            {
                let _inner = obs.span_tagged("score", &[("request", "req-7")]);
                obs.incr("work.inner");
            }
            {
                let _inner = obs.span("score");
            }
        }
        let json = obs.trace_json().unwrap();
        let doc = Json::parse(&json).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("trace must be an object")
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| match v {
                Json::Arr(items) => items,
                other => panic!("traceEvents must be an array, got {other:?}"),
            })
            .unwrap();
        assert_eq!(events.len(), 3, "{json}");
        // The rendering is deterministic enough to assert on directly.
        assert!(json.contains("\"name\": \"campaign\""), "{json}");
        assert!(json.contains("\"request\": \"req-7\""), "{json}");
        assert!(json.contains("\"counter.work.inner\": 1"), "{json}");
        // The outer span holds its own increments plus the entry
        // counters of its children (bumped before each child opens).
        assert!(json.contains("\"counter.work.outer\": 2"), "{json}");
        assert!(json.contains("\"counter.span.score\": 2"), "{json}");
        assert!(json.contains("\"parent\""), "{json}");

        // Counter totals are bit-identical to an untraced run's.
        let untraced = Obs::recording();
        {
            let _outer = untraced.span("campaign");
            untraced.add("work.outer", 2);
            {
                let _inner = untraced.span_tagged("score", &[("request", "req-7")]);
                untraced.incr("work.inner");
            }
            {
                let _inner = untraced.span("score");
            }
        }
        assert_eq!(
            obs.snapshot().unwrap().counters,
            untraced.snapshot().unwrap().counters
        );
    }

    #[test]
    fn trace_ids_are_deterministic_across_serial_runs() {
        let ids = |obs: &Obs| {
            {
                let _outer = obs.span("campaign");
                let _inner = obs.span("score");
            }
            let json = obs.trace_json().unwrap();
            let mut spans: Vec<String> = Vec::new();
            let mut rest = json.as_str();
            while let Some(at) = rest.find("\"span\": \"") {
                let tail = &rest[at + 9..];
                spans.push(tail[..16].to_string());
                rest = &tail[16..];
            }
            spans.sort();
            spans
        };
        let first = Obs::recording_traced();
        let second = Obs::recording_traced();
        let a = ids(&first);
        let b = ids(&second);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn async_intervals_render_as_begin_end_pairs() {
        let obs = Obs::recording_traced();
        let start = obs.now_ns();
        let end = obs.now_ns().max(start + 1);
        obs.trace_async("queue.wait", "req-3", start, end, &[("depth", "2")]);
        let json = obs.trace_json().unwrap();
        assert!(json.contains("\"ph\": \"b\""), "{json}");
        assert!(json.contains("\"ph\": \"e\""), "{json}");
        assert!(json.contains("\"id\": \"req-3\""), "{json}");
        assert!(json.contains("\"depth\": \"2\""), "{json}");
        // Plain handles: tracing surface is inert, not an error.
        let plain = Obs::recording();
        assert_eq!(plain.now_ns(), 0);
        plain.trace_async("queue.wait", "x", 0, 1, &[]);
        assert!(plain.trace_json().is_none());
        assert!(Obs::noop().trace_json().is_none());
    }

    #[test]
    fn snapshot_order_is_sorted_and_stable() {
        let obs = Obs::recording();
        obs.incr("zebra");
        obs.incr("alpha");
        obs.incr("mid");
        let names: Vec<String> = obs
            .snapshot()
            .unwrap()
            .counters
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zebra"]);
    }
}
