//! Span-tree tracing behind a recording [`crate::Obs`] handle.
//!
//! Tracing is opt-in on top of recording ([`crate::Obs::recording_traced`]):
//! every span opened while tracing carries a **deterministic id** (an
//! FNV-1a hash of its parent's id, its key and its per-parent sequence
//! number, so serial runs reproduce the same tree ids run over run), a
//! parent link (the innermost span still open on the same thread), and
//! the **counter deltas** attributed while it was the innermost open
//! span on its thread. The collected tree exports as Chrome
//! trace-event JSON ([`crate::Obs::trace_json`]) and renders as a
//! flamegraph in `chrome://tracing` or Perfetto.
//!
//! Tracing never touches the deterministic counter section: attribution
//! *copies* increments into the trace, it does not reroute them, so a
//! traced run's counters are bit-identical to an untraced one's.
//! Intervals that do not nest on one thread (a request's wait in the
//! serve queue spans an enqueueing handler and a draining scheduler)
//! are recorded as Chrome *async* `b`/`e` pairs correlated by a string
//! id instead of stack position ([`crate::Obs::trace_async`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::Json;
use crate::Recorder;

/// FNV-1a 64-bit, local copy: `htd-obs` sits below `htd-store` in the
/// crate graph and cannot borrow its hasher.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One completed span in the trace tree.
#[derive(Debug, Clone)]
struct TraceEvent {
    id: u64,
    parent: Option<u64>,
    key: String,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(String, String)>,
    counters: BTreeMap<String, u64>,
    aborted: bool,
}

/// One non-nesting interval, rendered as a Chrome async `b`/`e` pair.
#[derive(Debug, Clone)]
struct AsyncEvent {
    name: String,
    id: String,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    args: Vec<(String, String)>,
}

/// A span that has been opened but not yet dropped.
#[derive(Debug)]
struct OpenSpan {
    key: String,
    parent: Option<u64>,
    tid: u64,
    start_ns: u64,
    args: Vec<(String, String)>,
    counters: BTreeMap<String, u64>,
    child_seq: BTreeMap<String, u64>,
}

/// Everything the tracing layer aggregates, behind its own mutex —
/// never held together with the counter/timing state's, so the two
/// lock orders can never deadlock.
#[derive(Debug)]
pub(crate) struct TraceState {
    epoch: Instant,
    next_tid: u64,
    tids: HashMap<ThreadId, u64>,
    root_seq: BTreeMap<String, u64>,
    open: HashMap<u64, OpenSpan>,
    events: Vec<TraceEvent>,
    async_events: Vec<AsyncEvent>,
}

impl TraceState {
    pub(crate) fn new() -> Self {
        TraceState {
            epoch: Instant::now(),
            next_tid: 1,
            tids: HashMap::new(),
            root_seq: BTreeMap::new(),
            open: HashMap::new(),
            events: Vec::new(),
            async_events: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A small stable id for the calling thread (1, 2, 3, … in
    /// first-seen order).
    fn tid(&mut self) -> u64 {
        let thread = std::thread::current().id();
        match self.tids.get(&thread) {
            Some(&tid) => tid,
            None => {
                let tid = self.next_tid;
                self.next_tid += 1;
                self.tids.insert(thread, tid);
                tid
            }
        }
    }
}

thread_local! {
    /// Innermost-last stack of `(recorder identity, span id)` pairs for
    /// spans opened and not yet dropped on this thread. The recorder
    /// identity keeps two simultaneously-tracing handles from adopting
    /// each other's spans as parents.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn recorder_key(recorder: &Recorder) -> usize {
    std::ptr::from_ref(recorder) as usize
}

/// The innermost span of recorder `me` open on the calling thread.
fn innermost(me: usize) -> Option<u64> {
    SPAN_STACK.with(|stack| {
        stack
            .borrow()
            .iter()
            .rev()
            .find(|(rec, _)| *rec == me)
            .map(|&(_, id)| id)
    })
}

/// Removes the innermost stack entry `(me, id)` of the calling thread.
fn pop_entry(me: usize, id: u64) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(at) = stack.iter().rposition(|&(rec, sid)| rec == me && sid == id) {
            stack.remove(at);
        }
    });
}

fn lock_trace(trace: &Mutex<TraceState>) -> MutexGuard<'_, TraceState> {
    trace.lock().unwrap_or_else(PoisonError::into_inner)
}

fn owned_args(args: &[(&str, &str)]) -> Vec<(String, String)> {
    args.iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Recorder {
    /// Opens a traced span under the innermost span still open on this
    /// thread; `None` when this recorder does not trace.
    pub(crate) fn trace_open(&self, key: &str, args: &[(&str, &str)]) -> Option<u64> {
        let trace = self.trace.as_ref()?;
        let me = recorder_key(self);
        let parent = innermost(me);
        let mut state = lock_trace(trace);
        let start_ns = state.now_ns();
        let tid = state.tid();
        // The id hashes (parent id, key, per-parent sequence of this
        // key): a serial rerun opens the same spans in the same order
        // and reproduces the exact ids. A sibling guard that outlives
        // its parent falls back to the root sequence — the parent link
        // is kept, only the sequence scope degrades.
        let seq = {
            let slot = match parent.and_then(|pid| state.open.get_mut(&pid)) {
                Some(open) => open.child_seq.entry(key.to_string()).or_insert(0),
                None => state.root_seq.entry(key.to_string()).or_insert(0),
            };
            let seq = *slot;
            *slot += 1;
            seq
        };
        let mut hashed = Vec::with_capacity(key.len() + 17);
        hashed.extend_from_slice(&parent.unwrap_or(0).to_le_bytes());
        hashed.extend_from_slice(key.as_bytes());
        hashed.push(0xff);
        hashed.extend_from_slice(&seq.to_le_bytes());
        let id = fnv1a64(&hashed).max(1);
        state.open.insert(
            id,
            OpenSpan {
                key: key.to_string(),
                parent,
                tid,
                start_ns,
                args: owned_args(args),
                counters: BTreeMap::new(),
                child_seq: BTreeMap::new(),
            },
        );
        drop(state);
        SPAN_STACK.with(|stack| stack.borrow_mut().push((me, id)));
        Some(id)
    }

    /// Closes a traced span opened by [`Recorder::trace_open`].
    pub(crate) fn trace_close(&self, id: u64, aborted: bool) {
        let Some(trace) = self.trace.as_ref() else {
            return;
        };
        pop_entry(recorder_key(self), id);
        let mut state = lock_trace(trace);
        let end_ns = state.now_ns();
        if let Some(open) = state.open.remove(&id) {
            state.events.push(TraceEvent {
                id,
                parent: open.parent,
                key: open.key,
                tid: open.tid,
                start_ns: open.start_ns,
                dur_ns: end_ns.saturating_sub(open.start_ns),
                args: open.args,
                counters: open.counters,
                aborted,
            });
        }
    }

    /// Attributes a counter increment to the innermost span open on the
    /// calling thread. Increments outside any span are simply not in
    /// the trace; the counter totals already carry them.
    pub(crate) fn trace_attribute(&self, name: &str, n: u64) {
        let Some(trace) = self.trace.as_ref() else {
            return;
        };
        let Some(current) = innermost(recorder_key(self)) else {
            return;
        };
        let mut state = lock_trace(trace);
        if let Some(open) = state.open.get_mut(&current) {
            let slot = open.counters.entry(name.to_string()).or_insert(0);
            *slot = slot.saturating_add(n);
        }
    }

    /// The innermost traced span open on the calling thread; `None`
    /// when there is none or this recorder does not trace.
    pub(crate) fn trace_current(&self) -> Option<u64> {
        self.trace.as_ref()?;
        innermost(recorder_key(self))
    }

    /// Makes span `id` — open on another thread — the innermost span of
    /// the calling thread, until [`Recorder::trace_release`].
    pub(crate) fn trace_adopt(&self, id: u64) {
        SPAN_STACK.with(|stack| stack.borrow_mut().push((recorder_key(self), id)));
    }

    /// Undoes [`Recorder::trace_adopt`].
    pub(crate) fn trace_release(&self, id: u64) {
        pop_entry(recorder_key(self), id);
    }

    /// Nanoseconds since the trace epoch; 0 when not tracing.
    pub(crate) fn trace_now_ns(&self) -> u64 {
        match self.trace.as_ref() {
            Some(trace) => lock_trace(trace).now_ns(),
            None => 0,
        }
    }

    /// Records a non-nesting `[start_ns, end_ns]` interval correlated
    /// by `id`.
    pub(crate) fn trace_async(
        &self,
        name: &str,
        id: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, &str)],
    ) {
        let Some(trace) = self.trace.as_ref() else {
            return;
        };
        let mut state = lock_trace(trace);
        let tid = state.tid();
        state.async_events.push(AsyncEvent {
            name: name.to_string(),
            id: id.to_string(),
            tid,
            start_ns,
            end_ns: end_ns.max(start_ns),
            args: owned_args(args),
        });
    }

    /// Renders the collected trace as Chrome trace-event JSON; `None`
    /// when not tracing. Spans still open at export time are omitted —
    /// export after the traced work has completed.
    pub(crate) fn trace_json(&self) -> Option<String> {
        let trace = self.trace.as_ref()?;
        let state = lock_trace(trace);
        let mut events = state.events.clone();
        events.sort_by_key(|e| (e.start_ns, e.id));
        let mut rows: Vec<Json> = Vec::with_capacity(events.len());
        for event in &events {
            let mut args: Vec<(String, Json)> =
                vec![("span".into(), Json::Str(format!("{:016x}", event.id)))];
            if let Some(parent) = event.parent {
                args.push(("parent".into(), Json::Str(format!("{parent:016x}"))));
            }
            for (k, v) in &event.args {
                args.push((k.clone(), Json::Str(v.clone())));
            }
            for (k, v) in &event.counters {
                args.push((format!("counter.{k}"), Json::UInt(*v)));
            }
            if event.aborted {
                args.push(("aborted".into(), Json::Bool(true)));
            }
            rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(event.key.clone())),
                ("cat".into(), Json::Str("htd".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), micros(event.start_ns)),
                ("dur".into(), micros(event.dur_ns)),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(event.tid)),
                ("args".into(), Json::Obj(args)),
            ]));
        }
        let mut asyncs = state.async_events.clone();
        asyncs.sort_by(|a, b| {
            (a.start_ns, a.id.as_str(), a.name.as_str()).cmp(&(
                b.start_ns,
                b.id.as_str(),
                b.name.as_str(),
            ))
        });
        for event in &asyncs {
            let mut begin_args: Vec<(String, Json)> = Vec::with_capacity(event.args.len());
            for (k, v) in &event.args {
                begin_args.push((k.clone(), Json::Str(v.clone())));
            }
            rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(event.name.clone())),
                ("cat".into(), Json::Str("htd".into())),
                ("ph".into(), Json::Str("b".into())),
                ("id".into(), Json::Str(event.id.clone())),
                ("ts".into(), micros(event.start_ns)),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(event.tid)),
                ("args".into(), Json::Obj(begin_args)),
            ]));
            rows.push(Json::Obj(vec![
                ("name".into(), Json::Str(event.name.clone())),
                ("cat".into(), Json::Str("htd".into())),
                ("ph".into(), Json::Str("e".into())),
                ("id".into(), Json::Str(event.id.clone())),
                ("ts".into(), micros(event.end_ns)),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(event.tid)),
            ]));
        }
        let doc = Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ns".into())),
            ("traceEvents".into(), Json::Arr(rows)),
        ]);
        Some(doc.to_pretty())
    }
}

/// Chrome trace timestamps are microseconds; fractional µs keep the
/// nanosecond resolution of short spans.
fn micros(ns: u64) -> Json {
    // f64 precision comfortably covers any plausible trace duration
    // (2^53 ns ≈ 104 days); the trace is observational either way.
    #[allow(clippy::cast_precision_loss)]
    Json::Float(ns as f64 / 1000.0)
}
