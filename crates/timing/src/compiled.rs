//! Compiled timed simulation, and the [`TimedRun`] record of one cycle.
//!
//! The reference `EventSimulator` (in the dev-only `htd-oracle` crate)
//! walks the netlist object graph on every event — driver lookups,
//! cell-kind matches, re-reading every input of every sink LUT. That is
//! the right reference semantics, but it is also the inner loop of every
//! EM/power acquisition (13 cycles × ~86 k events per trace), so this
//! module flattens one `(netlist, annotation)` pair into
//! [`CompiledTiming`] — CSR sink lists with the per-sink delays
//! pre-added — and replays cycles over it with
//! [`CompiledSimulator::clock_cycle`].
//!
//! # Determinism contract
//!
//! The compiled replay is **bit-for-bit identical** to the reference
//! `EventSimulator::clock_cycle`: same toggle stream (times, nets,
//! values, order), same `last_transition_ps`, same `settle_ps`, down to
//! the f64 bit pattern. Three things make that hold:
//!
//! * **Arithmetic association is preserved.** Event times are computed as
//!   `(t + cell_delay) + net_delay` — the same two-add order as the
//!   reference — with both delays read from the same annotation.
//! * **Tie order is preserved.** Events are ordered by
//!   `(time, sequence number)` exactly like the reference heap. Skipping
//!   provably-redundant pushes (see below) renumbers later events but
//!   never reorders surviving ones, because sequence numbers are assigned
//!   in push order in both implementations.
//! * **Only no-op events are elided.** The reference drops an event at pop
//!   time when the net already carries the scheduled value. Deliveries to
//!   any net are causal (each LUT has one fixed `cell + output-net`
//!   latency), so the value a net will hold when an event pops is exactly
//!   the value of the *last scheduled* event for that net — which the
//!   simulator tracks in `scheduled`. An event whose value equals it would
//!   be filtered at pop time in the reference; not pushing it at all
//!   yields the same toggle stream.
//!
//! The event queue is a calendar of time buckets of width
//! `min_sink_latency / 4` (a quarter of the smallest `cell + output-net`
//! delay in the design — any width at most the minimum latency works).
//! An event scheduled while draining bucket `b` lands at
//! `t + latency ≥ t + 4·width`, i.e. in a strictly later bucket — except
//! when float rounding of the bucket index says otherwise, in which case
//! the event goes through a (nearly always empty) overflow heap that is
//! merged during the drain. Events carry a precomputed `u64` key that
//! maps `f64::total_cmp` order onto `u64` ordering, so no sort or heap
//! comparison ever touches a float.
//!
//! Each bucket is sorted once, by `(key, seq)`. Events enter a bucket in
//! push order, which is `seq` order, so a bucket position stands in for
//! `seq`: a bucket of more than `PACKED_SORT_MIN` (8) events is sorted as
//! packed words `(key − kmin) << 16 | position` with one unstable sort of
//! plain `u64`s (equal packed words cannot occur, so stability is moot).
//! A small bucket, or one whose key span or length does not fit the
//! packing, takes the stable library sort by key, which never moves an
//! event past an equal key. Both give exactly the reference
//! `(time, seq)` order.
//!
//! `tests/compiled.rs` pins compiled-vs-reference equality on every toy
//! topology of the reference test suite; `tests/replay_differential.rs`
//! pins it again on the full AES design.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use htd_netlist::{CellKind, NetId, Netlist};

use crate::DelayAnnotation;

/// One net transition during a timed cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Toggle {
    /// Sink-visible transition time within the cycle, ps (0 = clock edge).
    pub time_ps: f64,
    /// The switching net.
    pub net: NetId,
    /// The value after the transition.
    pub new_value: bool,
}

/// Result of one timed clock cycle.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Per net: sink-visible time of the last transition this cycle, or
    /// `f64::NEG_INFINITY` for nets that did not toggle.
    pub last_transition_ps: Vec<f64>,
    /// Every transition, in non-decreasing time order.
    pub toggles: Vec<Toggle>,
    /// Time of the final transition anywhere in the design, ps
    /// (0.0 if nothing toggled).
    pub settle_ps: f64,
}

impl TimedRun {
    /// Settling time of `net` at its sinks (e.g. a flip-flop `D` pin) —
    /// `None` if the net never toggled this cycle. Sink-visible times
    /// already include the net's routed delay.
    pub fn arrival_at_sinks_ps(&self, net: NetId, _delays: &DelayAnnotation) -> Option<f64> {
        let t = self.last_transition_ps[net.index()];
        if t == f64::NEG_INFINITY {
            None
        } else {
            Some(t)
        }
    }
}

/// A compact scheduled event: the toggling net and its new value are
/// packed into one word, and `seq` reproduces the reference tie order.
/// The event time is stored as its [`time_key`] image rather than an
/// `f64`, so every comparison — bucket sorts and the overflow heap — is
/// a raw `u64` compare instead of a float transform per operand.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// `time_key(time_ps)` — same ordering as `f64::total_cmp`.
    key: u64,
    seq: u32,
    /// `net_index << 1 | new_value`.
    net_val: u32,
}

impl Event {
    fn time_ps(self) -> f64 {
        time_from_key(self.key)
    }

    fn net(self) -> usize {
        (self.net_val >> 1) as usize
    }

    fn value(self) -> bool {
        self.net_val & 1 == 1
    }
}

/// Maps an f64 to a `u64` key with the same ordering as `f64::total_cmp`.
#[inline]
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits() as i64;
    (((bits >> 63) as u64 >> 1) | 1 << 63) ^ bits as u64
}

/// Inverse of [`time_key`]: recovers the exact f64 bit pattern.
#[inline]
fn time_from_key(key: u64) -> f64 {
    let bits = if key & 1 << 63 != 0 {
        key ^ 1 << 63
    } else {
        !key
    };
    f64::from_bits(bits)
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// Calendar buckets per smallest sink latency (the bucket width is
/// `min_sink_latency / BUCKETS_PER_MIN_LATENCY`).
const BUCKETS_PER_MIN_LATENCY: f64 = 4.0;

/// Buckets of at most this many events skip the packed sort.
const PACKED_SORT_MIN: usize = 8;

/// Bits of a packed sort word that hold the bucket position.
const POSITION_BITS: u32 = 16;

/// Sorts one calendar bucket into `(key, seq)` order.
///
/// The bucket holds its events in push order, which is ascending `seq`,
/// so `(key, position)` order *is* `(key, seq)` order, and any sort by
/// key that keeps equal keys in place is exact. A bucket of more than
/// [`PACKED_SORT_MIN`] events is sorted as packed words
/// `(key − kmin) << 16 | position` (all distinct, so an unstable sort is
/// exact) and gathered through `spare`. A small bucket, or one whose key
/// span or length does not fit the packing (early in a cycle, where
/// float keys are dense), takes the stable library sort by key.
fn sort_bucket(events: &mut Vec<Event>, packed: &mut Vec<u64>, spare: &mut Vec<Event>) {
    let n = events.len();
    if n > PACKED_SORT_MIN && n < 1 << POSITION_BITS {
        let (kmin, kmax) = events
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), e| (lo.min(e.key), hi.max(e.key)));
        if kmax - kmin < 1 << (64 - POSITION_BITS) {
            packed.clear();
            packed.extend(
                events
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.key - kmin) << POSITION_BITS | i as u64),
            );
            packed.sort_unstable();
            spare.clear();
            spare.extend(
                packed
                    .iter()
                    .map(|&w| events[(w & ((1 << POSITION_BITS) - 1)) as usize]),
            );
            std::mem::swap(events, spare);
            return;
        }
    }
    events.sort_by_key(|e| e.key);
}

/// One flip-flop capture edge: `q` takes `d`'s sampled value, visible to
/// `q`'s sinks at `q_arrival_ps` (= `clk2q + net_delay(q)`).
#[derive(Debug, Clone, Copy)]
struct DffEdge {
    d: u32,
    q: u32,
    q_arrival_ps: f64,
}

/// One LUT sink of a net, packed so a delivery touches a single
/// sequential stream instead of five parallel arrays (CSR ranges are
/// 2–4 entries, so split arrays cost one cache line *each* per range).
#[derive(Debug, Clone, Copy)]
struct SinkRec {
    cell: u32,
    out_net: u32,
    /// The LUT input pins the net drives, as a row mask. A net wired to
    /// several pins of one LUT gets a single record: the reference
    /// evaluates that LUT on its full new input row, so every such pin
    /// must flip before the evaluation, never one at a time.
    pins: u8,
    cell_delay_ps: f64,
    out_delay_ps: f64,
}

/// A netlist and one delay annotation flattened for event replay: per-net
/// CSR lists of LUT sinks with their delays pre-fetched, per-cell LUT
/// truth tables, and the flip-flop capture list.
///
/// Compiling is cheap (~0.2 ms for the AES design) and pays for itself
/// within a single clock cycle; `htd-core` compiles once per programmed
/// device and replays every acquisition against it.
#[derive(Debug, Clone)]
pub struct CompiledTiming {
    n_nets: usize,
    n_cells: usize,
    /// CSR offsets: LUT sinks of net `n` are `sinks[sink_start[n]..sink_start[n + 1]]`.
    sink_start: Vec<u32>,
    sinks: Vec<SinkRec>,
    /// Raw truth-table bits per cell (0 for non-LUTs).
    lut_mask: Vec<u64>,
    /// CSR of LUT input nets, used to seed the per-cell input rows.
    lut_cells: Vec<u32>,
    lut_in_start: Vec<u32>,
    lut_in_net: Vec<u32>,
    dffs: Vec<DffEdge>,
    /// Per-net routed delay (for primary-input events).
    net_delay_ps: Vec<f64>,
    /// Smallest `cell + output-net` latency; the calendar bucket width
    /// is a fixed fraction of it.
    min_sink_latency_ps: f64,
}

impl CompiledTiming {
    /// Flattens `netlist` with `delays` into replayable form.
    ///
    /// # Panics
    ///
    /// Panics if the netlist exceeds the compact-event encoding
    /// (2³¹ nets) — far beyond any design this workspace elaborates.
    pub fn compile(netlist: &Netlist, delays: &DelayAnnotation) -> Self {
        let n_nets = netlist.net_count();
        let n_cells = netlist.cell_count();
        assert!(n_nets < (1 << 31), "netlist too large for compact events");
        let mut sink_start = vec![0u32; n_nets + 1];
        let mut lut_mask = vec![0u64; n_cells];
        let mut dffs = Vec::new();
        // Per net, the last LUT that read it: a net on several pins of one
        // LUT gets one sink record (see `SinkRec::pins`).
        let mut last_reader = vec![u32::MAX; n_nets];
        for (id, cell) in netlist.cells() {
            match cell.kind() {
                CellKind::Lut(mask) => {
                    lut_mask[id.index()] = mask.raw();
                    for &inp in cell.inputs() {
                        if last_reader[inp.index()] != id.index() as u32 {
                            last_reader[inp.index()] = id.index() as u32;
                            sink_start[inp.index() + 1] += 1;
                        }
                    }
                }
                CellKind::Dff => {
                    let d = cell.inputs()[0];
                    let q = cell.output().expect("dff drives q");
                    dffs.push(DffEdge {
                        d: d.index() as u32,
                        q: q.index() as u32,
                        q_arrival_ps: delays.clk2q_ps() + delays.net_delay_ps(q),
                    });
                }
                _ => {}
            }
        }
        for i in 0..n_nets {
            sink_start[i + 1] += sink_start[i];
        }
        let total = sink_start[n_nets] as usize;
        let mut sinks = vec![
            SinkRec {
                cell: 0,
                out_net: 0,
                pins: 0,
                cell_delay_ps: 0.0,
                out_delay_ps: 0.0,
            };
            total
        ];
        let mut cursor: Vec<u32> = sink_start[..n_nets].to_vec();
        last_reader.fill(u32::MAX);
        let mut lut_cells = Vec::new();
        let mut lut_in_start = vec![0u32];
        let mut lut_in_net = Vec::new();
        for (id, cell) in netlist.cells() {
            if let CellKind::Lut(_) = cell.kind() {
                let out = cell.output().expect("lut drives a net");
                lut_cells.push(id.index() as u32);
                for (pin, &inp) in cell.inputs().iter().enumerate() {
                    lut_in_net.push(inp.index() as u32);
                    let i = inp.index();
                    if last_reader[i] == id.index() as u32 {
                        // A repeated input: this LUT wrote the net's
                        // latest record, one slot back.
                        sinks[cursor[i] as usize - 1].pins |= 1 << pin;
                        continue;
                    }
                    last_reader[i] = id.index() as u32;
                    let slot = cursor[i] as usize;
                    cursor[i] += 1;
                    sinks[slot] = SinkRec {
                        cell: id.index() as u32,
                        out_net: out.index() as u32,
                        pins: 1 << pin,
                        cell_delay_ps: delays.cell_delay_ps(id),
                        out_delay_ps: delays.net_delay_ps(out),
                    };
                }
                lut_in_start.push(lut_in_net.len() as u32);
            }
        }
        let min_sink_latency_ps = sinks
            .iter()
            .map(|s| s.cell_delay_ps + s.out_delay_ps)
            .fold(f64::INFINITY, f64::min);
        CompiledTiming {
            n_nets,
            n_cells,
            sink_start,
            sinks,
            lut_mask,
            lut_cells,
            lut_in_start,
            lut_in_net,
            dffs,
            net_delay_ps: (0..n_nets)
                .map(|i| delays.net_delay_ps(NetId::from_index(i)))
                .collect(),
            min_sink_latency_ps,
        }
    }

    /// Net count of the compiled netlist.
    pub fn net_count(&self) -> usize {
        self.n_nets
    }
}

/// Mutable per-cell state colocated with the (immutable) truth table:
/// one cache line serves both the input-row update and the LUT eval.
#[derive(Debug, Clone, Copy)]
struct CellState {
    /// Current LUT input row, updated incrementally per delivery.
    row: u64,
    /// The cell's truth-table bits (copied from the compiled tables).
    mask: u64,
}

/// Event-driven replay over a [`CompiledTiming`], bit-identical to
/// reference `EventSimulator` (see the module docs for the
/// argument). Scratch buffers (buckets, per-cell input rows, scheduled
/// values) persist across cycles, so steady-state cycles allocate only
/// the returned [`TimedRun`].
#[derive(Debug, Clone)]
pub struct CompiledSimulator<'a> {
    ct: &'a CompiledTiming,
    values: Vec<bool>,
    /// Per-cell LUT state (input row + truth table).
    cells: Vec<CellState>,
    /// Last scheduled value per net this cycle (the pop-time filter of the
    /// reference, applied at push time — see module docs).
    scheduled: Vec<bool>,
    pending_inputs: Vec<(NetId, bool)>,
    buckets: Vec<Vec<Event>>,
    drain: Vec<Event>,
    /// Scratch of the packed bucket sort: sort words, and the reordered
    /// bucket (swapped with `drain`).
    packed: Vec<u64>,
    spare: Vec<Event>,
    overflow: BinaryHeap<std::cmp::Reverse<Event>>,
    /// Toggle count of the previous cycle — the capacity hint that keeps
    /// steady-state cycles from re-growing the toggle vector.
    toggle_hint: usize,
}

impl<'a> CompiledSimulator<'a> {
    /// Starts from a settled snapshot of net values
    /// ([`htd_netlist::Simulator::snapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the compiled net count.
    pub fn from_snapshot(ct: &'a CompiledTiming, values: Vec<bool>) -> Self {
        assert_eq!(values.len(), ct.n_nets, "snapshot size mismatch");
        let mut cells = vec![CellState { row: 0, mask: 0 }; ct.n_cells];
        for (c, &mask) in ct.lut_mask.iter().enumerate() {
            cells[c].mask = mask;
        }
        for (i, &c) in ct.lut_cells.iter().enumerate() {
            let lo = ct.lut_in_start[i] as usize;
            let hi = ct.lut_in_start[i + 1] as usize;
            let mut row = 0u64;
            for (pin, &inp) in ct.lut_in_net[lo..hi].iter().enumerate() {
                row |= (values[inp as usize] as u64) << pin;
            }
            cells[c as usize].row = row;
        }
        CompiledSimulator {
            ct,
            scheduled: values.clone(),
            values,
            cells,
            pending_inputs: Vec::new(),
            buckets: Vec::new(),
            drain: Vec::new(),
            packed: Vec::new(),
            spare: Vec::new(),
            overflow: BinaryHeap::new(),
            toggle_hint: 0,
        }
    }

    /// Queues a primary-input change for the next clock cycle (same
    /// semantics as the reference `EventSimulator::set_input`).
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.pending_inputs.push((net, value));
    }

    /// Current (sink-visible) value of a net.
    pub fn get(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Runs one clock cycle and returns the timing record, bit-identical
    /// to the reference simulator's. State persists into the next cycle.
    pub fn clock_cycle(&mut self) -> TimedRun {
        let n_nets = self.ct.n_nets;
        let mut last_transition = vec![f64::NEG_INFINITY; n_nets];
        let mut toggles: Vec<Toggle> = Vec::with_capacity(self.toggle_hint + 64);
        let settle = self.cycle_core(|time_ps, net, new_value| {
            last_transition[net.index()] = time_ps;
            toggles.push(Toggle {
                time_ps,
                net,
                new_value,
            });
        });
        self.toggle_hint = toggles.len();
        TimedRun {
            last_transition_ps: last_transition,
            toggles,
            settle_ps: settle,
        }
    }

    /// Runs one clock cycle, streaming every toggle to `visit` (time in
    /// ps, net, new value) in delivery order — the same order and bit
    /// patterns as the [`Self::clock_cycle`] record — and returns the
    /// cycle's settle time. Skips materialising the `TimedRun` (a
    /// per-net vector plus a toggle vector per cycle), which is the
    /// difference between this and `clock_cycle` on the activity hot
    /// path where the caller only filters and re-buffers the toggles.
    pub fn clock_cycle_visit(&mut self, visit: impl FnMut(f64, NetId, bool)) -> f64 {
        self.cycle_core(visit)
    }

    /// The event replay shared by [`Self::clock_cycle`] and
    /// [`Self::clock_cycle_visit`]. Calls `visit` once per delivered
    /// toggle, in delivery (= reference) order; returns `settle_ps`.
    fn cycle_core(&mut self, mut visit: impl FnMut(f64, NetId, bool)) -> f64 {
        let ct = self.ct;
        let mut seq = 0u32;
        // Bucket width is a quarter of the smallest sink latency: any
        // width ≤ that latency keeps the "new events land in a strictly
        // later bucket" invariant. With the packed sort, 1/4 and 1/8 ran
        // equally fast on the AES design and 1/16 a few percent slower;
        // an insertion sort at 1/4 was 1.4x slower (buckets there hold
        // ~70 events in nearly random order).
        // Degenerate widths (no LUT sinks, or a zero-latency annotation)
        // fall back to inv_w = 0: everything lands in bucket 0 and drains
        // through the overflow heap, i.e. plain heap order.
        let inv_w = if ct.min_sink_latency_ps.is_finite() && ct.min_sink_latency_ps > 0.0 {
            BUCKETS_PER_MIN_LATENCY / ct.min_sink_latency_ps
        } else {
            0.0
        };
        self.scheduled.copy_from_slice(&self.values);

        let push_initial = |buckets: &mut Vec<Vec<Event>>, time_ps: f64, ev: Event| {
            let b = (time_ps * inv_w) as usize;
            if b >= buckets.len() {
                buckets.resize_with(b + 1, Vec::new);
            }
            buckets[b].push(ev);
        };
        // Flip-flop captures first, then primary inputs — the reference
        // push (and therefore tie) order.
        for &DffEdge { d, q, q_arrival_ps } in &ct.dffs {
            let d_val = self.values[d as usize];
            if d_val != self.values[q as usize] {
                push_initial(
                    &mut self.buckets,
                    q_arrival_ps,
                    Event {
                        key: time_key(q_arrival_ps),
                        seq,
                        net_val: q << 1 | d_val as u32,
                    },
                );
                self.scheduled[q as usize] = d_val;
                seq += 1;
            }
        }
        for (net, value) in self.pending_inputs.drain(..) {
            if value != self.scheduled[net.index()] {
                let t = ct.net_delay_ps[net.index()];
                push_initial(
                    &mut self.buckets,
                    t,
                    Event {
                        key: time_key(t),
                        seq,
                        net_val: (net.index() as u32) << 1 | value as u32,
                    },
                );
                self.scheduled[net.index()] = value;
                seq += 1;
            }
        }

        let mut settle = 0.0f64;
        let mut guard = 0usize;
        let mut b = 0usize;
        while b < self.buckets.len() || !self.overflow.is_empty() {
            if b < self.buckets.len() {
                std::mem::swap(&mut self.drain, &mut self.buckets[b]);
                sort_bucket(&mut self.drain, &mut self.packed, &mut self.spare);
            }
            let mut di = 0usize;
            loop {
                // Merge the sorted bucket with the overflow heap. The heap
                // is almost always empty — it only holds events whose
                // bucket index rounded down to the one being drained — so
                // the common case is a single predictable branch straight
                // into the sorted bucket slice.
                let ev = if self.overflow.is_empty() {
                    match self.drain.get(di) {
                        Some(&d) => {
                            di += 1;
                            d
                        }
                        None => break,
                    }
                } else {
                    match (self.drain.get(di), self.overflow.peek()) {
                        (None, None) => break,
                        (Some(&d), None) => {
                            di += 1;
                            d
                        }
                        (None, Some(&std::cmp::Reverse(o))) => {
                            if (o.time_ps() * inv_w) as usize > b {
                                break;
                            }
                            self.overflow.pop();
                            o
                        }
                        (Some(&d), Some(&std::cmp::Reverse(o))) => {
                            if o < d {
                                self.overflow.pop();
                                o
                            } else {
                                di += 1;
                                d
                            }
                        }
                    }
                };
                guard += 1;
                assert!(
                    guard < 50_000_000,
                    "event budget exceeded — combinational oscillation?"
                );
                let net = ev.net();
                let value = ev.value();
                let ev_time = ev.time_ps();
                debug_assert_ne!(self.values[net], value, "push-time filter missed a no-op");
                // Events arrive in non-decreasing time order, matching the
                // reference's post-sort stream.
                debug_assert!(ev_time >= settle || settle == 0.0);
                self.values[net] = value;
                settle = settle.max(ev_time);
                visit(ev_time, NetId::from_index(net), value);
                let lo = ct.sink_start[net] as usize;
                let hi = ct.sink_start[net + 1] as usize;
                for rec in &ct.sinks[lo..hi] {
                    let cell = &mut self.cells[rec.cell as usize];
                    let pins = u64::from(rec.pins);
                    let row = (cell.row & !pins) | (pins & (value as u64).wrapping_neg());
                    cell.row = row;
                    let out = rec.out_net as usize;
                    let out_val = (cell.mask >> row) & 1 == 1;
                    if out_val == self.scheduled[out] {
                        continue;
                    }
                    self.scheduled[out] = out_val;
                    // Same two-add association as the reference.
                    let t = (ev_time + rec.cell_delay_ps) + rec.out_delay_ps;
                    let evn = Event {
                        key: time_key(t),
                        seq,
                        net_val: (out as u32) << 1 | out_val as u32,
                    };
                    seq += 1;
                    let nb = (t * inv_w) as usize;
                    if nb <= b {
                        self.overflow.push(std::cmp::Reverse(evn));
                    } else {
                        if nb >= self.buckets.len() {
                            self.buckets.resize_with(nb + 1, Vec::new);
                        }
                        self.buckets[nb].push(evn);
                    }
                }
            }
            self.drain.clear();
            b += 1;
        }
        settle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bucket_sort_path_gives_key_then_seq_order() {
        // Buckets in push (= seq) order, dense in equal keys, through each
        // path: stable sort (≤ 8 events, span ≥ 2^48, ≥ 2^16 events) and
        // packed (narrow span).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cases: [(usize, u64); 6] = [
            (1, 4),
            (8, 3),
            (9, 5),
            (300, 40),
            (300, 1 << 50),
            (1 << 16, 1 << 20),
        ];
        let (mut packed, mut spare) = (Vec::new(), Vec::new());
        for (n, span) in cases {
            let base = time_key(350.0);
            let mut events: Vec<Event> = (0..n as u32)
                .map(|seq| Event {
                    key: base + next() % span,
                    seq,
                    net_val: next() as u32,
                })
                .collect();
            let mut want = events.clone();
            want.sort_by(|a, b| a.key.cmp(&b.key).then(a.seq.cmp(&b.seq)));
            sort_bucket(&mut events, &mut packed, &mut spare);
            let order = |v: &[Event]| {
                v.iter()
                    .map(|e| (e.key, e.seq, e.net_val))
                    .collect::<Vec<_>>()
            };
            assert_eq!(order(&events), order(&want), "n {n}, span {span}");
        }
    }

    #[test]
    fn time_key_orders_like_total_cmp() {
        let samples = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            350.0,
            350.0000000001,
        ];
        for &x in &samples {
            for &y in &samples {
                assert_eq!(time_key(x).cmp(&time_key(y)), x.total_cmp(&y), "{x} vs {y}");
            }
            // The stored-key representation must round-trip exactly.
            assert_eq!(time_from_key(time_key(x)).to_bits(), x.to_bits(), "{x}");
        }
        let nan = f64::NAN;
        assert_eq!(time_from_key(time_key(nan)).to_bits(), nan.to_bits());
    }
}
