//! The flight recorder: a capacity-bounded, in-memory ring of completed
//! spans.
//!
//! Off by default, so production paths pay only one relaxed atomic load per
//! span. Recording turns on in two ways:
//!
//! - explicitly, via [`enable`] (tests do this, then [`take`] the captured
//!   [`SpanRecord`]s for assertions);
//! - implicitly, when any of the export knobs `MAPS_TRACE`, `MAPS_PROFILE`,
//!   `MAPS_SERIES`, or the telemetry-server knob `MAPS_OBS_ADDR` is set in
//!   the environment — a run that asked for an export (or a live `/trace`
//!   endpoint) needs the spans captured to have something to serve.
//!
//! The buffer is a drop-oldest ring bounded by `MAPS_RECORDER_CAP` spans
//! (default [`DEFAULT_CAPACITY`], floored at 1), so week-long
//! inverse-design runs keep the most recent window of activity at a fixed
//! memory ceiling instead of growing without limit. [`dropped`] reports how
//! many spans the ring has evicted since the last [`enable`]/[`take`] reset,
//! and the exporters surface that count so a truncated trace is never
//! mistaken for a complete one.
//!
//! # Tail-based sampling
//!
//! A server that traces every request fills the ring with thousands of
//! healthy, identical span trees and evicts the one slow outlier someone
//! actually wants to read. [`begin_flow`] / [`close_flow`] invert that:
//! while a flow id is *pending*, its spans are buffered on the side instead
//! of entering the ring, and only at request close — when latency and
//! status are known — does the caller decide `retain` (flush the whole tree
//! into the ring) or not (discard and count). Both the number of pending
//! flows ([`MAX_PENDING_FLOWS`]) and the spans buffered per flow
//! ([`MAX_SPANS_PER_FLOW`]) are hard-capped, so a leaked flow or a
//! span-happy request cannot grow recorder memory without bound. Code that
//! never calls [`begin_flow`] sees the pre-existing behavior: every span
//! goes straight to the ring.

use crate::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Ring capacity when `MAPS_RECORDER_CAP` is unset.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Most flows that can be pending a retain/discard decision at once;
/// beyond this the oldest pending flow is evicted (discarded) wholesale.
pub const MAX_PENDING_FLOWS: usize = 1024;

/// Most spans buffered for one pending flow; beyond this the flow's oldest
/// spans are dropped (and counted) so one request cannot hog the recorder.
pub const MAX_SPANS_PER_FLOW: usize = 512;

const STATE_UNSET: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNSET);
static RECORDS: Mutex<VecDeque<SpanRecord>> = Mutex::new(VecDeque::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Capacity override; `usize::MAX` means "not set, consult the env".
static CAPACITY: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Fast guard for the record path: number of flows currently pending a
/// tail-sampling decision. Zero (the overwhelmingly common case outside
/// a sampling server) keeps `record_span` on the original lock-once path.
static PENDING_FLOWS: AtomicUsize = AtomicUsize::new(0);
/// Pending flows in begin order (oldest first) with their buffered spans.
/// A Vec, not a map: the pending set is small (≤ MAX_PENDING_FLOWS) and
/// eviction wants insertion order anyway.
static PENDING: Mutex<Vec<(u64, Vec<SpanRecord>)>> = Mutex::new(Vec::new());

/// The ring's span capacity, at least 1 (a capacity of 0 keeps the newest
/// span). Reads `MAPS_RECORDER_CAP` on first call unless [`set_capacity`]
/// overrode it.
pub fn capacity() -> usize {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap != usize::MAX {
        return cap;
    }
    let parsed = crate::env::parse_env_or("MAPS_RECORDER_CAP", DEFAULT_CAPACITY).max(1);
    CAPACITY.store(parsed, Ordering::Relaxed);
    parsed
}

/// Overrides the ring capacity (wins over `MAPS_RECORDER_CAP`; floored at
/// 1). Existing excess records are evicted oldest-first on the next record,
/// not eagerly.
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Starts capturing completed spans (clears any previous capture, pending
/// tail-sampling buffers, and the dropped-span count).
pub fn enable() {
    clear_pending();
    RECORDS.lock().expect("span recorder").clear();
    DROPPED.store(0, Ordering::Relaxed);
    STATE.store(STATE_ON, Ordering::Release);
}

/// Stops capturing and discards anything captured so far.
pub fn disable() {
    STATE.store(STATE_OFF, Ordering::Release);
    clear_pending();
    RECORDS.lock().expect("span recorder").clear();
    DROPPED.store(0, Ordering::Relaxed);
}

fn clear_pending() {
    let mut pending = PENDING.lock().expect("pending flows");
    pending.clear();
    PENDING_FLOWS.store(0, Ordering::Release);
}

/// True while the recorder is capturing. The first call decides the initial
/// state from the environment: recording starts enabled when any of
/// `MAPS_TRACE`, `MAPS_PROFILE`, `MAPS_SERIES`, or `MAPS_OBS_ADDR` is set
/// (a telemetry server whose `/trace` endpoint has nothing to serve would
/// be a confusing default).
pub fn is_enabled() -> bool {
    match STATE.load(Ordering::Acquire) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = ["MAPS_TRACE", "MAPS_PROFILE", "MAPS_SERIES", "MAPS_OBS_ADDR"]
                .iter()
                .any(|k| std::env::var_os(k).is_some());
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Release);
            on
        }
    }
}

/// Drains and returns the spans captured since [`enable`] (capture
/// continues; the dropped-span count resets with the drain).
pub fn take() -> Vec<SpanRecord> {
    DROPPED.store(0, Ordering::Relaxed);
    let mut guard = RECORDS.lock().expect("span recorder");
    guard.drain(..).collect()
}

/// Clones the captured spans without draining them (exporters use this so
/// the trace, profile, and report can all read the same capture).
pub fn snapshot() -> Vec<SpanRecord> {
    snapshot_last(usize::MAX)
}

/// Clones the newest `n` captured spans (all of them when fewer), oldest
/// first, without draining them. The lock every span close takes is held
/// for those `n` clones only, not for a copy of the whole ring.
pub(crate) fn snapshot_last(n: usize) -> Vec<SpanRecord> {
    let ring = RECORDS.lock().expect("span recorder");
    ring.range(ring.len().saturating_sub(n)..)
        .cloned()
        .collect()
}

/// Spans evicted oldest-first since the last [`enable`]/[`take`] because
/// the ring was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

pub(crate) fn record_span(record: SpanRecord) {
    if !is_enabled() {
        return;
    }
    // Tail sampling: spans belonging to a pending flow are parked until
    // close_flow decides their fate. The atomic guard keeps the common
    // no-pending-flows case at one relaxed load.
    if PENDING_FLOWS.load(Ordering::Acquire) > 0 && record.flow != 0 {
        let mut pending = PENDING.lock().expect("pending flows");
        if let Some((_, spans)) = pending.iter_mut().find(|(f, _)| *f == record.flow) {
            if spans.len() >= MAX_SPANS_PER_FLOW {
                spans.remove(0);
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
            spans.push(record);
            return;
        }
    }
    let mut guard = RECORDS.lock().expect("span recorder");
    push_to_ring(&mut guard, record);
}

fn push_to_ring(ring: &mut VecDeque<SpanRecord>, record: SpanRecord) {
    let cap = capacity();
    while ring.len() >= cap {
        ring.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    ring.push_back(record);
}

/// Marks `flow` pending: until [`close_flow`], spans carrying this flow id
/// are buffered on the side instead of entering the ring. A no-op for flow
/// 0 (the "no flow" sentinel every untracked span carries) and when the
/// recorder is off. At [`MAX_PENDING_FLOWS`] the oldest pending flow is
/// evicted — its buffered spans are discarded and counted as dropped.
pub fn begin_flow(flow: u64) {
    if flow == 0 || !is_enabled() {
        return;
    }
    let mut pending = PENDING.lock().expect("pending flows");
    if pending.iter().any(|(f, _)| *f == flow) {
        return;
    }
    while pending.len() >= MAX_PENDING_FLOWS {
        let (_, spans) = pending.remove(0);
        DROPPED.fetch_add(spans.len() as u64, Ordering::Relaxed);
    }
    pending.push((flow, Vec::new()));
    PENDING_FLOWS.store(pending.len(), Ordering::Release);
}

/// Resolves a pending flow: `retain` flushes its buffered span tree into
/// the ring (oldest-first, subject to ring capacity); otherwise the spans
/// are discarded and counted as dropped. Returns how many spans the flow
/// had buffered. Unknown flows return 0 (e.g. the flow was evicted, or
/// [`begin_flow`] was skipped because the recorder was off).
pub fn close_flow(flow: u64, retain: bool) -> usize {
    if flow == 0 {
        return 0;
    }
    let spans = {
        let mut pending = PENDING.lock().expect("pending flows");
        let Some(pos) = pending.iter().position(|(f, _)| *f == flow) else {
            return 0;
        };
        let (_, spans) = pending.remove(pos);
        PENDING_FLOWS.store(pending.len(), Ordering::Release);
        spans
    };
    let n = spans.len();
    if retain {
        let mut guard = RECORDS.lock().expect("span recorder");
        for record in spans {
            push_to_ring(&mut guard, record);
        }
    } else {
        DROPPED.fetch_add(n as u64, Ordering::Relaxed);
    }
    n
}

/// Spans currently buffered across all pending flows (recorder occupancy
/// introspection; tests use this to assert tail sampling stays bounded).
pub fn pending_spans() -> usize {
    PENDING
        .lock()
        .expect("pending flows")
        .iter()
        .map(|(_, spans)| spans.len())
        .sum()
}

/// Flows currently awaiting a [`close_flow`] decision.
pub fn pending_flows() -> usize {
    PENDING_FLOWS.load(Ordering::Acquire)
}
