//! Lightweight spans: RAII guards that record `(name, start, duration)`
//! events into bounded per-thread ring buffers.
//!
//! Recording is gated on one process-wide relaxed atomic ([`enabled`]):
//! a guard created while disabled never reads the clock and never
//! allocates, so leaving instrumentation in the hot path is near-free.
//! Each thread owns a ring of [`RING_CAP`] events; when full, the oldest
//! event is dropped and a per-thread drop counter advances, so a scrape
//! can report truncation honestly ([`dropped_spans`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::registry::thread_ordinal;

/// Per-thread span ring capacity. Oldest events are dropped when full.
pub(crate) const RING_CAP: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on (one relaxed load).
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One completed span: a named interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static, from the instrumentation site).
    pub name: &'static str,
    /// Start, in [`crate::tick`] nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's process-wide ordinal.
    pub tid: u32,
}

#[derive(Default)]
struct Ring {
    events: std::collections::VecDeque<SpanEvent>,
    dropped: u64,
}

struct ThreadRing {
    ring: Mutex<Ring>,
}

/// The span rings: one per live thread that has recorded, plus one
/// retired ring holding the newest [`RING_CAP`] events of threads that
/// have exited (late scrapes still see them, memory stays bounded).
struct Rings {
    live: Vec<Arc<ThreadRing>>,
    retired: Ring,
}

static RINGS: Mutex<Rings> = Mutex::new(Rings {
    live: Vec::new(),
    retired: Ring {
        events: std::collections::VecDeque::new(),
        dropped: 0,
    },
});

/// A thread's registration in [`RINGS`]; dropped at thread exit, when it
/// deregisters the ring and folds its events and drop count into the
/// retired one.
struct LocalRing(Arc<ThreadRing>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        let mut rings = lock_unpoisoned(&RINGS);
        rings.live.retain(|r| !Arc::ptr_eq(r, &self.0));
        let exited = std::mem::take(&mut *lock_unpoisoned(&self.0.ring));
        let retired = &mut rings.retired;
        retired.dropped += exited.dropped;
        retired.events.extend(exited.events);
        retired
            .events
            .make_contiguous()
            .sort_by_key(|e| (e.start_ns, e.tid));
        // Folding evicts the oldest events; they count as dropped.
        let excess = retired.events.len().saturating_sub(RING_CAP);
        retired.events.drain(..excess);
        retired.dropped += excess as u64;
    }
}

thread_local! {
    static LOCAL: LocalRing = {
        let ring = Arc::new(ThreadRing {
            ring: Mutex::new(Ring {
                events: std::collections::VecDeque::with_capacity(RING_CAP),
                dropped: 0,
            }),
        });
        lock_unpoisoned(&RINGS).live.push(Arc::clone(&ring));
        LocalRing(ring)
    };
}

fn push_event(ev: SpanEvent) {
    LOCAL.with(|tr| {
        let mut ring = lock_unpoisoned(&tr.0.ring);
        if ring.events.len() == RING_CAP {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    });
}

/// Records a completed interval directly — for phases whose start and end
/// are observed at different call sites (e.g. queue wait: submit time on
/// one thread, dequeue time on another). No-op while disabled.
pub fn record_span(name: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    push_event(SpanEvent {
        name,
        start_ns,
        dur_ns: end_ns.saturating_sub(start_ns),
        tid: thread_ordinal() as u32,
    });
}

/// An RAII span guard: records one event when dropped. Created inactive
/// (no clock read, no allocation) while recording is disabled.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether this guard will record on drop.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            let end = crate::tick();
            push_event(SpanEvent {
                name: self.name,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                tid: thread_ordinal() as u32,
            });
        }
    }
}

/// Opens a span; the returned guard records `(name, start, duration)`
/// when dropped. While recording is disabled the guard is inert.
///
/// Bind the guard — `let _span = span("serve.request");` — a bare `_`
/// drops it immediately.
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard {
            name,
            start_ns: crate::tick(),
            active: true,
        }
    } else {
        SpanGuard {
            name,
            start_ns: 0,
            active: false,
        }
    }
}

/// Macro form of [`span`], for symmetry with conventional tracing APIs:
/// `let _g = span!("codec.encode_strip");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Clones every thread's ring (and the retired ring of exited threads)
/// into one list, sorted by `(start, tid)`. Recording threads are not
/// paused; events recorded during the snapshot may or may not be
/// included.
pub fn snapshot_spans() -> Vec<SpanEvent> {
    let rings = lock_unpoisoned(&RINGS);
    let mut out: Vec<SpanEvent> = rings.retired.events.iter().cloned().collect();
    for tr in &rings.live {
        out.extend(lock_unpoisoned(&tr.ring).events.iter().cloned());
    }
    drop(rings);
    out.sort_by_key(|e| (e.start_ns, e.tid));
    out
}

/// Total events dropped to ring overflow, across all threads, exited
/// ones included.
pub fn dropped_spans() -> u64 {
    let rings = lock_unpoisoned(&RINGS);
    let live: u64 = rings
        .live
        .iter()
        .map(|tr| lock_unpoisoned(&tr.ring).dropped)
        .sum();
    live + rings.retired.dropped
}

/// Empties every ring, the retired one included, and resets drop
/// counters (live rings stay registered).
pub fn clear_spans() {
    let mut rings = lock_unpoisoned(&RINGS);
    rings.retired = Ring::default();
    for tr in &rings.live {
        *lock_unpoisoned(&tr.ring) = Ring::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global enabled/ring state; serialize them.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_guard_records_nothing() {
        let _gate = lock_unpoisoned(&GATE);
        set_enabled(false);
        clear_spans();
        {
            let g = span("test.disabled");
            assert!(!g.is_active());
        }
        assert!(snapshot_spans().is_empty());
    }

    #[test]
    fn guard_records_name_and_duration_on_drop() {
        let _gate = lock_unpoisoned(&GATE);
        set_enabled(true);
        clear_spans();
        {
            let _g = span!("test.guard");
        }
        record_span("test.manual", 10, 25);
        set_enabled(false);
        let spans = snapshot_spans();
        assert!(spans.iter().any(|e| e.name == "test.guard"));
        let manual = spans
            .iter()
            .find(|e| e.name == "test.manual")
            .expect("manual span recorded");
        assert_eq!(manual.dur_ns, 15);
        clear_spans();
    }

    #[test]
    fn exited_threads_fold_into_a_bounded_retired_ring() {
        let _gate = lock_unpoisoned(&GATE);
        set_enabled(true);
        clear_spans();
        let before = lock_unpoisoned(&RINGS).live.len();
        // Each thread leaves one event; together they overflow the
        // retired ring by 10, and the overflow is counted, not lost.
        for i in 0..(RING_CAP as u64 + 10) {
            std::thread::spawn(move || record_span("test.exited", i, i + 1))
                .join()
                .expect("recording thread");
        }
        set_enabled(false);
        assert!(lock_unpoisoned(&RINGS).live.len() <= before);
        let spans: Vec<SpanEvent> = snapshot_spans()
            .into_iter()
            .filter(|e| e.name == "test.exited")
            .collect();
        assert_eq!(spans.len(), RING_CAP);
        assert!(spans.iter().all(|e| e.start_ns >= 10));
        assert_eq!(dropped_spans(), 10);
        clear_spans();
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _gate = lock_unpoisoned(&GATE);
        set_enabled(true);
        clear_spans();
        for i in 0..(RING_CAP as u64 + 10) {
            record_span("test.flood", i, i + 1);
        }
        set_enabled(false);
        let spans: Vec<SpanEvent> = snapshot_spans()
            .into_iter()
            .filter(|e| e.name == "test.flood")
            .collect();
        assert_eq!(spans.len(), RING_CAP);
        assert!(dropped_spans() >= 10);
        // Oldest events are the ones dropped: the earliest start is gone.
        assert!(spans.iter().all(|e| e.start_ns >= 10));
        clear_spans();
    }
}
