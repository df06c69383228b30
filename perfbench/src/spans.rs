//! The benchmark's own spans, recorded around each call it makes into a
//! layer (workload → image → encode/decode; client request →
//! connect/Hello/request). Spans live in memory, one log per thread,
//! and are written out as JSON lines when the run ends.
//!
//! A span carries its own id, the id of the span that caused it, and a
//! request id shared by every span of one request (one image on the
//! codec workloads, one connection's request on the service workloads).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh id, unique across threads in this process.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id.
    pub id: u64,
    /// The causing span's id (0 for a root).
    pub parent: u64,
    /// The request every span of one request shares.
    pub request: u64,
    /// Layer boundary name, e.g. `codec.encode` or `serve.hello`.
    pub name: &'static str,
    /// Start, in `deepn_trace::tick` nanoseconds.
    pub start_ns: u64,
    /// End, in `deepn_trace::tick` nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span log. Disabled logs record nothing, so untraced runs
/// pay one branch per call.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records when `enabled`.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, or 0 when disabled (so callers can name a parent
    /// before the parent span has ended).
    pub fn id(&self) -> u64 {
        if self.enabled {
            next_id()
        } else {
            0
        }
    }

    /// Records a finished span under an id from [`id`](Self::id).
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        (start_ns, end_ns): (u64, u64),
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
