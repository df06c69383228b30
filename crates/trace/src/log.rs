//! Structured, leveled logfmt logging — dependency-free, like the rest
//! of the observability substrate.
//!
//! Every event renders as one `key=value` line in logfmt
//! (`level=info ts=0.001234 event=conn_accept conn_id=3 peer=…`), with
//! keys and values quoted/escaped so that [`render_pairs`] → [`parse_line`]
//! round-trips **losslessly** for arbitrary strings (spaces, quotes,
//! newlines, unicode — `tests/proptest_logfmt.rs` enforces this).
//!
//! Three layers:
//!
//! * a process-wide **level filter** (one relaxed atomic, set from the
//!   `DEEPN_LOG` environment variable via [`init_from_env`]) deciding
//!   which events reach the writer;
//! * a pluggable **writer seam** ([`set_writer`] / [`reset_writer`],
//!   default stderr) so tests capture output without process plumbing;
//! * a bounded per-thread **flight recorder**: the last [`RING_CAP`]
//!   events on each thread are retained *regardless of the level
//!   filter*, and [`install_panic_hook`] dumps them (plus span state)
//!   to stderr when the process panics — turning a dead worker into a
//!   diagnosable event stream.
//!
//! Determinism contract: timestamps come from [`crate::tick`] (the one
//! sanctioned clock seam) and logging writes only to the side channel —
//! output bytes of the codec pipeline are identical with logging on or
//! off.

use std::collections::VecDeque;
use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};

use crate::registry::thread_ordinal;

/// Per-thread flight-recorder capacity: the last N events (any level)
/// kept for the panic dump. Oldest events are dropped when full.
pub const RING_CAP: usize = 256;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A request or component failed.
    Error = 1,
    /// Something degraded but survivable (slow request, busy rejection).
    Warn = 2,
    /// Lifecycle milestones (server listening, shutdown).
    Info = 3,
    /// Per-connection lifecycle detail.
    Debug = 4,
    /// Per-request detail — the firehose.
    Trace = 5,
}

impl Level {
    /// The lowercase name used in the `level=` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `DEEPN_LOG` value: a level name (`error`…`trace`), a
    /// digit (`0`=off … `5`=trace), or `off`. Returns `None` for
    /// unrecognized input, `Some(None)` for "off".
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(None),
            "error" | "1" => Some(Some(Level::Error)),
            "warn" | "warning" | "2" => Some(Some(Level::Warn)),
            "info" | "3" => Some(Some(Level::Info)),
            "debug" | "4" => Some(Some(Level::Debug)),
            "trace" | "5" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

impl Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Current max level as a u8 (0 = off). Default: warn — slow requests
/// and errors are visible without configuration, lifecycle chatter is
/// opt-in.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Sets the process-wide level filter; `None` silences the writer
/// entirely (the flight recorder still records).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The current max level (`None` = off).
pub fn max_level() -> Option<Level> {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// Whether an event at `level` would reach the writer (one relaxed load).
pub fn log_enabled(level: Level) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Applies the `DEEPN_LOG` environment variable to the level filter
/// (`error|warn|info|debug|trace|off` or `0`–`5`). Unset or
/// unrecognized values leave the default (warn) in place.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("DEEPN_LOG") {
        if let Some(level) = Level::parse(&v) {
            set_max_level(level);
        }
    }
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Writer seam
// ---------------------------------------------------------------------

/// The installed writer; `None` means stderr. Behind a mutex because
/// lines from concurrent threads must not interleave mid-line.
static WRITER: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Routes emitted lines to `w` instead of stderr — the test seam.
pub fn set_writer(w: Box<dyn Write + Send>) {
    *lock_unpoisoned(&WRITER) = Some(w);
}

/// Restores the default stderr writer, returning the previous one (so a
/// test can inspect what it captured).
pub fn reset_writer() -> Option<Box<dyn Write + Send>> {
    lock_unpoisoned(&WRITER).take()
}

fn write_line(line: &str) {
    let mut slot = lock_unpoisoned(&WRITER);
    match slot.as_mut() {
        Some(w) => {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
        None => {
            let stderr = std::io::stderr();
            let _ = writeln!(stderr.lock(), "{line}");
        }
    }
}

// ---------------------------------------------------------------------
// Flight recorder: per-thread rings of rendered lines
// ---------------------------------------------------------------------

struct LogRing {
    lines: Mutex<VecDeque<(u64, String)>>,
}

/// The flight recorder's rings: one per live thread that has logged,
/// plus one retired ring holding the newest [`RING_CAP`] lines of
/// threads that have exited, so a panic dump still shows recent events
/// of finished connections while memory stays bounded under churn.
struct Rings {
    live: Vec<Arc<LogRing>>,
    retired: VecDeque<(u64, String)>,
}

static LOG_RINGS: Mutex<Rings> = Mutex::new(Rings {
    live: Vec::new(),
    retired: VecDeque::new(),
});

/// Global event sequence — orders the merged dump across threads.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// A thread's registration in [`LOG_RINGS`]; dropped at thread exit,
/// when it deregisters the ring and folds its lines into the retired one.
struct LocalRing(Arc<LogRing>);

impl Drop for LocalRing {
    fn drop(&mut self) {
        let mut rings = lock_unpoisoned(&LOG_RINGS);
        rings.live.retain(|r| !Arc::ptr_eq(r, &self.0));
        // Merge by sequence number, keeping the newest RING_CAP lines.
        let retired = &mut rings.retired;
        retired.extend(std::mem::take(&mut *lock_unpoisoned(&self.0.lines)));
        retired.make_contiguous().sort_by_key(|(seq, _)| *seq);
        let excess = retired.len().saturating_sub(RING_CAP);
        retired.drain(..excess);
    }
}

thread_local! {
    static LOCAL_RING: LocalRing = {
        let ring = Arc::new(LogRing {
            lines: Mutex::new(VecDeque::with_capacity(RING_CAP)),
        });
        lock_unpoisoned(&LOG_RINGS).live.push(Arc::clone(&ring));
        LocalRing(ring)
    };
}

fn record_line(line: String) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL_RING.with(|r| {
        let mut lines = lock_unpoisoned(&r.0.lines);
        if lines.len() == RING_CAP {
            lines.pop_front();
        }
        lines.push_back((seq, line));
    });
}

/// The most recent events across all threads, oldest first (merged by
/// emission order). Includes events below the level filter — the flight
/// recorder sees everything.
pub fn recent_events() -> Vec<String> {
    let mut tagged: Vec<(u64, String)> = Vec::new();
    {
        let rings = lock_unpoisoned(&LOG_RINGS);
        tagged.extend(rings.retired.iter().cloned());
        for r in &rings.live {
            tagged.extend(lock_unpoisoned(&r.lines).iter().cloned());
        }
    }
    tagged.sort_by_key(|(seq, _)| *seq);
    tagged.into_iter().map(|(_, line)| line).collect()
}

/// Empties every flight-recorder ring, the retired one included (live
/// rings stay registered).
pub fn clear_recent() {
    let mut rings = lock_unpoisoned(&LOG_RINGS);
    rings.retired.clear();
    for r in &rings.live {
        lock_unpoisoned(&r.lines).clear();
    }
}

/// Installs (once) a panic hook that dumps the flight-recorder rings and
/// span state to stderr before delegating to the previous hook — so a
/// worker panic ships the last [`RING_CAP`] events per thread with it.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            dump_flight_recorder();
        }));
    });
}

/// Writes the flight-recorder dump to stderr: span recording state,
/// span-ring drop count, then every retained event line oldest-first.
/// Public so a supervisor can trigger it without panicking.
pub fn dump_flight_recorder() {
    let stderr = std::io::stderr();
    let mut out = stderr.lock();
    let events = recent_events();
    let _ = writeln!(
        out,
        "--- deepn flight recorder: {} event(s), spans_enabled={} dropped_spans={} ---",
        events.len(),
        crate::enabled(),
        crate::dropped_spans(),
    );
    for line in events {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "--- end flight recorder ---");
}

// ---------------------------------------------------------------------
// logfmt rendering and parsing
// ---------------------------------------------------------------------

/// Whether `s` can appear unquoted in a logfmt line. Conservative: only
/// alphanumerics and `_ - . : / +`, and never empty.
fn is_bare(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/' | '+'))
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                out.push_str(&format!("\\u{{{:x}}}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_token(out: &mut String, s: &str) {
    if is_bare(s) {
        out.push_str(s);
    } else {
        push_escaped(out, s);
    }
}

/// Renders `key=value` pairs as one logfmt line (no trailing newline).
/// Keys and values are quoted and escaped whenever they are not plain
/// bare tokens, so [`parse_line`] recovers the exact strings.
pub fn render_pairs(pairs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        push_token(&mut out, k);
        out.push('=');
        push_token(&mut out, v);
    }
    out
}

/// Parses one logfmt line back into `key=value` pairs — the inverse of
/// [`render_pairs`]. Returns a positioned message on malformed input.
pub fn parse_line(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        while chars.peek() == Some(&' ') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(pairs);
        }
        let key = parse_token(&mut chars, true)?;
        match chars.next() {
            Some('=') => {}
            other => return Err(format!("expected '=' after key {key:?}, found {other:?}")),
        }
        let value = parse_token(&mut chars, false)?;
        pairs.push((key, value));
    }
}

fn parse_token(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    is_key: bool,
) -> Result<String, String> {
    if chars.peek() == Some(&'"') {
        return parse_quoted(chars);
    }
    let mut out = String::new();
    while let Some(&c) = chars.peek() {
        if c == ' ' || (is_key && c == '=') {
            break;
        }
        out.push(c);
        chars.next();
    }
    if is_key && out.is_empty() {
        return Err("empty bare key".to_string());
    }
    Ok(out)
}

fn parse_quoted(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    chars.next(); // consume opening quote
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated quoted token".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    if chars.next() != Some('{') {
                        return Err("expected '{' after \\u".to_string());
                    }
                    let mut hex = String::new();
                    loop {
                        match chars.next() {
                            Some('}') => break,
                            Some(c) if c.is_ascii_hexdigit() && hex.len() < 6 => hex.push(c),
                            other => return Err(format!("bad \\u escape near {other:?}")),
                        }
                    }
                    let cp = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad \\u codepoint: {e}"))?;
                    match char::from_u32(cp) {
                        Some(c) => out.push(c),
                        None => return Err(format!("\\u{{{hex}}} is not a scalar value")),
                    }
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

/// Timestamp field: seconds since process start with microsecond
/// precision, from the sanctioned clock seam.
fn ts_string(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000_000, (ns % 1_000_000_000) / 1_000)
}

// ---------------------------------------------------------------------
// Event builder
// ---------------------------------------------------------------------

/// A structured event under construction. Build with [`event`] (or the
/// level shorthands), add fields, then [`Event::emit`].
#[must_use = "an Event does nothing until .emit()"]
#[derive(Debug)]
pub struct Event {
    level: Level,
    pairs: Vec<(String, String)>,
}

impl Event {
    /// Appends one `key=value` field; the value renders via `Display`.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        self.pairs.push((key.to_string(), value.to_string()));
        self
    }

    /// Renders the line, records it in the flight recorder (always),
    /// and writes it to the writer when the level filter allows.
    pub fn emit(self) {
        let ns = crate::tick();
        let mut pairs = Vec::with_capacity(self.pairs.len() + 3);
        pairs.push(("level".to_string(), self.level.as_str().to_string()));
        pairs.push(("ts".to_string(), ts_string(ns)));
        pairs.push(("tid".to_string(), thread_ordinal().to_string()));
        pairs.extend(self.pairs);
        let line = render_pairs(&pairs);
        let pass = log_enabled(self.level);
        record_line(line.clone());
        if pass {
            write_line(&line);
        }
    }
}

/// Starts an event at `level` named `name` (the `event=` field).
pub fn event(level: Level, name: &str) -> Event {
    Event {
        level,
        pairs: vec![("event".to_string(), name.to_string())],
    }
}

/// Starts an error-level event.
pub fn error(name: &str) -> Event {
    event(Level::Error, name)
}

/// Starts a warn-level event.
pub fn warn(name: &str) -> Event {
    event(Level::Warn, name)
}

/// Starts an info-level event.
pub fn info(name: &str) -> Event {
    event(Level::Info, name)
}

/// Starts a debug-level event.
pub fn debug(name: &str) -> Event {
    event(Level::Debug, name)
}

/// Starts a trace-level event.
pub fn trace(name: &str) -> Event {
    event(Level::Trace, name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Logging shares process-global writer/filter/ring state; serialize.
    static GATE: Mutex<()> = Mutex::new(());

    /// A writer that appends into a shared buffer, for capture tests.
    #[derive(Clone)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Capture {
        fn new() -> Self {
            Capture(Arc::new(Mutex::new(Vec::new())))
        }
        fn text(&self) -> String {
            String::from_utf8_lossy(&lock_unpoisoned(&self.0)).into_owned()
        }
    }

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock_unpoisoned(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn rt(pairs: &[(&str, &str)]) {
        let owned: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let line = render_pairs(&owned);
        let back = parse_line(&line).unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
        assert_eq!(owned, back, "round trip through {line:?}");
    }

    #[test]
    fn round_trips_bare_quoted_and_unicode() {
        rt(&[("event", "conn_accept"), ("conn_id", "3")]);
        rt(&[("msg", "two words"), ("path", "/tmp/x.bin")]);
        rt(&[("k", ""), ("empty key ok", "v"), ("", "even empty")]);
        rt(&[("quote", "say \"hi\""), ("bs", "a\\b")]);
        rt(&[("nl", "a\nb\r\tc"), ("nul", "\u{0}\u{1f}\u{7f}")]);
        rt(&[("uni", "héllo — 世界 🚀"), ("eq", "a=b=c")]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in ["key", "\"unterminated=1", "k=\"open", "k=\"\\q\"", "=v x"] {
            assert!(parse_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_accepts_extra_spacing() {
        let pairs = parse_line("  a=1   b=\"two words\" ").expect("lenient spacing");
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[1], ("b".to_string(), "two words".to_string()));
    }

    #[test]
    fn level_filter_gates_writer_but_not_ring() {
        let _gate = lock_unpoisoned(&GATE);
        let cap = Capture::new();
        set_writer(Box::new(cap.clone()));
        set_max_level(Some(Level::Warn));
        clear_recent();

        warn("visible").field("k", 1).emit();
        debug("hidden").field("k", 2).emit();

        reset_writer();
        let text = cap.text();
        assert!(text.contains("event=visible"), "warn passes: {text}");
        assert!(!text.contains("event=hidden"), "debug filtered: {text}");

        let ring = recent_events().join("\n");
        assert!(ring.contains("event=visible"));
        assert!(ring.contains("event=hidden"), "ring sees filtered events");
        clear_recent();
    }

    #[test]
    fn emitted_lines_parse_and_carry_metadata() {
        let _gate = lock_unpoisoned(&GATE);
        let cap = Capture::new();
        set_writer(Box::new(cap.clone()));
        set_max_level(Some(Level::Trace));

        info("lifecycle")
            .field("addr", "127.0.0.1:0")
            .field("n", 7)
            .emit();

        reset_writer();
        set_max_level(Some(Level::Warn));
        let text = cap.text();
        let line = text.lines().last().expect("one line");
        let pairs = parse_line(line).expect("emitted line parses");
        assert_eq!(pairs[0].0, "level");
        assert_eq!(pairs[0].1, "info");
        assert_eq!(pairs[1].0, "ts");
        assert!(pairs.iter().any(|(k, v)| k == "event" && v == "lifecycle"));
        assert!(pairs.iter().any(|(k, v)| k == "n" && v == "7"));
    }

    #[test]
    fn ring_is_bounded() {
        let _gate = lock_unpoisoned(&GATE);
        set_max_level(None);
        clear_recent();
        for i in 0..(RING_CAP + 50) {
            trace("flood").field("i", i).emit();
        }
        set_max_level(Some(Level::Warn));
        let events: Vec<String> = recent_events()
            .into_iter()
            .filter(|l| l.contains("event=flood"))
            .collect();
        assert_eq!(events.len(), RING_CAP);
        // Oldest events were dropped: i=0 is gone, the newest survives.
        assert!(!events.iter().any(|l| l.ends_with("i=0")));
        assert!(events
            .iter()
            .any(|l| l.contains(&format!("i={}", RING_CAP + 49))));
        clear_recent();
    }

    #[test]
    fn exited_threads_leave_a_bounded_recorder() {
        let _gate = lock_unpoisoned(&GATE);
        clear_recent();
        let before = lock_unpoisoned(&LOG_RINGS).live.len();
        let threads = RING_CAP + 50;
        for i in 0..threads {
            std::thread::spawn(move || trace("exited").field("i", i).emit())
                .join()
                .expect("logging thread");
        }
        // Every exited thread deregistered its ring...
        assert!(lock_unpoisoned(&LOG_RINGS).live.len() <= before);
        // ...and the retired ring keeps only the newest RING_CAP lines.
        let events: Vec<String> = recent_events()
            .into_iter()
            .filter(|l| l.contains("event=exited"))
            .collect();
        assert_eq!(events.len(), RING_CAP);
        assert!(!events.iter().any(|l| l.ends_with("i=0")));
        assert!(events[RING_CAP - 1].ends_with(&format!("i={}", threads - 1)));
        clear_recent();
    }

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("info"), Some(Some(Level::Info)));
        assert_eq!(Level::parse("OFF"), Some(None));
        assert_eq!(Level::parse("5"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Trace);
    }
}
