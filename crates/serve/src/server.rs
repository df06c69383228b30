//! The service: acceptor + per-connection readers + one request
//! executor. Work requests run whole: a v1 connection runs them inline
//! on its own thread, `--workers` threads run tagged windows off a
//! bounded queue, and either way a batch's images fan out on the shared
//! `deepn-parallel` pool.

use crate::metrics::{Ctr, ServeMetrics};
use crate::protocol::{self, Opcode, STATUS_BUSY, STATUS_ERR, STATUS_OK, STATUS_TIMEOUT};
use crate::ServeError;
use deepn_codec::{
    DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, PixelStrip, QuantTablePair, RgbImage,
};
use deepn_nn::Sequential;
use deepn_store::{ByteReader, ByteWriter};
use deepn_tensor::Tensor;
use deepn_trace::log;
use std::cell::Cell;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tagged-window workers, queue bound, and admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of tagged-window workers: threads that run whole requests
    /// of tagged (protocol v2) connections off the bounded queue, so one
    /// connection's window executes across them out of order. v1
    /// requests, and a quiet tagged connection's small ones, run inline
    /// on their connection thread instead. Either way a batch's images
    /// fan out on the shared `deepn-parallel` pool (sized by
    /// `DEEPN_THREADS`).
    pub workers: usize,
    /// Bound of the tagged request queue, one slot per whole request; a
    /// submission waits (up to its deadline) while it is full, so an
    /// overloaded service applies backpressure instead of buffering
    /// without limit.
    pub queue_depth: usize,
    /// Maximum concurrently served connections. Connections over the
    /// limit receive a typed [`STATUS_BUSY`] rejection frame (surfacing
    /// client-side as [`ServeError::Busy`]) instead of a silent drop;
    /// `Shutdown` is honored even over the limit so a saturated service
    /// stays stoppable.
    pub max_connections: usize,
    /// Per-request time budget, measured from request dispatch. A request
    /// that exceeds it receives a typed [`STATUS_TIMEOUT`] rejection
    /// frame ([`ServeError::Timeout`] client-side). `None` disables the
    /// deadline.
    pub request_timeout: Option<Duration>,
    /// Slow-request log threshold: a request whose whole-frame handling
    /// takes at least this long is logged to stderr with its opcode and
    /// wall time (`deepn serve --slow-ms`). `None` disables the log.
    pub slow_threshold: Option<Duration>,
    /// Per-connection in-flight window under tagged framing (protocol
    /// v2): how many of one connection's requests may execute
    /// concurrently before the reader stops admitting new frames. The
    /// cap is what bounds the completed-reply buffer — workers never
    /// block on a slow client's writer.
    pub tagged_window: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(1, 16);
        ServerConfig {
            workers,
            queue_depth: 256,
            max_connections: 64,
            request_timeout: Some(Duration::from_secs(30)),
            slow_threshold: None,
            tagged_window: 16,
        }
    }
}

/// A point-in-time copy of the service counters and configuration,
/// as returned by [`crate::Client::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests handled (all opcodes).
    pub requests: u64,
    /// Images compressed.
    pub images_encoded: u64,
    /// Streams decompressed.
    pub images_decoded: u64,
    /// Images classified.
    pub images_classified: u64,
    /// Connections rejected with a typed busy frame.
    pub connections_rejected: u64,
    /// Requests rejected with a typed timeout frame.
    pub requests_timed_out: u64,
    /// Total request-frame bytes received (length prefixes included).
    pub bytes_in: u64,
    /// Total reply-frame bytes sent (length prefixes included).
    pub bytes_out: u64,
    /// Connections currently being served.
    pub active_connections: u32,
    /// Configured worker count.
    pub workers: u32,
    /// Configured queue bound.
    pub queue_depth: u32,
    /// Configured connection limit.
    pub max_connections: u32,
    /// Configured per-request budget in milliseconds (0 = disabled).
    pub request_timeout_ms: u64,
    /// Whether a model artifact was loaded for `Classify`.
    pub has_model: bool,
    /// Connections that negotiated tagged framing (protocol v2). A
    /// trailing `Stats` field: 0 when the service predates it.
    pub tagged_connections: u64,
    /// Requests executed under tagged framing. A trailing `Stats` field:
    /// 0 when the service predates it.
    pub tagged_requests: u64,
}

/// One queued tagged (protocol v2) request: a worker runs it whole with
/// [`run_whole`] and hands the complete reply body (status byte
/// included) to the connection's writer thread. The request occupies one
/// queue slot and one worker, so a tagged connection's window runs
/// *across* workers while its images fan out on the shared pool.
struct WholeJob {
    work: WholeWork,
    tag: u32,
    reply: ReplySink,
    deadline: Option<(Duration, Instant)>,
    /// Trace timestamp of the (last) submission attempt, for the
    /// queue-wait histogram and span.
    submitted_ns: u64,
    /// Frame-read timestamp — the whole-request clock the writer closes.
    start_ns: u64,
    req_id: u64,
    span: &'static str,
}

enum WholeWork {
    Encode(Vec<RgbImage>),
    Decode(Vec<Vec<u8>>),
    Classify(Vec<RgbImage>),
}

/// Requests at or under this cost (pixels for encode, compressed bytes
/// for decode) may run inline on a quiet tagged connection's reader
/// instead of a worker: small enough that holding the reader off the
/// socket costs less than two thread hand-offs, while anything larger
/// keeps the window's out-of-order concurrency.
const INLINE_WORK_BUDGET: usize = 4096;

impl WholeWork {
    /// The image counter this request advances once it succeeds.
    fn counter(&self) -> (Ctr, u64) {
        match self {
            WholeWork::Encode(images) => (Ctr::ImagesEncoded, images.len() as u64),
            WholeWork::Decode(blobs) => (Ctr::ImagesDecoded, blobs.len() as u64),
            WholeWork::Classify(images) => (Ctr::ImagesClassified, images.len() as u64),
        }
    }

    /// A unit-less size proxy for the inline-execution decision.
    /// `Classify` never inlines on a tagged connection: model inference
    /// is the heaviest op.
    fn inline_cost(&self) -> usize {
        match self {
            WholeWork::Encode(images) => images.iter().map(|i| i.width() * i.height()).sum(),
            WholeWork::Decode(blobs) => blobs.iter().map(Vec::len).sum(),
            WholeWork::Classify(_) => usize::MAX,
        }
    }
}

/// The compression service. [`bind`](Server::bind) it, then either
/// [`run`](Server::run) on the current thread or [`spawn`](Server::spawn)
/// it onto a background one.
pub struct Server {
    listener: TcpListener,
    encoder: Arc<Encoder>,
    model: Option<Arc<Sequential>>,
    config: ServerConfig,
    counters: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    rejecting: Arc<AtomicUsize>,
}

/// Upper bound on concurrent polite-rejection threads. Beyond it an
/// over-limit connection is closed immediately instead of waiting for a
/// request frame — a connect flood must not be able to pin an unbounded
/// number of threads (and sockets) in the rejection path.
const REJECTION_THREAD_CAP: usize = 32;

/// A handle to a [`spawn`](Server::spawn)ed server.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop without a client round trip.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server thread to exit.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds the service to `addr` with the given quantization tables and
    /// optional classification model.
    ///
    /// # Errors
    ///
    /// Socket errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        tables: QuantTablePair,
        model: Option<Sequential>,
        mut config: ServerConfig,
    ) -> io::Result<Self> {
        // Zero workers would park every job forever; zero queue depth
        // would make sync_channel a rendezvous that deadlocks single
        // submitters; zero connections would reject everything including
        // the shutdown request. Clamp rather than error: there is no
        // useful interpretation of any of the zeros.
        config.workers = config.workers.max(1);
        config.queue_depth = config.queue_depth.max(1);
        config.max_connections = config.max_connections.max(1);
        // A zero tagged window would admit nothing after negotiation.
        config.tagged_window = config.tagged_window.max(1);
        // Honor DEEPN_TRACE=1 and DEEPN_LOG for servers embedded in other
        // binaries; never disables tracing a host process enabled
        // explicitly.
        deepn_trace::enable_from_env();
        log::init_from_env();
        let counters = Arc::new(ServeMetrics::new(&config));
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            encoder: Arc::new(Encoder::with_tables(tables)),
            model: model.map(Arc::new),
            config,
            counters,
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            rejecting: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until a shutdown request
    /// arrives, then drains the tagged-window workers and returns.
    ///
    /// # Errors
    ///
    /// Fatal socket errors from the accept loop.
    pub fn run(self) -> io::Result<()> {
        let (job_tx, job_rx) = mpsc::sync_channel::<WholeJob>(self.config.queue_depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::with_capacity(self.config.workers);
        for _ in 0..self.config.workers {
            let rx = Arc::clone(&job_rx);
            let encoder = Arc::clone(&self.encoder);
            let model = self.model.clone();
            let metrics = Arc::clone(&self.counters);
            workers.push(thread::spawn(move || {
                worker_loop(&rx, &encoder, model.as_deref(), &metrics)
            }));
        }
        let addr = self
            .listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string());
        log::info("server_listening")
            .field("addr", &addr)
            .field("workers", self.config.workers)
            .field("queue_depth", self.config.queue_depth)
            .field("max_connections", self.config.max_connections)
            .emit();

        // Monotone connection ids, assigned at accept: the correlation
        // key every per-connection and per-request event carries.
        let conn_seq = AtomicU64::new(0);
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Admission decision happens here, before the next
                    // accept, so the active count is exact. The guard
                    // decrements when the connection thread exits.
                    let guard = ConnGuard {
                        active: Arc::clone(&self.active),
                    };
                    let limited =
                        guard.active.fetch_add(1, Ordering::SeqCst) >= self.config.max_connections;
                    let ctx = ConnCtx {
                        job_tx: job_tx.clone(),
                        encoder: Arc::clone(&self.encoder),
                        model: self.model.clone(),
                        counters: Arc::clone(&self.counters),
                        shutdown: Arc::clone(&self.shutdown),
                        config: self.config.clone(),
                        active: Arc::clone(&self.active),
                        rejecting: Arc::clone(&self.rejecting),
                        limited,
                        conn_id: conn_seq.fetch_add(1, Ordering::Relaxed) + 1,
                    };
                    thread::spawn(move || ctx.serve(stream, guard));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        // Workers exit once every sender is gone: ours now, the
        // connection threads' as they notice the flag (bounded by their
        // read timeout) or hit EOF.
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        log::info("server_stopped")
            .field("addr", &addr)
            .field("connections", conn_seq.load(Ordering::Relaxed))
            .emit();
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address.
    ///
    /// # Panics
    ///
    /// Panics if the bound address cannot be read back (the listener is
    /// already live, so this cannot happen in practice).
    pub fn spawn(self) -> ServerHandle {
        // lint:allow(panic-policy): startup, not request handling — the
        // listener is already bound, so `local_addr` failing here means
        // the socket itself is broken and there is no service to run.
        let addr = self.local_addr().expect("listener has an address");
        let shutdown = Arc::clone(&self.shutdown);
        let thread = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shutdown,
            thread,
        }
    }
}

/// Decrements the active-connection gauge when a connection thread exits,
/// however it exits.
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Everything a connection reader needs.
struct ConnCtx {
    job_tx: SyncSender<WholeJob>,
    encoder: Arc<Encoder>,
    model: Option<Arc<Sequential>>,
    counters: Arc<ServeMetrics>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    active: Arc<AtomicUsize>,
    rejecting: Arc<AtomicUsize>,
    limited: bool,
    /// Monotone per-server connection id — the correlation key on every
    /// event this connection emits.
    conn_id: u64,
}

/// Emits `conn_close` when the reader thread exits, however it exits, so
/// every accepted connection's event stream is closed by construction.
struct CloseLogger {
    conn_id: u64,
    requests: Cell<u64>,
}

impl Drop for CloseLogger {
    fn drop(&mut self) {
        log::debug("conn_close")
            .field("conn_id", self.conn_id)
            .field("requests", self.requests.get())
            .emit();
    }
}

/// One completed tagged reply on its way to the connection's writer
/// thread: the v1-shaped reply body plus everything the writer needs to
/// close out the request's observability (the tagged path's equivalent
/// of [`RequestTimer`], which cannot be used because the request no
/// longer completes within the reader's scope).
struct TaggedReply {
    tag: u32,
    /// `status | payload` — the writer prefixes the tag on the wire.
    body: Vec<u8>,
    /// Whether writing this reply retires `tag` from the in-flight
    /// window. `false` for duplicate-tag error replies, whose tag still
    /// belongs to the original in-flight request.
    release: bool,
    req_id: u64,
    span: &'static str,
    /// Frame-read timestamp (whole-request clock).
    start_ns: u64,
    /// Execution-complete timestamp (start of the reply-buffer wait).
    done_ns: u64,
    status: &'static str,
}

impl TaggedReply {
    /// A finished reply that retires its tag, stamped complete now.
    fn done(
        tag: u32,
        req_id: u64,
        span: &'static str,
        start_ns: u64,
        body: Vec<u8>,
        status: &'static str,
    ) -> Self {
        TaggedReply {
            tag,
            body,
            release: true,
            req_id,
            span,
            start_ns,
            done_ns: deepn_trace::tick(),
            status,
        }
    }
}

/// The producer half of a tagged connection's reply queue. Unbounded so
/// workers never block on one connection's slow writer; occupancy
/// is bounded anyway because the reader admits at most `tagged_window`
/// requests into flight.
#[derive(Clone)]
struct ReplySink {
    tx: mpsc::Sender<TaggedReply>,
    /// Completed-but-unwritten replies queued for the writer.
    pending: Arc<AtomicUsize>,
    /// Replies ever handed to the writer; paired with
    /// [`ReplySink::written`] to detect a fully idle writer (see
    /// `serve_tagged`'s quiet-connection fast path).
    enqueued: Arc<AtomicUsize>,
    /// Replies the writer has fully delivered (socket write, metrics,
    /// and tag release all done).
    written: Arc<AtomicUsize>,
    metrics: Arc<ServeMetrics>,
}

impl ReplySink {
    fn send(&self, reply: TaggedReply) {
        let occupancy = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics
            .reply_buffer_high_water
            .set_max(occupancy as u64);
        self.enqueued.fetch_add(1, Ordering::SeqCst);
        // A dropped receiver means the connection died; nothing to do.
        let _ = self.tx.send(reply);
    }

    /// True when every reply ever enqueued has been fully delivered —
    /// the writer thread is parked in `recv` and owns no socket write.
    /// Only the reader enqueues new cheap replies, and workers can only
    /// enqueue while their tag is in the window, so the caller can
    /// combine this with a window check to claim the socket briefly.
    fn writer_idle(&self) -> bool {
        let enqueued = self.enqueued.load(Ordering::SeqCst);
        self.written.load(Ordering::SeqCst) >= enqueued
    }
}

/// A tagged connection's in-flight window: the set of admitted tags,
/// bounded by `tagged_window`. The reader blocks admission while the
/// window is full; the writer releases a tag after its reply is written.
struct TagWindow {
    limit: usize,
    tags: Mutex<std::collections::HashSet<u32>>,
    freed: Condvar,
}

enum Admit {
    /// Admitted; `sole` is true when the tag is the window's only
    /// occupant, i.e. nothing else of this connection is in flight
    /// anywhere (worker queue, worker, or reply queue, since all of those
    /// hold their tag until written).
    Admitted { sole: bool },
    /// The tag is already in flight on this connection.
    Duplicate,
    /// The service shut down while waiting for window room.
    Shutdown,
}

impl TagWindow {
    fn new(limit: usize) -> Self {
        TagWindow {
            limit: limit.max(1),
            tags: Mutex::new(std::collections::HashSet::new()),
            freed: Condvar::new(),
        }
    }

    /// Admits `tag` into the window, waiting for room when it is full.
    fn admit(&self, tag: u32, shutdown: &AtomicBool) -> Admit {
        let Ok(mut tags) = self.tags.lock() else {
            return Admit::Shutdown;
        };
        loop {
            if tags.contains(&tag) {
                return Admit::Duplicate;
            }
            if tags.len() < self.limit {
                tags.insert(tag);
                return Admit::Admitted {
                    sole: tags.len() == 1,
                };
            }
            if shutdown.load(Ordering::SeqCst) {
                return Admit::Shutdown;
            }
            match self.freed.wait_timeout(tags, Duration::from_millis(100)) {
                Ok((guard, _)) => tags = guard,
                Err(_) => return Admit::Shutdown,
            }
        }
    }

    fn release(&self, tag: u32) {
        if let Ok(mut tags) = self.tags.lock() {
            tags.remove(&tag);
            self.freed.notify_all();
        }
    }
}

/// Writes one tagged reply to the socket and closes out the request's
/// metrics, spans, and structured events. Shared by the writer thread
/// and the reader's quiet-connection fast path, so both deliver
/// byte-identical frames with identical observability. Returns `true`
/// if the socket write failed (the peer is gone).
fn deliver_tagged_reply(
    stream: &mut TcpStream,
    reply: &TaggedReply,
    metrics: &ServeMetrics,
    conn_id: u64,
    slow: Option<Duration>,
) -> bool {
    let write_start = deepn_trace::tick();
    metrics.add(Ctr::BytesOut, 8 + reply.body.len() as u64);
    let dead = protocol::write_tagged_frame(stream, reply.tag, &reply.body).is_err();
    let end = deepn_trace::tick();
    metrics
        .reply_write_seconds
        .record_ns(end.saturating_sub(write_start));
    deepn_trace::record_span("serve.reply_write", write_start, end);
    metrics
        .request_seconds
        .record_ns(end.saturating_sub(reply.start_ns));
    deepn_trace::record_span(reply.span, reply.start_ns, end);
    let op = reply
        .span
        .strip_prefix("serve.request.")
        .unwrap_or(reply.span);
    let ms = format!("{:.3}", end.saturating_sub(reply.start_ns) as f64 / 1e6);
    log::trace("request")
        .field("conn_id", conn_id)
        .field("req_id", reply.req_id)
        .field("tag", reply.tag)
        .field("op", op)
        .field("status", reply.status)
        .field("ms", &ms)
        .emit();
    if matches!(reply.status, "timeout" | "error") {
        let name = if reply.status == "timeout" {
            "request_timeout"
        } else {
            "request_error"
        };
        log::warn(name)
            .field("conn_id", conn_id)
            .field("req_id", reply.req_id)
            .field("tag", reply.tag)
            .field("op", op)
            .field("ms", &ms)
            .emit();
    }
    if let Some(t) = slow {
        if end.saturating_sub(reply.start_ns) >= t.as_nanos() as u64 {
            log::warn("slow_request")
                .field("conn_id", conn_id)
                .field("req_id", reply.req_id)
                .field("tag", reply.tag)
                .field("op", op)
                .field("ms", &ms)
                .field("threshold_ms", format!("{:.3}", t.as_nanos() as f64 / 1e6))
                .emit();
        }
    }
    dead
}

/// The writer half of a tagged connection: drains the reply queue onto
/// the socket in completion order, closing out each request's metrics,
/// span, and structured events, and releasing its tag from the window.
/// Exits once every [`ReplySink`] clone (reader + queued jobs) is gone.
#[allow(clippy::too_many_arguments)]
fn tagged_writer_loop(
    mut stream: TcpStream,
    rx: &Receiver<TaggedReply>,
    window: &TagWindow,
    pending: &AtomicUsize,
    written: &AtomicUsize,
    metrics: &ServeMetrics,
    conn_id: u64,
    slow: Option<Duration>,
) {
    // After a write failure the peer is gone; later replies are drained
    // (tags released, accounting closed) without touching the socket.
    let mut dead = false;
    while let Ok(reply) = rx.recv() {
        pending.fetch_sub(1, Ordering::SeqCst);
        let write_start = deepn_trace::tick();
        metrics
            .reply_wait_seconds
            .record_ns(write_start.saturating_sub(reply.done_ns));
        deepn_trace::record_span("serve.reply_wait", reply.done_ns, write_start);
        if !dead {
            dead = deliver_tagged_reply(&mut stream, &reply, metrics, conn_id, slow);
        }
        if reply.release {
            window.release(reply.tag);
        }
        // Advanced only after release: once `written` catches up with
        // `enqueued`, this thread is provably back in `recv` with no
        // socket write or window bookkeeping outstanding.
        written.fetch_add(1, Ordering::SeqCst);
    }
}

/// A tagged connection's writer thread, spawned on first use: a serial
/// client whose every request takes the reader's quiet fast path never
/// pays the thread spawn at all — which matters under connection churn,
/// where the spawn would otherwise tax every reconnect. The reader must
/// call [`ensure`](LazyWriter::ensure) before the first reply (its own
/// or a worker's) can reach the queue.
struct LazyWriter {
    parts: Option<(TcpStream, Receiver<TaggedReply>)>,
    window: Arc<TagWindow>,
    pending: Arc<AtomicUsize>,
    written: Arc<AtomicUsize>,
    metrics: Arc<ServeMetrics>,
    conn_id: u64,
    slow: Option<Duration>,
}

impl LazyWriter {
    fn ensure(&mut self) {
        let Some((stream, rx)) = self.parts.take() else {
            return;
        };
        let window = Arc::clone(&self.window);
        let pending = Arc::clone(&self.pending);
        let written = Arc::clone(&self.written);
        let metrics = Arc::clone(&self.metrics);
        let conn_id = self.conn_id;
        let slow = self.slow;
        // Detached on purpose: queued jobs hold `ReplySink` clones, so
        // the writer outlives the reader exactly until the last
        // in-flight reply is delivered (or drained to a dead socket).
        thread::spawn(move || {
            tagged_writer_loop(
                stream, &rx, &window, &pending, &written, &metrics, conn_id, slow,
            )
        });
    }
}

impl ConnCtx {
    fn serve(self, mut stream: TcpStream, guard: ConnGuard) {
        let _ = stream.set_nodelay(true);
        if self.limited {
            // Over the connection limit: this connection is not being
            // *served*, so free its slot immediately — a burst of
            // rejected peers must not crowd out admittable ones.
            drop(guard);
            self.counters.inc(Ctr::ConnectionsRejected);
            // The polite reply itself is bounded: past the cap, close
            // immediately so a connect flood cannot pin unbounded threads
            // here.
            let hard_drop = self.rejecting.fetch_add(1, Ordering::SeqCst) >= REJECTION_THREAD_CAP;
            log::warn("conn_busy")
                .field("conn_id", self.conn_id)
                .field("limit", self.config.max_connections)
                .field("replied", !hard_drop)
                .emit();
            if hard_drop {
                self.rejecting.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            let _reject_guard = ConnGuard {
                active: Arc::clone(&self.rejecting),
            };
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            // Consume one request so the peer's write is not met with a
            // reset, answer with a typed busy frame, and close. Never a
            // silent drop.
            if let Ok(Some(request)) = protocol::read_frame(&mut stream) {
                // Carve-out: a saturated service must still be stoppable.
                // Shutdown carries no payload and runs no jobs, so honor
                // it even over the limit.
                if request.first() == Some(&(Opcode::Shutdown as u8)) {
                    self.shutdown.store(true, Ordering::SeqCst);
                    let mut w = ByteWriter::new();
                    w.put_u8(STATUS_OK);
                    let _ = protocol::write_frame(&mut stream, w.as_bytes());
                    return;
                }
                let mut w = ByteWriter::new();
                w.put_u8(STATUS_BUSY);
                w.put_string(&format!(
                    "service at its {}-connection limit; retry later",
                    self.config.max_connections
                ));
                let _ = protocol::write_frame(&mut stream, w.as_bytes());
            }
            return;
        }
        // The guard holds this connection's slot until the reader exits.
        let _guard = guard;
        log::debug("conn_accept")
            .field("conn_id", self.conn_id)
            .field(
                "peer",
                stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".to_string()),
            )
            .emit();
        let closer = CloseLogger {
            conn_id: self.conn_id,
            requests: Cell::new(0),
        };
        // The timeout bounds how long a dead-idle connection pins this
        // thread after shutdown; it is not a per-request deadline.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        // Per-connection codec state for the streaming ops: the standard-
        // Huffman encoder (single-pass streaming cannot rewind the peer
        // for an optimized-table analysis pass) and the strip workspaces,
        // all reused across every streamed image on this connection.
        let stream_encoder = (*self.encoder).clone().optimize_huffman(false);
        let mut stream_ws = EncodeWorkspace::new();
        let mut stream_strip = PixelStrip::new();
        let stream_decoder = Decoder::new();
        let mut stream_dec_ws = DecodeWorkspace::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match protocol::read_frame(&mut stream) {
                Ok(None) => return,
                Ok(Some(body)) => {
                    self.counters.inc(Ctr::Requests);
                    self.counters.add(Ctr::BytesIn, 4 + body.len() as u64);
                    let req_id = closer.requests.get() + 1;
                    closer.requests.set(req_id);
                    // One whole-request observation per frame, whichever of
                    // the three handling paths it takes: the timer fires on
                    // scope exit (including early returns), recording the
                    // request histogram, the per-opcode span, and the
                    // structured request/slow-request events.
                    let op_name = opcode_span_name(body.first().copied());
                    let req_timer = RequestTimer {
                        metrics: &self.counters,
                        slow: self.config.slow_threshold,
                        name: op_name,
                        start_ns: deepn_trace::tick(),
                        conn_id: self.conn_id,
                        req_id,
                        status: Cell::new("ok"),
                    };
                    if body.first() == Some(&(Opcode::Hello as u8)) {
                        // Feature negotiation. Granting FEATURE_TAGGED
                        // switches the rest of the connection — both
                        // directions — to tagged framing, so it cannot go
                        // through the one-frame `handle` path either.
                        let requested = ByteReader::new(&body[1..]).u32().unwrap_or(0);
                        let granted = requested & protocol::FEATURE_TAGGED;
                        let mut w = ByteWriter::new();
                        w.put_u8(STATUS_OK);
                        w.put_u32(granted);
                        if !self.write_reply(&mut stream, w.as_bytes()) {
                            return;
                        }
                        if granted & protocol::FEATURE_TAGGED != 0 {
                            self.counters.inc(Ctr::TaggedConnections);
                            log::debug("conn_tagged")
                                .field("conn_id", self.conn_id)
                                .field("window", self.config.tagged_window)
                                .emit();
                            // Close the Hello's own observability before
                            // the tagged loop takes over the connection.
                            drop(req_timer);
                            self.serve_tagged(&mut stream, &closer);
                            return;
                        }
                        continue;
                    }
                    if body.first() == Some(&(Opcode::CompressStream as u8)) {
                        // The streaming op owns the connection until its
                        // last strip frame: it cannot go through the
                        // one-frame `handle` path.
                        let reply = match self.compress_stream(
                            &mut stream,
                            &body[1..],
                            &stream_encoder,
                            &mut stream_ws,
                            &mut stream_strip,
                        ) {
                            Ok(payload) => {
                                let mut reply = Vec::with_capacity(1 + payload.len());
                                reply.push(STATUS_OK);
                                reply.extend_from_slice(&payload);
                                reply
                            }
                            Err(e) => {
                                // After a mid-stream failure the frame
                                // boundary with the peer is unknown:
                                // answer with a typed frame, then close.
                                req_timer.fail(&e);
                                let reply = error_reply(e);
                                self.write_reply(&mut stream, &reply);
                                return;
                            }
                        };
                        if !self.write_reply(&mut stream, &reply) {
                            return;
                        }
                        continue;
                    }
                    if body.first() == Some(&(Opcode::DecompressStream as u8)) {
                        // The streaming reply owns the connection until its
                        // last strip frame. Unlike `CompressStream`, every
                        // failure here still lands on a frame boundary (the
                        // request was one frame, and error frames replace
                        // strip frames), so the connection stays usable.
                        if !self.decompress_stream(
                            &mut stream,
                            &body[1..],
                            &stream_decoder,
                            &mut stream_dec_ws,
                            &mut stream_strip,
                            &req_timer,
                        ) {
                            return;
                        }
                        continue;
                    }
                    let (reply, stop) = self.handle(&body);
                    match reply.first().copied() {
                        Some(STATUS_ERR) => req_timer.set_status("error"),
                        Some(STATUS_BUSY) => req_timer.set_status("busy"),
                        Some(STATUS_TIMEOUT) => req_timer.set_status("timeout"),
                        _ => {}
                    }
                    if !self.write_reply(&mut stream, &reply) {
                        return;
                    }
                    if stop {
                        self.shutdown.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                Err(ServeError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }

    /// Writes a reply frame, counting its bytes and timing the write;
    /// returns false when the connection is gone.
    fn write_reply(&self, stream: &mut TcpStream, reply: &[u8]) -> bool {
        self.counters.add(Ctr::BytesOut, 4 + reply.len() as u64);
        let start = deepn_trace::tick();
        let ok = protocol::write_frame(stream, reply).is_ok();
        let end = deepn_trace::tick();
        self.counters
            .reply_write_seconds
            .record_ns(end.saturating_sub(start));
        deepn_trace::record_span("serve.reply_write", start, end);
        ok
    }

    /// The tagged (protocol v2) serve loop, entered after a `Hello`
    /// granted [`protocol::FEATURE_TAGGED`]. The reader admits up to
    /// `tagged_window` of this connection's requests into flight at
    /// once: work ops run **whole** on the tagged-window workers (one
    /// queue slot, one worker each), cheap ops are answered inline, and
    /// a dedicated writer thread delivers replies tag-matched in
    /// completion order — out of order relative to submission. The
    /// window admission is the backpressure: the reply queue is
    /// unbounded so workers never block on a slow client, but it can
    /// never hold more than `tagged_window` replies.
    fn serve_tagged(&self, stream: &mut TcpStream, closer: &CloseLogger) {
        let write_stream = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                log::warn("conn_tagged_split_failed")
                    .field("conn_id", self.conn_id)
                    .field("error", e.to_string())
                    .emit();
                return;
            }
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        let pending = Arc::new(AtomicUsize::new(0));
        let written = Arc::new(AtomicUsize::new(0));
        let window = Arc::new(TagWindow::new(self.config.tagged_window));
        let replies = ReplySink {
            tx: reply_tx,
            pending: Arc::clone(&pending),
            enqueued: Arc::new(AtomicUsize::new(0)),
            written: Arc::clone(&written),
            metrics: Arc::clone(&self.counters),
        };
        let mut writer = LazyWriter {
            parts: Some((write_stream, reply_rx)),
            window: Arc::clone(&window),
            pending,
            written,
            metrics: Arc::clone(&self.counters),
            conn_id: self.conn_id,
            slow: self.config.slow_threshold,
        };
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let body = match protocol::read_frame(stream) {
                Ok(Some(body)) => body,
                Ok(None) => return,
                Err(ServeError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            };
            self.counters.inc(Ctr::Requests);
            self.counters.inc(Ctr::TaggedRequests);
            self.counters.add(Ctr::BytesIn, 4 + body.len() as u64);
            let req_id = closer.requests.get() + 1;
            closer.requests.set(req_id);
            let start_ns = deepn_trace::tick();
            let Ok((tag, rest)) = protocol::split_tagged(&body) else {
                // A frame too short to carry a tag cannot be answered
                // tag-matched: the framing contract is broken, so close
                // on this (still intact) frame boundary.
                log::warn("tagged_runt_frame")
                    .field("conn_id", self.conn_id)
                    .field("req_id", req_id)
                    .field("bytes", body.len())
                    .emit();
                return;
            };
            let span = opcode_span_name(rest.first().copied());
            let (op, payload) = match split_op(rest) {
                Ok(request) => request,
                Err(e) => {
                    writer.ensure();
                    reject_tagged(&replies, tag, req_id, span, start_ns, e, false);
                    continue;
                }
            };
            // Ops that cannot run inside a tagged window are rejected
            // with a typed frame *before* admission — never silently
            // corrupted, and the connection stays usable.
            match op {
                Opcode::Hello => {
                    writer.ensure();
                    reject_tagged(
                        &replies,
                        tag,
                        req_id,
                        span,
                        start_ns,
                        ServeError::Protocol(
                            "tagged framing is already negotiated on this connection".into(),
                        ),
                        false,
                    );
                    continue;
                }
                Opcode::CompressStream | Opcode::DecompressStream => {
                    writer.ensure();
                    reject_tagged(
                        &replies,
                        tag,
                        req_id,
                        span,
                        start_ns,
                        ServeError::Protocol(
                            "streaming ops are not available on a tagged connection; \
                             open an untagged (v1) connection"
                                .into(),
                        ),
                        false,
                    );
                    continue;
                }
                _ => {}
            }
            let sole = match window.admit(tag, &self.shutdown) {
                Admit::Shutdown => return,
                Admit::Duplicate => {
                    // `release: false`: this tag still belongs to the
                    // original in-flight request, whose reply must not
                    // be forgotten because of the client's reuse.
                    writer.ensure();
                    reject_tagged(
                        &replies,
                        tag,
                        req_id,
                        span,
                        start_ns,
                        ServeError::Protocol(format!(
                            "tag {tag} is already in flight on this connection"
                        )),
                        false,
                    );
                    continue;
                }
                Admit::Admitted { sole } => sole,
            };
            match op {
                Opcode::Ping | Opcode::Stats | Opcode::Metrics => {
                    let reply =
                        TaggedReply::done(tag, req_id, span, start_ns, self.cheap_reply(op), "ok");
                    self.answer_cheap(stream, &replies, &window, &mut writer, sole, reply);
                }
                Opcode::Shutdown => {
                    writer.ensure();
                    replies.send(TaggedReply::done(
                        tag,
                        req_id,
                        span,
                        start_ns,
                        vec![STATUS_OK],
                        "ok",
                    ));
                    self.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                Opcode::EncodeBatch | Opcode::DecodeBatch | Opcode::Classify => {
                    match self.parse_work(op, payload) {
                        Err(e) => {
                            writer.ensure();
                            reject_tagged(&replies, tag, req_id, span, start_ns, e, true);
                        }
                        Ok(work)
                            if work.inline_cost() <= INLINE_WORK_BUDGET
                                && sole
                                && replies.writer_idle() =>
                        {
                            // Quiet-connection inline execution: nothing
                            // else is in flight, so blocking the reader
                            // for this small request trades no window
                            // concurrency away and skips both thread
                            // hand-offs (queue submit, writer wake).
                            let (body, status) = self.run_inline(work);
                            let reply =
                                TaggedReply::done(tag, req_id, span, start_ns, body, status);
                            self.fast_deliver(stream, &window, reply);
                        }
                        Ok(work) => {
                            writer.ensure();
                            self.submit_whole(work, tag, &replies, req_id, span, start_ns);
                        }
                    }
                }
                // Rejected before admission; the match stays total
                // without a panicking arm (panic-policy).
                Opcode::Hello | Opcode::CompressStream | Opcode::DecompressStream => {}
            }
        }
    }

    /// Answers a cheap tagged op (Ping/Stats/Metrics), preferring the
    /// quiet-connection fast path: when `tag` is the window's only
    /// occupant and the writer has fully drained, no other reply can
    /// exist or appear (workers need an admitted tag, and only this
    /// reader admits), so the reader may claim the socket and write the
    /// reply itself — byte-identical, but without the writer-thread
    /// hand-off that costs two context switches per request on a busy
    /// single-core host. Serial tagged clients hit this path on every
    /// cheap request, matching v1's inline-answer cost.
    fn answer_cheap(
        &self,
        stream: &mut TcpStream,
        replies: &ReplySink,
        window: &TagWindow,
        writer: &mut LazyWriter,
        sole: bool,
        reply: TaggedReply,
    ) {
        if sole && replies.writer_idle() {
            self.fast_deliver(stream, window, reply);
            return;
        }
        writer.ensure();
        replies.send(reply);
    }

    /// Writes a reply on the reader thread, with the writer's exact
    /// observability (one `reply_wait` sample per request either way),
    /// then retires the tag. Only callable while the quiet-connection
    /// invariant holds: the tag is the window's sole occupant and the
    /// writer has fully drained, so nobody else can touch the socket.
    fn fast_deliver(&self, stream: &mut TcpStream, window: &TagWindow, reply: TaggedReply) {
        let write_start = deepn_trace::tick();
        self.counters
            .reply_wait_seconds
            .record_ns(write_start.saturating_sub(reply.done_ns));
        deepn_trace::record_span("serve.reply_wait", reply.done_ns, write_start);
        // A failed write surfaces on the next read as EOF/error.
        let _ = deliver_tagged_reply(
            stream,
            &reply,
            &self.counters,
            self.conn_id,
            self.config.slow_threshold,
        );
        window.release(reply.tag);
    }

    /// A fresh per-request budget, measured from now.
    fn deadline(&self) -> Option<(Duration, Instant)> {
        self.config.request_timeout.map(|t| (t, Instant::now() + t))
    }

    /// Runs one whole work request on the calling thread: a v1 request,
    /// or a small one on a quiet tagged connection. Records a zero-wait
    /// queue sample, so `queue_wait` keeps one sample per work request.
    fn run_inline(&self, work: WholeWork) -> (Vec<u8>, &'static str) {
        run_whole(
            work,
            self.deadline(),
            deepn_trace::tick(),
            &self.encoder,
            self.model.as_deref(),
            &self.counters,
        )
    }

    /// Parses a work op's payload into its whole request, for both
    /// framings.
    fn parse_work(&self, op: Opcode, payload: &[u8]) -> Result<WholeWork, ServeError> {
        let mut r = ByteReader::new(payload);
        match op {
            Opcode::EncodeBatch => {
                let count = r.len(8)?;
                let mut images = Vec::with_capacity(count);
                for _ in 0..count {
                    images.push(protocol::get_image(&mut r)?);
                }
                Ok(WholeWork::Encode(images))
            }
            Opcode::DecodeBatch => {
                let count = r.len(4)?;
                let mut blobs = Vec::with_capacity(count);
                for _ in 0..count {
                    blobs.push(protocol::get_blob(&mut r)?);
                }
                Ok(WholeWork::Decode(blobs))
            }
            Opcode::Classify => {
                if self.model.is_none() {
                    return Err(ServeError::Remote(
                        "service started without a model artifact".into(),
                    ));
                }
                let count = r.len(8)?;
                let mut images = Vec::with_capacity(count);
                for _ in 0..count {
                    images.push(protocol::get_image(&mut r)?);
                }
                Ok(WholeWork::Classify(images))
            }
            _ => Err(ServeError::Protocol(format!("op {op:?} is not batch work"))),
        }
    }

    /// Submits one whole tagged request to the bounded worker queue,
    /// honoring the per-request deadline during submission. Submission
    /// failures become typed replies on the writer; the tag is released
    /// once that reply is written.
    fn submit_whole(
        &self,
        work: WholeWork,
        tag: u32,
        replies: &ReplySink,
        req_id: u64,
        span: &'static str,
        start_ns: u64,
    ) {
        let deadline = self.deadline();
        let mut job = WholeJob {
            work,
            tag,
            reply: replies.clone(),
            deadline,
            submitted_ns: deepn_trace::tick(),
            start_ns,
            req_id,
            span,
        };
        match &deadline {
            None => {
                if self.job_tx.send(job).is_err() {
                    reject_tagged(
                        replies,
                        tag,
                        req_id,
                        span,
                        start_ns,
                        ServeError::Remote("service is shutting down".into()),
                        true,
                    );
                }
            }
            Some(d) => loop {
                match self.job_tx.try_send(job) {
                    Ok(()) => break,
                    Err(mpsc::TrySendError::Disconnected(_)) => {
                        reject_tagged(
                            replies,
                            tag,
                            req_id,
                            span,
                            start_ns,
                            ServeError::Remote("service is shutting down".into()),
                            true,
                        );
                        break;
                    }
                    Err(mpsc::TrySendError::Full(back)) => {
                        if Instant::now() >= d.1 {
                            self.counters.inc(Ctr::RequestsTimedOut);
                            reject_tagged(
                                replies,
                                tag,
                                req_id,
                                span,
                                start_ns,
                                ServeError::Timeout(format!(
                                    "request exceeded its {:?} budget",
                                    d.0
                                )),
                                true,
                            );
                            break;
                        }
                        job = back;
                        thread::sleep(Duration::from_millis(1));
                        // Queue wait measures queued time, not the
                        // submitter's backoff: restamp on each retry.
                        job.submitted_ns = deepn_trace::tick();
                    }
                }
            },
        }
    }

    /// Handles one `CompressStream` request after its begin frame: reads
    /// one raw-RGB frame per strip, feeds the per-connection streaming
    /// session, and returns the ok-payload carrying the JFIF blob. Strip
    /// frames bound the resident pixel memory to O(strip) no matter how
    /// large the image is; the per-request deadline covers the whole
    /// stream.
    fn compress_stream(
        &self,
        stream: &mut TcpStream,
        payload: &[u8],
        encoder: &Encoder,
        ws: &mut EncodeWorkspace,
        strip: &mut PixelStrip,
    ) -> Result<Vec<u8>, ServeError> {
        let mut r = ByteReader::new(payload);
        let width = r.u32()? as usize;
        let height = r.u32()? as usize;
        let deadline = self.deadline();
        let mut session = encoder
            .stream_encoder(width, height)
            .map_err(|e| ServeError::Remote(format!("compress-stream rejected: {e}")))?;
        let mut jfif = Vec::new();
        for s in 0..session.strip_count() {
            let frame = loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    return Err(ServeError::Remote("service is shutting down".into()));
                }
                if let Some((budget, end)) = &deadline {
                    if Instant::now() >= *end {
                        self.counters.inc(Ctr::RequestsTimedOut);
                        return Err(ServeError::Timeout(format!(
                            "stream exceeded its {budget:?} budget"
                        )));
                    }
                }
                match protocol::read_frame(stream) {
                    Ok(Some(frame)) => break frame,
                    Ok(None) => {
                        return Err(ServeError::Protocol(format!(
                            "peer closed after {s} of {} strips",
                            session.strip_count()
                        )))
                    }
                    Err(ServeError::Io(e))
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            };
            self.counters.add(Ctr::BytesIn, 4 + frame.len() as u64);
            strip
                .set_rows(width, session.strip_rows(s), &frame)
                .map_err(|e| ServeError::Protocol(e.to_string()))?;
            session
                .encode_strip(strip, ws)
                .map_err(|e| ServeError::Remote(format!("encode failed: {e}")))?;
            jfif.extend(session.take_output());
        }
        jfif.extend(
            session
                .finish()
                .map_err(|e| ServeError::Remote(format!("encode failed: {e}")))?,
        );
        self.counters.inc(Ctr::ImagesEncoded);
        let mut w = ByteWriter::new();
        protocol::put_blob(&mut w, &jfif);
        Ok(w.into_bytes())
    }

    /// Handles one `DecompressStream` request: parses the JFIF blob from
    /// the request payload, then frames the decoded image back as a begin
    /// frame (`status | u32 width | u32 height`) followed by one
    /// `status | raw RGB rows` frame per 8-row strip. The decoded image is
    /// never materialized — peak reply-side memory is one strip, no matter
    /// how large the image is.
    ///
    /// Every outcome (including mid-stream decode failures and deadline
    /// overruns) is delivered as a typed frame on an intact frame
    /// boundary, so the return value is `false` only when the peer is
    /// gone.
    fn decompress_stream(
        &self,
        stream: &mut TcpStream,
        payload: &[u8],
        decoder: &Decoder,
        ws: &mut DecodeWorkspace,
        strip: &mut PixelStrip,
        timer: &RequestTimer<'_>,
    ) -> bool {
        let deadline = self.deadline();
        let mut run = || -> Result<(), ServeError> {
            let mut r = ByteReader::new(payload);
            let jfif = protocol::get_blob(&mut r)?;
            let mut session = decoder
                .stream_decoder(&jfif)
                .map_err(|e| ServeError::Remote(format!("decode failed: {e}")))?;
            let mut begin = ByteWriter::new();
            begin.put_u8(STATUS_OK);
            begin.put_u32(session.width() as u32);
            begin.put_u32(session.height() as u32);
            if !self.write_reply(stream, begin.as_bytes()) {
                return Err(ServeError::Io(io::ErrorKind::BrokenPipe.into()));
            }
            let mut frame = Vec::new();
            loop {
                if self.shutdown.load(Ordering::SeqCst) {
                    return Err(ServeError::Remote("service is shutting down".into()));
                }
                if let Some((budget, end)) = &deadline {
                    if Instant::now() >= *end {
                        self.counters.inc(Ctr::RequestsTimedOut);
                        return Err(ServeError::Timeout(format!(
                            "stream exceeded its {budget:?} budget"
                        )));
                    }
                }
                let more = session
                    .next_strip(ws, strip)
                    .map_err(|e| ServeError::Remote(format!("decode failed: {e}")))?;
                if !more {
                    break;
                }
                frame.clear();
                frame.push(STATUS_OK);
                frame.extend_from_slice(strip.as_bytes());
                if !self.write_reply(stream, &frame) {
                    return Err(ServeError::Io(io::ErrorKind::BrokenPipe.into()));
                }
            }
            self.counters.inc(Ctr::ImagesDecoded);
            Ok(())
        };
        match run() {
            Ok(()) => true,
            Err(ServeError::Io(e)) => {
                timer.fail(&ServeError::Io(e));
                false
            }
            Err(e) => {
                // Every reply frame of this exchange leads with a status
                // byte, so a typed error frame in place of a strip frame
                // is unambiguous: the client stops reading strips there.
                timer.fail(&e);
                self.write_reply(stream, &error_reply(e))
            }
        }
    }

    /// Handles one v1 request frame, returning `(reply_body, shutdown)`.
    /// Work ops run whole and inline: a v1 connection is serial, so its
    /// thread would only wait for a worker anyway.
    fn handle(&self, body: &[u8]) -> (Vec<u8>, bool) {
        let reply = match split_op(body) {
            Err(e) => error_reply(e),
            Ok((Opcode::Shutdown, _)) => return (vec![STATUS_OK], true),
            Ok((op @ (Opcode::Ping | Opcode::Stats | Opcode::Metrics), _)) => self.cheap_reply(op),
            Ok((op @ (Opcode::EncodeBatch | Opcode::DecodeBatch | Opcode::Classify), payload)) => {
                match self.parse_work(op, payload) {
                    Ok(work) => self.run_inline(work).0,
                    Err(e) => error_reply(e),
                }
            }
            // The serve loop intercepts these: negotiation re-frames the
            // connection and the streaming ops own it for their strip
            // frames.
            Ok((Opcode::Hello | Opcode::CompressStream | Opcode::DecompressStream, _)) => {
                error_reply(ServeError::Protocol(
                    "Hello and the streaming ops are handled by the serve loop".into(),
                ))
            }
        };
        (reply, false)
    }

    /// The complete reply body of a cheap op (`Ping`, `Stats`, `Metrics`),
    /// shared by both framings. The `Stats` payload is the frozen
    /// eight-counter prefix, the config echo, then every trailing field
    /// in append order (docs/PROTOCOL.md — trailing fields are how
    /// `Stats` grows without shifting what old clients read).
    fn cheap_reply(&self, op: Opcode) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(STATUS_OK);
        let active = self.active.load(Ordering::SeqCst);
        match op {
            Opcode::Metrics => w.put_string(&self.counters.render(active as u64)),
            Opcode::Stats => {
                // The counter array's declaration order IS the wire order
                // (docs/PROTOCOL.md) — one source of truth for both.
                for v in self.counters.wire_counters() {
                    w.put_u64(v);
                }
                w.put_u32(active as u32);
                w.put_u32(self.config.workers as u32);
                w.put_u32(self.config.queue_depth as u32);
                w.put_u32(self.config.max_connections as u32);
                // 0 means "no deadline"; an enabled sub-millisecond budget
                // (e.g. `Some(Duration::ZERO)` in tests) reports as 1 so it
                // cannot masquerade as disabled.
                w.put_u64(
                    self.config
                        .request_timeout
                        .map_or(0, |t| (t.as_millis() as u64).max(1)),
                );
                w.put_u8(u8::from(self.model.is_some()));
                // Trailing fields, append-only past this point.
                w.put_u64(self.counters.get(Ctr::TaggedConnections));
                w.put_u64(self.counters.get(Ctr::TaggedRequests));
            }
            _ => {}
        }
        w.into_bytes()
    }
}

/// Splits a request body into its opcode and payload, for both framings.
fn split_op(body: &[u8]) -> Result<(Opcode, &[u8]), ServeError> {
    let (&b, payload) = body
        .split_first()
        .ok_or_else(|| ServeError::Protocol("empty request frame".into()))?;
    let op =
        Opcode::from_u8(b).ok_or_else(|| ServeError::Protocol(format!("unknown opcode {b}")))?;
    Ok((op, payload))
}

/// The span name for a request frame's opcode byte — static strings so
/// recording a span never allocates.
fn opcode_span_name(op: Option<u8>) -> &'static str {
    match op.and_then(Opcode::from_u8) {
        Some(Opcode::Ping) => "serve.request.ping",
        Some(Opcode::EncodeBatch) => "serve.request.encode_batch",
        Some(Opcode::DecodeBatch) => "serve.request.decode_batch",
        Some(Opcode::Classify) => "serve.request.classify",
        Some(Opcode::Stats) => "serve.request.stats",
        Some(Opcode::Shutdown) => "serve.request.shutdown",
        Some(Opcode::CompressStream) => "serve.request.compress_stream",
        Some(Opcode::Metrics) => "serve.request.metrics",
        Some(Opcode::DecompressStream) => "serve.request.decompress_stream",
        Some(Opcode::Hello) => "serve.request.hello",
        None => "serve.request.unknown",
    }
}

/// Observes one whole request on scope exit — read-to-reply wall time into
/// the request histogram, a per-opcode span, and the structured
/// `request` / `slow_request` / `request_timeout` / `request_error`
/// events — so every exit path of the serve loop's three handling
/// branches is covered by construction.
struct RequestTimer<'a> {
    metrics: &'a ServeMetrics,
    slow: Option<Duration>,
    name: &'static str,
    start_ns: u64,
    conn_id: u64,
    req_id: u64,
    status: Cell<&'static str>,
}

impl RequestTimer<'_> {
    /// The request's short opcode name (`ping`, `encode_batch`, ...).
    fn op(&self) -> &'static str {
        self.name
            .strip_prefix("serve.request.")
            .unwrap_or(self.name)
    }

    /// Records the request's outcome for the completion event.
    fn set_status(&self, status: &'static str) {
        self.status.set(status);
    }

    /// Records a typed failure as this request's outcome.
    fn fail(&self, e: &ServeError) {
        self.set_status(error_status(e));
    }
}

impl Drop for RequestTimer<'_> {
    fn drop(&mut self) {
        let end_ns = deepn_trace::tick();
        let dur_ns = end_ns.saturating_sub(self.start_ns);
        self.metrics.request_seconds.record_ns(dur_ns);
        deepn_trace::record_span(self.name, self.start_ns, end_ns);
        let status = self.status.get();
        let ms = format!("{:.3}", dur_ns as f64 / 1e6);
        log::trace("request")
            .field("conn_id", self.conn_id)
            .field("req_id", self.req_id)
            .field("op", self.op())
            .field("status", status)
            .field("ms", &ms)
            .emit();
        if matches!(status, "timeout" | "error") {
            let name = if status == "timeout" {
                "request_timeout"
            } else {
                "request_error"
            };
            log::warn(name)
                .field("conn_id", self.conn_id)
                .field("req_id", self.req_id)
                .field("op", self.op())
                .field("ms", &ms)
                .emit();
        }
        if let Some(t) = self.slow {
            if dur_ns >= t.as_nanos() as u64 {
                log::warn("slow_request")
                    .field("conn_id", self.conn_id)
                    .field("req_id", self.req_id)
                    .field("op", self.op())
                    .field("ms", &ms)
                    .field("threshold_ms", format!("{:.3}", t.as_nanos() as f64 / 1e6))
                    .emit();
            }
        }
    }
}

/// Renders an error as a typed reply body. Admission failures travel as
/// their own status bytes so clients can distinguish "back off" from
/// "request broken".
fn error_reply(e: ServeError) -> Vec<u8> {
    let (status, message) = match e {
        ServeError::Busy(m) => (STATUS_BUSY, m),
        ServeError::Timeout(m) => (STATUS_TIMEOUT, m),
        other => (STATUS_ERR, other.to_string()),
    };
    let mut w = ByteWriter::new();
    w.put_u8(status);
    w.put_string(&message);
    w.into_bytes()
}

/// Labels a batch in input order. Images of one geometry run as one
/// `[n, 3, h, w]` tensor, which `predict` splits across the shared pool;
/// a batch of mixed geometries runs one image at a time.
fn classify(net: &Sequential, images: &[RgbImage]) -> Vec<usize> {
    let Some(first) = images.first() else {
        return Vec::new();
    };
    let geometry = (first.width(), first.height());
    if images
        .iter()
        .all(|img| (img.width(), img.height()) == geometry)
    {
        net.predict(&images_to_tensor(images))
    } else {
        images
            .iter()
            .flat_map(|img| net.predict(&images_to_tensor(std::slice::from_ref(img))))
            .collect()
    }
}

/// Stacks same-geometry images into one batch tensor, normalized exactly
/// as `deepn_core::experiment::to_tensors` does, so a model trained by
/// the pipeline classifies service traffic identically.
fn images_to_tensor(images: &[RgbImage]) -> Tensor {
    let (w, h) = (images[0].width(), images[0].height());
    let mut chw = Vec::with_capacity(images.len() * 3 * w * h);
    for img in images {
        chw.extend(img.to_chw_f32());
    }
    for v in &mut chw {
        *v -= 0.5;
    }
    Tensor::from_vec(chw, &[images.len(), 3, h, w])
}

/// A tagged-window worker: runs whole requests off the bounded queue and
/// hands each finished reply to its connection's writer.
fn worker_loop(
    rx: &Mutex<Receiver<WholeJob>>,
    encoder: &Encoder,
    model: Option<&Sequential>,
    metrics: &ServeMetrics,
) {
    // Hold the lock only while dequeuing, not while working; every
    // sender gone (or a poisoned lock) ends the worker.
    while let Ok(Ok(job)) = rx.lock().map(|queue| queue.recv()) {
        let (body, status) = run_whole(
            job.work,
            job.deadline,
            job.submitted_ns,
            encoder,
            model,
            metrics,
        );
        job.reply.send(TaggedReply::done(
            job.tag,
            job.req_id,
            job.span,
            job.start_ns,
            body,
            status,
        ));
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".into())
}

/// The status label for a typed failure.
fn error_status(e: &ServeError) -> &'static str {
    match e {
        ServeError::Busy(_) => "busy",
        ServeError::Timeout(_) => "timeout",
        ServeError::Io(_) => "io",
        _ => "error",
    }
}

/// Enqueues a typed error reply for a tagged request on the connection's
/// writer. `release` is false when the failure must not retire the tag
/// (duplicate tags, pre-admission rejects).
fn reject_tagged(
    replies: &ReplySink,
    tag: u32,
    req_id: u64,
    span: &'static str,
    start_ns: u64,
    e: ServeError,
    release: bool,
) {
    let status = error_status(&e);
    replies.send(TaggedReply {
        release,
        ..TaggedReply::done(tag, req_id, span, start_ns, error_reply(e), status)
    });
}

/// The one request executor, for both framings and every thread that
/// runs work: tagged-window workers, and connection threads running a
/// request inline (every v1 request, small ones on a quiet tagged
/// connection). Returns the complete reply body (status byte included)
/// and its status label.
///
/// The deadline is checked before the batch starts and after it
/// completes, so a reply that finishes past its budget is a typed
/// timeout. Errors are chosen by item index, never by completion order,
/// and a panic costs this request, never the thread.
fn run_whole(
    work: WholeWork,
    deadline: Option<(Duration, Instant)>,
    submitted_ns: u64,
    encoder: &Encoder,
    model: Option<&Sequential>,
    metrics: &ServeMetrics,
) -> (Vec<u8>, &'static str) {
    let started_ns = deepn_trace::tick();
    metrics
        .queue_wait_seconds
        .record_ns(started_ns.saturating_sub(submitted_ns));
    deepn_trace::record_span("serve.queue_wait", submitted_ns, started_ns);
    let within_budget = || match &deadline {
        Some((budget, end)) if Instant::now() >= *end => Err(ServeError::Timeout(format!(
            "request exceeded its {budget:?} budget"
        ))),
        _ => Ok(()),
    };
    let (counter, images) = work.counter();
    // Dead on arrival (the deadline passed while queued) skips the work.
    let outcome = within_budget()
        .and_then(|()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(work, encoder, model)
            }))
            .unwrap_or_else(|panic| {
                Err(ServeError::Remote(format!(
                    "request rejected: {}",
                    panic_message(&panic)
                )))
            })
        })
        .and_then(|body| within_budget().map(|()| body));
    let reply = match outcome {
        Ok(body) => {
            metrics.add(counter, images);
            (body, "ok")
        }
        Err(e) => {
            if matches!(e, ServeError::Timeout(_)) {
                metrics.inc(Ctr::RequestsTimedOut);
            }
            let status = error_status(&e);
            (error_reply(e), status)
        }
    };
    let done_ns = deepn_trace::tick();
    metrics
        .execute_seconds
        .record_ns(done_ns.saturating_sub(started_ns));
    deepn_trace::record_span("serve.execute", started_ns, done_ns);
    reply
}

/// Runs a batch to its ok reply body. Its images fan out on the shared
/// pool; the first failing item *by index* fails the request.
fn execute(
    work: WholeWork,
    encoder: &Encoder,
    model: Option<&Sequential>,
) -> Result<Vec<u8>, ServeError> {
    let mut w = ByteWriter::new();
    w.put_u8(STATUS_OK);
    match work {
        WholeWork::Encode(images) => {
            let blobs = encoder.encode_batch(&images);
            w.put_len(blobs.len());
            for blob in blobs {
                let blob = blob.map_err(|e| ServeError::Remote(format!("encode failed: {e}")))?;
                protocol::put_blob(&mut w, &blob);
            }
        }
        WholeWork::Decode(blobs) => {
            let images = Decoder::new().decode_batch(&blobs);
            w.put_len(images.len());
            for img in images {
                let img = img.map_err(|e| ServeError::Remote(format!("decode failed: {e}")))?;
                protocol::put_image(&mut w, &img);
            }
        }
        WholeWork::Classify(images) => {
            let Some(net) = model else {
                return Err(ServeError::Remote("no model loaded".into()));
            };
            let labels = classify(net, &images);
            w.put_len(labels.len());
            for label in labels {
                w.put_u32(label as u32);
            }
        }
    }
    Ok(w.into_bytes())
}
