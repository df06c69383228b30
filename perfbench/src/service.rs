//! The service workloads: a `deepn serve` process (serve-churn) or a
//! `deepn shard --backends 1` fleet (front-churn) driven by two
//! closed-loop client threads — one v1 serial, one tagged and pipelined
//! with a window of 4 — that reconnect every 32 requests.
//!
//! The server's `Metrics` op is scraped only at fences before and after
//! the timed window, on a connection of its own opened while no load
//! thread runs, so the scraper never adds load to the window.

use crate::report::Metrics;
use crate::setup::{Inputs, Oracle, SetupTimes};
use crate::spans::SpanLog;
use crate::stats::{median, steal_ticks, Dist};
use crate::{peak_rss_mb, Config, Tally, Workload, SETUP_REPS};
use deepn_codec::RgbImage;
use deepn_serve::{Client, PipelineReply, ServeError};
use deepn_trace::prom::MetricsSeries;
use deepn_trace::tick;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Requests per connection before a client reconnects.
pub const REQUESTS_PER_CONNECTION: usize = 32;
/// The tagged client's pipeline window.
pub const TAGGED_WINDOW: usize = 4;
/// Load threads (and connections open at a time).
pub const CLIENTS: usize = 2;
/// Images per batch request.
pub const BATCH: usize = 2;

/// A started `deepn serve` or `deepn shard` process.
pub struct Process {
    child: std::process::Child,
    /// Client-facing address from the readiness line.
    pub addr: SocketAddr,
    /// Backend pids (front only), from the front's pid line.
    pub backend_pids: Vec<u32>,
    /// Seconds from spawn to the readiness line.
    pub ready_s: f64,
    reader: Option<JoinHandle<()>>,
}

/// Waits for a line containing `prefix` and returns the text after it.
fn await_line(lines: &Receiver<String>, prefix: &str, deadline: Instant) -> Result<String, String> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match lines.recv_timeout(left) {
            Ok(line) => {
                if let Some(at) = line.find(prefix) {
                    return Ok(line[at + prefix.len()..].to_owned());
                }
            }
            Err(_) => return Err(format!("no `{prefix}` line within the start-up budget")),
        }
    }
}

impl Process {
    /// Spawns `deepn serve` (or, with `front`, `deepn shard --backends
    /// 1`) on the tables artifact and waits until it reports readiness.
    pub fn start(
        deepn: &Path,
        front: bool,
        tables: &Path,
        traced: bool,
    ) -> Result<Process, String> {
        let tables = tables.to_string_lossy().into_owned();
        let mut cmd = Command::new(deepn);
        match front {
            true => cmd.args([
                "shard",
                "--tables",
                &tables,
                "--addr",
                "127.0.0.1:0",
                "--backends",
                "1",
                "--drain-secs",
                "1",
            ]),
            false => cmd.args(["serve", "--tables", &tables, "--addr", "127.0.0.1:0"]),
        };
        if traced {
            cmd.env("DEEPN_TRACE", "1");
        } else {
            cmd.env_remove("DEEPN_TRACE");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", deepn.display()))?;
        let stdout = child.stdout.take().ok_or("child stdout not piped")?;
        let (tx, rx) = mpsc::channel();
        // Drains stdout for the child's whole life, so a chatty child can
        // never block on a full pipe.
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut process = Process {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            backend_pids: Vec::new(),
            ready_s: 0.0,
            reader: Some(reader),
        };
        let deadline = t0 + Duration::from_secs(60);
        let prefix = match front {
            true => "deepn-front listening on ",
            false => "deepn-serve listening on ",
        };
        let rest = await_line(&rx, prefix, deadline)?;
        process.ready_s = t0.elapsed().as_secs_f64();
        let addr = rest.split_whitespace().next().unwrap_or_default();
        process.addr = addr
            .parse()
            .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
        if front {
            let pids = await_line(&rx, "deepn-front backend pids: ", deadline)?;
            process.backend_pids = pids
                .split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect();
        }
        Ok(process)
    }

    /// The process's pid and its backends' pids.
    pub fn pids(&self) -> Vec<u32> {
        std::iter::once(self.child.id())
            .chain(self.backend_pids.iter().copied())
            .collect()
    }

    /// Peak resident set of the process (and its backends), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.pids().into_iter().map(|p| peak_rss_mb(Some(p))).sum()
    }

    /// Asks the process to shut down and waits for it (and its backends)
    /// to exit, killing what is still alive after a grace period.
    pub fn stop(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    /// Kills whatever is still running and reaps it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in std::mem::take(&mut self.backend_pids) {
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One fence scrape of the `Metrics` op into `series`.
fn fence(addr: SocketAddr, series: &mut MetricsSeries) -> Result<(), String> {
    let text = Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| format!("fence scrape failed: {e}"))?;
    series.push(tick(), &text)
}

/// One request of the op mix.
#[derive(Debug, Clone, Copy)]
enum Op {
    Ping,
    Encode(usize),
    Decode(usize),
    Stats,
}

/// The shared, read-only traffic: images, their oracle bytes, and the
/// per-seed offsets into the op mix.
pub struct Traffic {
    images: Vec<RgbImage>,
    oracle: Oracle,
    phase: usize,
}

impl Traffic {
    /// Traffic over `images` for `seed`.
    pub fn new(
        images: &[RgbImage],
        tables: &deepn_codec::QuantTablePair,
        seed: u64,
    ) -> Result<Traffic, String> {
        Ok(Traffic {
            images: images.to_vec(),
            oracle: Oracle::compute(images, tables)?,
            phase: seed as usize,
        })
    }

    fn pairs(&self) -> usize {
        self.images.len() / BATCH
    }

    /// The `k`-th op of a client's sequence: a cycle of Ping, Encode,
    /// Decode, Stats, Encode, Decode, batches walking the image pairs.
    ///
    /// Ping and Stats are a third of the mix, not a half, so the median
    /// request lands inside the decode group instead of on the edge
    /// between the fast and the codec ops, where it would jump with the
    /// seed. The cycle of 6 also does not divide
    /// [`REQUESTS_PER_CONNECTION`], so the first request of a connection
    /// (the one that waits for the server's accept) rotates over op kinds.
    fn op(&self, k: usize) -> Op {
        let k = k + self.phase;
        let pair = (k / 2) % self.pairs();
        match k % 6 {
            0 => Op::Ping,
            1 | 4 => Op::Encode(pair),
            2 | 5 => Op::Decode(pair),
            _ => Op::Stats,
        }
    }

    fn pair_images(&self, p: usize) -> &[RgbImage] {
        &self.images[p * BATCH..(p + 1) * BATCH]
    }

    fn pair_streams(&self, p: usize) -> &[Vec<u8>] {
        &self.oracle.encoded[p * BATCH..(p + 1) * BATCH]
    }

    /// Whether `reply` is byte-equal to what the local codec produces.
    /// Ping and Stats carry no codec output; a well-formed reply passes.
    fn check(&self, op: Op, reply: &PipelineReply) -> bool {
        match (op, reply) {
            (Op::Ping, PipelineReply::Pong) | (Op::Stats, PipelineReply::Stats(_)) => true,
            (Op::Encode(p), PipelineReply::Encoded(got)) => got.as_slice() == self.pair_streams(p),
            (Op::Decode(p), PipelineReply::Decoded(got)) => {
                got.as_slice() == &self.oracle.decoded[p * BATCH..(p + 1) * BATCH]
            }
            _ => false,
        }
    }

    /// `(direction, pixels)` of a codec op: direction 0 encodes, 1 decodes.
    fn codec_work(&self, op: Op) -> Option<(usize, u64)> {
        let px = |p: usize| {
            self.pair_images(p)
                .iter()
                .map(|i| i.pixel_count() as u64)
                .sum()
        };
        match op {
            Op::Encode(p) => Some((0, px(p))),
            Op::Decode(p) => Some((1, px(p))),
            _ => None,
        }
    }
}

/// One load thread's outcome.
#[derive(Default)]
pub struct ClientLog {
    lat_ns: Vec<u64>,
    connect_ns: Vec<u64>,
    tcp_ns: Vec<u64>,
    hello_ns: Vec<u64>,
    first_reply_ns: Vec<u64>,
    tally: Tally,
    /// Requests the server answered (ok or typed error).
    answered: u64,
    /// Server-counted requests no op accounts for: Hellos, replays,
    /// tag-split batch parts.
    extra: u64,
    /// Megapixels per second of request time of each checked codec
    /// reply, encode then decode.
    rates: [Vec<f64>; 2],
    /// Connections opened.
    connections: u64,
    /// The samples of the connections the hypervisor left alone.
    quiet: Quiet,
    /// Counts successful requests toward the peak-RSS reading.
    probe: Option<Arc<RssProbe>>,
    spans: SpanLog,
}

/// Successful requests after which the server's peak RSS is read.
pub const RSS_AFTER_REQUESTS: u64 = 30_000;

/// Reads the server's peak RSS once the clients have completed
/// [`RSS_AFTER_REQUESTS`] requests. The server's memory grows with the
/// requests it serves, so a reading at the end of the window would
/// depend on how many requests the window had room for, which the
/// hypervisor's steal decides as much as the server does.
pub struct RssProbe {
    pids: Vec<u32>,
    ok: AtomicU64,
    mb: Mutex<Option<f64>>,
}

impl RssProbe {
    fn new(pids: Vec<u32>) -> Arc<RssProbe> {
        Arc::new(RssProbe {
            pids,
            ok: AtomicU64::new(0),
            mb: Mutex::new(None),
        })
    }

    /// Counts one successful request; the one that reaches the mark
    /// takes the reading.
    fn count(&self) {
        if self.ok.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
            let mb: Result<f64, String> = self.pids.iter().map(|&p| peak_rss_mb(Some(p))).sum();
            if let (Ok(mb), Ok(mut slot)) = (mb, self.mb.lock()) {
                *slot = Some(mb);
            }
        }
    }

    /// The reading, if the mark was reached.
    fn reading(&self) -> Option<f64> {
        *self.mb.lock().ok()?
    }
}

/// Samples from the connections during which the machine's CPU steal
/// counter did not move (see [`steal_ticks`]): the end-to-end metrics
/// come from these, so a run measures the service, not how long the
/// hypervisor held the CPUs. Without steal every connection is quiet.
#[derive(Default)]
struct Quiet {
    lat_ns: Vec<u64>,
    connect_ns: Vec<u64>,
    rates: [Vec<f64>; 2],
    /// Summed lifetime of the quiet connections.
    busy_ns: u64,
    connections: u64,
}

/// Where a connection's samples start in its [`ClientLog`].
struct ConnMark {
    steal: u64,
    t0: u64,
    lat: usize,
    connect: usize,
    rates: [usize; 2],
}

impl ClientLog {
    /// Marks the start of a connection; its `t0` is the connection's start.
    fn open_connection(&mut self) -> ConnMark {
        self.connections += 1;
        ConnMark {
            steal: steal_ticks(),
            t0: tick(),
            lat: self.lat_ns.len(),
            connect: self.connect_ns.len(),
            rates: [self.rates[0].len(), self.rates[1].len()],
        }
    }

    /// Ends the connection opened at `mark`, keeping its samples as quiet
    /// when the steal counter did not move; returns its end time.
    fn close_connection(&mut self, mark: &ConnMark) -> u64 {
        let t_end = tick();
        if steal_ticks() == mark.steal {
            let q = &mut self.quiet;
            q.lat_ns.extend_from_slice(&self.lat_ns[mark.lat..]);
            q.connect_ns
                .extend_from_slice(&self.connect_ns[mark.connect..]);
            for (dir, from) in mark.rates.iter().enumerate() {
                q.rates[dir].extend_from_slice(&self.rates[dir][*from..]);
            }
            q.busy_ns += t_end - mark.t0;
            q.connections += 1;
        }
        t_end
    }

    /// Tallies one request submitted at `ts` whose reply (or failure)
    /// arrived at `te`.
    fn outcome(
        &mut self,
        traffic: &Traffic,
        op: Op,
        reply: Result<PipelineReply, ServeError>,
        (ts, te): (u64, u64),
    ) {
        self.tally.attempted += 1;
        match reply {
            Ok(r) => {
                self.answered += 1;
                if traffic.check(op, &r) {
                    self.lat_ns.push(te - ts);
                    if let Some(probe) = &self.probe {
                        probe.count();
                    }
                    if let Some((dir, px)) = traffic.codec_work(op) {
                        self.rates[dir].push(px as f64 * 1e3 / (te - ts) as f64);
                    }
                } else {
                    self.tally.failed += 1;
                }
            }
            Err(ServeError::Remote(_) | ServeError::Busy(_) | ServeError::Timeout(_)) => {
                self.answered += 1;
                self.tally.failed += 1;
            }
            Err(_) => self.tally.failed += 1,
        }
    }

    fn absorb(&mut self, o: ClientLog) {
        self.lat_ns.extend(o.lat_ns);
        self.connect_ns.extend(o.connect_ns);
        self.tcp_ns.extend(o.tcp_ns);
        self.hello_ns.extend(o.hello_ns);
        self.first_reply_ns.extend(o.first_reply_ns);
        self.tally.absorb(&o.tally);
        self.answered += o.answered;
        self.extra += o.extra;
        for (mine, theirs) in self.rates.iter_mut().zip(o.rates) {
            mine.extend(theirs);
        }
        self.connections += o.connections;
        self.quiet.lat_ns.extend(o.quiet.lat_ns);
        self.quiet.connect_ns.extend(o.quiet.connect_ns);
        for (mine, theirs) in self.quiet.rates.iter_mut().zip(o.quiet.rates) {
            mine.extend(theirs);
        }
        self.quiet.busy_ns += o.quiet.busy_ns;
        self.quiet.connections += o.quiet.connections;
        self.spans.absorb(o.spans);
    }
}

/// One v1 request on `client`.
fn call_v1(client: &mut Client, traffic: &Traffic, op: Op) -> Result<PipelineReply, ServeError> {
    Ok(match op {
        Op::Ping => client.ping().map(|()| PipelineReply::Pong)?,
        Op::Encode(p) => PipelineReply::Encoded(client.encode_batch(traffic.pair_images(p))?),
        Op::Decode(p) => PipelineReply::Decoded(client.decode_batch(traffic.pair_streams(p))?),
        Op::Stats => PipelineReply::Stats(client.stats()?),
    })
}

/// The v1 serial client: one request at a time, a fresh connection every
/// [`REQUESTS_PER_CONNECTION`] requests.
fn v1_client(addr: SocketAddr, traffic: &Traffic, until: Instant, mut log: ClientLog) -> ClientLog {
    let mut k = 0usize;
    while Instant::now() < until {
        let conn = log.spans.id();
        let mark = log.open_connection();
        let t0 = mark.t0;
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                log.tally.attempted += 1;
                log.tally.failed += 1;
                continue;
            }
        };
        let t1 = tick();
        log.tcp_ns.push(t1 - t0);
        log.spans
            .record(log.spans.id(), "client.connect", conn, conn, (t0, t1));
        for j in 0..REQUESTS_PER_CONNECTION {
            if j > 0 && Instant::now() >= until {
                break;
            }
            let op = traffic.op(k);
            k += 1;
            let ts = tick();
            let reply = call_v1(&mut client, traffic, op);
            let te = tick();
            log.spans
                .record(log.spans.id(), "client.v1.request", conn, conn, (ts, te));
            if j == 0 {
                log.connect_ns.push(te - t0);
                log.first_reply_ns.push(te - t1);
            }
            log.outcome(traffic, op, reply, (ts, te));
        }
        log.extra += client.replays() + client.split_requests();
        let t_end = log.close_connection(&mark);
        log.spans
            .record(conn, "client.v1.connection", 0, conn, (t0, t_end));
    }
    log
}

/// Submits one op on a tagged pipeline.
fn submit(
    pipe: &mut deepn_serve::Pipeline<'_>,
    traffic: &Traffic,
    op: Op,
) -> Result<(), ServeError> {
    match op {
        Op::Ping => pipe.submit_ping(),
        Op::Encode(p) => pipe.submit_encode_batch(traffic.pair_images(p)),
        Op::Decode(p) => pipe.submit_decode_batch(traffic.pair_streams(p)),
        Op::Stats => pipe.submit_stats(),
    }
}

/// The tagged client: negotiates tagged framing after each connect and
/// keeps [`TAGGED_WINDOW`] requests in flight.
fn tagged_client(
    addr: SocketAddr,
    traffic: &Traffic,
    until: Instant,
    mut log: ClientLog,
) -> ClientLog {
    // Offset the op sequence so the two clients do not move in lockstep.
    let mut k = 2usize;
    while Instant::now() < until {
        let conn = log.spans.id();
        let mark = log.open_connection();
        let t0 = mark.t0;
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => {
                log.tally.attempted += 1;
                log.tally.failed += 1;
                continue;
            }
        };
        let t1 = tick();
        let granted = client.upgrade_tagged();
        let t2 = tick();
        log.tcp_ns.push(t1 - t0);
        log.hello_ns.push(t2 - t1);
        log.spans
            .record(log.spans.id(), "client.connect", conn, conn, (t0, t1));
        log.spans
            .record(log.spans.id(), "client.hello", conn, conn, (t1, t2));
        if !matches!(granted, Ok(true)) {
            log.tally.attempted += 1;
            log.tally.failed += 1;
            continue;
        }
        let mut inflight: VecDeque<(Op, u64)> = VecDeque::with_capacity(TAGGED_WINDOW);
        let mut submitted = 0usize;
        let mut first = true;
        {
            let mut pipe = client.pipeline(TAGGED_WINDOW);
            loop {
                while inflight.len() < TAGGED_WINDOW
                    && submitted < REQUESTS_PER_CONNECTION
                    && (submitted == 0 || Instant::now() < until)
                {
                    let op = traffic.op(k);
                    k += 1;
                    submitted += 1;
                    let ts = tick();
                    if let Err(e) = submit(&mut pipe, traffic, op) {
                        log.outcome(traffic, op, Err(e), (ts, ts));
                        continue;
                    }
                    inflight.push_back((op, ts));
                }
                let Some((op, ts)) = inflight.pop_front() else {
                    break;
                };
                let reply = pipe.recv();
                let te = tick();
                log.spans.record(
                    log.spans.id(),
                    "client.tagged.request",
                    conn,
                    conn,
                    (ts, te),
                );
                if first {
                    first = false;
                    log.connect_ns.push(te - t0);
                    log.first_reply_ns.push(te - t2);
                }
                let fatal = matches!(reply, Err(ServeError::Io(_) | ServeError::Protocol(_)));
                log.outcome(traffic, op, reply, (ts, te));
                if fatal {
                    for (op, ts) in inflight.drain(..) {
                        log.outcome(
                            traffic,
                            op,
                            Err(ServeError::Protocol("pipeline died".into())),
                            (ts, te),
                        );
                    }
                    break;
                }
            }
        }
        log.extra += client.hellos_sent() + client.replays() + client.split_requests();
        let t_end = log.close_connection(&mark);
        log.spans
            .record(conn, "client.tagged.connection", 0, conn, (t0, t_end));
    }
    log
}

/// One load phase: both clients' logs and when it ran.
struct Load {
    v1: ClientLog,
    tagged: ClientLog,
    start_ns: u64,
    end_ns: u64,
}

impl Load {
    /// Successful requests per second: each client's successful requests
    /// per second of its quiet connections' lifetime, summed over the
    /// clients. `None` when a client had no quiet connection.
    fn rps(&self) -> Option<f64> {
        let rate = |c: &ClientLog| {
            (c.quiet.busy_ns > 0)
                .then(|| c.quiet.lat_ns.len() as f64 * 1e9 / c.quiet.busy_ns as f64)
        };
        Some(rate(&self.v1)? + rate(&self.tagged)?)
    }

    /// Client-observed codec speed in direction `dir` (0 encode, 1
    /// decode): the median over quiet v1 requests of pixels per second of
    /// request time. Only the serial client's requests count: a tagged
    /// request's time includes its wait behind the rest of the window,
    /// and a median over both populations would sit on the edge between
    /// them.
    fn mpix_s(&self, dir: usize) -> Option<f64> {
        median(&self.v1.quiet.rates[dir])
    }

    /// Provenance note: quiet connections out of all, per client.
    fn quiet_note(&self) -> String {
        format!(
            "v1 {}/{} tagged {}/{}",
            self.v1.quiet.connections,
            self.v1.connections,
            self.tagged.quiet.connections,
            self.tagged.connections
        )
    }
}

/// Both load threads for `seconds`; their outcomes are added to `tally`.
fn load(
    addr: SocketAddr,
    traffic: &Arc<Traffic>,
    seconds: f64,
    traced: bool,
    probe: Option<&Arc<RssProbe>>,
    tally: &mut Tally,
) -> Result<Load, String> {
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let spawn = |tagged: bool| {
        let (traffic, barrier) = (Arc::clone(traffic), Arc::clone(&barrier));
        let log = ClientLog {
            spans: SpanLog::new(traced),
            probe: probe.cloned(),
            ..ClientLog::default()
        };
        thread::spawn(move || {
            barrier.wait();
            let until = Instant::now() + Duration::from_secs_f64(seconds);
            if tagged {
                tagged_client(addr, &traffic, until, log)
            } else {
                v1_client(addr, &traffic, until, log)
            }
        })
    };
    let (v1, tagged) = (spawn(false), spawn(true));
    barrier.wait();
    let start_ns = tick();
    let v1 = v1.join().map_err(|_| "v1 client panicked")?;
    let tagged = tagged.join().map_err(|_| "tagged client panicked")?;
    tally.absorb(&v1.tally);
    tally.absorb(&tagged.tally);
    Ok(Load {
        v1,
        tagged,
        start_ns,
        end_ns: tick(),
    })
}

/// Runs a service workload and fills `m`.
pub fn run(
    cfg: &Config,
    m: &mut Metrics,
    spans: &mut SpanLog,
) -> Result<(Tally, Inputs, SetupTimes), String> {
    let front = cfg.workload == Workload::FrontChurn;
    let tables_path = crate::tables_path(cfg);
    let mut setup_total = Vec::new();
    let mut setup_layers = Vec::new();
    let mut ready = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some((p, _)) = last.take() {
            Process::stop(p);
        }
        let (inputs, times) = crate::setup::build(cfg.seed, false, &tables_path)?;
        let process = Process::start(&cfg.deepn, front, &tables_path, false)?;
        setup_total.push(times.total() + process.ready_s);
        setup_layers.push(times);
        ready.push(process.ready_s);
        last = Some((process, inputs));
    }
    let (mut process, inputs) = last.ok_or("no set-up ran")?;
    let setup = crate::setup::median_times(&setup_layers);
    let traffic = Arc::new(Traffic::new(
        inputs.dataset.images(),
        &inputs.tables,
        cfg.seed,
    )?);
    let mut tally = Tally::default();
    // Warm-up: connections, worker workspaces, and caches.
    load(process.addr, &traffic, 0.3, false, None, &mut tally)?;

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut base_rps = None;
    if cfg.trace {
        // Untraced half: the overhead baseline. Then a traced process.
        base_rps = load(process.addr, &traffic, seconds, false, None, &mut tally)?.rps();
        process.stop();
        process = Process::start(&cfg.deepn, front, &tables_path, true)?;
        load(process.addr, &traffic, 0.3, true, None, &mut tally)?;
    }

    let mut series = MetricsSeries::new();
    let probe = RssProbe::new(process.pids());
    fence(process.addr, &mut series)?;
    let run = load(
        process.addr,
        &traffic,
        seconds,
        cfg.trace,
        Some(&probe),
        &mut tally,
    )?;
    fence(process.addr, &mut series)?;
    let rss = match probe.reading() {
        Some(mb) => {
            m.notes.push((
                "peak_rss_at".into(),
                format!("{RSS_AFTER_REQUESTS} requests"),
            ));
            mb
        }
        None => {
            m.notes.push(("peak_rss_at".into(), "end of window".into()));
            process.peak_rss_mb()?
        }
    };
    process.stop();
    let run_rps = run.rps();

    // The end-to-end metrics come from the quiet connections. The latency
    // tails are per-layer metrics over every connection, printed from the
    // traced half on a traced run.
    m.notes.push(("quiet_connections".into(), run.quiet_note()));
    m.opt("encode_mpix_s", run.mpix_s(0), "no quiet encode replies");
    m.opt("decode_mpix_s", run.mpix_s(1), "no quiet decode replies");
    m.set("compression_ratio", traffic.oracle.compression_ratio());
    m.opt("rps", run_rps, "a client had no quiet connection");
    let concat = |a: &[u64], b: &[u64]| [a, b].concat();
    let quiet_connect = concat(&run.v1.quiet.connect_ns, &run.tagged.quiet.connect_ns);
    let connect = concat(&run.v1.connect_ns, &run.tagged.connect_ns);
    for (metric, samples, want) in [
        ("v1_lat_p50_us", &run.v1.quiet.lat_ns, 50.0),
        ("v1_lat_p99_us", &run.v1.lat_ns, 99.0),
        ("tagged_lat_p50_us", &run.tagged.quiet.lat_ns, 50.0),
        ("tagged_lat_p99_us", &run.tagged.lat_ns, 99.0),
        ("connect_p50_us", &quiet_connect, 50.0),
        ("connect_p99_us", &connect, 99.0),
    ] {
        m.tail(metric, Dist::from_ns(samples).tail(want), "no replies");
    }
    m.set("peak_rss_mb", rss);
    m.set("setup_s", median(&setup_total).unwrap_or(f64::NAN));
    if !cfg.trace {
        return Ok((tally, inputs, setup));
    }

    layers(front, m, &series, run, &traffic, &ready, spans);
    if let (Some(base), Some(traced)) = (base_rps, run_rps) {
        m.set("trace.overhead_share", 1.0 - traced / base);
    }
    Ok((tally, inputs, setup))
}

/// A short traced window of the serve-churn traffic (or, with `front`,
/// the front-churn traffic) on a freshly started process, so that the
/// traced run of another workload sources the service layers too. Fills
/// `m` with the per-layer metrics of that window.
pub fn probe(
    cfg: &Config,
    front: bool,
    inputs: &Inputs,
    seconds: f64,
    m: &mut Metrics,
    spans: &mut SpanLog,
) -> Result<Tally, String> {
    let traffic = Arc::new(Traffic::new(
        inputs.dataset.images(),
        &inputs.tables,
        cfg.seed,
    )?);
    let process = Process::start(&cfg.deepn, front, &crate::tables_path(cfg), true)?;
    let mut tally = Tally::default();
    load(process.addr, &traffic, 0.3, true, None, &mut tally)?;
    let mut series = MetricsSeries::new();
    fence(process.addr, &mut series)?;
    let run = load(process.addr, &traffic, seconds, true, None, &mut tally)?;
    fence(process.addr, &mut series)?;
    let ready = [process.ready_s];
    process.stop();
    layers(front, m, &series, run, &traffic, &ready, spans);
    Ok(tally)
}

/// Microseconds of a window-delta histogram quantile, if the window saw
/// observations.
fn hist_us(series: &MetricsSeries, name: &str, q: f64) -> Option<f64> {
    let count = series.histogram_delta_count(name)?;
    if count <= 0.0 {
        return None;
    }
    series.histogram_delta_quantile(name, q).map(|s| s * 1e6)
}

/// Per-layer metrics of a traced service window between the fence
/// scrapes in `series`; the window's client spans move to `spans`.
fn layers(
    front: bool,
    m: &mut Metrics,
    series: &MetricsSeries,
    run: Load,
    traffic: &Traffic,
    ready: &[f64],
    spans: &mut SpanLog,
) {
    const NO_OBS: &str = "no observations in the window";
    let window_s = (run.end_ns - run.start_ns) as f64 / 1e9;
    let (v1_lat, tagged_lat) = (
        Dist::from_ns(&run.v1.lat_ns),
        Dist::from_ns(&run.tagged.lat_ns),
    );
    let mut all = run.v1;
    all.absorb(run.tagged);
    spans.absorb(std::mem::take(&mut all.spans));
    for (metric, hist, q) in [
        ("serve.request_p50_us", "deepn_serve_request_seconds", 0.5),
        ("serve.request_p99_us", "deepn_serve_request_seconds", 0.99),
        (
            "serve.queue_wait_p50_us",
            "deepn_serve_queue_wait_seconds",
            0.5,
        ),
        (
            "serve.queue_wait_p99_us",
            "deepn_serve_queue_wait_seconds",
            0.99,
        ),
        ("serve.execute_p50_us", "deepn_serve_execute_seconds", 0.5),
        ("serve.execute_p99_us", "deepn_serve_execute_seconds", 0.99),
        (
            "serve.reply_write_p50_us",
            "deepn_serve_reply_write_seconds",
            0.5,
        ),
        (
            "serve.reply_wait_p50_us",
            "deepn_serve_reply_wait_seconds",
            0.5,
        ),
    ] {
        m.opt(metric, hist_us(series, hist, q), NO_OBS);
    }
    let server_p50 = hist_us(series, "deepn_serve_request_seconds", 0.5);
    let minus = |client: Option<f64>| Some(client? - server_p50?);
    m.opt(
        "serve.v1.unattributed_p50_us",
        minus(v1_lat.p(50.0)),
        NO_OBS,
    );
    m.opt(
        "serve.tagged.unattributed_p50_us",
        minus(tagged_lat.p(50.0)),
        NO_OBS,
    );
    m.opt(
        "serve.tcp_connect_p50_us",
        Dist::from_ns(&all.tcp_ns).p(50.0),
        "no connections",
    );
    m.opt(
        "serve.first_reply_p50_us",
        Dist::from_ns(&all.first_reply_ns).p(50.0),
        "no connections",
    );
    m.opt(
        "serve.hello_p50_us",
        Dist::from_ns(&all.hello_ns).p(50.0),
        "no Hello exchanged",
    );

    let requests = series.counter_delta("deepn_serve_requests_total");
    let bytes = || {
        Some(
            series.counter_delta("deepn_serve_bytes_in_total")?
                + series.counter_delta("deepn_serve_bytes_out_total")?,
        )
    };
    m.opt(
        "serve.bytes_per_request",
        requests.and_then(|r| Some(bytes()? / r)),
        NO_OBS,
    );
    // Loadgen accounting: every answered op is one server-counted request,
    // plus Hellos/replays/split parts, plus the closing fence scrape (the
    // opening one predates the window).
    let expected = (all.answered + all.extra + 1) as f64;
    m.opt(
        "serve.reconcile_gap",
        requests.map(|r| r - expected),
        "requests counter missing",
    );

    // The codec stage histograms, per-image call times, and pool-vs-scalar
    // ratios are not in the scrape (`deepn serve` does not enable
    // profiling): the in-process codec probe sources them.
    if let Some((h, s)) = traffic.oracle.header_scan_bytes() {
        m.set("codec.header_bytes_per_image", h);
        m.set("codec.scan_bytes_per_image", s);
    }
    let images = || {
        Some(
            series.counter_delta("deepn_serve_images_encoded_total")?
                + series.counter_delta("deepn_serve_images_decoded_total")?,
        )
    };
    let steals = series.counter_delta("deepn_parallel_steals_total");
    m.opt(
        "parallel.steals_per_image",
        steals.and_then(|s| Some(s / images()?)),
        "steal counter not in the scrape",
    );
    let workers = deepn_parallel::worker_busy_ns().len() as f64;
    let busy = series.counter_delta("deepn_parallel_worker_busy_ns_total");
    m.opt(
        "parallel.busy_share",
        busy.filter(|_| workers > 0.0)
            .map(|b| b / (window_s * 1e9 * workers)),
        "pool busy counter not in the scrape",
    );

    // The front starts its backend itself, so front-churn leaves
    // `serve.ready_s` to the serve probe; serve-churn leaves `front.*` to
    // the front probe.
    if front {
        let client_p50 = Dist::from_ns(&all.lat_ns).p(50.0);
        m.opt("front.unattributed_p50_us", minus(client_p50), NO_OBS);
        m.opt(
            "front.connections",
            series.counter_delta("deepn_front_connections_total"),
            "front counter missing",
        );
        m.opt(
            "front.failovers",
            series.counter_delta("deepn_front_failovers_total"),
            "front counter missing",
        );
        m.opt(
            "front.restarts",
            series.counter_delta("deepn_front_backend_restarts_total"),
            "front counter missing",
        );
        m.opt("front.ready_s", median(ready), "no start-up timed");
    } else {
        m.opt("serve.ready_s", median(ready), "no start-up timed");
    }
}
