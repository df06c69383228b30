//! The codec workloads: one caller thread loops
//! `Encoder::encode_with` / `Decoder::decode_with` over the images, each
//! output checked against the scalar oracle.
//!
//! In-process there is no connection, so the request-shaped end-to-end
//! metrics mean: `v1_lat_*` one encode call, `tagged_lat_*` one decode
//! call, `connect_*` one image's whole round trip (encode then decode),
//! and `rps` image round trips per second at the median round trip.

use crate::report::Metrics;
use crate::setup::{Inputs, Oracle};
use crate::spans::SpanLog;
use crate::stats::{beyond, median, Dist, MIN_BEYOND};
use crate::{peak_rss_mb, Config, Tally};
use deepn_codec::profile::{self, Stage};
use deepn_codec::{DecodeWorkspace, Decoder, EncodeWorkspace, Encoder, RgbImage};
use deepn_trace::{tick, Reading};
use std::time::{Duration, Instant};

/// The caller: codec state reused across every image, as a real caller
/// compressing a stream of images would keep it.
struct Caller<'a> {
    images: &'a [RgbImage],
    oracle: &'a Oracle,
    encoder: Encoder,
    decoder: Decoder,
    ews: EncodeWorkspace,
    dws: DecodeWorkspace,
    /// Next image index (round-robin).
    next: usize,
}

/// What one timed pass over the images measured, per checked image.
#[derive(Debug, Default)]
struct Pass {
    enc_ns: Vec<u64>,
    dec_ns: Vec<u64>,
    trip_ns: Vec<u64>,
    pixels: Vec<u64>,
    /// Component 8×8 blocks encoded (and decoded), 4:4:4.
    blocks: u64,
    wall_ns: u64,
    tally: Tally,
}

impl Pass {
    /// Median over calls of megapixels per second of call time.
    fn mpix_s(&self, call_ns: &[u64]) -> f64 {
        let rates: Vec<f64> = self
            .pixels
            .iter()
            .zip(call_ns)
            .map(|(&px, &ns)| px as f64 * 1e3 / ns as f64)
            .collect();
        median(&rates).unwrap_or(f64::NAN)
    }

    fn encode_mpix_s(&self) -> f64 {
        self.mpix_s(&self.enc_ns)
    }

    fn decode_mpix_s(&self) -> f64 {
        self.mpix_s(&self.dec_ns)
    }

    fn images(&self) -> u64 {
        self.trip_ns.len() as u64
    }
}

impl Caller<'_> {
    /// Encodes then decodes images round-robin for `seconds`, checking
    /// every output against the oracle.
    fn pass(&mut self, seconds: f64, spans: &mut SpanLog) -> Pass {
        let mut p = Pass::default();
        let workload = spans.id();
        let t_begin = tick();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let i = self.next % self.images.len();
            self.next += 1;
            let img = &self.images[i];
            let (image_span, enc_span, dec_span) = (spans.id(), spans.id(), spans.id());
            let t0 = tick();
            let encoded = self.encoder.encode_with(img, &mut self.ews);
            let t1 = tick();
            p.tally.attempted += 1;
            let bytes = match encoded {
                Ok(b) if b == self.oracle.encoded[i] => b,
                _ => {
                    p.tally.failed += 1;
                    continue;
                }
            };
            let t2 = tick();
            let decoded = self.decoder.decode_with(&bytes, &mut self.dws);
            let t3 = tick();
            p.tally.attempted += 1;
            if !matches!(&decoded, Ok(d) if *d == self.oracle.decoded[i]) {
                p.tally.failed += 1;
                continue;
            }
            spans.record(enc_span, "codec.encode", image_span, image_span, (t0, t1));
            spans.record(dec_span, "codec.decode", image_span, image_span, (t2, t3));
            spans.record(image_span, "codec.image", workload, image_span, (t0, t3));
            p.enc_ns.push(t1 - t0);
            p.dec_ns.push(t3 - t2);
            p.trip_ns.push((t1 - t0) + (t3 - t2));
            p.pixels.push(img.pixel_count() as u64);
            p.blocks += (3 * img.width().div_ceil(8) * img.height().div_ceil(8)) as u64;
        }
        p.wall_ns = tick() - t_begin;
        spans.record(
            workload,
            "codec.workload",
            0,
            0,
            (t_begin, t_begin + p.wall_ns),
        );
        p
    }
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(p: &Pass, oracle: &Oracle, m: &mut Metrics) {
    m.set("encode_mpix_s", p.encode_mpix_s());
    m.set("decode_mpix_s", p.decode_mpix_s());
    m.set("compression_ratio", oracle.compression_ratio());
    let trip = Dist::from_ns(&p.trip_ns);
    m.opt("rps", trip.p(50.0).map(|us| 1e6 / us), "no round trips");
    for (metric, samples, want) in [
        ("v1_lat_p50_us", &p.enc_ns, 50.0),
        ("v1_lat_p99_us", &p.enc_ns, 99.0),
        ("tagged_lat_p50_us", &p.dec_ns, 50.0),
        ("tagged_lat_p99_us", &p.dec_ns, 99.0),
        ("connect_p50_us", &p.trip_ns, 50.0),
        ("connect_p99_us", &p.trip_ns, 99.0),
    ] {
        m.tail(metric, Dist::from_ns(samples).tail(want), "no round trips");
    }
}

/// Histogram sum (ns) of one codec stage, 0 before the profiler has
/// registered its histograms.
fn stage_sum_ns(stage: Stage) -> u64 {
    match deepn_trace::global().reading(stage.metric()) {
        Some(Reading::Histogram(s)) => s.sum_ns,
        _ => 0,
    }
}

/// The pool's steal counter (always live), once the pool has registered
/// it.
fn steals() -> Option<u64> {
    match deepn_trace::global().reading("deepn_parallel_steals_total") {
        Some(Reading::Counter(v)) => Some(v),
        _ => None,
    }
}

/// Total pool worker busy time (advances only while tracing is on).
fn busy_ns() -> u64 {
    deepn_parallel::worker_busy_ns().iter().sum()
}

/// Pool time over scalar time for the same images, as the median over
/// images: each image is encoded and decoded on the pool, then again
/// inside `run_sequential`.
fn pool_over_scalar(caller: &mut Caller<'_>, count: usize) -> (f64, f64, Tally) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    for i in 0..count.min(caller.images.len()) {
        let mut time = |sequential: bool| {
            let mut run = || {
                let t0 = tick();
                let e = caller
                    .encoder
                    .encode_with(&caller.images[i], &mut caller.ews);
                let t1 = tick();
                let d = caller
                    .decoder
                    .decode_with(&caller.oracle.encoded[i], &mut caller.dws);
                let t2 = tick();
                let ok = matches!(e, Ok(b) if b == caller.oracle.encoded[i])
                    && matches!(d, Ok(px) if px == caller.oracle.decoded[i]);
                tally.attempted += 2;
                tally.failed += 2 * u64::from(!ok);
                ((t1 - t0) as f64, (t2 - t1) as f64)
            };
            if sequential {
                deepn_parallel::run_sequential(run)
            } else {
                run()
            }
        };
        let (pool, scalar) = (time(false), time(true));
        enc.push(pool.0 / scalar.0);
        dec.push(pool.1 / scalar.1);
    }
    (
        median(&enc).unwrap_or(f64::NAN),
        median(&dec).unwrap_or(f64::NAN),
        tally,
    )
}

/// Median round trip of an empty `par_map_into` over one strip's blocks
/// (three components × `width / 8`).
fn dispatch_round_trip_us(width: usize) -> f64 {
    let n = 3 * width.div_ceil(8);
    let items = vec![0u8; n];
    let mut out = vec![0u8; n];
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = tick();
        deepn_parallel::par_map_into(&items, &mut out, |_, &x| x);
        samples.push((tick() - t0) as f64 / 1e3);
    }
    std::hint::black_box(&out);
    median(&samples).unwrap_or(f64::NAN)
}

/// Per-stage metric names, in [`Stage::ALL`] order.
pub const STAGE_METRICS: [&str; 8] = [
    "codec.encode.color_ns_per_block",
    "codec.encode.dct_ns_per_block",
    "codec.encode.quant_ns_per_block",
    "codec.encode.entropy_ns_per_block",
    "codec.decode.entropy_ns_per_block",
    "codec.decode.dequant_ns_per_block",
    "codec.decode.idct_ns_per_block",
    "codec.decode.color_ns_per_block",
];

/// Runs a codec workload over `images` and fills `m`.
pub fn run(
    cfg: &Config,
    inputs: &Inputs,
    images: &[RgbImage],
    setup_s: f64,
    m: &mut Metrics,
    spans: &mut SpanLog,
) -> Result<Tally, String> {
    let oracle = Oracle::compute(images, &inputs.tables)?;
    let mut caller = Caller {
        images,
        oracle: &oracle,
        encoder: Encoder::with_tables(inputs.tables.clone()),
        decoder: Decoder::new(),
        ews: EncodeWorkspace::new(),
        dws: DecodeWorkspace::new(),
        next: cfg.seed as usize % images.len(),
    };
    // Warm the pool, the workspaces, and the caches before timing.
    let mut tally = caller.pass(0.3, &mut SpanLog::new(false)).tally;
    if !cfg.trace {
        let p = caller.pass(cfg.seconds, &mut SpanLog::new(false));
        tally.absorb(&p.tally);
        end_to_end(&p, &oracle, m);
        m.set("peak_rss_mb", peak_rss_mb(None)?);
        m.set("setup_s", setup_s);
        return Ok(tally);
    }

    // Traced run: an untraced half for the overhead baseline, the
    // pool-vs-scalar comparison, then the traced half.
    let half = cfg.seconds / 2.0;
    let base = caller.pass(half, &mut SpanLog::new(false));
    tally.absorb(&base.tally);
    let (enc_ratio, dec_ratio, checked) = pool_over_scalar(&mut caller, 200);
    tally.absorb(&checked);
    m.set("parallel.encode_pool_over_scalar", enc_ratio);
    m.set("parallel.decode_pool_over_scalar", dec_ratio);
    m.set(
        "parallel.dispatch_round_trip_us",
        dispatch_round_trip_us(images[0].width()),
    );

    deepn_trace::set_enabled(true);
    profile::enable();
    let stages0 = Stage::ALL.map(stage_sum_ns);
    let (busy0, steals0) = (busy_ns(), steals());
    let traced = caller.pass(half, spans);
    let (busy1, steals1) = (busy_ns(), steals());
    let stages1 = Stage::ALL.map(stage_sum_ns);
    profile::disable();
    deepn_trace::set_enabled(false);
    tally.absorb(&traced.tally);
    // Sets the latency tails (per-layer metrics) from the traced half.
    end_to_end(&traced, &oracle, m);

    let stage_ns: Vec<u64> = stages1.iter().zip(&stages0).map(|(b, a)| b - a).collect();
    for (name, ns) in STAGE_METRICS.into_iter().zip(&stage_ns) {
        m.set(name, *ns as f64 / traced.blocks as f64);
    }
    let (enc_ns, dec_ns) = (
        spans.durations("codec.encode"),
        spans.durations("codec.decode"),
    );
    let (enc, dec) = (Dist::from_ns(&enc_ns), Dist::from_ns(&dec_ns));
    m.opt(
        "codec.encode_image_p50_us",
        enc.p(50.0),
        "no traced encodes",
    );
    m.opt(
        "codec.decode_image_p50_us",
        dec.p(50.0),
        "no traced decodes",
    );
    for (name, d) in [
        ("codec.encode_image_p99_us", &enc),
        ("codec.decode_image_p99_us", &dec),
    ] {
        if beyond(d.len(), 99.0) >= MIN_BEYOND {
            m.opt(name, d.p(99.0), "no traced calls");
        } else {
            m.absent(
                name,
                &format!("{} traced calls are too few for a p99", d.len()),
            );
        }
    }
    let share = |stages: &[u64], calls: &[u64]| {
        1.0 - stages.iter().sum::<u64>() as f64 / calls.iter().sum::<u64>() as f64
    };
    m.set(
        "codec.encode.unattributed_share",
        share(&stage_ns[..4], &enc_ns),
    );
    m.set(
        "codec.decode.unattributed_share",
        share(&stage_ns[4..], &dec_ns),
    );
    if let Some((h, s)) = oracle.header_scan_bytes() {
        m.set("codec.header_bytes_per_image", h);
        m.set("codec.scan_bytes_per_image", s);
    }
    m.opt(
        "parallel.steals_per_image",
        steals0
            .zip(steals1)
            .map(|(a, b)| (b - a) as f64 / traced.images() as f64),
        "steal counter not registered",
    );
    let workers = deepn_parallel::worker_busy_ns().len();
    if workers == 0 {
        m.absent(
            "parallel.busy_share",
            "a one-thread pool runs inline; no workers",
        );
    } else {
        m.set(
            "parallel.busy_share",
            (busy1 - busy0) as f64 / (traced.wall_ns as f64 * workers as f64),
        );
    }
    m.set(
        "trace.overhead_share",
        1.0 - traced.encode_mpix_s() / base.encode_mpix_s(),
    );
    Ok(tally)
}
