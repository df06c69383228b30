//! `deepn-perfbench`: the repository's one benchmark.
//!
//! ```text
//! deepn-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                 [--deepn PATH] [--out DIR]
//! ```
//!
//! Workloads: `codec-dataset32`, `codec-large1024`, `serve-churn`,
//! `front-churn` (see `README.md` beside this package). With `--trace 0`
//! the last stdout line carries every end-to-end metric; with
//! `--trace 1` every per-layer metric; a traced run probes the layers its
//! workload does not exercise (see [`probe_layers`]), so every per-layer
//! metric is measured on every workload. A provenance line (`# provenance
//! {...}`) precedes it, and the full report plus the run's spans are
//! written under `--out`. Any output that differs from the local oracle
//! fails the run (exit code 1, `"correct": false`).

mod codec;
mod report;
mod service;
mod setup;
mod spans;
mod stats;

use report::{Metrics, Provenance, END_TO_END, PER_LAYER};
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` and the set-up layers report the median.
pub const SETUP_REPS: usize = 5;

/// Seconds of traced traffic in each layer probe of a traced run.
pub const PROBE_SECONDS: f64 = 2.0;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 840-image 32×32 dataset through the in-process codec.
    CodecDataset32,
    /// A few 1024×1024 images through the in-process codec.
    CodecLarge1024,
    /// Churning v1 + tagged clients against `deepn serve`.
    ServeChurn,
    /// The same traffic through `deepn shard --backends 1`.
    FrontChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "codec-dataset32" => Workload::CodecDataset32,
            "codec-large1024" => Workload::CodecLarge1024,
            "serve-churn" => Workload::ServeChurn,
            "front-churn" => Workload::FrontChurn,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CodecDataset32 => "codec-dataset32",
            Workload::CodecLarge1024 => "codec-large1024",
            Workload::ServeChurn => "serve-churn",
            Workload::FrontChurn => "front-churn",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload runs.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// The `deepn` binary for the service workloads.
    pub deepn: PathBuf,
    /// Directory for the tables artifact, reports, and spans.
    pub out: PathBuf,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let mut cfg = Config {
            workload: Workload::CodecDataset32,
            seed: 0,
            seconds: 10.0,
            trace: false,
            deepn: PathBuf::from(&target).join("release/deepn"),
            out: PathBuf::from(&target).join("perfbench"),
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => cfg.trace = value == "1",
                "--deepn" => cfg.deepn = PathBuf::from(value),
                "--out" => cfg.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        cfg.workload = workload.ok_or("--workload is required")?;
        if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
            return Err("--seconds must be a positive number".into());
        }
        Ok(cfg)
    }
}

/// Operations attempted and failed (errors and mismatches).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// The tables artifact the set-up writes and the service processes load.
pub fn tables_path(cfg: &Config) -> PathBuf {
    cfg.out.join(format!("tables-seed{}.bin", cfg.seed))
}

/// Peak resident set (`VmHWM`) in MB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or("/proc/self/status".to_owned(), |p| {
        format!("/proc/{p}/status")
    });
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// The source revision: `git rev-parse HEAD` where the checkout is a git
/// repository, else a digest of the sources the benchmark builds.
fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    git.unwrap_or_else(|| format!("source-fnv:{:016x}", source_digest()))
}

/// FNV-1a over the paths and bytes of the workspace sources, in sorted
/// order, for checkouts that carry no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "src", "perfbench/src"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    files.iter().fold(stats::FNV_OFFSET, |h, p| {
        let h = stats::fnv1a(h, p.to_string_lossy().as_bytes());
        stats::fnv1a(h, &std::fs::read(p).unwrap_or_default())
    })
}

/// Runs the configured workload, filling `m`, `prov`, and `spans`.
fn run(
    cfg: &Config,
    m: &mut Metrics,
    prov: &mut Provenance,
    spans: &mut SpanLog,
) -> Result<Tally, String> {
    let mut tally;
    let (inputs, times) = match cfg.workload {
        Workload::CodecDataset32 | Workload::CodecLarge1024 => {
            let large = cfg.workload == Workload::CodecLarge1024;
            let path = tables_path(cfg);
            // Set up several times; set-up metrics are medians.
            let mut runs = Vec::new();
            let mut inputs = None;
            for _ in 0..SETUP_REPS {
                let (i, t) = setup::build(cfg.seed, large, &path)?;
                runs.push(t);
                inputs = Some(i);
            }
            let inputs = inputs.ok_or("no set-up ran")?;
            let times = setup::median_times(&runs);
            let totals: Vec<f64> = runs.iter().map(setup::SetupTimes::total).collect();
            let setup_s = stats::median(&totals).unwrap_or(f64::NAN);
            let images: &[deepn_codec::RgbImage] = if large {
                &inputs.large
            } else {
                inputs.dataset.images()
            };
            prov.add("setup_reps", SETUP_REPS);
            prov.add("images", images.len());
            prov.add(
                "image_size",
                format!("{}x{}", images[0].width(), images[0].height()),
            );
            tally = codec::run(cfg, &inputs, images, setup_s, m, spans)?;
            (inputs, times)
        }
        Workload::ServeChurn | Workload::FrontChurn => {
            let (t, inputs, times) = service::run(cfg, m, spans)?;
            tally = t;
            prov.add("setup_reps", SETUP_REPS);
            let first = &inputs.dataset.images()[0];
            prov.add("images", inputs.dataset.len());
            prov.add(
                "image_size",
                format!("{}x{}", first.width(), first.height()),
            );
            prov.add("clients", service::CLIENTS);
            prov.add("tagged_window", service::TAGGED_WINDOW);
            prov.add("requests_per_connection", service::REQUESTS_PER_CONNECTION);
            prov.add("batch", service::BATCH);
            (inputs, times)
        }
    };
    if cfg.trace {
        tally.absorb(&probe_layers(cfg, &inputs, m, prov, spans)?);
    }
    prov.add(
        "input_digest",
        format!("{:016x}", setup::input_digest(&inputs)),
    );
    m.set("dataset.generate_s", times.generate_s);
    m.set("core.analysis_s", times.analysis_s);
    m.set("core.table_design_s", times.design_s);
    m.set("store.tables_write_s", times.write_s);
    Ok(tally)
}

/// A layer probe of a traced run.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// The codec-dataset32 loop in this process.
    Codec,
    /// The serve-churn traffic against a fresh `deepn serve`.
    Serve,
    /// The front-churn traffic against a fresh `deepn shard --backends 1`.
    Front,
}

impl Probe {
    /// The metric prefixes a probe may source.
    fn prefixes(self) -> &'static [&'static str] {
        match self {
            Probe::Codec => &["codec.", "parallel."],
            Probe::Serve => &["serve."],
            Probe::Front => &["front."],
        }
    }
}

/// Runs, after a traced workload, a short traced window of each layer
/// the workload does not exercise itself, on the same seed's inputs and
/// tables: the codec workloads start no service, the service processes
/// expose no codec stage histograms or per-call times, serve-churn runs
/// no front, and front-churn times no bare `deepn serve` start-up. Each
/// probe fills only the metrics of its own layers that the workload left
/// unmeasured; the provenance names the metrics each probe sourced.
fn probe_layers(
    cfg: &Config,
    inputs: &setup::Inputs,
    m: &mut Metrics,
    prov: &mut Provenance,
    spans: &mut SpanLog,
) -> Result<Tally, String> {
    let probes: &[Probe] = match cfg.workload {
        Workload::CodecDataset32 | Workload::CodecLarge1024 => &[Probe::Serve, Probe::Front],
        Workload::ServeChurn => &[Probe::Codec, Probe::Front],
        Workload::FrontChurn => &[Probe::Codec, Probe::Serve],
    };
    let mut tally = Tally::default();
    for &probe in probes {
        let mut found = Metrics::default();
        let mut probe_spans = SpanLog::new(true);
        let t = match probe {
            Probe::Codec => {
                // The traced codec run spends half its window untraced.
                let c = Config {
                    trace: true,
                    seconds: 2.0 * PROBE_SECONDS,
                    ..cfg.clone()
                };
                let images = inputs.dataset.images();
                codec::run(&c, inputs, images, f64::NAN, &mut found, &mut probe_spans)?
            }
            Probe::Serve | Probe::Front => {
                let front = matches!(probe, Probe::Front);
                service::probe(
                    cfg,
                    front,
                    inputs,
                    PROBE_SECONDS,
                    &mut found,
                    &mut probe_spans,
                )?
            }
        };
        tally.absorb(&t);
        spans.absorb(probe_spans);
        let filled = m.fill_from(found, probe.prefixes());
        prov.add(
            &format!("probe.{probe:?}").to_lowercase(),
            format!(
                "{PROBE_SECONDS} s traced, {} ops checked; sourced {}",
                t.attempted,
                filled.join(" ")
            ),
        );
    }
    Ok(tally)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("deepn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("deepn-perfbench: cannot create {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }
    let mut prov = Provenance::default();
    prov.add("workload", cfg.workload.name());
    prov.add("seed", cfg.seed);
    prov.add("seconds", cfg.seconds);
    prov.add("traced", cfg.trace);
    prov.add("revision", revision());
    prov.add(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    prov.add("pool_threads", deepn_parallel::global().threads());
    prov.add(
        "DEEPN_THREADS",
        std::env::var(deepn_parallel::THREADS_ENV).unwrap_or_else(|_| "unset".into()),
    );

    let mut m = Metrics::default();
    let mut spans = SpanLog::new(cfg.trace);
    let steal0 = stats::steal_ticks();
    let tally = match run(&cfg, &mut m, &mut prov, &mut spans) {
        Ok(t) => {
            prov.add(
                "cpu_steal_ticks",
                stats::steal_ticks().saturating_sub(steal0),
            );
            t
        }
        Err(e) => {
            eprintln!("deepn-perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    m.set(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = match m.render(defs) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("deepn-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = tally.failed == 0;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    if cfg.trace {
        let path = cfg.out.join(format!("spans-{stem}.jsonl"));
        match spans.write_jsonl(&path) {
            Ok(()) => prov.add("spans", format!("{} -> {}", spans.len(), path.display())),
            Err(e) => eprintln!("deepn-perfbench: cannot write spans: {e}"),
        }
    }
    for (metric, note) in &m.notes {
        prov.add(metric, note);
    }
    let prov = prov.to_json();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted, tally.failed
    );
    let report = format!("{{\"provenance\": {prov}, \"result\": {result}}}\n");
    if let Err(e) = std::fs::write(cfg.out.join(format!("report-{stem}.json")), report) {
        eprintln!("deepn-perfbench: cannot write report: {e}");
    }
    println!("# provenance {prov}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
