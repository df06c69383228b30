//! Metric catalog, per-run values, provenance, and the result line.
//!
//! The catalog below is the benchmark's contract: `BENCHMARK.json` at
//! the repository root lists the same names and units (a unit test holds
//! the two in sync). End-to-end metrics are measured with tracing off,
//! per-layer metrics in the traced run, and every one of them must carry
//! a measured number. A metric whose source was not recorded is never
//! printed as a stand-in `0` (or `null`): the run fails instead, naming
//! each missing metric and why it is missing.

use crate::stats::Tail;
use deepn_trace::export::escape_json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("encode_mpix_s", "MPix/s"),
    ("decode_mpix_s", "MPix/s"),
    ("compression_ratio", "ratio"),
    ("rps", "1/s"),
    ("v1_lat_p50_us", "us"),
    ("tagged_lat_p50_us", "us"),
    ("connect_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. The client-observed tails come
/// first: they are end-to-end in nature, but a p99 on a machine whose
/// CPUs the hypervisor takes away for milliseconds at a time moves with
/// the neighbours' load far beyond any bound a gate could hold, so they
/// are reported from the traced run without one.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("v1_lat_p99_us", "us"),
    ("tagged_lat_p99_us", "us"),
    ("connect_p99_us", "us"),
    ("codec.encode.color_ns_per_block", "ns"),
    ("codec.encode.dct_ns_per_block", "ns"),
    ("codec.encode.quant_ns_per_block", "ns"),
    ("codec.encode.entropy_ns_per_block", "ns"),
    ("codec.decode.entropy_ns_per_block", "ns"),
    ("codec.decode.dequant_ns_per_block", "ns"),
    ("codec.decode.idct_ns_per_block", "ns"),
    ("codec.decode.color_ns_per_block", "ns"),
    ("codec.encode_image_p50_us", "us"),
    ("codec.encode_image_p99_us", "us"),
    ("codec.decode_image_p50_us", "us"),
    ("codec.decode_image_p99_us", "us"),
    ("codec.encode.unattributed_share", "share"),
    ("codec.decode.unattributed_share", "share"),
    ("codec.header_bytes_per_image", "bytes"),
    ("codec.scan_bytes_per_image", "bytes"),
    ("parallel.encode_pool_over_scalar", "ratio"),
    ("parallel.decode_pool_over_scalar", "ratio"),
    ("parallel.dispatch_round_trip_us", "us"),
    ("parallel.steals_per_image", "count"),
    ("parallel.busy_share", "share"),
    ("dataset.generate_s", "s"),
    ("core.analysis_s", "s"),
    ("core.table_design_s", "s"),
    ("store.tables_write_s", "s"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.execute_p50_us", "us"),
    ("serve.execute_p99_us", "us"),
    ("serve.reply_write_p50_us", "us"),
    ("serve.reply_wait_p50_us", "us"),
    ("serve.v1.unattributed_p50_us", "us"),
    ("serve.tagged.unattributed_p50_us", "us"),
    ("serve.tcp_connect_p50_us", "us"),
    ("serve.first_reply_p50_us", "us"),
    ("serve.hello_p50_us", "us"),
    ("serve.bytes_per_request", "bytes"),
    ("serve.reconcile_gap", "count"),
    ("serve.ready_s", "s"),
    ("front.unattributed_p50_us", "us"),
    ("front.connections", "count"),
    ("front.failovers", "count"),
    ("front.restarts", "count"),
    ("front.ready_s", "s"),
    ("trace.overhead_share", "share"),
    ("error_rate", "share"),
];

/// One run's metric values: a number, or the reason it is absent.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Result<f64, String>>,
    /// Which percentile and how many samples stand behind each
    /// percentile metric, for the provenance record.
    pub notes: Vec<(String, String)>,
}

impl Metrics {
    /// Records a measured value. Non-finite values (a ratio over an empty
    /// denominator) are recorded as absent instead.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let v = if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("not finite ({value})"))
        };
        self.values.insert(name, v);
    }

    /// Records that `name` has no source on this run, and why.
    pub fn absent(&mut self, name: &'static str, why: &str) {
        self.values.insert(name, Err(why.to_owned()));
    }

    /// [`set`](Self::set) when `value` is present, else
    /// [`absent`](Self::absent) with `why`.
    pub fn opt(&mut self, name: &'static str, value: Option<f64>, why: &str) {
        match value {
            Some(v) => self.set(name, v),
            None => self.absent(name, why),
        }
    }

    /// Records a percentile metric and notes which percentile over how
    /// many samples it is.
    pub fn tail(&mut self, name: &'static str, tail: Option<Tail>, why: &str) {
        if let Some(t) = tail {
            self.notes.push((name.to_owned(), t.note()));
        }
        self.opt(name, tail.map(|t| t.value), why);
    }

    /// Copies from `other` every measured value whose name starts with
    /// one of `prefixes` and that is not measured here yet, with its
    /// percentile note. Returns the names it copied.
    pub fn fill_from(&mut self, other: Metrics, prefixes: &[&str]) -> Vec<&'static str> {
        let mut filled = Vec::new();
        for (name, value) in other.values {
            let wanted = prefixes.iter().any(|p| name.starts_with(p));
            let missing = !matches!(self.values.get(name), Some(Ok(_)));
            if let (true, true, Ok(v)) = (wanted, missing, value) {
                self.values.insert(name, Ok(v));
                filled.push(name);
            }
        }
        self.notes.extend(
            other
                .notes
                .into_iter()
                .filter(|(n, _)| filled.iter().any(|f| f == n)),
        );
        filled
    }

    /// Renders the catalog `defs` as the result line's `metrics` object.
    /// A catalog entry without a measured value is an error that names
    /// every such entry and the reason it has none.
    pub fn render(&self, defs: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        let mut missing = Vec::new();
        for &(name, unit) in defs {
            match self.values.get(name) {
                Some(Ok(v)) => parts.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                Some(Err(why)) => missing.push(format!("{name} ({why})")),
                None => missing.push(format!("{name} (not sourced on this workload)")),
            }
        }
        if missing.is_empty() {
            Ok(format!("{{{}}}", parts.join(", ")))
        } else {
            Err(format!("metrics not measured: {}", missing.join("; ")))
        }
    }
}

/// How a result was produced: every input a number depends on.
#[derive(Debug, Default)]
pub struct Provenance {
    fields: Vec<(String, String)>,
}

impl Provenance {
    /// Records one field (rendered as a JSON string).
    pub fn add(&mut self, key: &str, value: impl std::fmt::Display) {
        self.fields.push((key.to_owned(), value.to_string()));
    }

    /// The fields as one JSON object.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepn_trace::export::{parse_json, Json};

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn unmeasured_metrics_fail_the_render_with_their_reasons() {
        let mut m = Metrics::default();
        m.set("front.connections", 12.0);
        m.absent("front.failovers", "no front here");
        m.set("front.restarts", f64::NAN);
        let defs = [
            ("front.connections", "count"),
            ("front.failovers", "count"),
            ("front.restarts", "count"),
            ("front.ready_s", "s"),
        ];
        let err = m.render(&defs).expect_err("three metrics have no value");
        for part in [
            "front.failovers (no front here)",
            "front.restarts (not finite (NaN))",
            "front.ready_s (not sourced",
        ] {
            assert!(err.contains(part), "{err:?} should name {part:?}");
        }
        assert!(!err.contains("front.connections"), "{err:?}");

        let text = m.render(&defs[..1]).expect("every value measured");
        let doc = parse_json(&text).expect("valid JSON");
        let entry = doc.get("front.connections").expect("entry");
        assert_eq!(entry.get("value").and_then(Json::as_f64), Some(12.0));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some("count"));
    }

    #[test]
    fn fill_from_takes_only_missing_values_under_the_prefixes() {
        let mut m = Metrics::default();
        m.set("serve.ready_s", 0.5);
        m.absent("serve.hello_p50_us", "no Hello exchanged");
        let mut probe = Metrics::default();
        probe.set("serve.ready_s", 0.9);
        probe.set("serve.hello_p50_us", 40.0);
        probe.set("front.ready_s", 0.7);
        probe.absent("serve.execute_p50_us", "no observations");
        probe
            .notes
            .push(("serve.hello_p50_us".into(), "p50 of 10".into()));
        probe.notes.push(("serve.ready_s".into(), "ignored".into()));
        let filled = m.fill_from(probe, &["serve."]);
        assert_eq!(filled, vec!["serve.hello_p50_us"]);
        let text = m
            .render(&[("serve.ready_s", "s"), ("serve.hello_p50_us", "us")])
            .expect("both measured");
        let doc = parse_json(&text).expect("valid JSON");
        let value = |n: &str| {
            doc.get(n)
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("serve.ready_s"), Some(0.5), "a measured value stays");
        assert_eq!(value("serve.hello_p50_us"), Some(40.0));
        assert!(
            m.render(&[("front.ready_s", "s")]).is_err(),
            "outside the prefixes"
        );
        assert!(m.render(&[("serve.execute_p50_us", "us")]).is_err());
        assert_eq!(
            m.notes,
            vec![("serve.hello_p50_us".into(), "p50 of 10".into())]
        );
    }
}
