//! A pull-model metrics registry: one place to enumerate every
//! counter, gauge, and histogram the serving stack maintains.
//!
//! Every serving counter is read out through it and nothing else:
//! the hot paths keep hitting their relaxed atomics, and
//! the registry holds **collector closures** that read those atomics
//! only when a snapshot is requested (the Prometheus "collector"
//! model). A collector captures its `Arc`s and appends [`Sample`]s —
//! named values with `(key, value)` labels such as `shard`, `backend`,
//! `op`, `d` — so one [`MetricsRegistry::snapshot`] enumerates the
//! whole process.
//!
//! Two expositions are provided: [`MetricsSnapshot::to_prometheus`]
//! (text format 0.0.4 — counters, gauges, and summary-style quantiles)
//! and [`MetricsSnapshot::to_json`] (hand-rolled, no serde, matching
//! the bench harness's report conventions). [`parse_prometheus`] is a
//! minimal text-format parser used by CI to prove the exposition
//! round-trips — the format cannot silently rot.
//!
//! Naming conventions (documented in the README's Observability
//! section): every metric is prefixed `fusedmm_`, monotonic counters
//! end in `_total`, and latency summaries end in `_seconds`.

use std::sync::Mutex;
use std::time::Duration;

use crate::hist::{HistogramSnapshot, RatioSnapshot};

/// One observed value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level (may go down).
    Gauge(f64),
    /// A latency distribution summary.
    Histogram(HistogramSnapshot),
    /// A ratio distribution summary (e.g. per-request hit ratio).
    Ratio(RatioSnapshot),
}

/// A named, labeled sample: the unit a collector appends and an
/// exposition renders.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`fusedmm_…`, `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, e.g. `("shard", "2")`, `("op", "embed_sigmoid")`.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: MetricValue,
}

impl Sample {
    /// A counter sample with no labels.
    pub fn counter(name: impl Into<String>, value: u64) -> Sample {
        Sample { name: name.into(), labels: Vec::new(), value: MetricValue::Counter(value) }
    }

    /// A gauge sample with no labels.
    pub fn gauge(name: impl Into<String>, value: f64) -> Sample {
        Sample { name: name.into(), labels: Vec::new(), value: MetricValue::Gauge(value) }
    }

    /// A latency-summary sample with no labels.
    pub fn histogram(name: impl Into<String>, snap: HistogramSnapshot) -> Sample {
        Sample { name: name.into(), labels: Vec::new(), value: MetricValue::Histogram(snap) }
    }

    /// A ratio-summary sample with no labels.
    pub fn ratio(name: impl Into<String>, snap: RatioSnapshot) -> Sample {
        Sample { name: name.into(), labels: Vec::new(), value: MetricValue::Ratio(snap) }
    }

    /// Append one label pair (builder-style).
    pub fn label(mut self, key: impl Into<String>, value: impl Into<String>) -> Sample {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// Append every label pair of `labels` (builder-style).
    pub fn labels(mut self, labels: &[(&str, &str)]) -> Sample {
        for (k, v) in labels {
            self.labels.push(((*k).to_string(), (*v).to_string()));
        }
        self
    }
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

/// A registry of metric collectors. Cheap to construct; collectors run
/// only when [`MetricsRegistry::snapshot`] is called, so registration
/// adds zero cost to the recording hot paths.
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.collectors.lock().map(|c| c.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry").field("collectors", &n).finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register one collector: a closure that appends its current
    /// samples on every snapshot. Capture `Arc`s to the live atomics;
    /// do not pre-compute values at registration time.
    pub fn register(&self, collector: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.collectors.lock().unwrap().push(Box::new(collector));
    }

    /// Run every collector and return the combined sample set, sorted
    /// by metric name (stable, so a collector's label order is kept).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut samples = Vec::new();
        for c in self.collectors.lock().unwrap().iter() {
            c(&mut samples);
        }
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }
}

/// A point-in-time enumeration of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// All collected samples, sorted by name.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// The first sample matching `name` whose labels include every
    /// pair of `labels` — the lookup shape reconciliation tests use.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels.iter().all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }

    /// The counter value of the first matching sample, or `None` when
    /// absent or not a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The gauge value of the first matching sample.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The latency summary of the first matching sample, or `None` when
    /// absent or not a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match &self.get(name, labels)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Every counter sample named `name` summed over its label sets —
    /// a per-shard counter's total across shards; 0 when there is none.
    pub fn sum(&self, name: &str) -> u64 {
        let counters = self.samples.iter().filter(|s| s.name == name);
        counters.map(|s| if let MetricValue::Counter(v) = s.value { v } else { 0 }).sum()
    }

    /// Render as Prometheus text format 0.0.4. Counters and gauges are
    /// one line each; histograms and ratios render summary-style
    /// (`{quantile="…"}` series plus `_sum` and `_count`). Durations
    /// are exposed in seconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut prev_name: Option<&str> = None;
        for s in &self.samples {
            if prev_name != Some(s.name.as_str()) {
                let kind = match s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) | MetricValue::Ratio(_) => "summary",
                };
                out.push_str(&format!("# TYPE {} {}\n", s.name, kind));
                prev_name = Some(s.name.as_str());
            }
            match &s.value {
                MetricValue::Counter(v) => {
                    prom_line(&mut out, &s.name, &s.labels, None, &v.to_string());
                }
                MetricValue::Gauge(v) => {
                    prom_line(&mut out, &s.name, &s.labels, None, &fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    for (q, d) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                        let quantile = Some(("quantile", q));
                        prom_line(&mut out, &s.name, &s.labels, quantile, &fmt_secs(d));
                    }
                    let sum = format!("{}_sum", s.name);
                    prom_line(&mut out, &sum, &s.labels, None, &fmt_secs(h.total));
                    let count = format!("{}_count", s.name);
                    prom_line(&mut out, &count, &s.labels, None, &h.count.to_string());
                }
                MetricValue::Ratio(r) => {
                    for (q, v) in [("0.5", r.p50), ("0.99", r.p99)] {
                        let quantile = Some(("quantile", q));
                        prom_line(&mut out, &s.name, &s.labels, quantile, &fmt_f64(v));
                    }
                    let sum = format!("{}_sum", s.name);
                    prom_line(&mut out, &sum, &s.labels, None, &fmt_f64(r.mean * r.count as f64));
                    let count = format!("{}_count", s.name);
                    prom_line(&mut out, &count, &s.labels, None, &r.count.to_string());
                }
            }
        }
        out
    }

    /// Render as a JSON array of sample objects (hand-rolled — the
    /// workspace carries no serde — with the same escaping rules as
    /// the bench report). Durations are exposed in nanoseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  {\"name\": \"");
            out.push_str(&json_escape(&s.name));
            out.push_str("\", \"labels\": {");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)));
            }
            out.push_str("}, ");
            match &s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"type\": \"counter\", \"value\": {v}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\": \"gauge\", \"value\": {}", fmt_f64(*v)));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum_ns\": {}, \
                         \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \
                         \"max_ns\": {}",
                        h.count,
                        h.total.as_nanos(),
                        h.mean.as_nanos(),
                        h.p50.as_nanos(),
                        h.p90.as_nanos(),
                        h.p99.as_nanos(),
                        h.max.as_nanos()
                    ));
                }
                MetricValue::Ratio(r) => {
                    out.push_str(&format!(
                        "\"type\": \"ratio\", \"count\": {}, \"mean\": {}, \"p50\": {}, \
                         \"p99\": {}",
                        r.count,
                        fmt_f64(r.mean),
                        fmt_f64(r.p50),
                        fmt_f64(r.p99)
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

/// Append one exposition line: `name{labels…} value`. `extra` is an
/// additional label pair rendered first (the `quantile` label).
fn prom_line(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    if extra.is_some() || !labels.is_empty() {
        out.push('{');
        let mut first = true;
        if let Some((k, v)) = extra {
            out.push_str(&format!("{}=\"{}\"", k, prom_escape(v)));
            first = false;
        }
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            out.push_str(&format!("{}=\"{}\"", k, prom_escape(v)));
            first = false;
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Escape a label value per the text-format rules: backslash, double
/// quote, and newline.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` so it parses back exactly; non-finite values (which
/// neither the text format nor JSON can carry portably) render as 0.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn fmt_secs(d: Duration) -> String {
    fmt_f64(d.as_secs_f64())
}

/// `s` with the characters JSON does not allow in a string escaped:
/// the text between the quotes of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One line parsed back out of the Prometheus text format.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name as written (quantile series keep the base name;
    /// `_sum` / `_count` series keep their suffixed names).
    pub name: String,
    /// Label pairs in exposition order, including `quantile`.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A minimal Prometheus text-format parser: enough to prove
/// [`MetricsSnapshot::to_prometheus`] emits well-formed lines (CI's
/// round-trip check). Comments and blank lines are skipped; any other
/// malformed line is an error naming its line number.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {} in {:?}", lineno + 1, what, raw);
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| err("missing value"))?;
        let name = &line[..name_end];
        if name.is_empty()
            || !name.chars().enumerate().all(|(i, c)| {
                c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
            })
        {
            return Err(err("bad metric name"));
        }
        let mut rest = &line[name_end..];
        let mut labels = Vec::new();
        if let Some(inner) = rest.strip_prefix('{') {
            let close = inner.find('}').ok_or_else(|| err("unterminated label set"))?;
            let mut body = &inner[..close];
            rest = &inner[close + 1..];
            while !body.is_empty() {
                let eq = body.find('=').ok_or_else(|| err("label without ="))?;
                let key = body[..eq].trim().to_string();
                let after = body[eq + 1..].trim_start();
                let after = after.strip_prefix('"').ok_or_else(|| err("label value not quoted"))?;
                // Scan to the closing quote, honoring escapes.
                let mut value = String::new();
                let mut chars = after.char_indices();
                let mut end = None;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some((_, 'n')) => value.push('\n'),
                            Some((_, e)) => value.push(e),
                            None => return Err(err("dangling escape")),
                        },
                        '"' => {
                            end = Some(i);
                            break;
                        }
                        c => value.push(c),
                    }
                }
                let end = end.ok_or_else(|| err("unterminated label value"))?;
                labels.push((key, value));
                let mut tail = after[end + 1..].trim_start();
                if let Some(t) = tail.strip_prefix(',') {
                    tail = t.trim_start();
                } else if !tail.is_empty() {
                    return Err(err("label pairs not comma-separated"));
                }
                body = tail;
            }
        }
        let value_str = rest.trim();
        if value_str.is_empty() {
            return Err(err("missing value"));
        }
        let value: f64 = value_str.parse().map_err(|_| err("bad value"))?;
        samples.push(PromSample { name: name.to_string(), labels, value });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{LatencyHistogram, RatioHistogram};
    use std::sync::Arc;

    #[test]
    fn collectors_run_per_snapshot_and_sort_by_name() {
        let reg = MetricsRegistry::new();
        let live = Arc::new(std::sync::atomic::AtomicU64::new(1));
        let seen = Arc::clone(&live);
        reg.register(move |out| {
            out.push(Sample::counter(
                "fusedmm_zz_total",
                seen.load(std::sync::atomic::Ordering::Relaxed),
            ));
            out.push(Sample::gauge("fusedmm_aa", 2.5).label("shard", "0"));
        });
        let s1 = reg.snapshot();
        assert_eq!(s1.samples[0].name, "fusedmm_aa", "sorted by name");
        assert_eq!(s1.counter("fusedmm_zz_total", &[]), Some(1));
        // The collector reads the live atomic, not a registration-time
        // copy.
        live.store(7, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(reg.snapshot().counter("fusedmm_zz_total", &[]), Some(7));
        assert_eq!(s1.gauge_value("fusedmm_aa", &[("shard", "0")]), Some(2.5));
        assert_eq!(s1.gauge_value("fusedmm_aa", &[("shard", "1")]), None);
    }

    #[test]
    fn histogram_reads_one_label_set_and_sum_adds_every_one() {
        let reg = MetricsRegistry::new();
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(5));
        let (hs, empty) = (h.snapshot(), LatencyHistogram::new().snapshot());
        reg.register(move |out| {
            out.push(Sample::histogram("fusedmm_lat_seconds", hs).label("shard", "1"));
            out.push(Sample::histogram("fusedmm_lat_seconds", empty));
            out.push(Sample::counter("fusedmm_rows_total", 3).label("shard", "0"));
            out.push(Sample::counter("fusedmm_rows_total", 4).label("shard", "1"));
            out.push(Sample::counter("fusedmm_begun_total", 9));
            out.push(Sample::gauge("fusedmm_epoch", 2.0));
        });
        let snap = reg.snapshot();
        // The sample whose labels include the asked pairs; with none
        // asked, the first of that name.
        assert_eq!(snap.histogram("fusedmm_lat_seconds", &[("shard", "1")]), Some(&hs));
        assert_eq!(snap.histogram("fusedmm_lat_seconds", &[]), Some(&hs));
        assert_eq!(snap.histogram("fusedmm_lat_seconds", &[("shard", "2")]), None);
        assert_eq!(snap.histogram("fusedmm_rows_total", &[]), None, "not a histogram");
        assert_eq!(snap.histogram("fusedmm_missing_seconds", &[]), None);
        // Summed over every label set, unlabeled alike; absent reads 0.
        assert_eq!(snap.sum("fusedmm_rows_total"), 7);
        assert_eq!(snap.sum("fusedmm_begun_total"), 9);
        assert_eq!(snap.sum("fusedmm_epoch"), 0, "gauges are not counted");
        assert_eq!(snap.sum("fusedmm_missing_total"), 0);
    }

    #[test]
    fn prometheus_round_trips_through_the_parser() {
        let reg = MetricsRegistry::new();
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        let hs = h.snapshot();
        let r = RatioHistogram::new();
        r.record(0.25);
        r.record(0.75);
        let rs = r.snapshot();
        reg.register(move |out| {
            out.push(Sample::counter("fusedmm_rows_total", 42).label("shard", "1"));
            out.push(Sample::counter("fusedmm_rows_total", 7).label("shard", "2"));
            out.push(Sample::gauge("fusedmm_inflight", 3.0));
            out.push(Sample::histogram("fusedmm_embed_latency_seconds", hs));
            out.push(Sample::ratio("fusedmm_cache_hit_ratio", rs));
            out.push(Sample::counter("fusedmm_odd_total", 1).label("note", "a\"b\\c\nd"));
        });
        let text = reg.snapshot().to_prometheus();
        let parsed = parse_prometheus(&text).expect("own exposition parses");
        // Counters survive exactly, labels intact.
        let find = |name: &str, k: &str, v: &str| {
            parsed
                .iter()
                .find(|p| p.name == name && p.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                .unwrap_or_else(|| panic!("{name}{{{k}={v}}} missing"))
        };
        assert_eq!(find("fusedmm_rows_total", "shard", "1").value, 42.0);
        assert_eq!(find("fusedmm_rows_total", "shard", "2").value, 7.0);
        assert_eq!(find("fusedmm_odd_total", "note", "a\"b\\c\nd").value, 1.0);
        // Summary series: three quantiles plus _sum and _count.
        for q in ["0.5", "0.9", "0.99"] {
            find("fusedmm_embed_latency_seconds", "quantile", q);
        }
        let count = parsed
            .iter()
            .find(|p| p.name == "fusedmm_embed_latency_seconds_count")
            .expect("_count series");
        assert_eq!(count.value, 2.0);
        let sum = parsed
            .iter()
            .find(|p| p.name == "fusedmm_embed_latency_seconds_sum")
            .expect("_sum series");
        assert!((sum.value - 400e-6).abs() < 1e-9, "sum {} ~ 400us", sum.value);
        for q in ["0.5", "0.99"] {
            find("fusedmm_cache_hit_ratio", "quantile", q);
        }
        // TYPE comments name every base metric exactly once.
        for ty in [
            "# TYPE fusedmm_rows_total counter",
            "# TYPE fusedmm_inflight gauge",
            "# TYPE fusedmm_embed_latency_seconds summary",
            "# TYPE fusedmm_cache_hit_ratio summary",
        ] {
            assert_eq!(text.matches(ty).count(), 1, "{ty}");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("no_value").is_err());
        assert!(parse_prometheus("bad name 1").is_err());
        assert!(parse_prometheus("x{unclosed=\"v\" 1").is_err());
        assert!(parse_prometheus("x{k=unquoted} 1").is_err());
        assert!(parse_prometheus("x nan_is_fine_actually").is_err());
        assert!(parse_prometheus("# a comment\n\nok_total 3").is_ok());
    }

    #[test]
    fn json_exposition_is_escaped_and_structured() {
        let reg = MetricsRegistry::new();
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(2));
        let hs = h.snapshot();
        reg.register(move |out| {
            out.push(Sample::counter("fusedmm_c_total", 5).label("op", "a\"b"));
            out.push(Sample::histogram("fusedmm_lat_seconds", hs));
            out.push(Sample::gauge("fusedmm_bad", f64::NAN));
        });
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"name\": \"fusedmm_c_total\""));
        assert!(json.contains("\"op\": \"a\\\"b\""));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"value\": 0"), "NaN gauge rendered as 0");
        assert!(!json.contains("NaN"));
    }
}
