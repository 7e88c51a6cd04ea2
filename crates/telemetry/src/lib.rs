//! # softlora-telemetry — process-wide lock-free metrics registry
//!
//! Every layer of the SoftLoRa stack (dsp → core → runtime → store →
//! net) records into one [`Registry`]: relaxed-atomic [`Counter`]s and
//! [`Gauge`]s, and log₂-bucketed latency [`Histogram`]s with mergeable
//! snapshots (see [`histogram`]). The design splits cost asymmetrically:
//!
//! * **Registration** (`Registry::counter_with(...)`) may allocate — it
//!   renders the series key, takes the registry mutex, and hands back an
//!   `Arc` handle. Do it once, at construction.
//! * **Recording** (`counter.inc()`, `histogram.record(ns)`) is a
//!   relaxed atomic op on the handle — no locks, no heap, safe on the
//!   per-frame warm path (pinned by `zero_alloc_telemetry.rs`).
//!
//! Series are keyed by `name{label="value",...}`; [`Registry::snapshot`]
//! freezes every series into a [`RegistrySnapshot`] sorted by key, which
//! renders as Prometheus-style text ([`RegistrySnapshot::render_text`])
//! or a hand-rolled JSON dump ([`RegistrySnapshot::to_json`]), and is
//! carried over the gateway ctrl socket by `softlora-net`'s
//! `METRICS_REQ`/`METRICS_RESP` frames.
//!
//! ```
//! use softlora_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let frames = registry.counter("frames_total");
//! let latency = registry.histogram_with("stage_ns", &[("stage", "fb")]);
//! frames.inc();
//! latency.record(1_250);
//! let snap = registry.snapshot();
//! assert_eq!(snap.series.len(), 2);
//! assert!(snap.render_text().contains("frames_total 1"));
//! ```

#![warn(missing_docs)]

pub mod histogram;

pub use histogram::{bucket_bounds, bucket_index, HistogramCell, HistogramSnapshot, BUCKETS};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The kind of a registered series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone non-decreasing `u64`.
    Counter,
    /// Arbitrary `f64` point-in-time value.
    Gauge,
    /// Log₂-bucketed sample distribution.
    Histogram,
}

// One `Cell` lives per registered series, behind an `Arc`, for the
// process lifetime — the histogram variant's inline bucket array is the
// point (no indirection on the record path), not a size accident.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Cell {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    Histogram(HistogramCell),
}

#[derive(Debug)]
struct SeriesCell {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// Handle to a monotone counter. Cloning is cheap (an `Arc` bump);
/// recording is one relaxed `fetch_add`.
#[derive(Clone, Debug)]
pub struct Counter {
    series: Arc<SeriesCell>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        match &self.series.cell {
            Cell::Counter(c) => {
                c.fetch_add(n, Ordering::Relaxed);
            }
            _ => unreachable!("counter handle over non-counter cell"),
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        match &self.series.cell {
            Cell::Counter(c) => c.load(Ordering::Relaxed),
            _ => unreachable!("counter handle over non-counter cell"),
        }
    }
}

/// Handle to an `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Clone, Debug)]
pub struct Gauge {
    series: Arc<SeriesCell>,
}

impl Gauge {
    /// Replaces the value.
    #[inline]
    pub fn set(&self, value: f64) {
        match &self.series.cell {
            Cell::Gauge(g) => g.store(value.to_bits(), Ordering::Relaxed),
            _ => unreachable!("gauge handle over non-gauge cell"),
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        match &self.series.cell {
            Cell::Gauge(g) => f64::from_bits(g.load(Ordering::Relaxed)),
            _ => unreachable!("gauge handle over non-gauge cell"),
        }
    }
}

/// Handle to a log₂-bucketed histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    series: Arc<SeriesCell>,
}

impl Histogram {
    /// Records one sample (three relaxed `fetch_add`s, no heap).
    #[inline]
    pub fn record(&self, value: u64) {
        match &self.series.cell {
            Cell::Histogram(h) => h.record(value),
            _ => unreachable!("histogram handle over non-histogram cell"),
        }
    }

    /// Records a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Freezes the current contents.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.series.cell {
            Cell::Histogram(h) => h.snapshot(),
            _ => unreachable!("histogram handle over non-histogram cell"),
        }
    }
}

/// A metrics registry: a keyed set of live series.
///
/// Use [`global()`] for the process-wide instance every SoftLoRa layer
/// records into, or [`Registry::new`] for an isolated one (tests).
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<String, Arc<SeriesCell>>>,
    /// Per-name cap on distinct labeled series (0 = unlimited). See
    /// [`Registry::set_label_budget`].
    label_budget: std::sync::atomic::AtomicUsize,
}

/// The label value every over-budget series collapses into.
pub const OVERFLOW_LABEL: &str = "other";

/// Renders the canonical series key: `name` or `name{k="v",...}`.
#[must_use]
pub fn render_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{v}\"");
    }
    key.push('}');
    key
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of distinct labeled series per metric name.
    ///
    /// Label values are often data-derived (device addresses, gateway
    /// ids); an attacker spraying addresses must not be able to grow the
    /// registry without bound. Once a name holds `budget` labeled series,
    /// every *new* label combination collapses into one overflow series
    /// whose label values are all [`OVERFLOW_LABEL`] (`other`) — the
    /// counts survive in aggregate, the cardinality stays bounded. The
    /// overflow series itself occupies one budget slot. `0` (the
    /// default) disables the cap. Already-registered series are never
    /// evicted.
    pub fn set_label_budget(&self, budget: usize) {
        self.label_budget.store(budget, Ordering::Relaxed);
    }

    fn get_or_register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: SeriesKind,
    ) -> Arc<SeriesCell> {
        let key = render_key(name, labels);
        let mut map = self.series.lock().expect("registry poisoned");
        let budget = self.label_budget.load(Ordering::Relaxed);
        if budget != 0
            && !labels.is_empty()
            && !map.contains_key(&key)
            && !labels.iter().all(|(_, v)| *v == OVERFLOW_LABEL)
            && map.values().filter(|c| c.name == name && !c.labels.is_empty()).count() >= budget
        {
            drop(map);
            let overflow: Vec<(&str, &str)> =
                labels.iter().map(|(k, _)| (*k, OVERFLOW_LABEL)).collect();
            return self.get_or_register(name, &overflow, kind);
        }
        let cell = map.entry(key).or_insert_with(|| {
            Arc::new(SeriesCell {
                name: name.to_string(),
                labels: labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect(),
                cell: match kind {
                    SeriesKind::Counter => Cell::Counter(AtomicU64::new(0)),
                    SeriesKind::Gauge => Cell::Gauge(AtomicU64::new(0.0f64.to_bits())),
                    SeriesKind::Histogram => Cell::Histogram(HistogramCell::new()),
                },
            })
        });
        let found = match cell.cell {
            Cell::Counter(_) => SeriesKind::Counter,
            Cell::Gauge(_) => SeriesKind::Gauge,
            Cell::Histogram(_) => SeriesKind::Histogram,
        };
        assert_eq!(
            found, kind,
            "series {:?} already registered as {found:?}, requested {kind:?}",
            cell.name
        );
        Arc::clone(cell)
    }

    /// Counter handle for an unlabeled series (registers on first use).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter handle for a labeled series (registers on first use).
    ///
    /// # Panics
    /// Panics if the key already exists with a different kind.
    #[must_use]
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter { series: self.get_or_register(name, labels, SeriesKind::Counter) }
    }

    /// Gauge handle for an unlabeled series (registers on first use).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Gauge handle for a labeled series (registers on first use).
    ///
    /// # Panics
    /// Panics if the key already exists with a different kind.
    #[must_use]
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge { series: self.get_or_register(name, labels, SeriesKind::Gauge) }
    }

    /// Histogram handle for an unlabeled series (registers on first use).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Histogram handle for a labeled series (registers on first use).
    ///
    /// # Panics
    /// Panics if the key already exists with a different kind.
    #[must_use]
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram { series: self.get_or_register(name, labels, SeriesKind::Histogram) }
    }

    /// Freezes every registered series, sorted by key.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = self.series.lock().expect("registry poisoned");
        let series = map
            .values()
            .map(|cell| SeriesSnapshot {
                name: cell.name.clone(),
                labels: cell.labels.clone(),
                value: match &cell.cell {
                    Cell::Counter(c) => SeriesValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => SeriesValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Cell::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        RegistrySnapshot { series }
    }

    /// Prometheus-style text exposition of the current contents.
    #[must_use]
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every SoftLoRa layer records into.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// One frozen series: name, labels, value.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name, e.g. `gateway_stage_ns`.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: SeriesValue,
}

impl SeriesSnapshot {
    /// The canonical `name{k="v"}` key.
    #[must_use]
    pub fn key(&self) -> String {
        let borrowed: Vec<(&str, &str)> =
            self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        render_key(&self.name, &borrowed)
    }

    /// Label value for `key`, if present.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A frozen series value.
///
/// The histogram variant carries its full bucket array inline so
/// snapshots stay `Copy`-composable and mergeable without heap hops;
/// a `RegistrySnapshot` holds few series, so the size skew is cheap.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesValue {
    /// Monotone counter value.
    Counter(u64),
    /// Point-in-time gauge value.
    Gauge(f64),
    /// Frozen histogram.
    Histogram(HistogramSnapshot),
}

impl SeriesValue {
    /// Counter value, if this is a counter.
    #[must_use]
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            SeriesValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram, if this is a histogram.
    #[must_use]
    pub fn as_histogram(&self) -> Option<&HistogramSnapshot> {
        match self {
            SeriesValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A frozen registry: every series at one instant, sorted by key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// All series, sorted by canonical key.
    pub series: Vec<SeriesSnapshot>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl RegistrySnapshot {
    /// Series with exactly this name and label set.
    #[must_use]
    pub fn find_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        let key = render_key(name, labels);
        self.series.iter().find(|s| s.key() == key)
    }

    /// Sum of all counter series whose name matches `name`.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.series.iter().filter(|s| s.name == name).filter_map(|s| s.value.as_counter()).sum()
    }

    /// Bucket-wise merge of all histogram series whose name matches
    /// `name`, across every label set; `None` when there are none.
    #[must_use]
    pub fn histogram_sum(&self, name: &str) -> Option<HistogramSnapshot> {
        self.series.iter().filter(|s| s.name == name).filter_map(|s| s.value.as_histogram()).fold(
            None,
            |total, h| {
                let mut total = total.unwrap_or_default();
                total.merge(h);
                Some(total)
            },
        )
    }

    /// Prometheus-style text exposition.
    ///
    /// Counters and gauges render as `key value`; histograms expand to
    /// cumulative `name_bucket{le="..."}` lines plus `_sum` and
    /// `_count`, with only occupied buckets (plus `+Inf`) emitted.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", s.key());
                }
                SeriesValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", s.key());
                }
                SeriesValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (index, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let (_, high) = bucket_bounds(index);
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{high}\"{}}} {cumulative}",
                            s.name,
                            render_label_tail(&s.labels),
                        );
                    }
                    let tail = render_label_tail(&s.labels);
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"{tail}}} {}", s.name, h.count);
                    let _ = writeln!(out, "{}_sum{} {}", s.name, brace(&s.labels), h.sum);
                    let _ = writeln!(out, "{}_count{} {}", s.name, brace(&s.labels), h.count);
                }
            }
        }
        out
    }

    /// Hand-rolled JSON dump (no external dependencies), one object per
    /// series. Histograms carry sparse buckets and pre-computed
    /// quantile estimates so dashboards need no bucket math.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", json_escape(&s.name));
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push_str("},");
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
                }
                SeriesValue::Gauge(v) => {
                    let _ = write!(out, "\"type\":\"gauge\",\"value\":{v}");
                }
                SeriesValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                         \"mean\":{:.1},\"p50\":{:.1},\"p90\":{:.1},\
                         \"p99\":{:.1},\"p999\":{:.1},\"buckets\":[",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.p999(),
                    );
                    let mut first = true;
                    for (index, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        let _ = write!(out, "[{index},{n}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn render_label_tail(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (k, v) in labels {
        let _ = write!(out, ",{k}=\"{v}\"");
    }
    out
}

fn brace(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let borrowed: Vec<(&str, &str)> =
        labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    render_key("", &borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_handles_share_state() {
        let r = Registry::new();
        let a = r.counter_with("hits", &[("shard", "0")]);
        let b = r.counter_with("hits", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter_sum("hits"), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_renders() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").add(5);
        r.gauge("load").set(0.75);
        r.histogram_with("lat_ns", &[("stage", "fb")]).record(1000);
        let snap = r.snapshot();
        let keys: Vec<String> = snap.series.iter().map(SeriesSnapshot::key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let text = snap.render_text();
        assert!(text.contains("alpha 5"));
        assert!(text.contains("zeta 1"));
        assert!(text.contains("load 0.75"));
        assert!(text.contains("lat_ns_bucket{le=\"1023\",stage=\"fb\"} 1"));
        assert!(text.contains("lat_ns_count{stage=\"fb\"} 1"));
        let json = snap.to_json();
        assert!(json.contains("\"name\":\"lat_ns\""));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"buckets\":[[10,1]]"));
    }

    #[test]
    fn label_budget_collapses_overflow_into_other() {
        let r = Registry::new();
        r.set_label_budget(2);
        r.counter_with("lag", &[("follower", "a")]).add(1);
        r.counter_with("lag", &[("follower", "b")]).add(2);
        // Third and fourth distinct label sets collapse into one
        // `other` series; their counts aggregate there.
        r.counter_with("lag", &[("follower", "c")]).add(10);
        r.counter_with("lag", &[("follower", "d")]).add(20);
        let snap = r.snapshot();
        assert_eq!(snap.series.len(), 3, "{}", snap.render_text());
        assert_eq!(
            snap.find_with("lag", &[("follower", OVERFLOW_LABEL)])
                .and_then(|s| s.value.as_counter()),
            Some(30)
        );
        // Pre-budget series keep recording under their own labels.
        r.counter_with("lag", &[("follower", "a")]).add(5);
        assert_eq!(
            r.snapshot().find_with("lag", &[("follower", "a")]).and_then(|s| s.value.as_counter()),
            Some(6)
        );
        // Unlabeled series and other names are untouched by the budget.
        r.counter("totals").inc();
        r.counter_with("depth", &[("shard", "7")]).inc();
        assert_eq!(r.snapshot().counter_sum("depth"), 1);
    }

    #[test]
    fn histogram_sum_merges_every_labelled_series() {
        let r = Registry::new();
        // An idle shard registers first and sorts first: an empty
        // series must not stand in for the family.
        let _idle = r.histogram_with("commit_ns", &[("shard", "0")]);
        let busy = r.histogram_with("commit_ns", &[("shard", "1")]);
        busy.record(100);
        busy.record(3000);
        r.histogram_with("commit_ns", &[("shard", "2")]).record(70);
        // The same three samples recorded into one cell.
        let all = r.histogram("all_ns");
        for v in [100, 3000, 70] {
            all.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.histogram_sum("commit_ns"), Some(all.snapshot()));
        assert_eq!(snap.histogram_sum("absent"), None);
    }

    #[test]
    fn label_budget_zero_is_unlimited() {
        let r = Registry::new();
        for k in 0..64 {
            r.counter_with("free", &[("k", &k.to_string())]).inc();
        }
        assert_eq!(r.snapshot().series.len(), 64);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("telemetry_selftest_total");
        let before = c.get();
        global().counter("telemetry_selftest_total").inc();
        assert_eq!(c.get(), before + 1);
    }
}
