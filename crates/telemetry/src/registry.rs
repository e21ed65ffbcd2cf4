//! The [`Registry`]: a name → metric map with get-or-create semantics,
//! plus the frozen [`TelemetrySnapshot`] it produces.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// One registered metric. A name is bound to exactly one kind for the
/// registry's lifetime; asking for the same name as a different kind is
/// a programming error and panics.
#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// [`Registry::global`] is the process-wide instance the recording
/// macros use; [`Registry::new`] builds private instances for objects
/// that keep their own always-on counters (e.g. an anchor node's
/// stats). Lookup takes a mutex, so call sites should cache the
/// returned `Arc` (the macros do this per call site).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty, private registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry the recording macros write to.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Freezes every registered metric into a name-sorted snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = TelemetrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSnapshot {
                    name: name.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                    name: name.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    max: h.max(),
                    p50: h.quantile(50.0),
                    p95: h.quantile(95.0),
                    p99: h.quantile(99.0),
                }),
            }
        }
        // BTreeMap iteration is already name-sorted; the per-kind vectors
        // inherit that order.
        snap
    }

    /// Zeroes every registered metric's value. Handles cached at call
    /// sites stay valid — the metrics themselves are reset, not
    /// replaced — so tests and the benchmark can delimit an
    /// epoch without tearing down the process.
    pub fn reset(&self) {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// A counter's frozen name and value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// A gauge's frozen name and value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A histogram's frozen summary: count, sum, exact max and nearest-rank
/// quantiles resolved to bucket upper bounds (see [`crate::Histogram`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted metric name (span histograms end in `.ns`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Nearest-rank 50th percentile (bucket upper bound, clamped to max).
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Nearest-rank 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Every metric in a registry, frozen at one instant and name-sorted
/// within each kind. Render with [`render_text`](Self::render_text) or
/// [`render_json`](Self::render_json) (in `render.rs`), or query single
/// metrics with the accessors below.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// All counters, name-sorted.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, name-sorted.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// The named counter's value, if it was registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The named gauge's value, if it was registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram's summary, if it was registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let reg = Registry::new();
        reg.counter("a.b").add(3);
        reg.counter("a.b").add(4);
        assert_eq!(reg.counter("a.b").get(), 7);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.depth").set(5);
        reg.histogram("t.ns").record(1000);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.counter("a.first"), Some(2));
        assert_eq!(snap.gauge("m.depth"), Some(5));
        let h = snap.histogram("t.ns").expect("registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.p50, 1000); // single value: every quantile is it
        assert!(snap.counter("missing").is_none());
    }

    #[test]
    fn reset_keeps_cached_handles_live() {
        let reg = Registry::new();
        let c = reg.counter("keep.me");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        assert_eq!(reg.snapshot().counter("keep.me"), Some(2));
    }
}
