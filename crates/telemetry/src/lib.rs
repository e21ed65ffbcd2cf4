//! Process-wide telemetry for the selective-deletion stack: a named
//! [`Registry`] of [`Counter`]s, [`Gauge`]s and log-bucketed latency
//! [`Histogram`]s, plus lightweight scoped spans ([`span!`]) recording
//! durations into histograms.
//!
//! Hand-rolled and dependency-free, like every other shim in this
//! workspace: no `metrics`, no `tracing`, no serde. The design goals, in
//! order:
//!
//! 1. **Near-zero cost when disabled.** Telemetry is off unless the
//!    `SELDEL_TELEMETRY` environment variable (or [`set_enabled`]) turns
//!    it on. Every recording macro checks [`enabled`] first — one relaxed
//!    atomic load and a predictable branch — and a disabled [`span!`]
//!    never even reads the clock. Benches therefore run unperturbed by
//!    default.
//! 2. **Cheap when enabled.** All metric state is relaxed atomics; a hot
//!    counter bump is one `fetch_add(Relaxed)`, a histogram record is
//!    three. Call sites cache their metric handle in a `OnceLock`, so the
//!    registry's name lookup happens once per site, not per event.
//! 3. **One stable surface.** [`Registry::snapshot`] freezes every metric
//!    into a [`TelemetrySnapshot`] with deterministic (name-sorted) text
//!    and JSON renderings, so the benchmark can read layer figures from
//!    it and sims can assert on internals.
//!
//! # Metric naming
//!
//! Dotted lowercase paths, `<subsystem>.<thing>[.<aspect>]`:
//! `fstore.cache.hit`, `chain.prune.blocks`, `ledger.seal.ns`. Histograms
//! fed by [`span!`] always end in `.ns` (they hold nanoseconds).
//!
//! # Quantiles
//!
//! Histograms bucket by power of two (bucket 0 holds exactly `0`, bucket
//! *i* ≥ 1 holds `[2^(i-1), 2^i)`), so p50/p95/p99 are **nearest-rank**
//! quantiles resolved to the holding bucket's inclusive upper bound: with
//! `n` recorded values, the rank is `k = ceil(p/100 · n)` and the answer
//! is the upper bound of the bucket containing the `k`-th smallest value
//! (clamped to the exactly-tracked maximum). `seldel-sim`'s
//! [`percentile`](../seldel_sim/metrics/fn.percentile.html) uses the same
//! rank definition over raw samples, and a property test cross-checks the
//! two bucket for bucket.
//!
//! # Global vs local registries
//!
//! Hot paths record into [`Registry::global`] through the macros. Local
//! [`Registry::new`] instances are for per-object counters that must work
//! regardless of the global switch — e.g. an anchor node's
//! `AnchorStats`, which predate this crate and are pinned by tests: the
//! metric *types* record unconditionally; only the global macros gate on
//! [`enabled`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod render;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HIST_BUCKETS};
pub use registry::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Registry, TelemetrySnapshot,
};
pub use render::json_is_well_formed;
pub use span::SpanGuard;

use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable switching telemetry on for the whole process:
/// `on`, `1`, `true` or `yes` (case-insensitive) enable it; anything
/// else — including unset — leaves it off. Read once, at the first
/// [`enabled`] call; [`set_enabled`] overrides it at any time.
pub const TELEMETRY_ENV: &str = "SELDEL_TELEMETRY";

/// 0 = not yet initialised from the environment, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether global telemetry recording is on.
///
/// The hot-path gate: one relaxed load in the steady state. The first
/// call initialises the flag from [`TELEMETRY_ENV`].
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        state => state == 2,
    }
}

/// Cold path of [`enabled`]: resolves the environment variable once.
#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(TELEMETRY_ENV).is_ok_and(|v| {
        matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "on" | "1" | "true" | "yes"
        )
    });
    // A racing `set_enabled` wins: only replace the uninitialised state.
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 2
}

/// Forces global telemetry on or off, overriding the environment. Used
/// by tests, the CI smoke suites and the benches' telemetry collection
/// pass.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Test support for everything that mutates process-global telemetry
/// state (the enabled flag, the global registry's values).
pub mod testing {
    use std::sync::{Mutex, MutexGuard};

    static SERIAL: Mutex<()> = Mutex::new(());

    /// Serialises tests that enable/reset global telemetry: hold the
    /// guard for the whole test so concurrent test threads in the same
    /// binary cannot interleave recordings into shared counters.
    pub fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Bumps a named counter on the global registry by 1 (or by `n`).
///
/// `$name` must be a string literal; the resolved handle is cached per
/// call site. No-op (one flag check) when telemetry is disabled.
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::count!($name, 1u64)
    };
    ($name:literal, $n:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::Registry::global().counter($name))
                .add($n);
        }
    };
}

/// Sets a named gauge on the global registry to `v`.
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::Registry::global().gauge($name))
                .set($v);
        }
    };
}

/// Raises a named gauge on the global registry to at least `v` (a
/// high-water mark).
#[macro_export]
macro_rules! gauge_max {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::Registry::global().gauge($name))
                .raise($v);
        }
    };
}

/// Records `v` into a named histogram on the global registry.
#[macro_export]
macro_rules! observe {
    ($name:literal, $v:expr) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::Registry::global().histogram($name))
                .record($v);
        }
    };
}

/// Opens a scoped span: returns an `Option<SpanGuard>` whose drop records
/// the elapsed nanoseconds into the global histogram `<name>.ns`.
///
/// ```
/// # use seldel_telemetry as telemetry;
/// # use telemetry::span;
/// {
///     let _span = span!("chain.seal");
///     // ... timed work ...
/// } // duration recorded into "chain.seal.ns" here (when enabled)
/// ```
///
/// Disabled telemetry returns `None` without reading the clock.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            Some($crate::SpanGuard::enter(::std::sync::Arc::clone(
                SITE.get_or_init(|| $crate::Registry::global().histogram(concat!($name, ".ns"))),
            )))
        } else {
            None
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_are_inert_when_disabled() {
        let _serial = testing::serial();
        set_enabled(false);
        Registry::global().reset();
        count!("test.inert.counter");
        observe!("test.inert.hist", 42);
        gauge_set!("test.inert.gauge", 7);
        let span = span!("test.inert.span");
        assert!(span.is_none());
        drop(span);
        let snap = Registry::global().snapshot();
        assert_eq!(snap.counter("test.inert.counter"), None);
        assert_eq!(snap.gauge("test.inert.gauge"), None);
        assert!(snap.histogram("test.inert.hist").is_none());
    }

    #[test]
    fn macros_record_when_enabled() {
        let _serial = testing::serial();
        set_enabled(true);
        Registry::global().reset();
        count!("test.live.counter");
        count!("test.live.counter", 4);
        gauge_set!("test.live.gauge", 7);
        gauge_max!("test.live.gauge", 3); // below: must not lower it
        gauge_max!("test.live.gauge", 11);
        observe!("test.live.hist", 1000);
        {
            let _span = span!("test.live.span");
        }
        let snap = Registry::global().snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("test.live.counter"), Some(5));
        assert_eq!(snap.gauge("test.live.gauge"), Some(11));
        assert_eq!(snap.histogram("test.live.hist").map(|h| h.count), Some(1));
        let span_hist = snap.histogram("test.live.span.ns").expect("span recorded");
        assert_eq!(span_hist.count, 1);
    }
}
