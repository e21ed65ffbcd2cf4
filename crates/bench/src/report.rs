//! Machine-readable chain-operation timings (`BENCH_chain_ops.json`).
//!
//! The experiment binaries historically printed human tables only, which
//! left the repository's performance trajectory unrecorded. This module
//! measures the hot read paths the storage refactor targets — point
//! lookups (indexed vs full scan), `live_records` materialisation, chain
//! validation — on 1k- and 10k-live-block chains, plus two series the
//! ROADMAP asked for: **seal throughput** (blocks/s through the full
//! submit→seal→Σ path) and **per-backend timings** comparing
//! `MemStore`, `SegStore` and a disk-rooted `FileStore` on the same
//! workload. Everything is serialised as JSON so CI can archive the
//! trajectory run over run.
//!
//! The JSON writer is hand-rolled: the workspace is dependency-free by
//! design (no serde), and every report is a flat list of numbers. The
//! [`render_json_report`] builder below is shared by every `BENCH_*.json`
//! producer (`exp_growth` via [`to_json`], `exp_paging`, `exp_policy`,
//! `exp_recovery`) so the documents stay uniform and the writer exists
//! exactly once.

use std::fmt;
use std::time::Instant;

use seldel_chain::{
    validate_chain, validate_incremental, BlockStore, EntryId, FileStore, MemStore, SegStore,
    ValidationOptions,
};
use seldel_core::SelectiveLedger;
use seldel_telemetry::{Registry, TelemetrySnapshot};

use crate::{build_ledger, build_ledger_with_store};

/// One field value of a flat benchmark row.
#[derive(Debug, Clone)]
pub enum JsonField {
    /// A JSON string (escaped minimally; benchmark labels are plain).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A float rendered with a fixed number of decimals.
    F64 {
        /// The value.
        value: f64,
        /// Decimals to render (`1` matches the historical reports).
        decimals: usize,
    },
}

impl JsonField {
    /// A float at one decimal — the house style for nanosecond timings.
    pub fn f1(value: f64) -> JsonField {
        JsonField::F64 { value, decimals: 1 }
    }

    /// A float rendered with no decimals (rates like blocks/s).
    pub fn f0(value: f64) -> JsonField {
        JsonField::F64 { value, decimals: 0 }
    }
}

impl From<u64> for JsonField {
    fn from(v: u64) -> JsonField {
        JsonField::U64(v)
    }
}

impl From<usize> for JsonField {
    fn from(v: usize) -> JsonField {
        JsonField::U64(v as u64)
    }
}

impl From<&str> for JsonField {
    fn from(v: &str) -> JsonField {
        JsonField::Str(v.to_string())
    }
}

impl fmt::Display for JsonField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonField::Str(s) => {
                debug_assert!(
                    !s.contains(['"', '\\']) && !s.chars().any(|c| c.is_control()),
                    "benchmark labels must not need JSON escaping"
                );
                write!(f, "\"{s}\"")
            }
            JsonField::U64(v) => write!(f, "{v}"),
            JsonField::F64 { value, decimals } => write!(f, "{value:.decimals$}"),
        }
    }
}

/// One flat row (rendered as a single-line JSON object).
#[derive(Debug, Clone, Default)]
pub struct JsonRow {
    fields: Vec<(&'static str, JsonField)>,
}

impl JsonRow {
    /// An empty row.
    pub fn new() -> JsonRow {
        JsonRow::default()
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, name: &'static str, value: impl Into<JsonField>) -> JsonRow {
        self.fields.push((name, value.into()));
        self
    }
}

impl fmt::Display for JsonRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "\"{name}\": {value}")?;
        }
        write!(f, "}}")
    }
}

/// Renders a `BENCH_*.json` document: a `benchmark` name, optional
/// top-level scalar fields, then one array section per `(name, rows)`
/// pair — the shape every report in this workspace shares.
pub fn render_json_report(
    benchmark: &str,
    top_fields: &[(&'static str, JsonField)],
    sections: &[(&'static str, Vec<JsonRow>)],
) -> String {
    // Members are joined (never suffixed) with commas, so the document
    // stays valid JSON for any combination of empty inputs.
    let mut members: Vec<String> = Vec::new();
    members.push(format!("  \"benchmark\": \"{benchmark}\""));
    for (name, value) in top_fields {
        members.push(format!("  \"{name}\": {value}"));
    }
    for (name, rows) in sections {
        if rows.is_empty() {
            members.push(format!("  \"{name}\": []"));
            continue;
        }
        let lines: Vec<String> = rows.iter().map(|row| format!("    {row}")).collect();
        members.push(format!("  \"{name}\": [\n{}\n  ]", lines.join(",\n")));
    }
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

/// Extracts `"name": <number>` from a single-line row — the counterpart
/// of [`render_json_report`] used by regression checks reading a
/// previously committed report back (no full JSON parser needed for our
/// own line-per-row format).
pub fn row_field_f64(line: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts `"name": "<string>"` from a single-line row (see
/// [`row_field_f64`]).
pub fn row_field_str<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\": \"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Timings for one chain size, in nanoseconds per operation.
#[derive(Debug, Clone)]
pub struct ChainOpsSample {
    /// Live blocks in the measured chain.
    pub live_blocks: u64,
    /// Live data sets.
    pub live_records: u64,
    /// Indexed `locate` of the oldest (summarised) record.
    pub locate_indexed_ns: f64,
    /// Full-scan `locate_scan` of the same record (the pre-index path).
    pub locate_scan_ns: f64,
    /// One `live_records()` materialisation.
    pub live_records_ns: f64,
    /// One structural validation pass (cached-hash linkage checks).
    pub validate_structural_ns: f64,
    /// One full validation pass (signatures + anchors).
    pub validate_full_ns: f64,
    /// One incremental audit (cached Merkle roots + linkage, no signature
    /// re-verification) — the steady-state restart/receive check.
    pub validate_incremental_ns: f64,
}

impl ChainOpsSample {
    /// Scan-vs-index speedup for point lookups.
    pub fn locate_speedup(&self) -> f64 {
        if self.locate_indexed_ns <= 0.0 {
            return f64::INFINITY;
        }
        self.locate_scan_ns / self.locate_indexed_ns
    }

    /// Full-vs-incremental validation speedup.
    pub fn incremental_speedup(&self) -> f64 {
        if self.validate_incremental_ns <= 0.0 {
            return f64::INFINITY;
        }
        self.validate_full_ns / self.validate_incremental_ns
    }
}

/// Per-backend timings on an identically sized, identically built chain.
#[derive(Debug, Clone)]
pub struct BackendSample {
    /// Backend name (`MemStore` / `SegStore` / `FileStore`).
    pub backend: &'static str,
    /// Live blocks in the measured chain.
    pub live_blocks: u64,
    /// Nanoseconds per sealed block through the full submit→seal→Σ
    /// path (entry intake, linkage checks, automatic summaries,
    /// retention pruning — and, for `FileStore`, the disk writes).
    pub seal_ns: f64,
    /// Indexed `locate` of the oldest (summarised) record.
    pub locate_indexed_ns: f64,
    /// Full-scan `locate_scan` of the same record.
    pub locate_scan_ns: f64,
    /// One structural validation pass.
    pub validate_structural_ns: f64,
    /// Peak resident live-block bytes after the build + read workload —
    /// full chain bytes for the in-memory backends, hot-cache bytes for
    /// the paged `FileStore` (see `BlockStore::resident_bytes`).
    pub resident_bytes: u64,
}

impl BackendSample {
    /// Sealing throughput in blocks per second.
    pub fn seal_blocks_per_s(&self) -> f64 {
        if self.seal_ns <= 0.0 {
            return f64::INFINITY;
        }
        1e9 / self.seal_ns
    }
}

/// Times `op` over `iters` runs and returns nanoseconds per run.
fn time_ns<T>(iters: u32, mut op: impl FnMut() -> T) -> f64 {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Measures chain operations on a freshly built ledger with roughly
/// `live_blocks` live blocks (l = 10, one entry per payload block).
pub fn measure_chain_ops(live_blocks: u64) -> ChainOpsSample {
    // Drive enough payload blocks past l_max that merges happened and the
    // oldest records live in summary blocks near the marker — the worst
    // case for the historical newest-first scan. The +3l overshoot
    // guarantees summary slots beyond the l_max threshold actually fire.
    let ledger: SelectiveLedger = build_ledger(10, live_blocks, live_blocks + 30, 1, 16);
    let chain = ledger.chain();
    // The record with the lowest origin id: its original block was pruned
    // by the first merge, so it lives in a summary block near the marker.
    let oldest = chain
        .live_records()
        .iter()
        .map(|(id, _)| *id)
        .min()
        .expect("workload leaves records");
    assert!(
        chain.locate(oldest).is_some_and(|l| l.is_in_summary()),
        "oldest record must be summarised for a meaningful comparison"
    );

    let locate_indexed_ns = time_ns(10_000, || chain.locate(std::hint::black_box(oldest)));
    let locate_scan_ns = time_ns(50, || chain.locate_scan(std::hint::black_box(oldest)));
    let live_records_ns = time_ns(10, || chain.live_records().len());
    let validate_structural_ns = time_ns(3, || {
        validate_chain(chain, &ValidationOptions::structural()).expect("chain is valid")
    });
    // Averaged over a few passes: a single cold run is too noisy for the
    // cross-PR regression tracking this report feeds.
    let validate_full_ns = time_ns(3, || {
        validate_chain(chain, &ValidationOptions::default()).expect("chain is valid")
    });
    let validate_incremental_ns =
        time_ns(20, || validate_incremental(chain).expect("chain is valid"));

    ChainOpsSample {
        live_blocks: chain.len(),
        live_records: chain.record_count(),
        locate_indexed_ns,
        locate_scan_ns,
        live_records_ns,
        validate_structural_ns,
        validate_full_ns,
        validate_incremental_ns,
    }
}

/// Measures seal throughput and the hot read paths on one backend.
///
/// The ledger is driven through `live_blocks + 3l` payload blocks (same
/// shape as [`measure_chain_ops`]); sealing is timed over the whole build
/// so the number covers merges, Σ derivation and retention pruning — the
/// operations a durable backend pays disk I/O for.
pub fn measure_backend_ops<S: BlockStore>(
    backend: &'static str,
    store: S,
    live_blocks: u64,
) -> BackendSample {
    let blocks = live_blocks + 30;
    let start = Instant::now();
    let mut ledger = build_ledger_with_store(store, 10, live_blocks, blocks, 1, 16);
    // End on a durability barrier so a durable backend is charged for the
    // tail fsync it still owes (no-op on in-memory backends).
    ledger.commit_durable();
    let seal_ns = start.elapsed().as_nanos() as f64 / blocks as f64;

    let chain = ledger.chain();
    let oldest = chain
        .live_records()
        .iter()
        .map(|(id, _)| *id)
        .min()
        .expect("workload leaves records");
    let locate_indexed_ns = time_ns(10_000, || chain.locate(std::hint::black_box(oldest)));
    let locate_scan_ns = time_ns(50, || chain.locate_scan(std::hint::black_box(oldest)));
    let validate_structural_ns = time_ns(3, || {
        validate_chain(chain, &ValidationOptions::structural()).expect("chain is valid")
    });
    BackendSample {
        backend,
        live_blocks: chain.len(),
        seal_ns,
        locate_indexed_ns,
        locate_scan_ns,
        validate_structural_ns,
        resident_bytes: chain.store().resident_bytes(),
    }
}

/// Measures the shipped backends on `live_blocks`-sized chains. The
/// `FileStore` row runs rooted in scratch directories (real disk writes),
/// removed afterwards.
pub fn measure_backends(live_blocks: u64) -> Vec<BackendSample> {
    vec![
        measure_backend_ops("MemStore", MemStore::default(), live_blocks),
        measure_backend_ops("SegStore", SegStore::default(), live_blocks),
        best_durable_sample(live_blocks),
    ]
}

/// Disk-rooted seal timings jitter ±10% run to run on shared hosts, which
/// would make the baseline gate flaky. The durable row therefore takes
/// the best of three passes — the work is deterministic, so the minimum
/// wall time is the least-interfered measurement — against a fresh
/// scratch directory per pass.
fn best_durable_sample(live_blocks: u64) -> BackendSample {
    (0..3)
        .map(|pass| {
            let scratch =
                seldel_chain::testutil::ScratchDir::new(&format!("bench-FileStore-{pass}"));
            let store = FileStore::open(scratch.path()).expect("scratch store opens");
            measure_backend_ops("FileStore", store, live_blocks)
        })
        .min_by(|a, b| a.seal_ns.total_cmp(&b.seal_ns))
        .expect("three passes ran")
}

/// Runs `workload` with telemetry recording into a clean global registry
/// and returns the frozen snapshot.
///
/// This is the **untimed collection pass** the report writers use: the
/// timed measurements above run with telemetry at its default-off state
/// (so the gates never pay for instrumentation), then the same workload
/// shape is repeated once under recording so the committed `BENCH_*.json`
/// carries the internals — fsync quantiles, cache hit/miss traffic. The
/// global enable switch is restored on the way out, and the whole pass
/// holds the telemetry test lock so parallel test binaries cannot
/// interleave their registries.
pub fn collect_telemetry(workload: impl FnOnce()) -> TelemetrySnapshot {
    let _serial = seldel_telemetry::testing::serial();
    let was_enabled = seldel_telemetry::enabled();
    seldel_telemetry::set_enabled(true);
    Registry::global().reset();
    workload();
    let snap = Registry::global().snapshot();
    seldel_telemetry::set_enabled(was_enabled);
    snap
}

/// The three `telemetry_*` sections every `BENCH_*.json` document embeds:
/// name/value rows for counters and gauges, name/count/sum/max/p50/p95/p99
/// rows for histograms (nanoseconds for `.ns` span histograms).
pub fn telemetry_sections(snap: &TelemetrySnapshot) -> Vec<(&'static str, Vec<JsonRow>)> {
    let counters: Vec<JsonRow> = snap
        .counters
        .iter()
        .map(|c| {
            JsonRow::new()
                .field("name", c.name.as_str())
                .field("value", c.value)
        })
        .collect();
    let gauges: Vec<JsonRow> = snap
        .gauges
        .iter()
        .map(|g| {
            JsonRow::new()
                .field("name", g.name.as_str())
                .field("value", g.value)
        })
        .collect();
    let histograms: Vec<JsonRow> = snap
        .histograms
        .iter()
        .map(|h| {
            JsonRow::new()
                .field("name", h.name.as_str())
                .field("count", h.count)
                .field("sum", h.sum)
                .field("max", h.max)
                .field("p50", h.p50)
                .field("p95", h.p95)
                .field("p99", h.p99)
        })
        .collect();
    vec![
        ("telemetry_counters", counters),
        ("telemetry_gauges", gauges),
        ("telemetry_histograms", histograms),
    ]
}

/// Verifies the indexed and scan paths agree on a sample of ids (sanity
/// guard so the speedup numbers compare equal work).
pub fn check_lookup_agreement(ledger: &SelectiveLedger, ids: &[EntryId]) -> bool {
    let chain = ledger.chain();
    ids.iter()
        .all(|id| chain.locate(*id) == chain.locate_scan(*id))
}

/// Renders the samples as the `BENCH_chain_ops.json` document (through
/// the shared [`render_json_report`] writer), with `telemetry` appended
/// as the `telemetry_*` sections.
pub fn to_json(
    samples: &[ChainOpsSample],
    backends: &[BackendSample],
    telemetry: &TelemetrySnapshot,
) -> String {
    let sample_rows: Vec<JsonRow> = samples
        .iter()
        .map(|s| {
            JsonRow::new()
                .field("live_blocks", s.live_blocks)
                .field("live_records", s.live_records)
                .field("locate_indexed_ns", JsonField::f1(s.locate_indexed_ns))
                .field("locate_scan_ns", JsonField::f1(s.locate_scan_ns))
                .field("locate_speedup", JsonField::f1(s.locate_speedup()))
                .field("live_records_ns", JsonField::f1(s.live_records_ns))
                .field(
                    "validate_structural_ns",
                    JsonField::f1(s.validate_structural_ns),
                )
                .field("validate_full_ns", JsonField::f1(s.validate_full_ns))
                .field(
                    "validate_incremental_ns",
                    JsonField::f1(s.validate_incremental_ns),
                )
                .field(
                    "incremental_speedup",
                    JsonField::f1(s.incremental_speedup()),
                )
        })
        .collect();
    let backend_rows: Vec<JsonRow> = backends
        .iter()
        .map(|b| {
            JsonRow::new()
                .field("backend", b.backend)
                .field("live_blocks", b.live_blocks)
                .field("seal_ns", JsonField::f1(b.seal_ns))
                .field("seal_blocks_per_s", JsonField::f0(b.seal_blocks_per_s()))
                .field("locate_indexed_ns", JsonField::f1(b.locate_indexed_ns))
                .field("locate_scan_ns", JsonField::f1(b.locate_scan_ns))
                .field(
                    "validate_structural_ns",
                    JsonField::f1(b.validate_structural_ns),
                )
                .field("resident_bytes", b.resident_bytes)
        })
        .collect();
    let mut sections = vec![("samples", sample_rows), ("backends", backend_rows)];
    sections.extend(telemetry_sections(telemetry));
    render_json_report("chain_ops", &[("unit", JsonField::from("ns"))], &sections)
}

/// Measures the standard 1k/10k sizes plus the per-backend series and
/// writes `BENCH_chain_ops.json` into the current directory. Returns the
/// measurements for printing.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn write_chain_ops_report(
    path: &str,
) -> std::io::Result<(Vec<ChainOpsSample>, Vec<BackendSample>)> {
    let samples: Vec<ChainOpsSample> = [1_000u64, 10_000]
        .iter()
        .map(|&n| measure_chain_ops(n))
        .collect();
    let backends = measure_backends(1_000);
    // Untimed collection pass (see [`collect_telemetry`]): a disk-rooted
    // workload with a deliberately tight hot cache, so the committed
    // report shows fsync quantiles and real cache hit/miss/evict traffic.
    let telemetry = collect_telemetry(|| {
        let scratch = seldel_chain::testutil::ScratchDir::new("bench-telemetry");
        let store = FileStore::open(scratch.path())
            .expect("scratch store opens")
            .with_hot_cache_capacity(32);
        measure_backend_ops("FileStore", store, 200);
    });
    std::fs::write(path, to_json(&samples, &backends, &telemetry))?;
    Ok((samples, backends))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_is_well_formed_enough() {
        let sample = ChainOpsSample {
            live_blocks: 100,
            live_records: 90,
            locate_indexed_ns: 50.0,
            locate_scan_ns: 5000.0,
            live_records_ns: 1000.0,
            validate_structural_ns: 2000.0,
            validate_full_ns: 9000.0,
            validate_incremental_ns: 450.0,
        };
        assert!((sample.locate_speedup() - 100.0).abs() < 1e-9);
        assert!((sample.incremental_speedup() - 20.0).abs() < 1e-9);
        let backend = BackendSample {
            backend: "MemStore",
            live_blocks: 100,
            seal_ns: 2_000_000.0,
            locate_indexed_ns: 50.0,
            locate_scan_ns: 5000.0,
            validate_structural_ns: 2000.0,
            resident_bytes: 123_456,
        };
        assert!((backend.seal_blocks_per_s() - 500.0).abs() < 1e-9);
        // A private registry stands in for a collection pass.
        let reg = Registry::new();
        reg.counter("fstore.cache.hit").add(7);
        reg.gauge("anchor.announce_queue.depth").set(3);
        reg.histogram("fstore.fsync.ns").record(125_000);
        let telemetry = reg.snapshot();
        let json = to_json(
            &[sample.clone(), sample],
            &[backend.clone(), backend],
            &telemetry,
        );
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"live_blocks\"").count(), 4);
        assert_eq!(json.matches("\"seal_blocks_per_s\"").count(), 2);
        // Exactly one separating comma inside each of the two rows arrays
        // (the three telemetry sections here hold one row each).
        assert_eq!(json.matches("},\n").count(), 2);
        assert!(json.contains("\"telemetry_counters\""));
        let row = json
            .lines()
            .find(|l| l.contains("fstore.fsync.ns"))
            .expect("histogram row");
        assert_eq!(row_field_str(row, "name"), Some("fstore.fsync.ns"));
        assert_eq!(row_field_f64(row, "count"), Some(1.0));
        assert_eq!(row_field_f64(row, "max"), Some(125_000.0));
    }

    #[test]
    fn collection_pass_captures_store_internals() {
        // A small disk-rooted workload under recording must surface the
        // instrumented internals: fsync spans, cache traffic, seal spans.
        let telemetry = collect_telemetry(|| {
            let scratch = seldel_chain::testutil::ScratchDir::new("bench-collect");
            let store = FileStore::open(scratch.path())
                .expect("scratch store opens")
                .with_hot_cache_capacity(8);
            measure_backend_ops("FileStore", store, 60);
        });
        assert!(!telemetry.is_empty());
        let fsync = telemetry
            .histogram("fstore.fsync.ns")
            .expect("fsync span recorded");
        assert!(fsync.count > 0 && fsync.max >= fsync.p50);
        assert!(telemetry.counter("fstore.cache.hit").unwrap_or(0) > 0);
        assert!(telemetry.counter("chain.locate").unwrap_or(0) > 0);
        assert!(telemetry.histogram("ledger.seal.ns").is_some());
    }

    #[test]
    fn shared_writer_round_trips_through_the_row_extractors() {
        let rows = vec![
            JsonRow::new()
                .field("backend", "MemStore")
                .field("shards", 4u64)
                .field("lookups_per_s", JsonField::f0(123_456.0)),
            JsonRow::new()
                .field("backend", "SegStore")
                .field("shards", 16u64)
                .field("lookups_per_s", JsonField::f0(99.0)),
        ];
        let json = render_json_report(
            "shard",
            &[("unit", JsonField::from("ns"))],
            &[("lookup", rows)],
        );
        assert!(json.starts_with("{\n  \"benchmark\": \"shard\",\n"));
        assert!(json.contains("\"unit\": \"ns\","));
        assert!(json.trim_end().ends_with('}'));
        // Line-per-row: the extractors read back what the writer wrote.
        let mut seen = Vec::new();
        for line in json.lines() {
            if let (Some(backend), Some(rate)) = (
                row_field_str(line, "backend"),
                row_field_f64(line, "lookups_per_s"),
            ) {
                seen.push((backend.to_string(), rate));
            }
        }
        assert_eq!(
            seen,
            vec![
                ("MemStore".to_string(), 123_456.0),
                ("SegStore".to_string(), 99.0)
            ]
        );
        assert_eq!(row_field_f64("{\"x\": 1.5}", "y"), None);
        assert_eq!(row_field_str("{\"x\": 1.5}", "x"), None);
    }

    #[test]
    fn shared_writer_stays_valid_json_on_empty_inputs() {
        // No sections: the last member must not trail a comma.
        let json = render_json_report("x", &[("unit", JsonField::from("ns"))], &[]);
        assert_eq!(json, "{\n  \"benchmark\": \"x\",\n  \"unit\": \"ns\"\n}\n");
        // No top fields, one empty section: an empty array, no comma.
        let json = render_json_report("x", &[], &[("rows", Vec::new())]);
        assert_eq!(json, "{\n  \"benchmark\": \"x\",\n  \"rows\": []\n}\n");
        assert!(
            !json.contains(",\n}"),
            "trailing comma before closing brace"
        );
    }

    #[test]
    fn backend_measurement_covers_every_backend_mode() {
        let backends = measure_backends(60);
        let names: Vec<&str> = backends.iter().map(|b| b.backend).collect();
        assert_eq!(names, ["MemStore", "SegStore", "FileStore"]);
        for b in &backends {
            assert!(b.seal_ns > 0.0, "{}: no seal time", b.backend);
            assert!(b.live_blocks >= 55 && b.live_blocks <= 70, "{b:?}");
        }
    }

    #[test]
    fn small_measurement_runs_and_agrees() {
        let sample = measure_chain_ops(60);
        assert!(sample.live_blocks >= 55 && sample.live_blocks <= 70);
        assert!(sample.locate_indexed_ns > 0.0);
        let ledger: SelectiveLedger = build_ledger(10, 60, 90, 1, 16);
        let ids: Vec<EntryId> = ledger
            .chain()
            .live_records()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert!(check_lookup_agreement(&ledger, &ids));
    }
}
