//! Experiment E11 — paged storage (`BENCH_paging.json`).
//!
//! The paged `FileStore` promises a live chain several times larger than
//! resident memory with **flat** locate latency: cold reads are served
//! straight from the segment files through the offset table, hot reads
//! from the bounded LRU cache, and only the cache plus the offset table
//! stay resident. This module measures exactly that promise: for chain
//! sizes at 1×, 2× and 4× the hot-cache budget it times indexed `locate`
//! under a uniform (cache-hostile) probe pattern, repeated hot-id
//! lookups, and batched `locate_many`, and records the resident
//! live-block bytes next to the on-disk chain bytes.
//!
//! The sweep probe is a **cyclic scan** over every live id — the
//! canonical LRU-adversarial pattern: within budget it converges to all
//! hits, past budget it is all misses (each id is evicted before its next
//! probe), independent of *how far* past budget the chain is. That makes
//! the interesting comparisons:
//!
//! * **1× vs beyond-budget** — the gap is the price of a page-in (one
//!   `open`+`seek`+`read`+decode);
//! * **2× vs 4×** — both all-miss, so the latency must be flat: locate
//!   cost depends on the frame, not the chain length. This is the gate
//!   `exp_paging` enforces;
//! * **resident vs chain bytes** — resident bytes must track the cache
//!   budget while the chain bytes quadruple.

use std::time::Instant;

use seldel_chain::testutil::ScratchDir;
use seldel_chain::{
    Block, BlockBody, BlockNumber, BlockStore, Blockchain, EntryId, EntryNumber, FileStore,
    Timestamp,
};

use seldel_telemetry::TelemetrySnapshot;

use crate::report::{
    collect_telemetry, render_json_report, telemetry_sections, JsonField, JsonRow,
};
use crate::{workload_entry, workload_key};

/// One measured chain size.
#[derive(Debug, Clone)]
pub struct PagingSample {
    /// Live blocks in the chain (genesis included).
    pub live_blocks: u64,
    /// Hot-cache budget the store ran with, in blocks.
    pub cache_blocks: usize,
    /// Total canonical bytes of the live chain (the on-disk side).
    pub chain_bytes: u64,
    /// Live-block bytes resident in memory after the probe workload
    /// (hot-cache contents; the offset table is excluded by design).
    pub resident_bytes: u64,
    /// Indexed `locate` under a cyclic scan over every live id —
    /// LRU-adversarial: all misses once the chain exceeds the budget.
    pub locate_uniform_ns: f64,
    /// Indexed `locate` of one repeatedly probed id — the hot path.
    pub locate_hot_ns: f64,
    /// Batched `locate_many` over the same cyclic probes, per id.
    pub locate_many_ns_per_id: f64,
    /// Hot-cache hits accumulated by the probe workload.
    pub cache_hits: u64,
    /// Hot-cache misses accumulated by the probe workload.
    pub cache_misses: u64,
}

impl PagingSample {
    /// How many times larger the on-disk chain is than resident memory.
    pub fn paging_factor(&self) -> f64 {
        if self.resident_bytes == 0 {
            return f64::INFINITY;
        }
        self.chain_bytes as f64 / self.resident_bytes as f64
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

/// Builds a disk-rooted chain of `blocks` single-entry payload blocks on a
/// paged store capped at `cache_blocks` hot blocks, then measures the
/// locate paths and the resident footprint.
pub fn measure_paged(cache_blocks: usize, blocks: u64, payload_bytes: usize) -> PagingSample {
    let scratch = ScratchDir::new("bench-paging");
    let store = FileStore::open_with_capacity(scratch.path(), 64)
        .expect("scratch store opens")
        .with_hot_cache_capacity(cache_blocks);
    let key = workload_key();
    let mut chain: Blockchain<FileStore> =
        Blockchain::with_genesis_in(store, Block::genesis("paging", Timestamp(0)));
    for b in 1..=blocks {
        let prev = chain.tip_hash();
        chain
            .push(Block::new(
                BlockNumber(b),
                Timestamp(b * 10),
                prev,
                BlockBody::Normal {
                    entries: vec![workload_entry(&key, b, payload_bytes)],
                },
            ))
            .expect("workload blocks link");
    }

    let ids: Vec<EntryId> = (1..=blocks)
        .map(|b| EntryId::new(BlockNumber(b), EntryNumber(0)))
        .collect();

    // Warm the cache to steady state (fills it within budget; past budget
    // the pattern is all-miss anyway, warm or cold).
    for id in &ids {
        std::hint::black_box(chain.locate(*id));
    }
    // The cyclic sweep: oldest to newest, over and over.
    let mut cursor = 0usize;
    let locate_uniform_ns = time_ns(2_048, || {
        let id = ids[cursor];
        cursor = (cursor + 1) % ids.len();
        chain.locate(std::hint::black_box(id))
    });
    // Hot probe: the same id over and over — must be cache-served.
    let hot = ids[ids.len() / 2];
    let locate_hot_ns = time_ns(10_000, || chain.locate(std::hint::black_box(hot)));
    // Batched lookups over the same cyclic order.
    let batch: Vec<EntryId> = ids.iter().cycle().take(256).copied().collect();
    let locate_many_ns_per_id =
        time_ns(8, || chain.locate_many(std::hint::black_box(&batch))) / batch.len() as f64;

    let store = chain.store();
    PagingSample {
        live_blocks: chain.len(),
        cache_blocks,
        chain_bytes: chain.total_byte_size(),
        resident_bytes: store.resident_bytes(),
        locate_uniform_ns,
        locate_hot_ns,
        locate_many_ns_per_id,
        cache_hits: store.hot_cache_hits(),
        cache_misses: store.hot_cache_misses(),
    }
}

/// Renders the samples as the `BENCH_paging.json` document, with
/// `telemetry` appended as the `telemetry_*` sections.
pub fn to_paging_json(samples: &[PagingSample], telemetry: &TelemetrySnapshot) -> String {
    let rows: Vec<JsonRow> = samples
        .iter()
        .map(|s| {
            JsonRow::new()
                .field("live_blocks", s.live_blocks)
                .field("cache_blocks", s.cache_blocks)
                .field("chain_bytes", s.chain_bytes)
                .field("resident_bytes", s.resident_bytes)
                .field("locate_uniform_ns", JsonField::f1(s.locate_uniform_ns))
                .field("locate_hot_ns", JsonField::f1(s.locate_hot_ns))
                .field(
                    "locate_many_ns_per_id",
                    JsonField::f1(s.locate_many_ns_per_id),
                )
                .field("cache_hits", s.cache_hits)
                .field("cache_misses", s.cache_misses)
        })
        .collect();
    let mut sections = vec![("samples", rows)];
    sections.extend(telemetry_sections(telemetry));
    render_json_report("paging", &[("unit", JsonField::from("ns"))], &sections)
}

/// Measures chains at 1×, 2× and 4× the cache budget and writes
/// `BENCH_paging.json`. Returns the samples for printing and gating.
///
/// # Errors
///
/// Propagates the I/O error when the file cannot be written.
pub fn write_paging_report(
    path: &str,
    cache_blocks: usize,
    payload_bytes: usize,
) -> std::io::Result<Vec<PagingSample>> {
    let budget = cache_blocks as u64;
    let samples: Vec<PagingSample> = [budget, 2 * budget, 4 * budget]
        .iter()
        .map(|&blocks| measure_paged(cache_blocks, blocks, payload_bytes))
        .collect();
    // Untimed collection pass at the 2× (all-miss) size: the committed
    // report shows the cache hit/miss/evict traffic and fsync quantiles
    // behind the timings above, which ran with telemetry at default-off.
    let telemetry = collect_telemetry(|| {
        measure_paged(cache_blocks, 2 * budget, payload_bytes);
    });
    std::fs::write(path, to_paging_json(&samples, &telemetry))?;
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_measurement_pages_instead_of_residing() {
        // Tiny but real: 8-block cache, 32-block chain — the sample must
        // show a chain several times its resident footprint and working
        // locate paths on the miss-dominated pattern.
        let sample = measure_paged(8, 32, 64);
        assert_eq!(sample.live_blocks, 33);
        assert!(sample.resident_bytes > 0, "cache holds something");
        assert!(
            sample.paging_factor() >= 3.0,
            "chain must dwarf resident memory, factor {:.1}",
            sample.paging_factor()
        );
        assert!(sample.cache_misses > 0, "cyclic probes must miss");
        assert!(sample.cache_hits > 0, "hot probes must hit");
        assert!(sample.locate_uniform_ns > 0.0 && sample.locate_many_ns_per_id > 0.0);
    }

    #[test]
    fn paging_json_round_trips_through_the_row_extractors() {
        use crate::report::{row_field_f64, row_field_str};
        let sample = PagingSample {
            live_blocks: 257,
            cache_blocks: 64,
            chain_bytes: 100_000,
            resident_bytes: 25_000,
            locate_uniform_ns: 900.0,
            locate_hot_ns: 80.0,
            locate_many_ns_per_id: 450.0,
            cache_hits: 10,
            cache_misses: 2_000,
        };
        assert!((sample.paging_factor() - 4.0).abs() < 1e-9);
        let reg = seldel_telemetry::Registry::new();
        reg.counter("fstore.cache.evict").add(12);
        let json = to_paging_json(&[sample], &reg.snapshot());
        assert!(json.starts_with("{\n  \"benchmark\": \"paging\",\n"));
        assert!(json.contains("\"fstore.cache.evict\", \"value\": 12"));
        let row = json
            .lines()
            .find(|l| l.contains("\"live_blocks\""))
            .expect("sample row");
        assert_eq!(row_field_f64(row, "locate_uniform_ns"), Some(900.0));
        assert_eq!(row_field_f64(row, "resident_bytes"), Some(25_000.0));
        assert_eq!(row_field_str(row, "missing"), None);
    }
}
